"""Reference computations the package's results are checked against.

Independent references.  Everything above the last section is written
directly from the model definition and imports nothing from plks:
exponents, source terms, flux inversion, a three-term startup expansion,
and a classical fourth-order Runge-Kutta sweep.  Oracle trajectories are
the ground truth the adaptive integrator is compared against.  The
spherical average is the point-by-point rule the delta test's vectorized
quadrature must reproduce bit for bit, the off-centre Gaussian's average is
the closed form that rule approximates, and the dense-output loop over the
Dormand-Prince matrix is the sum the stepper's unrolled coefficients must
reproduce bit for bit.  The unfused numpy expressions of the energy and
the energy audit are the references their in-place evaluation must
reproduce bit for bit.  The audit's oracle is also the one implementation
of the dissipation-integral defect, which compares each increment of E
with Simpson's rule on the predicted E', w at each step's midpoint from
that step's interpolant; its evaluation by sample() at the midpoints must
give the same figures bit for bit.

Audits of library trajectories.  The last section holds three checks that
read trajectories the package computes, with its integrator and helpers:
the local midpoint residual of each accepted step, the growth envelopes of
forward p <= 2 profiles, and the rescaled approach of large backward
heights to the limit problem.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import gamma, ive

from plks.params import Regime
from plks.radial_ode import (
    IntegratorOptions,
    Termination,
    _u_of_energy,
    backward_ode,
    integrate,
    kinetic_energy,
    limit_ode,
    uprime_from_w,
)


def oracle_exponents(N: int, p: float) -> dict:
    m = ((p - 2.0) * N + p) / N
    out = {"m": m, "alpha": 1.0 / m, "beta": 1.0 / (m * N),
           "gamma": (2.0 - m * N) / (m * N)}
    if p != 2.0:
        out["q"] = m * (p - 1.0) / (p - 2.0)
        out["B"] = abs((p - 1.0) / (p - 2.0)) ** (p - 1.0)
        out["lam"] = (p - 1.0) / (N * (p - 2.0))
    return out


def oracle_g(N: int, p: float, chi: float, problem: str):
    """Source term g(u) for one of the seven profile problems.

    problem: backward | forward | limit.  The regime split on p is rederived
    here from scratch.
    """
    m = ((p - 2.0) * N + p) / N
    if p == 2.0:
        if problem == "backward":
            return lambda u: chi * math.exp(m * u) - 1.0 / m
        if problem == "forward":
            return lambda u: chi * math.exp(m * u) + 1.0 / m
        raise ValueError("limit problem needs p > 2")
    q = m * (p - 1.0) / (p - 2.0)

    def pw(u: float) -> float:
        return math.copysign(abs(u) ** q, u) if u != 0.0 else 0.0

    if problem == "limit":
        if p < 2.0:
            raise ValueError("limit problem needs p > 2")
        return lambda u: chi * pw(u)
    if p > 2.0:
        if problem == "backward":
            return lambda u: chi * pw(u) - 1.0 / m
        return lambda u: chi * pw(u) + 1.0 / m
    if problem == "backward":
        return lambda u: 1.0 / m - chi * pw(u)
    return lambda u: -(chi * pw(u) + 1.0 / m)


def oracle_dg(N: int, p: float, chi: float, problem: str):
    """g'(u) of oracle_g's source term, differentiated by hand."""
    m = ((p - 2.0) * N + p) / N
    if p == 2.0:
        return lambda u: chi * m * math.exp(m * u)
    q = m * (p - 1.0) / (p - 2.0)
    sign = -1.0 if (p < 2.0 and problem != "limit") else 1.0
    return lambda u: sign * chi * q * abs(u) ** (q - 1.0)


def oracle_startup(N: int, p: float, chi: float, problem: str,
                   u0: float, r0: float) -> tuple[float, float]:
    """Three-term expansion at the origin, u = u0 + A r^b + C r^(2b) and
    w = r (Y0 + Y1 r^b), b = p/(p-1).  Integrating (r^(N-1) w)' =
    -r^(N-1) (g0 + g1 A r^b) gives Y0 = -g0/N and Y1 = -g1 A/(N + b);
    u' = sign(w) (|w|/B)^(1/(p-1)) = s K r^(b-1) (1 + Y1/Y0 r^b/(p-1) + ...)
    with s = sign(Y0), K = (|Y0|/B)^(1/(p-1)), so A = s K/b and
    C = s K Y1/((p-1) Y0 2b).  Dropped: r^(3b) in u and r^(1+2b) in w."""
    g0 = oracle_g(N, p, chi, problem)(u0)
    if g0 == 0.0:
        return u0, 0.0
    if p == 2.0:
        B, pe = 1.0, 2.0
    else:
        B = abs((p - 1.0) / (p - 2.0)) ** (p - 1.0)
        pe = p
    b = pe / (pe - 1.0)
    Y0 = -g0 / N
    s = math.copysign(1.0, Y0)
    K = (abs(Y0) / B) ** (1.0 / (pe - 1.0))
    A = s * K / b
    Y1 = -oracle_dg(N, p, chi, problem)(u0) * A / (N + b)
    C = s * K * Y1 / ((pe - 1.0) * Y0 * 2.0 * b)
    x = r0 ** b
    return u0 + A * x + C * x * x, r0 * (Y0 + Y1 * x)


def rk4_trajectory(N: int, p: float, chi: float, problem: str, u0: float,
                   r0: float, r1: float, n_steps: int) -> tuple[float, float]:
    """Classical RK4 from the startup state at r0 to r1; returns (u, w)."""
    g = oracle_g(N, p, chi, problem)
    if p == 2.0:
        B, pe = 1.0, 2.0
    else:
        B = abs((p - 1.0) / (p - 2.0)) ** (p - 1.0)
        pe = p
    e = 1.0 / (pe - 1.0)
    nm1 = N - 1.0
    u, w = oracle_startup(N, p, chi, problem, u0, r0)
    h = (r1 - r0) / n_steps
    r = r0
    for _ in range(n_steps):
        k1u = math.copysign((abs(w) / B) ** e, w) if w != 0.0 else 0.0
        k1w = -nm1 / r * w - g(u)
        rm = r + 0.5 * h
        uu = u + 0.5 * h * k1u
        ww = w + 0.5 * h * k1w
        k2u = math.copysign((abs(ww) / B) ** e, ww) if ww != 0.0 else 0.0
        k2w = -nm1 / rm * ww - g(uu)
        uu = u + 0.5 * h * k2u
        ww = w + 0.5 * h * k2w
        k3u = math.copysign((abs(ww) / B) ** e, ww) if ww != 0.0 else 0.0
        k3w = -nm1 / rm * ww - g(uu)
        uu = u + h * k3u
        ww = w + h * k3w
        re = r + h
        k4u = math.copysign((abs(ww) / B) ** e, ww) if ww != 0.0 else 0.0
        k4w = -nm1 / re * ww - g(uu)
        u += h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        w += h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        r = re
    return u, w


def oracle_u_at_one(N: int, p: float, chi: float, problem: str, u0: float,
                    h: float = 1e-5, r0: float = 1e-6) -> float:
    n = max(1, round((1.0 - r0) / h))
    return rk4_trajectory(N, p, chi, problem, u0, r0, 1.0, n)[0]


def angular_average(f, N: int, s: float) -> float:
    """Spherical average of f at radius s, one point at a time."""
    if s == 0.0:
        return float(f(np.zeros(N)))
    if N == 1:
        return 0.5 * (float(f(np.array([s]))) + float(f(np.array([-s]))))
    if N == 2:
        th = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
        return float(np.mean([f(np.array([s * math.cos(a), s * math.sin(a)]))
                              for a in th]))
    if N == 3:
        # Gauss-Legendre in the polar cosine, trapezoid in azimuth
        cs, wt = np.polynomial.legendre.leggauss(12)
        th = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        acc = 0.0
        for c0, w in zip(cs, wt):
            sn = math.sqrt(1.0 - c0 * c0)
            ring = np.mean([f(np.array([s * sn * math.cos(a),
                                        s * sn * math.sin(a), s * c0]))
                            for a in th])
            acc += w * ring
        return float(acc / 2.0)
    raise ValueError(f"no point-by-point rule at N = {N} > 3")


def off_centre_gaussian_average(N: int, c, s) -> np.ndarray:
    """Spherical average of exp(-|x - c|^2) over the spheres |x| = s.

    With k = |c| it is exp(-s^2 - k^2) Gamma(N/2) (ks)^(1-N/2) I_(N/2-1)(2ks):
    cosh(2ks) at N = 1, I_0(2ks) at N = 2 and sinh(2ks)/(2ks) at N = 3.
    The exponentially scaled ive absorbs exp(2ks), which leaves the factor
    exp(-(s - k)^2); the Bessel factor tends to 1 at s = 0.
    """
    s = np.asarray(s, dtype=float)
    k = float(np.linalg.norm(c))
    x = k * s
    xs = np.where(x > 0.0, x, 1.0)
    nu = N / 2.0 - 1.0
    bessel = gamma(N / 2.0) * xs ** -nu * ive(nu, 2.0 * xs)
    return np.exp(-(s - k) ** 2) * np.where(x > 0.0, bessel, 1.0)


# Quartic dense-output matrix of the Dormand-Prince 5(4) pair: row s holds
# the weights of stage s + 1 in the interpolant's coefficients 0..3.
DP_DENSE = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0),
)


def dense_coefficients_loop(ks) -> tuple:
    """One component's coefficients 0..3 from its seven stage slopes ks.

    Sums k_s P[s][j] over the nonzero entries in stage order, from 0.0.
    """
    q = [0.0, 0.0, 0.0, 0.0]
    for k, row in zip(ks, DP_DENSE):
        for j, pj in enumerate(row):
            if pj != 0.0:
                q[j] += k * pj
    return tuple(q)


# signs of coef / chi and const * m in each problem's potential
# G = coef/(q+1) |u|^(q+1) + const u (exponential: coef/m e^(m u) + const u)
_POTENTIALS = {
    "backward-slow": (1.0, -1.0), "backward-linear": (1.0, -1.0),
    "backward-fast": (-1.0, 1.0), "forward-slow": (1.0, 1.0),
    "forward-linear": (1.0, 1.0), "forward-fast": (-1.0, -1.0),
    "limit": (1.0, 0.0),
}


def potential_reference(ode, u):
    """G(u) as one unfused numpy expression per source term."""
    P = ode.params
    s_coef, s_const = _POTENTIALS[ode.kind]
    chi = P.chi if s_coef > 0.0 else -P.chi
    const = s_const / P.m if s_const else 0.0
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        if ode.kind.endswith("linear"):
            return chi / P.m * np.exp(P.m * u) + const * u
        qp1 = P.q + 1.0
        if qp1 == 0.0:
            return chi * np.log(u) + const * u
        return chi / qp1 * np.abs(u) ** qp1 + const * u


def kinetic_energy_reference(ode, w):
    """B (p-1)/p (|w|/B)^(p/(p-1)) as one unfused numpy expression."""
    w = np.asarray(w, dtype=float)
    pe, Be = ode.params.p, ode.B_eff
    with np.errstate(over="ignore"):
        return Be * (pe - 1.0) / pe * (np.abs(w) / Be) ** (pe / (pe - 1.0))


def energy_reference(ode, u, w):
    """K(w) + G(u), a float for scalar u."""
    val = kinetic_energy_reference(ode, w) + potential_reference(ode, u)
    return float(val) if np.ndim(u) == 0 else val


class EnergyAudit(NamedTuple):
    """The package's EnergyCheck fields in their order, then the
    dissipation-integral defect: max |dE - Simpson of the predicted E'| over
    the steps, which only this oracle computes."""

    max_increase: float
    max_drift: float
    e0: float
    scale: float
    passed: bool
    max_defect: float


def _audit(sol, r_mid, w_mid) -> EnergyAudit:
    ode = sol.ode
    E, r = sol.energy, sol.r
    pe, Be = ode.params.p, ode.B_eff
    ex = pe / (pe - 1.0)
    with np.errstate(over="ignore"):
        D = -Be * (ode.params.N - 1.0) / r * (np.abs(sol.w) / Be) ** ex
    dE = np.diff(E)
    max_defect = max_increase = 0.0
    if len(dE):
        h = np.diff(r)
        with np.errstate(over="ignore"):
            D_mid = -Be * (ode.params.N - 1.0) / r_mid * (np.abs(w_mid) / Be) ** ex
        simpson = h / 6.0 * (D[:-1] + 4.0 * D_mid + D[1:])
        max_defect = float(np.max(np.abs(dE - simpson)))
        max_increase = float(max(np.max(dE), 0.0))
    e0 = float(E[0])
    scale = abs(e0)
    if ode.equilibrium_u is not None:
        scale = max(scale, abs(float(potential_reference(ode, ode.equilibrium_u))))
    scale = max(scale, 1e-12)
    max_drift = float(np.max(np.abs(E - e0)))
    if ode.params.N >= 2:
        passed = max_increase <= 1e-8 * scale
    else:
        passed = max_drift <= 1e-6 * scale
    return EnergyAudit(max_increase, max_drift, e0, scale, passed, max_defect)


def energy_audit_reference(sol) -> EnergyAudit:
    """The energy audit's fields and the dissipation-integral defect from
    unfused numpy expressions, each midpoint w from its own step's
    interpolant (a cut-short last step keeps its full length in _h)."""
    r = sol.r
    r_mid = r[:-1] + 0.5 * np.diff(r)
    theta = (r_mid - r[:-1]) / sol._h
    q = sol._q[:, 1]
    w_mid = sol.w[:-1] + sol._h * (theta * (q[:, 0] + theta * (
        q[:, 1] + theta * (q[:, 2] + theta * q[:, 3]))))
    return _audit(sol, r_mid, w_mid)


def energy_audit_by_sample(sol) -> EnergyAudit:
    """energy_audit_reference's fields with every midpoint w from
    sol.sample()."""
    r = sol.r
    r_mid = r[:-1] + 0.5 * np.diff(r)
    return _audit(sol, r_mid, sol.sample(r_mid)[1] if len(r_mid) else r_mid)


# ------------------------------------------------- audits of library runs


class LocalResidualReport(NamedTuple):
    """Scaled midpoint-defect maxima of one trajectory.

    max_w covers every accepted step.  max_u_regular covers steps away
    from zeros of the flux; for p != 2 the inversion u' ~ |w|^(1/(p-1)) is
    only Hoelder there, u picks up a fractional-power kink, and no
    tolerance-proportional defect bound exists on such steps (those appear
    in max_u_all / n_degenerate instead).  Steps taken in (E, w), which
    recover u from E rather than integrate it, count as degenerate too.
    """

    max_w: float
    max_u_regular: float
    max_u_all: float
    n_degenerate: int


def local_residual_check(sol) -> LocalResidualReport:
    """Audit each accepted step against a Hermite-Simpson midpoint quadrature.

    The defect |y1 - y0 - (h/6)(f0 + 4 f_mid + f1)|, with the midpoint state
    from cubic Hermite interpolation, is scaled by the integrator tolerance
    (abs_tol + rel_tol |y|); regular steps must come in below 10.  On a
    step taken in (E, w) the midpoint u of the w equation is recovered
    from E's Hermite midpoint.
    """
    ode = sol.ode
    if len(sol.r) < 2:
        return LocalResidualReport(0.0, 0.0, 0.0, 0)
    r, u, w = sol.r, sol.u, sol.w
    h = np.diff(r)

    def rhs_np(rv, uv, wv):
        du = uprime_from_w(ode, wv)
        dw = -(ode.params.N - 1.0) / rv * wv - ode.g_np(uv)
        return du, dw

    du0, dw0 = rhs_np(r[:-1], u[:-1], w[:-1])
    du1, dw1 = rhs_np(r[1:], u[1:], w[1:])
    um = 0.5 * (u[:-1] + u[1:]) + h * (du0 - du1) / 8.0
    wm = 0.5 * (w[:-1] + w[1:]) + h * (dw0 - dw1) / 8.0
    on_E = np.isfinite(sol._e)
    if np.any(on_E):
        # a step taken in (E, w) gets its midpoint u from E, as the
        # stepper's defect control does, not from u's Hermite cubic
        dE = -(ode.params.N - 1.0) / r * w * uprime_from_w(ode, w)
        E = sol.energy
        Em = 0.5 * (E[:-1] + E[1:]) + h * (dE[:-1] - dE[1:]) / 8.0
        um[on_E] = _u_of_energy(ode, Em[on_E] - kinetic_energy(
            ode, wm[on_E]), um[on_E])
    dum, dwm = rhs_np(r[:-1] + 0.5 * h, um, wm)
    res_u = np.abs(np.diff(u) - h / 6.0 * (du0 + 4.0 * dum + du1))
    res_w = np.abs(np.diff(w) - h / 6.0 * (dw0 + 4.0 * dwm + dw1))
    rtol, atol = sol.opts.rel_tol, sol.opts.abs_tol
    su = atol + rtol * np.maximum(np.abs(u[:-1]), np.abs(u[1:]))
    sw = atol + rtol * np.maximum(np.abs(w[:-1]), np.abs(w[1:]))
    sc_u = res_u / su
    sc_w = res_w / sw
    if ode.params.p == 2.0:
        degenerate = np.zeros(len(h), dtype=bool)
    else:
        # within a few steps of a flux zero: |w| below ~4 h |w'|; matches
        # the exemption the stepper's defect control applies
        band = h * np.maximum(np.abs(dw0), np.abs(dw1))
        degenerate = (w[:-1] * w[1:] <= 0.0) \
            | (np.minimum(np.abs(w[:-1]), np.abs(w[1:])) <= 4.0 * band) | on_E
    regular = ~degenerate
    max_u_reg = float(np.max(sc_u[regular])) if np.any(regular) else 0.0
    return LocalResidualReport(
        max_w=float(np.max(sc_w)),
        max_u_regular=max_u_reg,
        max_u_all=float(np.max(sc_u)),
        n_degenerate=int(np.count_nonzero(degenerate)))


class EnvelopeReport(NamedTuple):
    """Worst signed violations of the growth envelopes (positive = broken)."""

    max_lower_violation: float
    max_upper_violation: float
    max_slope_violation: Optional[float] = None

    @property
    def ok(self) -> bool:
        return max(v for v in self if v is not None) <= 0.0


def envelope_check(fp) -> EnvelopeReport:
    """Check the two-sided growth envelopes of a forward p <= 2 profile on
    its stored grid.

    p < 2:  a + c_lo r^(p/(p-1)) <= u <= a + c_hi r^(p/(p-1)) with
            c_lo = (p-1)/p (1/(mBN))^(1/(p-1)) and c_hi the same with
            1/(mBN) replaced by 1/(mBN) + chi a^q / (BN).
    p = 2:  b - (chi e^(bm) + 1/m) r^2/(2N) <= u <= b, plus the slope
            bound u'(r) <= -r/(mN) (the source never drops under 1/m).

    Violations are scaled by max(1, |u|), less a roundoff slack of 1e-9.
    """
    P = fp.params
    r, u = fp.sol.r, fp.sol.u
    scale = np.maximum(1.0, np.abs(u))
    if fp.regime is Regime.FAST:
        p, B, N, m, chi, a = P.p, P.B, P.N, P.m, P.chi, fp.a
        c_lo = (p - 1.0) / p * (1.0 / (m * B * N)) ** (1.0 / (p - 1.0))
        c_hi = (p - 1.0) / p * (1.0 / (m * B * N)
                                + chi * a ** P.q / (B * N)) ** (1.0 / (p - 1.0))
        grow = r ** (p / (p - 1.0))
        bounds = [(a + c_lo * grow - u) / scale,
                  (u - (a + c_hi * grow)) / scale]
    else:
        b, m, N, chi = fp.a, P.m, P.N, P.chi
        up = np.array([uprime_from_w(fp.sol.ode, w) for w in fp.sol.w])
        bounds = [(b - (chi * math.exp(b * m) + 1.0 / m) * r ** 2 / (2.0 * N)
                   - u) / scale,
                  (u - b) / scale,
                  (up + r / (m * N)) / scale]
    return EnvelopeReport(*(float(np.max(v)) - 1e-9 for v in bounds))


def rescaled_limit_check(params, a: float, rel_tol: float = 1e-10,
                         abs_tol: float = 1e-10) -> float:
    """Compare the height-a backward profile (p > 2, a >= 100), rescaled,
    against the limit problem.

    The substitution u_tilde(s) = u(s a^(-lambda))/a turns the profile
    equation into the pure-power limit problem up to an O(a^(-q)) term; this
    integrates both and returns sup |u_tilde - u_limit| over 2000 points of
    s in [0, min(0.9 z_1, a^lambda R(a))], z_1 the limit profile's zero.
    """
    scale = a ** (-params.lam)
    lim = integrate(limit_ode(params), 1.0, IntegratorOptions(
        rel_tol=rel_tol, abs_tol=abs_tol, r_max=1e3,
        r0=1e-6, stop_at_u_zero=True))
    assert lim.termination is Termination.U_CROSSED_ZERO, \
        "limit profile did not vanish within the scan radius"
    z1 = lim.r_end

    full = integrate(backward_ode(params), a, IntegratorOptions(
        rel_tol=rel_tol, abs_tol=abs_tol,
        r0=1e-6 * scale, r_max=1.2 * z1 * scale, stop_at_u_zero=True))

    s_hi = min(0.9 * z1, full.r_end / scale)
    s_lo = max(lim.r[0], full.r[0] / scale)
    s = np.linspace(s_lo, s_hi, 2000)
    u_lim, _ = lim.sample(s)
    u_full, _ = full.sample(s * scale)
    return float(np.max(np.abs(u_full / a - u_lim)))

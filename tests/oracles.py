"""Independent fixed-step reference integrator for cross-checking.

Everything here is written directly from the model definition, not imported
from the package: exponents, source terms, flux inversion, a three-term
startup expansion, and a classical fourth-order Runge-Kutta sweep.  Oracle trajectories are the
ground truth the adaptive integrator is compared against.  The spherical
average at the end is the point-by-point rule the delta test's vectorized
quadrature must reproduce bit for bit, the off-centre Gaussian's average is
the closed form that rule approximates, and the dense-output loop over the
Dormand-Prince matrix is the sum the stepper's unrolled coefficients must
reproduce bit for bit.  The energy audit by sample() is the reference the
audit's per-step midpoint evaluation must reproduce bit for bit, and the
unfused numpy expressions of the energy and the audit are the references
their in-place evaluation must reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma, ive


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


def _audit(sol, r_mid, w_mid) -> tuple:
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
    return max_defect, max_increase, max_drift, e0, scale, passed


def energy_audit_reference(sol) -> tuple:
    """The energy audit's fields from unfused numpy expressions, each
    midpoint w from its own step's interpolant (a cut-short last step keeps
    its full length in _h).

    Returns (max_defect, max_increase, max_drift, e0, scale, passed) in
    the order of the package's EnergyCheck.
    """
    r = sol.r
    r_mid = r[:-1] + 0.5 * np.diff(r)
    theta = (r_mid - r[:-1]) / sol._h
    q = sol._q[:, 1]
    w_mid = sol.w[:-1] + sol._h * (theta * (q[:, 0] + theta * (
        q[:, 1] + theta * (q[:, 2] + theta * q[:, 3]))))
    return _audit(sol, r_mid, w_mid)


def energy_audit_by_sample(sol) -> tuple:
    """energy_audit_reference's fields with every midpoint w from
    sol.sample()."""
    r = sol.r
    r_mid = r[:-1] + 0.5 * np.diff(r)
    return _audit(sol, r_mid, sol.sample(r_mid)[1] if len(r_mid) else r_mid)

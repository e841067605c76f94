"""Reconstruction of the space-time solution pair from radial profiles.

A converged u-profile maps pointwise to the density profile φ, the
concentration profile ψ comes from the radial Newtonian quadrature of φ^m,
and the pair assembles into the full self-similar solution

    backward:  ρ(x,t) = (T−t)^(−1/m) φ((T−t)^(−1/(mN)) |x|)
    forward:   ρ(x,t) = t^(−1/m) φ(t^(−1/(mN)) |x|)

with c carrying the matching 2β−1 power.  Mass, δ-concentration, and the
residuals of the reduced radial system serve as end-to-end consistency
checks on the assembled pair.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DeltaTestError,
    DomainError,
    IllPosedPotentialError,
    InfiniteMassError,
    NegativeBaseError,
    OutOfTimeDomainError,
)
from .backward import solve_backward
from .forward import CompactTail, ForwardProfile, PowerTail, Tail, solve_forward
from .params import ModelParams, Regime, phi_of_u
from .radial_ode import (
    IntegratorOptions,
    ProfileSolution,
    _odd_pow_np,
    backward_ode,
    forward_ode,
)

__all__ = [
    "Direction",
    "PhiProfile",
    "phi_from_u",
    "phi_from_forward",
    "PsiProfile",
    "psi_well_posed_threshold",
    "psi_from_phi",
    "mass",
    "surface_area_unit_ball",
    "SelfSimilarSolution",
    "assemble",
    "evaluate",
    "delta_test",
    "radial_delta_test",
    "SystemResidual",
    "system_residual",
    "residual_grade",
]


class Direction(Enum):
    BACKWARD = "backward"
    FORWARD = "forward"


_LOG_DBL_MAX = math.log(sys.float_info.max)
_RESIDUAL_WINDOW = (0.1, 0.9)   # span fractions that system_residual tests

def _gamma_half(N: int) -> float:
    """Gamma(N/2), N >= 1: Gamma(x + 1) = x Gamma(x) from Gamma(1/2) =
    sqrt(pi) or Gamma(1) = 1, each step rounding once."""
    g = math.sqrt(math.pi) if N % 2 else 1.0
    for k in range(2 - N % 2, N - 1, 2):    # x = k/2
        g *= k / 2.0
    return g


def surface_area_unit_ball(N: int) -> float:
    """omega_N = 2 pi^(N/2) / Gamma(N/2); 2, 2pi, 4pi for N = 1, 2, 3."""
    return 2.0 * math.pi ** (N / 2.0) / _gamma_half(N)


def _simpson_pieces(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson integral over the first interval of each pair of intervals."""
    x21 = dx[:-1]
    x32 = dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of y over the grid x, starting at 0.

    The 1-D case of scipy.integrate.cumulative_simpson(y, x=x, initial=0)
    with the same operations in the same order, so results agree bitwise:
    each interval takes the Simpson piece of the pair it opens (forward
    pass) or closes (backward pass), alternately; fewer than 3 nodes fall
    back to the trapezoid rule.
    """
    dx = np.diff(x)
    if len(y) < 3:
        res = np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)
    else:
        h1 = _simpson_pieces(y, dx)
        h2 = _simpson_pieces(y[::-1], dx[::-1])[::-1]
        pieces = np.empty(len(dx))
        pieces[:-1:2] = h1[::2]
        pieces[1::2] = h2[::2]
        pieces[-1] = h2[-1]
        res = np.cumsum(pieces)
    res += 0.0    # scipy adds `initial` here, which turns -0.0 into 0.0
    return np.concatenate(([0.0], res))


def _ball_integral(r: np.ndarray, y: np.ndarray, N: int) -> np.ndarray:
    """int_0^r s^(N-1) y ds at each node: the [0, r[0]] sliver with y frozen
    at y[0], then cumulative Simpson."""
    return float(y[0]) * float(r[0]) ** N / N + _cumulative_simpson(r ** (N - 1) * y, r)


@dataclass(frozen=True)
class PhiProfile:
    """Density profile phi >= 0 on a radial grid with a tail model.

    The support radius is that of a compact tail, else None.  sol is the
    trajectory it maps, whose dense output gives phi between the nodes; it
    is None for a profile built from arrays.
    """

    r: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    tail: Optional[Tail]
    sol: Optional[ProfileSolution] = field(default=None, repr=False)

    def __post_init__(self):
        r = self.r
        if not (r.ndim == 1 and r.shape == self.phi.shape and r.size and r[0] > 0.0
                and np.all(np.diff(r) > 0.0)):
            raise DomainError("phi needs positive, strictly increasing radii, one per value")
        if np.any(self.phi < 0.0):
            raise DomainError("phi must be nonnegative")

    @property
    def support_radius(self) -> Optional[float]:
        return self.tail.radius if isinstance(self.tail, CompactTail) else None

    @property
    def span(self) -> float:
        """The support radius, else the last radius where phi > 0 (e^u
        underflows to 0 long before a p = 2 forward run ends), else the
        last node."""
        if self.support_radius is not None:
            return self.support_radius
        pos = np.flatnonzero(self.phi > 0.0)
        return float(self.r[pos[-1] if pos.size else -1])


def phi_from_u(sol: ProfileSolution, params: ModelParams,
               tail: Optional[Tail] = None) -> PhiProfile:
    """Map a u-trajectory to phi pointwise on the integrator's own grid.

    A slow-regime trajectory that crosses zero is truncated at its first
    zero, where phi lands at 0 exactly; without a tail model the truncated
    profile is marked compactly supported.  Grids fine enough for the
    residual check come from re-solving (residual_grade), not from
    resampling through the dense interpolant.
    """
    zeros = sol.zeros()
    if params.regime is Regime.SLOW and zeros:
        z1 = zeros[0]
        keep = sol.r < z1
        r = np.append(sol.r[keep], z1)
        phi = phi_of_u(params, np.append(sol.u[keep], 0.0))
        return PhiProfile(r, phi, tail or CompactTail(z1), sol)
    r, u = sol.r, sol.u
    if params.regime is Regime.FAST and np.any(u <= 0.0):
        raise NegativeBaseError(
            "the p < 2 map phi = u^((p-1)/(p-2)) needs u > 0 everywhere")
    phi = phi_of_u(params, u)
    return PhiProfile(r, phi, tail, sol)


def phi_from_forward(fp: ForwardProfile) -> PhiProfile:
    return phi_from_u(fp.sol, fp.params, tail=fp.tail)


@dataclass(frozen=True)
class PsiProfile:
    """Concentration profile from the radial Newtonian kernels.

    psi_prime(r) = -r^(1-N) * integral_0^r s^(N-1) phi^m ds <= 0, and
    psi'' + (N-1)/r psi' + phi^m = 0 within quadrature tolerance.
    i1_total carries the full source integral for exterior continuation of
    the potential.
    """

    r: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    psi_prime: np.ndarray = field(repr=False)
    N: int
    well_posed: bool
    detail: Optional[str] = None
    i1_total: Optional[float] = None


def psi_well_posed_threshold(N: int) -> float:
    """Minimal p for a finite potential under a non-compact tail."""
    return 2.0 * math.sqrt(N / (N + 1.0))


def _scaled_upper_gamma(s: float, z: float) -> float:
    """e^z Gamma(s, z) for s in {0, 1/2, 1, 3/2, ...} and z > 0, finite
    where e^z alone overflows.  At x = s mod 1: for z >= 1 Legendre's
    continued fraction z^x / (z + 1 - x - 1 (1 - x) / (z + 3 - x - ...)),
    summed up from 120 terms (110 reach the last bit at z = 1, where it
    converges slowest; Numerical Recipes, 3rd ed., 6.2); below, sqrt(pi)
    e^z erfc(sqrt z) at x = 1/2 and E1's series at x = 0.  Then
    e^z Gamma(x + 1, z) = x e^z Gamma(x, z) + z^x, all terms positive.
    """
    x = s % 1.0
    if z >= 1.0:
        t = 0.0
        for i in range(120, 0, -1):
            t = -i * (i - x) / (z + 1.0 - x + 2.0 * i + t)
        g = z ** x / (z + 1.0 - x + t)
    elif x:
        g = math.sqrt(math.pi) * math.exp(z) * math.erfc(math.sqrt(z))
    else:    # E1(z) = -(Euler's gamma) - ln z - sum_k (-z)^k / (k k!)
        g = math.exp(z) * (-0.5772156649015329 - math.log(z) - math.fsum(
            (-z) ** k / (k * math.factorial(k)) for k in range(1, 25)))
    while x < s:
        g = x * g + z ** x
        x += 1.0
    return g


def _tail_moment(phi: PhiProfile, j: int, m: float = 1.0) -> float:
    """int_rend^inf s^(j-1) phi^m ds under phi's tail model, inf when it
    diverges or exceeds the largest double.  A power tail integrates its law; a log-quadratic one, whose
    ln phi keeps its curvature from the grid end, an upper incomplete gamma.
    """
    tail = phi.tail
    r_end = float(phi.r[-1])
    if isinstance(tail, CompactTail):
        return 0.0
    if isinstance(tail, PowerTail):
        kappa = m * tail.exponent
        if not kappa + j < 0.0:
            return math.inf
        try:
            return tail.coefficient ** m * r_end ** (kappa + j) / (-(kappa + j))
        except OverflowError:    # a power leaves the doubles: add logarithms
            log_t = (m * math.log(tail.coefficient)
                     + (kappa + j) * math.log(r_end) - math.log(-(kappa + j)))
            return math.exp(log_t) if log_t <= _LOG_DBL_MAX else math.inf
    k = -m * tail.coefficient
    phim_end = float(phi.phi[-1]) ** m
    if j == 2:    # e^z Gamma(1, z) = 1
        return phim_end / (2.0 * k)
    g = _scaled_upper_gamma(j / 2.0, k * r_end ** 2)
    try:
        return phim_end * (1.0 / k) ** (j / 2.0) / 2.0 * g
    except OverflowError:    # a power leaves the doubles: add logarithms
        if phim_end == 0.0:
            return 0.0
        log_t = math.log(phim_end) - j / 2.0 * math.log(k) + math.log(g / 2.0)
        return math.exp(log_t) if log_t <= _LOG_DBL_MAX else math.inf


def _log_tail_moment(phi: PhiProfile, m: float, t1: float) -> float:
    """int_rend^inf s ln s phi^m ds under phi's tail model, given its
    moment t1 = _tail_moment(phi, 2, m): t1 (ln r_end + e^z E1(z) / 2),
    z = -m c r_end^2, under a log-quadratic tail ln phi ~ c r^2."""
    tail, r_end = phi.tail, float(phi.r[-1])
    if isinstance(tail, CompactTail):
        return 0.0
    if isinstance(tail, PowerTail):
        a = m * tail.exponent + 2.0    # kappa + 2 of the j = 2 moment
        return tail.coefficient ** m * (math.log(r_end) * r_end ** a / (-a)
                                        + r_end ** a / a ** 2)
    z = -m * tail.coefficient * r_end ** 2
    return t1 * (math.log(r_end) + _scaled_upper_gamma(0.0, z) / 2.0)


def psi_from_phi(phi: PhiProfile, params: ModelParams,
                 strict: bool = True) -> PsiProfile:
    """Radial potential quadrature: -(psi'' + (N-1)/r psi') = phi^m.

    Composite Simpson on the solution grid plus the tail model's moments of
    s and s^(N-1) against phi^m beyond it (_tail_moment), and at N = 2 that
    of s ln s (_log_tail_moment).  A diverging source moment leaves
    i1_total at its grid value.  Below the well-posedness threshold a power
    tail makes the potential infinite: strict mode raises, otherwise the
    grid-truncated integrals are returned with well_posed = False.
    """
    N, m = params.N, params.m
    tail = phi.tail
    detail = None
    if tail is None:
        detail = "profile has no decaying tail model"
    elif isinstance(tail, PowerTail) and params.p <= psi_well_posed_threshold(N):
        detail = (f"p = {params.p:g} <= 2 sqrt(N/(N+1)) = "
                  f"{psi_well_posed_threshold(N):g}: tail source diverges")
    if detail is not None and strict:
        raise IllPosedPotentialError(detail)
    t1 = tlog = i1_tail = 0.0
    if detail is None:
        t1 = _tail_moment(phi, 2, m)
        i1_tail = _tail_moment(phi, N, m)
        if math.isinf(i1_tail):
            i1_tail = 0.0
        if N == 2:
            tlog = _log_tail_moment(phi, m, t1)

    r = phi.r
    src = phi.phi ** m
    i1 = _ball_integral(r, src, N)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        psi_prime = -i1 / r ** (N - 1)
        if N == 2:
            jlog = _cumulative_simpson(r * np.log(r) * src, r)
            psi = -np.log(r) * i1 - ((jlog[-1] - jlog) + tlog)
        else:
            j1 = _cumulative_simpson(r * src, r)
            upper = (j1[-1] - j1) + t1
            psi = (-r * i1 - upper if N == 1
                   else r ** (2 - N) * i1 / (N - 2.0) + upper / (N - 2.0))
    return PsiProfile(r, psi, psi_prime, N, detail is None, detail,
                      float(i1[-1]) + i1_tail)


def mass(phi: PhiProfile, params: ModelParams) -> float:
    """Total mass omega_N * integral_0^inf phi r^(N-1) dr: the grid's ball
    integral plus the tail model's moment; InfiniteMassError without a tail
    model or for a power tail not integrable against r^(N-1)."""
    N, tail = params.N, phi.tail
    if tail is None:
        raise InfiniteMassError("profile has no decaying tail model")
    extra = _tail_moment(phi, N)
    if math.isinf(extra):
        if isinstance(tail, PowerTail) and tail.exponent + N >= 0.0:
            raise InfiniteMassError(f"tail exponent {tail.exponent:g} is not "
                                    f"integrable against r^{N - 1}")
        raise InfiniteMassError(f"{tail.kind} tail has a moment beyond the "
                                f"largest double against r^{N - 1}")
    return surface_area_unit_ball(N) * (float(_ball_integral(phi.r, phi.phi, N)[-1])
                                        + extra)


@dataclass(frozen=True)
class SelfSimilarSolution:
    """The assembled pair (rho, c) in similarity form."""

    direction: Direction
    params: ModelParams
    phi: PhiProfile
    psi: PsiProfile
    T: Optional[float]
    M: Optional[float]

    def similarity_scale(self, t: float) -> float:
        """theta(t): the length scale multiplying the profile radius."""
        return self._tau(t) ** self.params.beta

    def _tau(self, t: float) -> float:
        if self.direction is Direction.BACKWARD:
            if not (0.0 < t < self.T):
                raise OutOfTimeDomainError(
                    f"need 0 < t < T = {self.T:g}, got t = {t:g}")
            return self.T - t
        if t <= 0.0:
            raise OutOfTimeDomainError(f"need t > 0, got t = {t:g}")
        return t


def assemble(params: ModelParams, phi: PhiProfile, psi: PsiProfile,
             direction: Direction, T: Optional[float] = None) -> SelfSimilarSolution:
    if direction is Direction.BACKWARD:
        if T is None:
            T = 1.0
        if T <= 0.0:
            raise DomainError(f"blow-up time must be positive, got {T}")
    else:
        T = None
    try:
        M = mass(phi, params)
    except InfiniteMassError:
        M = None
    return SelfSimilarSolution(direction, params, phi, psi, T, M)


def _phi_at(ss: SelfSimilarSolution, xi: float) -> float:
    """phi at xi: its trajectory's dense output between the nodes."""
    phi = ss.phi
    r = phi.r
    if xi <= r[0]:
        return float(phi.phi[0])
    if xi < r[-1]:
        if phi.sol is None:
            raise DomainError(f"phi at xi = {xi:g}, between the nodes, needs the "
                              f"trajectory, which a profile built from arrays lacks")
        return float(phi_of_u(ss.params, phi.sol.sample(xi)[0]))
    if xi == r[-1]:
        return float(phi.phi[-1])
    tail = phi.tail
    if tail is None or isinstance(tail, CompactTail):
        return 0.0
    if isinstance(tail, PowerTail):
        return tail.coefficient * xi ** tail.exponent
    return float(phi.phi[-1]) * math.exp(tail.coefficient * (xi ** 2 - r[-1] ** 2))


def _psi_at(ss: SelfSimilarSolution, xi: float) -> float:
    """psi at xi: the cubic Hermite on (psi, psi') of its two nodes."""
    psi = ss.psi
    r = psi.r
    if xi <= r[0]:
        return float(psi.psi[0])
    if xi <= r[-1]:
        k = int(np.searchsorted(r, xi))    # r[k - 1] < xi <= r[k]
        h = r[k] - r[k - 1]
        s = (xi - r[k - 1]) / h
        y0, dy = psi.psi[k - 1], psi.psi[k] - psi.psi[k - 1]
        d0, d1 = h * psi.psi_prime[k - 1], h * psi.psi_prime[k]
        return float(y0 + s * (d0 + s * (3.0 * dy - 2.0 * d0 - d1
                                         + s * (d0 + d1 - 2.0 * dy))))
    # exterior continuation with the source beyond the grid neglected
    N = psi.N
    if N == 1:
        return -psi.i1_total * xi
    if N == 2:
        return -psi.i1_total * math.log(xi)
    return psi.i1_total * xi ** (2 - N) / (N - 2.0)


def evaluate(ss: SelfSimilarSolution, x, t: float) -> tuple[float, float]:
    """(rho, c) at the space-time point; x is a point or a radius."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    radius = float(np.linalg.norm(xa))
    tau = ss._tau(t)
    beta = ss.params.beta
    xi = radius * tau ** (-beta)
    rho = tau ** (-ss.params.alpha) * _phi_at(ss, xi)
    c = tau ** (2.0 * beta - 1.0) * _psi_at(ss, xi)
    return rho, c


@cache
def _azimuths(n: int) -> tuple[np.ndarray, np.ndarray]:
    """math.cos and math.sin of n equally spaced azimuths."""
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return (np.array([math.cos(a) for a in th]),
            np.array([math.sin(a) for a in th]))


@cache
def _polar_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """12-point Gauss-Legendre nodes c and weights in the polar cosine,
    with the ring radii sqrt(1 - c^2)."""
    cs, wt = np.polynomial.legendre.leggauss(12)
    return cs, wt, np.sqrt(1.0 - cs * cs)


# radii per block of quadrature points: about 4.7 MB of points at N = 3
_ANGULAR_BLOCK = 1024


def _require_point_rule(N: int) -> None:
    if N > 3:
        raise DomainError(
            f"a point test function is averaged only at N <= 3, got N = {N}; "
            f"pass its spherical average to radial_delta_test")


def _angular_averages(f: Callable, N: int, s: np.ndarray) -> np.ndarray:
    """Spherical averages of f at the nonzero radii s.

    N = 1 averages the two points +-s, N = 2 a 32-point ring, N = 3 takes
    Gauss-Legendre in the polar cosine and a 16-point ring in azimuth;
    higher N has no rule and raises DomainError.  f is called once per
    point, on that point's own row of an array built for the call, and
    never on a batch.
    Each coordinate is formed as the scalar rule forms it, (s sin) cos, and
    ring means and weighted sums run in the scalar rule's order, so the
    averages are bitwise those of evaluating the rule radius by radius.
    """
    _require_point_rule(N)
    if len(s) > _ANGULAR_BLOCK:
        return np.concatenate([_angular_averages(f, N, s[i:i + _ANGULAR_BLOCK])
                               for i in range(0, len(s), _ANGULAR_BLOCK)])
    if N == 1:
        pts = np.stack((s, -s), axis=1)[:, :, None]
    elif N == 2:
        cos, sin = _azimuths(32)
        pts = np.stack((np.multiply.outer(s, cos), np.multiply.outer(s, sin)),
                       axis=-1)
    else:
        cos, sin = _azimuths(16)
        cs, wt, sn = _polar_rule()
        ring = np.multiply.outer(s, sn)[:, :, None]
        pts = np.empty((len(s), len(cs), len(cos), 3))
        pts[..., 0] = ring * cos
        pts[..., 1] = ring * sin
        pts[..., 2] = np.multiply.outer(s, cs)[:, :, None]
    vals = np.array([f(x) for x in pts.reshape(-1, N)], dtype=float)
    vals = vals.reshape(pts.shape[:-1])
    if N == 1:
        return 0.5 * (vals[:, 0] + vals[:, 1])
    if N == 2:
        return np.mean(vals, axis=1)
    rings = np.mean(vals, axis=2)
    acc = 0.0
    for k in range(len(wt)):
        acc = acc + wt[k] * rings[:, k]
    return acc / 2.0


def _radial_values(F: Callable, s: np.ndarray) -> np.ndarray:
    """F at the radii s, checked to be one finite float per radius."""
    vals = F(s)
    if not (isinstance(vals, np.ndarray) and vals.dtype.kind == "f"
            and vals.shape == s.shape and bool(np.all(np.isfinite(vals)))):
        raise DomainError(
            f"the spherical average must map an array of {s.shape[0]} radii "
            f"to as many finite floats, got {type(vals).__name__} of shape "
            f"{np.shape(vals)}")
    return vals.astype(float, copy=False)


def radial_delta_test(ss: SelfSimilarSolution, F: Callable,
                      times: Sequence[float], assert_decreasing: bool = True
                      ) -> list[tuple[float, float]]:
    """Deviation of integral rho(.,t) f from M f(0) along the time list,
    for a test function f given by its spherical average F.

    The integral reduces to the similarity variable: it equals
    omega_N int phi(s) F(theta(t) s) s^(N-1) ds, so the scale
    theta(t) -> 0 drives the deviation to 0.  F maps an array of radii to
    the averages there, one finite float each (DomainError otherwise); it is
    called once on the whole array theta(t) r per time, and f(0) is
    F(0).  For a radial f, F(s) is f at radius s, so exp(-|x|^2) is
    `lambda s: np.exp(-s * s)`.  Times are processed in approach order
    (toward T backward, toward 0 forward) and the deviation must decrease
    monotonically along them.
    """
    if ss.M is None:
        raise InfiniteMassError("delta test needs a finite-mass profile")
    N = ss.params.N
    omega = surface_area_unit_ball(N)
    f0 = float(_radial_values(F, np.zeros(1))[0])
    r, phi = ss.phi.r, ss.phi.phi
    weighted = r ** (N - 1) * phi
    tail_mass = ss.M - omega * float(_ball_integral(r, phi, N)[-1])

    order = sorted(times, reverse=(ss.direction is Direction.FORWARD))
    out = []
    for t in order:
        fbar = _radial_values(F, ss.similarity_scale(t) * r)
        integral = omega * (float(phi[0]) * fbar[0] * float(r[0]) ** N / N
                            + float(_cumulative_simpson(weighted * fbar, r)[-1]))
        # the tail mass sits at the last node, whose average is fbar[-1]
        integral += tail_mass * fbar[-1]
        out.append((t, float(abs(integral - ss.M * f0))))
    if assert_decreasing:
        for (t_a, d_a), (t_b, d_b) in zip(out, out[1:]):
            if not d_b < d_a:
                raise DeltaTestError(
                    f"deviation failed to decrease toward the singular time: "
                    f"{d_a:g} at t = {t_a:g} vs {d_b:g} at t = {t_b:g}")
    return out


def delta_test(ss: SelfSimilarSolution, f: Callable, times: Sequence[float],
               assert_decreasing: bool = True) -> list[tuple[float, float]]:
    """radial_delta_test for a test function f given point by point.

    f takes one point, an array of shape (N,), per call.  Its spherical
    averages come from the angular rules of _angular_averages, one call of
    f per quadrature point, so this path suits a non-radial f at N <= 3;
    it raises DomainError at N > 3.  A radial f is far cheaper through
    radial_delta_test.
    """
    N = ss.params.N
    _require_point_rule(N)
    f0 = float(f(np.zeros(N)))

    def averages(s: np.ndarray) -> np.ndarray:
        fbar = np.full(len(s), f0)
        inside = s != 0.0
        fbar[inside] = _angular_averages(f, N, s[inside])
        return fbar

    return radial_delta_test(ss, averages, times, assert_decreasing)


def _first_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Five-point first derivative on a non-uniform grid, interior only.

    The weights are the derivatives at the centre node of the Lagrange basis
    on x[i-2..i+2] (Fornberg, Math. Comp. 51 (1988) 699-706), so the result
    is exact for quartics.  They multiply the differences y_j - y_i rather
    than the bare samples: the neighbour subtractions are exact for close
    values, so the result keeps ulp-level accuracy instead of the
    eps |y| / h roundoff of bare weights, which matters when the output is
    differenced a second time.
    """
    n = len(x)
    xc, yc = x[2:-2], y[2:-2]
    offsets = [k for k in range(5) if k != 2]
    d = {k: x[k:n - 4 + k] - xc for k in offsets}
    out = np.zeros(n - 4)
    for j in offsets:
        weight = 1.0 / d[j]
        for k in offsets:
            if k != j:
                weight = weight * (-d[k]) / (d[j] - d[k])
        out += weight * (y[j:n - 4 + j] - yc)
    return out


@dataclass(frozen=True)
class SystemResidual:
    """Worst interior residuals of the reduced radial system."""

    res1: float       # scalar profile equation on the u level
    res2: float       # potential equation psi'' + (N-1)/r psi' + phi^m
    identity: float   # integrated flux identity F/phi - chi psi' -+ r/(mN)


def system_residual(phi: PhiProfile, psi: PsiProfile, params: ModelParams,
                    direction: Direction) -> SystemResidual:
    """Five-point difference residuals over the middle 80% of the profile's
    span.

    res1 re-derives the scalar u-equation from the phi samples alone (two
    nested derivatives); res2 differentiates the quadrature psi' once; the
    identity couples the phi flux to psi' with the direction-dependent
    drift sign (+ backward, - forward).
    """
    bad = phi.r[~(np.isfinite(psi.psi) & np.isfinite(psi.psi_prime))]
    if bad.size:
        raise DomainError(f"psi is not finite for r in [{bad[0]:g}, {bad[-1]:g}], "
                          "where the powers of r leave the doubles")
    span = phi.span
    lo, hi = _RESIDUAL_WINDOW[0] * span, _RESIDUAL_WINDOW[1] * span
    sel = (phi.r >= lo) & (phi.r <= hi)
    if int(np.count_nonzero(sel)) < 9:
        # res1 nests two five-point stencils, which leave r[4:-4]
        raise DomainError("test window contains fewer than 9 grid points")
    r = phi.r[sel]
    ph = phi.phi[sel]
    if np.any(ph <= 0.0):
        raise DomainError(
            f"phi must be positive on the test window, but is {ph.min():g} "
            f"at r = {r[np.argmin(ph)]:g}")

    if params.regime is Regime.LINEAR:
        u = np.log(ph)
    else:
        u = ph ** ((params.p - 2.0) / (params.p - 1.0))
    ode = (backward_ode(params) if direction is Direction.BACKWARD
           else forward_ode(params))
    up = _first_derivative(r, u)
    w = ode.B_eff * _odd_pow_np(up, params.p - 1.0)
    wp = _first_derivative(r[2:-2], w)
    rc = r[4:-4]
    res1 = float(np.max(np.abs(
        wp + (params.N - 1) / rc * w[2:-2] + ode.g_np(u[4:-4]))))

    pp = psi.psi_prime[sel]
    ppp = _first_derivative(r, pp)
    res2 = float(np.max(np.abs(
        ppp + (params.N - 1) / r[2:-2] * pp[2:-2] + ph[2:-2] ** params.m)))

    # F/phi with F = |phi'|^(p-2) phi' collapses to the u-level flux:
    # +w for p >= 2 and -w for p < 2, which differencing u resolves far
    # better than dividing noisy phi' powers by a vanishing phi
    sgn = 1.0 if direction is Direction.BACKWARD else -1.0
    s_reg = -1.0 if params.regime is Regime.FAST else 1.0
    ident = float(np.max(np.abs(
        s_reg * w - params.chi * pp[2:-2]
        - sgn * r[2:-2] / (params.m * params.N))))
    return SystemResidual(res1, res2, ident)


# steps across the span (2,400 in the residual window) and tolerance of
# residual_grade's capped pass.  At 2,000 nodes every measured profile's
# five-point residuals are below 3e-7; more do not help res1, which
# differences u twice and so gains roundoff as 1/h^2 past about 4,000
_GRADE_STEPS = 3000
_GRADE_TOL = 1e-12


def _positive_span(phi: PhiProfile, params: ModelParams) -> float:
    """phi.span, but where phi (e^u) underflows to 0 past its last positive
    node, the radius where it does on the dense output of phi's trajectory:
    not the grid's."""
    lo = phi.span
    k = int(np.searchsorted(phi.r, lo)) + 1
    hi = float(phi.r[k]) if phi.support_radius is None and k < len(phi.r) else lo
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if phi_of_u(params, phi.sol.sample(mid)[0]) > 0.0 else (lo, mid)
    return lo


def residual_grade(params: ModelParams, height: float,
                   direction: Direction) -> PhiProfile:
    """Profile on a grid fine enough for the residual check.

    A scouting pass at default settings finds the radial span
    (_positive_span), then a pass at tolerance 1e-12 with the step capped
    at span/3000 places about 3,000 solution nodes across it; the profile's
    trajectory is that pass's.  A run that stops short has no profile and
    raises IntegrationError.
    Node values sit on the discrete flow to sub-tolerance accuracy, so the
    nested five-point differences of system_residual resolve the equation
    residual instead of grid noise.
    """
    span = _positive_span(_profile(params, height, direction), params)
    return _profile(params, height, direction, IntegratorOptions(
        rel_tol=_GRADE_TOL, abs_tol=_GRADE_TOL, h_max=span / _GRADE_STEPS))


def _profile(params: ModelParams, height: float, direction: Direction,
             opts: Optional[IntegratorOptions] = None) -> PhiProfile:
    """The phi profile of the trajectory from a centre height."""
    if direction is Direction.BACKWARD:
        return phi_from_u(solve_backward(params, height, opts), params)
    return phi_from_forward(solve_forward(params, height, opts))


def residual_grade_backward(params: ModelParams, a: float) -> PhiProfile:
    """residual_grade(params, a, Direction.BACKWARD), under its old name."""
    return residual_grade(params, a, Direction.BACKWARD)

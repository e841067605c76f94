"""Reduced radial ODE core: first-order (u, w) system, startup, integration.

Every profile equation handled by this package is the radial quasilinear
problem

    (B |u'|^(p-2) u')' + B (N-1)/r |u'|^(p-2) u' + g(u) = 0,
    u(0) = u0,  u'(0) = 0,

for one of a small family of source terms g, each held by one RadialODE
(built by backward_ode, forward_ode and limit_ode).  We integrate the
equivalent first-order system in the flux variable

    w := B |u'|^(p-2) u',      u' = sign(w) (|w|/B)^(1/(p-1)),
    w' = -((N-1)/r) w - g(u),

which is regular wherever g is (the p-Laplacian degeneracy is absorbed into
w).  At p = 2 the map collapses to w = u' with B = 1.

The origin is a removable singularity of the w equation, where u - u0 ~
r^(p/(p-1)) is not smooth in r.  u and w/r are analytic in r^(p/(p-1)), and
a run starts from their power series (_origin_series) at min(r0, reach),
where the series holds to 1e-3 of the step tolerance (_series_reach).

The stepper is an embedded Dormand-Prince 5(4) pair with the standard
quartic dense-output interpolant, formed in numpy from blocks of stage
slopes (_dense_block).  Events (u crossing zero, u' vanishing, equilibrium
capture) are located by Illinois iterations on the dense output.
Error control uses scale = abs_tol + rel_tol * |y| per component, so
acceptance near w = 0 degrades gracefully to the absolute tolerance alone.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional

from .errors import DomainError, IntegrationError, EnergyLawError
from .params import ModelParams, Regime

if TYPE_CHECKING:     # annotations; numpy is imported where an array is read
    import numpy as np

__all__ = [
    "RadialODE",
    "backward_ode",
    "forward_ode",
    "limit_ode",
    "EventKind",
    "Termination",
    "Event",
    "IntegratorOptions",
    "ProfileSolution",
    "StepStats",
    "integrate",
    "uprime_from_w",
    "energy",
    "kinetic_energy",
    "EnergyCheck",
    "energy_derivative_check",
]


def _odd_pow_np(u: np.ndarray, q: float) -> np.ndarray:
    import numpy as np
    with np.errstate(divide="ignore", over="ignore"):
        return np.sign(u) * np.abs(u) ** q


@dataclass(frozen=True)
class RadialODE:
    """One radial profile problem: parameters, flux constant, source term.

    B_eff is the flux constant, 1 at p = 2.  g is the source term as a
    scalar callable for the integration hot path; g_np and G_np, its
    antiderivative feeding the energy, take numpy arrays.  For p > 2 (q > 1)
    G and solve_G(T, u, tol) solve G(u) = T from u by Newton for the
    stepper's energy variable: at most 3 iterations, each taking |u|^q once
    for g, g' and G, stopping once the next update would be below tol, with
    a Chebyshev step.  It returns the root (nan when that update exceeds
    1000 tol), g there to first order in the step, and the iteration count.
    A run lives in u_floor < u < u_ceiling and ends where it leaves: for
    p < 2, g is singular at u = 0, and the backward problem's floor is 1e-8;
    the forward problems, unbounded, end at u = -1e3 (p = 2) or 1e6 (p < 2).
    g_taylor(a, c) is term n >= 1 of g(u(x)) from u's terms a[:n+1], with
    its own series in c, given as [1.0].
    """

    params: ModelParams
    kind: str
    B_eff: float
    g: Callable[[float], float]
    g_np: Callable[[np.ndarray], np.ndarray]
    G_np: Callable[[np.ndarray], np.ndarray]
    g_taylor: Callable[[list, list], float]
    equilibrium_u: Optional[float] = None
    G: Optional[Callable[[float], float]] = None
    solve_G: Optional[Callable[[float, float, float], tuple]] = None
    u_floor: float = -1e12
    u_ceiling: float = 1e12

    def check_height(self, u0: float) -> None:
        """Refuse a centre height outside (u_floor, u_ceiling), or, for
        p != 2, one that is not positive: phi = u^((p-1)/(p-2)) needs u(0) > 0."""
        lo = self.u_floor if self.params.p == 2.0 else max(self.u_floor, 0.0)
        if not lo < u0 < self.u_ceiling:
            raise DomainError(f"{self.kind}: initial height {u0} lies outside "
                              f"({lo:g}, {self.u_ceiling:g})")


def _miller(b: list, c: list, alpha: float) -> float:
    """Term n = len(c) >= 1 of (b / b_0)^alpha, c_0 = 1, by J. C. P. Miller's
    recurrence n b_0 c_n = sum_(j=1..n) ((alpha + 1) j - n) b_j c_(n-j)."""
    n, ap1, acc = len(c), alpha + 1.0, 0.0
    for j in range(1, n + 1):
        acc += (ap1 * j - n) * b[j] * c[n - j]
    return acc / (n * b[0])


def _power_ode(params: ModelParams, kind: str, coef: float, const: float,
               equilibrium: Optional[float]) -> RadialODE:
    """g(u) = coef |u|^(q-1) u + const, with matching G."""
    q = params.q
    qp1 = q + 1.0

    def g(u: float) -> float:
        # odd in u; an overflowing power, or u = 0 with q < 0, gives +-inf
        if u > 0.0:
            try:
                return coef * u ** q + const
            except OverflowError:
                return coef * math.inf + const
        if u == 0.0:
            return coef * (0.0 if q > 0.0 else math.copysign(math.inf, u)) + const
        try:
            v = (-u) ** q
        except OverflowError:
            v = math.inf
        return coef * -v + const

    def g_np(u):
        import numpy as np
        return coef * _odd_pow_np(np.asarray(u, dtype=float), q) + const

    # G_np works in place in its result and const * u, in the operand
    # order of coef / qp1 * |u|^qp1 + const * u
    if qp1 != 0.0:
        def G_np(u):
            import numpy as np
            u = np.asarray(u, dtype=float)
            with np.errstate(over="ignore"):
                t = np.abs(u)
                t **= qp1
                t *= coef / qp1
                t += const * u
            return t
    else:
        # q = -1: the power antiderivative degenerates to a logarithm,
        # defined for u > 0 only.
        def G_np(u):
            import numpy as np
            u = np.asarray(u, dtype=float)
            if np.any(u <= 0.0):
                raise DomainError(
                    "logarithmic energy potential needs u > 0 (q = -1)")
            t = np.log(u)
            t *= coef
            t += const * u
            return t

    def G(u: float) -> float:
        try:
            return coef / qp1 * abs(u) ** qp1 + const * u
        except OverflowError:       # +-inf, as g gives
            return coef / qp1 * math.inf + const * u

    nan = math.nan

    def solve_G(T: float, u: float, tol: float) -> tuple[float, float, int]:
        # signs by branches: copysign(|u|^q, u) is u itself at u = +-0
        for n in (1, 2, 3):
            t = coef * (u ** q if u > 0.0 else -(-u) ** q if u < 0.0 else u)
            gu = t + const
            d = ((t / qp1 + const) * u - T) / gu
            gp = q * t / u if u else 0.0           # g'(u), 0 at u = 0
            e = gp * d * d / (2.0 * gu)            # Newton's next update
            if -tol <= e <= tol or n == 3:
                # the Chebyshev step u - d - e, and g there to first order
                step = -d - e
                return (u + step if -1e3 * tol <= e <= 1e3 * tol else nan,
                        gu + gp * step, n)
            u -= d

    def g_taylor(a: list, c: list) -> float:
        # c: (u / u(0))^q
        c.append(_miller(a, c, q))
        return coef * a[0] ** q * c[-1]

    smooth = q > 1.0
    return RadialODE(params, kind, params.B, g, g_np, G_np, g_taylor,
                     equilibrium, G if smooth else None,
                     solve_G if smooth else None)


def _exp_ode(params: ModelParams, kind: str, const: float,
             equilibrium: Optional[float]) -> RadialODE:
    """g(u) = chi e^(m u) + const, with G = (chi/m) e^(m u) + const u."""
    chi, m = params.chi, params.m

    def g(u: float) -> float:
        x = m * u
        return chi * (math.inf if x > 709.0 else math.exp(x)) + const

    def g_np(u):
        import numpy as np
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):
            return chi * np.exp(m * u) + const

    def G_np(u):
        # in place, as chi / m * e^(m u) + const * u
        import numpy as np
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):
            t = np.exp(m * u)
            t *= chi / m
            t += const * u
        return t

    def g_taylor(a: list, e: list) -> float:
        # e: e^(m (u - u(0))), e_n = (m/n) sum_(j=1..n) j a_j e_(n-j)
        n = len(e)
        e.append(m / n * sum(j * a[j] * e[n - j] for j in range(1, n + 1)))
        return chi * math.exp(m * a[0]) * e[-1]

    return RadialODE(params, kind, 1.0, g, g_np, G_np, g_taylor, equilibrium)


def backward_ode(params: ModelParams) -> RadialODE:
    """The blow-up (backward) profile problem."""
    chi, m = params.chi, params.m
    if params.regime is Regime.SLOW:
        return _power_ode(params, "backward-slow", chi, -1.0 / m, params.u_star)
    if params.regime is Regime.LINEAR:
        return _exp_ode(params, "backward-linear", -1.0 / m, params.u_star_log)
    # singular source at u = 0: stop at a floor instead of stalling
    return replace(_power_ode(params, "backward-fast", -chi, +1.0 / m,
                              params.u_star), u_floor=1e-8)


def forward_ode(params: ModelParams) -> RadialODE:
    """The spreading (forward) profile problem."""
    chi, m = params.chi, params.m
    if params.regime is Regime.SLOW:
        # g > 0 everywhere: u decreases, profile vanishes at finite radius.
        return _power_ode(params, "forward-slow", chi, +1.0 / m, None)
    if params.regime is Regime.LINEAR:
        # u decreases without bound: the run ends at u = -1e3
        return replace(_exp_ode(params, "forward-linear", +1.0 / m, None),
                       u_floor=-1e3)
    # g < 0 everywhere on u > 0: u grows without bound, to the cutoff 1e6;
    # a run that falls to the singular source at u = 0 ends there
    return replace(_power_ode(params, "forward-fast", -chi, -1.0 / m, None),
                   u_floor=0.0, u_ceiling=1e6)


def limit_ode(params: ModelParams) -> RadialODE:
    """Pure power source of the large-height rescaling limit (slow regime)."""
    if params.regime is not Regime.SLOW:
        raise DomainError("rescaling limit problem exists only for p > 2")
    return _power_ode(params, "limit", params.chi, 0.0, None)


def uprime_from_w(ode: RadialODE, w):
    """Invert the flux map: u' = sign(w) (|w|/B)^(1/(p-1))."""
    if ode.params.p == 2.0:
        return w
    e = 1.0 / (ode.params.p - 1.0)
    if not isinstance(w, float):
        import numpy as np
        if not np.isscalar(w):
            w = np.asarray(w, dtype=float)
            return np.sign(w) * (np.abs(w) / ode.B_eff) ** e
    return math.copysign((abs(w) / ode.B_eff) ** e, w)


class EventKind(Enum):
    U_ZERO = "u-zero"
    U_PRIME_ZERO = "u-prime-zero"
    EQUILIBRIUM_HIT = "equilibrium-hit"


class Termination(Enum):
    REACHED_RMAX = "reached-rmax"
    U_CROSSED_ZERO = "u-crossed-zero"
    U_PRIME_VANISHED = "u-prime-vanished"
    STEP_UNDERFLOW = "step-underflow"
    DIVERGED = "diverged"


@dataclass(frozen=True, slots=True)
class Event:
    kind: EventKind
    r: float
    u: float
    w: float


@dataclass(frozen=True)
class IntegratorOptions:
    """Tolerances, termination policy, and event policy for one run.

    stop_at_first_minimum certifies positivity: at an interior minimum with
    u > 0 the energy is G(u_min) < G at any later zero, and the energy never
    increases, so the trajectory can never reach zero afterwards.  It also
    stops at the problem's equilibrium u*, reached within 1e-8 in u and w.
    With stop_at_u_zero False it stops at the first interior minimum of
    either sign, past any zero: its signed u_min is smooth across the
    height where the minimum touches zero.
    Tolerances must be finite and non-negative with abs_tol > 0, r_max
    finite and h_max positive; other settings raise DomainError.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    r_max: float = 1e3
    r0: float = 1e-6          # the run starts at min(r0, the series' reach)
    stop_at_u_zero: bool = True
    stop_at_first_minimum: bool = False
    h_max: Optional[float] = None

    def __post_init__(self):
        if not (0.0 <= self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf
                and math.isfinite(self.r_max)
                and (self.h_max is None or self.h_max > 0.0)):
            raise DomainError(
                "integrator settings need finite tolerances >= 0 with abs_tol "
                f"> 0, a finite r_max and h_max > 0; got rel_tol={self.rel_tol}, "
                f"abs_tol={self.abs_tol}, r_max={self.r_max}, h_max={self.h_max}")


# attempts before integrate gives up; flux size a sign change of w must
# exceed to count as an event; |u| or |w| at which an event is located;
# accepted steps per _dense_block
_MAX_STEPS = 5_000_000
_W_EVENT_FLOOR = 1e-8
_EVENT_TOL = 1e-12
_DENSE_BLOCK = 256

# The midpoint defect scales as h^5 like the embedded estimate (fits over
# h..h/8 at 500 of its rejections on the zero-energy N = 1, p = 3 run:
# quartiles 4.98-5.09).  The step factor 0.9 (5/defect)^_DEFECT_EXP damps
# it: 1/6 took fewer attempts than 1/5, 1/7 or 1/8, a cap on every step
# 0.2-1.5 % more than one for the _DEFECT_WINDOW steps after a rejection.
_DEFECT_EXP, _DEFECT_WINDOW = 1.0 / 6.0, 200


# Dormand-Prince 5(4) tableau (FSAL), unpacked into integrate's locals (read
# faster) _A21 .. _A65, _B1, _B3 .. _B6, _E1, _E3 .. _E7 and _C2 .. _C5.
_DP54 = (1.0 / 5.0,
         3.0 / 40.0, 9.0 / 40.0,
         44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0,
         19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0,
         9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
         -5103.0 / 18656.0,
         35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0,
         71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
         22.0 / 525.0, -1.0 / 40.0,
         1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0)

# Quartic dense output: coefficient j = 1..3 of a step's interpolant is
# sum_s k_s _Pjs over the stages s; coefficient 0 is k1 alone, and stage 2
# carries no weight.
_P11, _P13, _P14, _P15, _P16, _P17 = (
    -8048581381.0 / 2820520608.0, 131558114200.0 / 32700410799.0,
    -1754552775.0 / 470086768.0, 127303824393.0 / 49829197408.0,
    -282668133.0 / 205662961.0, 40617522.0 / 29380423.0)
_P21, _P23, _P24, _P25, _P26, _P27 = (
    8663915743.0 / 2820520608.0, -68118460800.0 / 10900136933.0,
    14199869525.0 / 1410260304.0, -318862633887.0 / 49829197408.0,
    2019193451.0 / 616988883.0, -110615467.0 / 29380423.0)
_P31, _P33, _P34, _P35, _P36, _P37 = (
    -12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0)


@dataclass(frozen=True)
class StepStats:
    """Deterministic work counters of one integration.

    The rejections split by cause and sum to ProfileSolution.n_rejected:
    the embedded error estimate over tolerance, the midpoint defect over
    its bound, or an overflowing or non-finite stage, error norm, state or
    defect.  bisection_iterations counts the (Illinois) iterations of event
    location.  energy_steps counts the accepted steps taken in (E, w),
    newton_iterations the Newton iterations that recovered u there, and
    flux_zero_retakes the (u, w) trials that crossed a zero of w and were
    retaken in (E, w) within the same attempt.  All three are 0 for p <= 2.
    """

    rejected_error: int = 0
    rejected_defect: int = 0
    rejected_overflow: int = 0
    bisection_iterations: int = 0
    energy_steps: int = 0
    newton_iterations: int = 0
    flux_zero_retakes: int = 0


@dataclass
class ProfileSolution:
    """One integrated trajectory with dense output and recorded events.

    r, u, w, energy share the grid of accepted steps (r[0] is the startup
    radius).  sample() evaluates the continuous extension anywhere inside
    [r[0], r[-1]] from the stored step interpolants.  On a step taken in
    (E, w) the first interpolant is E's, _e holds E at the step's start
    (nan on (u, w) steps), and u is recovered from G(u) = E - K(w).
    It keeps the stepper's buffers of raw doubles: the grid, the step
    lengths, the interpolants of each full _DENSE_BLOCK of steps
    (_dense_block), the last block's stage slopes, and the (E, w) steps by
    an int64 index (an array('q')) with E at their start.  r, u, w, _h, _q
    (n_intervals, 2, 4) and _e are numpy views over them, formed with the
    last block's interpolants on the first read of any; energy is computed
    in place on its first read, in two buffers of the grid's length.  Only
    then is numpy imported: a caller that reads only the events and the
    ends (r_end) forms none of them.
    """

    ode: RadialODE
    opts: IntegratorOptions
    events: list[Event]
    termination: Termination
    n_steps: int
    n_rejected: int
    stats: StepStats
    _rs: array = field(repr=False)
    _us: array = field(repr=False)
    _ws: array = field(repr=False)
    _hs: array = field(repr=False)
    _qs: array = field(repr=False)
    _ks: array = field(repr=False)
    _e_steps: array = field(repr=False)
    _e_starts: array = field(repr=False)

    def __getattr__(self, name: str):
        # called only for an attribute not yet set: the views and energy,
        # each formed once
        if name == "energy":
            self.energy = energy(self.ode, self.u, self.w)
        elif name in ("r", "u", "w", "_h", "_q", "_e"):
            import numpy as np
            if self._ks:    # the last block (a replace() shares the buffers)
                self._qs.frombytes(_dense_block(self._ks).tobytes())
                del self._ks[:]
            self.r, self.u, self.w, self._h = (
                np.frombuffer(b) for b in (self._rs, self._us, self._ws, self._hs))
            self._q = np.frombuffer(self._qs).reshape(-1, 2, 4)
            self._e = np.full(len(self._hs), np.nan)
            self._e[self._e_steps] = self._e_starts
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__[name]

    @property
    def r_end(self) -> float:
        return self._rs[-1]

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind is kind]

    def zeros(self) -> list[float]:
        return [e.r for e in self.events if e.kind is EventKind.U_ZERO]

    def sample(self, r) -> tuple[np.ndarray, np.ndarray]:
        """Dense-output evaluation of (u, w) at radii inside the grid span."""
        import numpy as np
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        lo, hi = self.r[0], self.r[-1]
        slack = 1e-9 * max(abs(lo), abs(hi), 1.0)
        if np.any(r_arr < lo - slack) or np.any(r_arr > hi + slack):
            raise DomainError(
                f"sample radius outside [{lo:g}, {hi:g}]")
        r_arr = np.clip(r_arr, lo, hi)
        idx = np.clip(np.searchsorted(self.r, r_arr, side="right") - 1,
                      0, len(self.r) - 2)
        h = self._h[idx]
        theta = (r_arr - self.r[idx]) / h
        q = self._q[idx]  # (n, 2, 4)
        poly = theta[:, None] * (q[:, :, 0] + theta[:, None] * (
            q[:, :, 1] + theta[:, None] * (q[:, :, 2] + theta[:, None] * q[:, :, 3])))
        u = self.u[idx] + h * poly[:, 0]
        w = self.w[idx] + h * poly[:, 1]
        on_E = np.isfinite(self._e[idx])
        if np.any(on_E):
            i = idx[on_E]
            th = theta[on_E]
            E = self._e[i] + h[on_E] * poly[on_E, 0]
            u[on_E] = _u_of_energy(self.ode, E - kinetic_energy(
                self.ode, w[on_E]), self.u[i] + th * (self.u[i + 1] - self.u[i]))
        if np.isscalar(r) or np.ndim(r) == 0:
            return float(u[0]), float(w[0])
        return u, w


def _u_of_energy(ode: RadialODE, T: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Newton for G(u) = T from u, elementwise, to roundoff."""
    import numpy as np
    for _ in range(50):
        d = (ode.G_np(u) - T) / ode.g_np(u)
        u = u - d
        if not np.any(np.abs(d) > 1e-12 * (1.0 + np.abs(u))):
            break
    return u


# terms of the origin series; its tail at the reach, against the step tolerance
_SERIES_TERMS, _SERIES_TOL = 16, 1e-3


def _origin_series(ode: RadialODE, u0: float) -> tuple[list, list, float, float]:
    """a, y, y0, rho of u = sum a_k x^k, w = r y0 sum y_k x^k, x = r^beta / rho:
    (r^(N-1) w)' = -r^(N-1) g(u) gives y_k = (g_k / g0) N / (N + k beta),
    g_k the terms of g(u(x)) (the problem's g_taylor), and u' = sign(w)
    (|w|/B)^(1/(p-1)) gives a_k = S v_(k-1) / k, v those of y^(1/(p-1)).
    rho is where the first term moves u by S = max(|u0|, 1), or g by g0 if
    that comes first, which keeps steep heights' terms in range.  The series
    stops before a non-finite term; g(u0) = 0 leaves u = u0, w = 0."""
    g0 = ode.g(u0)
    if not math.isfinite(g0):
        raise DomainError(f"source term not finite at u0 = {u0}")
    if g0 == 0.0:
        return [u0], [], 0.0, 1.0
    N, pe = ode.params.N, ode.params.p
    beta, y0 = pe / (pe - 1.0), -g0 / N
    S = math.copysign(max(abs(u0), 1.0), y0)
    t = ode.g_taylor([u0, S], [1.0])         # g'(u0) S
    if abs(g0) < abs(t) < math.inf:
        S *= abs(g0 / t)
    try:
        rho = beta * abs(S) / (abs(y0) / ode.B_eff) ** (1.0 / (pe - 1.0))
    except ArithmeticError:
        rho = 0.0
    if not 0.0 < rho < math.inf:
        raise DomainError(f"{ode.kind}: the origin series' length scale over- or "
                          f"underflows a double at u0 = {u0:g} (g(u0) = {g0:g})")
    a, y, v, c = [u0], [1.0], [1.0], [1.0]
    for k in range(1, _SERIES_TERMS + 1):
        a.append(S * v[-1] / k)
        if k == _SERIES_TERMS:
            break
        y.append(ode.g_taylor(a, c) / g0 * N / (N + k * beta))
        v.append(_miller(y, v, 1.0 / (pe - 1.0)))
        if not (math.isfinite(y[-1]) and math.isfinite(v[-1])):
            y.pop()
            break
    return a, y, y0, rho


def _series_reach(ode: RadialODE, series: tuple, rtol: float, atol: float,
                  r_max: float) -> float:
    """Largest radius below r_max / 2 where the tail (the last two terms) is
    below _SERIES_TOL of the step tolerance, u's at the origin and w's for
    |w| >= r |y0| / 2, and u (u0 != 0) and w/r keep half their value there."""
    a, y, y0, rho = series
    r = 0.5 * r_max
    if not y:
        return r
    ib = 1.0 - 1.0 / ode.params.p                 # 1 / beta
    tol_u = _SERIES_TOL * (atol + rtol * abs(a[0]))
    xs = [(tol_u / abs(a[k])) ** (1.0 / k)
          for k in range(max(1, len(a) - 2), len(a)) if a[k]]
    tol_a = _SERIES_TOL * atol / (abs(y0) * rho ** ib)
    xs += [max((tol_a / abs(y[k])) ** (1.0 / (k + ib)),
               (0.5 * _SERIES_TOL * rtol / abs(y[k])) ** (1.0 / k))
           for k in range(max(1, len(y) - 2), len(y)) if y[k]]
    x = min(xs, default=math.inf)
    if (rho * x) ** ib > r:
        x = r ** (1.0 / ib) / rho
    # the majorant sum_(k>=1) |c_k| x^k shrinks at least in proportion to x
    for c in ((a, y) if a[0] != 0.0 else (y,)):
        m = x * _horner([abs(ck) for ck in c[1:]], x)
        if m > 0.5 * abs(c[0]):
            x *= 0.5 * abs(c[0]) / m
    r = min(r, (rho * x) ** ib)
    if r == 0.0:
        raise DomainError(f"{ode.kind}: the origin series' reach underflows "
                          f"at u0 = {a[0]:g}")
    return r


def _horner(c: list, x: float) -> float:
    return functools.reduce(lambda s, ck: s * x + ck, reversed(c), 0.0)


def _series_state(ode: RadialODE, series: tuple, r: float) -> tuple[float, float]:
    a, y, y0, rho = series
    x = r ** (ode.params.p / (ode.params.p - 1.0)) / rho
    return _horner(a, x), r * y0 * _horner(y, x)


def _dense_coefficients(k1: float, k3: float, k4: float, k5: float, k6: float,
                        k7: float) -> list[float]:
    """One component's interpolant coefficients 0..3 from its stage slopes.

    Each is the sum over the stages with a nonzero weight, in stage order
    and starting from 0.0, so a sum of zeros is +0.0 whatever their signs.
    """
    return [0.0 + k1,
            0.0 + k1 * _P11 + k3 * _P13 + k4 * _P14 + k5 * _P15 + k6 * _P16 + k7 * _P17,
            0.0 + k1 * _P21 + k3 * _P23 + k4 * _P24 + k5 * _P25 + k6 * _P26 + k7 * _P27,
            0.0 + k1 * _P31 + k3 * _P33 + k4 * _P34 + k5 * _P35 + k6 * _P36 + k7 * _P37]


def _dense_block(k) -> np.ndarray:
    """_dense_coefficients of each row (k1, k3, .., k7) of the flat buffer k,
    as rows of an array: the same sums in numpy, so the same doubles."""
    import numpy as np
    with np.errstate(all="ignore"):
        return np.stack(_dense_coefficients(*np.reshape(k, (-1, 6)).T), axis=1)


def _dense_eval(u0: float, w0: float, h: float, q, theta: float) -> tuple[float, float]:
    """(u, w) at theta in [0, 1] of a step from its coefficients q[:4], q[4:]."""
    pu = theta * (q[0] + theta * (q[1] + theta * (q[2] + theta * q[3])))
    pw = theta * (q[4] + theta * (q[5] + theta * (q[6] + theta * q[7])))
    return u0 + h * pu, w0 + h * pw


def _locate_zero(f, comp: int, lo: float = 0.0,
                 hi: float = 1.0) -> tuple[float, float, float, int]:
    """Find a sign change of f(theta)[comp] on [lo, hi] of a step.

    Illinois (modified regula falsi): the bracket's secant, halving the
    value of an end kept twice in a row, or its midpoint if the secant
    leaves it.  Returns theta and f's two values at the zero, and the
    number of iterations.
    """
    v_lo, v_hi, side = f(lo)[comp], f(hi)[comp], 0
    for n in range(1, 201):
        mid = (lo * v_hi - hi * v_lo) / (v_hi - v_lo) if v_hi != v_lo else lo
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        vals = f(mid)
        v_mid = vals[comp]
        if abs(v_mid) <= _EVENT_TOL or (hi - lo) < 1e-16 or n == 200:
            return mid, vals[0], vals[1], n
        if (v_lo < 0.0) == (v_mid < 0.0):
            lo, v_lo, v_hi = mid, v_mid, 0.5 * v_hi if side < 0 else v_hi
            side = -1
        else:
            hi, v_hi, v_lo = mid, v_mid, 0.5 * v_lo if side > 0 else v_lo
            side = 1


def integrate(ode: RadialODE, u0: float, opts: Optional[IntegratorOptions] = None
              ) -> ProfileSolution:
    """Integrate the (u, w) system from the startup state to a termination.

    Terminations: REACHED_RMAX; U_CROSSED_ZERO (terminal zero of u);
    U_PRIME_VANISHED (first interior minimum with u > 0, of either sign
    without stop_at_u_zero, or equilibrium capture, under
    stop_at_first_minimum); STEP_UNDERFLOW (step below
    1e-14 r); DIVERGED (u out of the problem's range, which must hold u0).
    A defect rejection cuts h by the defect's own factor, which then caps
    the growth of the next 200 accepted steps along with the error's.

    For p > 2 problems with an equilibrium u*, steps near a turn of u (a
    zero of w away from the origin) are taken in (E, w), E = G(u) + K(w):
    u is only C^(1 + 1/(p-1)) there, E and w are C^(2 + 1/(p-1)).  E' =
    -(N-1)/r w u' and K(w) = (p-1)/p w u' come from the stage slopes, u is
    recovered at each stage by Newton on G(u) = E - K(w) from the RK
    u-stage, and E's error is scaled by |g(u)|, which keeps the tolerance
    on u.  A state is near a turn when K(w) < (G(u) - G(u*))/2, the top
    third of the well, and, for N >= 2, 2|w| < r|w'|: at the origin
    |w| = r|w'|, and E has u's r^(p/(p-1)) kink there.  For N = 1, E is
    invariant, and each (E, w) stretch starts from its startup value.  E
    must resolve u: eps |E| below a quarter of |g(u)| times the u
    tolerance.  A (u, w) trial that crosses a zero of w is retaken in
    (E, w) where E resolves u; an (E, w) step ends just past the turn its
    start predicts; and a turn of an (E, w) step where u lies within
    _EVENT_TOL of zero, or beyond it, is a zero of u: within it, a touch,
    whose zero is recorded with w = 0.0, the slope of a tangential zero.
    """
    if opts is None:
        opts = IntegratorOptions()
    # Python floats throughout: numpy scalars take twice the CPU per step,
    # and warn where floats overflow to inf silently
    u0 = float(u0)
    rtol, atol, r_max = float(opts.rel_tol), float(opts.abs_tol), float(opts.r_max)
    h_max = math.inf if opts.h_max is None else float(opts.h_max)
    g, p = ode.g, ode.params.p
    neg_nm1 = -(ode.params.N - 1.0)    # w' = neg_nm1 / r * w - g(u)
    lin = p == 2.0                     # u' = w; otherwise the Hoelder flux map
    inv_B = 1.0 / ode.B_eff
    e_u = 1.0 / (p - 1.0)
    (_A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62,
     _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6, _E1, _E3, _E4, _E5, _E6, _E7,
     _C2, _C3, _C4, _C5) = _DP54
    copysign, isfinite, sqrt = math.copysign, math.isfinite, math.sqrt
    ode.check_height(u0)
    u_floor, u_ceiling = ode.u_floor, ode.u_ceiling
    eq_u = ode.equilibrium_u if opts.stop_at_first_minimum else None
    # the energy variable: problems whose flux zeros are turns of u
    en = p > 2.0 and ode.equilibrium_u is not None
    if en:
        G, solve_G = ode.G, ode.solve_G
        G_eq = G(ode.equilibrium_u)
        c_K = (p - 1.0) / p     # K(w) = c_K w u'

    series = _origin_series(ode, u0)
    r0 = min(float(opts.r0), _series_reach(ode, series, rtol, atol, r_max))
    if not 0.0 < r0 < r_max:
        raise DomainError(f"startup radius {r0:g} must lie in (0, r_max = {r_max:g})")
    u_c, w_c = _series_state(ode, series, r0)

    # The grid, each accepted step's length and its 8 dense-output
    # coefficients, u's (E's on an (E, w) step) then w's, as raw doubles, a
    # quarter of the memory of lists of floats, kept by the result.  ks holds
    # slopes for _dense_block (_DENSE_BLOCK steps; the last, partial block's
    # wait until the result's interpolants are read).
    rs = array('d', (r0,))
    us = array('d', (u_c,))
    ws = array('d', (w_c,))
    hs = array('d')
    qs = array('d')
    ks = array('d')
    e_steps = array('q')         # int64 indices of (E, w) steps
    e_starts = array('d')        # and E at their start
    events: list[Event] = []
    termination: Optional[Termination] = None
    n_steps = n_attempts = 0
    n_err = n_def = n_ovf = n_bisect = 0    # rejections by cause; events
    n_retake = n_newton = n_capped = 0    # n_capped: see _DEFECT_WINDOW

    if eq_u is not None and abs(u_c - eq_u) <= 1e-8 and abs(w_c) <= 1e-8:
        events.append(Event(EventKind.EQUILIBRIUM_HIT, r0, u_c, w_c))
        termination = Termination.U_PRIME_VANISHED

    k1u = w_c if lin else copysign((abs(w_c) * inv_B) ** e_u, w_c) if w_c else 0.0
    g_c = g(u_c)
    k1w = neg_nm1 / r0 * w_c - g_c
    # Initial step (Hairer, Norsett & Wanner, Solving ODEs I, section II.4)
    su = atol + rtol * abs(u_c)
    sw = atol + rtol * abs(w_c)
    d0 = max(abs(u_c) / su, abs(w_c) / sw)
    d1 = max(abs(k1u) / su, abs(k1w) / sw)
    h = min(0.1 * r0, 0.01 * d0 / d1) if d1 > 0.0 else 0.1 * r0
    h = max(h, 1e-13 * r0)

    r = r0
    u, w = u_c, w_c
    # Kahan carries for the state sums.  Uncompensated accumulation leaves
    # an ulp-scale random walk between neighbouring nodes, which double
    # finite differencing of the output amplifies by 1/h^2.
    cr = cu = cw = cE = 0.0
    E_c = None                   # E, carried along consecutive (E, w) steps
    # for N = 1, E is invariant: every (E, w) stretch starts from its value
    E_inv = G(u_c) + c_K * w_c * k1u if en and neg_nm1 == 0.0 else None
    in_E = resolved = False
    fresh = True                 # the state is new: choose its variable

    def newton_u(T, v):
        # G(u) = T from v, to convergence (event location)
        nonlocal n_newton
        for _ in range(10):
            v, _, n = solve_G(T, v, nt)
            n_newton += n
            if n < 3:
                break
        return v

    while termination is None:
        if en and fresh:
            # choose the variable of the next step from the state, once:
            # a rejection leaves the state, and so the choice, unchanged
            fresh = False
            K_c = c_K * w * k1u
            if E_c is None:
                E_c = G(u) + K_c if E_inv is None else E_inv
                cE = 0.0
            su = atol + rtol * abs(u)
            nt = 1e-2 * su                  # Newton update tolerance
            resolved = abs(g_c) * su > 8.9e-16 * abs(E_c)
            in_E = (resolved and K_c < 0.5 * (E_c - K_c - G_eq)
                      and (E_inv is not None or 2.0 * abs(w) < r * abs(k1w)))
        if n_attempts > _MAX_STEPS:
            raise IntegrationError(
                f"exceeded {_MAX_STEPS} steps at r = {r:g} ({ode.kind})")
        if h < 1e-14 * r:
            termination = Termination.STEP_UNDERFLOW
            break
        if h > h_max:
            h = h_max
        if in_E and w * k1w < 0.0 and h * abs(k1w) > 1.02 * abs(w):
            # end just past the turn the flux's slope predicts: a step
            # straddling it deep inside carries the |r - r_e|^(5/2) kink
            h = -1.02 * w / k1w
        clipped = False
        if r + h >= r_max:
            h = r_max - r
            clipped = True
        n_attempts += 1

        # Stage sweep (FSAL: k1 carried over from the last accepted step);
        # each stage k = (u', w') = (flux map of w, neg_nm1 / r * w - g(u)).
        # An (E, w) step also sums E' = neg_nm1 / r * w u' and takes g from
        # Newton on G(u) = E - K(w), started at the RK u-stage.
        try:
            yu = u + h * _A21 * k1u
            yw = w + h * _A21 * k1w
            k2u = yw if lin else (yw * inv_B) ** e_u if yw > 0.0 else (
                -(-yw * inv_B) ** e_u if yw else 0.0)
            t = neg_nm1 / (r + _C2 * h) * yw
            if in_E:
                k1E = neg_nm1 / r * w * k1u
                _, gy, n2 = solve_G(E_c + h * _A21 * k1E - c_K * yw * k2u, yu, nt)
                k2E, k2w = t * k2u, t - gy
            else:
                k2w = t - g(yu)
            yu = u + h * (_A31 * k1u + _A32 * k2u)
            yw = w + h * (_A31 * k1w + _A32 * k2w)
            k3u = yw if lin else (yw * inv_B) ** e_u if yw > 0.0 else (
                -(-yw * inv_B) ** e_u if yw else 0.0)
            t = neg_nm1 / (r + _C3 * h) * yw
            if in_E:
                _, gy, n3 = solve_G(E_c + h * (_A31 * k1E + _A32 * k2E)
                                    - c_K * yw * k3u, yu, nt)
                k3E, k3w = t * k3u, t - gy
            else:
                k3w = t - g(yu)
            yu = u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
            yw = w + h * (_A41 * k1w + _A42 * k2w + _A43 * k3w)
            k4u = yw if lin else (yw * inv_B) ** e_u if yw > 0.0 else (
                -(-yw * inv_B) ** e_u if yw else 0.0)
            t = neg_nm1 / (r + _C4 * h) * yw
            if in_E:
                _, gy, n4 = solve_G(E_c + h * (_A41 * k1E + _A42 * k2E + _A43 * k3E)
                                    - c_K * yw * k4u, yu, nt)
                k4E, k4w = t * k4u, t - gy
            else:
                k4w = t - g(yu)
            yu = u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
            yw = w + h * (_A51 * k1w + _A52 * k2w + _A53 * k3w + _A54 * k4w)
            k5u = yw if lin else (yw * inv_B) ** e_u if yw > 0.0 else (
                -(-yw * inv_B) ** e_u if yw else 0.0)
            t = neg_nm1 / (r + _C5 * h) * yw
            if in_E:
                _, gy, n5 = solve_G(E_c + h * (_A51 * k1E + _A52 * k2E + _A53 * k3E
                                               + _A54 * k4E) - c_K * yw * k5u, yu, nt)
                k5E, k5w = t * k5u, t - gy
            else:
                k5w = t - g(yu)
            rh = r + h
            yu = u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
            yw = w + h * (_A61 * k1w + _A62 * k2w + _A63 * k3w + _A64 * k4w + _A65 * k5w)
            k6u = yw if lin else (yw * inv_B) ** e_u if yw > 0.0 else (
                -(-yw * inv_B) ** e_u if yw else 0.0)
            t = neg_nm1 / rh * yw
            if in_E:
                _, gy, n6 = solve_G(E_c + h * (_A61 * k1E + _A62 * k2E + _A63 * k3E
                                               + _A64 * k4E + _A65 * k5E)
                                    - c_K * yw * k6u, yu, nt)
                k6E, k6w = t * k6u, t - gy
            else:
                k6w = t - g(yu)
            s_u = h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
            inc_w = h * (_B1 * k1w + _B3 * k3w + _B4 * k4w + _B5 * k5w + _B6 * k6w) - cw
            w_new = w + inc_w
            k7u = w_new if lin else (w_new * inv_B) ** e_u if w_new > 0.0 else (
                -(-w_new * inv_B) ** e_u if w_new else 0.0)
            if in_E:
                # Newton from u + s_u: the u carry belongs to (u, w) steps
                inc_E = h * (_B1 * k1E + _B3 * k3E + _B4 * k4E + _B5 * k5E
                             + _B6 * k6E) - cE
                E_new = E_c + inc_E
                u_new, g7, n7 = solve_G(E_new - c_K * w_new * k7u, u + s_u, nt)
                n_newton += n2 + n3 + n4 + n5 + n6 + n7
            else:
                inc_u = s_u - cu
                u_new = u + inc_u
                g7 = g(u_new)
            t = neg_nm1 / rh * w_new
            k7w = t - g7
            err_w = h * (_E1 * k1w + _E3 * k3w + _E4 * k4w + _E5 * k5w
                         + _E6 * k6w + _E7 * k7w)
            if in_E:
                k7E = t * k7u
                err_1 = h * (_E1 * k1E + _E3 * k3E + _E4 * k4E + _E5 * k5E
                             + _E6 * k6E + _E7 * k7E)
            else:
                err_1 = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u
                             + _E6 * k6u + _E7 * k7u)
            if resolved and not in_E and w * w_new < 0.0:
                # never step u across a turn: retake this attempt in (E, w)
                n_retake += 1
                n_attempts -= 1
                in_E = True
                continue

            a0, a1 = -u if u < 0.0 else u, -u_new if u_new < 0.0 else u_new
            su = atol + rtol * (a1 if a1 > a0 else a0)
            a0, a1 = -w if w < 0.0 else w, -w_new if w_new < 0.0 else w_new
            sw = atol + rtol * (a1 if a1 > a0 else a0)
            s1 = (-g7 if g7 < 0.0 else g7) * su if in_E else su
            # a ratio past ~1e154 or a zero scale raises: rejected below
            err = sqrt(0.5 * ((err_1 / s1) ** 2 + (err_w / sw) ** 2))
            finite = isfinite(u_new) and isfinite(w_new)
            if not (err <= 0.25 and finite):
                # a non-finite state (solve_G's nan where Newton does not
                # converge, say) is an overflow: growing h by the error's
                # factor would only retake it
                if finite and isfinite(err) and err > 0.0:
                    n_err += 1
                    h *= max(0.2, 0.9 * (0.25 / err) ** 0.2)
                else:
                    n_ovf += 1
                    h *= 0.2
                continue

            # Defect control on top of the embedded estimate: the advertised
            # contract bounds the midpoint residual by 10x tolerance on every
            # accepted step, and the Simpson-defect constant is not uniformly
            # tied to the embedded estimator's, so enforce it directly, on E
            # and w for an (E, w) step.  The u-component is exempt within a
            # step of a flux zero, where the Hoelder inversion makes any such
            # bound unattainable for p != 2.
            um_h = 0.5 * (u + u_new) + h * (k1u - k7u) / 8.0
            wm_h = 0.5 * (w + w_new) + h * (k1w - k7w) / 8.0
            dmu = wm_h if lin else (wm_h * inv_B) ** e_u if wm_h > 0.0 else (
                -(-wm_h * inv_B) ** e_u if wm_h else 0.0)
            t = neg_nm1 / (r + 0.5 * h) * wm_h
            if in_E:
                _, gy, n = solve_G(0.5 * (E_c + E_new) + h * (k1E - k7E) / 8.0
                                   - c_K * wm_h * dmu, um_h, nt)
                n_newton += n
                def_1 = abs(E_new - E_c - h / 6.0 * (k1E + 4.0 * t * dmu + k7E)) / s1
            else:
                gy = g(um_h)
                def_1 = abs(u_new - u - h / 6.0 * (k1u + 4.0 * dmu + k7u)) / s1
            def_w = abs(w_new - w - h / 6.0 * (k1w + 4.0 * (t - gy) + k7w)) / sw
        except (OverflowError, ValueError, ZeroDivisionError):
            # an arithmetic fault anywhere in the attempt rejects it
            n_ovf += 1
            h *= 0.2
            continue
        b0, b1 = -k1w if k1w < 0.0 else k1w, -k7w if k7w < 0.0 else k7w
        if in_E:
            defect = def_w if def_w > def_1 else def_1    # a nan def_1 rejects
        elif lin or (w * w_new > 0.0 and (a0 if a1 > a0 else a1)   # min |w|, |w_new|
                     > 4.0 * (h * (b1 if b1 > b0 else b0))):
            defect = def_1 if def_1 > def_w else def_w
        else:
            defect = def_w
        if not (defect <= 5.0):
            if isfinite(defect):
                n_def += 1
                h *= max(0.2, 0.9 * (5.0 / defect) ** _DEFECT_EXP)
                n_capped = _DEFECT_WINDOW
            else:
                n_ovf += 1
                h *= 0.5
            continue

        n_steps += 1
        hs.append(h)
        if in_E:
            e_steps.append(n_steps - 1)
            e_starts.append(E_c)
            ks.extend((k1E, k3E, k4E, k5E, k6E, k7E, k1w, k3w, k4w, k5w, k6w, k7w))
        else:
            ks.extend((k1u, k3u, k4u, k5u, k6u, k7u, k1w, k3w, k4w, k5w, k6w, k7w))
        if clipped:
            r_new = r_max
            inc_r = r_new - r
        else:
            inc_r = h - cr
            r_new = r + inc_r

        # --- event scan on this step, where u or w changes sign ---
        u_cross = (u > 0.0 and u_new <= 0.0) or (u < 0.0 and u_new >= 0.0)
        w_cross = ((w > 0.0 and w_new <= 0.0) or (w < 0.0 and w_new >= 0.0)) \
            and max(abs(w), abs(w_new)) > _W_EVENT_FLOOR
        if u_cross or w_cross:
            q8 = _dense_coefficients(*ks[-12:-6]) + _dense_coefficients(*ks[-6:])
            located: list[tuple[float, int, float, float, float]] = []
            if not in_E:
                def state_at(th):
                    return _dense_eval(u, w, h, q8, th)
                for comp, crossed in ((0, u_cross), (1, w_cross)):
                    if crossed:
                        th, ue, we, n = _locate_zero(state_at, comp)
                        n_bisect += n
                        located.append((th, comp, r + th * h, ue, we))
            else:
                def state_at(th):
                    Et, wt = _dense_eval(E_c, w, h, q8, th)
                    ut = copysign((abs(wt) * inv_B) ** e_u, wt) if wt else 0.0
                    return newton_u(Et - c_K * wt * ut, u + th * (u_new - u)), wt
                spans = [(0.0, 1.0)] if u_cross else []
                if w_cross:
                    th, _, we, n = _locate_zero(
                        lambda t: _dense_eval(E_c, w, h, q8, t), 1)
                    n_bisect += n
                    ue = state_at(th)[0]
                    located.append((th, 1, r + th * h, ue, we))
                    if not u_cross and (ue <= 0.0 if u > 0.0 else ue >= 0.0):
                        if abs(ue) <= _EVENT_TOL:
                            # u touches zero at the turn: a zero of slope 0
                            located.append((th, 0, r + th * h, ue, 0.0))
                        else:
                            # u passes zero and turns back within the step
                            spans = [(0.0, th), (th, 1.0)]
                for lo, hi in spans:
                    th, ue, we, n = _locate_zero(state_at, 0, lo, hi)
                    n_bisect += n
                    located.append((th, 0, r + th * h, ue, we))
            located.sort()   # by theta; at a touch, the zero before the turn
            for th, comp, re_, ue, we in located:
                if comp == 0:
                    events.append(Event(EventKind.U_ZERO, re_, ue, we))
                    if opts.stop_at_u_zero:
                        termination = Termination.U_CROSSED_ZERO
                        break
                else:
                    events.append(Event(EventKind.U_PRIME_ZERO, re_, ue, we))
                    # w rising through zero means a minimum of u.
                    is_min = w < 0.0 <= w_new or (w < 0.0 and w_new == 0.0)
                    if opts.stop_at_first_minimum and is_min and (
                            ue > 0.0 or not opts.stop_at_u_zero):
                        termination = Termination.U_PRIME_VANISHED
                        break
            if termination is not None:
                # the step ends at the event; its interpolant stays whole
                rs.append(re_); us.append(ue); ws.append(we)
                break

        rs.append(r_new); us.append(u_new); ws.append(w_new)

        if not u_floor < u_new < u_ceiling:
            termination = Termination.DIVERGED
            break
        if eq_u is not None and abs(u_new - eq_u) <= 1e-8 and abs(w_new) <= 1e-8:
            events.append(Event(EventKind.EQUILIBRIUM_HIT, r_new, u_new, w_new))
            termination = Termination.U_PRIME_VANISHED
            break
        if clipped or r_new >= r_max:
            termination = Termination.REACHED_RMAX
            break

        cr = 0.0 if clipped else (r_new - r) - inc_r
        fresh = True
        if in_E:
            cu = 0.0
            cE = (E_new - E_c) - inc_E
            E_c = E_new
            in_E = False
        else:
            cu = (u_new - u) - inc_u
            E_c = None
        cw = (w_new - w) - inc_w
        r, u, w = r_new, u_new, w_new
        k1u, k1w, g_c = k7u, k7w, g7
        fac = 10.0 if err == 0.0 else 0.9 * (0.25 / err) ** 0.2   # >= 0.9: err <= 0.25
        if n_capped and defect > 0.0:
            n_capped -= 1
            fac = min(fac, 0.9 * (5.0 / defect) ** _DEFECT_EXP)
        h *= fac if fac < 10.0 else 10.0
        if not n_steps % _DENSE_BLOCK:
            qs.frombytes(_dense_block(ks).tobytes())
            del ks[:]

    return ProfileSolution(
        ode, opts, events, termination, n_steps, n_attempts - n_steps,
        StepStats(n_err, n_def, n_ovf, n_bisect, len(e_steps), n_newton, n_retake),
        rs, us, ws, hs, qs, ks, e_steps, e_starts)


def kinetic_energy(ode: RadialODE, w):
    """B (p-1)/p |u'|^p expressed through the flux, (|w|/B)^(p/(p-1)).

    Computed in place in its result, in the operand order of
    B (p-1)/p * (|w| / B)^(p/(p-1)).
    """
    import numpy as np
    w = np.asarray(w, dtype=float)
    pe, Be = ode.params.p, ode.B_eff
    t = np.abs(w)
    with np.errstate(over="ignore"):
        t /= Be
        t **= pe / (pe - 1.0)
        t *= Be * (pe - 1.0) / pe
    return t


def energy(ode: RadialODE, u, w):
    """E = B (p-1)/p |u'|^p + G(u); non-increasing in r, constant for N = 1.

    Works in place: arrays take two buffers of their length, the result
    included, and give the doubles of K(w) + G(u) evaluated unfused.
    """
    import numpy as np
    scalar = np.isscalar(u) or np.ndim(u) == 0
    G = ode.G_np(np.asarray(u, dtype=float))
    val = kinetic_energy(ode, w)
    val += G
    return float(val) if scalar else val


# the energy audit's allowed rise (N >= 2) and drift (N = 1), times its scale
_ENERGY_INCREASE_TOL, _ENERGY_DRIFT_TOL = 1e-8, 1e-6


@dataclass(frozen=True)
class EnergyCheck:
    """Outcome of the discrete energy-law audit for one trajectory."""

    max_increase: float      # largest positive jump of E between grid points
    max_drift: float         # max |E - E(r0)| (conservation, N = 1)
    e0: float
    scale: float
    passed: bool             # the regime law held within its tolerance


def energy_derivative_check(sol: ProfileSolution, *,
                            raise_on_violation: bool = True) -> EnergyCheck:
    """Judge the energy law dE/dr = -B (N-1)/r |u'|^p on the sampled energy.

    E must not rise for N >= 2 (its largest increase between grid points
    within 1e-8 scale) nor drift for N = 1 (max |E - E(r0)| within 1e-6
    scale); scale is |E(r0)|, floored at the equilibrium's well depth.  The
    verdict is `passed`; a violation raises EnergyLawError unless
    raise_on_violation is False.  The audit works in place in one buffer of
    the grid's length; the dissipation-integral defect, which no verdict
    reads, is a test oracle (tests/oracles.py).
    """
    import numpy as np
    ode, E = sol.ode, sol.energy
    n = len(E) - 1                      # steps
    buf = np.empty(n + 1)
    max_increase = 0.0
    if n:
        with np.errstate(over="ignore"):
            dE = np.subtract(E[1:], E[:-1], out=buf[:n])
        max_increase = float(max(np.max(dE), 0.0))
    e0 = float(E[0])
    scale = abs(e0)
    eq = ode.equilibrium_u
    if eq is not None:
        scale = max(scale, abs(float(ode.G_np(eq))))
    scale = max(scale, 1e-12)
    max_drift = float(np.max(np.abs(np.subtract(E, e0, out=buf), out=buf)))
    if ode.params.N >= 2:
        allowed = _ENERGY_INCREASE_TOL * scale
        passed = max_increase <= allowed
        violation = f"energy increased by {max_increase:g} (allowed {allowed:g})"
    else:
        allowed = _ENERGY_DRIFT_TOL * scale
        passed = max_drift <= allowed
        violation = f"energy drifted by {max_drift:g} (allowed {allowed:g})"
    if raise_on_violation and not passed:
        raise EnergyLawError(f"{violation} for {ode.kind}")
    return EnergyCheck(max_increase=max_increase, max_drift=max_drift,
                       e0=e0, scale=scale, passed=passed)

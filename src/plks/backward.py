"""Blow-up profiles: shooting, height classification, critical height.

For p > 2 (slow regime) each initial height a > 0 falls into one of three
sets: P (the profile stays positive over the scan radius), N (it vanishes
transversally at a finite radius), or N0 (it vanishes tangentially: a touch,
a turn of u where u lies within 1e-12 of zero, whose slope is 0).  The
critical height a_c separating P from N is found by Brent's method on the
signed first minimum of u, smooth across a_c; the profile at a_c has a zero
with vanishing slope and generates the compactly supported blow-up solution.

Positivity certificates rest on the energy E = B (p-1)/p |u'|^p + G(u),
which never increases: reaching u = 0 requires E >= G(0), so a trajectory
whose energy ever drops below G(0) can never vanish.  At an interior
minimum E = G(u_min) < G(0) whenever 0 < u_min < u*, which makes the first
interior minimum a sound certificate in every dimension, as is G(a) < G(0)
at the centre, below the zero-energy height (classify then needs no run).

The fast problem (p < 2) is exposed through solve_backward for exploration;
its profiles are bounded and positivity cannot be falsified (the source is
singular at u = 0), so no classification or root-finding is offered there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    AmbiguousBracketError,
    BadBracketError,
    DomainError,
    IntegrationError,
)
from .params import (
    ModelParams,
    Regime,
    admissible_p_threshold,
    compact_support_admissible,
)
from .radial_ode import (
    EventKind,
    IntegratorOptions,
    ProfileSolution,
    RadialODE,
    Termination,
    backward_ode,
    integrate,
    uprime_from_w,
)

__all__ = [
    "ProfileClass",
    "Classification",
    "solve_backward",
    "classify",
    "SweepResult",
    "sweep_a",
    "CriticalResult",
    "find_critical_a",
    "zero_energy_height",
]


class ProfileClass(Enum):
    P = "P"
    N = "N"
    N0 = "N0"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Classification:
    """One height's verdict; solution is None for "centre energy below G(0)",
    and a shot's grid starts at the origin series' reach."""

    a: float
    set: ProfileClass
    R_of_a: Optional[float]          # vanishing radius, N / N0 only
    terminal_slope: Optional[float]  # u'(R(a)), N / N0 only
    reason: str
    solution: Optional[ProfileSolution]

    @property
    def label(self) -> str:
        return self.set.value


def solve_backward(params: ModelParams, a: float,
                   opts: Optional[IntegratorOptions] = None) -> ProfileSolution:
    """Integrate the blow-up profile problem from center height a."""
    ode = backward_ode(params)
    ode.check_height(a)
    if params.p == 2.0:
        # u = ln phi is 0 where phi = 1, inside the profile: go on past it
        opts = replace(opts or IntegratorOptions(), stop_at_u_zero=False)
    return integrate(ode, a, opts)


def _backward_profile(params: ModelParams, a: float,
                      opts: Optional[IntegratorOptions] = None) -> ProfileSolution:
    """solve_backward's run, which has no profile if it stopped short: at
    step underflow or out of the problem's range; that raises IntegrationError."""
    sol = solve_backward(params, a, opts)
    if sol.termination in (Termination.STEP_UNDERFLOW, Termination.DIVERGED):
        raise IntegrationError(
            f"integration failed ({sol.termination.value}) at r = {sol.r_end:g}")
    return sol


def _shots(params: ModelParams, opts: Optional[IntegratorOptions],
           past_zero: bool) -> tuple[RadialODE, IntegratorOptions]:
    """The backward problem, which P/N labels need in the slow regime, and
    a shot's settings: it starts at the origin series' reach (r0 = inf) and
    stops at its first minimum, past a zero of u where past_zero."""
    if params.regime is not Regime.SLOW:
        raise DomainError("P/N classification and a_c exist in the slow regime "
                          f"(p > 2), got p = {params.p}")
    return backward_ode(params), replace(
        opts or IntegratorOptions(), r0=math.inf, stop_at_u_zero=not past_zero,
        stop_at_first_minimum=True)


def classify(params: ModelParams, a: float,
             opts: Optional[IntegratorOptions] = None, *, _problem=None) -> Classification:
    """Assign a to P, N, or N0 as _label does, but a height below (1 - 1e-12) h0,
    h0 the zero-energy height, is P with no run ("centre energy below G(0)");
    the margin covers rounding in h0's closed form.  sweep_a passes _problem,
    the (problem, shot settings, h0) it builds once and checks its grid with."""
    if _problem is None:
        _problem = (*_shots(params, opts, False), zero_energy_height(params))
        _problem[0].check_height(a)
    ode, shot_opts, h0 = _problem
    if a < (1.0 - 1e-12) * h0:
        return Classification(a, ProfileClass.P, None, None,
                              "centre energy below G(0)", None)
    return _label(ode, a, shot_opts)


def _label(ode: RadialODE, a: float, opts: IntegratorOptions) -> Classification:
    """Classify a by integrating, with the shot's settings opts
    (_shots), until a decisive event.

    Decisive outcomes: a zero of u (a touch, a turn where u lies within
    1e-12 of zero, which integrate records with w = 0.0 -> N0 with slope
    0; any other -> N); a first interior minimum or equilibrium capture
    (-> P, certified by energy descent); survival to the scan radius
    (-> P).  Step underflow before any of these yields Inconclusive.
    A shot that runs on past a zero stops at the first minimum of either
    sign, whose u is then the run's last; the label is the same.
    """
    sol = integrate(ode, a, opts)
    term = sol.termination
    zeros = sol.events_of(EventKind.U_ZERO)
    if zeros:
        ev = zeros[0]
        if ev.w == 0.0:
            return Classification(a, ProfileClass.N0, ev.r, 0.0,
                                  "tangential zero", sol)
        return Classification(a, ProfileClass.N, ev.r,
                              uprime_from_w(ode, ev.w), "transversal zero", sol)
    if term is Termination.U_PRIME_VANISHED:
        hits = sol.events_of(EventKind.EQUILIBRIUM_HIT)
        reason = "equilibrium capture" if hits else "interior minimum"
        return Classification(a, ProfileClass.P, None, None, reason, sol)
    if term is Termination.REACHED_RMAX:
        reason = "negative energy" if np.min(sol.energy) < 0.0 \
            else "positive over scan radius"
        return Classification(a, ProfileClass.P, None, None, reason, sol)
    return Classification(a, ProfileClass.INCONCLUSIVE, None, None,
                          f"terminated by {term.value}", sol)


@dataclass(frozen=True)
class SweepResult:
    """Classifications over a height grid, with the empirical set edges.

    a_1 is the top of the initial all-P prefix; a_2 the bottom of the final
    all-N tail; either is None when the corresponding run is empty.
    """

    classifications: list[Classification]
    a_1: Optional[float]
    a_2: Optional[float]

    @property
    def labels(self) -> list[str]:
        return [c.label for c in self.classifications]


def sweep_a(params: ModelParams, grid,
            opts: Optional[IntegratorOptions] = None) -> SweepResult:
    """Classify every height in the (increasing) grid, as classify does
    (below h0: "centre energy below G(0)"), once all of them are checked."""
    problem = (*_shots(params, opts, False), zero_energy_height(params))
    heights = [float(a) for a in grid]
    for a in heights:
        problem[0].check_height(a)
    if any(b <= a for a, b in zip(heights, heights[1:])):
        raise DomainError("height grid must be strictly increasing")
    cls = [classify(params, a, _problem=problem) for a in heights]
    a_1 = None
    for c in cls:
        if c.set is not ProfileClass.P:
            break
        a_1 = c.a
    a_2 = None
    for c in reversed(cls):
        if c.set is not ProfileClass.N:
            break
        a_2 = c.a
    return SweepResult(cls, a_1, a_2)


def zero_energy_height(params: ModelParams) -> float:
    """Height at which the center energy equals the barrier level G(0).

    p != 2: G(a) = +-(chi/(q+1) a^(q+1) - a/m) = 0 at ((q+1)/(chi m))^(1/q)
    if q > -1; for p > 2 and N = 1 it is exactly the critical height.
    p = 2: the nontrivial root of chi m (e^(m b) - 1) = m b via the secondary
    real branch of the Lambert W function (requires chi m < 1).
    """
    if params.regime is Regime.LINEAR:
        c = params.chi * params.m
        if c >= 1.0:
            raise DomainError(
                f"no zero-energy height for chi*m = {c:g} >= 1 at p = 2")
        from scipy.special import lambertw
        z = -lambertw(-c * math.exp(-c), -1)
        t = float(z.real) - c
        return t / params.m
    if params.q <= -1.0:
        raise DomainError(
            "no zero-energy height: the potential barrier at u = 0 is infinite "
            f"for q = {params.q:g} <= -1")
    return ((params.q + 1.0) / (params.chi * params.m)) ** (1.0 / params.q)


@dataclass(frozen=True)
class Probe:
    """One classification made by find_critical_a, in the order it ran.

    gap is u where the run stopped at its first minimum, of either sign
    (u* at an equilibrium capture), the value the search roots; None when
    the run ended otherwise.  n_steps and n_rejected count its steps.
    """

    a: float
    label: str
    reason: str
    gap: Optional[float]
    n_steps: int
    n_rejected: int
    r_start: float   # where the run started: the origin series' reach
    r_end: float
    step: str     # why this height: see find_critical_a

    @classmethod
    def of(cls, c: Classification, step: str) -> "Probe":
        sol = c.solution
        gap = (float(sol.u[-1]) if sol.termination is Termination.U_PRIME_VANISHED
               else None)
        return cls(c.a, c.label, c.reason, gap, sol.n_steps, sol.n_rejected,
                   float(sol.r[0]), sol.r_end, step)


@dataclass(frozen=True)
class CriticalResult:
    """Bracketed search output for the P/N boundary.

    lower and upper are the classifications of the final bracket's
    endpoints, P below and N (or N0) above; a_c is one of them, and
    classification and profile are its own probe's.  They are None when an
    endpoint of the initial bracket is itself tangential (N0) and
    bracket_width is 0.  trace holds every classification of the search in
    order: the initial bracket ends, the doublings and the interior probes.
    """

    a_c: float
    bracket_width: float
    R_c: Optional[float]
    profile: ProfileSolution
    n_iterations: int
    classification: Classification
    lower: Optional[Classification] = None
    upper: Optional[Classification] = None
    trace: tuple[Probe, ...] = ()


def find_critical_a(params: ModelParams,
                    bracket: Optional[tuple[float, float]] = None,
                    opts: Optional[IntegratorOptions] = None,
                    a_tol: float = 1e-10) -> CriticalResult:
    """Find a_c by Brent's method on the signed first minimum of u.

    Each probe runs on past a zero of u to its first interior minimum; that
    minimum u_min is positive on P, negative on N and smooth across a_c,
    where it is 0.  bracket defaults to [0.999 h0, expanding doublings]
    with h0 the zero-energy height, which is certified P (N = 1: it is a_c
    itself; the factor keeps the lower endpoint strictly inside P).  An
    upper end above a_cap, where the source term nears overflow, raises
    BadBracketError; p at or below the admissibility threshold, where no
    height vanishes, raises DomainError.

    The bracket moves on labels alone: P below, N or N0 above.  Brent's
    zeroin (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4) on u_min picks the next height, and bisects while an end's
    u_min disagrees in sign with its label.  The search stops once
    hi - lo <= a_tol mid; a_tol = 0 narrows the bracket to the
    floating-point limit.  a_c is Brent's best iterate, the end with the
    smaller |u_min|, so bracket_width bounds its error; its own probe is the
    result's classification and profile, which runs on to that minimum.

    Only a P height that stopped at its first interior minimum moves the
    bracket; any other P label (positive up to r_max, say) raises
    BadBracketError.  R_c is the radius of the final P end's last turn,
    smooth in a, while the zero of an N height moves like
    (a - a_c)^((p-1)/p).  An initial end that classifies N0 is a_c, with
    bracket_width 0 and its touch radius as R_c.
    Each trace entry's step names the rule that chose its height: "end"
    and "double" for the initial bracket; inside it "secant", "quadratic"
    (inverse quadratic), "mid" (bisection), or "tol", a step of the
    stopping tolerance past the best end when the estimate lies closer.
    Probes are shot, not certified as in classify: the search needs each
    P end's last turn, and its lower end lies below h0.
    """
    ode, shot_opts = _shots(params, opts, True)
    if not compact_support_admissible(params.N, params.p):
        raise DomainError(
            f"critical-height search needs an admissible slow exponent: "
            f"p = {params.p:g} is not above the ground-state admissibility "
            f"threshold {admissible_p_threshold(params.N):.6g} for N = {params.N}")
    if not (math.isfinite(a_tol) and a_tol >= 0.0):
        raise DomainError(f"a_tol must be finite and >= 0, got {a_tol}")
    # Upper ends stay below a_cap, where chi a^q is 2^-20 of the largest
    # double: the stepper's stage sums of g (coefficients up to ~25) must
    # not overflow.  Only steep forcings (p near 2) come near it.
    a_cap = (sys.float_info.max * 2.0 ** -20 / max(params.chi, 1.0)) ** (1.0 / params.q)
    if bracket is None:
        lo = 0.999 * zero_energy_height(params)
        hi = min(max(2.0 * lo, 2.0 * params.u_star), a_cap)
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
        if not (0.0 < lo < hi):
            raise BadBracketError(f"need 0 < a_lo < a_hi, got ({lo}, {hi})")
        ode.check_height(hi)
        if hi > a_cap:
            raise BadBracketError(
                f"upper endpoint a = {hi:g} is above a = {a_cap:g}, where the "
                "source term nears overflow")

    def turned(c: Classification) -> Classification:
        if c.reason != "interior minimum":
            raise BadBracketError(
                f"a = {c.a:g} classifies P ({c.reason}) without reaching an "
                f"interior minimum by r_max = {c.solution.opts.r_max:g}")
        return c

    def shot(a: float, step: str) -> Classification:
        c = _label(ode, a, shot_opts)
        trace.append(Probe.of(c, step))
        return c

    def u_min(t: Probe) -> float:    # nan where the run has no minimum
        return math.nan if t.gap is None else t.gap

    trace: list[Probe] = []
    c_lo = shot(lo, "end")
    if c_lo.set is ProfileClass.N0:
        return CriticalResult(lo, 0.0, c_lo.R_of_a, c_lo.solution, 0, c_lo,
                              trace=tuple(trace))
    if c_lo.set is not ProfileClass.P:
        raise BadBracketError(
            f"lower endpoint a = {lo:g} classifies {c_lo.label} ({c_lo.reason} "
            f"at r = {c_lo.solution.r_end:g}), need P")
    turned(c_lo)
    c_hi = shot(hi, "end")
    n_iter = 0
    while c_hi.set is ProfileClass.P and bracket is None and n_iter < 60:
        if hi >= a_cap:
            raise BadBracketError(
                f"heights up to a = {a_cap:g}, where the source term nears "
                "overflow, classify P")
        lo, c_lo = hi, turned(c_hi)
        hi = min(2.0 * hi, a_cap)
        c_hi = shot(hi, "double")
        n_iter += 1
    if c_hi.set is ProfileClass.N0:
        return CriticalResult(hi, 0.0, c_hi.R_of_a, c_hi.solution, n_iter,
                              c_hi, trace=tuple(trace))
    if c_hi.set is not ProfileClass.N:
        raise BadBracketError(
            f"upper endpoint a = {hi:g} classifies {c_hi.label} ({c_hi.reason} "
            f"at r = {c_hi.solution.r_end:g}), need N")

    # zeroin's state, f being u_min: b is the end with the smaller |f|, c
    # the other end, a the last b; d is the last step and e the one before
    f_lo, f_hi = u_min(trace[-2]), u_min(trace[-1])
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc, d = a, fa, b - a
    e = d
    while True:
        if not abs(fb) <= abs(fc):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi or hi - lo <= a_tol * abs(mid):
            break  # the stopping width, or the floating-point limit
        tol = max(0.5 * a_tol * abs(mid), 2.0 * math.ulp(mid))
        xm = 0.5 * (c - b)
        step = "mid"
        if f_lo > 0.0 > f_hi and abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                pn, qd, rule = 2.0 * xm * s, 1.0 - s, "secant"
            else:
                qd, rt = fa / fc, fb / fc
                pn = s * (2.0 * xm * qd * (qd - rt) - (b - a) * (rt - 1.0))
                qd, rule = (qd - 1.0) * (rt - 1.0) * (s - 1.0), "quadratic"
            qd = -qd if pn > 0.0 else qd
            pn = abs(pn)
            if 2.0 * pn < min(3.0 * xm * qd - abs(tol * qd), abs(e * qd)):
                e, d, step = d, pn / qd, rule
        if step == "mid":
            d = e = xm
        elif abs(d) <= tol:
            d, step = math.copysign(tol, xm), "tol"
        x = b + d
        if not lo < x < hi:     # a tolerance step at the floating-point limit
            x, step = mid, "mid"
        c_x = shot(x, step)
        n_iter += 1
        f_x = u_min(trace[-1])
        if c_x.set is ProfileClass.P:
            lo, c_lo, f_lo = x, turned(c_x), f_x
        elif c_x.set is ProfileClass.INCONCLUSIVE:
            raise AmbiguousBracketError(
                f"inconclusive classification at a = {x:g}: {c_x.reason}")
        else:
            hi, c_hi, f_hi = x, c_x, f_x
        if (x == lo) == (c < b):     # x took c's side: b is the new c
            c, fc, d = b, fb, x - b
            e = d
        a, fa, b, fb = b, fb, x, f_x

    best = c_lo if b == lo else c_hi
    R_c = c_lo.solution.events_of(EventKind.U_PRIME_ZERO)[-1].r
    return CriticalResult(b, hi - lo, R_c, best.solution, n_iter, best,
                          c_lo, c_hi, tuple(trace))

"""Spreading profiles: monotone trajectories, support edge, tail laws.

The forward problems are monotone in every regime: for p = 2 the profile
decreases without bound, for p < 2 it increases without bound, and for
p > 2 it decreases to 0 at a finite support radius R_0.  The unbounded
trajectories are cut off at a fixed level and their behavior beyond
the grid is carried by an explicit tail model; the known asymptotic laws are

    p < 2:  phi(r) r^(p/(2-p)) -> K^((p-1)/(p-2)),  K = (1/(BNm))^(1/(p-1)) (p-1)/p
    p = 2:  ln phi(r) / r^2 -> -1/4   (using m N = 2 at p = 2)
    p > 2:  compact support.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import (
    DomainError,
    InsufficientRangeError,
    IntegrationError,
    NoSupportRadiusError,
)
from .params import ModelParams, Regime, phi_of_u
from .radial_ode import (
    EventKind,
    IntegratorOptions,
    ProfileSolution,
    Termination,
    forward_ode,
    integrate,
    uprime_from_w,
)

__all__ = [
    "PowerTail",
    "LogQuadraticTail",
    "CompactTail",
    "ForwardProfile",
    "solve_forward",
    "SupportEdge",
    "support_radius",
    "support_radius_upper_bound",
    "DecayFit",
    "fit_decay_rate",
]

_N_FIT = 200              # fit_decay_rate's samples over the last decade of r


@dataclass(frozen=True)
class PowerTail:
    """phi ~ coefficient * r^exponent (p < 2), the law itself past the grid."""

    kind: ClassVar[str] = "power"
    exponent: float
    coefficient: float


@dataclass(frozen=True)
class LogQuadraticTail:
    """ln phi ~ coefficient * r^2 as r -> infinity (p = 2); past the grid
    end phi continues as phi_end e^(coefficient (r^2 - r_end^2))."""

    kind: ClassVar[str] = "log-quadratic"
    coefficient: float


@dataclass(frozen=True)
class CompactTail:
    """phi vanishes identically beyond the support radius (p > 2)."""

    kind: ClassVar[str] = "compact"
    radius: float


Tail = Union[PowerTail, LogQuadraticTail, CompactTail]


@dataclass(frozen=True)
class ForwardProfile:
    """A spreading profile; its regime is the params' and its support
    radius, for p > 2, the radius of its compact tail."""

    params: ModelParams
    a: float
    sol: ProfileSolution = field(repr=False)
    tail: Tail

    @property
    def regime(self) -> Regime:
        return self.params.regime

    @property
    def support_radius(self) -> Optional[float]:
        return self.tail.radius if isinstance(self.tail, CompactTail) else None


def _check_monotone(u: np.ndarray, direction: int, regime: Regime) -> None:
    # equality of neighbors is tolerated (sub-ulp steps near startup);
    # any actual reversal is a hard failure
    d = np.diff(u) * direction
    if np.any(d < 0.0) or (len(u) > 1 and u[-1] == u[0]):
        i = int(np.argmin(d))
        raise IntegrationError(
            f"monotonicity violated for {regime.value} spreading profile at "
            f"step {i}: consecutive u = {u[i]!r}, {u[i + 1]!r}")


def solve_forward(params: ModelParams, a_or_b: float,
                  opts: Optional[IntegratorOptions] = None) -> ForwardProfile:
    """Integrate the spreading profile problem from center value a_or_b.

    p = 2 runs down to u = -1e3, p < 2 up to u = 1e6 (forward_ode's
    cutoffs), p > 2 to the zero of u; a center value at or beyond its
    regime's cutoff, or not positive for p != 2, raises DomainError.  The
    regime's strict monotonicity is verified on every accepted step.
    """
    a = float(a_or_b)
    ode = forward_ode(params)
    ode.check_height(a)
    regime = params.regime
    opts = replace(opts or IntegratorOptions(), stop_at_u_zero=regime is Regime.SLOW)
    sol = integrate(ode, a, opts)
    if regime is Regime.LINEAR:
        _check_monotone(sol.u, -1, regime)
        return ForwardProfile(params, a, sol, LogQuadraticTail(-0.25))
    if regime is Regime.FAST:
        _check_monotone(sol.u, +1, regime)
        p, B, N, m = params.p, params.B, params.N, params.m
        K = (1.0 / (B * N * m)) ** (1.0 / (p - 1.0)) * (p - 1.0) / p
        tail = PowerTail(p / (p - 2.0), K ** ((p - 1.0) / (p - 2.0)))
        return ForwardProfile(params, a, sol, tail)
    if sol.termination is not Termination.U_CROSSED_ZERO:
        raise NoSupportRadiusError(
            f"trajectory from a = {a:g} did not vanish by r = {opts.r_max:g} "
            f"({sol.termination.value})")
    _check_monotone(sol.u[sol.u > 0.0], -1, regime)
    R0 = sol.events_of(EventKind.U_ZERO)[-1].r
    return ForwardProfile(params, a, sol, CompactTail(R0))


@dataclass(frozen=True)
class SupportEdge:
    R_0: float
    terminal_u_slope: float
    terminal_phi_slope: float


def support_radius(fp: ForwardProfile, eps: float = 1e-6) -> SupportEdge:
    """Support edge data: R_0, u'(R_0), and phi' just inside the edge.

    phi' = (p-1)/(p-2) u^(1/(p-2)) u' vanishes as r -> R_0 even though
    u'(R_0) < 0, because the exponent is positive for p > 2; the returned
    phi slope is evaluated at R_0 - eps min(1, R_0), inside the grid.
    """
    if fp.regime is not Regime.SLOW:
        raise DomainError("support radius exists in the slow regime (p > 2)")
    if fp.support_radius is None:
        raise NoSupportRadiusError("profile has no zero event")
    R0 = fp.support_radius
    ev = fp.sol.events_of(EventKind.U_ZERO)[-1]
    u_slope = uprime_from_w(fp.sol.ode, ev.w)
    p = fp.params.p
    u_in, w_in = fp.sol.sample(R0 - eps * min(1.0, R0))
    up_in = uprime_from_w(fp.sol.ode, w_in)
    phi_slope = (p - 1.0) / (p - 2.0) * max(u_in, 0.0) ** (1.0 / (p - 2.0)) * up_in
    return SupportEdge(R0, u_slope, phi_slope)


def support_radius_upper_bound(params: ModelParams, a: float) -> float:
    """Cap on R_0 from u(r) <= a - (p-1)/p (BmN)^(-1/(p-1)) r^(p/(p-1))."""
    if params.regime is not Regime.SLOW:
        raise DomainError("support radius bound needs p > 2")
    p, B, m, N = params.p, params.B, params.m, params.N
    return (a * p / (p - 1.0)) ** ((p - 1.0) / p) * (B * m * N) ** (1.0 / p)


@dataclass(frozen=True)
class DecayFit:
    """Tail-limit estimate against its exact target.

    limit_estimate comes from a quadratic Richardson fit over the last
    decade of the grid; raw_estimate is the unextrapolated value at the
    final point.  For p < 2 the u-level limit u / r^(p/(p-1)) is fitted
    the same way alongside the phi-level one.
    """

    limit_estimate: float
    target: float
    raw_estimate: float
    r_last: float
    u_level_estimate: Optional[float] = None
    u_level_target: Optional[float] = None


def _richardson(x: np.ndarray, y: np.ndarray) -> float:
    # least-squares y = A + B x + C x^2; the limit x -> 0 is A
    V = np.vander(x, 3, increasing=True)
    coef, *_ = np.linalg.lstsq(V, y, rcond=None)
    return float(coef[0])


def fit_decay_rate(fp: ForwardProfile) -> DecayFit:
    """Fit the unbounded-regime tail limit over the last decade of r."""
    if fp.regime is Regime.SLOW:
        raise DomainError("compactly supported profiles have no decay rate")
    if fp.sol.opts.r_max < 1e2:
        raise InsufficientRangeError(
            f"need a scan radius of at least 100, have r_max = {fp.sol.opts.r_max:g}")
    r_last = fp.sol.r_end
    r = np.geomspace(r_last / 10.0, r_last, _N_FIT)
    u, _ = fp.sol.sample(r)
    p = fp.params.p
    if fp.regime is Regime.LINEAR:
        # ln phi = u; corrections enter as ln r / r^2 and 1/r^2
        y = u / r ** 2
        V = np.column_stack([np.ones_like(r), np.log(r) / r ** 2, 1.0 / r ** 2])
        coef, *_ = np.linalg.lstsq(V, y, rcond=None)
        return DecayFit(float(coef[0]), -0.25, float(y[-1]), r_last)
    x = r ** (-p / (p - 1.0))
    u_level = u * x
    phi_level = phi_of_u(fp.params, u_level)  # phi r^(p/(2-p)) = (u x)^((p-1)/(p-2))
    target = fp.tail.coefficient
    B, N, m = fp.params.B, fp.params.N, fp.params.m
    u_target = (p - 1.0) / p * (1.0 / (m * B * N)) ** (1.0 / (p - 1.0))
    return DecayFit(_richardson(x, phi_level), target, float(phi_level[-1]),
                    r_last, _richardson(x, u_level), u_target)

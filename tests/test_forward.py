"""Tests for the spreading-profile layer: monotonicity, support edge, tails."""

from dataclasses import replace

import numpy as np
import pytest

from plks import derive_params
from plks.errors import (
    DomainError,
    InsufficientRangeError,
    IntegrationError,
    NoSupportRadiusError,
)
from plks.forward import (
    CompactTail,
    LogQuadraticTail,
    PowerTail,
    fit_decay_rate,
    solve_forward,
    support_radius,
    support_radius_upper_bound,
)
from plks.radial_ode import IntegratorOptions, Termination, forward_ode, integrate

from oracles import envelope_check


def _upto(r_max):
    return IntegratorOptions(r_max=r_max)


# ------------------------------------------------------------ dispatch


def test_linear_regime_decreases_to_floor():
    P = derive_params(2, 2.0, 1.0)
    fp = solve_forward(P, 0.0)
    assert fp.sol.termination is Termination.DIVERGED
    assert fp.sol.u[-1] <= -0.99e3
    assert np.all(np.diff(fp.sol.u) <= 0.0)
    assert isinstance(fp.tail, LogQuadraticTail)
    assert fp.tail.coefficient == -0.25
    assert fp.support_radius is None


def test_linear_regime_accepts_negative_center():
    P = derive_params(3, 2.0, 1.0)
    fp = solve_forward(P, -2.0)
    assert fp.sol.u[0] < -1.9


def test_fast_regime_increases_to_ceiling():
    P = derive_params(3, 1.8, 1.0)
    fp = solve_forward(P, 1.0, _upto(2e3))
    assert fp.sol.termination is Termination.DIVERGED
    assert fp.sol.u[-1] >= 1e6
    assert np.all(np.diff(fp.sol.u) >= 0.0)
    assert isinstance(fp.tail, PowerTail)
    assert fp.tail.exponent == pytest.approx(1.8 / (1.8 - 2.0))


def test_slow_regime_hits_compact_support():
    P = derive_params(1, 3.0, 1.0)
    fp = solve_forward(P, 1.0)
    assert fp.sol.termination is Termination.U_CROSSED_ZERO
    assert isinstance(fp.tail, CompactTail)
    assert fp.tail.radius == fp.support_radius > 0.0
    pos = fp.sol.u > 0.0
    assert np.all(np.diff(fp.sol.u[pos]) <= 0.0)


def test_fast_run_that_falls_to_zero_stops_there():
    # from b = 8e-37, far below abs_tol, the first steps carry u across
    # the singular source at u = 0; the run ends at the forward floor 0
    # and fails the monotone check instead of chattering about u = 0
    P = derive_params(4, 1.6578553064944592, 0.03226344401781748)
    with pytest.raises(IntegrationError, match="monotonicity violated"):
        solve_forward(P, 8.274334785025439e-37, _upto(20.0))


def test_solve_forward_preconditions():
    with pytest.raises(DomainError):
        solve_forward(derive_params(1, 3.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        solve_forward(derive_params(3, 1.8, 1.0), -1.0)
    with pytest.raises(DomainError):
        solve_forward(derive_params(2, 2.0, 1.0), float("inf"))
    with pytest.raises(DomainError):
        # center already at the p = 2 floor
        solve_forward(derive_params(2, 2.0, 1.0), -1e3)
    with pytest.raises(DomainError):
        # p < 2 center already at the ceiling
        solve_forward(derive_params(3, 1.8, 1.0), 1e6)
    with pytest.raises(DomainError):
        solve_forward(derive_params(2, 2.0, 1.0), -2e3)
    with pytest.raises(DomainError):
        solve_forward(derive_params(3, 1.8, 1.0), 2e6)


@pytest.mark.parametrize("N,p,b,cutoff", [
    (1, 2.0, 2.0, {"u_floor": -0.5}), (1, 2.0, 2.0, {"u_floor": 1.0}),
    (1, 2.0, -3.0, {"u_floor": -4.0}), (1, 2.0, 0.0, {"u_floor": -1e3}),
    (3, 1.8, 1.0, {"u_ceiling": 5.0}), (3, 1.8, 1.0, {"u_ceiling": 100.0}),
])
def test_forward_cutoffs_hold(N, p, b, cutoff):
    # the cutoff bounds the forward problem's range: the run ends at the
    # first step past it, whatever the center height; u_floor = -1e3 is
    # the p = 2 problem's own
    ode = replace(forward_ode(derive_params(N, p, 1.0)), **cutoff)
    sol = integrate(ode, b, IntegratorOptions(stop_at_u_zero=False))
    u = sol.u
    assert sol.termination is Termination.DIVERGED
    if "u_floor" in cutoff:
        assert u[-1] <= cutoff["u_floor"] < u[-2]
    else:
        assert u[-2] < cutoff["u_ceiling"] <= u[-1]


@pytest.mark.parametrize("p", [1.8, 2.0, 3.0])
def test_profile_regime_and_support_come_from_params_and_tail(p):
    P = derive_params(3, p, 1.0)
    fp = solve_forward(P, 1.0, _upto(50.0))
    assert fp.regime is P.regime
    assert fp.support_radius == (fp.tail.radius if p > 2.0 else None)


def test_slow_regime_needs_room_to_vanish():
    P = derive_params(1, 3.0, 1.0)
    with pytest.raises(NoSupportRadiusError):
        solve_forward(P, 1.0, _upto(0.5))


@pytest.mark.parametrize("p", [1.8, 2.0, 3.0])
def test_forward_run_ending_in_step_underflow_has_no_profile(p, forward_underflow):
    # in each regime: a cut trajectory gets no tail model and no support radius
    with pytest.raises(IntegrationError) as exc:
        solve_forward(derive_params(3, p, 1.0), 1.0, _upto(50.0))
    assert str(exc.value) == (
        f"integration failed (step-underflow) at r = {forward_underflow[0].r_end:g}")


# ------------------------------------------------------------ envelopes


def test_fast_envelope_two_sided():
    P = derive_params(3, 1.8, 1.0)
    rep = envelope_check(solve_forward(P, 1.0, _upto(2e3)))
    assert rep.ok
    assert rep.max_slope_violation is None


def test_linear_envelope_and_slope_bound():
    # u' <= -r/(mN): the source term never drops below 1/m
    for (N, b) in [(2, 0.0), (4, 1.0), (1, -0.5)]:
        P = derive_params(N, 2.0, 1.0)
        rep = envelope_check(solve_forward(P, b))
        assert rep.ok, (N, b, rep)
        assert rep.max_slope_violation is not None


# ---------------------------------------------------------- support edge


@pytest.mark.parametrize("N,p", [(1, 3.0), (2, 3.0), (3, 2.5)])
def test_support_radius_under_upper_bound(N, p):
    P = derive_params(N, p, 1.0)
    fp = solve_forward(P, 1.0)
    edge = support_radius(fp)
    assert 0.0 < edge.R_0 <= support_radius_upper_bound(P, 1.0)
    assert edge.terminal_u_slope < 0.0


def test_phi_slope_vanishes_at_edge():
    P = derive_params(2, 3.0, 1.0)
    fp = solve_forward(P, 1.0)
    edge = support_radius(fp, eps=1e-6)
    assert abs(edge.terminal_phi_slope) < 1e-4
    # and it keeps shrinking with the offset
    wider = support_radius(fp, eps=1e-4)
    assert abs(edge.terminal_phi_slope) < abs(wider.terminal_phi_slope)


def test_support_edge_unpacks():
    P = derive_params(1, 3.0, 1.0)
    edge = support_radius(solve_forward(P, 1.0))
    assert edge.R_0 > 0.0 and edge.terminal_u_slope < 0.0


def test_support_radius_rejects_fast_regime():
    P = derive_params(3, 1.8, 1.0)
    with pytest.raises(DomainError):
        support_radius(solve_forward(P, 1.0, _upto(2e3)))


def test_support_bound_needs_slow_regime():
    with pytest.raises(DomainError):
        support_radius_upper_bound(derive_params(2, 2.0, 1.0), 1.0)


# ------------------------------------------------------------- tail fits


def test_decay_rate_linear_quarter():
    # ln phi / r^2 -> -1/4 for every N (m N = 2 at p = 2)
    for (N, b) in [(2, 0.0), (4, 1.0)]:
        fit = fit_decay_rate(solve_forward(derive_params(N, 2.0, 1.0), b))
        assert fit.target == -0.25
        assert abs(fit.raw_estimate - fit.target) / 0.25 < 0.02
        assert abs(fit.limit_estimate - fit.target) / 0.25 < 0.005


def test_decay_rate_fast_power_law():
    # independent arithmetic for the target at N = 3, p = 1.8:
    # B = 4^0.8, m = 0.4, K = (1/(1.2 B))^1.25 * (0.8/1.8), limit = K^-4
    B = 4.0 ** 0.8
    K = (1.0 / (B * 3.0 * 0.4)) ** 1.25 * (0.8 / 1.8)
    target = K ** -4.0
    fit = fit_decay_rate(solve_forward(derive_params(3, 1.8, 1.0), 1.0,
                                       _upto(2e3)))
    assert fit.target == pytest.approx(target, rel=1e-12)
    assert abs(fit.raw_estimate - target) / target < 0.02
    assert abs(fit.limit_estimate - target) / target < 0.005
    # the u-level limit drops the chi a^q correction entirely
    u_target = 0.8 / 1.8 * (1.0 / (0.4 * B * 3.0)) ** 1.25
    assert fit.u_level_target == pytest.approx(u_target, rel=1e-12)
    assert abs(fit.u_level_estimate - u_target) / u_target < 0.005


def test_decay_rate_needs_scan_range():
    P = derive_params(2, 2.0, 1.0)
    with pytest.raises(InsufficientRangeError):
        fit_decay_rate(solve_forward(P, 0.0, _upto(50.0)))


def test_decay_rate_rejects_compact_profiles():
    P = derive_params(1, 3.0, 1.0)
    with pytest.raises(DomainError):
        fit_decay_rate(solve_forward(P, 1.0))

"""Integrator core: oracle agreement, events, energy law, defect audit."""

import copy
import itertools
import math
import re
import sys
import tracemalloc
import warnings
from array import array
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plks import (
    DomainError,
    EnergyLawError,
    EventKind,
    IntegrationError,
    IntegratorOptions,
    Termination,
    admissible_p_threshold,
    backward_ode,
    derive_params,
    energy,
    energy_derivative_check,
    find_critical_a,
    forward_ode,
    integrate,
    kinetic_energy,
    limit_ode,
    solve_backward,
    solve_forward,
    uprime_from_w,
    zero_energy_height,
)
from oracles import (dense_coefficients_loop, energy_audit_by_sample,
                     energy_audit_reference, energy_reference,
                     kinetic_energy_reference, local_residual_check, oracle_g,
                     oracle_startup, potential_reference, rk4_trajectory)
from plks import radial_ode
from plks.radial_ode import _dense_block, _dense_coefficients

RNG = np.random.default_rng(20260822)


def _ode(N, p, chi, problem):
    P = derive_params(N, p, chi)
    if problem == "backward":
        return backward_ode(P)
    if problem == "forward":
        return forward_ode(P)
    return limit_ode(P)


# ---------------------------------------------------------------- forcings

FORCING_CASES = [
    (1, 3.0, 1.0, "backward"),
    (1, 3.0, 1.0, "forward"),
    (1, 3.0, 1.0, "limit"),
    (2, 2.0, 1.0, "backward"),
    (2, 2.0, 0.5, "forward"),
    (3, 1.8, 1.0, "backward"),
    (3, 1.8, 2.0, "forward"),
    (1, 1.5, 1.0, "backward"),
    (2, 2.5, 1.5, "limit"),
]


@pytest.mark.parametrize("problem", ["backward", "forward", "limit"])
@pytest.mark.parametrize("N,p", [(2, 3.0), (2, 2.0), (3, 1.8)])
def test_problem_shape_per_regime(N, p, problem):
    # one RadialODE per problem and regime: its label, flux constant,
    # equilibrium and singular floor; the energy variable's Newton solve
    # exists exactly for p > 2
    P = derive_params(N, p)
    if problem == "limit" and p <= 2.0:
        with pytest.raises(DomainError):
            limit_ode(P)
        return
    ode = _ode(N, p, 1.0, problem)
    assert (ode.params.N, ode.params.p, ode.params.chi) == (P.N, P.p, P.chi)
    assert ode.kind == ("limit" if problem == "limit"
                        else f"{problem}-{P.regime.value}")
    assert ode.B_eff == (1.0 if p == 2.0 else P.B)
    equilibrium = None
    if problem == "backward":
        equilibrium = P.u_star_log if p == 2.0 else P.u_star
    assert ode.equilibrium_u == equilibrium
    # the problem's own cutoffs: the fast floors at the singular source,
    # the forward floor (p = 2) and ceiling (p < 2) of the runs that grow
    # without bound
    assert ode.u_floor == ({("backward", "fast"): 1e-8,
                            ("forward", "fast"): 0.0,
                            ("forward", "linear"): -1e3}
                           .get((problem, P.regime.value), -1e12))
    assert ode.u_ceiling == (1e6 if (problem, P.regime.value)
                             == ("forward", "fast") else 1e12)
    assert (ode.G is not None) == (ode.solve_G is not None) == (p > 2.0)


@pytest.mark.parametrize("N,p,chi,problem", FORCING_CASES)
def test_forcing_matches_oracle(N, p, chi, problem):
    ode = _ode(N, p, chi, problem)
    ref = oracle_g(N, p, chi, problem)
    us = [0.3, 0.7, 1.0, 1.7, 4.2]
    for u in us:
        assert abs(ode.g(u) - ref(u)) < 1e-13 * max(1.0, abs(ref(u)))


@pytest.mark.parametrize("N,p,chi,problem", FORCING_CASES)
def test_potential_antiderivative(N, p, chi, problem):
    # G' = g by centered finite differences
    ode = _ode(N, p, chi, problem)
    eps = 1e-6
    for u in (0.4, 0.9, 1.3, 2.6):
        fd = (float(ode.G_np(u + eps)) - float(ode.G_np(u - eps))) / (2 * eps)
        g = ode.g(u)
        assert abs(fd - g) < 5e-8 * max(1.0, abs(g)), (u, fd, g)


def test_log_potential_branch():
    # q = -1: the fast-backward potential degenerates to u/m - chi ln u
    ode = _ode(1, 1.5, 1.0, "backward")
    G1 = float(ode.G_np(1.0))
    assert abs(G1 - 1.0) < 1e-15  # u/m - chi ln(1) with m = 1
    with pytest.raises(DomainError):
        ode.G_np(-0.5)


def test_equilibrium_annihilates_source():
    for N, p, chi in [(1, 3.0, 1.0), (2, 2.5, 2.0), (3, 1.8, 1.0)]:
        P = derive_params(N, p, chi)
        ode = backward_ode(P)
        assert abs(ode.g(P.u_star)) < 1e-13
    P = derive_params(2, 2.0, 0.7)
    ode = backward_ode(P)
    assert abs(ode.g(P.u_star_log)) < 1e-13


def test_power_forcing_clamps_overflow_to_inf():
    # q ~ 2004: u^q overflows near u = 1.42; g saturates instead of raising
    g = backward_ode(derive_params(1, 2.001, 1.0)).g
    assert math.isfinite(g(1.4))
    assert g(2.5) == math.inf
    assert g(-2.5) == -math.inf
    assert g(1e300) == math.inf


def test_power_forcing_infinite_at_zero_for_negative_q():
    # fast backward, q < 0: coef = -chi, so g(+-0) = -+inf, signed like u
    P = derive_params(3, 1.8, 1.0)
    assert P.q < 0.0
    g = backward_ode(P).g
    assert g(0.0) == -math.inf
    assert g(-0.0) == math.inf
    # q > 0: g(0) is the constant term alone
    P = derive_params(2, 3.0, 1.0)
    assert backward_ode(P).g(0.0) == -1.0 / P.m


def test_power_forcing_is_odd():
    # the limit forcing is the bare power law, odd in u to the bit
    for N, p in ((1, 3.0), (2, 2.5), (1, 2.001)):
        g = limit_ode(derive_params(N, p, 1.5)).g
        for u in (1e-3, 0.4, 1.0, 1.3, 7.0):
            assert g(-u) == -g(u)
    # with a constant term c, g(u) + g(-u) = 2c at every u
    for N, p, problem, c in ((1, 3.0, "backward", -1.0 / 4.0),
                             (2, 3.0, "forward", 1.0 / 2.5),
                             (3, 1.8, "backward", 1.0 / 0.4)):
        assert derive_params(N, p).m == pytest.approx(abs(1.0 / c))
        g = _ode(N, p, 1.5, problem).g
        for u in (0.4, 1.0, 1.3):
            assert g(u) + g(-u) == pytest.approx(2.0 * c, abs=1e-13)


def test_exp_forcing_clamps_above_709():
    P = derive_params(2, 2.0, 1.0)   # m = 1
    g = forward_ode(P).g
    assert g(709.0) == P.chi * math.exp(709.0) + 1.0 / P.m
    assert g(709.5) == math.inf      # math.exp(709.5) is finite; the clamp is not
    assert g(1e6) == math.inf


def test_flux_inversion_round_trip():
    for p in (1.5, 1.8, 2.0, 2.5, 3.0):
        ode = _ode(2, p, 1.0, "backward")
        for v in (-2.0, -0.3, 0.0, 0.7, 1.9):
            w = ode.B_eff * math.copysign(abs(v) ** (ode.params.p - 1.0), v) if v else 0.0
            assert abs(uprime_from_w(ode, w) - v) < 1e-12


# ---------------------------------------------------------------- startup

def test_startup_matches_oracle():
    # a run's first node is the origin series' state at r0
    for N, p, chi, problem in FORCING_CASES:
        ode = _ode(N, p, chi, problem)
        sol = integrate(ode, 1.3, IntegratorOptions(r0=1e-6, r_max=1e-4))
        assert sol.r[0] == 1e-6
        u, w = float(sol.u[0]), float(sol.w[0])
        uo, wo = oracle_startup(N, p, chi, problem, 1.3, 1e-6)
        assert abs(u - uo) < 1e-18 + 1e-14 * abs(uo)
        assert abs(w - wo) < 1e-18 + 1e-14 * abs(wo)


def test_startup_series_consistency():
    # moving the startup radius across four decades below the series'
    # reach barely moves u(1)
    ode = _ode(1, 3.0, 1.0, "backward")
    vals = []
    for r0 in (1e-7, 1e-9, 1e-11):
        opts = IntegratorOptions(r0=r0, r_max=1.0)
        sol = integrate(ode, 2.0, opts)
        assert sol.r[0] == r0
        assert sol.termination is Termination.U_CROSSED_ZERO or sol.r_end == 1.0
        u1, _ = sol.sample(min(0.5, sol.r_end))
        vals.append(u1)
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-8 * max(1.0, abs(vals[0]))


def test_startup_radius_shrinks_to_the_series_cap():
    # a run starts at min(r0, reach).  r0 = inf starts it at the reach,
    # which steeper heights pull in (the series' terms grow with g(u0)),
    # where u and w/r keep at least half their value at the origin, and
    # which a short scan radius caps at r_max / 2; a requested r0 below
    # the reach stays as requested.  The runs stop at their first minimum,
    # which leaves the reach as it is
    ode = _ode(1, 3.0, 1.0, "backward")
    opts = IntegratorOptions(r0=math.inf, stop_at_first_minimum=True)
    reaches = []
    for u0 in (1.0, 1.5, 2.0, 10.0, 100.0):
        sol = integrate(ode, u0, opts)
        r0, u, w = float(sol.r[0]), float(sol.u[0]), float(sol.w[0])
        reaches.append(r0)
        assert 0.5 * u0 <= u < u0
        assert 0.5 <= (w / r0) / (-ode.g(u0)) <= 1.5   # w/r = -g(u0)/N at 0
        for r_req in (1e-6, 0.5 * r0):
            assert integrate(ode, u0, replace(opts, r0=r_req)).r[0] == r_req
    assert reaches == sorted(reaches, reverse=True) and reaches[-1] < 1e-4
    short = replace(opts, r_max=1e-3)
    assert integrate(ode, 1.5, short).r[0] == 0.5 * short.r_max


def _series_against_tight_run(ode, u0, r_max=1e3):
    """The startup state at the reach against a run at tolerance 1e-13.

    At the reach the series' tail is below 1e-3 of the step scale, by its
    last-two-terms estimate: abs_tol + rel_tol |u0| for u, and
    abs_tol + rel_tol |w| for w.  The reference starts at
    min(1e-9, 1e-3 reach), where the series is exact to roundoff (its
    terms shrink at least 1000-fold there), and each of its n accepted
    steps commits at most 0.25 of its scale 1e-13 (1 + |y|), |y| up to
    1.5 |u0| for u and max |w| for w.  Over the layer, where u and w/r
    stay within half their value at the origin, the ODE's growth factor is
    taken as at most 2, so the reference is off by at most 0.5 n 1e-13
    (1 + |y|).  The bound is the sum of the two, at most the step
    tolerance abs_tol + rel_tol |y| for n <= 1000, which is asserted.
    """
    opts = IntegratorOptions(r0=math.inf, r_max=r_max,
                             stop_at_first_minimum=True)   # a short run
    sol = integrate(ode, u0, opts)
    reach, u, w = float(sol.r[0]), float(sol.u[0]), float(sol.w[0])
    assert 0.0 < reach <= 0.5 * r_max
    ref = integrate(ode, u0, IntegratorOptions(
        rel_tol=1e-13, abs_tol=1e-13, r0=min(1e-9, 1e-3 * reach), r_max=reach))
    # no event in the layer: no zero of u, no turn, no capture
    assert ref.termination is Termination.REACHED_RMAX and not ref.events
    assert float(np.min(ref.u)) > 0.0
    assert np.all(np.sign(ref.w) == -math.copysign(1.0, ode.g(u0)))
    n = ref.n_steps
    assert n <= 1000
    u_max, w_max = 1.5 * abs(u0), float(np.max(np.abs(ref.w)))
    assert abs(u - ref.u[-1]) <= 1e-3 * (opts.abs_tol + opts.rel_tol * abs(u0)) \
        + 0.5 * n * 1e-13 * (1.0 + u_max)
    assert abs(w - ref.w[-1]) <= 1e-3 * (opts.abs_tol + opts.rel_tol * w_max) \
        + 0.5 * n * 1e-13 * (1.0 + w_max)
    # find-critical --r-max 2 keeps the reach below its scan radius too
    assert integrate(ode, u0, replace(opts, r_max=2.0)).r[0] <= 1.0
    return reach


@st.composite
def _slow_start(draw):
    """A backward height in [0.999 h0, 100 h0] or a forward b in [1e-3,
    1e3], at p > 2; both stay below find_critical_a's cap a_cap, where
    chi a^q is 2^-20 of the largest double (near p = 2, q is in the
    thousands and g(100 h0) overflows)."""
    N = draw(st.integers(1, 4))
    p = draw(st.floats(max(2.0, admissible_p_threshold(N)) + 1e-3, 4.5))
    P = derive_params(N, p, draw(st.floats(0.25, 4.0)))
    a_cap = (sys.float_info.max * 2.0 ** -20 / max(P.chi, 1.0)) ** (1.0 / P.q)
    if draw(st.booleans()):
        f = math.exp(draw(st.floats(math.log(0.999), math.log(100.0))))
        return backward_ode(P), min(f * zero_energy_height(P), a_cap)
    return forward_ode(P), min(10.0 ** draw(st.floats(-3.0, 3.0)), a_cap)


# Steep forward heights, g(u0) up to 1e302: the series' terms must stay in
# range, or it truncates to two terms, which leave w's tail unbounded
@settings(max_examples=60, deadline=None)
@given(_slow_start())
@example(case=(forward_ode(derive_params(1, 2.03125)), 100.0))
@example(case=(forward_ode(derive_params(1, 2.0078125)), 14.533461096164054))
def test_origin_series_matches_a_tight_run(case):
    _series_against_tight_run(*case)


@pytest.mark.parametrize("problem,u0", [("backward", 1.0), ("forward", 1.0)])
def test_origin_series_matches_a_tight_run_under_exp_forcing(problem, u0):
    _series_against_tight_run(_ode(2, 2.0, 0.5, problem), u0)


def test_startup_rejects_bad_input():
    ode = _ode(1, 3.0, 1.0, "backward")
    with pytest.raises(DomainError, match="startup radius"):
        integrate(ode, 1.0, IntegratorOptions(r0=0.0))
    fast = _ode(3, 1.8, 1.0, "backward")
    with pytest.raises(DomainError, match="lies outside"):
        integrate(fast, -1.0)  # singular source needs u0 > 0


# ------------------------------------------------------- oracle equivalence

ORACLE_CASES = [
    (1, 3.0, 1.0, "backward", 2.0),
    (1, 3.0, 1.0, "backward", 0.85),
    (2, 2.0, 1.0, "forward", 1.0),
    (2, 2.5, 1.0, "backward", 1.5),
    (3, 1.8, 1.0, "forward", 1.0),
    (1, 1.5, 1.0, "backward", 1.7),
]


@pytest.mark.parametrize("N,p,chi,problem,u0", ORACLE_CASES)
def test_adaptive_agrees_with_rk4(N, p, chi, problem, u0):
    ode = _ode(N, p, chi, problem)
    sol = integrate(ode, u0, IntegratorOptions(r_max=1.0, stop_at_u_zero=False))
    r0 = float(sol.r[0])
    assert sol.termination is Termination.REACHED_RMAX
    u_ref, w_ref = rk4_trajectory(N, p, chi, problem, u0, r0, 1.0, 100_000)
    u_end = float(sol.u[-1])
    assert abs(u_end - u_ref) < 1e-6 * max(1.0, abs(u_ref)), (u_end, u_ref)
    assert abs(float(sol.w[-1]) - w_ref) < 1e-5 * max(1.0, abs(w_ref))


def test_energy_potential_overflows_to_infinity():
    # near p = 2 the scalar G overflows a double as g does: +-inf, no raise
    P = derive_params(1, 2.00001)
    for ode in (backward_ode(P), forward_ode(P), limit_ode(P)):
        assert ode.G(1.5) == math.inf == ode.g(1.5)
        assert ode.G(-1.5) == math.inf == -ode.g(-1.5)
    assert math.isfinite(backward_ode(P).G(0.999))


def test_dense_output_against_oracle():
    # dense samples between nodes must agree with a refined fixed-step run
    ode = _ode(1, 3.0, 1.0, "backward")
    sol = integrate(ode, 2.0, IntegratorOptions(r_max=0.6, stop_at_u_zero=False))
    r0 = float(sol.r[0])
    radii = np.linspace(0.05, 0.55, 41)
    u_d, w_d = sol.sample(radii)
    for r_t, u_t, w_t in zip(radii[::8], u_d[::8], w_d[::8]):
        u_ref, w_ref = rk4_trajectory(1, 3.0, 1.0, "backward", 2.0, r0,
                                      float(r_t), 60_000)
        assert abs(u_t - u_ref) < 1e-7 * max(1.0, abs(u_ref))
        assert abs(w_t - w_ref) < 1e-6 * max(1.0, abs(w_ref))


def test_dense_coefficients_match_matrix_loop():
    # the unrolled sums equal the loop over the published matrix bit for
    # bit, signed zeros and non-finite slopes included, and so do the
    # block sums integrate forms with numpy, row by row
    cases = [RNG.standard_normal(7) * 10.0 ** RNG.integers(-8, 8, 7)
             for _ in range(200)]
    cases += [[-0.0] * 7, [0.0] * 7, [-0.0, 1.0, -0.0, 0.0, -0.0, 0.0, -0.0],
              [math.inf, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
              [1.0, 2.0, math.nan, 0.0, 0.0, 0.0, -1.0],
              [-math.inf, 0.0, -0.0, math.inf, 1.0, -0.0, 0.0],
              [math.nan, 0.0, -0.0, -0.0, -0.0, -0.0, -0.0]]
    cases = [[float(k) for k in ks] for ks in cases]
    block = _dense_block(array("d", [k for ks in cases for k in ks[:1] + ks[2:]]))
    assert block.shape == (len(cases), 4)
    for ks, row in zip(cases, block.tolist()):
        want = dense_coefficients_loop(ks)
        got = _dense_coefficients(ks[0], *ks[2:])
        assert [v.hex() for v in got] == [v.hex() for v in want], ks
        assert [v.hex() for v in row] == [v.hex() for v in want], ks


def test_step_cap_raises(monkeypatch):
    # the oscillating N = 1 run to r = 1e3 takes thousands of attempts
    monkeypatch.setattr(radial_ode, "_MAX_STEPS", 100)
    with pytest.raises(IntegrationError, match=re.escape(
            "exceeded 100 steps at r = ")):
        integrate(backward_ode(derive_params(1, 3.0, 1.0)), 0.5)


def test_dense_blocks_over_a_run_ending_at_an_event(monkeypatch):
    # a run of more than two blocks, the last one partial, that ends at a
    # zero of u: the interpolants formed in blocks are the per-step sums
    # of _dense_coefficients, and the event state is the last step's
    # interpolant at the event radius
    ode = _ode(2, 3.0, 1.0, "backward")
    opts = IntegratorOptions(rel_tol=1e-13, abs_tol=1e-13)
    sol = integrate(ode, 3.0, opts)
    assert sol.termination is Termination.U_CROSSED_ZERO
    assert sol.n_steps > 2 * radial_ode._DENSE_BLOCK
    assert sol.n_steps % radial_ode._DENSE_BLOCK
    assert len(sol._q) == sol.n_steps

    def per_step(k):
        k = np.reshape(k, (-1, 6)).tolist()
        return np.array([_dense_coefficients(*row) for row in k]).reshape(-1, 4)

    monkeypatch.setattr(radial_ode, "_dense_block", per_step)
    ref = integrate(ode, 3.0, opts)
    for name in ("r", "u", "w", "_h", "_q"):
        assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), name
    assert sol.events == ref.events

    # every step's own interpolant at theta = 1 lands on the next node, to
    # rounding: no step's coefficients are lost or shifted at a block seam
    assert not np.isfinite(sol._e).any()       # u's interpolants throughout
    h = sol._h[:-1]
    for y, comp in ((sol.u, 0), (sol.w, 1)):
        end = y[:-2] + h * sol._q[:-1, comp].sum(axis=1)
        assert np.all(np.abs(end - y[1:-1]) <= 1e-14 * (np.abs(y[1:-1]) + 1.0))

    ev = sol.events[-1]
    assert ev.kind is EventKind.U_ZERO and ev.r == sol.r_end
    u_s, w_s = sol.sample(ev.r)
    # sample() finds the step's theta again from the rounded event radius:
    # a radius off by about eps r, and rounding in the step's own sums
    h, eps = sol._h[-1], sys.float_info.epsilon
    slope_u = abs(uprime_from_w(ode, ev.w))
    slope_w = abs((ode.params.N - 1.0) / ev.r * ev.w + ode.g(ev.u))
    assert abs(u_s - ev.u) <= 8.0 * eps * (abs(sol.u[-2]) + (h + ev.r) * slope_u)
    assert abs(w_s - ev.w) <= 8.0 * eps * (abs(sol.w[-2]) + (h + ev.r) * slope_w)


def test_solution_has_no_other_attribute_and_copies():
    # a name other than the views and energy is an AttributeError, as is the
    # __setstate__ that copy looks up on an instance with no fields set yet
    sol = integrate(_ode(1, 3.0, 1.0, "backward"), 0.85,
                    IntegratorOptions(r_max=5.0))
    assert getattr(sol, "missing", None) is None
    dup = copy.copy(sol)
    assert dup.events == sol.events and np.array_equal(dup.u, sol.u)


def test_dense_output_hits_nodes():
    ode = _ode(2, 2.5, 1.0, "backward")
    sol = integrate(ode, 1.5, IntegratorOptions(r_max=5.0, stop_at_u_zero=False))
    idx = [1, len(sol.r) // 2, len(sol.r) - 1]
    u_s, w_s = sol.sample(sol.r[idx])
    assert np.allclose(u_s, sol.u[idx], rtol=0, atol=1e-13)
    assert np.allclose(w_s, sol.w[idx], rtol=0, atol=1e-13)
    with pytest.raises(DomainError):
        sol.sample(sol.r[-1] * 1.5)


# ----------------------------------------------------------------- events

def test_zero_crossing_event():
    ode = _ode(1, 3.0, 1.0, "backward")
    sol = integrate(ode, 2.0, IntegratorOptions())
    assert sol.termination is Termination.U_CROSSED_ZERO
    zeros = sol.events_of(EventKind.U_ZERO)
    assert len(zeros) == 1
    ev = zeros[0]
    assert abs(ev.u) <= 1e-12
    assert ev.w < 0.0
    assert sol.r_end == ev.r
    # grid neighbours bracket the crossing to event tolerance
    i = np.searchsorted(sol.r, ev.r) - 1
    assert sol.u[i] > 0.0
    assert sol.u[-1] <= 1e-12


def test_events_bracketed_by_sign_changes():
    ode = _ode(1, 3.0, 1.0, "backward")
    sol = integrate(ode, 0.85, IntegratorOptions(r_max=30.0, stop_at_u_zero=False))
    ext = sol.events_of(EventKind.U_PRIME_ZERO)
    assert len(ext) >= 4  # bounded oscillation around the equilibrium
    for ev in ext:
        i = np.searchsorted(sol.r, ev.r)
        lo, hi = max(i - 1, 0), min(i + 1, len(sol.r) - 1)
        assert sol.w[lo] == 0.0 or sol.w[hi] == 0.0 or \
            (sol.w[lo] < 0.0) != (sol.w[hi] < 0.0)
        assert abs(ev.w) <= 1e-9


def test_stop_at_first_minimum():
    ode = _ode(1, 3.0, 1.0, "backward")
    sol = integrate(ode, 0.85, IntegratorOptions(stop_at_first_minimum=True))
    assert sol.termination is Termination.U_PRIME_VANISHED
    ev = sol.events[-1]
    assert ev.kind is EventKind.U_PRIME_ZERO
    assert ev.u > 0.0
    # minimum: the source is negative there (w' = -g > 0 turns w upward)
    assert ode.g(ev.u) < 0.0


@pytest.mark.parametrize("N,p,r_zero", [(2, 2.2, 4.134106794312641),
                                        (2, 4.0, 2.9363502517613824)])
def test_a_dip_below_zero_is_found_on_u_w_steps(N, p, r_zero):
    # without an equilibrium no step is taken in (E, w); just above a_c, u
    # passes zero and turns back within one (u, w) step, and the turn's
    # rule finds the zero before it, as it does on an (E, w) step
    P = derive_params(N, p)
    ode = replace(backward_ode(P), equilibrium_u=None)
    a = find_critical_a(P).a_c * (1.0 + 1e-9)
    opts = IntegratorOptions(r0=math.inf, stop_at_u_zero=False,
                             stop_at_first_minimum=True)
    sol = integrate(ode, a, opts)
    assert sol.stats.energy_steps == 0
    assert [(e.kind, e.r) for e in sol.events[:2]] == [
        (EventKind.U_ZERO, r_zero), (EventKind.U_PRIME_ZERO, sol.r_end)]
    assert sol.events[0].w < 0.0 and sol.events[1].u < 0.0
    sol = integrate(ode, a, replace(opts, stop_at_u_zero=True))
    assert sol.termination is Termination.U_CROSSED_ZERO
    assert sol.zeros() == [r_zero]


def test_equilibrium_hit_and_stop():
    # stop_at_first_minimum also stops at the forcing's equilibrium u*
    P = derive_params(1, 3.0, 1.0)
    ode = backward_ode(P)
    sol = integrate(ode, P.u_star, IntegratorOptions(stop_at_first_minimum=True))
    assert sol.termination is Termination.U_PRIME_VANISHED
    assert sol.events[0].kind is EventKind.EQUILIBRIUM_HIT
    # without it the constant solution runs on to r_max
    sol = integrate(ode, P.u_star, IntegratorOptions(r_max=1.0))
    assert sol.termination is Termination.REACHED_RMAX
    assert sol.events == []
    # in the step loop: from 1e-7 above u*, a step ends within 1e-8 of
    # (u*, 0) before u turns, and the run stops there
    P = derive_params(2, 3.0, 1.0)
    sol = integrate(backward_ode(P), P.u_star + 1e-7,
                    IntegratorOptions(stop_at_first_minimum=True))
    assert sol.termination is Termination.U_PRIME_VANISHED
    assert [(e.kind, e.r) for e in sol.events] == [
        (EventKind.EQUILIBRIUM_HIT, sol.r_end)]
    assert sol.n_steps == 14


def test_amplitude_samples_recorded():
    P = derive_params(1, 3.0, 1.0)
    ode = backward_ode(P)
    opts = IntegratorOptions(r_max=30.0, stop_at_u_zero=False)
    sol = integrate(ode, 0.9, opts)
    amps = sol.events_of(EventKind.U_PRIME_ZERO)
    assert len(amps) >= 4
    # the well is asymmetric, so amplitudes alternate between the two sides;
    # same-side amplitudes cannot grow (and stay flat for N = 1)
    devs = [abs(e.u - P.u_star) for e in amps]
    for a, b in zip(devs, devs[2:]):
        assert b <= a * (1.0 + 1e-6)
        assert b >= a * (1.0 - 1e-6)


@pytest.mark.parametrize("bad", [
    dict(rel_tol=0.0, abs_tol=0.0), dict(rel_tol=-1e-10, abs_tol=-1e-10),
    dict(rel_tol=math.nan), dict(abs_tol=math.inf), dict(abs_tol=math.nan),
    dict(r_max=math.nan), dict(r_max=math.inf), dict(h_max=0.0),
    dict(h_max=-1.0), dict(h_max=math.nan)])
def test_bad_integrator_settings_raise_domain_error(bad):
    with pytest.raises(DomainError):
        IntegratorOptions(**bad)
    with pytest.raises(DomainError):
        replace(IntegratorOptions(), **bad)


# ------------------------------------------------------------ terminations

def test_reached_rmax():
    ode = replace(_ode(2, 2.0, 1.0, "backward"), u_ceiling=1e9)
    sol = integrate(ode, 0.5, IntegratorOptions(
        r_max=10.0, stop_at_u_zero=False))
    assert sol.termination is Termination.REACHED_RMAX
    assert sol.r_end == 10.0


def test_diverged_on_ceiling():
    # forward problem with unbounded growth hits the ceiling
    ode = replace(_ode(3, 1.8, 1.0, "forward"), u_ceiling=1e4)
    sol = integrate(ode, 1.0, IntegratorOptions(
        r_max=1e4, stop_at_u_zero=False))
    assert sol.termination is Termination.DIVERGED
    assert abs(sol.u[-1]) >= 1e4


def test_singular_floor_ends_diverged():
    # fast backward with reachable u = 0: integration cannot falsify
    # positivity; the run leaves the problem's range at its floor
    ode = _ode(1, 1.2, 1.0, "backward")
    sol = integrate(ode, 1.0, IntegratorOptions(
        r_max=100.0, stop_at_u_zero=False))
    assert sol.termination is Termination.DIVERGED
    assert sol.u[-1] <= 1e-8
    assert sol.u[-1] > 0.0


@pytest.mark.parametrize("N,p,problem,u0", [
    (1, 1.2, "backward", 1e-9), (1, 1.2, "backward", 1e-8),
    (2, 3.0, "backward", 1e12), (2, 2.0, "forward", -1e12)])
def test_center_height_off_the_range_raises(N, p, problem, u0):
    with pytest.raises(DomainError):
        integrate(_ode(N, p, 1.0, problem), u0)


def _faulted(ode, fault_at, fault):
    """ode whose g misbehaves on call fault_at (from 1) alone: returns inf or
    raises."""
    calls = itertools.count(1)
    g = ode.g

    def g_faulty(u):
        if next(calls) == fault_at:
            if fault == "raise":
                raise OverflowError("injected")
            return math.inf
        return g(u)

    return replace(ode, g=g_faulty)


# g calls 1-2 are the startup (g(u0) for the origin series, k1); the first
# attempt evaluates stages k2..k7 at calls 3-8 and the defect midpoint at 9
@pytest.mark.parametrize("fault_at,fault,factor", [
    (3, "inf", 0.2), (8, "inf", 0.2), (3, "raise", 0.2), (8, "raise", 0.2),
    (9, "inf", 0.5), (9, "raise", 0.2)])
def test_overflow_rejects_step(fault_at, fault, factor):
    ode = _ode(2, 3.0, 1.0, "backward")
    opts = IntegratorOptions(r_max=0.5)
    clean = integrate(ode, 1.0, opts)
    assert clean.n_rejected == 0
    sol = integrate(_faulted(ode, fault_at, fault), 1.0, opts)
    # one rejection, counted as an overflow, then the first step is retried
    # with h cut by 5 (failed stage) or halved (non-finite defect)
    assert sol.n_rejected == sol.stats.rejected_overflow == 1
    assert sol._h[0] == factor * clean._h[0]
    assert sol.termination is Termination.REACHED_RMAX


def test_rejection_causes_sum_to_rejected():
    for N, p, chi, problem, u0 in ORACLE_CASES:
        sol = integrate(replace(_ode(N, p, chi, problem), u_ceiling=1e5), u0,
                        IntegratorOptions(r_max=20.0, stop_at_u_zero=False))
        st = sol.stats
        assert st.rejected_error + st.rejected_defect + st.rejected_overflow \
            == sol.n_rejected


def test_energy_step_counters():
    # steps in (E, w) and their Newton iterations are counted, never more
    # energy steps than steps, and none at all for p <= 2
    for N, p, chi, problem, u0 in ORACLE_CASES + [(2, 3.0, 1.0, "backward", 0.845)]:
        sol = integrate(replace(_ode(N, p, chi, problem), u_ceiling=1e5), u0,
                        IntegratorOptions(r_max=20.0, stop_at_u_zero=False))
        st = sol.stats
        assert st.rejected_error + st.rejected_defect + st.rejected_overflow \
            == sol.n_rejected
        assert 0 <= st.energy_steps <= sol.n_steps
        assert st.energy_steps == int(np.count_nonzero(np.isfinite(sol._e)))
        if p <= 2.0:
            assert st.energy_steps == st.newton_iterations \
                == st.flux_zero_retakes == 0
        elif problem == "backward":
            # an accepted (E, w) step solved for u at its six stages after
            # the first and at the defect midpoint, an iteration at least each
            assert st.newton_iterations >= 7 * st.energy_steps > 0


def test_sample_recovers_u_from_energy():
    # on (E, w) steps the stored interpolant is E's, and sample() solves
    # G(u) = E - K(w): it hits the nodes, and between them it is as close
    # to a tol-1e-13 run as the nodes are (measured: 4.7e-9 and 6.2e-9)
    P = derive_params(2, 3.0)
    sol = integrate(backward_ode(P), 0.845, IntegratorOptions(r_max=20.0))
    ref = integrate(backward_ode(P), 0.845, IntegratorOptions(
        r_max=20.0, rel_tol=1e-13, abs_tol=1e-13))
    i = np.nonzero(np.isfinite(sol._e))[0]
    assert len(i) > 100
    u_n, w_n = sol.sample(sol.r[i])
    assert np.max(np.abs(u_n - sol.u[i])) < 1e-13
    assert np.max(np.abs(w_n - sol.w[i])) < 1e-13
    node_err = np.max(np.abs(sol.u - ref.sample(sol.r)[0]))
    mid = 0.5 * (sol.r[i] + sol.r[i + 1])
    assert np.max(np.abs(sol.sample(mid)[0] - ref.sample(mid)[0])) < 2.0 * node_err


def test_grid_strictly_increasing():
    for N, p, chi, problem, u0 in ORACLE_CASES:
        ode = _ode(N, p, chi, problem)
        sol = integrate(ode, u0, IntegratorOptions(r_max=5.0, stop_at_u_zero=False))
        assert np.all(np.diff(sol.r) > 0.0)
        assert sol.r[0] > 0.0


# ---------------------------------------------------------------- energy

def test_energy_constant_in_one_dimension():
    ode = _ode(1, 3.0, 1.0, "backward")
    # bounded orbit followed over many periods
    sol = integrate(ode, 0.85, IntegratorOptions(r_max=30.0, stop_at_u_zero=False))
    chk = energy_derivative_check(sol)
    assert chk.max_drift <= 1e-6 * chk.scale
    # crossing trajectories up to their terminal zero
    for a in (1.5, 2.0):
        sol = integrate(ode, a, IntegratorOptions())
        chk = energy_derivative_check(sol)
        assert chk.max_drift <= 1e-6 * abs(chk.e0)


def test_energy_drift_stays_small_on_long_continuations():
    # past the zero the orbit keeps oscillating; drift accumulates with
    # step count but must stay a few digits above the per-step tolerance
    ode = _ode(1, 3.0, 1.0, "backward")
    sol = integrate(ode, 2.0, IntegratorOptions(r_max=30.0, stop_at_u_zero=False))
    chk = energy_derivative_check(sol, raise_on_violation=False)
    assert chk.max_drift <= 1e-5 * abs(chk.e0)


@pytest.mark.parametrize("N", [1, 2])
def test_energy_audit_passes_at_zero_energy_height(N):
    # default settings, r_max = 1e3: the audits that failed when every
    # step across a flux zero was taken in (u, w) (N = 2: increase 6.2e-9
    # against an allowed 2.8e-9; N = 1: drift 5.7e-6 against 1.9e-7)
    P = derive_params(N, 3.0)
    sol = integrate(backward_ode(P), zero_energy_height(P), IntegratorOptions())
    assert sol.termination is Termination.REACHED_RMAX
    assert energy_derivative_check(sol).passed


def test_energy_audit_matches_sampled_midpoints():
    # the audit's fields are the unfused numpy expressions' bit for bit;
    # the oracle's dissipation-integral defect, w at each step's midpoint
    # from that step's own interpolant, is sample()'s at the same radii
    P2 = derive_params(2, 3.0)
    P1 = derive_params(1, 3.0)
    short = IntegratorOptions(r_max=100.0)
    sols = {
        # the P trajectory: (E, w) steps, whose first interpolant is E's
        "P N2 p3": solve_backward(P2, 0.845, short),
        # an N height: the event at the zero of u cuts the last step short,
        # which keeps its full length in _h
        "N N2 p3": solve_backward(P2, 2.0),
        # its last step cut short by r_max
        "backward N2 p2": solve_backward(derive_params(2, 2.0), 1.5,
                                         IntegratorOptions(r_max=50.0)),
        "forward N2 p2": solve_forward(derive_params(2, 2.0), 0.0).sol,
        "forward N3 p1.8": solve_forward(derive_params(3, 1.8), 1.0).sol,
        "zero energy N1 p3": solve_backward(P1, zero_energy_height(P1), short),
    }
    assert sols["P N2 p3"].stats.energy_steps > 0
    cut = sols["N N2 p3"]
    assert cut.termination is Termination.U_CROSSED_ZERO
    assert cut.r[-1] - cut.r[-2] < cut._h[-1]
    assert sols["backward N2 p2"].r_end == 50.0
    for name, sol in sols.items():
        r_mid = sol.r[:-1] + 0.5 * np.diff(sol.r)
        n = len(sol.r) - 1
        assert np.array_equal(
            np.searchsorted(sol.r, r_mid, "right") - 1, np.arange(n)), name
        chk = energy_derivative_check(sol, raise_on_violation=False)
        ref = energy_audit_reference(sol)
        assert all(math.isfinite(x) for x in ref), name
        assert astuple(chk) == ref[:-1], name
        assert energy_audit_by_sample(sol) == ref, name
        assert np.array_equal(sol.energy, energy_reference(sol.ode, sol.u, sol.w))


@pytest.mark.parametrize("N,p,chi,problem", FORCING_CASES + [
    (2, 3.0, 1.0, "backward"), (1, 2.00001, 1.0, "forward")])
def test_energy_matches_unfused_reference(N, p, chi, problem):
    # in place on arrays, and on Python and numpy scalars, with the
    # reference's doubles and types; overflowing powers give inf
    ode = _ode(N, p, chi, problem)
    rng = np.random.default_rng(7)
    u = rng.uniform(0.05, 4.0, 400)
    if p >= 2.0:            # G is defined for u of either sign, and at 0
        u[::2] *= -1.0
        u[-1] = 0.0
    w = rng.uniform(-4.0, 4.0, 400)
    w[-1], w[-2] = 0.0, 1e300
    for uu, ww in ((u, w), (float(u[1]), float(w[1])),
                   (np.float64(u[2]), np.float64(w[2]))):
        pairs = [(ode.G_np(uu), potential_reference(ode, uu)),
                 (kinetic_energy(ode, ww), kinetic_energy_reference(ode, ww)),
                 (energy(ode, uu, ww), energy_reference(ode, uu, ww))]
        for got, want in pairs:
            assert type(got) is type(want)
            assert np.array_equal(got, want, equal_nan=True)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_energy_and_audit_memory_budget():
    # integrated untraced (tracemalloc slows the stepper many-fold); the
    # audit works in one buffer of the grid's length, the energy in two,
    # its result included, and the solution keeps its raw doubles and
    # slotted events: under 130 B per accepted step
    P = derive_params(2, 3.0)
    sol = solve_backward(P, 0.845, IntegratorOptions(r_max=50.0))
    n = len(sol.r)
    assert sol.n_steps == 2845
    assert _traced_peak(lambda: energy_derivative_check(sol)) <= 3 * 8 * n + 65536
    assert _traced_peak(lambda: energy(sol.ode, sol.u, sol.w)) <= 2 * 8 * n + 65536
    assert not hasattr(sol.events[0], "__dict__")
    kept = sum(a.nbytes for a in (sol.r, sol.u, sol.w, sol._h, sol._q,
                                  sol.energy, sol._e))
    kept += sys.getsizeof(sol.events) + sum(
        sys.getsizeof(e) + sum(sys.getsizeof(x) for x in (e.r, e.u, e.w))
        for e in sol.events)
    assert kept <= 130 * sol.n_steps


def test_trajectory_and_audit_memory_per_step():
    # the grid, step lengths and interpolants are raw doubles with no
    # copy at the end: about 150 B per accepted step at the stepper's
    # peak, and the audit adds one buffer of the grid's length to what the
    # trajectory holds (three buffers read about 26 B per node).  Unfused
    # energy and audit expressions read about 210 B; a grid of boxed floats
    # copied at the end, or an audit that gathers every step's
    # interpolant, about 325 B
    P = derive_params(2, 3.0)
    tracemalloc.start()
    try:
        sol = solve_backward(P, 0.845, IntegratorOptions(r_max=30.0))
        sol.energy     # formed on its first read: counted with the trajectory
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        energy_derivative_check(sol)
        audit_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.n_steps == 1677
    assert max(peak, audit_peak) <= 175 * sol.n_steps
    assert audit_peak - held <= 8 * len(sol.r) + 4096


def test_numpy_scalar_inputs_step_in_floats():
    # a numpy height or setting is taken as a float at entry: the same
    # run bit for bit, events of Python floats (numpy scalars doubled the
    # stepper's CPU); an h_max of 1e3 never binds below r_max = 50
    P = derive_params(2, 3.0)
    opts = IntegratorOptions(r_max=50.0)
    np_opts = IntegratorOptions(
        rel_tol=np.float64(1e-10), abs_tol=np.float64(1e-10),
        r_max=np.float64(50.0), r0=np.float64(1e-6), h_max=np.float64(1e3))
    ref = solve_backward(P, 0.845, opts)
    for sol in (solve_backward(P, np.float64(0.845), opts),
                solve_backward(P, 0.845, np_opts)):
        for f in ("r", "u", "w", "_h", "_q", "_e", "energy"):
            assert np.array_equal(getattr(sol, f), getattr(ref, f),
                                  equal_nan=True), f
        assert (sol.n_steps, sol.n_rejected, sol.stats, sol.termination) == (
            ref.n_steps, ref.n_rejected, ref.stats, ref.termination)
        assert sol.events == ref.events
        assert all(type(x) is float for e in sol.events for x in (e.r, e.u, e.w))


def test_numpy_scalar_settings_run_silent():
    # the steep N = 1 height whose tight run, given a numpy startup radius
    # and r_max (a reach read off a grid), warned "overflow encountered in
    # scalar multiply" where floats overflow to inf silently
    ode = backward_ode(derive_params(1, 2.00390625))
    reach = integrate(ode, 2.7477, IntegratorOptions(
        r0=math.inf, stop_at_first_minimum=True)).r[0]
    assert type(reach) is np.float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = integrate(ode, 2.7477, IntegratorOptions(
            rel_tol=1e-13, abs_tol=1e-13, r0=min(1e-9, 1e-3 * reach),
            r_max=reach))
    assert sol.termination is Termination.REACHED_RMAX


@pytest.mark.parametrize("problem,N,p,u0", [
    ("backward", 2, 3.0, 0.845), ("backward", 1, 3.0, 0.5),
    ("backward", 3, 1.8, 1.0), ("backward", 2, 2.0, 1.5),
    ("backward", 2, 2.02, 5.0), ("forward", 2, 2.0, 0.0),
    ("forward", 3, 1.8, 1.0), ("forward", 1, 2.05, 1e-3),
    ("forward", 2, 3.0, 1e3)])
def test_first_step_is_sized_from_the_state(problem, N, p, u0):
    # h0 = min(0.1 r0, 0.01 d0/d1), d0 and d1 the tolerance-scaled sizes
    # of the state and of its slope.  The rule 0.01/d1 dropped d0 and
    # started these runs at 1e-12 to 6e-5 r0, then grew h x10 per step
    sol = integrate(_ode(N, p, 1.0, problem), u0, IntegratorOptions(
        r_max=1.0, stop_at_u_zero=False))
    assert sol._h[0] >= 1e-3 * sol.r[0]


def test_p_trajectory_at_fifty_against_tight_reference():
    # Each accepted step commits a local error of at most its scale
    # tol (1 + |u|) ~ 2e-10 (err <= 0.25 in that scale), and the 2,846
    # steps to r = 50 sum to at most 5.2e-7 if none cancel.  The bound
    # doubles that for the growth of the oscillation's phase error.  The
    # tol-1e-13 reference carries a thousandth of it.
    P = derive_params(2, 3.0)
    ode = backward_ode(P)
    u50 = integrate(ode, 0.845, IntegratorOptions(r_max=50.0)).u[-1]
    ref = integrate(ode, 0.845, IntegratorOptions(
        r_max=50.0, rel_tol=1e-13, abs_tol=1e-13)).u[-1]
    assert abs(u50 - ref) < 1e-6


def test_energy_nonincreasing_higher_dimensions():
    for N, p, problem, u0 in [(2, 2.5, "backward", 1.5),
                              (3, 3.0, "backward", 2.0),
                              (2, 2.0, "backward", 1.5),
                              (3, 1.8, "forward", 1.0),
                              (2, 3.0, "forward", 1.0)]:
        ode = replace(_ode(N, p, 1.0, problem), u_ceiling=1e5)
        sol = integrate(ode, u0, IntegratorOptions(
            r_max=20.0, stop_at_u_zero=False))
        chk = energy_derivative_check(sol)
        assert chk.max_increase <= 1e-8 * chk.scale
        # the decrease matches the dissipation integral
        assert energy_audit_reference(sol).max_defect <= 1e-6 * chk.scale


def test_energy_verdict_matches_raising():
    for N, p, u0 in [(1, 3.0, 0.85), (2, 2.5, 1.5)]:
        sol = integrate(_ode(N, p, 1.0, "backward"), u0,
                        IntegratorOptions(r_max=20.0, stop_at_u_zero=False))
        chk = energy_derivative_check(sol)
        assert chk.passed
        # an energy that jumps by its scale at the last node breaks both
        # laws: the verdict says so, and only the raising mode raises
        bumped = sol.energy.copy()
        bumped[-1] += chk.scale
        bad = replace(sol)
        bad.energy = bumped
        assert not energy_derivative_check(bad, raise_on_violation=False).passed
        with pytest.raises(EnergyLawError):
            energy_derivative_check(bad)


def test_energy_dissipation_identity_random_points():
    # dE/dr = -B (N-1)/r |u'|^p checked pointwise by finite differences
    ode = _ode(3, 2.5, 1.0, "backward")
    sol = integrate(ode, 1.5, IntegratorOptions(r_max=15.0, stop_at_u_zero=False))
    rs = RNG.uniform(0.5, 14.0, size=12)
    eps = 1e-5
    for r in rs:
        up, _ = sol.sample(r + eps)
        um, _ = sol.sample(r - eps)
        u0, w0 = sol.sample(r)
        e_p = energy(ode, *sol.sample(r + eps))
        e_m = energy(ode, *sol.sample(r - eps))
        dE = (e_p - e_m) / (2 * eps)
        pred = -ode.B_eff * (ode.params.N - 1.0) / r \
            * (abs(w0) / ode.B_eff) ** (ode.params.p / (ode.params.p - 1.0))
        assert abs(dE - pred) < 1e-4 * max(1.0, abs(pred))


def test_constant_equilibrium_profile():
    P = derive_params(2, 2.5, 1.0)
    ode = backward_ode(P)
    sol = integrate(ode, P.u_star, IntegratorOptions(r_max=100.0))
    assert sol.termination is Termination.REACHED_RMAX
    assert np.max(np.abs(sol.u - P.u_star)) < 1e-12
    assert np.max(np.abs(sol.w)) < 1e-12
    e = sol.energy
    assert np.max(np.abs(e - e[0])) < 1e-14 * max(1.0, abs(e[0]))


# ------------------------------------------------------------- residuals

@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_local_residual_bound(tol):
    for N, p, chi, problem, u0 in ORACLE_CASES:
        ode = replace(_ode(N, p, chi, problem), u_ceiling=1e5)
        opts = IntegratorOptions(rel_tol=tol, abs_tol=tol, r_max=20.0,
                                 stop_at_u_zero=False)
        sol = integrate(ode, u0, opts)
        rep = local_residual_check(sol)
        assert rep.max_w < 10.0, (N, p, problem, rep)
        assert rep.max_u_regular < 10.0, (N, p, problem, rep)


def test_forward_slow_monotone_flux():
    # forward slow: g > 0 on u > 0, so w < 0 and u decreases while positive
    ode = _ode(2, 3.0, 1.0, "forward")
    sol = integrate(ode, 1.0, IntegratorOptions(r_max=30.0))
    assert sol.termination is Termination.U_CROSSED_ZERO
    inside = sol.u > 0.0
    assert np.all(sol.w[inside] < 0.0)
    assert np.all(np.diff(sol.u[inside]) < 0.0)

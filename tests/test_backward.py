"""Tests for the blow-up shooting layer: classification, a_c search."""

import dataclasses
import math
import re
import time
from array import array
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import plks.backward
from plks import (
    AmbiguousBracketError,
    BadBracketError,
    Classification,
    DomainError,
    EventKind,
    IntegratorOptions,
    ProfileClass,
    Termination,
    backward_ode,
    classify,
    derive_params,
    admissible_p_threshold,
    energy_derivative_check,
    find_critical_a,
    integrate,
    solve_backward,
    solve_forward,
    sweep_a,
    zero_energy_height,
)

from oracles import rescaled_limit_check

# Closed-form critical heights for N = 1, frozen from the conserved-energy
# identity G(a_c) = 0 with the exponents written out by hand:
#   p = 2.5: m = 3,  q = 9   ->  a_c = (10/3)^(1/9)
#   p = 3  : m = 4,  q = 8   ->  a_c = (9/(4 chi))^(1/8)
#   p = 4  : m = 6,  q = 9   ->  a_c = (10/6)^(1/9)
CLOSED_FORM_AC = {
    (2.5, 1.0): (10.0 / 3.0) ** (1.0 / 9.0),
    (3.0, 1.0): (9.0 / 4.0) ** (1.0 / 8.0),
    (4.0, 1.0): (10.0 / 6.0) ** (1.0 / 9.0),
    (3.0, 2.0): (9.0 / 8.0) ** (1.0 / 8.0),
}


# ---------------------------------------------------------------- solve


def test_solve_backward_rejects_nonpositive_height_for_p_not_2():
    P = derive_params(2, 3.0, 1.0)
    with pytest.raises(DomainError):
        solve_backward(P, 0.0)
    with pytest.raises(DomainError):
        solve_backward(P, -1.0)
    with pytest.raises(DomainError):
        solve_backward(P, float("nan"))


def test_solve_backward_accepts_negative_height_at_p_2():
    P = derive_params(2, 2.0, 1.0)
    sol = solve_backward(P, -0.5, IntegratorOptions(r_max=5.0))
    assert sol.r_end > 0.0


def test_solve_backward_p2_runs_through_zeros_of_u():
    # u = ln phi vanishes where phi = 1, inside the profile, so the run
    # must not end at the first such zero, r = 1.99
    P = derive_params(2, 2.0, 1.0)
    sol = solve_backward(P, 1.0)
    assert sol.termination is Termination.REACHED_RMAX
    assert sol.r_end == 1e3
    zeros = sol.zeros()
    assert 1.98 < zeros[0] < 1.99 and len(zeros) > 100
    # they stay the zeros of u, each a located sign change
    assert all(e.kind is EventKind.U_ZERO and abs(e.u) <= 1e-12
               for e in sol.events_of(EventKind.U_ZERO))
    assert np.all(np.abs(sol.sample(np.array(zeros))[0]) <= 1e-9)
    # the caller's settings other than the stop still hold
    short = solve_backward(P, 1.0, IntegratorOptions(r_max=5.0))
    assert short.termination is Termination.REACHED_RMAX
    assert short.r_end == 5.0 and short.zeros() == zeros[:len(short.zeros())]


def test_solve_backward_fast_regime_gets_singular_floor():
    # p < 2: the source blows up as u -> 0, so the run must stop at the
    # default floor instead of stalling
    P = derive_params(1, 1.5, 1.0)
    sol = solve_backward(P, 0.5, IntegratorOptions(r_max=50.0))
    assert sol.termination in (Termination.STEP_UNDERFLOW, Termination.REACHED_RMAX)
    assert np.all(sol.u > 0.0)


# ---------------------------------------------------------------- classify


def test_classify_requires_slow_regime():
    with pytest.raises(DomainError):
        classify(derive_params(2, 2.0, 1.0), 1.0)
    with pytest.raises(DomainError):
        classify(derive_params(1, 1.5, 1.0), 1.0)


def test_classify_requires_positive_height():
    P = derive_params(2, 3.0, 1.0)
    with pytest.raises(DomainError):
        classify(P, -1.0)


def test_classify_small_height_is_positive():
    # below the zero-energy height: P by the energy certificate, no run
    P = derive_params(2, 3.0, 1.0)
    c = classify(P, 0.5 * P.u_star)
    assert c.set is ProfileClass.P
    assert c.R_of_a is None and c.terminal_slope is None
    assert c.reason == "centre energy below G(0)"
    assert c.solution is None


def test_classify_large_height_vanishes_transversally():
    P = derive_params(2, 3.0, 1.0)
    c = classify(P, 4.0)
    assert c.set is ProfileClass.N
    assert c.R_of_a > 0.0
    assert c.terminal_slope < -1e-6


def test_positive_certificate_is_energy_descent():
    # a P verdict from an interior minimum means the energy has dropped
    # below the barrier level G(0) = 0, so no later zero is possible
    P = derive_params(2, 3.0, 1.0)
    c = classify(P, 1.2)
    assert c.set is ProfileClass.P
    assert c.reason == "interior minimum"
    assert c.solution.energy[-1] < 0.0
    # a run that reaches a scan radius short of its first turn, its energy
    # still above G(0), is P only as far as it ran, and says so
    c = classify(P, 1.2 * zero_energy_height(P), IntegratorOptions(r_max=1.0))
    assert c.set is ProfileClass.P
    assert c.reason == "positive over scan radius"
    assert np.min(c.solution.energy) >= 0.0


def test_one_dimensional_subcritical_heights_are_positive():
    # all three lie below a_c = h0, so the certificate labels them
    P = derive_params(1, 3.0, 1.0)
    for a in [0.3, 0.8, 1.05]:
        c = classify(P, a)
        assert c.set is ProfileClass.P, (a, c.label)
        assert c.reason == "centre energy below G(0)"


def test_trichotomy_on_sweep():
    P = derive_params(2, 3.0, 1.0)
    res = sweep_a(P, np.linspace(0.4, 3.4, 11))
    assert all(c.set in (ProfileClass.P, ProfileClass.N, ProfileClass.N0)
               for c in res.classifications)
    labels = res.labels
    # one P prefix then one N tail, no interleaving at this resolution
    first_n = labels.index("N")
    assert all(l == "P" for l in labels[:first_n])
    assert all(l == "N" for l in labels[first_n:])
    assert res.a_1 < res.a_2


def test_sweep_requires_increasing_grid():
    P = derive_params(2, 3.0, 1.0)
    with pytest.raises(DomainError):
        sweep_a(P, [1.0, 1.0, 2.0])


def test_sweep_checks_regime_and_heights_before_any_work(shot_heights):
    for P in (derive_params(2, 2.0, 0.5), derive_params(1, 1.5, 1.0)):
        with pytest.raises(DomainError, match="slow regime"):
            sweep_a(P, [])
    P = derive_params(2, 3.0, 1.0)
    for grid in ([0.0, 2.0], [-1.0, 2.0], [2.0, 3.0, float("nan")],
                 [2.0, float("inf")]):
        with pytest.raises(DomainError, match="lies outside"):
            sweep_a(P, grid)
    assert shot_heights == []


# Heights every entry refuses at p = 3 with its problem's one message, and
# before any shot: sweep_a's grid holds one of them after two heights it
# would shoot.  1e-8 is the floor of the backward p < 2 problem.
_ENTRIES = {
    "integrate": lambda P, a: integrate(backward_ode(P), a),
    "solve_backward": solve_backward,
    "solve_forward": solve_forward,
    "classify": classify,
    "sweep_a": lambda P, a: sweep_a(P, [2.0, 2.5, a]),
}


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e12])
def test_every_entry_refuses_a_bad_height_before_any_shot(entry, a, shot_heights):
    P = derive_params(2, 3.0, 1.0)
    kind = "forward-slow" if entry == "solve_forward" else "backward-slow"
    with pytest.raises(DomainError, match=re.escape(
            f"{kind}: initial height {a} lies outside (0, 1e+12)")):
        _ENTRIES[entry](P, a)
    assert shot_heights == []


@pytest.mark.parametrize("entry", ["integrate", "solve_backward"])
def test_fast_backward_entries_refuse_the_floor(entry, shot_heights):
    with pytest.raises(DomainError, match=re.escape(
            "backward-fast: initial height 1e-08 lies outside (1e-08, 1e+12)")):
        _ENTRIES[entry](derive_params(3, 1.8, 1.0), 1e-8)
    assert shot_heights == []


def test_each_call_sets_up_its_problem_once(monkeypatch, shot_heights):
    # one backward_ode and one zero_energy_height per classify, sweep_a
    # and find_critical_a call; the README's 16-height sweep made 23 and 16
    calls = Counter()
    for name in ("backward_ode", "zero_energy_height"):
        def counted(params, name=name, fn=getattr(plks.backward, name)):
            calls[name] += 1
            return fn(params)

        monkeypatch.setattr(plks.backward, name, counted)
    P = derive_params(3, 2.5, 1.0)
    for run in (lambda: classify(P, 2.0),
                lambda: sweep_a(P, np.geomspace(0.1, 8.0, 16)),
                lambda: find_critical_a(P)):
        calls.clear()
        shot_heights.clear()
        run()
        assert calls == {"backward_ode": 1, "zero_energy_height": 1}
        assert shot_heights


@pytest.mark.parametrize("a_tol", [math.nan, math.inf, -1.0])
def test_search_refuses_a_bad_a_tol_before_any_shot(a_tol, shot_heights):
    with pytest.raises(DomainError, match="a_tol must be finite and >= 0"):
        find_critical_a(derive_params(1, 3.0), a_tol=a_tol)
    assert shot_heights == []


def test_search_refuses_an_upper_end_out_of_range_before_any_shot(shot_heights):
    # the lower end a = 1 used to be shot first
    with pytest.raises(DomainError, match=re.escape(
            "backward-slow: initial height 10000000000000.0 lies outside (0, 1e+12)")):
        find_critical_a(derive_params(2, 3.0), (1.0, 1e13))
    assert shot_heights == []


# The energy certificate labels heights below the zero-energy height P with
# no run.  These heights, once shot by classify, are shot here: each run must
# stay positive with its energy below G(0) = 0, and end at an interior
# minimum or an equilibrium capture (or, where turned is False, at r_max).
def _shot_positive(P, a, turned=True):
    sol = integrate(backward_ode(P), a, IntegratorOptions(stop_at_first_minimum=True))
    ends = (Termination.U_PRIME_VANISHED,) + (() if turned else (Termination.REACHED_RMAX,))
    assert sol.termination in ends, (a, sol.termination)
    assert np.min(sol.u) > 0.0 and all(
        e.u > 0.0 for e in sol.events_of(EventKind.U_PRIME_ZERO)), a
    assert np.max(sol.energy) < 0.0, a
    return sol


# (N, p, a_c) of the six sweeps of bench/workloads.py's critical_map at seed
# 1; each sweeps geomspace(0.1 a_c, 3 a_c, 64), 218 heights below h0
SEED1_SWEEPS = [
    (1, 2.667127119361658, 1.1314765272517198),
    (1, 3.618069125057861, 1.072473015656211),
    (2, 2.65047931971853, 1.8138078279713539),
    (2, 3.665754211374827, 1.5272106967756582),
    (3, 2.746970429302808, 2.974671385014993),
    (3, 3.5882672013835775, 2.2587803374525195)]


def test_certified_heights_shoot_to_a_positive_minimum():
    cases = [(derive_params(3, 2.5, 1.0), np.geomspace(0.1, 8.0, 16)),
             (derive_params(3, 2.1, 1.0), np.geomspace(0.1, 50.0, 12)),
             (derive_params(1, 3.0, 1.0), [0.3, 0.8, 1.05])]
    P = derive_params(2, 3.0, 1.0)
    cases.append((P, [0.5 * P.u_star]))
    cases += [(derive_params(N, p), np.geomspace(0.1 * a_c, 3.0 * a_c, 64))
              for N, p, a_c in SEED1_SWEEPS]
    n = 0
    for P, grid in cases:
        for a in (float(a) for a in grid if a < zero_energy_height(P)):
            assert classify(P, a).reason == "centre energy below G(0)"
            _shot_positive(P, a)
            n += 1
    assert n == 10 + 5 + 3 + 1 + 218


@st.composite
def _below_zero_energy(draw):
    N = draw(st.integers(1, 4))
    p = draw(st.floats(max(2.0, admissible_p_threshold(N)), 4.5, exclude_min=True))
    P = derive_params(N, p, draw(st.floats(0.25, 4.0)))
    return P, draw(st.floats(0.01, 1.0 - 1e-9)) * zero_energy_height(P)


# Near p = 2 the first turn lies beyond the default r_max = 1e3 (N = 1,
# a = h0/2: r = 894 at p = 2 + 1e-5, 28,284 at p = 2 + 1e-8), so a shot
# there may end at r_max, still positive with negative energy: the label
# classify's run gave such heights ("negative energy").
@settings(max_examples=200, deadline=None)
@given(_below_zero_energy())
@example(case=(derive_params(1, 2.0 + 4e-16), 0.5))
@example(case=(derive_params(4, 4.5, 4.0), (1.0 - 1e-9) * zero_energy_height(
    derive_params(4, 4.5, 4.0))))
def test_certificate_agrees_with_shooting(case):
    P, a = case
    assert classify(P, a).reason == "centre energy below G(0)"
    sol = _shot_positive(P, a, turned=False)
    if sol.termination is Termination.REACHED_RMAX:
        assert P.p < 2.001, (P, a)


def test_sweep_shoots_exactly_the_heights_from_h0(shot_heights):
    P = derive_params(2, 3.0, 1.0)
    h0 = zero_energy_height(P)
    grid = np.geomspace(0.3, 3.0, 12)
    res = sweep_a(P, grid)
    shot = [a for a in grid if a >= (1.0 - 1e-12) * h0]
    # a height after a P label is shot loose first; it is shot again, at
    # the sweep's tolerance, only where that run is not trusted
    cls = res.classifications
    twice = [c.a for prev, c in zip(cls, cls[1:]) if prev.label == "P"
             and c.solution is not None and c.solution.opts.rel_tol == 1e-10]
    assert shot_heights == sorted(shot + twice)
    assert len(twice) == 1 and 0 < len(shot) < len(grid)
    assert [c.solution is None for c in res.classifications] == [
        a < (1.0 - 1e-12) * h0 for a in grid]


# the README sweep and the six seed-1 critical_map sweeps
@pytest.mark.parametrize("N,p,grid", [(3, 2.5, np.geomspace(0.1, 8.0, 16))] + [
    (N, p, np.geomspace(0.1 * a_c, 3.0 * a_c, 64)) for N, p, a_c in SEED1_SWEEPS])
def test_sweep_rows_are_classify_rows(N, p, grid):
    # every row is classify's at the sweep's tolerance, bit for bit; a P
    # row from a loose run stopped at an interior minimum beyond its margin
    P = derive_params(N, p)
    n_loose = 0
    for c in sweep_a(P, grid).classifications:
        ref = classify(P, c.a)
        assert (c.label, c.reason, c.R_of_a, c.terminal_slope) == (
            ref.label, ref.reason, ref.R_of_a, ref.terminal_slope)
        o = c.solution.opts if c.solution is not None else None
        if o is not None and o.rel_tol == 1e-6:
            assert c.label == "P" and c.reason == "interior minimum"
            assert c.solution.u[-1] > 100.0 * (o.abs_tol + o.rel_tol * c.a)
            n_loose += 1
        else:
            assert o is None or o.rel_tol == 1e-10
    # at N = 1 every P height lies below h0 = a_c and is certified unshot
    assert (n_loose > 0) == (N > 1)


def test_heights_in_the_margin_are_shot(shot_heights):
    P = derive_params(2, 3.0, 1.0)
    a = zero_energy_height(P) * (1.0 - 1e-13)
    assert classify(P, a).reason == "interior minimum"
    P1 = derive_params(1, 3.0, 1.0)
    h0 = zero_energy_height(P1)     # a_c itself at N = 1
    assert classify(P1, h0).solution is not None
    assert shot_heights == [a, h0]


# ---------------------------------------------------------------- heights


def test_zero_energy_height_kills_potential():
    for (N, p, chi) in [(1, 3.0, 1.0), (2, 2.5, 0.7), (3, 4.0, 2.0)]:
        P = derive_params(N, p, chi)
        h = zero_energy_height(P)
        G = chi / (P.q + 1.0) * h ** (P.q + 1.0) - h / P.m
        assert abs(G) < 1e-12 * h / P.m


def test_zero_energy_height_fast_infinite_barrier():
    # q <= -1: the potential diverges at u = 0, no crossing height exists
    P = derive_params(1, 1.5, 1.0)
    assert P.q == -1.0
    with pytest.raises(DomainError):
        zero_energy_height(P)


# ---------------------------------------------------------- critical height


@pytest.mark.parametrize("p,chi", [(2.5, 1.0), (3.0, 1.0), (4.0, 1.0), (3.0, 2.0)])
def test_closed_form_recovery_one_dimension(p, chi):
    P = derive_params(1, p, chi)
    res = find_critical_a(P)
    exact = CLOSED_FORM_AC[(p, chi)]
    assert abs(res.a_c - exact) / exact < 1e-6
    assert res.bracket_width < 1e-9 * res.a_c
    assert res.R_c > 0.0


@pytest.mark.parametrize("N,p", [(1, 3.0), (2, 3.0), (3, 2.5)])
def test_critical_height_scales_with_chi(N, p):
    # chi enters only through the source term, and u(r) = lam v(mu r) with
    # lam = chi^(-1/q) maps the chi problem onto chi = 1, so
    # a_c(chi) = chi^(-1/q) a_c(1) exactly.  The a_c error tracks the
    # integrator tolerance, not the bracket (a_tol = 1e-10 sits below it):
    # it measured 1e-9 to 1.5e-9 at rel_tol 1e-10 when every step was taken
    # in (u, w), and about 1e-11 with the energy variable.  The bound is
    # 10x the default rel_tol, so the oracle holds with room at the old
    # stepper's error.
    bound = 10.0 * IntegratorOptions().rel_tol
    ref = find_critical_a(derive_params(N, p))
    for chi in (0.5, 2.0):
        P = derive_params(N, p, chi)
        res = find_critical_a(P)
        assert abs(res.a_c * chi ** (1.0 / P.q) / ref.a_c - 1.0) <= bound
        # a_c is the end nearer the root, of either label, so the labels
        # of a_c need not agree; the straddle must
        assert res.lower.set is ProfileClass.P
        assert res.upper.set in (ProfileClass.N, ProfileClass.N0)


@pytest.mark.parametrize("p", [2.003, 2.05, 2.081])
def test_bisection_survives_overflowing_error_norm(p):
    # near p = 2 at N = 1 the embedded error ratio of a trial step can pass
    # 1e154, whose square overflows; such a step is rejected, not fatal
    P = derive_params(1, p, 1.0)
    exact = ((P.q + 1.0) / (P.m * P.chi)) ** (1.0 / P.q)
    assert abs(find_critical_a(P).a_c - exact) / exact < 1e-6


def test_default_bracket_stays_below_source_overflow():
    # q ~ 2004: u0^q overflows above a ~ 1.42, while the old default upper
    # end 2 max(lo, u*) ~ 2.005 made startup_state raise DomainError
    P = derive_params(1, 2.001, 1.0)
    exact = ((P.q + 1.0) / (P.m * P.chi)) ** (1.0 / P.q)
    res = find_critical_a(P)
    assert abs(res.a_c - exact) / exact < 1e-6
    assert math.isfinite(P.chi * res.upper.a ** P.q)


def test_default_bracket_all_positive_up_to_cap():
    # admissible, but so near p = 2 that a_c lies above the overflow cap:
    # every doubling is P up to the cap, which ends the search with
    # BadBracketError (an inadmissible p is refused before any shot)
    P = derive_params(2, 2.0001, 1.0)
    with pytest.raises(BadBracketError, match="source term nears overflow"):
        find_critical_a(P)


def test_critical_bracket_straddles():
    P = derive_params(2, 3.0, 1.0)
    res = find_critical_a(P)
    lo = classify(P, res.a_c - res.bracket_width)
    hi = classify(P, res.a_c + res.bracket_width)
    assert lo.set is ProfileClass.P
    assert hi.set is ProfileClass.N
    # the result carries the final bracket's endpoint classifications; the
    # upper one is N0: the loose probes' minima steer Brent's steps onto the
    # touch height 1.6892931796802, an upper end as an N height is
    assert res.lower.set is ProfileClass.P
    assert res.upper.set in (ProfileClass.N, ProfileClass.N0)
    assert res.upper.a - res.lower.a == res.bracket_width
    # a_c is the end with the smaller |u_min|, Brent's best iterate
    assert res.lower.a < res.upper.a
    assert res.a_c in (res.lower.a, res.upper.a)


def test_critical_result_profile_is_near_critical():
    P = derive_params(2, 3.0, 1.0)
    res = find_critical_a(P)
    assert res.classification.solution.r_end > 1.0
    assert res.classification.a == pytest.approx(res.a_c)
    # the default lower endpoint (zero-energy height) sits below a_c
    assert zero_energy_height(P) < res.a_c


def test_find_critical_a_explicit_bracket():
    P = derive_params(1, 3.0, 1.0)
    exact = CLOSED_FORM_AC[(3.0, 1.0)]
    res = find_critical_a(P, bracket=(0.9 * exact, 1.3 * exact))
    assert abs(res.a_c - exact) / exact < 1e-6


def test_find_critical_a_bad_brackets():
    P = derive_params(2, 3.0, 1.0)
    with pytest.raises(BadBracketError):
        find_critical_a(P, bracket=(3.0, 6.0))    # both sides vanish
    with pytest.raises(BadBracketError):
        find_critical_a(P, bracket=(0.3, 0.6))    # both sides positive
    with pytest.raises(BadBracketError):
        find_critical_a(P, bracket=(-1.0, 2.0))


def test_find_critical_a_inconclusive_probe_is_ambiguous(inconclusive_third_label):
    with pytest.raises(AmbiguousBracketError) as exc:
        find_critical_a(derive_params(1, 3.0))
    a = inconclusive_third_label[2]
    assert str(exc.value) == (f"inconclusive classification at a = {a:g}: "
                              "terminated by step-underflow")
    # a loose Inconclusive is shot again at the search's tolerance
    assert inconclusive_third_label[2:] == [a, a]


def test_find_critical_a_rejects_fast_and_linear():
    with pytest.raises(DomainError):
        find_critical_a(derive_params(2, 2.0, 0.5))
    with pytest.raises(DomainError):
        find_critical_a(derive_params(1, 1.5, 1.0))
    # slow but below the admissibility threshold (2.1514 for N = 3): every
    # height stays positive, so the search refuses before its first shot
    t0 = time.process_time()
    with pytest.raises(DomainError, match="admissible slow exponent"):
        find_critical_a(derive_params(3, 2.1))
    assert time.process_time() - t0 < 0.1


def test_tangential_exit_is_a_touch():
    # at tight tolerances the a_tol = 0 search ends with a tangential zero
    # above a_c: a touch, where u lies within 1e-12 of zero at a turn of
    # the same radius, recorded with slope 0 exactly
    for (N, p) in [(1, 2.5), (2, 3.0)]:
        P = derive_params(N, p, 1.0)
        res = find_critical_a(P, opts=IntegratorOptions(rel_tol=1e-12,
                                                        abs_tol=1e-12), a_tol=0.0)
        c = res.upper
        assert c.set is ProfileClass.N0 and c.terminal_slope == 0.0
        zero = c.solution.events_of(EventKind.U_ZERO)[0]
        turn = c.solution.events_of(EventKind.U_PRIME_ZERO)[-1]
        assert zero.r == turn.r == c.R_of_a and abs(zero.u) <= 1e-12
        assert zero.w == 0.0


# The a_tol = 0 searches' upper ends at (N, p) = (1, 4), (2, 5) and (2, 3):
# each stops at a touch, u = -6.7e-16, -2.4e-16 and -1.7e-17.  A slope
# band of 1e-6 labelled the first two N, with slopes -1.1e-5 and +4.4e-4:
# the flux map (|w|/B)^(1/(p-1)) lifts a located w of 1e-15 to 1e-13 above
# the band once p exceeds about 3.2.
_TOUCHES = [(1, 4.0, 1.0584000728412677), (2, 5.0, 1.3660530502910013),
            (2, 3.0, 1.689293179680241)]


@pytest.mark.parametrize("N,p,a", _TOUCHES)
def test_touch_is_n0_whatever_p(N, p, a):
    P = derive_params(N, p)
    c = classify(P, a)
    assert c.set is ProfileClass.N0 and c.terminal_slope == 0.0
    assert c.R_of_a == c.solution.r_end and abs(c.solution.u[-1]) <= 1e-12
    res = find_critical_a(P, a_tol=0.0)
    assert res.upper.a == a
    assert res.upper.set is ProfileClass.N0 and res.upper.terminal_slope == 0.0
    assert res.upper.R_of_a == c.R_of_a


@pytest.mark.parametrize("N,p,a", _TOUCHES)
def test_n0_end_is_an_upper_end(N, p, a, shot_heights):
    # a touch given as the upper end enters Brent's loop with its signed
    # minimum, below 1e-15 in size, as its value: one tolerance step below
    # it is P, and a_c is the touch height itself, straddled by a P end and
    # the N0 end.  As the lower end it certifies no P side.
    P = derive_params(N, p)
    res = find_critical_a(P, bracket=(0.9 * a, a))
    assert res.a_c == a and res.classification is res.upper
    assert res.upper.set is ProfileClass.N0
    assert res.lower.set is ProfileClass.P and res.lower.a < a
    assert 0.0 < res.bracket_width <= 1e-10 * res.a_c
    # the loose touch lies within its margin, so it is shot again
    assert [t.step for t in res.trace] == ["end", "end", "reshot", "tol"]
    assert [t.tol for t in res.trace] == [1e-6, 1e-6, 1e-10, 1e-10]
    turns = res.lower.solution.events_of(EventKind.U_PRIME_ZERO)
    assert res.R_c == turns[-1].r
    shot_heights.clear()
    with pytest.raises(BadBracketError, match=r"lower endpoint .* classifies "
                       r"N0 \(tangential zero at r = .*\), need P"):
        find_critical_a(P, bracket=(a, 2.0 * a))
    assert shot_heights == [a, a]


def _probe(P, a):
    """The search's probe of a, which runs on past a zero to its first minimum."""
    ode, opts = plks.backward._shots(P, None, past_zero=True)
    return plks.backward._label(ode, a, opts)


def test_touch_is_a_zero_in_both_shots():
    # the first minimum sits at u = -9.7e-13, within the event tolerance
    # 1e-12 of zero: a touch, which both classify and the search's probe,
    # which runs on to its first minimum of either sign, label N0.  The
    # probe's turn and zero share a radius, and the zero is recorded
    # first; taken the other way round, the probe stopped at the turn with
    # no zero, labelled P
    P = derive_params(2, 3.0, 1.0)
    a = 1.6892931796807709
    c = classify(P, a)
    assert c.set is ProfileClass.N0
    assert c.R_of_a == c.solution.r_end
    probe = _probe(P, a)
    assert probe.set is ProfileClass.N0 and probe.R_of_a == c.R_of_a
    turn = probe.solution.events_of(EventKind.U_PRIME_ZERO)[-1]
    assert turn.r == c.R_of_a == probe.solution.r_end
    assert -1e-11 < turn.u <= 0.0
    assert plks.backward.Probe.of(probe, "end").gap == turn.u


def test_shots_skip_the_origin_layer():
    # Shots start at the origin series' reach instead of stepping through
    # the layer where u - a ~ r^(p/(p-1)), which held 36 % of a seed-1
    # critical_map pass's steps.  With the two-term startup at r0 = 1e-6
    # the README searches took 1,705 (N = 2, p = 3) and 2,500 (N = 3,
    # p = 2.5) accepted steps over their traces, and the README sweep
    # 1,184; each is pinned at 65 % of that, and the sweep's labels stay
    for (N, p), before in (((2, 3.0), 1705), ((3, 2.5), 2500)):
        res = find_critical_a(derive_params(N, p))
        assert sum(t.n_steps for t in res.trace) <= 0.65 * before
        assert all(0.0 < t.r_start < t.r_end for t in res.trace)
        at_a_c = [t for t in res.trace if t.a == res.a_c]
        assert [t.r_start for t in at_a_c] == [res.classification.solution.r[0]]
    sw = sweep_a(derive_params(3, 2.5), np.geomspace(0.1, 8.0, 16))
    assert sum(c.solution.n_steps for c in sw.classifications
               if c.solution is not None) <= 0.65 * 1184
    assert sw.labels == ["P"] * 13 + ["N"] * 3


def test_critical_radius_at_the_edge_point_against_tight_reference():
    # R_c at critical_map's fixed N = 2 edge point, against a search at
    # rel_tol = abs_tol = a_tol = 1e-13: the default search must keep the
    # step controller's choices out of R_c (it reads 1.9e-11 off)
    res = find_critical_a(derive_params(2, 2.02))
    ref = 3.983884311053573
    assert abs(res.R_c - ref) <= 1e-9 * ref


def _counted(t, tol=1e-10):
    """Whether the search used trace entry t (rel_tol = abs_tol = tol): a
    loose shot counts only beyond its margin, at a turn or a crossing."""
    return t.tol == tol or (
        t.reason in ("interior minimum", "transversal zero")
        and abs(t.gap) > 100.0 * t.tol * (1.0 + t.a))


@pytest.mark.parametrize("N,p", [(1, 3.0), (2, 3.0), (3, 2.17)])
def test_critical_trace_is_every_integration_in_order(N, p, shot_heights):
    res = find_critical_a(derive_params(N, p, 1.0))
    trace = res.trace
    assert [t.a for t in trace] == shot_heights
    reshots = [t for t in trace if t.step == "reshot"]
    assert len(trace) == res.n_iterations + 2 + len(reshots)
    # a height is shot again only at the search's tolerance, after a loose
    # shot: within its margin at once, or as a final bracket end
    for a in set(shot_heights):
        tols = [t.tol for t in trace if t.a == a]
        assert len(tols) == 1 or (len(tols) == 2 and tols[0] > tols[1] == 1e-10)
    assert all(t.tol == 1e-10 for t in reshots)
    # ends and doublings are shot at 1e-6, interior probes at 1e-6 or
    # 1e-10 and nothing in between: loose only while the best bracket
    # end's |u_min| exceeds 10 of the probe's margins at 1e-6
    assert all(t.tol == 1e-6 for t in trace if t.step in ("end", "double"))
    assert all(t.tol in {1e-10, 1e-6} for t in trace)
    gaps, switches = {}, set()
    for t, after in zip(trace, trace[1:] + (None,)):
        if t.step == "reshot":
            continue
        if t.step not in ("end", "double"):
            far = min(map(abs, gaps.values())) > 10.0 * 100.0 * 1e-6 * (1.0 + t.a)
            assert (t.tol == 1e-6) == far, t
            switches.add(far)
        used = after if after and (after.a, after.step) == (t.a, "reshot") else t
        gaps[used.label == "P"] = used.gap
    assert switches == {True, False}
    # the lower end lies below h0, yet is shot, not certified
    assert trace[0].a == 0.999 * zero_energy_height(res.lower.solution.ode.params)
    assert trace[0].reason == "interior minimum"
    # every probe the search used stops at its first minimum, whose sign
    # is its label's
    used = [t for t in trace if _counted(t)]
    for t in used:
        assert (t.gap > 0.0) if t.label == "P" else (t.gap < 0.0)
    # the final bracket ends are the last P and the last N (or N0) probe,
    # each last shot at the search's tolerance
    assert [t.a for t in used if t.label == "P"][-1] == res.lower.a
    assert [t.a for t in used if t.label != "P"][-1] == res.upper.a
    ends = [[t for t in trace if t.a == c.a][-1] for c in (res.lower, res.upper)]
    assert [t.tol for t in ends] == [1e-10, 1e-10]
    # a_c is the end with the smaller |u_min|, and its probe is the result's
    best = min(ends, key=lambda t: abs(t.gap))
    assert best.a == res.a_c and best.label == res.classification.label
    sol = res.classification.solution
    assert (best.n_steps, best.n_rejected, best.r_end) == (
        sol.n_steps, sol.n_rejected, sol.r_end)
    # each entry names the rule that chose its height
    steps = Counter(t.step for t in trace)
    assert sum(steps[s] for s in ("end", "double", "secant", "quadratic",
                                  "mid", "tol", "reshot")) == len(trace)
    assert [t.step for t in trace[:2]] == ["end", "end"]


def test_n0_probe_is_an_upper_end_not_classified_again():
    # N = 3, p = 2.17: the search hits a tangential height, which is an N0
    # upper end like any N; it is a_c, nearer the root than the P end, and
    # is not shot again
    res = find_critical_a(derive_params(3, 2.17, 1.0))
    assert res.upper.set is ProfileClass.N0
    assert res.classification is res.upper and res.a_c == res.upper.a
    assert res.lower.a < res.a_c
    assert [t.a for t in res.trace if t.tol == 1e-10].count(res.a_c) == 1


# Searches at (N, p) = (1, 3), (2, 3) and (3, 2.5), with the energy-gap
# secant and its midpoint shot at a_c, took 8, 12 and 12 integrations and
# 530, 975 and 1,535 accepted steps.  Each N probe now runs on past its
# zero to its first minimum, which costs more steps per N probe: at N = 1
# the upper end's 68 steps to its zero become 168 to its minimum.  Shot
# at 1e-10 throughout, the searches took 7, 9 and 9 integrations and 564,
# 816 and 1,205 accepted steps.  Under the tolerance ladder 4 of each
# search's shots are at 1e-10; the other 6, 7 and 7, loose, are cheap, so
# the searches take 407, 470 and 734 accepted steps in 10, 11 and 11 shots.
@pytest.mark.parametrize("N,p,full_shots,steps", [
    (1, 3.0, 4, 407), (2, 3.0, 4, 470), (3, 2.5, 4, 734)])
def test_critical_search_work_is_pinned(N, p, full_shots, steps, shot_heights):
    res = find_critical_a(derive_params(N, p))
    assert sum(t.tol == 1e-10 for t in res.trace) <= full_shots
    assert len(shot_heights) <= full_shots + 7
    assert sum(t.n_steps for t in res.trace) <= steps


# Before the overshoot step these searches took 39, 39, 39, 40, 12 and 41
# integrations: one-sided secant steps spent the probe budget's slack, and
# the search then bisected to the end from the stale end.  The last is the
# critical_map edge point.
@pytest.mark.parametrize("N,p,chi,most", [
    (2, 2.6059, 1.0, 16), (2, 2.425, 1.0, 16), (3, 3.9191, 1.0, 16),
    (3, 2.3014, 1.9, 16), (2, 2.02, 1.0, 16), (3, 2.1714, 1.0, 20)])
def test_critical_search_keeps_its_slack(N, p, chi, most, shot_heights):
    res = find_critical_a(derive_params(N, p, chi))
    assert len(shot_heights) == len(res.trace) <= most
    assert res.bracket_width <= 1e-10 * res.a_c


def test_critical_radius_from_the_final_p_end():
    # the zero of an N height near a_c moves like (a - a_c)^((p-1)/p); the
    # final P end's turn moves linearly.  The reference is a search at
    # rel_tol = abs_tol = a_tol = 1e-13 (its N0 touch radius); the zero of
    # the final N end read 4.1341939736 here, 3.3e-6 off
    res = find_critical_a(derive_params(2, 2.2, 1.0))
    turns = res.lower.solution.events_of(EventKind.U_PRIME_ZERO)
    assert res.R_c == turns[-1].r
    assert abs(res.R_c / 4.134207587862961 - 1.0) < 1e-9
    # a scan radius inside the profile: no P height turns before it, so
    # no P label certifies a lower end and the search stops; it used to
    # report a_c = 2.4065 (1.6893 at the default r_max)
    with pytest.raises(BadBracketError, match="interior minimum by r_max = 2"):
        find_critical_a(derive_params(2, 3.0, 1.0),
                        opts=IntegratorOptions(r_max=2.0))


def _bisection_rounds(res, a_tol=1e-10):
    """Probes bisection needs for the search's initial bracket, at most, and
    the probes the search made; the bracket ends after the doublings are
    the first N in the trace and the entry before it."""
    k = next(i for i, t in enumerate(res.trace) if t.label == "N")
    lo, hi = res.trace[k - 1].a, res.trace[k].a
    rounds = math.ceil(math.log2((hi - lo) / (a_tol * lo)))
    return rounds, res.n_iterations - (k - 1) - 1


def test_secant_beats_bisection_by_far():
    P = derive_params(2, 3.0, 1.0)
    rounds, probes = _bisection_rounds(find_critical_a(P))
    assert rounds == 34
    assert probes <= 16


def test_final_end_whose_label_changes_at_full_tolerance_is_ambiguous(
        monkeypatch):
    # a_tol = 1e-2 stops the (2, 3) search on two ends shot loose, each
    # shot again at the search's tolerance, the N end last; made P there,
    # it raises
    P = derive_params(2, 3.0)
    *_, loose, _, last = find_critical_a(P, a_tol=1e-2).trace
    assert (loose.a, loose.label, last.step, last.tol) == (
        last.a, "N", "reshot", 1e-10)
    assert loose.tol == 1e-6
    label = plks.backward._label

    def flipped(ode, a, opts):
        c = label(ode, a, opts)
        if a == last.a and opts.rel_tol == 1e-10:
            return dataclasses.replace(c, set=ProfileClass.P)
        return c

    monkeypatch.setattr(plks.backward, "_label", flipped)
    with pytest.raises(AmbiguousBracketError) as exc:
        find_critical_a(P, a_tol=1e-2)
    assert str(exc.value) == (f"a = {last.a:g} classifies N at tolerance "
                              f"{loose.tol:g} but P at 1e-10")
    assert exc.value.exit_code == 3


def test_final_ends_whose_minima_reorder_at_full_tolerance_move_a_c(
        monkeypatch):
    # a_tol = 0.3 stops the (1, 3) search on two ends shot loose, the lower
    # the one with the smaller |u_min|, which is a_c; each is shot again at
    # the search's tolerance (reach 0), the lower first.  Made a million
    # times deeper there, the lower end's minimum passes the upper's, and
    # a_c moves to the upper end
    P = derive_params(1, 3.0)
    res = find_critical_a(P, a_tol=0.3)
    *_, lower, upper = res.trace
    assert (lower.step, lower.a, upper.step, upper.a) == (
        "reshot", res.lower.a, "reshot", res.upper.a)
    assert res.a_c == res.lower.a and abs(lower.gap) < abs(upper.gap)
    shoot = plks.backward._shoot

    def deepened(ode, a, opts, reach):
        runs = shoot(ode, a, opts, reach)
        if reach == 0.0 and a == res.lower.a:
            sol = runs[-1].solution
            us = array("d", sol._us)
            us[-1] *= 1e6
            runs = runs[:-1] + (dataclasses.replace(
                runs[-1], solution=dataclasses.replace(sol, _us=us)),)
        return runs

    monkeypatch.setattr(plks.backward, "_shoot", deepened)
    moved = find_critical_a(P, a_tol=0.3)
    assert moved.trace[-2].gap == 1e6 * lower.gap
    assert (moved.a_c, moved.classification) == (res.upper.a, moved.upper)
    assert moved.bracket_width == res.bracket_width


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.floats(0.0, 1.0, exclude_min=True),
       st.floats(0.25, 4.0))
def test_tolerance_ladder_agrees_with_a_full_tolerance_search(N, frac, chi):
    # the search with every probe shot at its own tolerance (the ladder's
    # loose tolerance lowered to it) brackets the same a_c, and every loose
    # label the ladder used is the label of a shot at the search's tolerance
    lo_p = max(2.0, admissible_p_threshold(N)) + 0.15
    P = derive_params(N, lo_p + frac * (4.0 - lo_p), chi)
    res = find_critical_a(P)
    with mock.patch.object(plks.backward, "_LOOSE_TOL", 0.0):
        full = find_critical_a(P)
    assert all(e.tol == 1e-10 for e in full.trace)
    assert abs(res.a_c - full.a_c) <= res.bracket_width + full.bracket_width
    for e in res.trace:
        if e.tol > 1e-10 and _counted(e):
            assert _probe(P, e.a).label == e.label


def test_nan_state_is_an_overflow_rejection():
    # N = 1, p = 2.1 at tolerance 1e-6: past its zero, the default upper
    # end's Newton solve for u returns nan while the error norm stays
    # finite.  Counted as an error rejection, h grew by up to 5x and
    # cycled between 1.02e-4 (nan) and 5.1e-4 (defect rejection) at
    # r = 0.0027660 for 5,000,000 attempts, and the search exited 3
    P = derive_params(1, 2.1)
    opts = IntegratorOptions(rel_tol=1e-6, abs_tol=1e-6)
    res = find_critical_a(P, opts=opts)
    assert abs(res.a_c / zero_energy_height(P) - 1.0) < 1e-6
    ode, shot_opts = plks.backward._shots(P, opts, past_zero=True)
    sol = integrate(ode, res.trace[1].a, shot_opts)
    assert sol.n_steps + sol.n_rejected < 100
    assert sol.stats.rejected_overflow > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.floats(0.0, 1.0), st.floats(0.5, 2.0))
# a gap step allowed with the budget already spent made 38 probes here
@example(N=3, t=0.0, chi=1.9)
def test_critical_search_properties(N, t, chi):
    lo_p = max(2.0, admissible_p_threshold(N)) + 0.15
    p = lo_p + t * (4.0 - lo_p)
    P = derive_params(N, p, chi)
    res = find_critical_a(P)
    assert res.lower.set is ProfileClass.P
    assert res.upper.set in (ProfileClass.N, ProfileClass.N0)
    assert res.bracket_width <= 1e-10 * res.a_c
    rounds, probes = _bisection_rounds(res)
    assert probes <= rounds + 3
    if N == 1:
        exact = zero_energy_height(P)
        assert abs(res.a_c - exact) / exact < 1e-6


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.floats(0.0, 1.0, exclude_min=True),
       st.floats(0.25, 4.0), st.integers(2, 7), st.sampled_from([-1.0, 1.0]))
def test_search_probe_and_classify_give_one_verdict(N, t, chi, k, side):
    # Heights a_c (1 +- 10^-k): the search's probe, which runs on past a zero
    # to its first minimum, must label as classify, which stops at the zero
    # (or certifies below h0 without a run), and its signed minimum is
    # positive exactly on P.  4,000 draws agreed in a scratch run
    lo_p = max(2.0, admissible_p_threshold(N)) + 0.15
    P = derive_params(N, lo_p + t * (4.0 - lo_p), chi)
    a = find_critical_a(P).a_c * (1.0 + side * 10.0 ** -k)
    probe = plks.backward.Probe.of(_probe(P, a), "end")
    assert probe.label == classify(P, a).label
    assert (probe.gap > 0.0) == (probe.label == "P")


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.floats(0.0, 1.0), st.floats(0.25, 4.0),
       st.floats(0.25, 1.25))
def test_energy_law_holds_along_admissible_profiles(N, t, chi, s):
    # Default tolerances, heights from a quarter to 1.25 times the
    # zero-energy height: P profiles that oscillate about u* and N
    # profiles that vanish.  r_max = 100 covers tens of turns, enough for
    # the audit failures that steps across flux zeros in (u, w) caused
    # (4 of 40 such draws failed at r_max = 100), while keeping the test
    # near 4 s; full-length runs at r_max = 1e3 are the zero-energy audits
    # in test_radial_ode.py.
    lo_p = max(2.0, admissible_p_threshold(N)) + 0.05
    P = derive_params(N, lo_p + t * (4.0 - lo_p), chi)
    sol = solve_backward(P, s * zero_energy_height(P),
                         IntegratorOptions(r_max=100.0))
    assert sol.termination in (Termination.REACHED_RMAX,
                               Termination.U_CROSSED_ZERO)
    assert energy_derivative_check(sol).passed


def test_explicit_bracket_above_overflow_cap():
    # above a_cap ~ 1.41519 the stage sums of g overflow and every step fails
    P = derive_params(1, 2.001, 1.0)
    with pytest.raises(BadBracketError, match=r"above a = 1\.41519, where the source term nears overflow"):
        find_critical_a(P, bracket=(1.0, 1.4245))


# ------------------------------------------------------------ monotonicity


def test_monotone_extrema_above_one_dimension():
    # N >= 2, p >= N: oscillations damp toward u*, maxima fall, minima rise
    P = derive_params(2, 2.5, 1.0)
    sol = solve_backward(P, 0.9 * find_critical_a(P).a_c,
                         IntegratorOptions(r_max=300.0))
    amps = [e.u for e in sol.events_of(EventKind.U_PRIME_ZERO)]
    assert len(amps) > 10
    maxima = [u for u in amps if u > P.u_star]
    minima = [u for u in amps if u < P.u_star]
    assert all(b < a for a, b in zip(maxima, maxima[1:]))
    assert all(b > a for a, b in zip(minima, minima[1:]))
    assert abs(amps[-1] - P.u_star) < abs(amps[0] - P.u_star)


def test_constant_amplitude_one_dimension():
    # conserved energy makes the N = 1 orbit periodic: maxima all equal
    P = derive_params(1, 3.0, 1.0)
    sol = solve_backward(P, 0.9, IntegratorOptions(r_max=60.0))
    amps = np.array([e.u for e in sol.events_of(EventKind.U_PRIME_ZERO)])
    maxima = amps[amps > P.u_star]
    assert len(maxima) > 5
    assert (maxima.max() - maxima.min()) / maxima.max() < 1e-6


def test_no_ground_state_region_all_positive():
    # 2 < p < N with q >= Np/(N-p) - 1: every height stays positive
    P = derive_params(3, 2.1, 1.0)
    assert P.q >= P.N * P.p / (P.N - P.p) - 1.0
    grid = P.u_star * np.logspace(-2, 4, 13)
    res = sweep_a(P, grid)
    assert all(c.set is ProfileClass.P for c in res.classifications)
    assert res.a_2 is None


# ------------------------------------------------------------- rescaling


def test_rescaled_limit_small_deviation():
    P = derive_params(2, 3.0, 1.0)
    dev = rescaled_limit_check(P, 1e3)
    assert dev < 0.05


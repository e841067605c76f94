"""Parameter derivation: frozen reference values, identities, dual routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from plks import (
    DomainError,
    ModelParams,
    Regime,
    admissible_p_threshold,
    compact_support_admissible,
    derive_params,
    phi_of_u,
)
from oracles import oracle_exponents

# A grid wide enough to hit all three regimes in every dimension.
GRID = [(N, p) for N in (1, 2, 3, 4) for p in (1.2, 1.5, 1.8, 2.0, 2.1, 2.5, 3.0, 4.0)
        if p > 2.0 * N / (N + 1.0)]


def test_reference_case_n1_p3():
    # frozen by hand: m = 2p - 2 = 4, q = m(p-1)/(p-2) = 8,
    # B = ((p-1)/(p-2))^(p-1) = 4, u* = (1/(chi m))^(1/q) = 4^(-1/8)
    P = derive_params(1, 3.0, 1.0)
    assert P.m == 4.0
    assert P.q == 8.0
    assert P.B == 4.0
    assert abs(P.u_star - 0.8408964152537145) < 1e-15
    assert P.alpha == 0.25
    assert P.beta == 0.25
    assert P.gamma == -0.5
    assert P.regime is Regime.SLOW


def test_reference_case_p2():
    # p = 2, N = 2: m = ((p-2)N + p)/N = 1; log equilibrium ln(1/(chi m))/m
    P = derive_params(2, 2.0, 1.0)
    assert P.m == 1.0
    assert P.regime is Regime.LINEAR
    assert P.u_star_log == 0.0
    P2 = derive_params(2, 2.0, 0.25)
    assert abs(P2.u_star_log - math.log(4.0)) < 1e-15


def test_reference_case_q_minus_one():
    # N = 1, p = 3/2 sits exactly on q = -1 (log-potential branch)
    P = derive_params(1, 1.5, 1.0)
    assert P.m == 1.0
    assert abs(P.q + 1.0) < 1e-15
    assert P.regime is Regime.FAST
    assert abs(P.u_star - 1.0) < 1e-15


@pytest.mark.parametrize("N,p", GRID)
def test_exponents_against_oracle(N, p):
    P = derive_params(N, p, 1.0)
    ref = oracle_exponents(N, p)
    assert abs(P.m - ref["m"]) < 1e-14
    assert abs(P.alpha - ref["alpha"]) < 1e-14
    assert abs(P.beta - ref["beta"]) < 1e-14
    assert abs(P.gamma - ref["gamma"]) < 1e-14
    if p != 2.0:
        assert abs(P.q - ref["q"]) < 1e-12
        assert abs(P.B - ref["B"]) < 1e-12
    if p > 2.0:
        # the rescaling exponent is a slow-regime construct
        assert abs(P.lam - ref["lam"]) < 1e-12


@pytest.mark.parametrize("N,p", GRID)
def test_exponent_identities(N, p):
    # alpha = N beta, gamma = 2 beta - 1, alpha m = 1
    P = derive_params(N, p, 1.0)
    assert abs(P.alpha - N * P.beta) < 1e-14
    assert abs(P.gamma - (2.0 * P.beta - 1.0)) < 1e-14
    assert abs(P.alpha * P.m - 1.0) < 1e-14


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_equilibrium_solves_g_zero(N):
    for p in (2.2, 2.5, 3.0):
        P = derive_params(N, p, 1.3)
        u = P.u_star
        assert abs(P.chi * u ** P.q - 1.0 / P.m) < 1e-13
    P = derive_params(N, 2.0, 1.3)
    u = P.u_star_log
    assert abs(P.chi * math.exp(P.m * u) - 1.0 / P.m) < 1e-13


def test_regime_split():
    assert derive_params(2, 1.9, 1.0).regime is Regime.FAST
    assert derive_params(2, 2.0, 1.0).regime is Regime.LINEAR
    assert derive_params(2, 2.1, 1.0).regime is Regime.SLOW


@st.composite
def _any_regime(draw):
    N = draw(st.integers(1, 4))
    regime = draw(st.sampled_from(list(Regime)))
    if regime is Regime.LINEAR:
        p = 2.0
    elif regime is Regime.SLOW:
        p = draw(st.floats(2.05, 5.0))
    else:
        p = draw(st.floats(2.0 * N / (N + 1.0) + 0.01, 1.95))
    return derive_params(N, p, draw(st.floats(0.1, 10.0)))


@settings(max_examples=300, deadline=None)
@given(_any_regime(),
       arrays(np.float64, st.integers(1, 40), elements=st.floats(-30.0, 30.0)))
def test_phi_of_u_policy(P, u):
    with np.errstate(over="ignore"):
        phi = phi_of_u(P, u)
        if P.regime is Regime.LINEAR:
            assert phi.tobytes() == np.exp(u).tobytes()
            return
        pos = u > 0.0
        want = u[pos] ** ((P.p - 1.0) / (P.p - 2.0))
    assert np.all(phi[~pos] == 0.0)
    assert phi[pos].tobytes() == want.tobytes()


def test_fast_regime_q_negative():
    for N, p in GRID:
        if p < 2.0:
            P = derive_params(N, p, 1.0)
            assert P.q < 0.0
        elif p > 2.0:
            P = derive_params(N, p, 1.0)
            assert P.q > p - 1.0  # supercritical power


def test_compact_support_threshold_frozen():
    # N = 3: (sqrt(52) + 10) / 8
    assert abs(admissible_p_threshold(3) - 2.1513878188659973) < 1e-15
    assert admissible_p_threshold(1) <= 2.0
    assert admissible_p_threshold(2) <= 2.0


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
def test_compact_support_dual_route(N):
    # route 1: closed-form threshold; route 2: sign of the quadratic
    # (N+1) p^2 - (3N+1) p + N whose larger root the threshold is
    for p in [1.5, 2.0, 2.05, 2.1, 2.2, 2.5, 3.0, 5.0]:
        if p <= 2.0 * N / (N + 1.0):
            continue
        lhs = compact_support_admissible(N, p)
        rhs = p > 2.0 and (N + 1.0) * p * p - (3.0 * N + 1.0) * p + N > 0.0
        assert lhs == rhs, (N, p)


def test_threshold_is_quadratic_root():
    for N in (1, 2, 3, 4, 10):
        t = admissible_p_threshold(N)
        assert abs((N + 1.0) * t * t - (3.0 * N + 1.0) * t + N) < 1e-10


def test_validation_rejects_bad_input():
    with pytest.raises(DomainError):
        derive_params(0, 3.0, 1.0)
    with pytest.raises(DomainError):
        derive_params(2, 4.0 / 3.0, 1.0)  # p <= 2N/(N+1)
    with pytest.raises(DomainError):
        derive_params(2, 3.0, 0.0)
    with pytest.raises(DomainError):
        derive_params(2, 3.0, -1.0)
    with pytest.raises(DomainError):
        derive_params(2, math.inf, 1.0)
    with pytest.raises(DomainError):
        ModelParams(N=True, p=3.0, chi=1.0)


def test_regime_guarded_fields():
    P = derive_params(2, 2.0, 1.0)
    with pytest.raises(DomainError):
        P.q
    with pytest.raises(DomainError):
        P.B
    with pytest.raises(DomainError):
        P.u_star
    S = derive_params(2, 3.0, 1.0)
    with pytest.raises(DomainError):
        S.u_star_log

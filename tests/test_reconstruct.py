"""Tests for profile reconstruction: phi maps, potential kernels, mass,
space-time evaluation, concentration, and system residuals."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, quad, simpson
from scipy.special import gamma, ive

from plks import derive_params
from plks.backward import find_critical_a, solve_backward
from plks.errors import (
    DeltaTestError,
    DomainError,
    IllPosedPotentialError,
    InfiniteMassError,
    NegativeBaseError,
    OutOfTimeDomainError,
)
from plks.forward import CompactTail, PowerTail, solve_forward
from plks.radial_ode import IntegratorOptions
from plks.reconstruct import (
    _angular_averages,
    _cumulative_simpson,
    _first_derivative,
    _gamma_half,
    _positive_span,
    Direction,
    PhiProfile,
    SelfSimilarSolution,
    assemble,
    delta_test,
    evaluate,
    mass,
    phi_from_forward,
    phi_from_u,
    psi_from_phi,
    psi_well_posed_threshold,
    radial_delta_test,
    residual_grade,
    surface_area_unit_ball,
    system_residual,
)

from oracles import angular_average, off_centre_gaussian_average

_CACHE = {}


def _critical(N, p):
    key = ("ac", N, p)
    if key not in _CACHE:
        _CACHE[key] = find_critical_a(derive_params(N, p, 1.0)).a_c
    return _CACHE[key]


def _crossing_profile(N, p, frac=1.2):
    """A zero-reaching blow-up trajectory mapped to a compact phi."""
    key = ("cross", N, p, frac)
    if key not in _CACHE:
        P = derive_params(N, p, 1.0)
        sol = solve_backward(P, frac * _critical(N, p),
                             IntegratorOptions(rel_tol=1e-12, abs_tol=1e-12))
        _CACHE[key] = phi_from_u(sol, P)
    return _CACHE[key]


def _constant_profile(N, c, R=2.0, n=4001):
    r = np.linspace(1e-6, R, n)
    return PhiProfile(r, np.full(n, c), CompactTail(R))


# --------------------------------------------------------- phi maps


def test_phi_map_power_slow():
    P = derive_params(2, 3.0, 1.0)
    sol = solve_backward(P, 1.2 * _critical(2, 3.0))
    phi = phi_from_u(sol, P)
    n = phi.r.size - 1  # last point is the appended zero
    assert np.allclose(phi.phi[:n], sol.u[:n] ** 2.0, rtol=1e-14)


def test_phi_map_exponential_linear():
    P = derive_params(2, 2.0, 1.0)
    sol = solve_backward(P, 0.0)
    phi = phi_from_u(sol, P)
    assert phi.phi[0] == pytest.approx(math.exp(sol.u[0]), rel=1e-14)
    assert abs(phi.phi[0] - 1.0) < 1e-6  # u(0+) = b = 0 maps to phi = 1


def test_phi_from_u_rejects_nonpositive_u_below_p_2():
    # no admissible fast run reaches u <= 0, so one is made by hand
    P = derive_params(2, 1.8, 1.0)
    sol = solve_backward(P, 1.0)
    for u_end in (0.0, -0.5):
        bad = dataclasses.replace(sol, u=np.append(sol.u[:-1], u_end))
        with pytest.raises(NegativeBaseError):
            phi_from_u(bad, P)


def test_phi_truncates_at_first_zero():
    phi = _crossing_profile(2, 3.0)
    assert phi.phi[-1] == 0.0
    assert phi.support_radius == pytest.approx(phi.r[-1])
    assert np.all(phi.phi[:-1] > 0.0)


def test_phi_span():
    r = np.linspace(0.1, 1.0, 5)
    # the compact tail's radius, else the last node with phi > 0, else the
    # last node
    assert PhiProfile(r, np.ones(5), CompactTail(0.8)).span == 0.8
    assert PhiProfile(r, np.ones(5), CompactTail(0.8)).support_radius == 0.8
    tail = PowerTail(-0.5, 1.0)
    phi = PhiProfile(r, np.array([1.0, 0.5, 0.2, 0.0, 0.0]), tail)
    assert phi.support_radius is None
    assert phi.span == r[2]
    assert PhiProfile(r, np.zeros(5), tail).span == r[-1]


def test_phi_rejects_negative_values():
    r = np.linspace(0.1, 1.0, 5)
    with pytest.raises(DomainError):
        PhiProfile(r, np.array([1.0, 0.5, -0.1, 0.2, 0.0]), None)


# ------------------------------------------------ potential kernels


def _kernel_error(N, n):
    P = derive_params(N, 3.0, 1.0)
    c, R = 0.7, 2.0
    phi = _constant_profile(N, c, R=R, n=n)
    psi = psi_from_phi(phi, P)
    cm = c ** P.m
    r = psi.r
    assert np.allclose(psi.psi_prime, -cm * r / N, rtol=1e-9, atol=1e-12)
    assert psi.well_posed
    if N == 1:
        exact = -cm * (R ** 2 + r ** 2) / 2.0
    elif N == 2:
        exact = -cm * (R ** 2 * math.log(R) / 2.0 - R ** 2 / 4.0 + r ** 2 / 4.0)
    else:
        exact = cm * (R ** 2 / 2.0 - r ** 2 / 6.0)
    return float(np.max(np.abs(psi.psi - exact)))


@pytest.mark.parametrize("N", [1, 3])
def test_constant_source_kernel_closed_form(N):
    # psi' = -c^m r / N; the polynomial kernels are Simpson-exact
    assert _kernel_error(N, 4001) < 1e-10


def test_constant_source_kernel_log_converges():
    # the N = 2 log weight is singular-derivative at 0: second order there
    e_coarse = _kernel_error(2, 2001)
    e_fine = _kernel_error(2, 16001)
    assert e_coarse < 5e-8
    assert e_fine < e_coarse / 8.0


def test_psi_prime_nonpositive_on_real_profile():
    P = derive_params(3, 2.5, 1.0)
    phi = phi_from_forward(solve_forward(P, 1.0))
    psi = psi_from_phi(phi, P)
    assert np.all(psi.psi_prime <= 0.0)


def test_poisson_residual_on_constant_source():
    # second difference of the quadrature psi against the exact source
    P = derive_params(3, 3.0, 1.0)
    c = 0.7
    phi = _constant_profile(3, c)
    psi = psi_from_phi(phi, P)
    r, ps = psi.r, psi.psi
    h = r[1] - r[0]
    lap = (ps[2:] - 2.0 * ps[1:-1] + ps[:-2]) / h ** 2 \
        + (P.N - 1) / r[1:-1] * (ps[2:] - ps[:-2]) / (2.0 * h)
    assert np.max(np.abs(lap + c ** P.m)) < 1e-7


def test_exterior_potential_law_compact_n3():
    # psi * r^(N-2) locks onto the full source integral past the support
    P = derive_params(3, 2.5, 1.0)
    phi = residual_grade(P, 1.0, Direction.FORWARD)
    psi = psi_from_phi(phi, P)
    R = phi.support_radius
    const = psi.i1_total / (P.N - 2.0)
    # exact at the support edge, where no source remains outside
    edge = psi.psi[-1] * psi.r[-1] ** (P.N - 2)
    assert edge == pytest.approx(const, rel=1e-10)
    # just inside, the deviation equals the leftover source moment
    k = int(np.searchsorted(psi.r, 0.95 * R))
    rk = float(psi.r[k])
    seg = slice(k, None)
    s = phi.r[seg]
    leftover = simpson(s * (s - rk) * phi.phi[seg] ** P.m, x=s)
    dev = const - psi.psi[k] * rk ** (P.N - 2)
    assert dev == pytest.approx(leftover, rel=1e-2)
    assert abs(dev) < 1e-6 * const
    ss = assemble(P, phi, psi, Direction.FORWARD)
    for fac in (1.01, 1.5, 3.0):
        t = 1.0
        _, cval = evaluate(ss, np.array([fac * R, 0.0, 0.0]), t)
        assert cval * (fac * R) ** (P.N - 2) == pytest.approx(const, rel=1e-12)


def test_well_posed_threshold_and_gate():
    assert psi_well_posed_threshold(1) == pytest.approx(math.sqrt(2.0))
    assert psi_well_posed_threshold(3) == pytest.approx(2.0 * math.sqrt(0.75))
    P = derive_params(1, 1.3, 1.0)  # below 2 sqrt(1/2): potential diverges
    phi = phi_from_forward(solve_forward(P, 1.0))
    with pytest.raises(IllPosedPotentialError):
        psi_from_phi(phi, P)
    psi = psi_from_phi(phi, P, strict=False)
    assert not psi.well_posed
    assert psi.detail
    Q = derive_params(1, 1.5, 1.0)  # above the threshold: finite potential
    phi2 = phi_from_forward(solve_forward(Q, 1.0))
    assert psi_from_phi(phi2, Q).well_posed


@pytest.mark.parametrize("N, p, b, opts", [
    # power tails above psi_well_posed_threshold, cut early (u near 100)
    # so that the tail pieces stand well above the grid part's roundoff
    (1, 1.6, 1.0, IntegratorOptions(r_max=10.0)),
    (2, 1.8, 1.0, IntegratorOptions(r_max=25.0)),
    (3, 1.85, 1.0, IntegratorOptions(r_max=30.0)),
    # log-quadratic tails, cut at r = 3.8 (u from -4.7 to -6.2), phi_end > 0
    (1, 2.0, 0.0, IntegratorOptions(r_max=3.8)),
    (2, 2.0, 0.0, IntegratorOptions(r_max=3.8)),
    (3, 2.0, 0.0, IntegratorOptions(r_max=3.8)),
])
def test_potential_tail_pieces_match_quadrature(N, p, b, opts):
    # i1_total and psi at the grid end against quad over the tail model
    # continued past the grid end
    P = derive_params(N, p, 1.0)
    phi = phi_from_forward(solve_forward(P, b, opts))
    psi = psi_from_phi(phi, P)
    tail, m = phi.tail, P.m
    r_end, phi_end = float(phi.r[-1]), float(phi.phi[-1])
    if isinstance(tail, PowerTail):
        def src(s):
            return (tail.coefficient * s ** tail.exponent) ** m
    else:
        assert phi_end > 0.0

        def src(s):
            return (phi_end * math.exp(tail.coefficient * (s * s - r_end * r_end))) ** m

    def moment(k):
        return quad(lambda s: k(s) * src(s), r_end, np.inf,
                    epsabs=0.0, epsrel=1e-12, limit=200)[0]

    i1_end = -psi.psi_prime[-1] * r_end ** (N - 1)
    i1_tail = moment(lambda s: s ** (N - 1))
    assert i1_tail > 1e-7 * i1_end
    assert psi.i1_total - i1_end == pytest.approx(i1_tail, rel=1e-8)
    if N == 1:
        piece, exact = -(psi.psi[-1] + r_end * i1_end), moment(lambda s: s)
    elif N == 2:
        piece = -(psi.psi[-1] + math.log(r_end) * i1_end)
        exact = moment(lambda s: s * math.log(s))
    else:
        piece = (N - 2.0) * psi.psi[-1] - r_end ** (2 - N) * i1_end
        exact = moment(lambda s: s)
    assert piece == pytest.approx(exact, rel=1e-8)


# ------------------------------------------------------------- mass


def test_mass_of_zero_profile():
    P = derive_params(2, 3.0, 1.0)
    r = np.linspace(1e-6, 1.0, 101)
    phi = PhiProfile(r, np.zeros(101), CompactTail(1.0))
    assert mass(phi, P) == 0.0


@pytest.mark.parametrize("N", [1, 2, 3])
def test_mass_constant_profile(N):
    P = derive_params(N, 3.0, 1.0)
    c, R = 0.7, 2.0
    M = mass(_constant_profile(N, c), P)
    exact = surface_area_unit_ball(N) * c * R ** N / N
    assert M == pytest.approx(exact, rel=1e-10)


def test_mass_bounded_by_center_value():
    P = derive_params(3, 2.5, 1.0)
    phi = phi_from_forward(solve_forward(P, 1.0))
    R = phi.support_radius
    M = mass(phi, P)
    assert 0.0 < M < surface_area_unit_ball(3) * phi.phi[0] * R ** 3 / 3.0


def test_mass_power_tail_matches_quadrature():
    P = derive_params(1, 1.5, 1.0)
    phi = phi_from_forward(solve_forward(P, 1.0))
    M = mass(phi, P)
    grid = simpson(phi.phi, x=phi.r)
    tail = phi.tail
    r_end = phi.r[-1]
    # int_rend^inf C s^e ds with e = p/(p-2) = -3
    tail_exact = tail.coefficient * r_end ** (tail.exponent + 1) / (-(tail.exponent + 1))
    assert M == pytest.approx(surface_area_unit_ball(1) * (grid + tail_exact),
                              rel=1e-6)


def test_mass_log_quadratic_tail_matches_quadrature():
    P = derive_params(2, 2.0, 1.0)
    phi = phi_from_forward(solve_forward(P, 0.0, IntegratorOptions(r_max=14.0)))
    M = mass(phi, P)
    r_end, p_end = float(phi.r[-1]), float(phi.phi[-1])
    assert p_end > 0.0
    tail_num, _ = quad(lambda s: p_end * math.exp(-(s * s - r_end * r_end) / 4.0) * s,
                       r_end, np.inf)
    grid = simpson(phi.r * phi.phi, x=phi.r)
    assert M == pytest.approx(2.0 * math.pi * (grid + tail_num), rel=1e-6)
    # the default floor pushes the grid end far out; e^(r^2/4) alone
    # overflows there and the scaled tail formula must still be finite
    deep = phi_from_forward(solve_forward(P, 0.0))
    assert math.isfinite(mass(deep, P))


def test_mass_infinite_without_tail():
    P = derive_params(2, 3.0, 1.0)
    sol = solve_backward(P, 0.5 * _critical(2, 3.0))  # positive type, no zero
    phi = phi_from_u(sol, P)
    with pytest.raises(InfiniteMassError):
        mass(phi, P)


def test_mass_infinite_for_fat_power_tail():
    P = derive_params(1, 1.5, 1.0)
    r = np.linspace(1e-6, 2.0, 101)
    phi = PhiProfile(r, 1.0 / (1.0 + r), PowerTail(-0.5, 1.0))
    with pytest.raises(InfiniteMassError):
        mass(phi, P)


# ---------------------------------------------- space-time evaluation


def _assembled_backward(N=2, p=3.0, T=1.0):
    key = ("ss", N, p, T)
    if key not in _CACHE:
        P = derive_params(N, p, 1.0)
        phi = _crossing_profile(N, p)
        psi = psi_from_phi(phi, P)
        _CACHE[key] = assemble(P, phi, psi, Direction.BACKWARD, T=T)
    return _CACHE[key]


def test_evaluate_scaling_identity():
    ss = _assembled_backward()
    P = ss.params
    xi = 0.3
    vals = []
    for t in (0.2, 0.6, 0.9):
        tau = ss.T - t
        x = np.array([xi * tau ** P.beta, 0.0])
        rho, c = evaluate(ss, x, t)
        vals.append((rho * tau ** P.alpha, c * tau ** (1.0 - 2.0 * P.beta)))
    phis = np.interp(xi, ss.phi.r, ss.phi.phi)
    for rv, cv in vals:
        assert rv == pytest.approx(phis, rel=1e-9)
        assert cv == pytest.approx(vals[0][1], rel=1e-9)


def test_evaluate_outside_support_is_zero():
    ss = _assembled_backward()
    t = 0.5
    theta = ss.similarity_scale(t)
    R = ss.phi.support_radius
    rho, _ = evaluate(ss, np.array([1.5 * theta * R, 0.0]), t)
    assert rho == 0.0


def test_evaluate_time_domain_errors():
    ss = _assembled_backward()
    for t in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(OutOfTimeDomainError):
            evaluate(ss, np.zeros(2), t)
    P = derive_params(3, 2.5, 1.0)
    phi = phi_from_forward(solve_forward(P, 1.0))
    ssf = assemble(P, phi, psi_from_phi(phi, P), Direction.FORWARD)
    with pytest.raises(OutOfTimeDomainError):
        evaluate(ssf, np.zeros(3), 0.0)
    assert evaluate(ssf, np.zeros(3), 2.0)[0] > 0.0


def test_mass_conserved_across_times():
    ss = _assembled_backward()
    P = ss.params
    omega = surface_area_unit_ball(P.N)
    for t in (0.3, 0.8):
        theta = ss.similarity_scale(t)
        x = theta * ss.phi.r
        rho = np.array([evaluate(ss, np.array([xi, 0.0]), t)[0] for xi in x])
        got = omega * simpson(rho * x ** (P.N - 1), x=x)
        ref = omega * simpson(ss.phi.phi * ss.phi.r ** (P.N - 1), x=ss.phi.r)
        assert got == pytest.approx(ref, rel=1e-10)
        assert got == pytest.approx(ss.M, rel=1e-5)


# ------------------------------------------------------ delta test


def test_delta_constant_function_exact():
    ss = _assembled_backward()
    out = delta_test(ss, lambda x: 1.0, [0.3, 0.6, 0.9],
                     assert_decreasing=False)
    for _, dev in out:
        assert dev <= 1e-13 * ss.M


def test_delta_gaussian_decreases_below_tolerance():
    ss = _assembled_backward()
    f = lambda x: math.exp(-float(np.dot(x, x)))
    times = [0.5, 0.9, 1.0 - 1e-8, 1.0 - 1e-16]
    out = delta_test(ss, f, times)
    devs = [d for _, d in out]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-6 * ss.M


def test_delta_lipschitz_rate_bound():
    ss = _assembled_backward()
    f = lambda x: min(float(np.linalg.norm(x)), 1.0)  # Lip 1, f(0) = 0
    R = ss.phi.support_radius
    out = delta_test(ss, f, [0.5, 0.9, 0.99])
    for t, dev in out:
        assert dev <= ss.similarity_scale(t) * R * ss.M * (1.0 + 1e-10)


def test_delta_reports_stalled_decrease():
    ss = _assembled_backward()
    f = lambda x: math.exp(-float(np.dot(x, x)))
    with pytest.raises(DeltaTestError):
        delta_test(ss, f, [0.5, 0.5])


def test_delta_needs_finite_mass():
    P = derive_params(2, 3.0, 1.0)
    sol = solve_backward(P, 0.5 * _critical(2, 3.0))
    phi = phi_from_u(sol, P)
    psi = psi_from_phi(phi, P, strict=False)
    assert not psi.well_posed
    ss = assemble(P, phi, psi, Direction.BACKWARD)
    assert ss.M is None
    with pytest.raises(InfiniteMassError):
        delta_test(ss, lambda x: 1.0, [0.5])


def _one_point(N, center=(0.3, -0.2, 0.1, 0.05)):
    """An off-center Gaussian that refuses anything but a single point."""
    center = np.array(center[:N])

    def f(x):
        if np.shape(x) != (N,):
            raise ValueError(f"one point of R^{N} per call, got shape {np.shape(x)}")
        d = x - center
        return math.exp(-float(np.dot(d, d)))
    return f


def _reference_deviations(ss, f, times):
    """delta_test's deviations with the point-by-point average and scipy."""
    N = ss.params.N
    omega = surface_area_unit_ball(N)
    f0 = float(f(np.zeros(N)))
    r, ph = ss.phi.r, ss.phi.phi
    grid_mass = omega * (float(ph[0]) * float(r[0]) ** N / N + float(
        cumulative_simpson(r ** (N - 1) * ph, x=r, initial=0.0)[-1]))
    out = []
    for t in sorted(times, reverse=(ss.direction is Direction.FORWARD)):
        theta = ss.similarity_scale(t)
        fbar = np.array([angular_average(f, N, theta * float(s)) for s in r])
        integral = omega * (float(ph[0]) * fbar[0] * float(r[0]) ** N / N
                            + float(cumulative_simpson(
                                r ** (N - 1) * ph * fbar, x=r, initial=0.0)[-1]))
        integral += (ss.M - grid_mass) * angular_average(f, N, theta * float(r[-1]))
        out.append((t, abs(integral - ss.M * f0)))
    return out


@pytest.mark.parametrize("N,p,a", [(1, 3.0, 1.5), (2, 3.0, 2.126),
                                   (3, 2.5, 8.0), (4, 3.0, 5.0)])
def test_delta_test_bitwise_matches_pointwise_rule(N, p, a):
    P = derive_params(N, p, 1.0)
    phi = phi_from_u(solve_backward(P, a), P)
    ss = assemble(P, phi, psi_from_phi(phi, P), Direction.BACKWARD)
    f = _one_point(N)
    times = [0.5, 0.9, 0.99]
    if N > 3:
        # no angular rule above N = 3: the point path refuses f
        with pytest.raises(DomainError, match="radial_delta_test"):
            delta_test(ss, f, times, assert_decreasing=False)
        with pytest.raises(ValueError):
            _reference_deviations(ss, f, times)
        return
    got = delta_test(ss, f, times, assert_decreasing=False)
    assert got == _reference_deviations(ss, f, times)


@pytest.mark.parametrize("N,n", [(1, 2500), (2, 50), (3, 50), (4, 50)])
def test_angular_averages_bitwise_match_pointwise_rule(N, n):
    # n = 2500 spans three blocks of radii
    f = _one_point(N)
    s = np.geomspace(1e-9, 30.0, n)
    if N > 3:
        with pytest.raises(DomainError, match="radial_delta_test"):
            _angular_averages(f, N, s)
        with pytest.raises(ValueError):
            angular_average(f, N, float(s[0]))
        return
    want = np.array([angular_average(f, N, float(x)) for x in s])
    assert _angular_averages(f, N, s).tobytes() == want.tobytes()


def _assembled_backward_at(N, p, a):
    key = ("ss-at", N, p, a)
    if key not in _CACHE:
        P = derive_params(N, p, 1.0)
        phi = phi_from_u(solve_backward(P, a), P)
        _CACHE[key] = assemble(P, phi, psi_from_phi(phi, P), Direction.BACKWARD)
    return _CACHE[key]


def _rule_error_bound(N, c, s):
    """Relative error bound of _angular_averages for exp(-|x - c|^2) at radii s.

    On the sphere f = exp(-s^2 - k^2) exp(2 s c.w), so the rule's relative
    error is that of its angular rule on exp(2 s c.w), whose exact mean is
    at least 1 (Jensen).  Roundoff: |x - c|^2 carries a relative error of a
    few eps, so each point value one of a few eps (1 + (s + k)^2); the
    closed form's exp(-(s - k)^2) carries the same.
    """
    eps = np.finfo(float).eps
    k = float(np.linalg.norm(c))
    bound = 32.0 * eps * (1.0 + (s + k) ** 2)
    if N == 1:
        return bound          # the two points +-s are the exact average
    # a periodic n-point trapezoid on exp(z cos(phi - phi0)) has the relative
    # error 2 sum_j I_(nj)(z) cos(nj phi0) / I_0(z), which grows with z
    def ring_error(n, z):
        return 2.0 * sum(ive(n * j, z) for j in (1, 2, 3)) / ive(0, z)
    if N == 2:
        return bound + ring_error(32, 2.0 * k * s)
    # N = 3: each 16-point ring at polar cosine t has z = 2 s |c_12| sqrt(1 - t^2)
    # at most 2 s |c_12|; the ring means g(t) = exp(2 s c_3 t) I_0(...) are
    # entire, with |t| and |sqrt(1 - t^2)| at most a = (rho + 1/rho)/2 on the
    # Bernstein ellipse E_rho, so |g| <= exp(2 s (|c_3| + |c_12|) a) there,
    # and 12-point Gauss-Legendre misses int g by at most
    # (64/15) max|g| rho^-24 / (rho^2 - 1) (Trefethen, ATAP, Thm 19.3);
    # the average is half the integral
    c12 = float(np.linalg.norm(c[:2]))
    rho = np.geomspace(1.001, 1e3, 4000)[:, None]
    a = 0.5 * (rho + 1.0 / rho)
    log_gl = (2.0 * s * (abs(c[2]) + c12) * a - 24.0 * np.log(rho)
              - np.log(rho * rho - 1.0))
    gl = 32.0 / 15.0 * np.exp(np.min(log_gl, axis=0))
    return bound + ring_error(16, 2.0 * s * c12) + gl


@pytest.mark.parametrize("N", [1, 2, 3])
def test_angular_averages_match_off_centre_closed_form(N):
    # |c| ~ 2 makes the ring rules' own errors show at the large radii
    c = np.array([1.2, -1.2, 0.9])[:N]
    s = np.geomspace(1e-9, 8.0, 400)
    got = _angular_averages(_one_point(N, c), N, s)
    want = off_centre_gaussian_average(N, c, s)
    bound = _rule_error_bound(N, c, s)
    assert np.all(np.abs(got / want - 1.0) <= bound)
    assert np.all(bound[s < 0.5] < 1e-12)   # the bound is no blanket


@pytest.mark.parametrize("N,p,a", [(1, 3.0, 1.5), (2, 3.0, 2.126),
                                   (3, 2.5, 8.0)])
def test_radial_delta_test_matches_point_path(N, p, a):
    ss = _assembled_backward_at(N, p, a)
    c = np.array([0.3, -0.2, 0.1])[:N]
    times = [0.5, 0.9, 0.99]
    want = delta_test(ss, _one_point(N, c), times, assert_decreasing=False)
    got = radial_delta_test(ss, lambda s: off_centre_gaussian_average(N, c, s),
                            times, assert_decreasing=False)
    # the averages differ by at most the rule's bound, largest at the first
    # time's radii, and the quadrature weights sum to about M; a few ulps
    # of M cover f(0) itself
    s = ss.similarity_scale(times[0]) * ss.phi.r
    fbar_err = np.max(_rule_error_bound(N, c, s)
                      * off_centre_gaussian_average(N, c, s))
    tol = 2.0 * ss.M * fbar_err + 8.0 * np.finfo(float).eps * ss.M
    assert [t for t, _ in got] == [t for t, _ in want]
    for (_, d_got), (_, d_want) in zip(got, want):
        assert abs(d_got - d_want) <= tol


def test_radial_delta_test_second_moment_at_N4():
    # no point rule exists at N = 4; near T the deviation is
    # |F''(0)/2| theta^2 m2 with F(s) = e^(-k^2) (1 + (2k^2/N - 1) s^2 + ...)
    # and m2 the second moment of phi in the delta test's own quadrature;
    # theta = (T - t)^(1/7) here, so T = 1e-6 lets theta reach 1e-3
    N = 4
    ss = dataclasses.replace(_assembled_backward_at(N, 3.0, 5.0), T=1e-6)
    c = np.array([0.3, -0.2, 0.1, 0.05])
    k2 = float(np.dot(c, c))
    omega = surface_area_unit_ball(N)
    r, ph = ss.phi.r, ss.phi.phi
    cells = lambda y: float(cumulative_simpson(y, x=r, initial=0.0)[-1])
    tail = ss.M - omega * (float(ph[0]) * float(r[0]) ** N / N
                           + cells(r ** (N - 1) * ph))
    m2 = (omega * (float(ph[0]) * float(r[0]) ** (N + 2) / N
                   + cells(r ** (N + 1) * ph)) + tail * float(r[-1]) ** 2)
    coef = math.exp(-k2) * abs(2.0 * k2 / N - 1.0)
    times = [ss.T - theta ** 7 for theta in (1e-1, 1e-2, 1e-3)]
    out = radial_delta_test(ss, lambda s: off_centre_gaussian_average(N, c, s),
                            times)
    for t, dev in out:
        theta = ss.similarity_scale(t)
        # the next term is O(theta^2 r_max^2) relative
        assert dev == pytest.approx(coef * theta ** 2 * m2,
                                    rel=(theta * float(r[-1])) ** 2)


def test_radial_delta_test_constant_function_exact_at_N4():
    ss = _assembled_backward_at(4, 3.0, 5.0)
    out = radial_delta_test(ss, lambda s: np.ones_like(s), [0.3, 0.6, 0.9],
                            assert_decreasing=False)
    for _, dev in out:
        assert dev <= 1e-13 * ss.M


class _OnePointGaussian:
    """exp(-|x|^2) taking one point per call, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x) -> float:
        self.calls += 1
        return math.exp(-float(np.dot(x, x)))


@pytest.mark.parametrize("F", [
    _OnePointGaussian(),                                # a scalar for any array
    lambda s: np.exp(-s * s)[:, None],                  # wrong shape
    lambda s: np.exp(-s * s)[:-1],                      # one value short
    lambda s: np.exp(-s * s).tolist(),                  # not an array
    lambda s: np.ones(len(s), dtype=int),               # not floats
    lambda s: np.where(s > 0.0, np.inf, 1.0),           # not finite
    lambda s: np.full(len(s), np.nan),
], ids=["scalar", "2d", "short", "list", "int", "inf", "nan"])
def test_radial_delta_test_checks_the_average(F):
    ss = _assembled_backward()
    with pytest.raises(DomainError, match="spherical average"):
        radial_delta_test(ss, F, [0.5, 0.9])


def test_delta_test_point_path_call_count_unchanged():
    # f(0) once, then one call per quadrature point at each nonzero radius
    ss = _assembled_backward_at(3, 2.5, 8.0)
    f = _OnePointGaussian()
    times = [0.5, 0.9]
    delta_test(ss, f, times)
    inside = sum(int(np.count_nonzero(ss.similarity_scale(t) * ss.phi.r))
                 for t in times)
    assert f.calls == 1 + 12 * 16 * inside


def test_cumulative_simpson_bitwise_matches_scipy():
    rng = np.random.default_rng(7)
    grids = [np.cumsum(rng.uniform(0.01, 1.0, n)) for n in range(2, 10)]
    grids.append(np.cumsum(rng.uniform(1e-4, 1e-2, 40_000)))
    for x in grids:
        y = np.sin(3.0 * x) + rng.normal(size=len(x))
        want = cumulative_simpson(y, x=x, initial=0.0)
        assert _cumulative_simpson(y, x).tobytes() == want.tobytes()


def test_gamma_table_matches_scipy():
    for N in range(1, 13):
        assert _gamma_half(N) == float(gamma(N / 2.0))


# ------------------------------------------------- system residuals


def test_residual_zero_at_equilibrium():
    P = derive_params(2, 3.0, 1.0)
    c = (1.0 / P.m) ** (1.0 / P.m)  # chi = 1 equilibrium of the phi equation
    phi = _constant_profile(2, c)
    psi = psi_from_phi(phi, P)
    res = system_residual(phi, psi, P, Direction.BACKWARD)
    assert res.res1 < 1e-12
    assert res.res2 < 1e-8
    assert res.identity < 1e-10


def test_first_derivative_is_fourth_order():
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.05, 0.3, 40))
    quartic = np.polynomial.Polynomial([0.3, -1.2, 0.7, 0.25, -0.04])
    exact = quartic.deriv()(x[2:-2])
    err = np.abs(_first_derivative(x, quartic(x)) - exact)
    assert np.max(err) < 1e-12 * np.max(np.abs(exact))
    # a smooth non-uniform grid, halved: the error on sin falls by ~2^4
    errs = []
    for n in (41, 81, 161):
        s = np.linspace(0.0, 1.0, n)
        x = 1.0 + 2.0 * s + s * s
        errs.append(np.max(np.abs(_first_derivative(x, np.sin(x))
                                  - np.cos(x[2:-2]))))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 < coarse / fine < 20.0


@pytest.mark.parametrize("N, p, a", [(2, 3.0, 2.126), (1, 3.0, 2.5),
                                     (3, 2.5, 4.1)])
def test_residual_converged_backward(N, p, a):
    P = derive_params(N, p, 1.0)
    phi = residual_grade(P, a, Direction.BACKWARD)
    psi = psi_from_phi(phi, P)
    res = system_residual(phi, psi, P, Direction.BACKWARD)
    assert res.res1 < 1e-6
    assert res.res2 < 1e-6
    assert res.identity < 1e-6


@pytest.mark.parametrize("N, p, b", [(3, 2.5, 1.0), (3, 1.8, 1.0),
                                     (2, 2.0, 0.0), (1, 2.0, 0.5)])
def test_residual_converged_forward(N, p, b):
    P = derive_params(N, p, 1.0)
    phi = residual_grade(P, b, Direction.FORWARD)
    psi = psi_from_phi(phi, P)
    res = system_residual(phi, psi, P, Direction.FORWARD)
    assert res.res1 < 1e-6
    assert res.res2 < 1e-6
    assert res.identity < 1e-6


def test_residual_grade_caps_steps_where_phi_is_positive():
    # phi = e^u underflows to 0 near r = 51.76 here, inside the scout's
    # last step (r = 15 to 100).  A cap sized from the scout's last
    # radius left 290 nodes in the test window [0.1 R, 0.9 R] and an
    # identity residual of 1.4e-8; one sized from its last node where
    # phi > 0 moved with the grid (5,483 nodes from r = 15).  Sized from
    # where phi vanishes on the dense output, the window gets 2,400.
    P = derive_params(1, 2.0, 1.0)
    phi = residual_grade(P, 0.5, Direction.FORWARD)
    R = float(phi.r[phi.phi > 0.0][-1])
    n_window = int(np.count_nonzero((phi.r >= 0.1 * R) & (phi.r <= 0.9 * R)))
    assert 2000 <= n_window <= 3000
    assert phi.opts.h_max < R / 2000
    res = system_residual(phi, psi_from_phi(phi, P), P, Direction.FORWARD)
    assert res.identity < 1e-8
    assert max(res.res1, res.res2) < 1e-6


def test_residual_grade_span_does_not_depend_on_the_grid():
    # the scout steps over the radius where e^u underflows; two tolerances
    # give different grids and the same span, to the error in u over |u'|
    P = derive_params(1, 2.0, 1.0)
    spans = []
    for tol in (1e-10, 1e-12):
        fp = solve_forward(P, 0.5, IntegratorOptions(rel_tol=tol, abs_tol=tol))
        phi = phi_from_forward(fp)
        assert phi.span < 0.9 * _positive_span(fp.sol, phi, P)
        spans.append(_positive_span(fp.sol, phi, P))
    assert abs(spans[0] - spans[1]) < 1e-8 * spans[1]


def test_residual_window_guards():
    P = derive_params(2, 3.0, 1.0)
    # the window [0.1, 0.9] of the support holds 5, then 8 nodes; nested
    # five-point stencils need 9
    for n in (5, 8):
        r = np.linspace(0.1, 0.9, n)
        tiny = PhiProfile(r, np.ones(n), CompactTail(1.0))
        with pytest.raises(DomainError, match="fewer than 9 grid points"):
            system_residual(tiny, psi_from_phi(tiny, P), P,
                            Direction.BACKWARD)
    # a profile that vanishes on an interior gap of the window
    r = np.linspace(0.01, 1.0, 100)
    gap = np.where((r > 0.4) & (r < 0.6), 0.0, (1.0 - r * r) ** 2)
    phig = PhiProfile(r, gap, CompactTail(1.0))
    with pytest.raises(DomainError,
                       match="phi must be positive on the test window"):
        system_residual(phig, psi_from_phi(phig, P), P, Direction.BACKWARD)

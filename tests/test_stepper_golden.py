"""Bit identity of the DP5(4) stepper on four pinned trajectories.

Each digest covers the accepted grid (r, u, w, energy), the per-step dense
output (_h, _q), every recorded event and the termination with its step
counts.  Like tests/test_golden.py, the digests pin every double, so they
hold only for the Python and numpy versions they were recorded with.
Regenerate them with `stepper_digest` when a change is meant to alter the
stepper's arithmetic, and say so.
"""

import hashlib
import platform
from dataclasses import astuple

import numpy as np
import pytest

from plks.backward import solve_backward, zero_energy_height
from plks.forward import solve_forward
from plks.params import derive_params

RECORDED_WITH = {"python": "3.11.7", "numpy": "2.4.6"}
_RUNNING = {"python": platform.python_version(), "numpy": np.__version__}


def stepper_digest(sol) -> str:
    h = hashlib.sha256()
    for arr in (sol.r, sol.u, sol.w, sol.energy, sol._h, sol._q):
        a = np.ascontiguousarray(arr, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    for e in sol.events:
        h.update(f"{e.kind.value} {e.r.hex()} {e.u.hex()} {e.w.hex()};".encode())
    h.update(f"{sol.termination.value} {sol.n_steps} {sol.n_rejected}".encode())
    return h.hexdigest()


def _slow_p():
    # the long P trajectory: 64,105 accepted and 8,451 rejected steps
    # (107,237 and 44,007 when every step was taken in (u, w))
    return solve_backward(derive_params(2, 3.0), 0.845)


def _fast_backward():
    return solve_backward(derive_params(3, 1.8), 1.0)


def _linear_forward():
    # exp forcing, run until u passes the floor
    return solve_forward(derive_params(2, 2.0), 0.0).sol


def _zero_energy_n1():
    P = derive_params(1, 3.0)
    return solve_backward(P, zero_energy_height(P))


# run, sha256, accepted steps, rejected steps, and the StepStats counters:
# rejections by error, defect and overflow, bisection halvings, energy
# steps, Newton iterations and flux-zero retakes
GOLDEN = {
    "slow-P": (
        _slow_p,
        "41e6a6b45370a6b6bf684d1a27a0cac184c755c346cc8b64521bbd5f01405d75",
        64105, 8451, (8448, 3, 0, 79561, 25591, 358541, 0)),
    "fast-backward": (
        _fast_backward,
        "876d7aa1340cc633943f7c23f89c911e1eb7ad73cf06bf7778f9114736f67724",
        9852, 975, (941, 34, 0, 5964, 0, 0, 0)),
    "linear-forward": (
        _linear_forward,
        "5140e8e39ec3ba4d37da6dc0bbce8747e29a68ede8084bc29976a1b950678c96",
        146, 2, (0, 2, 0, 0, 0, 0, 0)),
    "zero-energy-N1": (
        _zero_energy_n1,
        "5ec8424a26506386ed48b17e7fc796d6deabd2a900adae3d17b4b94e97ace4cb",
        27377, 12905, (2931, 9955, 19, 8015, 7569, 97062, 0)),
}


@pytest.fixture(scope="module")
def slow_p():
    return _slow_p()


def _run(name, slow_p):
    return slow_p if name == "slow-P" else GOLDEN[name][0]()


@pytest.mark.skipif(
    _RUNNING != RECORDED_WITH,
    reason=f"digests recorded with {RECORDED_WITH}, running {_RUNNING}")
@pytest.mark.parametrize("name", list(GOLDEN))
def test_stepper_is_bit_identical(name, slow_p):
    _, want, n_steps, n_rejected, stats = GOLDEN[name]
    sol = _run(name, slow_p)
    assert (sol.n_steps, sol.n_rejected) == (n_steps, n_rejected)
    assert astuple(sol.stats) == stats
    assert stepper_digest(sol) == want, f"{name} trajectory changed"


def test_rejection_causes_on_the_p_trajectory(slow_p):
    st = slow_p.stats
    assert st.rejected_error + st.rejected_defect + st.rejected_overflow \
        == slow_p.n_rejected
    # the P trajectory loses steps to the error estimate next to flux
    # zeros, and a few to the defect check as well
    assert st.rejected_error > 0 and st.rejected_defect > 0
    # one bisection per located event, each a few dozen halvings at most
    n_located = sum(1 for e in slow_p.events
                    if e.kind.value in ("u-zero", "u-prime-zero"))
    assert n_located > 0
    assert n_located <= st.bisection_iterations <= 200 * n_located


def test_turns_of_the_p_trajectory_are_stepped_in_energy(slow_p):
    # every accepted step across a sign change of w was taken in (E, w)
    across = slow_p.w[:-1] * slow_p.w[1:] < 0.0
    in_energy = np.isfinite(slow_p._e)
    assert np.count_nonzero(across) > 4000
    assert not np.any(across & ~in_energy)
    assert slow_p.stats.energy_steps == np.count_nonzero(in_energy)

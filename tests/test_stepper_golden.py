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
    # the long P trajectory: 107,237 accepted and 44,007 rejected steps
    return solve_backward(derive_params(2, 3.0), 0.845)


def _fast_backward():
    return solve_backward(derive_params(3, 1.8), 1.0)


def _linear_forward():
    # exp forcing, run until u passes the floor
    return solve_forward(derive_params(2, 2.0), 0.0).sol


def _zero_energy_n1():
    P = derive_params(1, 3.0)
    return solve_backward(P, zero_energy_height(P))


# run, sha256, accepted steps, rejected steps
GOLDEN = {
    "slow-P": (
        _slow_p,
        "e84acafb605366167d1382def1ab70fb38874497f5af03c07de8acf74726f6fe",
        107237, 44007),
    "fast-backward": (
        _fast_backward,
        "876d7aa1340cc633943f7c23f89c911e1eb7ad73cf06bf7778f9114736f67724",
        9852, 975),
    "linear-forward": (
        _linear_forward,
        "5140e8e39ec3ba4d37da6dc0bbce8747e29a68ede8084bc29976a1b950678c96",
        146, 2),
    "zero-energy-N1": (
        _zero_energy_n1,
        "7a590951b0151de6b55eb941ba265eef5e2f4b78138385cb2e8e2cc6e10463e1",
        42393, 24190),
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
    _, want, n_steps, n_rejected = GOLDEN[name]
    sol = _run(name, slow_p)
    assert (sol.n_steps, sol.n_rejected) == (n_steps, n_rejected)
    assert stepper_digest(sol) == want, f"{name} trajectory changed"


def test_rejection_causes_on_the_p_trajectory(slow_p):
    st = slow_p.stats
    assert st.rejected_error + st.rejected_defect + st.rejected_overflow \
        == slow_p.n_rejected
    # the P trajectory loses steps to the error estimate across flux zeros
    # (ROADMAP item 2) and to the defect check as well
    assert st.rejected_error > 0 and st.rejected_defect > 0
    # one bisection per located event, each a few dozen halvings at most
    n_located = sum(1 for e in slow_p.events
                    if e.kind.value in ("u-zero", "u-prime-zero"))
    assert n_located > 0
    assert n_located <= st.bisection_iterations <= 200 * n_located

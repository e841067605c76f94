"""The host's current speed, read from a fixed reference loop.

The benchmark host shares its cores with other tenants.  The same code runs
up to 2x slower in phases that last from seconds to minutes, longer than one
run, so no statistic over the passes of one run removes them.  This module
times a fixed loop of the kinds of work plks does (float arithmetic in a
Python closure, lists of tuples turned into arrays, a numpy pass) and
nothing of plks, so that a change to plks leaves its time alone.  The loop runs a few times
right before and right after each timed operation.  The run's slowdown is
the median of all those samples over REF_S, and every time of the run is
divided by it: the figures are seconds at the speed at which the loop takes
REF_S.

Set-up probes, which are fresh interpreters, have a reference process
instead (REF_PROCESS, below): one runs before the first probe and one after
each probe, and their median over REF_PROCESS_S is the set-up's slowdown.

One sample lasts about a millisecond and says little about the second-long
operation next to it: per operation, the ratio would add noise.  Pooled over
a run, the samples track the host's phase, which is what moves a run's
figures against another run's.

REF_S is about the loop's time on an idle 2-vCPU Intel Xeon host, so the
reported seconds read as seconds on such a host.  On other hosts they are
still comparable between two versions of plks, which is what they are for.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

REF_STEPS = 500       # RK4 steps of the loop
REF_VECTOR = np.arange(100_000, dtype=float)    # 0.8 MB
REF_S = 1.0e-3         # nominal seconds of the loop
SAMPLES = 3            # loop runs on each side of an operation

# Set-up probes are fresh interpreters that spend most of their time
# importing scipy.integrate, and they slow with the host about half as much
# as the loop does.  Their reference is a fresh interpreter that imports
# scipy.integrate alone, which plks cannot change.
REF_PROCESS = ("-c", "import scipy.integrate")
REF_PROCESS_S = 0.5    # nominal seconds of that process


def reference_loop(n: int = REF_STEPS) -> float:
    """One sample of the work plks does, with no plks code in it.

    n RK4 steps of u'' = -|u|^1.5 sign(u) in a Python closure, kept in lists
    of floats and tuples that become arrays, as the stepper keeps its
    trajectory, then one numpy pass over REF_VECTOR.
    """
    def rhs(u, w):
        return w, -math.copysign(abs(u) ** 1.5, u)

    u, w, h = 1.0, 0.0, 0.01
    rs, us, ks = [], [], []
    for i in range(n):
        k1u, k1w = rhs(u, w)
        k2u, k2w = rhs(u + 0.5 * h * k1u, w + 0.5 * h * k1w)
        k3u, k3w = rhs(u + 0.5 * h * k2u, w + 0.5 * h * k2w)
        k4u, k4w = rhs(u + h * k3u, w + h * k3w)
        u += h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        w += h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        rs.append(i * h)
        us.append(u)
        ks.append(((k1u, k2u, k3u, k4u), (k1w, k2w, k3w, k4w)))
    arrays = np.asarray(rs), np.asarray(us), np.asarray(ks)
    return float((REF_VECTOR * 1.5 + 2.0).sum()) + sum(float(a[-1].sum()) for a in arrays)


def sample(k: int = SAMPLES) -> list[float]:
    """Seconds of k runs of the reference loop."""
    out = []
    for _ in range(k):
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)
    return out


def process_sample(env: dict) -> float:
    """Wall seconds of one reference process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *REF_PROCESS], env=env, capture_output=True,
                   check=True, timeout=60)
    return time.perf_counter() - t0


def slowdown(samples: list[float], nominal: float = REF_S) -> float:
    """How much slower than nominal the host ran while these were taken."""
    return statistics.median(samples) / nominal


class Timed:
    """Time a block; the reference loop runs on both sides of it.

        with Timed() as t:
            work()
        t.seconds, t.ref    # wall seconds, reference-loop samples
    """

    def __init__(self, samples: int = SAMPLES):
        self.samples = samples

    def __enter__(self):
        self.ref = sample(self.samples)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        self.ref += sample(self.samples)
        return False

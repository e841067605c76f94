"""The three benchmark workloads: inputs from a seed, one pass, and its checks.

Every workload is a closed loop in one process: each task starts only after
the previous one has finished.  A pass runs the whole task list once;
`run.py` repeats passes for the measured time.  Each operation is timed on
its own, under a phase name, and only the library call is timed, not its
check; the reference loop of `hostspeed` runs on both sides of it.  A run
reports each operation at its median over the passes (`phase_seconds`),
divided by the run's slowdown.

The checks compare against references that do not depend on the stepper's
exact bytes: closed forms, the bisected a_c, the library's own gates and the
CLI's verdicts.  An operation that raises a library error counts as failed;
an operation whose result breaks a check counts as failed and as wrong.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from plks import backward, forward, radial_ode, reconstruct
from plks import params as P
from plks.errors import DeltaTestError, EnergyLawError

import hostspeed
import tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# Library errors, and the arithmetic errors the stepper can let through,
# fail the one operation that raised them.  Anything else is a bug in the
# benchmark and stops the run.
FAILURES = (ValueError, ArithmeticError, RuntimeError, EnergyLawError,
            DeltaTestError)

# Commands run as their own processes; a run ends well inside 180 s.
PROCESS_TIMEOUT_S = 150.0
# A process runs for a second or more, so the host's speed around it is
# read from more reference-loop runs than around a short library call.
PROCESS_REF_SAMPLES = 10


@dataclass(frozen=True)
class Size:
    p_per_N: int                 # stratified p draws per dimension
    sweep_strata: tuple          # strata whose point is also swept
    sweep_heights: int
    r_max: float                 # radius of the profiles trajectories
    setup_probes: int            # measured set-up repeats (after one warm-up)
    import_probes: int           # `-X importtime` repeats in traced runs


SIZES = {
    "full": Size(8, (2, 6), 64, 1e3, 3, 3),
    "tiny": Size(2, (1,), 8, 50.0, 1, 1),
}


class Ops:
    """Operations of one pass: attempted, failed, failed by a wrong result.

    seconds maps (phase, operation) to the operation's wall time in this
    pass; ref holds the reference-loop samples taken next to them.
    """

    def __init__(self, ref_samples: int = hostspeed.SAMPLES):
        self.ref_samples = ref_samples
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []
        self.seconds: dict[tuple[str, str], float] = {}
        self.ref: list[float] = []

    def run(self, phase: str, what: str, fn: Callable, check: Callable,
            count: int = 1):
        """Attempt `count` operations carried out by one call of fn.

        check(result) returns a list of problems; each one fails one of the
        operations (at most count) and marks the result wrong.
        """
        self.attempted += count
        failure = None
        with hostspeed.Timed(self.ref_samples) as timed:
            try:
                result = fn()
            except FAILURES as exc:
                failure = exc
        self.seconds[(phase, what)] = timed.seconds
        self.ref += timed.ref
        if failure is not None:
            self.failed += count
            self.notes.append(f"{what}: {type(failure).__name__}: {failure}")
            return None
        problems = check(result)
        if problems:
            bad = min(len(problems), count)
            self.failed += bad
            self.wrong += bad
            self.notes.append(f"{what}: {'; '.join(problems[:3])}")
        return result

    def unreachable(self, what: str, count: int = 1) -> None:
        """Operations that cannot run because one they depend on failed."""
        self.attempted += count
        self.failed += count
        self.notes.append(f"{what}: not run, a prerequisite failed")


def phase_seconds(passes: list) -> dict[str, float]:
    """Wall seconds per phase: each operation at its median over the passes,
    summed over the operations of the phase."""
    times: dict[tuple[str, str], list] = {}
    for ops in passes:
        for key, seconds in ops.seconds.items():
            times.setdefault(key, []).append(seconds)
    phases: dict[str, float] = {}
    for (phase, _), ts in times.items():
        phases[phase] = phases.get(phase, 0.0) + statistics.median(ts)
    return phases


@dataclass
class PassResult:
    figures: dict = field(default_factory=dict)    # figures other than times
    counters: dict = field(default_factory=dict)   # the benchmark's own counters
    spans: list = field(default_factory=list)


def _traced(enabled: bool):
    """A tracer to use as a context; it records spans only when enabled."""
    tr = tracer.Tracer()
    return tr if enabled else contextlib.nullcontext(tr)


# ---------------------------------------------------------------------------
# critical_map: many short integrations (bisections, then sweeps)

@dataclass(frozen=True)
class CriticalMapInputs:
    points: tuple          # (N, p), p stratified per N
    sweep_points: tuple    # a subset of points, swept around their a_c


# The seeded draws start EDGE above the admissibility threshold.  Closer in,
# the N = 1 bisection fails at scattered p (DomainError at 2.001,
# OverflowError from 2.003 up to 2.081) and the N = 2 bisection slows
# without bound as p -> 2, so draws there would make both the failure count
# and run_s depend on the seed.  EDGE_OFFSETS keep that band in every pass
# instead; p = 2.05 at N = 1 fails today.
EDGE = 0.15
EDGE_OFFSETS = ((1, 0.05), (2, 0.02), (3, 0.02))


def critical_map_inputs(seed: int, size: Size) -> CriticalMapInputs:
    rng = random.Random(seed)
    points, sweeps = [], []
    for N in (1, 2, 3):
        lo = max(2.0, P.admissible_p_threshold(N)) + EDGE
        width = (4.0 - lo) / size.p_per_N
        for k in range(size.p_per_N):
            # uniform on the stratum (lo + k width, lo + (k + 1) width]
            p = lo + (k + 1 - rng.random()) * width
            points.append((N, p))
            if k in size.sweep_strata:
                sweeps.append((N, p))
    for N, offset in EDGE_OFFSETS:
        points.append((N, max(2.0, P.admissible_p_threshold(N)) + offset))
    return CriticalMapInputs(tuple(points), tuple(sweeps))


def closed_form_a_c(params) -> float:
    """N = 1: the conserved energy puts a_c where G(a) = G(0)."""
    q = params.q
    return ((q + 1.0) / (params.m * params.chi)) ** (1.0 / q)


def _check_a_c(N: int, p: float, rel_errs: list):
    def check(cr):
        if not (math.isfinite(cr.a_c) and cr.a_c > 0.0):
            return [f"a_c = {cr.a_c!r}"]
        if N == 1:
            exact = closed_form_a_c(P.derive_params(N, p))
            rel = abs(cr.a_c - exact) / exact
            rel_errs.append(rel)
            if not rel < 1e-6:
                return [f"a_c {cr.a_c!r} off the closed form {exact!r} by {rel:.3g}"]
        return []
    return check


# Heights closer to a_c than this share are not held to a side: the a_c
# bisection is only as exact as the integration that classifies.
SWEEP_BAND = 1e-6


def _check_sweep(a_c: float):
    def check(sw):
        problems = []
        for c in sw.classifications:
            if c.label == "Inconclusive":
                problems.append(f"a = {c.a:.9g}: Inconclusive ({c.reason})")
            elif c.a < a_c * (1.0 - SWEEP_BAND) and c.label != "P":
                problems.append(f"a = {c.a:.9g} < a_c classifies {c.label}")
            elif c.a > a_c * (1.0 + SWEEP_BAND) and c.label != "N":
                problems.append(f"a = {c.a:.9g} > a_c classifies {c.label}")
        return problems
    return check


def critical_map_pass(inp: CriticalMapInputs, size: Size, ops: Ops,
                      traced: bool) -> PassResult:
    a_c: dict = {}
    rel_errs: list = []
    with _traced(traced) as tr:
        for N, p in inp.points:
            cr = ops.run("bisection_s", f"find_critical_a N={N} p={p!r}",
                         lambda: backward.find_critical_a(P.derive_params(N, p)),
                         _check_a_c(N, p, rel_errs))
            if cr is not None:
                a_c[(N, p)] = cr.a_c
        for N, p in inp.sweep_points:
            what = f"sweep_a N={N} p={p!r}"
            if (N, p) not in a_c:
                ops.unreachable(what, size.sweep_heights)
                continue
            ac = a_c[(N, p)]
            grid = np.geomspace(0.1 * ac, 3.0 * ac, size.sweep_heights)
            ops.run("sweep_s", what,
                    lambda: backward.sweep_a(P.derive_params(N, p), grid),
                    _check_sweep(ac), count=size.sweep_heights)
    return PassResult({"a_c_rel_err": max(rel_errs, default=0.0)},
                      spans=tr.spans)


def critical_map_rates(seconds: dict, inp: CriticalMapInputs, size: Size) -> dict:
    rates = {"a_c_per_s": len(inp.points) / seconds["bisection_s"]}
    if "sweep_s" in seconds:    # absent when no sweep could run
        rates["heights_per_s"] = (len(inp.sweep_points) * size.sweep_heights
                                  / seconds["sweep_s"])
    return rates


# ---------------------------------------------------------------------------
# profiles: long trajectories, their energy audit, and the verification chain

@dataclass(frozen=True)
class ProfilesInputs:
    trajectories: tuple    # (label, N, p, a)


def profiles_inputs(seed: int, size: Size) -> ProfilesInputs:
    rng = random.Random(seed)
    a_p = 0.845 * (1.0 + 0.001 * (2.0 * rng.random() - 1.0))
    ze2 = backward.zero_energy_height(P.derive_params(2, 3.0))
    ze1 = backward.zero_energy_height(P.derive_params(1, 3.0))
    return ProfilesInputs((
        ("P N=2 p=3", 2, 3.0, a_p),
        ("zero-energy N=2 p=3", 2, 3.0, ze2),
        ("zero-energy N=1 p=3", 1, 3.0, ze1),
    ))


class CountingGaussian:
    """exp(-|x|^2), the CLI's delta-test function, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x) -> float:
        self.calls += 1
        return math.exp(-float(np.dot(x, x)))


def _check_positive_trajectory(sol):
    if sol.termination is not radial_ode.Termination.REACHED_RMAX:
        return [f"terminated by {sol.termination.value} at r = {sol.r_end:g}"]
    if sol.zeros() or not float(np.min(sol.u)) > 0.0:
        return ["trajectory reached u = 0"]
    return []


def _check(cond: bool, message: str) -> list:
    return [] if cond else [message]


DELTA_TIMES = tuple(0.25 ** k for k in range(7))


def profiles_pass(inp: ProfilesInputs, size: Size, ops: Ops,
                  traced: bool) -> PassResult:
    opts = radial_ode.IntegratorOptions(r_max=size.r_max)
    gauss = CountingGaussian()

    def trajectory(N, p, a):
        sol = backward.solve_backward(P.derive_params(N, p), a, opts)
        radial_ode.energy_derivative_check(sol)
        return sol

    with _traced(traced) as tr:
        for label, N, p, a in inp.trajectories:
            ops.run("trajectory_s", f"trajectory {label} a={a!r}",
                    lambda: trajectory(N, p, a), _check_positive_trajectory)
        _verification_chain(ops, gauss)
    return PassResult(counters={"reconstruct.delta_test.f_calls": gauss.calls},
                      spans=tr.spans)


def _verification_chain(ops: Ops, gauss: CountingGaussian) -> None:
    def run(what, fn, check):
        return ops.run("verify_s", what, fn, check)

    pb = P.derive_params(2, 3.0)
    phi = run("residual_grade_backward N=2 p=3 a=2.126",
              lambda: reconstruct.residual_grade_backward(pb, 2.126),
              lambda ph: _check(ph.support_radius is not None
                                and bool(np.all(np.isfinite(ph.phi))),
                                "profile without support radius or finite phi"))
    if phi is None:
        ops.unreachable("psi_from_phi, mass, system_residual", 3)
    else:
        psi = run("psi_from_phi", lambda: reconstruct.psi_from_phi(phi, pb),
                  lambda ps: _check(ps.well_posed, "potential not well posed"))
        run("mass", lambda: reconstruct.mass(phi, pb),
            lambda M: _check(math.isfinite(M) and M > 0.0, f"mass {M!r}"))
        if psi is None:
            ops.unreachable("system_residual")
        else:
            run("system_residual",
                lambda: reconstruct.system_residual(
                    phi, psi, pb, reconstruct.Direction.BACKWARD),
                lambda r: _check(max(r.res1, r.res2, r.identity) < 1e-6,
                                 f"residuals {r} not below 1e-6"))

    pf = P.derive_params(3, 1.8)
    fp = run("solve_forward N=3 p=1.8 b=1",
             lambda: forward.solve_forward(pf, 1.0),
             lambda f: _check(f.sol.termination is not
                              radial_ode.Termination.STEP_UNDERFLOW,
                              "step underflow"))

    def assembled():
        phi_f = reconstruct.phi_from_forward(fp)
        psi_f = reconstruct.psi_from_phi(phi_f, pf)
        return reconstruct.assemble(pf, phi_f, psi_f, reconstruct.Direction.FORWARD)

    ss = None if fp is None else run(
        "assemble N=3 p=1.8", assembled,
        lambda s: _check(s.M is not None and math.isfinite(s.M) and s.M > 0.0,
                         f"mass {s.M!r}"))
    if ss is None:
        ops.unreachable("delta_test")
    else:
        run("delta_test N=3 p=1.8",
            lambda: reconstruct.delta_test(ss, gauss, DELTA_TIMES), _check_delta)

    def decay():
        return forward.fit_decay_rate(
            forward.solve_forward(P.derive_params(2, 2.0), 0.0))

    run("fit_decay_rate N=2 p=2 b=0", decay,
        lambda fit: _check(abs(fit.limit_estimate + 0.25) / 0.25 < 0.02,
                           f"decay rate {fit.limit_estimate!r} not within 2% of -0.25"))


def _check_delta(pairs):
    devs = [d for _, d in pairs]
    problems = _check(all(b < a for a, b in zip(devs, devs[1:])),
                      f"deviations not decreasing: {devs}")
    factor = devs[0] / devs[-1] if devs[-1] > 0.0 else math.inf
    return problems + _check(factor >= 1e3, f"decrease factor {factor:.3g} < 1e3")


# ---------------------------------------------------------------------------
# cli: the six README commands, each its own process, started through
# cli_child.py, which runs `plks.cli.main` and records the process's peak
# resident set (and, traced, its spans)

# The README writes `sweep ... --grid log:0.1:8:16`; the flag is --a-grid
# and the README form exits with code 2.
COMMANDS = (
    ("solve-backward", ("solve-backward", "--N", "2", "--p", "3", "--a", "2.0")),
    ("solve-forward", ("solve-forward", "--N", "3", "--p", "1.8", "--b", "1.0",
                       "--fit-decay")),
    ("find-critical", ("find-critical", "--N", "1", "--p", "3")),
    ("sweep", ("sweep", "--N", "3", "--p", "2.5", "--a-grid", "log:0.1:8:16")),
    ("reconstruct", ("reconstruct", "--N", "2", "--p", "3", "--a", "2.126",
                     "--residual-grade")),
    ("delta-test", ("delta-test", "--N", "3", "--p", "1.8", "--b", "1.0")),
)


@dataclass(frozen=True)
class CliInputs:
    commands: tuple


def cli_inputs(seed: int, size: Size) -> CliInputs:
    """The seed is ignored: the README commands are fixed."""
    return CliInputs(COMMANDS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), capture_output=True,
                          timeout=PROCESS_TIMEOUT_S, check=False)
    return time.perf_counter() - t0, proc


class CommandFailed(RuntimeError):
    """A plks command exited with a code other than 0."""


def run_command(argv: list) -> subprocess.CompletedProcess:
    _, proc = run_process(argv)
    if proc.returncode != 0:
        raise CommandFailed(f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return proc


def _check_verdicts(reports: list):
    def check(proc):
        report = json.loads(proc.stdout)
        reports.append((report, len(proc.stdout)))
        bad = [k for k, ok in report["tolerances_met"].items() if ok is not True]
        return [f"tolerances not met: {bad}"] if bad else []
    return check


def cli_pass(inp: CliInputs, size: Size, ops: Ops, traced: bool) -> PassResult:
    result = PassResult(figures={"peak_rss_mb": 0.0},
                        counters={"reconstruct.delta_test.f_calls": 0} if traced else {})
    record_file = OUT_DIR / f"cli-child-{os.getpid()}.json"
    OUT_DIR.mkdir(exist_ok=True)
    for name, args in inp.commands:
        argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(record_file),
                str(int(traced)), *args, "--format", "json", "--timing"]
        key, reports = (f"cmd.{name}_s", f"plks {name}"), []
        ops.run(*key, lambda: run_command(argv), _check_verdicts(reports))
        if reports:
            report, n_bytes = reports[0]
            handler = report["wall_clock_s"]
            result.figures[f"cli.{name}.handler_s"] = handler
            result.figures[f"cli.{name}.fixed_s"] = ops.seconds[key] - handler
            result.figures[f"cli.{name}.output_bytes"] = n_bytes
        if record_file.exists():
            record = json.loads(record_file.read_text())
            record_file.unlink()
            result.figures["peak_rss_mb"] = max(result.figures["peak_rss_mb"],
                                                record["peak_rss_mb"])
            if traced:
                result.spans.extend(tracer.spans_from_json(record["spans"],
                                                           offset=len(result.spans)))
                result.counters["reconstruct.delta_test.f_calls"] += record["f_calls"]
    return result


# ---------------------------------------------------------------------------
# set-up probes: each runs in a fresh interpreter

_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import plks
import workloads
workloads.WORKLOADS[sys.argv[3]].inputs(int(sys.argv[4]), workloads.SIZES[sys.argv[5]])
print(time.perf_counter() - t0)
"""


def setup_probe(workload: str, seed: int, size: str) -> float:
    """Seconds to import plks and generate the inputs, in a new process.

    For the cli workload, whose inputs are fixed, it is the wall time of a
    whole `python -c "import plks"` process, interpreter start included.
    """
    if workload == "cli":
        wall, proc = run_process([sys.executable, "-c", "import plks"])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.decode()[-300:]}")
        return wall
    _, proc = run_process([sys.executable, "-c", _SETUP_PROBE, str(SRC),
                           str(BENCH_DIR), workload, str(seed), size])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-300:]}")
    return float(proc.stdout.decode().split()[-1])


def import_times() -> dict:
    """import.plks_s and import.scipy_s from `python -X importtime`.

    import.plks_s is the cumulative time of the plks package; import.scipy_s
    sums the self time of every scipy module it pulls in.
    """
    _, proc = run_process([sys.executable, "-X", "importtime", "-c", "import plks"])
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.decode()[-300:]}")
    plks_us = scipy_us = 0
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        if not fields[0].isdigit():
            continue
        self_us, cumulative_us, module = int(fields[0]), int(fields[1]), fields[2]
        if module == "plks":
            plks_us = cumulative_us
        elif module == "scipy" or module.startswith("scipy."):
            scipy_us += self_us
    return {"import.plks_s": plks_us * 1e-6, "import.scipy_s": scipy_us * 1e-6}


def _no_rates(seconds: dict, inp, size: Size) -> dict:
    return {}


@dataclass(frozen=True)
class Workload:
    inputs: Callable      # (seed, size) -> inputs
    run_pass: Callable    # (inputs, size, ops, traced) -> PassResult
    rates: Callable       # (seconds by phase, inputs, size) -> figures
    in_process: bool
    ref_samples: int      # reference-loop runs on each side of an operation


WORKLOADS = {
    "critical_map": Workload(critical_map_inputs, critical_map_pass,
                             critical_map_rates, True, hostspeed.SAMPLES),
    "profiles": Workload(profiles_inputs, profiles_pass, _no_rates, True,
                         hostspeed.SAMPLES),
    "cli": Workload(cli_inputs, cli_pass, _no_rates, False, PROCESS_REF_SAMPLES),
}

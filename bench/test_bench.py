"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

Checks self time on a synthetic span tree, and runs the tiny size of every
workload in both modes to check that each metric BENCHMARK.json names is
emitted with its unit (about a minute on two cores).
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import tracer
from tracer import Span

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def synthetic_tree():
    return [
        Span("backward.find_critical_a", 0.0, 10.0, counters={"n_iterations": 3}),
        Span("radial_ode.integrate", 1.0, 3.0, parent=0,
             counters={"n_steps": 30, "n_rejected": 10}),
        Span("backward.classify", 2.0, 5.0, parent=0),      # overlaps the span above
        Span("radial_ode.integrate", 7.0, 8.0, parent=0,
             counters={"n_steps": 50, "n_rejected": 10}),
        Span("params.derive_params", 1.5, 2.0, parent=1),
        Span("backward.classify", 9.0, 12.0, parent=0),     # runs past its parent
    ]


def test_self_time_subtracts_the_union_of_children_once():
    selfs = tracer.self_times(synthetic_tree())
    # root: 10 minus the covered union [1, 5] + [7, 8] + [9, 10]
    assert selfs == pytest.approx([4.0, 1.5, 3.0, 1.0, 0.5, 3.0])


def test_layer_metrics_on_a_synthetic_tree():
    m = tracer.layer_metrics(synthetic_tree())
    assert m["radial_ode.integrate.calls"] == 2
    assert m["radial_ode.accepted_steps"] == 80
    assert m["radial_ode.rejected_steps"] == 20
    assert m["radial_ode.reject_ratio"] == pytest.approx(0.2)
    assert m["radial_ode.integrate.self_s"] == pytest.approx(2.5)
    assert m["radial_ode.integrate.us_per_attempt"] == pytest.approx(2.5e6 / 100)
    assert m["backward.integrations_per_a_c"] == 2
    assert m["backward.rounds_per_a_c"] == 3
    assert m["backward.classify.calls"] == 2
    assert m["backward.classify.p50_ms"] == pytest.approx(3000.0)
    assert m["backward.self_s"] == pytest.approx(4.0 + 3.0 + 3.0)
    assert m["params.self_s"] == pytest.approx(0.5)


def test_timed_samples_the_reference_loop_on_both_sides():
    with hostspeed.Timed(2) as t:
        pass
    assert len(t.ref) == 4 and all(x > 0.0 for x in t.ref)
    assert t.seconds >= 0.0
    assert hostspeed.slowdown([hostspeed.REF_S, 3 * hostspeed.REF_S,
                               2 * hostspeed.REF_S]) == pytest.approx(2.0)


def test_phase_seconds_takes_each_operations_median_over_passes():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    passes = []
    for a, b in ((1.0, 5.0), (3.0, 4.0), (2.0, 9.0)):
        ops = workloads.Ops()
        ops.seconds = {("x_s", "a"): a, ("x_s", "b"): b, ("y_s", "c"): a + b}
        passes.append(ops)
    assert workloads.phase_seconds(passes) == pytest.approx({"x_s": 2.0 + 5.0,
                                                             "y_s": 7.0})


def test_tracer_wraps_and_restores_the_library():
    sys.path.insert(0, str(ROOT / "src"))
    from plks import backward, params, radial_ode
    original = backward.integrate
    model = params.derive_params(2, 3.0)
    tr = tracer.Tracer()
    with tr:
        assert backward.integrate is not original
        backward.solve_backward(model, 2.0, radial_ode.IntegratorOptions(r_max=5.0))
    assert backward.integrate is original
    assert tr.spans[0].name == "backward.solve_backward"
    integ = [s for s in tr.spans if s.name == "radial_ode.integrate"]
    assert len(integ) == 1 and integ[0].counters["n_steps"] > 0
    assert integ[0].parent == 0


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_results():
    return {(w, t): run_tiny(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(tiny_results, workload, trace):
    line = tiny_results[(workload, trace)]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and 0 <= line["failed"] <= line["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0, m["name"]


def test_every_layer_metric_is_measured_by_some_workload(tiny_results):
    for m in SPEC["per_layer"]:
        if m["name"].startswith("trace.") or m["name"] == "a_c_rel_err":
            continue   # the overhead may read 0 or less; a_c may be exact
        assert any(tiny_results[(w, 1)]["metrics"][m["name"]]["value"] != 0
                   for w in WORKLOADS), m["name"]

"""plks benchmark: measure one workload (or all three) at one seed.

    python3 bench/run.py --workload critical_map --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout; plks is imported from `src/`.  Passes of
the workload's task list repeat until another one would overrun --seconds.
Each operation counts at its median over the passes, and times are divided
by the run's slowdown, read from a reference loop (see hostspeed.py); other
figures are medians over the passes too.  With --trace 0 the passes run
untraced and the JSON line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 untraced and traced passes alternate and the
JSON line carries its per-layer metrics, including the tracing overhead.
The last line of stdout is that JSON object; the lines before it name
every figure with its unit.  Spans of traced passes
are written to bench/out/.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _median_dicts(rows: list) -> dict:
    keys = {k for row in rows for k in row}
    return {k: statistics.median(row[k] for row in rows if k in row) for k in sorted(keys)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6   # KiB


def measure(name: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    """Run one workload; return every figure it produced plus the op counts."""
    import hostspeed
    import tracer
    import workloads

    wl = workloads.WORKLOADS[name]
    size = workloads.SIZES[size_name]
    values: dict = {}
    if trace:
        values.update(_median_dicts([workloads.import_times()
                                     for _ in range(size.import_probes)]))
    else:
        workloads.setup_probe(name, seed, size_name)   # warms the file cache
        env = workloads.child_env()
        ref, probes = [hostspeed.process_sample(env)], []
        for _ in range(size.setup_probes):
            probes.append(workloads.setup_probe(name, seed, size_name))
            ref.append(hostspeed.process_sample(env))
        values["wall.setup_s"] = statistics.median(probes)
        values["host.setup_slowdown"] = hostspeed.slowdown(ref, hostspeed.REF_PROCESS_S)
        values["setup_s"] = values["wall.setup_s"] / values["host.setup_slowdown"]

    inputs = wl.inputs(seed, size)
    plain, traced = [], []    # (Ops, PassResult) of each pass
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for enabled in ((False, True) if trace else (False,)):
            ops = workloads.Ops(wl.ref_samples)
            (traced if enabled else plain).append(
                (ops, wl.run_pass(inputs, size, ops, enabled)))
        now = time.perf_counter()
        if now - t_start + (now - t_round) > seconds:
            break

    slowdown = hostspeed.slowdown([x for ops, _ in plain for x in ops.ref])
    wall = workloads.phase_seconds([ops for ops, _ in plain])
    phases = {phase: seconds / slowdown for phase, seconds in wall.items()}
    values.update(phases)
    values["run_s"] = sum(phases.values())
    values["wall.run_s"] = sum(wall.values())
    values["host.slowdown"] = slowdown
    values.update(wl.rates(phases, inputs, size))
    values.update(_median_dicts([p.figures for _, p in plain]))
    if wl.in_process:
        values["peak_rss_mb"] = _peak_rss_mb()
    all_ops = [ops for ops, _ in plain + traced]
    counts = {k: sum(getattr(ops, k) for ops in all_ops)
              for k in ("attempted", "failed", "wrong")}
    values["failed_frac"] = counts["failed"] / counts["attempted"]
    if trace:
        values.update(_median_dicts([{**tracer.layer_metrics(p.spans), **p.counters}
                                     for _, p in traced]))
        run_traced = (sum(workloads.phase_seconds([ops for ops, _ in traced]).values())
                      / hostspeed.slowdown([x for ops, _ in traced for x in ops.ref]))
        values["trace.overhead_s"] = run_traced - values["run_s"]
        values["trace.overhead_frac"] = values["trace.overhead_s"] / values["run_s"]
        workloads.OUT_DIR.mkdir(exist_ok=True)
        (workloads.OUT_DIR / f"spans-{name}-seed{seed}.json").write_text(json.dumps(
            [tracer.spans_to_json(p.spans) for _, p in traced]))
    notes = list(dict.fromkeys(n for ops in all_ops for n in ops.notes))
    return {"values": values, "passes": len(plain), "notes": notes, **counts}


def result_line(measured: dict, wanted: list, trace: bool) -> dict:
    metrics = {}
    for m in wanted:
        value = measured["values"].get(m["name"])
        if value is None:
            if not trace:
                raise RuntimeError(f"end-to-end metric {m['name']} was not measured")
            value = 0    # the workload does no work in this layer
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": measured["wrong"] == 0, "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def print_report(name: str, measured: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"wall.setup_s": "s", "host.setup_slowdown": "ratio"})
    print(f"== {name}: {measured['passes']} untraced passes, {measured['attempted']} "
          f"operations, {measured['failed']} failed, {measured['wrong']} wrong")
    for key in sorted(measured["values"]):
        if key in units:
            print(f"{name}  {key} = {measured['values'][key]:.6g} {units[key]}")
    for note in measured["notes"]:
        print(f"{name}  failed: {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the self-test's small version of each workload")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "plks" / "__init__.py").is_file():
        print(f"error: no plks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; have {names}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(names, args)
    sys.path.insert(0, str(ROOT / "src"))

    trace = bool(args.trace)
    measured = measure(args.workload, args.seed, args.seconds, trace, args.size)
    print_report(args.workload, measured, spec)
    print(json.dumps(result_line(measured, spec["per_layer"] if trace
                                 else spec["end_to_end"], trace)))
    return 0


def run_all(names: list, args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory is its own."""
    lines = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode != 0 or not out:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        lines[name] = json.loads(out[-1])
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

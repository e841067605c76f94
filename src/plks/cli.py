"""Command-line surface: solve, classify, sweep, and export profile tables.

Every command produces a CSV table and a JSON report carrying the same
columns plus configuration, derived constants, and result metadata.  All
floating-point output uses 17-significant-digit decimal formatting, so a
given configuration yields byte-identical files on every run and each
printed value parses back to the exact double that was computed.  Nothing
in the pipeline draws random numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .backward import (
    ProfileClass,
    find_critical_a,
    solve_backward,
    sweep_a,
    zero_energy_height,
)
from .errors import DomainError, InfiniteMassError, PlksError
from .params import ModelParams, derive_params, phi_of_u
from .radial_ode import (
    IntegratorOptions,
    ProfileSolution,
    energy_derivative_check,
)

# forward and reconstruct import numpy: the handlers that use them import
# them, so that find-critical and sweep run without numpy
if TYPE_CHECKING:
    from .reconstruct import Direction

__all__ = ["main"]


# ---------------------------------------------------------------------------
# deterministic serialization: cells and values are Python bool, int, float,
# str or None; a float is written in fixed 17-significant-digit decimal,
# which round-trips every finite double

def _csv_cell(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return "" if v is None else str(v)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _jval(v, indent: int) -> str:
    if isinstance(v, float):
        return "%.17g" % v if math.isfinite(v) else "null"
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        pad = "  " * (indent + 1)
        items = [pad + json.dumps(str(k)) + ": " + _jval(x, indent + 1)
                 for k, x in v.items()]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        if all(not isinstance(x, (dict, list, tuple)) for x in v):
            return "[" + ", ".join(_jval(x, indent) for x in v) + "]"
        pad = "  " * (indent + 1)
        items = [pad + _jval(x, indent + 1) for x in v]
        return "[\n" + ",\n".join(items) + "\n" + "  " * indent + "]"
    raise TypeError(f"cannot serialize report value {v!r}")


def _json_text(report: dict) -> str:
    return _jval(report, 0) + "\n"


# ---------------------------------------------------------------------------
# shared blocks

def _integrator(args) -> IntegratorOptions:
    return IntegratorOptions(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                             r_max=args.r_max)


def _derived_block(params: ModelParams) -> dict:
    d = {
        "m": params.m,
        "alpha": params.alpha,
        "beta": params.beta,
        "gamma": params.gamma,
        "regime": params.regime.value,
    }
    if params.p != 2.0:
        d["q"] = params.q
        d["B"] = params.B
        d["u_star"] = params.u_star
    else:
        d["u_star_log"] = params.u_star_log
    if params.p > 2.0:
        d["lam"] = params.lam
    return d


def _profile_table(params: ModelParams, sol: ProfileSolution):
    phi = phi_of_u(params, sol.u)
    header = ["r", "u", "w", "E", "phi"]
    rows = [(float(r), float(u), float(w), float(e), float(f))
            for r, u, w, e, f in zip(sol.r, sol.u, sol.w, sol.energy, phi)]
    return header, rows


def _tail_block(tail) -> Optional[dict]:
    return None if tail is None else {"kind": tail.kind, **asdict(tail)}


def _class_row(key, c) -> tuple:
    return (key, c.a, c.label, c.R_of_a, c.terminal_slope)


def _class_block(c) -> dict:
    return {"a": c.a, "class": c.label, "R": c.R_of_a,
            "terminal_slope": c.terminal_slope, "reason": c.reason}


# ---------------------------------------------------------------------------
# command handlers
#
# Each takes the derived parameters and the parsed arguments and returns
# (results, tolerances, header, rows, config_overrides).  main echoes the
# configuration, adds the derived constants and wraps these in the report;
# the overrides replace echoed settings the command resolved or ran at.

def cmd_solve_backward(params: ModelParams, args):
    sol = solve_backward(params, args.a, _integrator(args))
    header, rows = _profile_table(params, sol)
    audit = energy_derivative_check(sol, raise_on_violation=False)
    results = {
        "a": args.a,
        "termination": sol.termination.value,
        "n_steps": sol.n_steps,
        "n_rejected": sol.n_rejected,
        "r_end": sol.r_end,
        "u_end": float(sol.u[-1]),
        "zeros": [float(z) for z in sol.zeros()],
        "energy_initial": float(sol.energy[0]),
        "energy_final": float(sol.energy[-1]),
        # the law is conservation for N = 1 and descent for N >= 2
        "energy_drift": audit.max_drift if params.N == 1
        else audit.max_increase,
    }
    tol = {"energy_law": audit.passed}
    return results, tol, header, rows, {}


def cmd_solve_forward(params: ModelParams, args):
    from .forward import (fit_decay_rate, solve_forward, support_radius,
                          support_radius_upper_bound)
    fp = solve_forward(params, args.b, _integrator(args))
    sol = fp.sol
    header, rows = _profile_table(params, sol)
    results = {
        "b": args.b,
        "regime": fp.regime.value,
        "termination": sol.termination.value,
        "n_steps": sol.n_steps,
        "n_rejected": sol.n_rejected,
        "r_end": sol.r_end,
        "u_end": float(sol.u[-1]),
        "support_radius": fp.support_radius,
        "tail": _tail_block(fp.tail),
    }
    tol = {}
    if fp.support_radius is not None:
        edge = support_radius(fp)
        results["support"] = {
            "R_0": edge.R_0,
            "terminal_u_slope": edge.terminal_u_slope,
            "terminal_phi_slope": edge.terminal_phi_slope,
            "upper_bound": support_radius_upper_bound(params, args.b),
        }
        tol["support_within_bound"] = edge.R_0 <= results["support"]["upper_bound"]
    if args.fit_decay:
        fit = fit_decay_rate(fp)
        rel = abs(fit.limit_estimate - fit.target) / abs(fit.target)
        results["decay"] = {
            "limit_estimate": fit.limit_estimate,
            "target": fit.target,
            "rel_err": rel,
            "raw_estimate": fit.raw_estimate,
            "r_last": fit.r_last,
            "u_level_estimate": fit.u_level_estimate,
            "u_level_target": fit.u_level_target,
        }
        tol["decay_within_2pct"] = rel < 0.02
    return results, tol, header, rows, {}


def cmd_find_critical(params: ModelParams, args):
    if (args.a_lo is None) != (args.a_hi is None):
        raise DomainError("--a-lo and --a-hi must be given together")
    bracket = None if args.a_lo is None else (args.a_lo, args.a_hi)
    res = find_critical_a(params, bracket, _integrator(args),
                          a_tol=args.a_tol)

    header = ["role", "a", "class", "R", "terminal_slope"]
    c_mid = res.classification
    # a_c between the final bracket's endpoints, as the search classified them
    rows = [_class_row("lower", res.lower),
            ("critical", res.a_c, c_mid.label, res.R_c, c_mid.terminal_slope),
            _class_row("upper", res.upper)]

    results = {
        "a_c": res.a_c,
        "bracket_width": res.bracket_width,
        "R_c": res.R_c,
        "n_iterations": res.n_iterations,
        "classification": _class_block(c_mid),
        "certificates": {"lower": _class_block(res.lower),
                         "upper": _class_block(res.upper)},
        "trace": [{"a": t.a, "step": t.step, "tol": t.tol, "class": t.label,
                   "reason": t.reason, "gap": t.gap, "n_steps": t.n_steps,
                   "n_rejected": t.n_rejected, "r_start": t.r_start,
                   "r_end": t.r_end}
                  for t in res.trace],
    }
    tol = {}
    if params.N == 1:
        exact = zero_energy_height(params)
        rel = abs(res.a_c - exact) / exact
        results["closed_form_a_c"] = exact
        results["closed_form_rel_err"] = rel
        tol["closed_form_within_1e-6"] = rel < 1e-6
    return results, tol, header, rows, {}


def _parse_grid(spec: str) -> list[float]:
    """The heights of lin:lo:hi:n or log:lo:hi:n, formed as np.linspace
    and np.geomspace form them: i step + lo (for log, y = i step + log10 lo
    and 10^y), the ends pinned to lo and hi.  A lin grid has numpy's
    doubles; a log grid's interior may differ from numpy's by a few ulps of
    its logarithms, where math.log10 and 10.0 ** y round otherwise."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise DomainError(
            f"grid spec must be lin:lo:hi:n or log:lo:hi:n, got {spec!r}")
    kind, lo_s, hi_s, n_s = parts
    try:
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise DomainError(f"malformed grid spec {spec!r}") from None
    if n < 2 or not (lo < hi):
        raise DomainError(f"grid needs lo < hi and n >= 2, got {spec!r}")
    if kind == "lin":
        d = hi - lo
        step = d / (n - 1)    # numpy scales i/(n - 1) by d if it underflows
        return [(i * step if step else i / (n - 1) * d) + lo
                for i in range(n - 1)] + [hi]
    if kind == "log":
        if lo <= 0.0:
            raise DomainError(f"log grid needs lo > 0, got {spec!r}")
        a = math.log10(lo)
        step = (math.log10(hi) - a) / (n - 1)
        return [lo] + [10.0 ** (i * step + a) for i in range(1, n - 1)] + [hi]
    raise DomainError(f"grid kind must be lin or log, got {kind!r}")


def cmd_sweep(params: ModelParams, args):
    grid = _parse_grid(args.a_grid)
    res = sweep_a(params, grid, _integrator(args))
    header = ["index", "a", "class", "R", "terminal_slope"]
    rows = [_class_row(i, c) for i, c in enumerate(res.classifications)]
    counts: dict = {}
    for c in res.classifications:
        counts[c.label] = counts.get(c.label, 0) + 1
    results = {
        "n_points": len(rows),
        "a_1": res.a_1,
        "a_2": res.a_2,
        "counts": counts,
    }
    tol = {"all_classified":
           counts.get(ProfileClass.INCONCLUSIVE.value, 0) == 0}
    return results, tol, header, rows, {}


def _height(args) -> tuple[Direction, float]:
    from .reconstruct import Direction
    if (args.a is None) == (args.b is None):
        raise DomainError(
            "give one height, --a (backward) or --b (forward), not both or neither")
    return ((Direction.BACKWARD, args.a) if args.b is None
            else (Direction.FORWARD, args.b))


def _reconstructed(params: ModelParams, args):
    """Shared profile pipeline: solve, map to phi, quadrature psi."""
    from .reconstruct import _profile, psi_from_phi, residual_grade
    direction, height = _height(args)
    if getattr(args, "residual_grade", False):
        phi = residual_grade(params, height, direction)
    else:
        phi = _profile(params, height, direction, _integrator(args))
    return direction, height, phi, psi_from_phi(phi, params, strict=False)


def cmd_reconstruct(params: ModelParams, args):
    from .reconstruct import mass, system_residual
    direction, height, phi, psi = _reconstructed(params, args)
    try:
        M: Optional[float] = mass(phi, params)
        mass_note = None
    except InfiniteMassError as exc:
        M, mass_note = None, str(exc)
    res_block = residual_note = None
    if psi.well_posed:
        try:
            res = system_residual(phi, psi, params, direction)
        except DomainError as exc:    # the profile cannot be differenced
            residual_note = str(exc)
        else:
            res_block = {"res1": res.res1, "res2": res.res2,
                         "identity": res.identity}
    header = ["r", "phi", "psi", "dpsi"]
    rows = [(float(r), float(f), float(s), float(ds))
            for r, f, s, ds in zip(phi.r, phi.phi, psi.psi, psi.psi_prime)]
    results = {
        "direction": direction.value,
        "height": height,
        "mass": M,
        "mass_note": mass_note,
        "support_radius": phi.support_radius,
        "tail": _tail_block(phi.tail),
        "well_posed": psi.well_posed,
        "potential_note": psi.detail,
        "i1_total": psi.i1_total,
        "residuals": res_block,
        "residual_note": residual_note,
    }
    tol = {
        "mass_finite": M is not None and M > 0,
        "residuals_below_1e-6": res_block is not None
            and max(res_block["res1"], res_block["res2"],
                    res_block["identity"]) < 1e-6,
    }
    o = phi.sol.opts    # a grade pass runs at its own tolerances and step cap
    overrides = ({"r_max": o.r_max, "rel_tol": o.rel_tol, "abs_tol": o.abs_tol,
                  "h_max": o.h_max} if args.residual_grade else {})
    return results, tol, header, rows, overrides


def cmd_delta_test(params: ModelParams, args):
    # the times, checked before the solve: T - t0 ratio^k backward (t0
    # defaults to T/4), t0 ratio^k forward (to 1), each inside the time
    # domain and strictly nearer the singular time (T, or 0) than the last
    if not (0.0 < args.ratio < 1.0):
        raise DomainError(f"--ratio must lie in (0, 1), got {args.ratio}")
    if args.steps < 1:
        raise DomainError(f"--steps must be >= 1, got {args.steps}")
    _height(args)                 # exactly one of --a and --b
    back = args.b is None
    T = args.T if back else math.inf
    t0 = args.t0 if args.t0 is not None else T / 4.0 if back else 1.0
    times = [T - t0 * args.ratio ** k if back else t0 * args.ratio ** k
             for k in range(args.steps + 1)]
    for k, t in enumerate(times):
        if not (0.0 < t < T and (k == 0 or (times[k - 1] < t if back
                                             else t < times[k - 1]))):
            raise DomainError(
                f"sample time {k} of 0..{args.steps} is t = {t!r}: the times must "
                f"lie in (0, {T:g}) and approach the singular time strictly")
    import numpy as np
    from .reconstruct import assemble, radial_delta_test
    direction, height, phi, psi = _reconstructed(params, args)
    ss = assemble(params, phi, psi, direction, T=args.T)
    # exp(-|x|^2) is radial: its spherical average is exp(-s^2)
    pairs = radial_delta_test(ss, lambda s: np.exp(-s * s), times)
    header = ["t", "deviation"]
    rows = [(float(t), float(d)) for t, d in pairs]
    dev_first, dev_last = rows[0][1], rows[-1][1]
    factor = dev_first / dev_last if dev_last > 0.0 else math.inf
    results = {
        "direction": direction.value,
        "height": height,
        "M": ss.M,
        "deviation_first": dev_first,
        "deviation_last": dev_last,
        "decrease_factor": factor,
    }
    tol = {"decrease_above_1e3": factor >= 1e3}
    return results, tol, header, rows, {}


# ---------------------------------------------------------------------------
# wiring

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--N", type=int, required=True, help="space dimension")
    sp.add_argument("--p", type=float, required=True,
                    help="diffusion exponent, p > 2N/(N+1)")
    sp.add_argument("--chi", type=float, default=1.0, help="drift strength")
    sp.add_argument("--r-max", type=float, default=1e3, dest="r_max",
                    help="scan radius cap")
    sp.add_argument("--rel-tol", type=float, default=1e-10, dest="rel_tol")
    sp.add_argument("--abs-tol", type=float, default=1e-10, dest="abs_tol")
    sp.add_argument("--output", default=None,
                    help="base path: writes <base>.csv and <base>.json")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="stdout stream when --output is absent")
    sp.add_argument("--timing", action="store_true",
                    help="record wall-clock seconds in the report "
                         "(breaks byte determinism)")
    sp.add_argument("--gnuplot", action="store_true",
                    help="also write a <base>.gp plot script (needs --output)")


def _add_reconstruction_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--a", type=float, default=None,
                    help="backward center height u(0)")
    sp.add_argument("--b", type=float, default=None,
                    help="forward center height u(0)")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="plks",
        description="Self-similar profiles of the critical p-Laplacian "
                    "aggregation-diffusion system: shooting, classification, "
                    "and reconstruction tables.")
    sub = top.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("solve-backward",
                        help="integrate a blow-up profile from height a")
    _add_common(sp)
    sp.add_argument("--a", type=float, required=True,
                    help="center height u(0) > 0")
    sp.set_defaults(handler=cmd_solve_backward)

    sp = sub.add_parser("solve-forward",
                        help="integrate a spreading profile from height b")
    _add_common(sp)
    sp.add_argument("--b", type=float, required=True, help="center height u(0)")
    sp.add_argument("--fit-decay", action="store_true", dest="fit_decay",
                    help="fit the far-field decay against its exact limit")
    sp.set_defaults(handler=cmd_solve_forward)

    sp = sub.add_parser("find-critical",
                        help="Brent's method on the signed first minimum for a_c")
    _add_common(sp)
    sp.add_argument("--a-lo", type=float, default=None, dest="a_lo")
    sp.add_argument("--a-hi", type=float, default=None, dest="a_hi")
    sp.add_argument("--a-tol", type=float, default=1e-10, dest="a_tol",
                    help="relative bracket width target")
    sp.set_defaults(handler=cmd_find_critical)

    sp = sub.add_parser("sweep", help="classify a grid of backward heights")
    _add_common(sp)
    sp.add_argument("--a-grid", required=True, dest="a_grid",
                    help="lin:lo:hi:n or log:lo:hi:n")
    sp.set_defaults(handler=cmd_sweep)

    sp = sub.add_parser("reconstruct",
                        help="density, potential, mass, and residuals "
                             "for one profile")
    _add_common(sp)
    _add_reconstruction_flags(sp)
    sp.add_argument("--residual-grade", action="store_true",
                    dest="residual_grade",
                    help="re-solve at tolerance 1e-12, the step capped at "
                         "span/3000 (about 2,400 nodes in the residual window), "
                         "for the fourth-order residual check (internal tolerances)")
    sp.set_defaults(handler=cmd_reconstruct)

    sp = sub.add_parser("delta-test",
                        help="point-concentration deviation table")
    _add_common(sp)
    _add_reconstruction_flags(sp)
    sp.add_argument("--T", type=float, default=1.0,
                    help="blow-up time (backward only)")
    sp.add_argument("--t0", type=float, default=None,
                    help="first sample: offset below T (backward) or "
                         "time (forward); defaults T/4 and 1")
    sp.add_argument("--ratio", type=float, default=0.25,
                    help="geometric shrink factor toward the singular time")
    sp.add_argument("--steps", type=int, default=6,
                    help="number of geometric shrink steps")
    sp.set_defaults(handler=cmd_delta_test)

    return top


def _gnuplot_text(base: str, header: Sequence[str]) -> str:
    name = Path(base).name + ".csv"
    plots = ", \\\n     ".join(
        f"'{name}' using 1:{i} with lines"
        for i in range(2, len(header) + 1))
    return ("set datafile separator ','\n"
            "set key autotitle columnhead\n"
            f"set xlabel '{header[0]}'\n"
            f"plot {plots}\n")


def _emit(args, report: dict, header: Sequence[str],
          rows: Sequence[Sequence]) -> None:
    """Format and write only the streams that go out."""
    if args.output or args.format == "json":
        report["columns"] = {h: [row[i] for row in rows] for i, h in enumerate(header)}
    if args.output:
        Path(args.output + ".csv").write_text(_csv_text(header, rows))
        Path(args.output + ".json").write_text(_json_text(report))
        if args.gnuplot:
            Path(args.output + ".gp").write_text(
                _gnuplot_text(args.output, header))
    elif args.format == "csv":
        sys.stdout.write(_csv_text(header, rows))
    else:
        sys.stdout.write(_json_text(report))


# dispatch and output routing; every other argument is echoed as config
_NOT_ECHOED = ("command", "output", "format", "timing", "gnuplot", "handler")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.gnuplot and not args.output:
            raise DomainError("--gnuplot needs --output")
        start = time.perf_counter()
        params = derive_params(args.N, args.p, args.chi)
        results, tol, header, rows, overrides = args.handler(params, args)
    except PlksError as exc:
        print(f"error[{type(exc).__name__}] {exc}", file=sys.stderr)
        return exc.exit_code
    config = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    config.update(overrides)
    report = {
        "schema": 1,
        "command": args.command,
        "config": config,
        "derived": _derived_block(params),
        "results": results,
        "columns": None,    # the table, filled in only when JSON is written
        "wall_clock_s": time.perf_counter() - start if args.timing else None,
        "tolerances_met": tol,
    }
    _emit(args, report, header, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())

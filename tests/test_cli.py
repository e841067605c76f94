"""Command-line surface: exit codes, table formats, and byte determinism."""

import contextlib
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import plks.cli
import plks.errors
import plks.reconstruct
from plks import (
    IntegratorOptions,
    ProfileClass,
    derive_params,
    energy_derivative_check,
    find_critical_a,
    solve_backward,
)
from plks.cli import _json_text, main


def _run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def _csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _column(text, name):
    header, rows = _csv_rows(text)
    i = header.index(name)
    return np.array([float(row[i]) for row in rows])


# ---------------------------------------------------------------------------
# solve-backward

def test_solve_backward_oscillatory(capsys):
    rc, out, _ = _run(["solve-backward", "--N", "1", "--p", "3",
                       "--chi", "1", "--a", "0.5", "--r-max", "40"], capsys)
    assert rc == 0
    header, _ = _csv_rows(out)
    assert header == ["r", "u", "w", "E", "phi"]
    u = _column(out, "u")
    assert np.all(u > 0.0)
    # oscillation around the equilibrium height
    u_star = 0.25 ** 0.125
    signs = np.sign(u - u_star)
    assert np.sum(signs[1:] != signs[:-1]) >= 4


def test_solve_backward_report_fields(capsys):
    rc, out, _ = _run(["solve-backward", "--N", "2", "--p", "3", "--a", "2.5",
                       "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["command"] == "solve-backward"
    assert rep["config"]["N"] == 2
    assert rep["derived"]["regime"] == "slow"
    assert rep["results"]["termination"] == "u-crossed-zero"
    assert len(rep["results"]["zeros"]) == 1
    assert rep["wall_clock_s"] is None
    assert rep["tolerances_met"]["energy_law"] is True
    # the JSON mirrors every CSV column
    assert set(rep["columns"]) == {"r", "u", "w", "E", "phi"}
    n = len(rep["columns"]["r"])
    assert all(len(col) == n for col in rep["columns"].values())


def test_solve_backward_energy_verdict_is_the_library_law(capsys):
    # |E(r0)| is about 4e-11 here; the law's scale is floored at the well
    # depth, and the report must carry the library's verdict
    rc, out, _ = _run(["solve-backward", "--N", "3", "--p", "2.5",
                       "--a", "1.3915788418568702", "--format", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["tolerances_met"]["energy_law"] is True


@pytest.mark.parametrize("N, a, r_max, figure", [
    (2, 2.0, 1e3, "max_increase"),   # the README command
    (1, 0.5, 40.0, "max_drift"),
])
def test_solve_backward_energy_drift_is_the_library_figure(
        N, a, r_max, figure, capsys):
    # N >= 2 reports the largest increase of E, floored at 0; N = 1 the
    # largest departure from E(r0)
    rc, out, _ = _run(["solve-backward", "--N", str(N), "--p", "3",
                       "--a", str(a), "--r-max", str(r_max),
                       "--format", "json"], capsys)
    assert rc == 0
    drift = json.loads(out)["results"]["energy_drift"]
    sol = solve_backward(derive_params(N, 3.0), a, IntegratorOptions(r_max=r_max))
    check = energy_derivative_check(sol, raise_on_violation=False)
    assert drift >= 0.0
    assert drift == getattr(check, figure)


def test_solve_backward_p2_runs_past_phi_equal_1(capsys):
    # at p = 2, u = ln phi is 0 where phi = 1, inside the profile: the run
    # and the reconstructed profile go on to r_max instead of ending there
    argv = ["--N", "2", "--p", "2", "--a", "1", "--format", "json"]
    rc, out, _ = _run(["solve-backward"] + argv, capsys)
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["termination"] == "reached-rmax" and res["r_end"] == 1000
    assert res["zeros"][0] == pytest.approx(1.98668, abs=1e-5)
    assert len(res["zeros"]) > 100
    rc, out, _ = _run(["reconstruct"] + argv, capsys)
    assert rc == 0
    assert json.loads(out)["columns"]["r"][-1] == 1000


def test_solve_backward_low_p_exit2(capsys):
    rc, _, err = _run(["solve-backward", "--p", "1.2", "--N", "3",
                       "--a", "1"], capsys)
    assert rc == 2
    assert err.startswith("error[DomainError]")


def test_solve_backward_zero_height_exit2(capsys):
    rc, _, err = _run(["solve-backward", "--N", "1", "--p", "3",
                       "--a", "0"], capsys)
    assert rc == 2
    assert "error[DomainError]" in err


_SOLVE = ["solve-backward", "--N", "2", "--p", "3", "--a", "2.0"]


@pytest.mark.parametrize("argv", [
    _SOLVE + ["--rel-tol", "0", "--abs-tol", "0"],
    ["find-critical", "--N", "1", "--p", "3", "--rel-tol", "0", "--abs-tol", "0"],
    _SOLVE + ["--rel-tol=-1e-10", "--abs-tol=-1e-10"],
    _SOLVE + ["--r-max", "nan"],
])
def test_bad_integrator_settings_exit2(argv, capsys):
    rc, out, err = _run(argv, capsys)
    assert rc == 2
    assert err.startswith("error[DomainError] integrator settings")
    assert out == ""


# ---------------------------------------------------------------------------
# exit codes: each error type carries its own

_EXIT_CODES = {"DomainError": 2, "BadBracketError": 4}    # the rest: 3
_ERROR_TYPES = [c for _, c in inspect.getmembers(plks.errors, inspect.isclass)
                if c.__module__ == "plks.errors"]


@pytest.mark.parametrize("exc_type", _ERROR_TYPES, ids=lambda c: c.__name__)
def test_error_type_carries_its_exit_code(exc_type, monkeypatch, capsys):
    assert issubclass(exc_type, plks.errors.PlksError)
    assert exc_type.exit_code == _EXIT_CODES.get(exc_type.__name__, 3)

    def handler(params, args):
        raise exc_type("the message")

    monkeypatch.setattr(plks.cli, "cmd_solve_backward", handler)
    rc, out, err = _run(_SOLVE, capsys)
    assert rc == exc_type.exit_code
    assert out == ""
    assert err == f"error[{exc_type.__name__}] the message\n"


@pytest.mark.parametrize("argv, code, line", [
    (_SOLVE + ["--rel-tol", "0", "--abs-tol", "0"], 2,
     "error[DomainError] integrator settings need finite tolerances >= 0 "
     "with abs_tol > 0, a finite r_max and h_max > 0; got rel_tol=0.0, "
     "abs_tol=0.0, r_max=1000.0, h_max=None"),
    (["find-critical", "--N", "1", "--p", "2.001",
      "--a-lo", "1.0", "--a-hi", "1.4245"], 4,
     "error[BadBracketError] upper endpoint a = 1.4245 is above "
     "a = 1.41519, where the source term nears overflow"),
    (["find-critical", "--N", "4", "--p", "2.001"], 2,
     "error[DomainError] critical-height search needs an admissible slow "
     "exponent: p = 2.001 is not above the ground-state admissibility "
     "threshold 2.2434 for N = 4"),
    (["solve-forward", "--N", "2", "--p", "3", "--b", "1",
      "--r-max", "0.5"], 3,
     "error[NoSupportRadiusError] trajectory from a = 1 did not vanish "
     "by r = 0.5 (reached-rmax)"),
    (["sweep", "--N", "3", "--p", "2.5", "--a-grid", "bad"], 2,
     "error[DomainError] grid spec must be lin:lo:hi:n or log:lo:hi:n, "
     "got 'bad'"),
])
def test_failure_line_and_exit_code(argv, code, line, capsys):
    rc, out, err = _run(argv, capsys)
    assert (rc, out, err) == (code, "", line + "\n")


@pytest.mark.parametrize("argv,code,cause", [
    # the N = 1 startup energy overflowed G (OverflowError); G now gives
    # +inf as g does, and the run that starts there cannot step
    (["find-critical", "--N", "1", "--p", "2.00001"], 4,
     "error[BadBracketError] lower endpoint a = 0.999058 classifies "
     "Inconclusive (terminated by step-underflow at r = 447.018), need P"),
    # the series' length scale overflowed (OverflowError) or underflowed
    # to 0 (ZeroDivisionError in the reach)
    (["solve-forward", "--N", "3", "--p", "1.8", "--b", "1e-170"], 2,
     "error[DomainError] forward-fast: the origin series' length scale over- "
     "or underflows a double at u0 = 1e-170 (g(u0) = -1e+272)"),
    (["solve-forward", "--N", "3", "--p", "1.8", "--b", "1e-110"], 2,
     "error[DomainError] forward-fast: the origin series' length scale over- "
     "or underflows a double at u0 = 1e-110 (g(u0) = -1e+176)"),
    # the reach underflowed to 0 ("startup radius 0 must lie in ...")
    (["solve-forward", "--N", "3", "--p", "1.8", "--b", "1e-130"], 2,
     "error[DomainError] forward-fast: the origin series' reach underflows "
     "at u0 = 1e-130"),
])
def test_startup_failures_name_their_cause(argv, code, cause, capsys):
    rc, out, err = _run(argv, capsys)
    assert (rc, out, err) == (code, "", cause + "\n")


def test_overflowing_density_runs_clean_under_warnings_as_errors(capsys):
    # phi = u^((p-1)/(p-2)) overflows a double at --b 1e-100, and the report
    # prints it as null; the power used to print a RuntimeWarning to stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = _run(["solve-forward", "--N", "3", "--p", "1.8", "--b",
                             "1e-100", "--format", "json"], capsys)
    assert (rc, err) == (0, "")
    assert None in json.loads(out)["columns"]["phi"]


# ---------------------------------------------------------------------------
# find-critical

def test_find_critical_closed_form(capsys):
    rc, out, _ = _run(["find-critical", "--N", "1", "--p", "3", "--chi", "1",
                       "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    res = rep["results"]
    exact = (9.0 / 4.0) ** 0.125
    assert abs(res["a_c"] - exact) / exact < 1e-6
    assert res["closed_form_rel_err"] < 1e-6
    assert rep["tolerances_met"]["closed_form_within_1e-6"] is True
    assert rep["tolerances_met"]["bracket_width_within_tol"] is True
    certs = res["certificates"]
    assert certs["lower"]["class"] == "P"
    assert certs["upper"]["class"] in ("N", "N0")


def test_find_critical_certificates_are_the_bisection_endpoints(
        capsys, shot_heights):
    rc, out, _ = _run(["find-critical", "--N", "1", "--p", "3",
                       "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)["results"]
    # the two initial endpoints, then one height per iteration, a_c among
    # them; the certificates take no integration of their own
    assert len(shot_heights) == rep["n_iterations"] + 2
    res = find_critical_a(derive_params(1, 3.0))
    assert res.lower.set is ProfileClass.P
    assert res.upper.set is ProfileClass.N
    assert res.upper.a - res.lower.a == res.bracket_width == rep["bracket_width"]
    certs = rep["certificates"]
    for role, c in (("lower", res.lower), ("upper", res.upper)):
        assert certs[role] == {"a": c.a, "class": c.label, "R": c.R_of_a,
                               "terminal_slope": c.terminal_slope,
                               "reason": c.reason}


def test_find_critical_steep_source_exit0(capsys):
    # N = 1, p = 2.001: q ~ 2004, so the default bracket must stay below
    # the height where u0^q overflows
    rc, out, _ = _run(["find-critical", "--N", "1", "--p", "2.001",
                       "--format", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["results"]["closed_form_rel_err"] < 1e-6


def test_find_critical_inadmissible_exit2(capsys):
    rc, _, err = _run(["find-critical", "--N", "3", "--p", "2.1"], capsys)
    assert rc == 2
    assert "error[DomainError]" in err
    assert "admissibility" in err


def test_find_critical_bad_bracket_exit4(capsys):
    # both endpoints sit above a_c(2, 3), so the lower one classifies N
    rc, _, err = _run(["find-critical", "--N", "2", "--p", "3",
                       "--a-lo", "2.5", "--a-hi", "3.0"], capsys)
    assert rc == 4
    assert err.startswith("error[BadBracketError]")


def test_find_critical_scan_radius_inside_profile_exit4(capsys):
    # heights near a_c stay positive up to r = 2 and classify P from the
    # scan radius alone; they used to move the bracket to a_c = 2.4065
    rc, out, err = _run(["find-critical", "--N", "2", "--p", "3",
                         "--r-max", "2"], capsys)
    assert (rc, out) == (4, "")
    assert err.startswith("error[BadBracketError] a = ")
    assert "without reaching an interior minimum by r_max = 2" in err


def test_find_critical_bracket_above_overflow_cap_exit4(capsys):
    # the upper end lies above the height where the source term nears
    # overflow; it used to be integrated and fail as Inconclusive
    rc, _, err = _run(["find-critical", "--N", "1", "--p", "2.001",
                       "--a-lo", "1.0", "--a-hi", "1.4245"], capsys)
    assert rc == 4
    assert err.startswith("error[BadBracketError] upper endpoint a = 1.4245")
    assert "nears overflow" in err and "Inconclusive" not in err


def test_find_critical_json_trace(capsys):
    rc, out, _ = _run(["find-critical", "--N", "2", "--p", "3",
                       "--format", "json"], capsys)
    assert rc == 0
    res = json.loads(out)["results"]
    trace = res["trace"]
    assert len(trace) == res["n_iterations"] + 2
    assert all(list(t) == ["a", "step", "class", "reason", "gap", "n_steps",
                           "n_rejected", "r_start", "r_end"] for t in trace)
    # each probe starts at its origin series' reach, short of any event
    assert all(0.0 < t["r_start"] < t["r_end"] for t in trace)
    assert all(t["n_rejected"] >= 0 for t in trace)
    assert [t["class"] for t in trace[:2]] == ["P", "N"]
    assert [t["step"] for t in trace[:2]] == ["end", "end"]
    # a_c is a bracket end's own probe, not shot again
    at_a_c = [t for t in trace if t["a"] == res["a_c"]]
    assert [t["class"] for t in at_a_c] == [res["classification"]["class"]]
    for role in ("lower", "upper"):
        assert any(t["a"] == res["certificates"][role]["a"] for t in trace)


def test_find_critical_half_bracket_exit2(capsys):
    rc, _, err = _run(["find-critical", "--N", "2", "--p", "3",
                       "--a-lo", "0.5"], capsys)
    assert rc == 2
    assert "together" in err


# ---------------------------------------------------------------------------
# solve-forward

def test_solve_forward_decay_fit(capsys):
    rc, out, _ = _run(["solve-forward", "--p", "2", "--N", "2", "--chi", "1",
                       "--b", "0", "--fit-decay", "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    decay = rep["results"]["decay"]
    assert abs(decay["limit_estimate"] - (-0.25)) < 0.02 * 0.25
    assert decay["target"] == -0.25
    assert rep["tolerances_met"]["decay_within_2pct"] is True


def test_solve_forward_compact_support(capsys):
    rc, out, _ = _run(["solve-forward", "--N", "3", "--p", "2.5", "--b", "1",
                       "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    sup = rep["results"]["support"]
    assert 0.0 < sup["R_0"] <= sup["upper_bound"]
    assert sup["terminal_u_slope"] < 0.0
    assert abs(sup["terminal_phi_slope"]) < 1e-6
    assert rep["results"]["tail"]["kind"] == "compact"
    assert rep["tolerances_met"]["support_within_bound"] is True


@pytest.mark.parametrize("argv", [
    ["--N", "3", "--p", "1.8", "--b", "1.0", "--u-ceiling", "nan"],
    ["--N", "2", "--p", "2", "--b", "0", "--u-floor", "nan"],
    ["--N", "3", "--p", "1.8", "--b", "1.0", "--u-ceiling", "-5"],
    ["--N", "3", "--p", "1.8", "--b", "1.0", "--u-ceiling", "1.0"],
])
def test_solve_forward_bad_cutoff_exit2(argv, capsys):
    # the cutoffs are the forward problem's own (u = -1e3 at p = 2, 1e6 at
    # p < 2): argparse refuses a cutoff flag
    with pytest.raises(SystemExit) as exc:
        main(["solve-forward"] + argv)
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments: --u-" in out.err
    assert out.out == ""


@pytest.mark.parametrize("argv", [
    ["solve-backward", "--N", "2", "--p", "3", "--a", "2", "--event-tol", "1e-12"],
    ["reconstruct", "--N", "2", "--p", "3", "--a", "2", "--direction", "backward"],
    ["delta-test", "--N", "3", "--p", "1.8", "--b", "1", "--direction", "forward"],
    ["find-critical", "--N", "2", "--p", "3", "--slope-tol", "1e-3"],
    ["sweep", "--N", "2", "--p", "3", "--a-grid", "log:0.5:4:4",
     "--slope-tol", "1e-3"],
])
def test_removed_run_settings_exit2(argv, capsys):
    # the event tolerance is the integrator's constant, --a or --b names
    # the direction, and N0 is the touch the stepper finds, with no slope
    # band to set
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


def test_forward_support_edge_of_a_tiny_support(capsys):
    # R_0 = 3.5e-8: phi' is sampled at R_0 (1 - 1e-6), inside the grid
    rc, out, _ = _run(["solve-forward", "--N", "2", "--p", "3", "--b", "1e-12",
                       "--format", "json"], capsys)
    assert rc == 0
    sup = json.loads(out)["results"]["support"]
    assert sup["R_0"] < 1e-7
    assert math.isfinite(sup["terminal_phi_slope"])


# ---------------------------------------------------------------------------
# sweep

def test_sweep_prefix_tail(capsys):
    rc, out, _ = _run(["sweep", "--p", "3", "--N", "2",
                       "--a-grid", "log:0.5:4:12", "--r-max", "200"], capsys)
    assert rc == 0
    header, rows = _csv_rows(out)
    assert header == ["index", "a", "class", "R", "terminal_slope"]
    labels = [row[2] for row in rows]
    # a P-prefix followed by an N-tail, no interleaving
    assert labels[0] == "P" and labels[-1] == "N"
    first_n = labels.index("N")
    assert all(lab == "P" for lab in labels[:first_n])
    assert all(lab == "N" for lab in labels[first_n:])
    # vanishing radius present exactly on the N rows
    assert all((row[3] == "") == (row[2] == "P") for row in rows)


def test_sweep_report_edges(capsys):
    rc, out, _ = _run(["sweep", "--p", "3", "--N", "2",
                       "--a-grid", "log:0.5:4:12", "--r-max", "200",
                       "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    res = rep["results"]
    assert res["a_1"] < res["a_2"]
    assert res["counts"]["P"] + res["counts"]["N"] == res["n_points"] == 12
    assert rep["tolerances_met"]["all_classified"] is True


def test_sweep_out_of_range_height_exit2_before_any_shot(capsys, shot_heights):
    # 1e299 lies above the backward u_ceiling 1e12; the stiff first height
    # (u* within 1e-13 of 1) used to take 25 s before integrate refused it
    t0 = time.process_time()
    rc, out, err = _run(["sweep", "--N", "6", "--p", "2.00000000000001",
                         "--a-grid", "lin:1.0:1e+299:2", "--r-max", "20"], capsys)
    assert time.process_time() - t0 < 1.0
    assert rc == 2 and out == "" and not shot_heights
    assert "error[DomainError]" in err and "1e+299 lies outside" in err


# Before any shot: --a-tol nan ran 52 probes, inf stopped with a 1.1-wide
# bracket and -1 ran 7, each exiting 0 with a false verdict
@pytest.mark.parametrize("a_tol", ["nan", "inf", "-1"])
def test_find_critical_bad_a_tol_exit2_before_any_shot(a_tol, capsys, shot_heights):
    rc, out, err = _run(["find-critical", "--N", "1", "--p", "3",
                         "--a-tol", a_tol], capsys)
    assert rc == 2 and out == "" and not shot_heights
    assert "error[DomainError] a_tol must be finite and >= 0" in err


# Before any solve: --ratio 2 and --steps 0 exited 2 only after the
# integration; the last two exited 3 after it, their times reaching T = 1
# and 0 in floating point
@pytest.mark.parametrize("argv,reached", [
    (["--N", "3", "--p", "1.8", "--b", "1.0", "--ratio", "2"], "--ratio"),
    (["--N", "3", "--p", "1.8", "--b", "1.0", "--steps", "0"], "--steps"),
    (["--N", "2", "--p", "3", "--a", "2.126", "--steps", "40"], "t = 1.0:"),
    (["--N", "3", "--p", "1.8", "--b", "1.0", "--steps", "600"], "t = 0.0:")])
def test_delta_test_bad_times_exit2_before_any_solve(argv, reached, capsys,
                                                     shot_heights):
    rc, out, err = _run(["delta-test"] + argv, capsys)
    assert rc == 2 and out == "" and not shot_heights
    assert err.startswith("error[DomainError]") and reached in err


def test_sweep_bad_grid_exit2(capsys):
    rc, _, err = _run(["sweep", "--p", "3", "--N", "2",
                       "--a-grid", "geo:1:2:5"], capsys)
    assert rc == 2
    assert "error[DomainError]" in err


# ---------------------------------------------------------------------------
# reconstruct

def test_reconstruct_files_and_mirror(tmp_path, capsys):
    base = str(tmp_path / "rec")
    rc, out, _ = _run(["reconstruct", "--N", "2", "--p", "3", "--a", "2.0",
                       "--output", base, "--gnuplot"], capsys)
    assert rc == 0
    assert out == ""
    csv_text = Path(base + ".csv").read_text()
    rep = json.loads(Path(base + ".json").read_text())
    header, rows = _csv_rows(csv_text)
    assert header == ["r", "phi", "psi", "dpsi"]
    assert rep["results"]["mass"] is not None
    assert rep["results"]["well_posed"] is True
    # the JSON columns mirror the CSV cells value for value
    for j, name in enumerate(header):
        col = rep["columns"][name]
        assert len(col) == len(rows)
        for row, v in zip(rows, col):
            assert float(row[j]) == v
    gp = Path(base + ".gp").read_text()
    assert "rec.csv" in gp and "plot" in gp


def test_reconstruct_residual_grade(capsys):
    rc, out, _ = _run(["reconstruct", "--N", "2", "--p", "3", "--a", "2.126",
                       "--residual-grade", "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    res = rep["results"]["residuals"]
    assert res["res1"] < 1e-6
    assert res["res2"] < 1e-6
    assert res["identity"] < 1e-6
    assert rep["results"]["residual_note"] is None
    assert rep["tolerances_met"]["residuals_below_1e-6"] is True


def test_reconstruct_underflowing_phi_reports_finite_residuals(capsys):
    # phi = e^u of the p = 2 forward profile underflows to 0 at r ~ 57, long
    # before the run stops at u = -1e3 (r ~ 66); the residual window is tied
    # to the last radius where phi > 0, so the residuals exist
    rc, out, _ = _run(["reconstruct", "--N", "2", "--p", "2", "--b", "0",
                       "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    res = rep["results"]["residuals"]
    assert all(math.isfinite(res[k]) for k in ("res1", "res2", "identity"))
    assert rep["results"]["residual_note"] is None
    assert rep["results"]["mass"] > 0.0


def test_reconstruct_coarse_grid_reports_residual_note(capsys):
    # the N = 1 forward run steps 3.4, 33 and 319 once u is nearly
    # quadratic, which leaves 6 of its own nodes in the residual window:
    # the residuals are unavailable, not the input invalid
    rc, out, _ = _run(["reconstruct", "--N", "1", "--p", "2", "--b", "-2",
                       "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["residuals"] is None
    assert rep["results"]["residual_note"] == (
        "test window contains fewer than 9 grid points")
    assert rep["tolerances_met"]["residuals_below_1e-6"] is False


def test_reconstruct_residual_grade_without_positive_phi(capsys):
    # e^-800 underflows, so phi is 0 at every node: the grade pass spans the
    # scout's grid and the residuals are unavailable, not a crash
    rc, out, _ = _run(["reconstruct", "--N", "2", "--p", "2", "--b", "-800",
                       "--residual-grade", "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["residuals"] is None
    assert rep["results"]["residual_note"].startswith(
        "phi must be positive on the test window")


def test_reconstruct_coarse_grid_residual_grade(capsys):
    # a coarse N = 1 forward profile re-solved on the residual grade's
    # capped grid
    rc, out, _ = _run(["reconstruct", "--N", "1", "--p", "2", "--b", "0.5",
                       "--residual-grade", "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    res = rep["results"]["residuals"]
    assert max(res["res1"], res["res2"], res["identity"]) < 1e-6
    assert rep["results"]["residual_note"] is None
    assert rep["tolerances_met"]["residuals_below_1e-6"] is True


def test_backward_run_stopped_short_has_no_profile(capsys):
    # p < 2: the run leaves its range at the singular floor near u = 0, so
    # there is no profile, for the residual grade's pass either
    errs = []
    for grade in ([], ["--residual-grade"]):
        rc, _, err = _run(["reconstruct", "--N", "1", "--p", "1.5",
                           "--a", "50", *grade], capsys)
        assert rc == 3
        errs.append(err)
    assert errs[0] == errs[1]
    assert "integration failed (diverged)" in errs[0]


def test_reconstruct_residual_grade_echoes_its_own_pass(capsys):
    # the grade pass runs at tolerance 1e-12 with its own step cap and the
    # default r_max, whatever the command line gives; the report says so
    rc, out, _ = _run(["reconstruct", "--N", "2", "--p", "3", "--a", "2.126",
                       "--residual-grade", "--rel-tol", "1e-9",
                       "--abs-tol", "1e-9", "--r-max", "50",
                       "--format", "json"], capsys)
    assert rc == 0
    cfg = json.loads(out)["config"]
    assert cfg["rel_tol"] == cfg["abs_tol"] == 1e-12
    assert cfg["r_max"] == 1e3
    assert 0.0 < cfg["h_max"] < 2.4 / 2000
    rc, out, _ = _run(["reconstruct", "--N", "2", "--p", "3", "--a", "2.126",
                       "--format", "json"], capsys)
    cfg = json.loads(out)["config"]
    assert cfg["rel_tol"] == 1e-10 and "h_max" not in cfg


def test_reconstruct_needs_height_exit2(capsys):
    rc, _, err = _run(["reconstruct", "--N", "2", "--p", "3"], capsys)
    assert rc == 2
    assert "error[DomainError]" in err


def test_reconstruct_both_heights_exit2(capsys):
    rc, _, err = _run(["reconstruct", "--N", "2", "--p", "3",
                       "--a", "1", "--b", "1"], capsys)
    assert rc == 2
    assert "not both" in err


def test_reconstruct_infinite_mass_reported(capsys):
    # a far below a_c stays positive with no tail model: mass is undefined
    rc, out, _ = _run(["reconstruct", "--N", "2", "--p", "3", "--a", "0.5",
                       "--r-max", "50", "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["mass"] is None
    assert rep["results"]["mass_note"]
    assert rep["tolerances_met"]["mass_finite"] is False


def test_reconstruct_vanished_profile_has_no_finite_mass(capsys):
    # e^-800 underflows, so phi is 0 at every node and the mass is 0: a
    # profile that vanished certifies no finite positive mass
    rc, out, _ = _run(["reconstruct", "--N", "2", "--p", "2", "--b", "-800",
                       "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["results"]["mass"] == 0
    assert rep["tolerances_met"]["mass_finite"] is False


def test_reconstruct_json_of_a_scipy_tail_moment(capsys):
    # z = k r_end^2 < 30 takes scipy's incomplete gamma; the mass and its
    # mass_finite flag must still serialize
    rc, out, err = _run(["reconstruct", "--N", "1", "--p", "2", "--b", "40",
                         "--r-max", "20", "--format", "json"], capsys)
    assert rc == 0, err
    rep = json.loads(out)
    assert rep["results"]["mass"] > 0.0
    assert rep["tolerances_met"]["mass_finite"] is True


def test_reconstruct_power_tail_moment_beyond_a_double(capsys):
    # the run ends at r = 2e-83, where r_end^(kappa + 1) overflows; the
    # moment, e^2212, is past the largest double, so the mass is refused
    rc, out, err = _run(["reconstruct", "--N", "1", "--p", "1.78", "--b", "1e-35",
                         "--chi", "38", "--r-max", "20", "--format", "json"],
                        capsys)
    assert rc == 0, err
    rep = json.loads(out)
    assert rep["results"]["mass"] is None
    assert "beyond the largest double" in rep["results"]["mass_note"]


def test_equilibrium_height_overflow_exit2(capsys):
    # u* = (1/(chi m))^(1/q) = 4^1225 at N = 1, p = 1.02, chi = 100
    rc, out, err = _run(["solve-backward", "--N", "1", "--p", "1.02",
                         "--chi", "100", "--a", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error[DomainError] equilibrium height u*")


# ---------------------------------------------------------------------------
# delta-test

def test_delta_test_forward_monotone(capsys):
    rc, out, _ = _run(["delta-test", "--p", "1.8",
                       "--N", "3", "--b", "1"], capsys)
    assert rc == 0
    header, rows = _csv_rows(out)
    assert header == ["t", "deviation"]
    assert len(rows) == 7
    dev = np.array([float(row[1]) for row in rows])
    assert np.all(np.diff(dev) < 0.0)
    assert dev[0] / dev[-1] > 1e3


def test_delta_test_backward_monotone(capsys):
    rc, out, _ = _run(["delta-test", "--N", "1",
                       "--p", "3", "--a", "1.106681922", "--format", "json"],
                      capsys)
    assert rc == 0
    rep = json.loads(out)
    dev = rep["columns"]["deviation"]
    t = rep["columns"]["t"]
    assert all(b > a for a, b in zip(t, t[1:]))        # times approach T
    assert all(b < a for a, b in zip(dev, dev[1:]))    # deviation shrinks
    assert rep["results"]["M"] > 0.0


def test_delta_test_backward_needs_a(capsys):
    rc, _, err = _run(["delta-test", "--N", "1",
                       "--p", "3"], capsys)
    assert rc == 2
    assert "error[DomainError]" in err


def test_delta_test_bad_ratio_exit2(capsys):
    rc, _, err = _run(["delta-test", "--p", "1.8",
                       "--N", "3", "--b", "1", "--ratio", "1.5"], capsys)
    assert rc == 2
    assert "ratio" in err


def test_delta_test_integrates_the_gaussian_on_radii(capsys, monkeypatch):
    # the README command never takes the point path, whose angular rules
    # make one Python call per quadrature point
    def no_point_rule(*args):
        raise AssertionError("the CLI took the point path")

    monkeypatch.setattr(plks.reconstruct, "_angular_averages", no_point_rule)
    rc, out, _ = _run(["delta-test", "--N", "3", "--p", "1.8", "--b", "1.0",
                       "--format", "json"], capsys)
    assert rc == 0
    monkeypatch.undo()
    rep = json.loads(out)
    P = derive_params(3, 1.8)
    phi = plks.reconstruct.phi_from_forward(plks.solve_forward(P, 1.0))
    ss = plks.reconstruct.assemble(P, phi, plks.reconstruct.psi_from_phi(phi, P),
                                   plks.reconstruct.Direction.FORWARD)
    want = plks.reconstruct.delta_test(
        ss, lambda x: math.exp(-float(np.dot(x, x))), rep["columns"]["t"])
    assert [t for t, _ in want] == rep["columns"]["t"]
    assert rep["columns"]["deviation"] == pytest.approx([d for _, d in want],
                                                        rel=1e-9)


# ---------------------------------------------------------------------------
# determinism and serialization

def test_byte_identical_reruns(tmp_path, capsys):
    argv = ["solve-backward", "--N", "2", "--p", "3", "--a", "2.5"]
    b1, b2 = str(tmp_path / "one"), str(tmp_path / "two")
    assert _run(argv + ["--output", b1], capsys)[0] == 0
    assert _run(argv + ["--output", b2], capsys)[0] == 0
    assert Path(b1 + ".csv").read_bytes() == Path(b2 + ".csv").read_bytes()
    # reports do not echo the destination, so they match byte for byte too
    assert Path(b1 + ".json").read_bytes() == Path(b2 + ".json").read_bytes()


def test_csv_17_digit_round_trip(capsys):
    rc, out, _ = _run(["solve-backward", "--N", "1", "--p", "3", "--a", "0.5",
                       "--r-max", "5"], capsys)
    assert rc == 0
    _, rows = _csv_rows(out)
    for row in rows[:50]:
        for cell in row:
            assert ("%.17g" % float(cell)) == cell


def test_report_round_trips(capsys):
    rc, out, _ = _run(["find-critical", "--N", "1", "--p", "3",
                       "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert json.loads(_json_text(rep)) == rep


def test_timing_flag(capsys):
    argv = ["solve-backward", "--N", "1", "--p", "3", "--a", "0.5",
            "--r-max", "5", "--format", "json"]
    rc, out, _ = _run(argv + ["--timing"], capsys)
    assert rc == 0
    assert json.loads(out)["wall_clock_s"] > 0.0
    rc, out, _ = _run(argv, capsys)
    assert json.loads(out)["wall_clock_s"] is None


def test_gnuplot_needs_output(capsys):
    rc, _, err = _run(["solve-backward", "--N", "1", "--p", "3", "--a", "0.5",
                       "--r-max", "5", "--gnuplot"], capsys)
    assert rc == 2
    assert "--output" in err


def _child_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_cli_loads_no_scipy():
    # importing the CLI and running a reconstruction and a delta test load
    # nothing from scipy; nor does classify or sweep_a at p = 2, which fail
    # on the regime before they ask for the zero-energy height
    code = (
        "import sys, contextlib, io, plks, plks.cli\n"
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    plks.cli.main(['reconstruct', '--N', '2', '--p', '3', '--a', '2.126'])\n"
        "    plks.cli.main(['delta-test', '--N', '3', '--p', '1.8', '--b', '1.0',\n"
        "                   '--steps', '2'])\n"
        "P2 = plks.derive_params(2, 2.0, 0.5)\n"
        "for call in (lambda: plks.classify(P2, 1.0), lambda: plks.sweep_a(P2, [])):\n"
        "    with contextlib.suppress(plks.DomainError):\n"
        "        call()\n"
        "        raise SystemExit('no DomainError at p = 2')\n"
        "print(scipy())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "plks.cli", "solve-backward", "--N", "1",
         "--p", "3", "--chi", "1", "--a", "0.5", "--r-max", "5"],
        capture_output=True, text=True,
        cwd=str(Path(__file__).resolve().parents[1]))
    assert proc.returncode == 0
    assert proc.stdout.startswith("r,u,w,E,phi\n")


# ---------------------------------------------------------------------------
# no traceback anywhere: every command line in the admissible domain ends
# with a documented exit code


@st.composite
def _command_lines(draw):
    # chi and the heights are log-uniform, from a drawn seed: hypothesis's
    # own floats favour the exponent 0, that is chi = 1 and a height of 1,
    # which lies within 1e-13 of u* at p = 2 + 1e-13, where a stiff shot
    # takes up to 5,000,000 steps (a FOUND line in CHANGES.md)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    N = draw(st.integers(1, 6))
    p = draw(st.one_of(
        st.just(2.0),
        st.integers(1, 15).map(lambda k: 2.0 + 10.0 ** -k),
        st.floats(2.0 * N / (N + 1.0), 5.0, exclude_min=True)))
    chi = 10.0 ** rng.uniform(-3.0, 3.0)

    def height():
        h = 10.0 ** rng.uniform(-300.0, 300.0)
        return -h if p == 2.0 and draw(st.booleans()) else h

    # heights go in as flag=value: argparse reads a bare -1e+300 as a flag
    command = draw(st.sampled_from(
        ["solve-backward", "solve-forward", "sweep", "reconstruct"]))
    if command == "sweep":
        lo, hi = sorted([height(), height()])
        heights = [f"--a-grid=lin:{lo!r}:{hi!r}:2"]
    else:
        flag = {"solve-backward": "--a", "solve-forward": "--b"}.get(
            command, draw(st.sampled_from(["--a", "--b"])))
        heights = [f"{flag}={height()!r}"]
    return [command, "--N", str(N), "--p", repr(p), "--chi", repr(chi),
            *heights, "--r-max", "20", "--format", "json"]


@settings(max_examples=400, deadline=None)
@given(argv=_command_lines())
@example(argv=["reconstruct", "--N", "1", "--p", "2", "--b", "40",
               "--r-max", "20", "--format", "json"])
@example(argv=["solve-backward", "--N", "1", "--p", "1.02", "--chi", "100",
               "--a", "1", "--r-max", "20", "--format", "json"])
@example(argv=["reconstruct", "--N", "1", "--p", "1.78", "--b", "1e-35",
               "--chi", "38", "--r-max", "20", "--format", "json"])
@example(argv=["solve-forward", "--N", "2", "--p", "3", "--b", "1e-12",
               "--r-max", "20", "--format", "json"])
def test_every_command_line_ends_with_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(argv)
    assert rc in (0, 2, 3, 4)
    if rc:
        assert err.getvalue().startswith("error[")
        assert err.getvalue().count("\n") == 1
    else:
        json.loads(out.getvalue())

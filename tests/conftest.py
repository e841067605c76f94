"""Suite plumbing: collects acceptance verdicts for the terminal summary,
records the heights the shooting layers integrate, and makes the runs that
no measured input gives: an Inconclusive a_c probe, a forward underflow."""

import dataclasses

import pytest

import plks.backward
import plks.forward
from plks import ProfileClass, Termination

_ACCEPTANCE: dict[int, tuple[bool, str]] = {}


def record_criterion(num: int, ok: bool, detail: str) -> None:
    """Register the verdict line for one acceptance criterion.

    Tests call this before their assert so the summary stays honest when
    a criterion fails: the line reports the measured values either way.
    """
    _ACCEPTANCE[num] = (ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        ok, detail = _ACCEPTANCE[num]
        terminalreporter.write_line(
            "criterion %2d %s  %s" % (num, "PASS" if ok else "FAIL", detail))


@pytest.fixture
def shot_heights(monkeypatch):
    """The heights plks.backward and plks.forward pass to integrate, in call
    order; a call refused before any shot leaves it empty."""
    heights = []
    for mod in (plks.backward, plks.forward):
        def counted(ode, u0, opts=None, integrate=mod.integrate):
            heights.append(u0)
            return integrate(ode, u0, opts)

        monkeypatch.setattr(mod, "integrate", counted)
    return heights


@pytest.fixture
def inconclusive_third_label(monkeypatch):
    """plks.backward._label with its third verdict made Inconclusive: in the
    default N = 1, p = 3 a_c search, the first probe inside the bracket.
    Returns the heights it labels, in call order."""
    label, heights = plks.backward._label, []

    def patched(ode, a, opts):
        heights.append(a)
        c = label(ode, a, opts)
        if len(heights) != 3:
            return c
        return dataclasses.replace(c, set=ProfileClass.INCONCLUSIVE,
                                   reason="terminated by step-underflow")

    monkeypatch.setattr(plks.backward, "_label", patched)
    return heights


@pytest.fixture
def forward_underflow(monkeypatch):
    """plks.forward's runs, each made to end in step underflow, which no
    measured forward run does.  Returns the runs, in call order."""
    runs = []

    def underflowed(ode, u0, opts=None, integrate=plks.forward.integrate):
        runs.append(dataclasses.replace(integrate(ode, u0, opts),
                                        termination=Termination.STEP_UNDERFLOW))
        return runs[-1]

    monkeypatch.setattr(plks.forward, "integrate", underflowed)
    return runs

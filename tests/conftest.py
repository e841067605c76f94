"""Suite plumbing: collects acceptance verdicts for the terminal summary,
and records the heights the shooting layers integrate."""

import pytest

import plks.backward
import plks.forward

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

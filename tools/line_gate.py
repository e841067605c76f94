"""Line gate: run the tier-1 suite under a line tracer and fail on any line
of a function in src/plks that no test ran.

    PYTHONPATH=src python tools/line_gate.py [pytest arguments]

A line counts when it holds bytecode of a function (a def, lambda or
comprehension; class and module bodies are left out) other than its first
line, which only the call itself runs.  The tracer is the standard
library's sys.settrace, and only the test process is traced: a line that
only a subprocess runs counts as unrun.  Hypothesis runs derandomized, with
no deadline or health checks, so that the traced examples are the same on
every run and the tracer's slowdown fails none of them.

EXEMPT names each function left out of the gate with the reason; an entry
whose function is gone, or which a test runs, fails the gate too.  The
unrun lines are listed whatever the tests' outcome; the exit status is
pytest's if a test failed, else 1 for any unrun or stale entry, else 0.
"""

import os
import sys
import threading
import types
from inspect import CO_NEWLOCALS
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plks"

# module.qualname of a function -> why no tier-1 test runs it
EXEMPT = {
    "reconstruct.residual_grade_backward":
        "the old name of residual_grade(params, a, Direction.BACKWARD), kept "
        "for the benchmark, which alone calls it",
}


class HypothesisProfile:
    """Loads the gate's Hypothesis settings once pytest has loaded
    Hypothesis's plugin (an earlier import leaves it unrewritten)."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import HealthCheck, settings
        settings.register_profile("line-gate", derandomize=True, database=None,
                                  deadline=None, suppress_health_check=list(HealthCheck))
        settings.load_profile("line-gate")


def body_lines(code: types.CodeType) -> set[int]:
    """The lines with bytecode of a code object but its first, which only
    the call itself runs."""
    return {line for *_, line in code.co_lines()
            if line is not None and line != code.co_firstlineno}


def function_lines(path: Path) -> dict[int, str]:
    """Each line with bytecode in a function of the module, but its first,
    mapped to module.qualname of the innermost function holding it."""
    lines: dict[int, str] = {}

    def walk(code: types.CodeType) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & CO_NEWLOCALS:
                    name = f"{path.stem}.{const.co_qualname}"
                    lines.update(dict.fromkeys(body_lines(const), name))
                walk(const)

    walk(compile(path.read_text(), str(path), "exec"))
    return lines


def main(args: list[str]) -> int:
    wanted = {str(path): function_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    seen: dict[str, set[int]] = {name: set() for name in wanted}
    # code object -> its line tracer; None outside src/plks and, to spare
    # the hot loops, once every line of the code object has run
    by_code: dict = {}

    def line_tracer(code: types.CodeType, lines: set[int]):
        pending = body_lines(code)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
                pending.discard(frame.f_lineno)
                if not pending:
                    by_code[code] = None
            return local
        return local if pending else None

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in by_code:
            lines = seen.get(os.path.realpath(code.co_filename))
            by_code[code] = None if lines is None else line_tracer(code, lines)
        return by_code[code]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args, plugins=[HypothesisProfile])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun, ran = [], set()
    for path, lines in wanted.items():
        for line, name in sorted(lines.items()):
            if name in EXEMPT:
                if line in seen[path]:
                    ran.add(name)
            elif line not in seen[path]:
                unrun.append(f"{os.path.relpath(path)}:{line} ({name})")
    names = {name for lines in wanted.values() for name in lines.values()}
    stale = [f"{name}: no such function" for name in EXEMPT if name not in names]
    stale += [f"{name}: a test runs it" for name in sorted(ran)]
    n_lines = sum(len(lines) for lines in wanted.values())
    print(f"line gate: {n_lines} lines in the functions of src/plks, "
          f"{len(unrun)} unrun, {len(EXEMPT)} function(s) exempt")
    for entry in unrun:
        print(f"unrun: {entry}")
    for entry in stale:
        print(f"stale exemption: {entry}")
    if status != 0:
        print(f"line gate: pytest exited {status}")
    return status or (1 if unrun or stale else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one plks CLI command in this process and record what it cost.

    python bench/cli_child.py RECORD_JSON TRACE <plks arguments...>

The command's output goes to stdout as usual and the exit code is the CLI's.
RECORD_JSON receives the process's peak resident set (VmHWM, which belongs
to this process alone, unlike the rusage of a child that counts the pages
of the parent it was forked from).  With TRACE = 1 it also receives the
spans of the library calls and the number of calls of the delta-test
function, which the CLI keeps private as `_gaussian`.
"""

import json
import sys
from pathlib import Path


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6    # the value is in kB
    return 0.0


def main(argv: list) -> int:
    record_file, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    import plks.cli

    record = {"spans": [], "f_calls": 0}
    tr = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer

        gaussian = getattr(plks.cli, "_gaussian", None)
        if gaussian is not None:
            def counted(x):
                record["f_calls"] += 1
                return gaussian(x)
            plks.cli._gaussian = counted
        tr = tracer.Tracer()
        tr.install()
    try:
        return plks.cli.main(cli_args)
    finally:
        if tr is not None:
            tr.uninstall()
            record["spans"] = tracer.spans_to_json(tr.spans)
        record["peak_rss_mb"] = peak_rss_mb()
        Path(record_file).write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

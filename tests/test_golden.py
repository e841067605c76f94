"""Byte identity of the README commands against recorded digests.

Each of the six commands in the README writes its CSV table and JSON report
with `--output`; their sha256 digests must equal the ones recorded here.
The digests pin every printed double, so they hold only for the Python and
numpy versions they were recorded with; on other versions the test skips.
Regenerate them with `plks <command> --output BASE` and `sha256sum BASE.*`
when a change is meant to alter output, and say which outputs changed.
"""

import hashlib
import platform

import numpy as np
import pytest

from plks.cli import main

RECORDED_WITH = {"python": "3.11.7", "numpy": "2.4.6"}

# command line, sha256 of BASE.csv, sha256 of BASE.json
GOLDEN = {
    "solve-backward": (
        "solve-backward --N 2 --p 3 --a 2.0",
        "4095da1887266bb2d455195b1315e17ba89f483f4d853a3df39ba9d1c7c08904",
        "41b6b9a2497f5cf4ee0411555cb8cda6a2279d257c71cb49e27b5d9128127467"),
    "solve-forward": (
        "solve-forward --N 3 --p 1.8 --b 1.0 --fit-decay",
        "ffb453aac5d40cecb6981f907b12370158f3fcf9135bf9829ef41c6ad656afab",
        "99961f7bec9fabb7fd7ecd5d97c0c06b5d8fc1d82ce119420ef9b196950a3b75"),
    "find-critical": (
        "find-critical --N 1 --p 3",
        "094f4e46bd67319cf7718f15fd4b8a04f08877d0dcfe704925b78297f0dcc73d",
        "2af2e4d89e3e84faa1975d0196a7d44d1bcbce8cc615fe66455dbf7e8b465b7e"),
    "sweep": (
        "sweep --N 3 --p 2.5 --a-grid log:0.1:8:16",
        "0e18fe5bfc32c7a2c93c77fc4ea87db7c4f7d0a0c63ff25659c8fdb0c2ea3216",
        "ec3c5bec23219a6d1fa7f24ff42664abbe87a7598ba5293c1502ba325022a07b"),
    "reconstruct": (
        "reconstruct --N 2 --p 3 --a 2.126 --residual-grade",
        "e481a6ee0de2f87f7af4f818558dfb82e9682a1e5ac436b75778c4fb2958484b",
        "847afe944683e83c8d3880a307007417e208418fa8853f25d19471b810abe82c"),
    "delta-test": (
        "delta-test --N 3 --p 1.8 --b 1.0",
        "c99ca451261c768c2fcc3074ccc0c6e8fdd82d6da696897d9befce25754d2750",
        "a89a869cbfe11c338bb6658973ccae1a066bcb0e9eb06fbcb63b6afcbebb4a12"),
}

_RUNNING = {"python": platform.python_version(), "numpy": np.__version__}


@pytest.mark.skipif(
    _RUNNING != RECORDED_WITH,
    reason=f"digests recorded with {RECORDED_WITH}, running {_RUNNING}")
@pytest.mark.parametrize("name", list(GOLDEN))
def test_readme_command_outputs_are_byte_identical(name, tmp_path, capsys):
    argv, csv_digest, json_digest = GOLDEN[name]
    base = str(tmp_path / name)
    assert main(argv.split() + ["--output", base]) == 0
    capsys.readouterr()
    for ext, want in (("csv", csv_digest), ("json", json_digest)):
        data = (tmp_path / f"{name}.{ext}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == want, f"{name}.{ext} changed"

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
        "8bc93c0ebc89f9c6251daccf1d7680c23e7c58d8fbea8a8c87435ecc544772ba",
        "5058163ac2b04a090cd5da554a26acd7e9d17e30058e6d4245d9f4883eb094c8"),
    "solve-forward": (
        "solve-forward --N 3 --p 1.8 --b 1.0 --fit-decay",
        "243741501e50799e9f73f3ea8e9f8b707d9aace12e8727a0e3a08d900813bd91",
        "b6f0addfed1b644543daf13d6809e31382b33cefa8e1298bdc6df2f41e140581"),
    "find-critical": (
        "find-critical --N 1 --p 3",
        "108d7a3501446a5fa35baa6ee13c20c03468bf26d099a8a3e6bace3757637f74",
        "75ec61d4d53493a5ddfb5c9aea8e1fb6587bbda6ea6619bc911c5268bcbb8916"),
    "sweep": (
        "sweep --N 3 --p 2.5 --a-grid log:0.1:8:16",
        "9d04b80661fcac86494a8c57361bc2f7f665a8e4b53c3aba2f97415a2d92161e",
        "4fc78b62035cbb97505fca1a8770031cb5b85915bb6096272c643be878beb7be"),
    "reconstruct": (
        "reconstruct --N 2 --p 3 --a 2.126 --residual-grade",
        "603d06947e45fd00a16b646a7ac271287b286188837e5fe83f52e435a7520475",
        "2a91ba4848d757aeadd3988aa837e46a95dea09fcca9355c27ce3cb667930e88"),
    "delta-test": (
        "delta-test --N 3 --p 1.8 --b 1.0",
        "e07b837a5417ec1c22376db04d95560238d791310f986fae5145a111a40555ff",
        "64d2bee7a83c5962f84a7a836d83e08ff10a8ed50a46f10df3b9dd5bf6ee2d8c"),
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

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
        "f3c78df04b8048c0c661d484baa39073f09c146e831089fc1183c2e46b7473be"),
    "solve-forward": (
        "solve-forward --N 3 --p 1.8 --b 1.0 --fit-decay",
        "243741501e50799e9f73f3ea8e9f8b707d9aace12e8727a0e3a08d900813bd91",
        "15fbb3eea815cfe62fd01ad064bbdba99ab6b895142938f4ef514b2d251444b0"),
    "find-critical": (
        "find-critical --N 1 --p 3",
        "108d7a3501446a5fa35baa6ee13c20c03468bf26d099a8a3e6bace3757637f74",
        "e19a410683384455db7bf8aede79e9c1ca2c705421575f79961ed43020dae39f"),
    "sweep": (
        "sweep --N 3 --p 2.5 --a-grid log:0.1:8:16",
        "9d04b80661fcac86494a8c57361bc2f7f665a8e4b53c3aba2f97415a2d92161e",
        "c1cb48b8b89165ab7d1c26a24faffab2eccc47802a031c3138112ef98a1cd506"),
    "reconstruct": (
        "reconstruct --N 2 --p 3 --a 2.126 --residual-grade",
        "603d06947e45fd00a16b646a7ac271287b286188837e5fe83f52e435a7520475",
        "5e60fb9d11b95567f45dc036780d335cf949f5beb89253a42edb62bab853f71d"),
    "delta-test": (
        "delta-test --N 3 --p 1.8 --b 1.0",
        "e07b837a5417ec1c22376db04d95560238d791310f986fae5145a111a40555ff",
        "0ecec395e873a9392cd4c5903dc00f647ade0e1e520ed76024f77d726e4bb8ed"),
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

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
        "ab73c62c76ce607a8b3c7821132e94393e1bc31a59c88b8e944016d3523534a3",
        "feae63edc67c72ceee1b397d4a3e0e8d03d6d68431023506b7f7de534f430cc2"),
    "solve-forward": (
        "solve-forward --N 3 --p 1.8 --b 1.0 --fit-decay",
        "9f95341cf665d0b89e4a59562b3b2e504f8f172778692874af15e121108006e7",
        "fee51964dbae46561da4d883c79ef2c67af6634aef3a1a599cb7251146f5eb3d"),
    "find-critical": (
        "find-critical --N 1 --p 3",
        "adf9476ca23e5d09c9d0203ae79c353970387df6d5216c4cd23b876568b205df",
        "3972027a076a65451bfdd6afa2fe8aa375451cd6007a7ecee14b2e2750fc0a1a"),
    "sweep": (
        "sweep --N 3 --p 2.5 --a-grid log:0.1:8:16",
        "a81f8447b59c6281aef45ac18ef6ced16fcd3fe1249765f9847eef0aa2254b1c",
        "db688ada9f6a5a5474016e2a0f047210536028d19e29b1c825b9b6c8b5b09960"),
    "reconstruct": (
        "reconstruct --N 2 --p 3 --a 2.126 --residual-grade",
        "1b835f093683789fac604a0606a90f190571e47d1e7e7a7e9d061ded688994c9",
        "223af10bf398a12d46c8094054970ec712245e695dcaaeab97ba19ff0b18ac32"),
    "delta-test": (
        "delta-test --N 3 --p 1.8 --b 1.0",
        "938f2cf8eaa2669317e29f0c9bc366e4b4c0dad6c2211fc2d8c36be61e560531",
        "28968b738ec343d8b5a9fd84476776afd2c6d66b783d4aad899a11965001c69f"),
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

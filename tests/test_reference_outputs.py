"""Tables and CLI output stay byte-identical to the recorded reference.

``perfbench/reference.json`` holds the SHA-256 of every figure-preset
table (CSV and JSON, as ``emit_table`` writes them without a header) and
of the stdout of 192 single CLI calls.  This module recomputes both in
process; it only reads the file, which ``perfbench/make_reference.py``
records.  The digests frozen below add what that file does not cover:
the JSON config wrapper of ``scan``, an ``Infinity`` cell, and a table of
the shape ``tdse`` writes to ``tdse_momentum.csv``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from tunnelqs import cli
from tunnelqs.scan import PRESET_NAMES, emit_table, run_preset

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text())
PRESET_DIGESTS = REFERENCE["figure_presets"]["sha256"]
CLI_DIGESTS = REFERENCE["cli_oneshot"]["stdout_sha256"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_reference_covers_every_preset():
    assert sorted(PRESET_DIGESTS) == sorted(PRESET_NAMES)
    assert len(CLI_DIGESTS) == 192


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_tables(name):
    table = run_preset(name)
    assert sha256(emit_table(table, "csv")) == PRESET_DIGESTS[name]["csv"]
    assert sha256(emit_table(table, "json")) == PRESET_DIGESTS[name]["json"]


def test_cli_stdout():
    # every argument is one token, so the key splits back into argv
    differ = []
    for key, digest in CLI_DIGESTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(key.split())
        if code != cli.EXIT_OK or sha256(out.getvalue()) != digest:
            differ.append(f"{key} (exit {code})")
    assert differ == []


# stdout of single `scan` calls: the fig6a and single-point JSON carry the
# {"config": ..., "records": [...]} wrapper and Infinity cells
FROZEN_SCAN_STDOUT = {
    "scan --preset fig6a --format json":
        "83d96db9a7d38bea041ab5af14dcb91a85d3ec3a07a07ac5741aa63c0be15c3f",
    "scan --preset fig2a --format csv":
        "2daecd828e67ae35832d5c87ad2b9f215a20f34b82049aea22e5f146291d3b41",
    "scan --Z 35 --F 2679.6875 --zeta 1 --format json":
        "732dca77e52e89f849c9ebd453722c7aabbdf907a2f0eacc65c714874b454fe9",
}


@pytest.mark.parametrize("key", FROZEN_SCAN_STDOUT)
def test_scan_stdout_frozen(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(key.split()) == cli.EXIT_OK
    assert sha256(out.getvalue()) == FROZEN_SCAN_STDOUT[key]


def test_momentum_table_frozen(tmp_path):
    # laid out as tdse writes tdse_momentum.csv: 200 momenta x 720 angles,
    # p repeated and phi tiled; no transcendental function, so no libm
    # rounding enters the values
    p = np.linspace(0.01, 2.0, 200)
    phi = 2.0 * np.pi * np.arange(720) / 720
    density = np.outer(1.0 / (1.0 + p * p), (phi - np.pi) ** 2) / 7.0
    table = np.rec.fromarrays([np.repeat(p, 720), np.tile(phi, 200), density.ravel()],
                              names="p,phi,density")
    dest = tmp_path / "momentum.csv"
    emit_table(table, dest=dest, header_comments=["Z=1.0", "columns: p, phi, density"])
    assert len(table) == 144000
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == (
        "48960abb2b785d43c3bb080346992b2f0a232708fa9abafdf3b0c1d6ca646436")

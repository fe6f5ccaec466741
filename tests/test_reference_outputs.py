"""Tables and CLI output stay byte-identical to the recorded reference.

``perfbench/reference.json`` holds the SHA-256 of every figure-preset
table (CSV and JSON, as ``emit_table`` writes them without a header) and
of the stdout of 192 single CLI calls.  This module recomputes both in
process; it only reads the file, which ``perfbench/make_reference.py``
records.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

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

#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right: it
overwrites perfbench/reference.json with that commit's values.  It takes
about two minutes (one smoke TDSE run and 64 spectra variants).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as harness  # noqa: E402
import workloads as w  # noqa: E402


def attoclock() -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        wl = w.AttoclockSmoke(ROOT, Path(tmp), 0, {})
        wl.setup()
        run = wl.op()
        if run.code != 0:
            raise RuntimeError(f"smoke tdse run exited {run.code}")
        report = json.loads((wl.out_dir / "tdse_report.json").read_text())
    return {"theta": report["theta"], "total_ionized": report["total_ionized"]}


def spectra() -> dict:
    thetas = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for variant in range(w.VARIANTS):
            wl = w.SpectraReprocess(ROOT, Path(tmp), variant, {})
            wl.setup()
            thetas[str(variant)] = wl.op()[4].theta
    return {"theta": thetas}


def presets() -> dict:
    wl = w.FigurePresets(ROOT, ROOT, 0, {})
    wl.setup()
    return {"sha256": {name: {"csv": w.sha256(csv), "json": w.sha256(js)}
                       for name, (_, csv, js) in wl.op().items()}}


def cli() -> dict:
    from tunnelqs import cli as tq_cli

    digests = {}
    for point in w.cli_pool():
        for command in w.CLI_COMMANDS:
            argv = w.cli_argv(command, *point)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = tq_cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            digests[" ".join(argv)] = w.sha256(out.getvalue())
    return {"stdout_sha256": digests}


def main() -> int:
    harness.set_blas_threads()
    reference = {
        "recorded_at": harness.git_sha(),
        "attoclock_smoke": attoclock(),
        "spectra_reprocess": spectra(),
        "figure_presets": presets(),
        "cli_oneshot": cli(),
    }
    w.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark harness at reduced sizes (about a minute).

    python3 perfbench/selftest.py

Checks that:
- every end-to-end and per-layer metric named in BENCHMARK.json is
  emitted, by an untraced and a traced run of each workload at tiny sizes;
- a planted wrong output (one flipped byte in a preset table) and an
  operation that raises are each counted as a failed operation;
- a traced function that no longer exists leaves its metrics absent,
  with a reason, instead of failing the run;
- the harness exits non-zero, printing no result, when the program's
  sources are missing from the checkout.

Exits 0 when every check passes and prints one line per check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run as harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as w  # noqa: E402


class TinyAttoclock(w.AttoclockSmoke):
    settings = {"Z": 1, "F0": 0.5, "omega": 3.0, "l_max": 2, "dr": 0.2,
                "r_max": 20, "dt": 0.05, "n_p": 20, "n_phi": 64}

    def check(self, output):
        # the reference is for the full smoke config; keep the generic checks
        return [f for f in super().check(output)
                if not f.startswith(("theta", "ionized fraction"))]


class TinySpectra(w.SpectraReprocess):
    l_max = 4
    n_p = 40
    n_phi = 64

    def check(self, output):
        return [f for f in super().check(output) if not f.startswith("theta")]


class TinyPresets(w.FigurePresets):
    names = ("fig2a",)
    rows_per_op = 400


class FlippedPresets(TinyPresets):
    def op(self, traced=False):
        out = super().op(traced)
        n, csv, js = out["fig2a"]
        i = len(csv) // 2
        out["fig2a"] = (n, csv[:i] + chr(ord(csv[i]) ^ 1) + csv[i + 1:], js)
        return out


class RaisingPresets(TinyPresets):
    def op(self, traced=False):
        raise RuntimeError("planted failure")


TINY = {"attoclock_smoke": TinyAttoclock, "spectra_reprocess": TinySpectra,
        "figure_presets": TinyPresets, "cli_oneshot": w.CliOneshot}


def run_tiny(workload: str, trace: int, cls=None, seconds: float = 0.5) -> dict:
    args = argparse.Namespace(workload=workload, seed=3, seconds=seconds, trace=trace)
    with tempfile.TemporaryDirectory(dir=harness.TMP_BASE) as tmp:
        return harness.run(args, harness.set_blas_threads(), Path(tmp),
                           workload_class=cls or TINY[workload])


def main() -> int:
    harness.SETUP_REPEATS = 1
    harness.TMP_BASE.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []

    def expect(ok: bool, what: str):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for name in spec["workloads"]:
        workload = name["name"]
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            record = run_tiny(workload, trace)
            missing = sorted(wanted - set(record["metrics"]))
            expect(not missing and record["failed"] == 0,
                   f"{workload} trace={trace}: {len(wanted)} metrics emitted, "
                   f"{record['failed']} of {record['attempted']} ops failed"
                   + (f"; missing {missing}" if missing else ""))
            if trace == 0:
                zero = [k for k in end_to_end if record["metrics"][k]["value"] == 0]
                expect(not zero, f"{workload}: no end-to-end metric reads 0"
                       + (f"; {zero} do" if zero else ""))

    for cls, what in ((FlippedPresets, "one flipped byte in a preset CSV"),
                      (RaisingPresets, "an operation that raises")):
        record = run_tiny("figure_presets", 0, cls)
        expect(record["attempted"] >= 1 and record["failed"] == record["attempted"],
               f"{what} counts as failed: {record['failed']} of {record['attempted']}; "
               f"{record['failures'][:1]}")

    # a traced function renamed by a refactor: its metrics become absent
    original = tracing.TARGETS
    tracing.TARGETS = tuple(("tunnelqs.scan.run_scan_renamed", span) if span == "scan.evaluate"
                            else (dotted, span) for dotted, span in original)
    try:
        record = run_tiny("figure_presets", 1)
    finally:
        tracing.TARGETS = original
    gone = {"scan.evaluate_s", "scan.rows", "atomic.barrier_geometry_calls_per_row"}
    expect(record["failed"] == 0 and gone <= set(record["absent"])
           and not gone & set(record["metrics"]),
           f"a renamed trace target leaves {len(record['absent'])} metrics absent, "
           f"{record['failed']} ops failed")

    with tempfile.TemporaryDirectory(dir=harness.TMP_BASE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "figure_presets", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"without src/ the harness exits {proc.returncode} and prints no result")

    print("self-test passed" if not problems else f"self-test FAILED: {len(problems)} checks")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

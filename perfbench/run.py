#!/usr/bin/env python3
"""tunnelqs benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload attoclock_smoke --seed 1 --seconds 15 --trace 0

Workloads: attoclock_smoke, spectra_reprocess, figure_presets and
cli_oneshot (see workloads.py and README.md).  The package is used from
``src/`` in place; nothing is installed.  Every operation's output is
checked, and a failed check counts as a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(setup_s, norm_wall_s, norm_rows_per_s, peak_rss_mb).  Their times are
scaled to a reference host speed by a calibration kernel timed around
each operation (see hostspeed.py); the measured times are in the detail
record.  With ``--trace 1`` it carries
the per-layer metrics of a traced run, which alternates untraced and
traced operations so that the tracing overhead is measured in the same
run.  The line before it is a detail record with the provenance block,
the workload's reason and the sample statistics; the same record and the
raw spans are written under ``.perfbench_out/``.

The harness times only its own processes.  It pins no CPU, drops no
cache and changes no system setting; it runs its own processes with one
BLAS thread, set through their environment.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_BASE = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 5
# One BLAS thread (never above nproc): on a 2-vCPU machine a second thread
# made no workload faster, doubled CPU use and so widened the run-to-run
# spread when the host is busy.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HARNESS_NOTE = ("times only its own processes; pins no CPU, drops no cache and "
                "changes no system setting; runs its own processes with one BLAS "
                "thread, set through their environment")


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measure for this long; at least one operation runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build one workload's inputs in a fresh process, for setup_s
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------- provenance

def set_blas_threads() -> int:
    """Set the BLAS thread count of this process and its children; must run
    before numpy loads.  Returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    return nproc


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or the env setting."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"count": fn(), "source": f"{Path(lib).name}:{symbol}"}
    return {"count": int(os.environ["OPENBLAS_NUM_THREADS"]), "source": "environment"}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def provenance(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "harness": HARNESS_NOTE,
    }


# --------------------------------------------------------- measurement

def quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    out = {"n": len(ordered), "median": statistics.median(ordered),
           "min": ordered[0], "max": ordered[-1]}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    return out


def setup_seconds(args, env, tmp: Path, speed) -> tuple[list[float], list[float]]:
    """Cold set-up: a fresh interpreter imports tunnelqs and builds the
    workload's inputs.  Returns the wall time of each repeat, scaled to the
    reference host speed by ``speed``, and as measured."""
    from workloads import run_child

    times, measured = [], []
    for k in range(SETUP_REPEATS):
        probe_dir = tmp / f"setup{k}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
        speed.open()
        t0 = time.perf_counter()
        code, _, _ = run_child(cmd, env, ROOT, tmp / "setup_stderr.txt")
        measured.append(time.perf_counter() - t0)
        times.append(measured[-1] * speed.close())
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: "
                               + (tmp / "setup_stderr.txt").read_text()[-2000:])
        shutil.rmtree(probe_dir)
    return times, measured


def import_times(env, tmp: Path) -> dict:
    """cli.import_s and cli.import_scipy_s from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tunnelqs.cli"],
                          env=env, cwd=tmp, capture_output=True, text=True, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
    # lines come children first; walking backwards sees each parent first
    total = scipy_total = 0.0
    stack: list[tuple[int, bool]] = []
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside_scipy = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside_scipy:
            scipy_total += cumulative
        if level == 0 and (name == "tunnelqs" or name.startswith("tunnelqs.")):
            total += cumulative
        stack.append((level, inside_scipy or is_scipy))
    return {"cli.import_s": total, "cli.import_scipy_s": scipy_total}


def measure(wl, seconds: float, trace: bool):
    """Run operations for ``seconds`` (at least one), each scaled to the
    reference host speed by ``wl.speed``.  A traced run starts
    with one untimed warm-up op, so that neither side of the overhead
    comparison pays the first call's cold start, then alternates untraced
    and traced ops, at least one of each.  Returns the per-op samples, the
    per-layer metrics of each traced op and the traced ops' spans."""
    from tracer import Tracer, absent_metrics, layer_metrics

    tracer = Tracer() if trace else None
    samples, layer_runs, snapshots, absent = [], [], [], {}
    start = time.perf_counter()
    while True:
        warmup = trace and not samples
        traced = trace and len(samples) % 2 == 0 and not warmup
        in_process = traced and not wl.in_child
        if in_process:
            tracer.reset()
            tracer.install()
        output, fails = None, []
        # periodic samples only inside an untraced op of this process: in a
        # traced op they would land in the layer spans, and beside a child
        # they would time the kernel's contention with the child
        wl.speed.open(periodic=not (traced or wl.in_child))
        t0 = time.perf_counter()
        try:
            output = wl.op(traced)
        except Exception as exc:  # a failed op is counted, not fatal
            fails = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            wall = time.perf_counter() - t0
            factor = wl.speed.close()
            if in_process:
                tracer.uninstall()
        wall -= wl.speed.inside_s
        if not fails:
            wall, factor = wl.op_seconds(output, wall, factor)
            try:
                fails = wl.check(output)
            except Exception as exc:
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        if in_process:
            layer_runs.append(layer_metrics(tracer))
            snapshots.append(tracer.snapshot())
            absent = absent_metrics(tracer)
        elif traced:
            report = output.report if output else None
            if report is None or "metrics" not in report:
                fails.append("traced child wrote no report")
            else:
                layer_runs.append(report["metrics"])
                snapshots.append(report["spans"])
                absent = report["absent"]
        samples.append({"wall_s": wall * factor, "measured_s": wall, "factor": factor,
                        "traced": traced, "warmup": warmup, "fails": fails})
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (not trace or len(samples) >= 3):
            return samples, layer_runs, snapshots, absent


def run(args, nproc: int, tmp: Path, workload_class=None):
    """Set up, measure and check one workload; returns the detail record
    with the metrics.  ``workload_class`` overrides the one named by
    ``args.workload`` (the self-test passes reduced sizes this way)."""
    from hostspeed import HostSpeed
    from tracer import LAYER_METRICS, write_spans
    from workloads import WORKLOADS, child_env, load_reference

    env = child_env(ROOT, tmp)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}
    wl = (workload_class or WORKLOADS[args.workload])(ROOT, tmp, args.seed,
                                                      load_reference())
    # set-up is mostly a fresh interpreter starting, whatever the workload
    setup_times, setup_measured = ([], []) if args.trace else setup_seconds(
        args, env, tmp, HostSpeed("process"))
    wl.setup()
    record.update(why=wl.why, seed_use=wl.seed_note, provenance=provenance(nproc))
    imports = import_times(env, tmp) if args.trace else {}

    samples, layer_runs, snapshots, absent = measure(wl, args.seconds, bool(args.trace))
    failures = [f for s in samples for f in s["fails"]]
    untraced = [s for s in samples if not s["traced"] and not s["warmup"]]
    plain = [s["wall_s"] for s in untraced]
    measured = [s["measured_s"] for s in untraced]
    # the traced run reports measured times, like the layer times beside them
    traced = [s["measured_s"] for s in samples if s["traced"]]
    record.update(attempted=len(samples), failed=sum(1 for s in samples if s["fails"]),
                  failures=failures[:20], host_kernel=wl.speed.kind,
                  norm_wall_s=quartiles(plain), measured_wall_s=quartiles(measured),
                  host_factor=quartiles([s["factor"] for s in untraced]),
                  op_seconds=measured)

    if args.trace:
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        units.update({"cli.import_s": "s", "cli.import_scipy_s": "s"})
        metrics = {}
        for name in units:
            values = [run_[name] for run_ in layer_runs if name in run_]
            if name in imports:
                values = [imports[name]]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": units[name]}
        plain_med, traced_med = statistics.median(measured), statistics.median(traced)
        metrics["trace.wall_s"] = {"value": traced_med, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": plain_med, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": traced_med / plain_med - 1.0, "unit": "1"}
        record.update(traced_wall_s=quartiles(traced), absent=absent)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_path, snapshots)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        wall = statistics.median(plain)
        if wl.in_child:
            rss = wl.peak_rss_mb
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "norm_wall_s": {"value": wall, "unit": "s"},
            "norm_rows_per_s": {"value": wl.rows_per_op / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        record.update(setup_s=quartiles(setup_times),
                      measured_setup_s=quartiles(setup_measured), rows_per_op=wl.rows_per_op)
    record["metrics"] = metrics
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tunnelqs" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'tunnelqs'} not found; run the benchmark "
              "from a checkout of the tunnelqs repository", file=sys.stderr)
        return 2
    nproc = set_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        from workloads import WORKLOADS, load_reference

        WORKLOADS[args.workload](ROOT, Path(args.setup_probe), args.seed,
                                 load_reference()).setup()
        return 0

    TMP_BASE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_BASE))
    try:
        record = run(args, nproc, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_BASE.rmdir()
        except OSError:
            pass  # another run still uses it

    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

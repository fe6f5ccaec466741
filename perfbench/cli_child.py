"""Run one tunnelqs CLI invocation in a fresh interpreter, timed inside it.

    python3 perfbench/cli_child.py REPORT.json TRACE KERNEL <tunnelqs arguments...>

TRACE is 0 or 1; KERNEL names the host-speed kernel (hostspeed.py), or is
"-" for none.  The CLI's own stdout and exit code pass through unchanged.
REPORT.json receives the exit code, the wall time of ``tunnelqs.cli.main``
alone (without interpreter start-up and import, and without the
host-speed samples taken during it when TRACE=0) and the host-speed
factor (1 without a kernel), and with TRACE=1 also the per-layer metrics,
missing trace targets and raw spans of the call.
"""

import json
import sys
import time

import tracer as tracing
from hostspeed import HostSpeed


def main() -> int:
    report, trace, kernel = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[4:]
    import tunnelqs.cli

    t = tracing.Tracer()
    speed = HostSpeed(kernel) if kernel != "-" else None
    if trace:
        t.install()
    if speed:
        speed.open(periodic=not trace)
    try:
        t0 = time.perf_counter()
        code = tunnelqs.cli.main(argv)
        wall = time.perf_counter() - t0
    finally:
        factor = speed.close() if speed else 1.0
        t.uninstall()
    sys.stdout.flush()
    data = {"code": code, "wall_s": wall - (speed.inside_s if speed else 0.0),
            "factor": factor}
    if trace:
        data.update(metrics=tracing.layer_metrics(t), absent=tracing.absent_metrics(t),
                    spans=t.snapshot())
    with open(report, "w") as fh:
        json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

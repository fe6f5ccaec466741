"""Every function perfbench's tracer times still exists under its name.

``perfbench/tracer.py`` wraps its targets by dotted name and records a
missing one in ``Tracer.absent``, dropping the per-layer metrics that
need it instead of failing; this test makes a renamed or moved kernel
fail here.  It only reads perfbench.
"""

import importlib.util
from pathlib import Path

import tunnelqs  # noqa: F401  (the tracer rebinds names in loaded tunnelqs modules)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert t.absent == {}

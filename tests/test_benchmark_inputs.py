"""perfbench's spectra_reprocess workload still reads its reference angles.

The workload builds a full-layout state with ``synthetic_state``, writes
and reads it as a checkpoint, projects it, sums the momentum
distribution and reads the offset angle; its check holds theta to 1e-9
rad of ``perfbench/reference.json``.  This runs the workload's own
setup, operation and check for two variants, so a change of the state
layout that breaks the benchmark fails here.  It only reads perfbench.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))   # workloads imports hostspeed by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module     # its dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("seed", [0, 37])
def test_spectra_reprocess_matches_reference(workloads, seed, tmp_path):
    reference = workloads.load_reference()
    work = workloads.SpectraReprocess(PERFBENCH.parent, tmp_path, seed, reference)
    work.setup()
    output = work.op()
    assert work.check(output) == []
    theta = output[-1].theta
    assert abs(theta - reference["spectra_reprocess"]["theta"][str(seed)]) <= 1e-9

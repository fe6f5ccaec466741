"""perfbench's attoclock_smoke and spectra_reprocess workloads still read
their reference values.

The spectra_reprocess workload builds a full-layout state with
``synthetic_state``, writes and reads it as a checkpoint, projects it,
sums the momentum distribution and reads the offset angle; its check
holds theta to 1e-9 rad of ``perfbench/reference.json``.  This runs the
workload's own setup, operation and check for two variants, so a change
of the state layout that breaks the benchmark fails here.  The
attoclock_smoke check holds the smoke run's theta to 1e-3 rad and its
ionized fraction to 1e-3 relative; here the shared smoke run fixture is read
out on the CLI's default grids against the same entry.  It only reads
perfbench.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tunnelqs.spectra import attoclock_readout, default_phi_grid

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


def test_attoclock_smoke_matches_reference(workloads, smoke_run, hydrogen, smoke_pulse):
    reference = workloads.load_reference()["attoclock_smoke"]
    config, state = workloads.SMOKE_CONFIG, smoke_run.state
    assert ((config["Z"], config["F0"], config["omega"], config["l_max"], config["dr"],
             config["r_max"]) == (hydrogen.Z, smoke_pulse.F0, smoke_pulse.omega,
                                  state.l_max, state.grid.dr, state.grid.r_max))
    # the CLI's default p_min and p_max
    p = np.linspace(0.05, 2.5, config["n_p"])
    amps, _, _, offset = attoclock_readout(state, hydrogen, smoke_pulse, p,
                                           default_phi_grid(config["n_phi"]))
    assert abs(offset.theta - reference["theta"]) <= 1e-3
    assert abs(amps.total_ionized() / reference["total_ionized"] - 1.0) <= 1e-3

"""Shared fixtures.

The TDSE smoke run (Z=1, F0=0.5, omega=0.8 on the desk grid) takes
1.1-1.6 s on a 2-vCPU machine, so it is session-scoped and shared
between the solver tests, the spectra tests and the acceptance gate.
Everything derived from it (scattering-state amplitudes, the rotated
twin run, the half-step run) is session-scoped too.

``pythonpath`` in pyproject.toml puts ``src`` on this process's path;
the tests that start a new ``python -m tunnelqs.cli`` need it on the
child's path too, so ``src`` goes first in ``PYTHONPATH``.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from tunnelqs import make_system
from tunnelqs.spectra import project_scattering_states
from tunnelqs.tdse import PulseParams, RadialGrid, run_pulse

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

SMOKE_L_MAX = 8
SMOKE_DT = 0.02


@pytest.fixture(scope="session")
def hydrogen():
    return make_system(1.0)


@pytest.fixture(scope="session")
def smoke_grid():
    return RadialGrid(dr=0.1, r_max=60.0)


@pytest.fixture(scope="session")
def smoke_pulse():
    return PulseParams(F0=0.5, omega=0.8)


@pytest.fixture(scope="session")
def smoke_run(hydrogen, smoke_grid, smoke_pulse):
    return run_pulse(hydrogen, smoke_grid, smoke_pulse,
                     l_max=SMOKE_L_MAX, dt=SMOKE_DT)


@pytest.fixture(scope="session")
def smoke_run_half_dt(hydrogen, smoke_grid, smoke_pulse):
    """Same pulse propagated with dt/2; used for the step-size check."""
    return run_pulse(hydrogen, smoke_grid, smoke_pulse,
                     l_max=SMOKE_L_MAX, dt=0.5 * SMOKE_DT)


@pytest.fixture(scope="session")
def smoke_run_rotated(hydrogen, smoke_grid):
    """Smoke pulse with the carrier phase advanced by 40 grid cells of the
    720-point angular grid.  Rotating the field this way must rotate the
    momentum distribution rigidly, which pins down the gauge handling."""
    shift = 40 * (2.0 * np.pi / 720.0)
    pulse = PulseParams(F0=0.5, omega=0.8, carrier_phase=shift)
    return run_pulse(hydrogen, smoke_grid, pulse,
                     l_max=SMOKE_L_MAX, dt=SMOKE_DT)


@pytest.fixture(scope="session")
def smoke_momenta():
    return np.linspace(0.02, 4.0, 400)


@pytest.fixture(scope="session")
def smoke_amps(smoke_run, hydrogen, smoke_momenta):
    return project_scattering_states(smoke_run.state, hydrogen, smoke_momenta)


@pytest.fixture(scope="session")
def smoke_amps_rotated(smoke_run_rotated, hydrogen, smoke_momenta):
    return project_scattering_states(smoke_run_rotated.state, hydrogen,
                                     smoke_momenta)

"""Host-speed calibration: scale each measured time to a reference host speed.

The shared 2-vCPU host the benchmark was built on changes speed by up to
2.4x, both vCPUs together, in phases of 10 to 60 s.  A fixed loop over the
figure presets, timed for eight minutes, read 1.65 to 3.97 s per pass, and
the run-to-run spread of its median stayed above 0.2 of the median for 20 s
and for 60 s windows alike: longer runs do not average the phases out.

A short fixed kernel of the same kind of code, timed right before and
right after each operation, and every SAMPLE_EVERY_S while the operation
runs in the process that times it, slows down with it.  The periodic
samples come from a SIGALRM timer; their time is taken off the
operation's.  None are taken beside a running child process: there the
kernel would also time its contention with the child, which depends on
the program under test.  The operation's time multiplied by
``reference time / mean(kernel times)`` is its time at the reference
speed.  Where two or more samples were taken during the operation, the
mean is over those alone: the single samples before and after it, taken
beside the harness's own work, tracked the host less well.  README.md gives the run-to-run spreads with and without it.

The kernels are part of the benchmark, not of the program, so a change to
the program cannot make them faster or slower, except through what it
leaves behind in the process (the garbage collector is off while a kernel
runs, so a larger heap does not slow it).  A workload picks the kernel
that matches its own code: ``python`` for interpreter-bound work, ``numpy``
for array-bound work, ``process`` for work that is mostly starting a
fresh interpreter.  If a later change moves a workload's time from one
kind of code to the other, the scaling tracks the host less well; the
measured times stay in the detail record for that comparison.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import subprocess
import sys
import time

# an operation in the process is also sampled this often while it runs
SAMPLE_EVERY_S = 0.25


def python_kernel() -> int:
    """Interpreter-bound: float formatting, small dicts, JSON."""
    rows = []
    for i in range(2000):
        x = i * 0.001234567
        rows.append({"a": repr(x), "b": f"{x * 3.3:.12g}", "c": x * x})
    return len(json.dumps(rows))


_ARRAYS = None


def numpy_kernel() -> float:
    """Array-bound: a Python loop of small-vector updates, as in a Numerov
    sweep over momenta, then complex elementwise updates, reductions and
    small matrix products on arrays the size of a few TDSE channels."""
    global _ARRAYS
    import numpy as np

    if _ARRAYS is None:
        rng = np.random.default_rng(0)
        _ARRAYS = (rng.normal(size=(3, 800)) * [[1.0], [1.0], [0.01]],
                   rng.normal(size=(81, 600)) + 1j * rng.normal(size=(81, 600)),
                   rng.normal(size=(120, 120)))
    (u0, u1, t), x, m0 = _ARRAYS
    for _ in range(150):
        u0, u1 = u1, ((2.0 + 10.0 * t) * u1 - (1.0 - t) * u0) / (1.0 - t)
        u1 = u1 / np.abs(u1).max()
    y, s = x, float(u1.sum())
    for _ in range(10):
        y = y * (0.999 + 0.001j) + x
        s += float(np.vdot(y, y).real)
    m = m0
    for _ in range(5):
        m = m0 @ m
        m /= np.abs(m).max()
    return s


def process_kernel() -> int:
    """Process start: a fresh interpreter, isolated from the environment
    and from site packages, that runs nothing."""
    return subprocess.run([sys.executable, "-I", "-S", "-c", "pass"],
                          stdin=subprocess.DEVNULL, check=True).returncode


# kernel -> its time at the reference speed: the fast phase of the
# 2-vCPU Intel Xeon cloud machine the benchmark was built on
KERNELS = {
    "python": (python_kernel, 0.005),
    "numpy": (numpy_kernel, 0.004),
    "process": (process_kernel, 0.012),
}


class HostSpeed:
    """Times one kernel around each operation and gives the factor that
    scales the operation's time to the reference speed."""

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel, self.reference_s = KERNELS[kind]
        self.window: list[float] = []
        self.inside_s = 0.0         # time of the samples taken inside the op
        self._previous = None       # SIGALRM handler while periodic

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.kernel()
            self.window.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.inside_s += time.perf_counter() - t0

    def open(self, periodic: bool = False) -> None:
        """Start the window of one operation with a sample before it.  With
        ``periodic``, a SIGALRM timer also samples every SAMPLE_EVERY_S while
        the operation runs in this process; ``inside_s`` adds up the time of
        those samples, for the caller to take off the operation's time."""
        self.window, self.inside_s = [], 0.0
        self.sample()
        if periodic:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def close(self) -> float:
        """End the window with a sample after the operation; return the
        factor ``reference time / mean(kernel times)``, over the samples
        taken during the operation when there are two or more, else over
        the window."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self.sample()
        during = self.window[1:-1]
        return self.reference_s / statistics.fmean(during if len(during) >= 2 else self.window)

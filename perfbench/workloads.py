"""The four benchmark workloads.

Each workload builds its inputs in ``setup`` (from the seed where the
seed matters), runs one operation in ``op`` and checks that operation's
output in ``check``, which returns a list of failure messages (empty when
the output is correct).  ``host_kernel`` names the host-speed kernel
(hostspeed.py) of the same kind of code as the operation.  Reference
values were recorded from the unmodified program with
``make_reference.py`` and live in ``reference.json``.

``tunnelqs`` modules are looked up as module attributes at call time, so
the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# spectra_reprocess and cli_oneshot draw their inputs from this many
# seeded variants, each with a recorded reference output
VARIANTS = 64
CLI_POOL = 40
CLI_COMMANDS = ("delays", "zeta-qs", "critical-fields", "scan", "tdse")
CLI_OMEGAS = (0.057, 0.2, 0.8)
CLI_POOL_SEED = 2602

SMOKE_CONFIG = {"Z": 1, "F0": 0.5, "omega": 0.8, "l_max": 8, "dr": 0.1,
                "r_max": 60, "dt": 0.02, "n_p": 200, "n_phi": 720}

SPECTRA_L_MAX = 16
SPECTRA_DR = 0.1
SPECTRA_R_MAX = 120.0
SPECTRA_N_P = 800
SPECTRA_N_PHI = 1440
SPECTRA_OMEGA = 0.8


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def child_env(root: Path, tmp: Path) -> dict:
    """Environment for child processes: src on the path, temp files kept
    inside the run's own temp directory."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp)
    env.pop("TUNNELQS_OUT_DIR", None)
    return env


def run_child(argv: list[str], env: dict, cwd: Path, stderr_path: Path):
    """Run a child to completion; return (exit code, stdout, peak RSS in MB).

    The child is reaped with ``os.wait4`` so its own peak RSS is known.
    """
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=cwd)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss / 1024.0


@dataclass
class ChildRun:
    """One operation run in a child process."""

    argv: list
    code: int
    stdout: str
    rss_mb: float
    report: dict | None     # cli_child.py's report, when it ran


class Workload:
    name = ""
    why = ""
    seed_note = ""
    rows_per_op = 1
    host_kernel = "python"
    # the operation runs in child processes: they carry the tracer, and
    # their peak RSS is the one a user sees
    in_child = False

    def __init__(self, root: Path, tmp: Path, seed: int, reference: dict):
        self.root = root
        self.tmp = tmp
        self.seed = seed
        self.reference = reference.get(self.name, {})
        self.peak_rss_mb = 0.0
        self.speed = HostSpeed(self.host_kernel)

    def setup(self) -> None:
        """Build the inputs; everything ``op`` needs beyond the program."""

    def op(self, traced=False):
        raise NotImplementedError

    def op_seconds(self, output, outer: float, factor: float) -> tuple[float, float]:
        """Duration of the operation and its host-speed factor; ``outer``
        and ``factor`` are the harness's, taken around ``op``."""
        return outer, factor

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def spawn(self, cmd: list[str], argv: list[str], report: Path | None) -> ChildRun:
        code, out, rss = run_child(cmd, child_env(self.root, self.tmp), self.tmp,
                                   self.tmp / "child_stderr.txt")
        data = None
        if report is not None and report.exists():
            data = json.loads(report.read_text())
            report.unlink()
        return ChildRun(argv, code, out, rss, data)

    def run_cli_child(self, argv: list[str], traced: bool, kernel: str = "-") -> ChildRun:
        """``tunnelqs.cli.main(argv)`` in a fresh interpreter, timed inside it,
        under the tracer when ``traced``, and with host-speed samples of
        ``kernel`` unless it is "-"."""
        report = self.tmp / "cli_child.json"
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(report),
               str(int(traced)), kernel, *argv]
        return self.spawn(cmd, argv, report)

    def child_failure(self, run: ChildRun) -> list[str]:
        if run.code == 0:
            return []
        err = (self.tmp / "child_stderr.txt").read_text().strip().splitlines()
        return [f"{' '.join(run.argv)} exited {run.code}: {err[-1] if err else ''}"]


# ------------------------------------------------------------ attoclock

class AttoclockSmoke(Workload):
    """Each operation is a fresh interpreter calling ``cli.main``, as for a
    user of ``tunnelqs tdse``.  In one long-lived process the second run is
    about a third faster than the first (the allocator stops returning the
    big temporaries to the system), so repeated in-process runs would not
    measure what a user waits for."""

    name = "attoclock_smoke"
    why = ("the paper's observable: over 99% of the time is the tdse step loop, "
           "so every TDSE change shows here and no scan code runs")
    seed_note = "unused: the smoke config is fixed by definition"
    settings = SMOKE_CONFIG
    in_child = True
    host_kernel = "numpy"

    @property
    def rows_per_op(self):
        """Rows of the two CSVs one run writes: (p, phi) grid plus phi."""
        return (self.settings["n_p"] + 1) * self.settings["n_phi"]

    def setup(self):
        import tunnelqs.cli  # noqa: F401  (the import is part of set-up)

        self.config = self.tmp / "smoke.cfg"
        self.config.write_text("".join(f"{k}={v}\n" for k, v in self.settings.items()))
        self.out_dir = self.tmp / "attoclock_out"
        self.out_dir.mkdir(exist_ok=True)

    def op(self, traced=False):
        run = self.run_cli_child(["tdse", "--config", str(self.config),
                                  "--out", str(self.out_dir)], traced, self.host_kernel)
        if not traced:
            self.peak_rss_mb = max(self.peak_rss_mb, run.rss_mb)
        return run

    def op_seconds(self, output, outer, factor):
        """cli.main's own time and host-speed factor, from inside the child."""
        if output.report is None:
            return outer, factor
        return output.report["wall_s"], output.report["factor"]

    def check(self, output):
        if output.code != 0 or output.report is None:
            return self.child_failure(output) or ["cli_child.py wrote no report"]
        report = json.loads((self.out_dir / "tdse_report.json").read_text())
        tol = float(report["config"]["tol"])
        fails = []
        drift = abs(report["norm_final"] - report["norm_initial"])
        if not drift <= 1e-6:
            fails.append(f"norm drift {drift:.3e} > 1e-6")
        if not report["max_defect"] <= tol:
            fails.append(f"max_defect {report['max_defect']:.3e} > tol {tol:g}")
        theta_ref = self.reference["theta"]
        if not abs(report["theta"] - theta_ref) <= 1e-3:
            fails.append(f"theta {report['theta']!r} != {theta_ref!r} +- 1e-3")
        ion_ref = self.reference["total_ionized"]
        if not abs(report["total_ionized"] / ion_ref - 1.0) <= 1e-3:
            fails.append(f"ionized fraction {report['total_ionized']!r} != "
                         f"{ion_ref!r} +- 1e-3 relative")
        with open(self.out_dir / "tdse_momentum.csv") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        rows = len(lines) - 1  # after the header row
        expect = self.settings["n_p"] * self.settings["n_phi"]
        if rows != expect:
            fails.append(f"momentum CSV has {rows} rows, expected {expect}")
        return fails


# ------------------------------------------------------------- spectra

def spectra_variant(seed: int) -> int:
    return seed % VARIANTS


def synthetic_state(variant: int, l_max: int = SPECTRA_L_MAX):
    """Seeded final state: a bound part plus three continuum packets.

    Only channels with l + m even carry amplitude, as in a pulse in the
    z = 0 plane.  Returns (state, system) with unit norm and about 15% of
    it in the continuum packets.
    """
    import numpy as np
    from scipy.special import sph_harm_y

    from tunnelqs import make_system, tdse

    rng = np.random.default_rng(variant)
    grid = tdse.RadialGrid(dr=SPECTRA_DR, r_max=SPECTRA_R_MAX)
    r = grid.radii()
    bound = np.zeros(((l_max + 1) ** 2, grid.n_points), dtype=np.complex128)
    bound[tdse.channel_index(0, 0)] = 2.0 * r * np.exp(-r)
    for m in (-1, 1):
        bound[tdse.channel_index(1, m)] = (0.1 * np.exp(2j * math.pi * rng.random())
                                           * r * r * np.exp(-0.5 * r) / math.sqrt(24.0))
    packets = np.zeros_like(bound)
    phi0 = 2.0 * math.pi * rng.random()
    for _ in range(3):
        r0 = rng.uniform(40.0, 90.0)
        width = rng.uniform(5.0, 10.0)
        k0 = rng.uniform(0.6, 1.4)
        l0 = rng.uniform(3.0, 8.0)
        amp = rng.uniform(0.5, 1.5)
        direction = phi0 + rng.normal(0.0, 0.2)
        radial = np.exp(-0.5 * ((r - r0) / width) ** 2 + 1j * k0 * r)
        for l in range(l_max + 1):
            weight = amp * math.exp(-0.5 * ((l - l0) / 2.5) ** 2)
            for m in range(-l, l + 1):
                if (l + m) % 2:
                    continue
                y = complex(sph_harm_y(l, m, math.pi / 2.0, direction))
                jitter = 1.0 + 0.1 * rng.normal()
                packets[tdse.channel_index(l, m)] += weight * y.conjugate() * jitter * radial

    def norm2(a):
        return float(np.sum(np.abs(a) ** 2) * grid.dr)

    psi = bound * math.sqrt(0.85 / norm2(bound)) + packets * math.sqrt(0.15 / norm2(packets))
    psi /= math.sqrt(norm2(psi))
    state = tdse.WavefunctionState(grid=grid, l_max=l_max, psi=psi, t=0.0)
    return state, make_system(1.0)


class SpectraReprocess(Workload):
    name = "spectra_reprocess"
    why = ("spectra is under 1% of attoclock_smoke, so a spectra gain only shows "
           "here; tdse does only the checkpoint read")
    host_kernel = "numpy"
    l_max = SPECTRA_L_MAX
    n_p = SPECTRA_N_P
    n_phi = SPECTRA_N_PHI

    @property
    def rows_per_op(self):
        """Cells of the (p, phi) momentum distribution."""
        return self.n_p * self.n_phi

    @property
    def seed_note(self):
        return (f"generates the synthetic final state: variant "
                f"{spectra_variant(self.seed)} = seed mod {VARIANTS}")

    def setup(self):
        import numpy as np

        from tunnelqs import spectra, tdse

        state, system = synthetic_state(spectra_variant(self.seed), self.l_max)
        self.checkpoint = self.tmp / "spectra_state.npz"
        tdse.save_checkpoint(self.checkpoint, state, system)
        self.p = np.linspace(0.05, 2.5, self.n_p)
        self.phi = spectra.default_phi_grid(self.n_phi)

    def op(self, traced=False):
        from tunnelqs import spectra, tdse

        state, system = tdse.load_checkpoint(self.checkpoint)
        amps = spectra.project_scattering_states(state, system, self.p)
        dist = spectra.momentum_distribution(amps, self.p, self.phi)
        ang = spectra.radial_integrate(dist)
        offset = spectra.offset_angle_and_delay(ang, SPECTRA_OMEGA)
        return state, system, amps, dist, offset

    def check(self, output):
        from tunnelqs import spectra

        state, system, amps, dist, offset = output
        fails = []
        cleaned, _ = spectra.remove_bound(state, system.Zeff)
        gap = abs(amps.bound_removed + cleaned.norm() ** 2 - state.norm() ** 2)
        if not gap <= 1e-10:
            fails.append(f"bound_removed + |cleaned|^2 - |state|^2 = {gap:.3e}")
        total = amps.total_ionized()
        rel = abs(dist.integrate() / total - 1.0)
        if not rel <= 1e-12:
            fails.append(f"dist.integrate() vs total_ionized(): relative gap {rel:.3e}")
        ref = self.reference["theta"][str(spectra_variant(self.seed))]
        # 1e-9 rad allows last-bit differences between BLAS kernels
        if not abs(offset.theta - ref) <= 1e-9:
            fails.append(f"theta {offset.theta!r} != reference {ref!r}")
        return fails


# ------------------------------------------------------------- presets

class FigurePresets(Workload):
    name = "figure_presets"
    why = ("all 12 figure presets exercise atomic, superluminal and scan with no "
           "tdse or spectra work, and show serialization against evaluation")
    seed_note = "unused: the 12 presets are fixed by definition"
    rows_per_op = 14000
    names = None        # every preset

    def setup(self):
        from tunnelqs import scan

        self.names = self.names or scan.PRESET_NAMES

    def op(self, traced=False):
        from tunnelqs import scan

        out = {}
        for name in self.names:
            records = scan.run_preset(name)
            out[name] = (len(records), scan.emit_table(records, "csv"),
                         scan.emit_table(records, "json"))
        return out

    def check(self, output):
        fails = []
        rows = sum(n for n, _, _ in output.values())
        if rows != self.rows_per_op:
            fails.append(f"{rows} rows, expected {self.rows_per_op}")
        for name, (_, csv, js) in output.items():
            ref = self.reference["sha256"][name]
            if sha256(csv) != ref["csv"]:
                fails.append(f"{name}: CSV digest differs")
            if sha256(js) != ref["json"]:
                fails.append(f"{name}: JSON digest differs")
        return fails


# ----------------------------------------------------------------- cli

def cli_pool() -> list[tuple[str, str, str]]:
    """Fixed pool of (Z, F, omega) strings, F inside (0, F_a) for a
    nonrelativistic H-like ion, F_a = Z^3/16."""
    import numpy as np

    rng = np.random.default_rng(CLI_POOL_SEED)
    pool = []
    for _ in range(CLI_POOL):
        z = int(rng.integers(1, 61))
        frac = float(rng.uniform(0.05, 0.9))
        f = float(f"{frac * z ** 3 / 16.0:.6g}")
        omega = CLI_OMEGAS[int(rng.integers(len(CLI_OMEGAS)))]
        pool.append((repr(float(z)), repr(f), repr(omega)))
    return pool


def cli_argv(command: str, z: str, f: str, omega: str) -> list[str]:
    if command == "delays":
        return ["delays", "--Z", z, "--F", f, "--omega", omega]
    if command == "zeta-qs":
        return ["zeta-qs", "--Z", z, "--F", f]
    if command == "critical-fields":
        return ["critical-fields", "--Z", z]
    if command == "scan":
        return ["scan", "--Z", z, "--F", f]
    return ["tdse", "--Z", z, "--F", f, "--omega", omega, "--dry-run"]


def cli_invocations(seed: int, count: int) -> list[list[str]]:
    """The first ``count`` argv lists of the seeded sequence: the pool in a
    seeded order, commands taken in turn from a seeded first one."""
    import numpy as np

    pool = cli_pool()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))
    first = int(rng.integers(len(CLI_COMMANDS)))
    return [cli_argv(CLI_COMMANDS[(i + first) % len(CLI_COMMANDS)],
                     *pool[order[i % len(pool)]])
            for i in range(count)]


class CliOneshot(Workload):
    name = "cli_oneshot"
    why = ("the latency a CLI user pays per call, mostly import; fixed per-call "
           "cost added for batch throughput shows here")
    seed_note = (f"orders a fixed pool of {CLI_POOL} seeded (Z, F, omega) points "
                 f"and picks the first command")
    in_child = True
    host_kernel = "process"

    def setup(self):
        # one fresh process takes well over 10 ms, so no run gets this far
        self.invocations = iter(cli_invocations(self.seed, 10000))

    def op(self, traced=False):
        argv = next(self.invocations)
        if traced:
            return self.run_cli_child(argv, traced=True)
        run = self.spawn([sys.executable, "-m", "tunnelqs.cli", *argv], argv, None)
        self.peak_rss_mb = max(self.peak_rss_mb, run.rss_mb)
        return run

    def check(self, output):
        fails = self.child_failure(output)
        if fails:
            return fails
        key = " ".join(output.argv)
        ref = self.reference["stdout_sha256"].get(key)
        if ref is None:
            return [f"no reference stdout for {key}"]
        if sha256(output.stdout) != ref:
            return [f"{key}: stdout differs from the reference"]
        return []


WORKLOADS = {w.name: w for w in (AttoclockSmoke, SpectraReprocess, FigurePresets,
                                 CliOneshot)}

"""Velocity-gauge TDSE for a hydrogen-like atom in an elliptically
polarized few-cycle pulse.

The wavefunction is expanded over spherical-harmonic channels (l, m)
with reduced radial functions u_lm(r) = r f_lm(r) on a uniform grid, so
the total norm is sum_lm integral |u_lm|^2 dr.  The field couples only
(l, m) -> (l +- 1, m +- 1), the signature of circular polarization in
the polarization plane.

Propagation uses the implicit midpoint (Crank-Nicolson) step.  Because
A . p changes l + m by 0 or +-2, the channels split into two parity
sectors (l + m even and odd) that never mix; the operators are assembled
once per sector, and a step propagates only the sectors that hold
amplitude, so a run from the (0, 0) ground state never touches the odd
one.  Within a sector the field-free part is inverted exactly by one
LU-factored tridiagonal solve over its channels, whose off-diagonal is
cut at each channel edge; the channel-coupling interaction, two sparse
matrices, is folded in by fixed-point iteration with a per-step defect
tolerance, which keeps the step unitary to that tolerance for any dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import zgttrf, zgttrs
from scipy.sparse import csr_matrix

__all__ = [
    "PropagationError",
    "Propagator",
    "PulseParams",
    "PulseResult",
    "RadialGrid",
    "TdseConfigError",
    "WavefunctionState",
    "atomic_diagonal",
    "build_ground_state",
    "channel_index",
    "channel_list",
    "coupling_operators",
    "cusp_correction",
    "envelope",
    "load_checkpoint",
    "plan_run",
    "run_pulse",
    "save_checkpoint",
    "vector_potential",
]

CHECKPOINT_VERSION = 1

DEFAULT_TOL = 1e-10       # per-step fixed-point defect
DEFAULT_MAX_ITER = 50
DEFAULT_MAX_CHANNELS = 16384

# above these the run is accepted but flagged as beyond desk scale
DESK_CHANNELS = 1500
DESK_POINTS = 10000


class TdseConfigError(ValueError):
    """Invalid or oversized solver configuration."""


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise TdseConfigError(f"{name} must be finite, got {value}")


def _require_positive(**values: float) -> None:
    _require_finite(**values)
    for name, value in values.items():
        if not value > 0.0:
            raise TdseConfigError(f"{name} must be positive, got {value}")


class PropagationError(RuntimeError):
    """Fixed-point iteration failed to reach the defect tolerance.

    The state passed to the failing step is left at the last good time;
    ``t_last`` records it when the pulse driver re-raises, and
    ``checkpoint`` the path of the crash checkpoint it wrote, if any.
    """

    def __init__(self, defect: float, tol: float, step: int,
                 t_last: float | None = None, checkpoint=None):
        self.defect = defect
        self.tol = tol
        self.step = step
        self.t_last = t_last
        self.checkpoint = checkpoint
        at = "" if t_last is None else f" (last good time t = {t_last:.6g})"
        saved = "" if checkpoint is None else f"; crash checkpoint written to {checkpoint}"
        super().__init__(
            f"step {step}: defect {defect:.3e} above tolerance {tol:.1e} "
            f"after the iteration limit{at}{saved}")


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid r_j = j dr, j = 1..n_points, n_points = r_max/dr.

    The wavefunction is treated as zero at r = 0 and beyond the last
    point, which places the hard box wall one spacing outside r_max.
    """

    dr: float
    r_max: float

    def __post_init__(self):
        _require_finite(dr=self.dr, r_max=self.r_max)
        if not self.dr > 0.0:
            raise ValueError(f"dr must be positive, got {self.dr}")
        if not self.r_max > self.dr:
            raise ValueError(f"r_max must exceed dr, got {self.r_max}")
        ratio = self.r_max / self.dr
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(
                f"r_max/dr = {ratio:g} must be an integer number of spacings")

    @property
    def n_points(self) -> int:
        return int(round(self.r_max / self.dr))

    def radii(self) -> np.ndarray:
        return self.dr * np.arange(1, self.n_points + 1)


def channel_index(l: int, m: int) -> int:
    """Position of channel (l, m) in the fixed ordering l^2 + l + m."""
    return l * l + l + m


def channel_list(l_max: int) -> list[tuple[int, int]]:
    return [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]


@dataclass(frozen=True)
class PulseParams:
    """sin^16-envelope pulse of two optical cycles.

    A_x(t) = -(f(t) F0 / (omega sqrt(1 + eps^2))) cos(omega t + phase)
    A_y(t) = +(eps f(t) F0 / (omega sqrt(1 + eps^2))) sin(omega t + phase)

    with f(t) = sin^16(pi t / T1), T1 = 2 (2 pi / omega).  The peak
    electric-field magnitude is F0/sqrt(1 + eps^2); eps = 1 is circular.
    ``carrier_phase`` rotates the polarization pattern in the xy plane.
    """

    F0: float
    omega: float
    ellipticity: float = 1.0
    carrier_phase: float = 0.0

    def __post_init__(self):
        _require_finite(F0=self.F0, omega=self.omega, ellipticity=self.ellipticity,
                        carrier_phase=self.carrier_phase)
        if self.F0 < 0.0:
            raise ValueError(f"F0 must be >= 0, got {self.F0}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not 0.0 <= self.ellipticity <= 1.0:
            raise ValueError(
                f"ellipticity must lie in [0, 1], got {self.ellipticity}")

    @property
    def duration(self) -> float:
        """T1 = two carrier periods."""
        return 2.0 * (2.0 * math.pi / self.omega)

    @property
    def peak_field(self) -> float:
        return self.F0 / math.sqrt(1.0 + self.ellipticity ** 2)


def envelope(pulse: PulseParams, t: float) -> float:
    """sin^16 envelope, zero outside [0, T1]."""
    t1 = pulse.duration
    if t <= 0.0 or t >= t1:
        return 0.0
    return math.sin(math.pi * t / t1) ** 16


def vector_potential(pulse: PulseParams, t: float) -> tuple[float, float]:
    """(A_x, A_y) at time t; identically zero outside the pulse."""
    f = envelope(pulse, t)
    if f == 0.0:
        return 0.0, 0.0
    eps = pulse.ellipticity
    amp = f * pulse.F0 / (pulse.omega * math.sqrt(1.0 + eps * eps))
    phase = pulse.omega * t + pulse.carrier_phase
    return -amp * math.cos(phase), eps * amp * math.sin(phase)


def cusp_correction(zeff: float, dr: float) -> float:
    """Diagonal correction at the first grid point of the l = 0 block.

    The plain three-point problem with potential -Zeff/r has the exact
    lattice ground state u_j = j q^j, q = sqrt(1 + x^2) - x, x = Zeff dr,
    at energy -(sqrt(1 + x^2) - 1)/dr^2 instead of -Zeff^2/2.  Shifting
    the first diagonal element by the first-order amount below moves the
    discrete level onto the physical one; the residual mismatch shrinks
    faster than dr^2 while every other level keeps the plain second-order
    behaviour of the stencil.
    """
    x = zeff * dr
    if x == 0.0:
        return 0.0  # no cusp without a Coulomb singularity
    root = math.sqrt(1.0 + x * x)
    s = (root - x) ** 2                       # q^2 of the lattice solution
    e_lattice = -(root - 1.0) / (dr * dr)
    return (-0.5 * zeff * zeff - e_lattice) * (1.0 + s) / (1.0 - s) ** 3


def atomic_diagonal(zeff: float, grid: RadialGrid, l: int) -> np.ndarray:
    """Diagonal of the field-free radial Hamiltonian for channel l.

    Off-diagonal elements are the constant -1/(2 dr^2).
    """
    r = grid.radii()
    diag = 1.0 / grid.dr ** 2 + l * (l + 1) / (2.0 * r * r) - zeff / r
    if l == 0:
        diag[0] += cusp_correction(zeff, grid.dr)
    return diag


@dataclass
class WavefunctionState:
    """Channel wavefunctions u_lm(r) at time t.

    ``psi`` has shape (n_channels, n_points) with channels in the fixed
    (l, m) ordering of :func:`channel_index`.  A state is owned by a
    single propagation driver; share copies, not the live array.
    """

    grid: RadialGrid
    l_max: int
    psi: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        expect = ((self.l_max + 1) ** 2, self.grid.n_points)
        if self.psi.shape != expect:
            raise ValueError(f"psi shape {self.psi.shape} != {expect}")

    @property
    def n_channels(self) -> int:
        return (self.l_max + 1) ** 2

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.psi) ** 2) * self.grid.dr))

    def channel(self, l: int, m: int) -> np.ndarray:
        return self.psi[channel_index(l, m)]

    def populations(self) -> np.ndarray:
        """Per-channel norm^2, ordered like the channels."""
        return np.sum(np.abs(self.psi) ** 2, axis=1) * self.grid.dr

    def populations_by_l(self) -> np.ndarray:
        pops = self.populations()
        out = np.zeros(self.l_max + 1)
        for l in range(self.l_max + 1):
            i0 = channel_index(l, -l)
            out[l] = pops[i0:i0 + 2 * l + 1].sum()
        return out

    def copy(self) -> "WavefunctionState":
        return replace(self, psi=self.psi.copy())


def build_ground_state(system, grid: RadialGrid, l_max: int) -> tuple[WavefunctionState, float]:
    """Ground state of the discrete field-free Hamiltonian in channel (0, 0).

    Returns the state (unit norm, deterministic sign: positive at the
    radial maximum) and its discrete energy, so that field-free
    propagation changes it by a global phase only.
    """
    if l_max < 0:
        raise TdseConfigError(f"l_max must be >= 0, got {l_max}")
    n = grid.n_points
    diag = atomic_diagonal(system.Zeff, grid, 0)
    off = -0.5 / grid.dr ** 2 * np.ones(n - 1)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    u = v[:, 0]
    u = u / math.sqrt(np.sum(u * u) * grid.dr)
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u
    psi = np.zeros(((l_max + 1) ** 2, n), dtype=np.complex128)
    psi[channel_index(0, 0)] = u
    return WavefunctionState(grid=grid, l_max=l_max, psi=psi, t=0.0), float(w[0])


def coupling_operators(l_max: int):
    """Angular coupling of A . p as two sparse matrices (D+, D-).

    The operator splits into raising/lowering parts in m:
    H_int = -(i/2) [conj(Atilde) D+ + Atilde D-], Atilde = A_x + i A_y,
    where D+- move m by +-1 and l by +-1 and act radially as
    (d/dr - (l+1)/r) going up in l and (d/dr + l/r) going down.  Each
    matrix has shape (n_channels, 2 n_channels) and acts on the stacked
    radial array [du/dr ; u/r]: the left half holds the Clebsch-Gordan
    prefactor of each edge, the right half that prefactor times the
    edge's 1/r coefficient.  With the antisymmetric first-derivative
    stencil the assembled operator is exactly Hermitian.
    """
    nch = (l_max + 1) ** 2
    entries = {+1: [], -1: []}   # m step -> (row, column, value)
    for l, m in channel_list(l_max):
        edges = []               # (l of the destination, m step, prefactor)
        if l < l_max:
            norm = (2 * l + 1) * (2 * l + 3)
            edges.append((l + 1, +1, -math.sqrt((l + m + 1) * (l + m + 2) / norm)))
            edges.append((l + 1, -1, math.sqrt((l - m + 1) * (l - m + 2) / norm)))
        norm = (2 * l - 1) * (2 * l + 1)
        if l >= 1 and abs(m + 1) <= l - 1:
            edges.append((l - 1, +1, math.sqrt((l - m) * (l - m - 1) / norm)))
        if l >= 1 and abs(m - 1) <= l - 1:
            edges.append((l - 1, -1, -math.sqrt((l + m) * (l + m - 1) / norm)))
        src = channel_index(l, m)
        for l_dst, dm, prefactor in edges:
            dst = channel_index(l_dst, m + dm)
            rcoef = -(l + 1.0) if l_dst > l else float(l)
            entries[dm] += [(dst, src, prefactor), (dst, nch + src, prefactor * rcoef)]
    ops = []
    for dm in (+1, -1):
        rows, cols, vals = np.array(entries[dm]).reshape(-1, 3).T
        ops.append(csr_matrix((vals, (rows.astype(np.intp), cols.astype(np.intp))),
                              shape=(nch, 2 * nch)))
    return tuple(ops)


class _Sector:
    """Operators of one l + m parity sector, assembled once per dt.

    ``idx`` lists the sector's channels in the full (l, m) layout; the
    arrays here are indexed by position in ``idx``.
    """

    def __init__(self, idx, dplus, dminus, diag, lu):
        self.idx = idx
        self.dplus = dplus
        self.dminus = dminus
        self.diag = diag
        self.lu = lu
        self.stacked = np.empty((2 * len(idx), diag.shape[1]), dtype=np.complex128)
        self._atilde = None
        self._h_int = None

    def coupling(self, atilde: complex):
        """H_int on this sector; rebuilt only when Atilde changes, i.e.
        once per step rather than once per fixed-point iteration."""
        if atilde != self._atilde:
            # combined before the product: one sparse product instead of two
            self._h_int = ((-0.5j * np.conj(atilde)) * self.dplus
                           + (-0.5j * atilde) * self.dminus)
            self._atilde = atilde
        return self._h_int


class Propagator:
    """Crank-Nicolson stepper with operators assembled once per dt.

    One instance owns, for each l + m parity sector of a fixed
    (system, grid, l_max, dt), the sector's channel diagonals, the LU
    factors of its block-tridiagonal (1 + i dt/2 H_atom) and its rows
    and columns of the coupling operators.  ``apply_atomic``,
    ``apply_interaction`` and ``_solve_implicit`` act on one sector's
    channel array, ``psi[sector.idx]`` of the full (l, m) layout.
    """

    def __init__(self, system, grid: RadialGrid, l_max: int, dt: float,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
        _require_positive(dt=dt, tol=tol)
        if max_iter < 1:
            raise TdseConfigError(f"max_iter must be >= 1, got {max_iter}")
        self.system = system
        self.grid = grid
        self.l_max = l_max
        self.dt = dt
        self.tol = tol
        self.max_iter = max_iter
        n = grid.n_points
        nch = (l_max + 1) ** 2
        self.off = -0.5 / grid.dr ** 2
        self.inv_r = 1.0 / grid.radii()
        dplus, dminus = coupling_operators(l_max)
        diag_by_l = [atomic_diagonal(system.Zeff, grid, l) for l in range(l_max + 1)]
        self.sectors = []
        for parity in (0, 1):
            channels = [(l, m) for l, m in channel_list(l_max) if (l + m) % 2 == parity]
            if not channels:
                continue  # l_max = 0 has no odd sector
            idx = np.array([channel_index(l, m) for l, m in channels])
            cols = np.concatenate([idx, nch + idx])
            diag = np.array([diag_by_l[l] for l, _ in channels])
            # one tridiagonal over the sector's channels, cut at each channel edge
            off = np.full(diag.size - 1, 0.5j * dt * self.off)
            off[n - 1::n] = 0.0
            lu = zgttrf(off, 1.0 + 0.5j * dt * diag.ravel(), off)[:5]
            self.sectors.append(_Sector(idx, dplus[idx][:, cols], dminus[idx][:, cols],
                                        diag, lu))

    def apply_atomic(self, psi: np.ndarray, sector: _Sector) -> np.ndarray:
        out = sector.diag * psi
        out[:, :-1] += self.off * psi[:, 1:]
        out[:, 1:] += self.off * psi[:, :-1]
        return out

    def apply_interaction(self, psi: np.ndarray, atilde: complex,
                          sector: _Sector) -> np.ndarray:
        """A . p applied to the channel array for Atilde = A_x + i A_y."""
        s = sector.stacked
        grad, over_r = s[:len(psi)], s[len(psi):]
        two_dr = 2.0 * self.grid.dr
        np.divide(psi[:, 2:] - psi[:, :-2], two_dr, out=grad[:, 1:-1])
        grad[:, 0] = psi[:, 1] / two_dr            # u = 0 at r = 0
        grad[:, -1] = -psi[:, -2] / two_dr         # u = 0 beyond the box
        np.multiply(psi, self.inv_r, out=over_r)
        return sector.coupling(atilde) @ s

    def _solve_implicit(self, rhs: np.ndarray, sector: _Sector) -> np.ndarray:
        x, _ = zgttrs(*sector.lu, rhs.reshape(-1, 1))
        return x.reshape(rhs.shape)

    def step(self, state: WavefunctionState, pulse: PulseParams,
             step_index: int = 0) -> tuple[int, float]:
        """Advance the state by dt in place; returns (iterations, defect).

        Only the parity sectors holding amplitude are propagated; an empty
        sector is exactly zero and stays so.  Each sector iterates to the
        tolerance on its own, and the step reports the largest iteration
        count and defect over the propagated sectors.
        """
        ax, ay = vector_potential(pulse, state.t + 0.5 * self.dt)
        atilde = complex(ax, ay)
        iterations, defect, done = 0, 0.0, []
        for sec in self.sectors:
            psi = state.psi[sec.idx]
            if psi.any():
                new, it, d = self._step_sector(psi, atilde, sec, step_index)
                done.append((sec.idx, new))
                iterations, defect = max(iterations, it), max(defect, d)
        # written back only once every sector has converged
        for idx, new in done:
            state.psi[idx] = new
        state.t += self.dt
        return iterations, defect

    def _step_sector(self, psi: np.ndarray, atilde: complex, sec: _Sector,
                     step_index: int) -> tuple[np.ndarray, int, float]:
        dt = self.dt
        if atilde == 0.0:
            return self._solve_implicit(psi - 0.5j * dt * self.apply_atomic(psi, sec),
                                        sec), 1, 0.0
        # H_int psi enters both b and the first iterate, which starts at x = psi
        h_x = self.apply_interaction(psi, atilde, sec)
        b = psi - 0.5j * dt * (self.apply_atomic(psi, sec) + h_x)
        x = psi
        scale = math.sqrt(self.grid.dr)
        for it in range(1, self.max_iter + 1):
            xn = self._solve_implicit(b - 0.5j * dt * h_x, sec)
            defect = float(np.linalg.norm(xn - x)) * scale
            if defect <= self.tol:
                return xn, it, defect
            x = xn
            h_x = self.apply_interaction(x, atilde, sec)
        raise PropagationError(defect, self.tol, step_index)


def default_dt(zeff: float) -> float:
    """dt = min(0.02, 0.02/Zeff^2); tighter binding needs finer steps."""
    return min(0.02, 0.02 / (zeff * zeff))


def plan_run(system, grid: RadialGrid, pulse: PulseParams, l_max: int,
             dt: float | None = None,
             max_channels: int = DEFAULT_MAX_CHANNELS,
             tol: float = DEFAULT_TOL) -> tuple[int, int, list[str]]:
    """Validate a run and report (n_steps, n_channels, warnings).

    Raises :class:`TdseConfigError` when the channel count exceeds the
    memory guard or dt or tol is not a positive finite number.  Oversized-but-allowed configurations come back with a
    warning instead of an error, so published-scale parameters can be
    planned on a desk machine without being run by accident.
    """
    if l_max < 0:
        raise TdseConfigError(f"l_max must be >= 0, got {l_max}")
    nch = (l_max + 1) ** 2
    if nch > max_channels:
        raise TdseConfigError(
            f"{nch} channels (l_max = {l_max}) exceed the memory guard of "
            f"{max_channels} channels; raise max_channels explicitly to allow this")
    if dt is None:
        dt = default_dt(system.Zeff)
    _require_positive(dt=dt, tol=tol)
    n_steps = int(math.ceil(pulse.duration / dt - 1e-12))
    warnings = []
    if nch > DESK_CHANNELS or grid.n_points > DESK_POINTS:
        mb = nch * grid.n_points * 16 * 4 / 1e6
        warnings.append(
            f"not desk scale: {nch} channels x {grid.n_points} points "
            f"(roughly {mb:.0f} MB of working set)")
    return n_steps, nch, warnings


@dataclass
class PulseResult:
    """Final state of a pulse run plus convergence metadata."""

    state: WavefunctionState
    energy0: float
    steps: int
    max_iterations: int
    max_defect: float
    norm_initial: float
    norm_final: float
    max_step_norm_drift: float
    populations_by_l: np.ndarray
    tail_fraction: float        # share of the norm in the top two l blocks
    warnings: list = field(default_factory=list)


def run_pulse(system, grid: RadialGrid, pulse: PulseParams, l_max: int,
              dt: float | None = None, tol: float = DEFAULT_TOL,
              max_iter: int = DEFAULT_MAX_ITER,
              max_channels: int = DEFAULT_MAX_CHANNELS,
              checkpoint_path=None, checkpoint_every: int = 0) -> PulseResult:
    """Propagate the field-free ground state through the whole pulse.

    The final partial step is shortened so the state lands exactly on
    t = T1.  The tail fraction in the two highest l blocks is the usual
    check that l_max was large enough for the chosen intensity.
    """
    _, _, warnings = plan_run(system, grid, pulse, l_max, dt, max_channels, tol)
    if dt is None:
        dt = default_dt(system.Zeff)
    state, energy0 = build_ground_state(system, grid, l_max)
    norm0 = state.norm()

    t1 = pulse.duration
    n_full = int(t1 / dt)
    remainder = t1 - n_full * dt
    if remainder < 1e-12 * t1:
        remainder = 0.0

    prop = Propagator(system, grid, l_max, dt, tol=tol, max_iter=max_iter)
    max_it = 0
    max_defect = 0.0
    max_drift = 0.0
    prev_norm = norm0
    steps_done = 0

    def after_step():
        nonlocal prev_norm, max_drift, steps_done
        steps_done += 1
        norm = state.norm()
        max_drift = max(max_drift, abs(norm - prev_norm))
        prev_norm = norm
        if checkpoint_path and checkpoint_every and steps_done % checkpoint_every == 0:
            save_checkpoint(checkpoint_path, state, system)

    try:
        for k in range(n_full):
            it, defect = prop.step(state, pulse, step_index=k)
            max_it = max(max_it, it)
            max_defect = max(max_defect, defect)
            after_step()
        if remainder > 0.0:
            tail_prop = Propagator(system, grid, l_max, remainder, tol=tol,
                                   max_iter=max_iter)
            it, defect = tail_prop.step(state, pulse, step_index=n_full)
            max_it = max(max_it, it)
            max_defect = max(max_defect, defect)
            after_step()
    except PropagationError as exc:
        if checkpoint_path:
            save_checkpoint(checkpoint_path, state, system)
        raise PropagationError(exc.defect, exc.tol, exc.step, t_last=state.t,
                               checkpoint=checkpoint_path or None) from None

    pops = state.populations_by_l()
    total = pops.sum()
    tail = float(pops[-2:].sum() / total) if l_max >= 1 and total > 0.0 else 0.0
    if tail > 1e-6:
        warnings = warnings + [
            f"population tail in the top two l blocks is {tail:.2e}; "
            "consider a larger l_max"]
    if checkpoint_path:
        save_checkpoint(checkpoint_path, state, system)
    return PulseResult(
        state=state,
        energy0=energy0,
        steps=steps_done,
        max_iterations=max_it,
        max_defect=max_defect,
        norm_initial=norm0,
        norm_final=state.norm(),
        max_step_norm_drift=max_drift,
        populations_by_l=pops,
        tail_fraction=tail,
        warnings=warnings,
    )


def save_checkpoint(path, state: WavefunctionState, system) -> None:
    """Versioned binary dump of (grid, system, channel amplitudes, time).

    Written to ``path`` exactly as given: through an open file, numpy adds
    no ``.npz`` suffix, so the path a crash reports is the file on disk.
    """
    with open(path, "wb") as fh:
        np.savez(
            fh,
            version=np.int64(CHECKPOINT_VERSION),
            dr=state.grid.dr,
            r_max=state.grid.r_max,
            l_max=np.int64(state.l_max),
            t=state.t,
            psi=state.psi,
            Z=system.Z,
            Zeff=system.Zeff,
            Ip=system.Ip,
            relativistic=np.int64(1 if system.relativistic else 0),
        )


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`; returns (state, system)."""
    from .atomic import AtomicSystem

    with np.load(path) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        grid = RadialGrid(dr=float(data["dr"]), r_max=float(data["r_max"]))
        state = WavefunctionState(
            grid=grid,
            l_max=int(data["l_max"]),
            psi=np.array(data["psi"], dtype=np.complex128),
            t=float(data["t"]),
        )
        system = AtomicSystem(
            Z=float(data["Z"]),
            Zeff=float(data["Zeff"]),
            Ip=float(data["Ip"]),
            relativistic=bool(int(data["relativistic"])),
        )
    return state, system

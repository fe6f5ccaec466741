"""Velocity-gauge TDSE for a hydrogen-like atom in an elliptically
polarized few-cycle pulse.

The wavefunction is expanded over spherical-harmonic channels (l, m)
with reduced radial functions u_lm(r) = r f_lm(r) on a uniform grid, so
the total norm is sum_lm integral |u_lm|^2 dr.  The field couples only
(l, m) -> (l +- 1, m +- 1), the signature of circular polarization in
the polarization plane.

Propagation uses the implicit midpoint (Crank-Nicolson) step.  Because
A . p changes l + m by 0 or +-2, a run from the (0, 0) ground state
fills only the channels with even l + m, and a state holds those alone,
the rows of :func:`even_channels`; each l is l + 1 adjacent rows.  A
step returns 2 m - psi for the midpoint m of (1 + i dt/2 H) m = psi,
found by the fixed-point iteration m_k = (1 + i dt/2 H_atom)^-1
(psi - i dt/2 w_(k-1)), w_k = H_int m_k, to a per-step defect
tolerance, which keeps the step unitary to that tolerance for any dt.
H_atom is inverted exactly by one LU-factored tridiagonal solve, whose
off-diagonal is cut at each channel edge, and the channel coupling H_int
is one sparse matrix on the same rows.  A pulse of length T1 is
n = ceil(T1/dt) equal steps taken by one :class:`Propagator`, so dt is
the largest step.

The iterate m_k leaves the residual r_k = -i dt/2 (w_k - w_(k-1)) in the
midpoint equation, and the next iterate moves it by
(1 + i dt/2 H_atom)^-1 r_k.  H_atom is real symmetric, so that inverse
has norm at most 1, and dt |w_k - w_(k-1)| bounds how far the next
iteration would move the step's result 2 m - psi.  A step tests this
bound on each new coupling product before it solves again and stops at
m_k when the bound is within the tolerance, the residual test of inexact
Newton methods (Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19,
400 (1982)); an iteration is one coupling product and at most one solve.

A solve's change bounds the next residual as well: w_(k+1) - w_k =
H_int (m_(k+1) - m_k), and |H_int| <= |Atilde| N/2 for a bound N on the
coupling's norm, computed once per window, so the next residual test
reads at most q 2 |m_(k+1) - m_k|, q = dt |Atilde| N/4, when the window
does not grow.  A step whose solve does not meet the tolerance stops at
m_(k+1) when q times its change does, the a-posteriori estimate of a
contracting fixed-point iteration (C. T. Kelley, Iterative Methods for
Linear and Nonlinear Equations, SIAM 1995, ch. 4).  The residual test
would have returned the same m_(k+1), so the bound changes no state; it
saves that test's coupling product, and a field-free step, with q = 0,
ends at its first solve.

A step works only on the l blocks the field has reached.  The coupling
moves l by one, so amplitude climbs from block 0 one block at a time,
and the window of propagated blocks 0..L is a prefix of the rows.  It
starts one block past the highest whose population exceeds ``REACH``
and grows by one block inside the iteration whenever the iterate's top
block exceeds it; rows above the window are carried over unchanged.
No pivot of the LU factors crosses a channel edge, so the prefix of
the factors factors the prefix of the rows, and the coupling on each
prefix is built once.

The iteration starts midway between psi and the order-4 (``ORDER``)
extrapolation of the last five states the stepper produced, kept in a
ring and combined in one matrix product over the window's rows; the
ring's newest entry is the state the last step produced, so a step
copies the state once, into the ring, and a state the stepper did not
produce itself starts from psi.  Every array of psi's size that a step
needs, the ring included, is a work buffer allocated with the
operators, so the step loop allocates no large temporaries.

A run starts from the lowest E < 0 level for l = 0.  One solver finds
the box's bound levels, for that start and for the bound content
:mod:`spectra` removes; a box with no bound s level is refused with
:class:`TdseConfigError`, which :mod:`atomic` defines and this module
exports.  The grid checks of the readout, the WKB window and the band
edge, sit beside :class:`RadialGrid`, so a dry run makes them without
loading :mod:`spectra`.

Importing this module loads no scipy module: the bound levels'
eigensolver and the coupling matrix import theirs when called, and a
:class:`Propagator` binds its LAPACK solve and sparse product once, at
construction, so a CLI call that never propagates loads only numpy.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .atomic import TdseConfigError, make_system
from .constants import DEFAULT_MAX_CHANNELS, DEFAULT_TOL

__all__ = [
    "PropagationError",
    "Propagator",
    "PulseParams",
    "PulseResult",
    "RadialGrid",
    "TdseConfigError",
    "WavefunctionState",
    "build_ground_state",
    "channel_index",
    "coupling_operators",
    "cusp_correction",
    "envelope",
    "even_channels",
    "even_index",
    "l_block",
    "load_checkpoint",
    "plan_run",
    "radial_hamiltonian",
    "run_pulse",
    "save_checkpoint",
    "vector_potential",
]

CHECKPOINT_VERSION = 2

MAX_ITER = 50             # fixed-point iterations per step before PropagationError
ORDER = 4                 # polynomial order of the iteration's start
# population of an l block above which a step propagates the block after
# it.  Blocks above the window fill only through its top block, which the
# iteration watches; while that block holds at most REACH of the norm (an
# amplitude of 1e-15), what it passes up in a step is of order dt |A|
# 1e-15, far below the defect tolerance and the round-off of a unit norm,
# so the blocks left unpropagated change the result at round-off level.
REACH = 1e-30

# above these the run is accepted but flagged as beyond desk scale
DESK_CHANNELS = 1500
DESK_POINTS = 10000
DESK_STEPS = 100_000
# Zeff dr above which the radial grid is flagged as under-resolved.  A run
# at charge Z on spacing dr is hydrogen on spacing Zeff dr; there, on the
# smoke pulse, dr 0.2 leaves E0 within 2.6e-4 relative and theta within
# about 1e-3 rad of dr -> 0, while dr 1 is 2.4% off in E0 and 0.056 rad
# in theta.
MAX_ZEFF_DR = 0.2


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise TdseConfigError(f"{name} must be finite, got {value}")


def _require_positive(**values: float) -> None:
    _require_finite(**values)
    for name, value in values.items():
        if not value > 0.0:
            raise TdseConfigError(f"{name} must be positive, got {value}")


class PropagationError(ArithmeticError):
    """Fixed-point iteration failed to reach the defect tolerance: a
    numerical failure, so an ArithmeticError (CLI exit 4).  A defect that
    is not finite fails at the iteration that finds it (``iteration``),
    any other after ``MAX_ITER`` iterations.  The state passed to the
    failing step is left at the last good time; ``t_last`` records it
    when the pulse driver re-raises, and ``checkpoint`` the path of the
    crash checkpoint it wrote, if any.
    """

    def __init__(self, defect: float, tol: float, step: int,
                 t_last: float | None = None, checkpoint=None, iteration: int = MAX_ITER):
        self.defect = defect
        self.tol = tol
        self.step = step
        self.t_last = t_last
        self.checkpoint = checkpoint
        self.iteration = iteration
        at = "" if t_last is None else f" (last good time t = {t_last:.6g})"
        saved = "" if checkpoint is None else f"; crash checkpoint written to {checkpoint}"
        why = (f"above tolerance {tol:.1e} after the iteration limit" if math.isfinite(defect)
               else f"is not finite at iteration {iteration}")
        super().__init__(f"step {step}: defect {defect:.3e} {why}{at}{saved}")


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid r_j = j dr, j = 1..n_points, n_points = r_max/dr.

    The wavefunction is treated as zero at r = 0 and beyond the last
    point, which places the hard box wall one spacing outside r_max.
    """

    dr: float
    r_max: float

    def __post_init__(self):
        _require_positive(dr=self.dr)
        _require_finite(r_max=self.r_max)
        if not self.r_max > self.dr:
            raise TdseConfigError(f"r_max must exceed dr, got {self.r_max}")
        ratio = self.r_max / self.dr
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise TdseConfigError(
                f"r_max/dr = {ratio:g} must be an integer number of spacings")

    @property
    def n_points(self) -> int:
        return int(round(self.r_max / self.dr))

    def radii(self) -> np.ndarray:
        return self.dr * np.arange(1, self.n_points + 1)


def _wkb_window(grid: RadialGrid) -> range:
    """Grid indices in [0.8, 0.9] r_max, each with a neighbour on either
    side, where :mod:`spectra` normalizes continuum waves; TdseConfigError
    if none.  Bisected on the radii's own expression dr (j + 1): none are built."""
    def radius(j):
        return grid.dr * (j + 1)

    js = range(grid.n_points)
    lo = max(1, bisect.bisect_left(js, 0.80 * grid.r_max, key=radius))
    hi = min(grid.n_points - 1, bisect.bisect_right(js, 0.90 * grid.r_max, key=radius))
    if lo >= hi:
        raise TdseConfigError(
            f"the radial grid (dr = {grid.dr:g}, r_max = {grid.r_max:g}) has no interior point "
            "in [0.8, 0.9] r_max, where continuum waves are normalized; use more radial points")
    return range(lo, hi)


def _band_edge(grid: RadialGrid) -> float:
    """2/dr, the momentum at the top of the lattice's free band
    (1 - cos(k dr))/dr^2 <= 2/dr^2: the grid carries no wave at or above it."""
    return 2.0 / grid.dr


def channel_index(l: int, m: int) -> int:
    """Position of channel (l, m) in the full layout l^2 + l + m."""
    return l * l + l + m


def even_index(l: int, m: int) -> int:
    """Row of channel (l, m), l + m even, in a state: l(l+1)/2 + (l+m)/2."""
    return l * (l + 1) // 2 + (l + m) // 2


def _rows(blocks: int) -> int:
    """Rows of the l blocks 0..blocks - 1, a prefix of a state's rows."""
    return blocks * (blocks + 1) // 2


def l_block(l: int) -> slice:
    """Rows of a state that hold l, its channels m = -l, -l + 2, ..., l."""
    return slice(_rows(l), _rows(l + 1))


def even_channels(l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(l, m) of every row of a state, as int arrays in row order: the
    channels with even l + m up to l_max, m = -l, -l + 2, ..., l for each
    l in turn, so row k holds the channel whose ``even_index`` is k."""
    if l_max < 0:
        raise TdseConfigError(f"l_max must be >= 0, got {l_max}")
    l = np.repeat(np.arange(l_max + 1), np.arange(1, l_max + 2))
    return l, 2 * (np.arange(l.size) - even_index(l, -l)) - l


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
        if not math.isfinite(self.duration):
            raise ValueError(f"omega = {self.omega} is too small: the pulse duration "
                             "4 pi/omega is not finite")
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


def radial_hamiltonian(zeff: float, grid: RadialGrid,
                       l: int) -> tuple[np.ndarray, np.ndarray]:
    """Field-free radial Hamiltonian of channel l as the (diagonal,
    off-diagonal) pair of a symmetric tridiagonal matrix, the (d, e) of
    ``eigh_tridiagonal``; the off-diagonal is the constant -1/(2 dr^2)."""
    r = grid.radii()
    diag = 1.0 / grid.dr ** 2 + l * (l + 1) / (2.0 * r * r) - zeff / r
    if l == 0:
        diag[0] += cusp_correction(zeff, grid.dr)
    return diag, np.full(len(r) - 1, -0.5 / grid.dr ** 2)


@dataclass
class WavefunctionState:
    """Channel wavefunctions u_lm(r) at time t, even l + m only.

    ``psi`` is complex128, one row per channel of :func:`even_channels`.
    A psi in the full (l_max + 1)^2 layout of :func:`channel_index` keeps
    its even rows, or raises ValueError if an odd one holds amplitude.
    l_max < 0 raises :class:`TdseConfigError`.  A state is owned by a
    single propagation driver; share copies, not the live array.
    """

    grid: RadialGrid
    l_max: int
    psi: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        even = channel_index(*even_channels(self.l_max))
        psi = np.asarray(self.psi, dtype=np.complex128)
        if psi.shape == ((self.l_max + 1) ** 2, self.grid.n_points):
            if np.delete(psi, even, axis=0).any():
                raise ValueError("odd l + m channels hold amplitude; only the even "
                                 "channels, which A . p fills from (0, 0), are propagated")
            psi = psi[even]
        expect = (even.size, self.grid.n_points)
        if psi.shape != expect:
            raise ValueError(f"psi shape {psi.shape} != {expect}")
        self.psi = psi

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.psi, self.psi).real * self.grid.dr)

    def populations(self) -> np.ndarray:
        """Per-channel norm^2, ordered like the rows of psi."""
        return np.sum(np.abs(self.psi) ** 2, axis=1) * self.grid.dr

    def populations_by_l(self) -> np.ndarray:
        return np.add.reduceat(self.populations(), _rows(np.arange(self.l_max + 1)))

    def copy(self) -> "WavefunctionState":
        return replace(self, psi=self.psi.copy())


def _bound_levels(zeff: float, grid: RadialGrid, l: int) -> tuple[np.ndarray, np.ndarray]:
    """The k E < 0 levels of channel l's :func:`radial_hamiltonian`, lowest first:
    energies, shape (k,), and rows of unit norm, shape (k, n_points); k may be 0."""
    from scipy.linalg import eigh_tridiagonal

    # a finite box supports only finitely many E < 0 levels
    w, v = eigh_tridiagonal(*radial_hamiltonian(zeff, grid, l), select="v",
                            select_range=(-10.0 * zeff * zeff - 1.0, 0.0))
    keep = w < 0.0
    states = v[:, keep].T
    norms = np.sqrt(np.sum(states ** 2, axis=1) * grid.dr)
    return w[keep], states / norms[:, None]


def build_ground_state(system, grid: RadialGrid, l_max: int) -> tuple[WavefunctionState, float]:
    """Ground state of the discrete field-free Hamiltonian in channel (0, 0).

    Returns the state (unit norm, deterministic sign: positive at the
    radial maximum) and its discrete energy, so that field-free
    propagation changes it by a global phase only.
    A box with no E < 0 level for l = 0 raises :class:`TdseConfigError`.
    """
    rows = even_channels(l_max)[0].size
    energies, levels = _bound_levels(system.Zeff, grid, 0)
    if energies.size == 0:
        raise TdseConfigError(f"the radial box (dr = {grid.dr:g}, r_max = {grid.r_max:g}) holds "
                              f"no bound s level for Zeff = {system.Zeff:g}; use a larger r_max")
    u = levels[0]
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u
    psi = np.zeros((rows, grid.n_points), dtype=np.complex128)
    psi[even_index(0, 0)] = u
    return WavefunctionState(grid=grid, l_max=l_max, psi=psi, t=0.0), float(energies[0])


def coupling_operators(l_max: int):
    """Angular coupling of A . p as one sparse matrix [D+ ; D-], a
    ``scipy.sparse.csr_matrix``.

    The operator splits into raising/lowering parts in m:
    H_int = -(i/2) [conj(Atilde) D+ + Atilde D-], Atilde = A_x + i A_y,
    where D+- move m by +-1 and l by +-1 and act radially as
    (d/dr - (l+1)/r) going up in l and (d/dr + l/r) going down.  For the
    R rows of :func:`even_channels`, the matrix is (2 R, 2 R) and acts on
    the stacked radial array [du/dr ; u/r]: the left half holds the
    Clebsch-Gordan prefactor of each edge, the right half that prefactor
    times the edge's 1/r coefficient.  With the antisymmetric
    first-derivative stencil the assembled operator is exactly Hermitian.
    """
    from scipy.sparse import csr_matrix

    l, m = even_channels(l_max)
    rows = l.size
    up, down = (2 * l + 1) * (2 * l + 3), (2 * l - 1) * (2 * l + 1)
    # (l step, m step, prefactor) of the edges out of every row; a prefactor
    # is zero where (l - 1, m +- 1) is not a channel
    families = ((+1, +1, -np.sqrt((l + m + 1) * (l + m + 2) / up)),
                (+1, -1, np.sqrt((l - m + 1) * (l - m + 2) / up)),
                (-1, +1, np.sqrt((l - m) * (l - m - 1) / down)),
                (-1, -1, -np.sqrt((l + m) * (l + m - 1) / down)))
    dst, src, vals = [], [], []
    for dl, dm, prefactor in families:
        k = np.flatnonzero((prefactor != 0.0) & (l + dl <= l_max))
        to = even_index(l[k] + dl, m[k] + dm) + (0 if dm > 0 else rows)   # D- below D+
        dst += [to, to]
        src += [k, rows + k]
        vals += [prefactor[k], prefactor[k] * (-(l[k] + 1.0) if dl > 0 else l[k])]
    return csr_matrix((np.concatenate(vals), (np.concatenate(dst), np.concatenate(src))),
                      shape=(2 * rows, 2 * rows))


def _coupling_bound(couple, dr: float) -> float:
    """Upper bound N on the 2-norm of D+ + D- on the radial grid, for a
    :class:`Propagator`'s ``couple`` (1/(2 dr) folded into its derivative
    columns), so that |H_int| <= |Atilde| N / 2.

    Entrywise, |D+ + D-| <= |C_d| (x) |T| + |C_r| (x) diag(1/r), with C_d
    and C_r the channel couplings of the derivative and 1/r columns (D+
    and D- never share an entry) and T the two-tap stencil.  That bound
    is symmetric and non-negative, so on a vector x (x) 1, x > 0, the
    Collatz-Wielandt inequality bounds its norm by max_k (W x)_k / x_k,
    W = 2 |C_d| + |C_r|/dr: a derivative coefficient c counts 2 |c|, two
    stencil taps, and a 1/r one |c|/dr, at r = dr.  x = 1 gives the
    Hoelder bound, the largest row sum of W; ten shifted power steps
    bring x near W's Perron vector and N to within about 2% of W's norm.
    """
    from scipy.sparse import csr_matrix

    rows = couple.shape[0] // 2
    coo = couple.tocoo()
    if not coo.nnz:
        return 0.0
    weight = np.abs(coo.data) * np.where(coo.col < rows, 2.0, 1.0 / dr)
    w = csr_matrix((weight, (coo.row % rows, coo.col % rows)), shape=(rows, rows))
    # W's spectrum is symmetric about 0 (l steps by one), so shift it by
    # half its largest row sum for the power steps to settle
    shift = 0.5 * np.bincount(coo.row % rows, weight).max()
    x = np.ones(rows)
    for _ in range(10):
        x = w @ x + shift * x
        x /= x.max()
    return float(np.max(w @ x / x))


# weights of the states ring's entries by age (0 the newest) for each
# history h: the mean of the newest and the polynomial of order h through
# the h + 1 newest of equally spaced values one spacing ahead; comb() is
# zero beyond h
_BY_AGE = (np.eye(ORDER + 1)[0]
           + np.array([[(-1) ** j * math.comb(h + 1, j + 1) for j in range(ORDER + 1)]
                       for h in range(ORDER + 1)])) / 2.0


class Propagator:
    """Crank-Nicolson stepper of a state's even l + m channels, with
    operators assembled once per dt.

    One instance owns, for a fixed (system, grid, l_max, dt), the
    channels' diagonals, the LU factors of their block-tridiagonal
    (1 + i dt/2 H_atom), the coupling operator on them and the work
    buffers, all built in the constructor.  ``apply_atomic`` acts on an
    array shaped like ``WavefunctionState.psi``; ``apply_interaction``
    and ``_solve_implicit`` also on its first rows, when they hold whole
    l blocks.  Given ``out``, the first two write their result there,
    and the solve overwrites a contiguous right-hand side with the
    solution.

    ``couple`` is :func:`coupling_operators`, the stacked [D+ ; D-], with
    the 1/(2 dr) of the central difference folded into its derivative
    columns, so it acts on s = [2 dr du/dr ; u/r]; the same matrix on the
    rows of each block count, the prefixes of the LU factors and the
    norm bound N of that coupling (:func:`_coupling_bound`) are kept by
    row count.  The work buffers are ``m`` and ``mn``, s
    (``stacked``, scratch of ``apply_interaction``) and ``pair``, the
    coupling product [D+ s ; D- s].  ``states`` is a ring of the
    ORDER + 1 states the steps produced, one array; its newest entry,
    ``head``, is the state the last step produced and the one the next
    step starts from.  During a step, ``m``, ``mn`` and ring entry
    (head + 1) % (ORDER + 1) hold in turn the iterate m_k, its coupling
    product w_k = H_int m_k and the previous product w_(k-1): the start
    has read that entry's state before, and the step overwrites it last,
    with the state it produces, so the residual test needs no buffer.

    A step propagates the l blocks 0..``blocks`` - 1 as the module
    describes and carries the rows above over unchanged.  It iterates on
    the midpoint m and writes 2 m - psi over the window's rows of the
    state, then copies the state once, into the next ring entry, which
    becomes ``head``.  The iteration starts midway between psi and the
    extrapolation of order h = ``history`` through the h + 1 newest ring
    entries, whose entry of age j weighs (-1)^j C(h + 1, j + 1), so h = 2
    extrapolates 3 psi_n - 3 psi_(n-1) + psi_(n-2); the combination is
    one real matrix product over the ring.  Before each product with
    H_int, the window grows by one block if the iterate's top block holds
    more than ``REACH``, the new rows taken from psi.  ``history`` counts
    the ring entries behind the newest that the next step may extrapolate
    from, up to ORDER (4).  It and the window are kept only for a state
    equal to the ring's newest entry at the time the last step ended; the
    whole psi is compared, as complex ``==`` does, so an edited state is
    caught.  Any other state
    (another state, an edited one, a different t, or a step after a
    failure) is copied into ring entry 0 and starts from psi_n (h = 0),
    with the window one block past its highest above ``REACH``, so the
    h + 1 newest entries are always the first ones or the whole ring.

    The start changes only the iteration count.  Iteration k + 1 takes
    w_k = H_int m_k.  If m_k came from a solve on the same window, it
    first tests the module's bound dt |w_k - w_(k-1)| on the next
    update, and returns m_k with that defect when it is at most ``tol``;
    a window that grew resets the test.  Otherwise it solves for m_(k+1)
    and returns it when the defect 2 |m_(k+1) - m_k|, the change of the
    step's result, is at most ``tol``, the test of the first iteration.
    Failing that, when m_(k+1)'s top block would not grow the window, it
    returns m_(k+1) with the defect q 2 |m_(k+1) - m_k|, q = dt |Atilde|
    N/4, when that is at most ``tol``: the next residual test would read
    no more and return the same iterate, so the bound saves only its
    coupling product.  A field-free step is no special case: q = 0, so
    its first solve ends it.  A defect that is not finite, or one still
    above ``tol`` after ``MAX_ITER`` (50) iterations, raises
    :class:`PropagationError` for step ``steps``, the count of steps
    completed; ``solves`` counts the LU solves of all steps and
    ``certified`` the steps the bound ended.
    """

    def __init__(self, system, grid: RadialGrid, l_max: int, dt: float,
                 tol: float = DEFAULT_TOL):
        from scipy.linalg.lapack import zgttrf, zgttrs
        from scipy.sparse._sparsetools import csr_matvecs   # csr @ dense, into a given array

        _require_positive(dt=dt, tol=tol)
        self._zgttrs, self._csr_matvecs = zgttrs, csr_matvecs   # the step's kernels
        self.system = system
        self.grid = grid
        self.l_max = l_max
        self.dt = dt
        self.tol = tol
        self._t_end = None      # where the last step ended, if it succeeded
        self.steps = 0          # steps completed
        self.solves = 0         # LU solves taken by all steps
        self.certified = 0      # steps that the norm bound ended
        self.history = 0
        self.head = 0
        self.blocks = l_max + 1
        n = grid.n_points
        l, _ = even_channels(l_max)
        h_by_l = [radial_hamiltonian(system.Zeff, grid, k) for k in range(l_max + 1)]
        self.off = h_by_l[0][1][0]   # the same constant for every l
        self.inv_r = (1.0 / grid.radii()).astype(np.complex128)   # no cast per product
        diag = np.array([h_by_l[k][0] for k in l])
        # one tridiagonal over the even channels, cut at each channel edge
        off = np.full(diag.size - 1, 0.5j * dt * self.off)
        off[n - 1::n] = 0.0
        dl, d, du, du2, ipiv = zgttrf(off, 1.0 + 0.5j * dt * diag.ravel(), off)[:5]
        # the coupling, the LU factors and the coupling's norm bound on the
        # rows of each block count
        self._by_rows = {}
        for blocks in range(1, l_max + 2):
            rows = _rows(blocks)
            size = rows * n
            couple = coupling_operators(blocks - 1)
            couple.data[couple.indices < rows] /= 2.0 * grid.dr
            self._by_rows[rows] = (couple, (dl[:size - 1], d[:size], du[:size - 1],
                                            du2[:size - 2], ipiv[:size]),
                                   _coupling_bound(couple, grid.dr))
        self.couple = self._by_rows[l.size][0]
        self.diag = diag
        shape, pair_shape = diag.shape, (2 * len(diag), n)
        self.m, self.mn = (np.empty(shape, dtype=np.complex128) for _ in range(2))
        self.stacked, self.pair = (np.empty(pair_shape, dtype=np.complex128) for _ in range(2))
        self.states = np.empty((ORDER + 1, *shape), dtype=np.complex128)

    @property
    def rows(self) -> int:
        """Rows of the propagated window, the l blocks 0..blocks - 1."""
        return _rows(self.blocks)

    def apply_atomic(self, psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(psi.shape, dtype=np.complex128)
        np.multiply(self.diag, psi, out=out)
        out[:, :-1] += self.off * psi[:, 1:]
        out[:, 1:] += self.off * psi[:, :-1]
        return out

    def apply_interaction(self, psi: np.ndarray, atilde: complex,
                          out: np.ndarray | None = None) -> np.ndarray:
        """A . p applied to the channel array for Atilde = A_x + i A_y,
        H_int = -(i/2) [conj(Atilde) D+ + Atilde D-]; psi may be the first
        rows of a state, whole l blocks, with the blocks above taken as zero.

        The coupling product [D+ s ; D- s] of the stacked radial array s
        is left in the ``pair`` buffer, from which the result is combined.
        """
        rows = len(psi)
        c = self._by_rows[rows][0]
        s, pair = self.stacked[:2 * rows], self.pair[:2 * rows]
        diff, over_r = s[:rows], s[rows:]
        # the central difference over the flat rows; the two columns whose
        # neighbours lie across a channel edge are set after it
        u = psi.reshape(-1)
        np.subtract(u[2:], u[:-2], out=diff.reshape(-1)[1:-1])
        diff[:, 0] = psi[:, 1]                     # u = 0 at r = 0
        np.negative(psi[:, -2], out=diff[:, -1])   # u = 0 beyond the box
        np.multiply(psi, self.inv_r, out=over_r)
        pair.fill(0.0)
        # the operator is real: one real product on the (re, im) pairs
        self._csr_matvecs(c.shape[0], c.shape[1], 2 * psi.shape[1], c.indptr, c.indices,
                          c.data, s.view(np.float64).ravel(),
                          pair.view(np.float64).reshape(-1, copy=False))
        out = np.empty_like(psi) if out is None else out
        np.multiply(-0.5j * np.conj(atilde), pair[:rows], out=out)
        out += np.multiply(-0.5j * atilde, pair[rows:], out=diff)
        return out

    def _solve_implicit(self, rhs: np.ndarray) -> np.ndarray:
        """(1 + i dt/2 H_atom)^-1 rhs, for rhs shaped like psi or its first
        rows, whole l blocks; a contiguous rhs is overwritten with the
        solution."""
        x, _ = self._zgttrs(*self._by_rows[len(rhs)][1], rhs.reshape(-1, 1), overwrite_b=1)
        return x.reshape(rhs.shape)

    def _converged(self, defect: float, iteration: int) -> bool:
        """Whether a defect is within ``tol``; a non-finite one raises
        :class:`PropagationError` at once."""
        if not math.isfinite(defect):
            raise PropagationError(defect, self.tol, self.steps, iteration=iteration)
        return defect <= self.tol

    def _is_head(self, psi: np.ndarray) -> bool:
        """Whether psi equals the ring's newest entry, as complex ``==``
        compares: NaN is unequal and -0 equals 0.  A C-contiguous complex128
        psi is compared through its float64 view, which is faster."""
        head = self.states[self.head]
        if psi.dtype == head.dtype and psi.shape == head.shape and psi.flags.c_contiguous:
            return bool((psi.view(np.float64) == head.view(np.float64)).all())
        return np.array_equal(psi, head)

    def _grow(self, m: np.ndarray, psi: np.ndarray) -> bool:
        """Whether the window grew: by one block, its rows of m taken from
        psi, when m's top window block holds more than ``REACH``."""
        if self.blocks > self.l_max:
            return False
        top = m[l_block(self.blocks - 1)]
        if not np.vdot(top, top).real * self.grid.dr > REACH:
            return False
        rows = self.rows
        self.blocks += 1
        m[rows:self.rows] = psi[rows:self.rows]
        return True

    def step(self, state: WavefunctionState, pulse: PulseParams) -> tuple[int, float]:
        """Advance the state by dt in place; returns (iterations, defect).
        A state of another grid or l_max raises ValueError."""
        if state.grid != self.grid or state.l_max != self.l_max:
            raise ValueError(f"state (l_max {state.l_max}, {state.grid}) does not fit the "
                             f"propagator (l_max {self.l_max}, {self.grid})")
        atilde = complex(*vector_potential(pulse, state.t + 0.5 * self.dt))
        if not (state.t == self._t_end and self._is_head(state.psi)):
            self.history, self.head = 0, 0
            np.copyto(self.states[0], state.psi)
            # NaN counts as reached, so it stays inside the window and fails there
            reached = np.flatnonzero(~(state.populations_by_l() <= REACH))
            self.blocks = min(int(reached[-1]) + 1 if reached.size else 0, self.l_max) + 1
        self._t_end = None
        psi = self.states[self.head]
        half = 0.5j * self.dt
        # the iterate, the coupling product and the previous coupling product
        # rotate through m, mn and the ring entry the step overwrites last
        m, w, w_prev = self.m, self.mn, self.states[(self.head + 1) % (ORDER + 1)]
        rows = self.rows
        # the start, one real matrix product over the window's rows of the
        # h + 1 newest ring entries, weighted by their ages
        h = self.history
        weights = _BY_AGE[h, (self.head - np.arange(h + 1)) % (ORDER + 1)]
        ring = self.states.view(np.float64).reshape(ORDER + 1, -1)
        np.matmul(weights, ring[:h + 1, :2 * m[:rows].size],
                  out=m[:rows].view(np.float64).reshape(-1))
        scale = 2.0 * math.sqrt(self.grid.dr)      # 2 m - psi moves twice as far as m
        q_over_n = 0.25 * self.dt * abs(atilde)    # q = q_over_n N, N the window's bound
        solved = False      # m was solved for from w_prev, on this window
        with np.errstate(all="ignore"):     # a non-finite defect raises instead
            self._grow(m, psi)
            rows = self.rows
            for it in range(1, MAX_ITER + 1):
                self.apply_interaction(m[:rows], atilde, out=w[:rows])
                if solved:
                    # m's residual -i dt/2 (w - w_prev) bounds the next update
                    diff = np.subtract(w[:rows], w_prev[:rows], out=w_prev[:rows])
                    defect = math.sqrt(np.vdot(diff, diff).real) * scale * 0.5 * self.dt
                    if self._converged(defect, it):
                        break
                rhs = np.multiply(half, w[:rows], out=w_prev[:rows])
                np.subtract(psi[:rows], rhs, out=rhs)
                self._solve_implicit(rhs)       # overwrites rhs with the next iterate
                self.solves += 1
                diff = np.subtract(rhs, m[:rows], out=m[:rows])   # m is not needed again
                defect = math.sqrt(np.vdot(diff, diff).real) * scale
                m, w, w_prev = w_prev, m, w
                if self._converged(defect, it):
                    break
                solved = not self._grow(m, psi)
                rows = self.rows
                if solved:
                    # the next residual test would read at most q defect
                    bound = q_over_n * self._by_rows[rows][2] * defect
                    if bound <= self.tol:
                        defect = bound
                        self.certified += 1
                        break
            else:
                raise PropagationError(defect, self.tol, self.steps)
        # the rows above the window already hold psi's values
        m[:rows] *= 2.0
        np.subtract(m[:rows], psi[:rows], out=state.psi[:rows])
        self.head = (self.head + 1) % (ORDER + 1)
        np.copyto(self.states[self.head], state.psi)
        self.history = min(self.history + 1, ORDER)
        self.steps += 1
        state.t += self.dt
        self._t_end = state.t
        return it, defect


def default_dt(zeff: float) -> float:
    """dt = min(0.02, 0.02/Zeff^2); tighter binding needs finer steps."""
    return min(0.02, 0.02 / (zeff * zeff))


def plan_run(system, grid: RadialGrid, pulse: PulseParams, l_max: int, *,
             dt: float | None = None, tol: float = DEFAULT_TOL,
             max_channels: int = DEFAULT_MAX_CHANNELS,
             checkpoint_every: int = 0) -> tuple[int, int, list[str]]:
    """Validate a run and report (n_steps, n_channels, warnings).

    n_steps is the count :func:`run_pulse` takes, ceil(T1/dt), except
    that a rest T1 - int(T1/dt) dt below 1e-12 T1 is roundoff and adds no
    step: the run takes n_steps equal steps of T1/n_steps, so dt is the
    largest step.  Raises :class:`TdseConfigError` when the channel count
    exceeds the memory guard, dt or tol is not positive and finite, T1/dt
    overflows, or ``checkpoint_every`` is negative.  Oversized-but-allowed
    runs warn instead, so published-scale parameters can be planned on a
    desk machine, and so do a grid coarser than ``MAX_ZEFF_DR`` in units
    of 1/Zeff and a field with l_max = 0, which it cannot couple.
    """
    if l_max < 0:
        raise TdseConfigError(f"l_max must be >= 0, got {l_max}")
    if checkpoint_every < 0:
        raise TdseConfigError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    nch = (l_max + 1) ** 2
    if nch > max_channels:
        raise TdseConfigError(
            f"{nch} channels (l_max = {l_max}) exceed the memory guard of "
            f"{max_channels} channels; raise max_channels explicitly to allow this")
    if dt is None:
        dt = default_dt(system.Zeff)
    _require_positive(dt=dt, tol=tol)
    if not math.isfinite(pulse.duration / dt):
        raise TdseConfigError(f"dt = {dt!r} is too small: T1/dt is not finite")
    n_steps = int(pulse.duration / dt)
    n_steps += pulse.duration - n_steps * dt >= 1e-12 * pulse.duration
    warnings = []
    if nch > DESK_CHANNELS or grid.n_points > DESK_POINTS or n_steps > DESK_STEPS:
        # psi (the even channels), their real diagonals (0.5 psi), LU
        # factors (4.25 psi) and the work buffers (11 psi, 5 of them the
        # ring, one entry of which a step also uses for the previous
        # coupling product): a whole run at l_max = 20, r_max = 200 peaked
        # at 17.8 psi above the import of scipy's solvers
        mb = _rows(l_max + 1) * grid.n_points * 16 * 18 / 1e6
        warnings.append(
            f"not desk scale: {n_steps:.3g} steps, {nch} channels x {grid.n_points} "
            f"points (roughly {mb:.0f} MB of working set)")
    if l_max == 0 and pulse.F0 > 0.0:
        warnings.append("l_max = 0 leaves the field nothing to couple: A . p takes (0, 0) only to "
                        "l = 1, so the run cannot ionize")
    if system.Zeff * grid.dr > MAX_ZEFF_DR:
        warnings.append(
            f"under-resolved radial grid: Zeff dr = {system.Zeff * grid.dr:.3g} exceeds "
            f"{MAX_ZEFF_DR:g}; dr = {MAX_ZEFF_DR / system.Zeff:.3g} would meet it")
    return n_steps, nch, warnings


@dataclass
class PulseResult:
    """Final state of a pulse run plus convergence metadata."""

    state: WavefunctionState
    energy0: float
    steps: int
    max_iterations: int
    iterations_total: int
    solves_total: int           # LU solves, at most one per iteration
    certified_steps: int        # steps the coupling's norm bound ended
    max_defect: float
    norm_initial: float
    norm_final: float
    max_step_norm_drift: float
    populations_by_l: np.ndarray
    tail_fraction: float        # share of the norm in the top two l blocks
    propagated_row_fraction: float   # row-steps propagated over rows x steps
    warnings: list = field(default_factory=list)


def run_pulse(system, grid: RadialGrid, pulse: PulseParams, l_max: int, *,
              dt: float | None = None, tol: float = DEFAULT_TOL,
              max_channels: int = DEFAULT_MAX_CHANNELS, checkpoint_every: int = 0,
              checkpoint_path=None) -> PulseResult:
    """Propagate the field-free ground state through the whole pulse.

    The run takes the n steps :func:`plan_run` counts, all of length
    T1/n, with one :class:`Propagator`, so the state lands on t = T1.  A
    step still above ``tol`` after ``MAX_ITER`` iterations writes the
    crash checkpoint and raises :class:`PropagationError`.  The tail
    fraction in the two highest l blocks is the usual check that l_max
    was large enough for the chosen intensity.  ``checkpoint_every`` > 0
    needs ``checkpoint_path``.
    """
    n_steps, _, warnings = plan_run(system, grid, pulse, l_max, dt=dt, tol=tol,
                                    max_channels=max_channels, checkpoint_every=checkpoint_every)
    if checkpoint_every and not checkpoint_path:
        raise TdseConfigError(f"checkpoint_every = {checkpoint_every} needs a checkpoint_path")
    state, energy0 = build_ground_state(system, grid, l_max)
    norm0 = state.norm()

    prop = Propagator(system, grid, l_max, pulse.duration / n_steps, tol=tol)
    max_it, total_it, max_defect, max_drift, prev_norm = 0, 0, 0.0, 0.0, norm0
    row_steps = 0
    try:
        for _ in range(n_steps):
            it, defect = prop.step(state, pulse)
            row_steps += prop.rows
            max_it = max(max_it, it)
            total_it += it
            max_defect = max(max_defect, defect)
            norm = state.norm()
            max_drift = max(max_drift, abs(norm - prev_norm))
            prev_norm = norm
            if checkpoint_every and prop.steps % checkpoint_every == 0:
                save_checkpoint(checkpoint_path, state, system)
    except PropagationError as exc:
        if checkpoint_path:
            save_checkpoint(checkpoint_path, state, system)
        raise PropagationError(exc.defect, exc.tol, exc.step, t_last=state.t,
                               checkpoint=checkpoint_path or None,
                               iteration=exc.iteration) from None

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
        steps=n_steps,
        max_iterations=max_it,
        iterations_total=total_it,
        solves_total=prop.solves,
        certified_steps=prop.certified,
        max_defect=max_defect,
        norm_initial=norm0,
        norm_final=state.norm(),
        max_step_norm_drift=max_drift,
        populations_by_l=pops,
        tail_fraction=tail,
        propagated_row_fraction=row_steps / (len(state.psi) * n_steps),
        warnings=warnings,
    )


def save_checkpoint(path, state: WavefunctionState, system) -> None:
    """Versioned binary dump of (grid, system, channel amplitudes, time).

    Written to ``path`` exactly as given: through an open file, numpy adds
    no ``.npz`` suffix, so the path a crash reports is the file on disk.
    It goes to ``path`` + ".tmp" first and is then moved onto ``path``, so
    a failed or interrupted write leaves the previous file whole.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, version=np.int64(CHECKPOINT_VERSION), dr=state.grid.dr,
                     r_max=state.grid.r_max, l_max=np.int64(state.l_max), t=state.t,
                     psi=state.psi, Z=system.Z, Zeff=system.Zeff, Ip=system.Ip,
                     relativistic=np.int64(1 if system.relativistic else 0))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Inverse of :func:`save_checkpoint`; returns (state, system).  Raises
    ValueError unless the file is of version ``CHECKPOINT_VERSION``, holds
    every checkpoint field, psi and t are finite and ``make_system``
    accepts Z, Zeff and Ip."""
    with np.load(path) as data:
        missing = {"version", "dr", "r_max", "l_max", "t", "psi", "Z", "Zeff", "Ip",
                   "relativistic"}.difference(data.files)
        if missing:
            raise ValueError(f"{path} is not a checkpoint: it lacks {', '.join(sorted(missing))}")
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        grid = RadialGrid(dr=float(data["dr"]), r_max=float(data["r_max"]))
        state = WavefunctionState(
            grid=grid,
            l_max=int(data["l_max"]),
            psi=data["psi"],
            t=float(data["t"]),
        )
        system = make_system(float(data["Z"]), float(data["Zeff"]),
                             relativistic=bool(int(data["relativistic"])),
                             Ip=float(data["Ip"]))
    if not (math.isfinite(state.t) and np.isfinite(state.psi).all()):
        raise ValueError("checkpoint psi and t must be finite")
    return state, system

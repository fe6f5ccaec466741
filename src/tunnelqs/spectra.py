"""Photoelectron spectra from a propagated channel wavefunction.

The final state is projected on energy-normalized Coulomb continuum
waves of the same effective charge (ingoing-wave phase convention), the
coherent partial-wave sum is evaluated in the polarization plane, and
``attoclock_readout`` reads off the angular distribution the offset
angle theta, from -y toward +x, and the delay tau = theta / omega, or
nothing when less than ``NO_IONIZATION_FLOOR`` is ionized.

Continuum waves are integrated with Numerov's method on the state's own
grid and normalized against the WKB amplitude in a window near the box
edge, so no closed-form Coulomb functions are needed.  One sweep steps
the (l, p) columns of several consecutive l together, one radius at a
time along contiguous rows, and builds the coefficients of one guard
block of radii at a time.  Bound content is projected out first, since
bound population aliases into low momenta otherwise, with the E < 0
levels of the same discrete Hamiltonian, from the solver the
propagation's ground state comes from.  The waves are real, so the
projection adds each finished block of rows into every l's real product
with the (re, im) pairs of its l + 1 rows, and scales the finished
products to the WKB amplitude: no (p, r) wave array is formed.
``continuum_waves`` is the same sweep on one l, its blocks written into
the result.

On the polarization plane Y_lm(pi/2, phi) = Y_lm(pi/2, 0) e^(i m phi),
so the partial-wave sum is a Fourier series in phi with 2 l_max + 1
terms.  Momenta must be finite and positive, and angle grids finite and
uniform with spacing 2 pi / n (``default_phi_grid``, any start angle);
other input raises ValueError.

scipy's special functions are imported inside the functions that call
them, and the eigensolver inside that solver, so importing this module
loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import au_time_as
from .tdse import (RadialGrid, WavefunctionState, _band_edge, _bound_levels, _wkb_window,
                   even_channels, l_block)

__all__ = [
    "AngularDistribution",
    "IonizationAmplitudes",
    "MomentumDistribution",
    "OffsetResult",
    "attoclock_readout",
    "bound_states",
    "continuum_waves",
    "coulomb_phase",
    "default_phi_grid",
    "momentum_distribution",
    "offset_angle_and_delay",
    "project_scattering_states",
    "radial_integrate",
    "remove_bound",
    "wrap_angle",
]

MULTIMODAL_RATIO = 0.95     # second peak within 5% of the max
NO_IONIZATION_FLOOR = 1e-12  # ionized probability below which no angle is read

_RENORM_LIMIT = 1e200       # Numerov under-barrier growth guard
_GUARD_ROWS = 64            # Numerov rows per growth check


def coulomb_phase(l: int, eta) -> np.ndarray:
    """sigma_l = arg Gamma(l + 1 + i eta), continuous in eta."""
    from scipy.special import loggamma

    return np.imag(loggamma(l + 1.0 + 1j * np.asarray(eta, dtype=float)))


def wrap_angle(x: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def default_phi_grid(n: int = 720) -> np.ndarray:
    """Uniform periodic grid over [0, 2 pi), measured from the +x axis."""
    if n < 8:
        raise ValueError(f"need at least 8 angular points, got {n}")
    return 2.0 * math.pi * np.arange(n) / n


def _check_phi_grid(phi: np.ndarray) -> None:
    """A periodic readout grid: finite, spacing 2 pi / n, any start."""
    if phi.ndim != 1 or len(phi) < 8:
        raise ValueError("phi must be a 1-D grid of at least 8 angles")
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi must be finite")
    dphi = 2.0 * math.pi / len(phi)
    if np.max(np.abs(np.diff(phi) - dphi)) > 1e-9 * dphi:
        raise ValueError("phi must be increasing with spacing 2 pi / len(phi), "
                         "as from default_phi_grid")


def _check_momenta(p, grid: RadialGrid, as_grid: bool) -> np.ndarray:
    """p as a float array: 1-D and nonempty (with ``as_grid``, a strictly
    increasing grid of at least 2 momenta), finite, positive and below the
    lattice band edge 2/dr; anything else raises ValueError."""
    p = np.asarray(p, dtype=float)
    if as_grid and (p.ndim != 1 or len(p) < 2):
        raise ValueError("p must be a 1-D grid of at least 2 momenta")
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("p must be a nonempty 1-D array")
    if not np.all(np.isfinite(p)):
        raise ValueError("p must be finite")
    if np.any(p <= 0.0):
        raise ValueError("p = 0 is excluded: continuum normalization is singular")
    if as_grid and np.any(np.diff(p) <= 0.0):
        raise ValueError("p must be strictly increasing")
    if np.any(p >= _band_edge(grid)):
        raise ValueError(f"p = {p.max():g} is at or beyond the lattice band edge "
                         f"2/dr = {_band_edge(grid):g}, which the grid cannot carry")
    return p


def _group_size(grid: RadialGrid) -> int:
    """Consecutive l per sweep: as many as keep the sweep's buffers per
    (l, p) (blocks of radii for u, 1 - t and 2 + 10 t, a spare row and
    the window's radii) within the 3 n_points doubles of one l's waves
    and their two whole coefficient arrays."""
    jw = _wkb_window(grid)
    per_l = 3 * (_GUARD_ROWS + 2) + 1 + len(jw) + 2
    return max(1, 3 * grid.n_points // per_l)


def _numerov_sweep(zeff: float, grid: RadialGrid, ls, p: np.ndarray, take) -> np.ndarray:
    """Step Numerov for the regular waves of every l in ls at every p
    together, one guard block of radii at a time, and return the WKB
    scale of each (l, p), shape (len(ls), len(p)).

    For every finished block ``take(k0, rows, divisor)`` is called with
    its radii k0, k0 + 1, ... as a (radii, len(ls), len(p)) view, valid
    during the call; a ``divisor`` that is not None means the growth
    guard fired, and every row passed before k0 must first be divided by
    it, per (l, p).  The scale, zero where the window is classically
    forbidden, turns the rows into energy-normalized waves.  Each (l, p)
    takes the same arithmetic as in a sweep over its l alone.
    """
    jw = _wkb_window(grid)
    r = grid.radii()
    n = grid.n_points
    # u'' = w(r) u for E = p^2/2 and the -zeff/r potential: the p-free
    # part per (r, l) here, t = dr^2 w / 12 per block below
    wl = np.array([l * (l + 1) for l in ls], dtype=float) / (r * r)[:, None] \
        - (2.0 * zeff / r)[:, None]
    pp = p * p
    c12 = grid.dr * grid.dr / 12.0

    # u on radii j-1 ... j+m, 1 - t on the same radii, 2 + 10 t on j ... j+m-1
    u, b, a = np.empty((3, _GUARD_ROWS + 2, len(ls), len(p)))
    tmp = np.empty(u.shape[1:])
    w_lo = jw[0] - 1                       # the window's radii w_lo ... jw[-1] + 1
    win = np.zeros((len(jw) + 2, *u.shape[1:]))

    def finish(k0, rows, divisor):
        if divisor is not None:
            win[:max(0, k0 - w_lo)] /= divisor
        lo, hi = max(k0, w_lo), min(k0 + len(rows), w_lo + len(win))
        if lo < hi:
            win[lo - w_lo:hi - w_lo] = rows[lo - k0:hi - k0]
        take(k0, rows, divisor)

    # two-term Frobenius start: u ~ r^(l+1) (1 + c1 r + c2 r^2)
    for g, l in enumerate(ls):
        c1 = -zeff / (l + 1)
        c2 = (2.0 * zeff * zeff / (l + 1) - pp) / (4 * l + 6)
        for j in (0, 1):
            u[j, g] = r[j] ** (l + 1) * (1.0 + c1 * r[j] + c2 * r[j] ** 2)
    finish(0, u[:2], None)
    j = 1
    while j < n - 1:
        m = min(_GUARD_ROWS, n - 1 - j)    # new radii j+1 ... j+m at u[2:m+2]
        np.subtract(wl[j - 1:j + m + 1, :, None], pp, out=b[:m + 2])
        b[:m + 2] *= c12                   # t
        np.multiply(10.0, b[1:m + 1], out=a[:m])
        a[:m] += 2.0                       # 2 + 10 t
        np.subtract(1.0, b[:m + 2], out=b[:m + 2])   # 1 - t
        # rows past the first one over the limit are recomputed, so an
        # overflow in them is harmless
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, m + 1):
                nxt = u[i + 1]
                np.multiply(a[i - 1], u[i], out=nxt)
                np.multiply(b[i - 1], u[i - 1], out=tmp)
                nxt -= tmp
                nxt /= b[i + 1]
        # the growth guard, once per block: the rows up to the first one
        # over the limit are exactly those of a check after every step, so
        # no (l, p) depends on the others (NaN, only ever after an
        # overflow, counts as over)
        block = u[2:m + 2]
        divisor = None
        if not (block.max() <= _RENORM_LIMIT and block.min() >= -_RENORM_LIMIT):
            within = (block.max(axis=(1, 2)) <= _RENORM_LIMIT) \
                & (block.min(axis=(1, 2)) >= -_RENORM_LIMIT)
            m = int(np.argmin(within)) + 1
            peak = np.abs(u[m + 1])
            # overall scale is fixed later, but keep values finite: every
            # row so far, so that no earlier row keeps its unscaled peak
            divisor = np.where(peak > _RENORM_LIMIT, peak, 1.0)
            u[:m + 2] /= divisor
        finish(j + 1, u[2:m + 2], divisor)
        u[:2] = u[m:m + 2]
        j += m
    return np.array([_wkb_scale(zeff, grid, jw, l, p, win[:, g]) for g, l in enumerate(ls)])


def _wkb_scale(zeff: float, grid: RadialGrid, jw: range, l: int, p: np.ndarray,
               win: np.ndarray) -> np.ndarray:
    """Per momentum, the factor that brings the unnormalized waves' rows
    jw[0] - 1 ... jw[-1] + 1, ``win``, to the WKB amplitude sqrt(2/(pi k))
    on average over the window; zero where the window is classically
    forbidden or the factor is not finite."""
    r = grid.radii()
    k2 = (p * p)[:, None] + 2.0 * zeff / r[jw][None, :] \
        - l * (l + 1) / (r[jw] * r[jw])[None, :]
    valid = np.all(k2 > 0.0, axis=1)
    k = np.sqrt(np.where(k2 > 0.0, k2, 1.0))
    rows = np.ascontiguousarray(win.T)     # (len(p), window rows)
    uw = rows[:, 1:-1]
    dk = (rows[:, 2:] - rows[:, :-2]) / (2.0 * grid.dr) / k
    with np.errstate(over="ignore"):
        amp = np.sqrt(uw ** 2 + dk ** 2)
    # Numerov values may grow to the renormalization limit, and their
    # squares overflow above about 1e154: those rows take hypot, which
    # does not overflow (the other rows keep their exact rounding)
    huge = np.isinf(amp).any(axis=1)
    if huge.any():
        amp[huge] = np.hypot(uw[huge], dk[huge])
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.mean(np.sqrt(2.0 / (math.pi * k)) / amp, axis=1)
    return np.where(valid & np.isfinite(scale), scale, 0.0)


def continuum_waves(zeff: float, grid: RadialGrid, l: int,
                    p: np.ndarray) -> np.ndarray:
    """Regular radial continuum waves u_pl(r) for every momentum in p.

    Shape (len(p), n_points), C-contiguous, energy-normalized: the
    asymptotic amplitude is sqrt(2/(pi p)).  zeff = 0 gives free
    spherical waves.  Momenta whose WKB window is classically forbidden
    (possible for high l at very low p) come back as all-zero rows.
    p must be finite, positive and below the lattice band edge 2/dr, and
    the grid must have a point in the window; anything else raises
    ValueError.  This is the projection's Numerov sweep on one l, its
    finished blocks of rows written into the result.
    """
    p = _check_momenta(p, grid, as_grid=False)
    u = np.empty((len(p), grid.n_points))

    def take(k0, rows, divisor):
        if divisor is not None:
            u[:, :k0] /= divisor[0, :, None]
        u[:, k0:k0 + len(rows)] = rows[:, 0].T

    u *= _numerov_sweep(zeff, grid, (l,), p, take)[0, :, None]
    return u


def bound_states(zeff: float, grid: RadialGrid, l: int) -> np.ndarray:
    """Negative-energy eigenstates of the discrete radial Hamiltonian, lowest first, as
    unit-norm rows, shape (k, n_points); for l = 0 the first is the TDSE ground state."""
    return _bound_levels(zeff, grid, l)[1]


def remove_bound(state: WavefunctionState, zeff: float) -> tuple[WavefunctionState, float]:
    """Project bound components out of every channel.

    Returns the cleaned copy and the total probability removed.
    """
    out = state.copy()
    dr = state.grid.dr
    removed = 0.0
    for l in range(state.l_max + 1):
        basis = bound_states(zeff, state.grid, l)
        block = out.psi[l_block(l)]
        coef = block @ basis.T * dr           # (l+1, k)
        block -= coef @ basis
        removed += float(np.sum(np.abs(coef) ** 2))
    return out, removed


@dataclass
class IonizationAmplitudes:
    """Partial-wave ionization amplitudes a_lm(p).

    ``a`` has shape (n_channels, len(p)), its rows ordered like the
    state's; the total ionized probability is sum over channels of
    integral |a|^2 p^2 dp.  ``bound_removed`` is the probability that
    was projected out as bound content before the projection.
    """

    p: np.ndarray
    l_max: int
    a: np.ndarray
    bound_removed: float

    def __post_init__(self):
        expect = (even_channels(self.l_max)[0].size, len(self.p))
        if np.shape(self.a) != expect:
            raise ValueError(f"amplitude table shape {np.shape(self.a)} != {expect}: "
                             f"one row per even l + m channel up to l_max, one column per p")

    def total_ionized(self) -> float:
        dens = np.sum(np.abs(self.a) ** 2, axis=0) * self.p ** 2
        return float(np.trapezoid(dens, self.p))


def _wave_products(zeff: float, grid: RadialGrid, ls, p: np.ndarray,
                   psi: np.ndarray) -> list[np.ndarray]:
    """For each l in ls, the energy-normalized waves of l times the
    (re, im) pairs of psi's l + 1 rows of that l: a real (len(p), 2 l + 2)
    array, summed block by block as one Numerov sweep goes, so no wave
    array is formed."""
    pairs, prods = [], []
    for l in ls:
        pairs.append(np.ascontiguousarray(psi[l_block(l)].T).view(np.float64))
        prods.append(np.zeros((len(p), 2 * (l + 1))))

    def take(k0, rows, divisor):
        for g, (pair, prod) in enumerate(zip(pairs, prods)):
            if divisor is not None:
                prod /= divisor[g, :, None]
            prod += rows[:, g].T @ pair[k0:k0 + len(rows)]

    scale = _numerov_sweep(zeff, grid, ls, p, take)
    for prod, s in zip(prods, scale):
        prod *= s[:, None]
    return prods


def project_scattering_states(state: WavefunctionState, system,
                              p: np.ndarray) -> IonizationAmplitudes:
    """Project a final-time state onto ingoing Coulomb scattering states.

    The phase convention per partial wave is (-i)^l e^{i sigma_l} with
    sigma_l = arg Gamma(l+1+i eta), eta = -Zeff/p, which makes the
    coherent sum over channels carry the physical angular interference.
    p must be a strictly increasing grid of at least 2 momenta that
    ``continuum_waves`` accepts; other p, or a grid without a point in
    the WKB window, raise ValueError before any work.
    """
    grid = state.grid
    p = _check_momenta(p, grid, as_grid=True)
    size = _group_size(grid)
    zeff = system.Zeff
    cleaned, removed = remove_bound(state, zeff)
    eta = -zeff / p
    a = np.empty((len(state.psi), len(p)), dtype=np.complex128)
    inv_sqrt_p = 1.0 / np.sqrt(p)
    for l0 in range(0, state.l_max + 1, size):
        ls = range(l0, min(l0 + size, state.l_max + 1))
        for l, prod in zip(ls, _wave_products(zeff, grid, ls, p, cleaned.psi)):
            phase = (-1j) ** l * np.exp(1j * coulomb_phase(l, eta)) * inv_sqrt_p
            proj = prod.view(np.complex128)              # (len(p), l+1)
            a[l_block(l)] = (proj * grid.dr).T * phase[None, :]
    return IonizationAmplitudes(p=p, l_max=state.l_max, a=a, bound_removed=removed)


@dataclass
class MomentumDistribution:
    """Density over (p, phi) in the polarization plane.

    phi is measured from the +x axis over [0, 2 pi).  The plane slice
    alone does not carry the full 3-D norm, so the density is rescaled
    by the declared factor ``scale`` to make
    integral P p dp dphi equal the total ionized probability; the
    angular structure, and with it every attoclock observable, is
    unchanged by this convention.
    """

    p: np.ndarray
    phi: np.ndarray
    density: np.ndarray       # shape (len(p), len(phi))
    scale: float = 1.0

    def integrate(self) -> float:
        """integral P p dp dphi with the periodic phi weight."""
        dphi = 2.0 * math.pi / len(self.phi)
        per_p = self.density.sum(axis=1) * dphi
        return float(np.trapezoid(per_p * self.p, self.p))


def momentum_distribution(amps: IonizationAmplitudes, p: np.ndarray,
                          phi: np.ndarray) -> MomentumDistribution:
    """Coherent partial-wave sum evaluated at polar angle pi/2.

    On the equator Y_lm(pi/2, phi) = Y_lm(pi/2, 0) e^(i m phi), which
    vanishes for odd l + m, the channels the amplitudes do not hold; the
    sum is the Fourier series psi(p, phi) = sum_m c_m(p) e^(i m phi) with
    c_m = sum_l a_lm Y_lm(pi/2, 0).  phi must be finite with spacing
    2 pi / len(phi), as from ``default_phi_grid`` (any start angle);
    other grids raise ValueError, since the periodic weight of
    ``integrate`` fixes the rescaling.
    """
    from scipy.special import sph_harm_y

    p = np.asarray(p, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if p.shape != amps.p.shape or not np.array_equal(p, amps.p):
        raise ValueError("p grid does not match the amplitude table")
    _check_phi_grid(phi)
    l_max = amps.l_max
    c = np.zeros((2 * l_max + 1, len(p)), dtype=np.complex128)
    for l in range(l_max + 1):
        y = sph_harm_y(l, np.arange(-l, l + 1, 2), math.pi / 2.0, 0.0).real
        c[l_max - l:l_max + l + 1:2] += y[:, None] * amps.a[l_block(l)]
    m = np.arange(-l_max, l_max + 1)
    psi = c.T @ np.exp(1j * m[:, None] * phi[None, :])
    density = np.abs(psi) ** 2
    dist = MomentumDistribution(p=p, phi=phi, density=density)
    raw = dist.integrate()
    total = amps.total_ionized()
    if raw > 0.0:
        dist.scale = total / raw
        dist.density = density * dist.scale
    return dist


@dataclass
class AngularDistribution:
    """P(phi) = integral P(p, phi) p dp on the distribution's phi grid."""

    phi: np.ndarray
    values: np.ndarray

    def integrate(self) -> float:
        return float(self.values.sum() * 2.0 * math.pi / len(self.phi))


def radial_integrate(dist: MomentumDistribution) -> AngularDistribution:
    values = np.trapezoid(dist.density * dist.p[:, None], dist.p, axis=0)
    return AngularDistribution(phi=dist.phi.copy(), values=values)


@dataclass(frozen=True)
class OffsetResult:
    """Attoclock readout: offset angle from the -y direction and delay."""

    phi_peak: float           # interpolated maximum, [0, 2 pi)
    theta: float              # offset angle, (-pi, pi], positive toward +x
    tau: float                # theta / omega, a.u.
    multimodal: bool
    secondary_ratio: float    # second peak height / max (0 when unimodal)

    @property
    def tau_as(self) -> float:
        return self.tau * au_time_as


def offset_angle_and_delay(ang: AngularDistribution, omega: float) -> OffsetResult:
    """Locate the angular maximum and convert it to a time delay at the
    carrier frequency ``omega``.  The maximum is refined by a parabola
    through the three points around the discrete argmax (cyclic).  A
    second local maximum within 5% of the top flags the result as
    multimodal rather than silently picking one.
    """
    if not omega > 0.0:
        raise ValueError(f"carrier frequency must be positive, got {omega}")
    _check_phi_grid(np.asarray(ang.phi, dtype=float))
    v = ang.values
    n = len(v)
    i = int(np.argmax(v))
    ym, y0, yp = v[i - 1], v[i], v[(i + 1) % n]
    denom = ym - 2.0 * y0 + yp
    delta = 0.0 if abs(denom) < 1e-300 else 0.5 * (ym - yp) / denom
    delta = min(0.5, max(-0.5, delta))
    dphi = 2.0 * math.pi / n
    phi_peak = (ang.phi[i] + delta * dphi) % (2.0 * math.pi)

    left = np.roll(v, 1)
    right = np.roll(v, -1)
    is_max = (v > left) & (v >= right)
    is_max[i] = False
    secondary_ratio = float(v[is_max].max() / y0) if is_max.any() and y0 > 0.0 else 0.0

    return OffsetResult(
        phi_peak=float(phi_peak),
        theta=wrap_angle(phi_peak + math.pi / 2.0),
        tau=wrap_angle(phi_peak + math.pi / 2.0) / omega,
        multimodal=secondary_ratio >= MULTIMODAL_RATIO,
        secondary_ratio=secondary_ratio,
    )


def attoclock_readout(state: WavefunctionState, system, pulse, p, phi) -> tuple:
    """(amps, distribution, angular, offset) of a final-time state, the
    last three None when less than ``NO_IONIZATION_FLOOR`` is ionized.
    A non-finite ionized probability raises ArithmeticError."""
    amps = project_scattering_states(state, system, p)
    total = amps.total_ionized()
    if not math.isfinite(total):
        raise ArithmeticError(f"the ionized probability is {total}, not finite")
    if total < NO_IONIZATION_FLOOR:
        return amps, None, None, None
    dist = momentum_distribution(amps, p, phi)
    ang = radial_integrate(dist)
    return amps, dist, ang, offset_angle_and_delay(ang, pulse.omega)

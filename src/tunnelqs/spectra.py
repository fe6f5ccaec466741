"""Photoelectron spectra from a propagated channel wavefunction.

The final state is projected on energy-normalized Coulomb continuum
waves of the same effective charge (ingoing-wave phase convention), the
coherent partial-wave sum is evaluated in the polarization plane, and
the attoclock observables are read off the angular distribution: the
offset angle theta, measured from the -y direction with positive sense
toward +x, and the delay tau = theta / omega.

Continuum waves are integrated with Numerov's method on the state's own
grid and normalized against the WKB amplitude in a window near the box
edge, so no closed-form Coulomb functions are needed.  Bound content is
projected out with eigenstates of the same discrete Hamiltonian before
projection, since bound population aliases into low momenta otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import loggamma, sph_harm_y

from .constants import au_time_as
from .tdse import WavefunctionState, atomic_diagonal, channel_index

__all__ = [
    "AngularDistribution",
    "IonizationAmplitudes",
    "MomentumDistribution",
    "OffsetResult",
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

_RENORM_LIMIT = 1e200       # Numerov under-barrier growth guard


def coulomb_phase(l: int, eta) -> np.ndarray:
    """sigma_l = arg Gamma(l + 1 + i eta), continuous in eta."""
    return np.imag(loggamma(l + 1.0 + 1j * np.asarray(eta, dtype=float)))


def wrap_angle(x: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def default_phi_grid(n: int = 720) -> np.ndarray:
    """Uniform periodic grid over [0, 2 pi), measured from the +x axis."""
    if n < 8:
        raise ValueError(f"need at least 8 angular points, got {n}")
    return 2.0 * math.pi * np.arange(n) / n


def continuum_waves(zeff: float, grid: RadialGrid, l: int,
                    p: np.ndarray) -> np.ndarray:
    """Regular radial continuum waves u_pl(r) for every momentum in p.

    Shape (len(p), n_points), energy-normalized: the asymptotic
    amplitude is sqrt(2/(pi p)).  zeff = 0 gives free spherical waves.
    Momenta whose WKB window is classically forbidden (possible for
    high l at very low p) come back as all-zero rows.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("p must be a nonempty 1-D array")
    if np.any(p <= 0.0):
        raise ValueError("p = 0 is excluded: continuum normalization is singular")
    r = grid.radii()
    dr = grid.dr
    n = grid.n_points
    # u'' = w(r) u for E = p^2/2 and the -zeff/r potential
    w = (l * (l + 1) / (r * r) - 2.0 * zeff / r)[None, :] - (p * p)[:, None]
    t = (dr * dr / 12.0) * w

    u = np.empty((len(p), n))
    # two-term Frobenius start: u ~ r^(l+1) (1 + c1 r + c2 r^2)
    c1 = -zeff / (l + 1)
    c2 = (2.0 * zeff * zeff / (l + 1) - p * p) / (4 * l + 6)
    for j in (0, 1):
        u[:, j] = r[j] ** (l + 1) * (1.0 + c1 * r[j] + c2 * r[j] ** 2)
    for j in range(1, n - 1):
        u[:, j + 1] = ((2.0 + 10.0 * t[:, j]) * u[:, j]
                       - (1.0 - t[:, j - 1]) * u[:, j - 1]) / (1.0 - t[:, j + 1])
        big = np.abs(u[:, j + 1]) > _RENORM_LIMIT
        if np.any(big):
            # overall scale is fixed later, but keep values finite
            factor = np.where(big, np.abs(u[:, j + 1]), 1.0)
            u[:, j:j + 2] /= factor[:, None]

    # normalize against the WKB amplitude in a window near the box edge
    jw = np.nonzero((r >= 0.80 * grid.r_max) & (r <= 0.90 * grid.r_max))[0]
    jw = jw[(jw > 0) & (jw < n - 1)]
    k2 = (p * p)[:, None] + 2.0 * zeff / r[jw][None, :] \
        - l * (l + 1) / (r[jw] * r[jw])[None, :]
    valid = np.all(k2 > 0.0, axis=1)
    k = np.sqrt(np.where(k2 > 0.0, k2, 1.0))
    du = (u[:, jw + 1] - u[:, jw - 1]) / (2.0 * dr)
    amp = np.sqrt(u[:, jw] ** 2 + (du / k) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.mean(np.sqrt(2.0 / (math.pi * k)) / amp, axis=1)
    good = valid & np.isfinite(scale)
    u *= np.where(good, scale, 0.0)[:, None]
    return u


def bound_states(zeff: float, grid: RadialGrid, l: int) -> np.ndarray:
    """Negative-energy eigenstates of the discrete radial Hamiltonian.

    Every E < 0 level the box supports, as unit-normalized rows, shape
    (k, n_points).  Uses the same discretization as the propagator, so
    the propagation ground state is reproduced exactly.
    """
    n = grid.n_points
    diag = atomic_diagonal(zeff, grid, l)
    off = -0.5 / grid.dr ** 2 * np.ones(n - 1)
    # a finite box supports only finitely many E < 0 levels
    w, v = eigh_tridiagonal(diag, off, select="v",
                            select_range=(-10.0 * zeff * zeff - 1.0, 0.0))
    keep = w < 0.0
    states = v[:, keep].T
    if states.shape[0] == 0:
        return np.zeros((0, n))
    norms = np.sqrt(np.sum(states ** 2, axis=1) * grid.dr)
    return states / norms[:, None]


def remove_bound(state: WavefunctionState, zeff: float) -> tuple[WavefunctionState, float]:
    """Project bound components out of every channel.

    Returns the cleaned copy and the total probability removed.
    """
    out = state.copy()
    dr = state.grid.dr
    removed = 0.0
    for l in range(state.l_max + 1):
        basis = bound_states(zeff, state.grid, l)
        if basis.shape[0] == 0:
            continue
        i0 = channel_index(l, -l)
        block = out.psi[i0:i0 + 2 * l + 1]
        coef = block @ basis.T * dr           # (2l+1, k)
        block -= coef @ basis
        removed += float(np.sum(np.abs(coef) ** 2))
    return out, removed


@dataclass
class IonizationAmplitudes:
    """Partial-wave ionization amplitudes a_lm(p).

    ``a`` has shape (n_channels, len(p)) in the fixed channel ordering;
    the total ionized probability is sum over channels of
    integral |a|^2 p^2 dp.  ``bound_removed`` is the probability that
    was projected out as bound content before the projection.
    """

    p: np.ndarray
    l_max: int
    zeff: float
    a: np.ndarray
    bound_removed: float

    def total_ionized(self) -> float:
        dens = np.sum(np.abs(self.a) ** 2, axis=0) * self.p ** 2
        return float(np.trapezoid(dens, self.p))


def project_scattering_states(state: WavefunctionState, system,
                              p: np.ndarray) -> IonizationAmplitudes:
    """Project a final-time state onto ingoing Coulomb scattering states.

    The phase convention per partial wave is (-i)^l e^{i sigma_l} with
    sigma_l = arg Gamma(l+1+i eta), eta = -Zeff/p, which makes the
    coherent sum over channels carry the physical angular interference.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) < 2:
        raise ValueError("p must be a 1-D grid of at least 2 momenta")
    if np.any(p <= 0.0):
        raise ValueError("p = 0 is excluded: continuum normalization is singular")
    if np.any(np.diff(p) <= 0.0):
        raise ValueError("p must be strictly increasing")
    zeff = system.Zeff
    cleaned, removed = remove_bound(state, zeff)
    dr = state.grid.dr
    eta = -zeff / p
    a = np.zeros((state.n_channels, len(p)), dtype=np.complex128)
    inv_sqrt_p = 1.0 / np.sqrt(p)
    for l in range(state.l_max + 1):
        waves = continuum_waves(zeff, state.grid, l, p)
        phase = (-1j) ** l * np.exp(1j * coulomb_phase(l, eta)) * inv_sqrt_p
        i0 = channel_index(l, -l)
        block = cleaned.psi[i0:i0 + 2 * l + 1]
        a[i0:i0 + 2 * l + 1] = (waves @ block.T * dr).T * phase[None, :]
    return IonizationAmplitudes(p=p, l_max=state.l_max, zeff=zeff, a=a,
                                bound_removed=removed)


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
    """Coherent partial-wave sum evaluated at polar angle pi/2."""
    p = np.asarray(p, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if p.shape != amps.p.shape or not np.array_equal(p, amps.p):
        raise ValueError("p grid does not match the amplitude table")
    if phi.ndim != 1 or len(phi) < 8:
        raise ValueError("phi must be a 1-D grid of at least 8 angles")
    ylm = np.empty((amps.a.shape[0], len(phi)), dtype=np.complex128)
    half_pi = np.full_like(phi, math.pi / 2.0)
    for l in range(amps.l_max + 1):
        for m in range(-l, l + 1):
            ylm[channel_index(l, m)] = sph_harm_y(l, m, half_pi, phi)
    psi = amps.a.T @ ylm
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

    @property
    def peak_index(self) -> int:
        return int(np.argmax(self.values))

    @property
    def peak_value(self) -> float:
        return float(self.values[self.peak_index])

    def integrate(self) -> float:
        return float(self.values.sum() * 2.0 * math.pi / len(self.phi))


def radial_integrate(dist: MomentumDistribution) -> AngularDistribution:
    values = np.trapezoid(dist.density * dist.p[:, None], dist.p, axis=0)
    return AngularDistribution(phi=dist.phi.copy(), values=values)


@dataclass(frozen=True)
class OffsetResult:
    """Attoclock readout: offset angle from the -y direction and delay."""

    phi_peak: float           # interpolated maximum, [0, 2 pi)
    peak_value: float
    theta: float              # offset angle, (-pi, pi], positive toward +x
    tau: float                # theta / omega, a.u.
    multimodal: bool
    secondary_ratio: float    # second peak height / max (0 when unimodal)

    @property
    def tau_as(self) -> float:
        return self.tau * au_time_as


def offset_angle_and_delay(ang: AngularDistribution, pulse) -> OffsetResult:
    """Locate the angular maximum and convert it to a time delay.

    ``pulse`` may be a PulseParams or a bare carrier frequency.  The
    maximum is refined by a parabola through the three points around the
    discrete argmax (cyclic).  A second local maximum within 5% of the
    top flags the result as multimodal rather than silently picking one.
    """
    omega = pulse.omega if hasattr(pulse, "omega") else float(pulse)
    if not omega > 0.0:
        raise ValueError(f"carrier frequency must be positive, got {omega}")
    v = ang.values
    n = len(v)
    i = int(np.argmax(v))
    ym, y0, yp = v[i - 1], v[i], v[(i + 1) % n]
    denom = ym - 2.0 * y0 + yp
    delta = 0.0 if abs(denom) < 1e-300 else 0.5 * (ym - yp) / denom
    delta = min(0.5, max(-0.5, delta))
    dphi = 2.0 * math.pi / n
    phi_peak = (ang.phi[i] + delta * dphi) % (2.0 * math.pi)
    peak_value = y0 - 0.25 * (ym - yp) * delta

    left = np.roll(v, 1)
    right = np.roll(v, -1)
    is_max = (v > left) & (v >= right)
    is_max[i] = False
    secondary_ratio = float(v[is_max].max() / y0) if is_max.any() and y0 > 0.0 else 0.0

    return OffsetResult(
        phi_peak=float(phi_peak),
        peak_value=float(peak_value),
        theta=wrap_angle(phi_peak + math.pi / 2.0),
        tau=wrap_angle(phi_peak + math.pi / 2.0) / omega,
        multimodal=secondary_ratio >= MULTIMODAL_RATIO,
        secondary_ratio=secondary_ratio,
    )

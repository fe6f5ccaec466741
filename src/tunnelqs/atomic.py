"""Hydrogen-like atom in a strong static field: barrier geometry and
tunneling time delays.

The electron leaves through the barrier formed by the Coulomb potential
tilted by a uniform field F along the ionization direction.  The barrier
exists for 0 < F <= F_a = Ip^2/(4 Zeff); beyond F_a ionization is
over-barrier and the quantities below lose their meaning.

The closed forms broadcast over numpy arrays of Z and f (one entry per
scan grid point); scalar calls still return Python floats.

Delay fields are in au of time; every delay has an attosecond mirror
obtained by multiplying with ``constants.au_time_as``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import au_time_as, c_au

__all__ = [
    "AtomicSystem",
    "BarrierGeometry",
    "BarrierSuppressionError",
    "DelaySet",
    "PhotonAbsorptionDelay",
    "barrier_geometry",
    "delay_set",
    "keldysh_gamma",
    "make_system",
    "photon_absorption_delay",
]


class BarrierSuppressionError(ValueError):
    """Raised when F exceeds the barrier-suppression field strength F_a."""

    def __init__(self, f: float, f_atomic: float):
        self.f = f
        self.f_atomic = f_atomic
        super().__init__(
            f"F = {f:.6g} au is beyond the barrier-suppression threshold "
            f"F_a = {f_atomic:.6g} au; no tunneling barrier exists"
        )


def _require(ok, x, message: str) -> None:
    """Raise ValueError(message filled in with the first entry of x, a
    scalar or an array, or of each x in a tuple, where ok is False)."""
    bad = ~np.asarray(ok)
    if bad.any():
        *xs, bad = np.broadcast_arrays(*(x if isinstance(x, tuple) else (x,)), bad)
        raise ValueError(message.format(*(v[bad][0] for v in xs)))


def _as_float(x):
    """A scalar as a Python float, an array as a float array."""
    return float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)


@dataclass(frozen=True)
class AtomicSystem:
    """Effective one-electron atom.

    Attributes
    ----------
    Z : float
        Nuclear charge.
    Zeff : float
        Effective charge seen by the departing electron.  Equal to Z for a
        bare hydrogen-like ion; smaller for a single-active-electron model
        of a neutral atom.
    Ip : float
        Ionization potential in au.
    relativistic : bool
        True when Ip came from the Dirac ground level instead of Z^2/2.
    """

    Z: float
    Zeff: float
    Ip: float
    relativistic: bool = False

    @property
    def f_atomic(self) -> float:
        """Barrier-suppression field strength F_a = Ip^2/(4 Zeff)."""
        return self.Ip * self.Ip / (4.0 * self.Zeff)

    @property
    def f_crit(self) -> float:
        """F_c = (c/16)^2 Zeff, where q_nad reaches 1 for a nonrelativistic
        hydrogen-like atom."""
        return (c_au / 16.0) ** 2 * self.Zeff

    @property
    def tau_atomic(self) -> float:
        """Atomic time 1/(2 Ip); the F -> F_a limit of the tunneling delays."""
        return 0.5 / self.Ip


def make_system(Z: float, Zeff: float | None = None, relativistic: bool = False,
                Ip: float | None = None) -> AtomicSystem:
    """Build an :class:`AtomicSystem`.

    Parameters
    ----------
    Z : float
        Nuclear charge, > 0.
    Zeff : float, optional
        Effective charge, defaults to Z.
    relativistic : bool
        Use the Dirac point-nucleus ground level for the default Ip,
        Ip = c^2 (1 - sqrt(1 - (Z/c)^2)).  Requires Z < c.
    Ip : float, optional
        Explicit ionization potential; overrides the ground-state default.
        Needed for single-active-electron models where Ip is empirical.

    Inputs for which Ip or F_a = Ip^2/(4 Zeff) is not finite, or F_a
    underflows to 0, raise ValueError naming them.
    """
    _require(Z > 0.0, Z, "Z must be positive, got {}")
    if Zeff is None:
        Zeff = Z
    _require(Zeff > 0.0, Zeff, "Zeff must be positive, got {}")
    if Ip is None:
        if relativistic:
            _require(Z < c_au, Z, "Dirac point-nucleus level undefined for Z = {} "
                     f">= c = {c_au}")
            x = Z / c_au
            Ip = c_au * c_au * (1.0 - np.sqrt(1.0 - x * x))
        else:
            with np.errstate(over="ignore"):
                Ip = 0.5 * Z * Z
            _require(np.isfinite(Ip), Z, "Z = {} is too large: Ip = Z^2/2 is not finite")
    _require(Ip > 0.0, Ip, "Ip must be positive, got {}")
    _require(np.isfinite(Ip), Ip, "Ip must be finite, got {}")
    with np.errstate(over="ignore"):
        f_atomic = Ip * Ip / (4.0 * Zeff)
    _require(np.isfinite(f_atomic), (Z, Zeff, Ip), "Z = {}, Zeff = {}, Ip = {}: the "
             "barrier-suppression field F_a = Ip^2/(4 Zeff) is not finite")
    _require(f_atomic > 0.0, (Z, Zeff, Ip), "Z = {}, Zeff = {}, Ip = {}: the "
             "barrier-suppression field F_a = Ip^2/(4 Zeff) underflows to 0")
    return AtomicSystem(Z=_as_float(Z), Zeff=_as_float(Zeff), Ip=_as_float(Ip),
                        relativistic=bool(relativistic))


@dataclass(frozen=True)
class BarrierGeometry:
    """Static tunneling barrier for field strength ``f``.

    delta_z is the barrier height sqrt(Ip^2 - 4 Zeff F); x_entry and
    x_exit the inner and outer classical turning points, x_top the
    barrier-maximum position sqrt(Zeff/F).  d_b = x_exit - x_entry is the
    tunnel width and d_c = Ip/F the classical (thick-barrier) width.
    """

    f: float
    delta_z: float
    x_entry: float
    x_exit: float
    x_top: float
    d_b: float
    d_c: float


def _check_field(system: AtomicSystem, f: float) -> None:
    """Reject F <= 0 and an F for which Ip/F, Zeff/F, Ip/(Zeff F) or c Ip/(Zeff F
    x_top) is not finite: the barrier, the delays and Q_Nad divide by them."""
    _require(f > 0.0, f, "field strength must be positive, got {}")
    with np.errstate(all="ignore"):
        finite = np.isfinite(system.Ip / f) & np.isfinite(system.Zeff / f)
        ip_zf = system.Ip / np.multiply(system.Zeff, f)
        finite_zf = np.isfinite(ip_zf) & np.isfinite(c_au * ip_zf / np.sqrt(system.Zeff / f))
    _require(finite, f, "field strength is too small for finite Ip/F and Zeff/F, got {}")
    _require(finite_zf, (system.Zeff, f),
             "Zeff = {}, F = {}: Ip/(Zeff F) or c Ip/(Zeff F x_top) is not finite")


def barrier_geometry(system: AtomicSystem, f: float) -> BarrierGeometry:
    """Turning points and widths of the tunneling barrier at field f.

    Valid for 0 < f <= F_a (closed at the top: delta_z = 0 there).
    Raises :class:`BarrierSuppressionError` beyond F_a.
    """
    _check_field(system, f)
    over = np.asarray(f > system.f_atomic)
    if over.any():
        f_over, f_atomic = np.broadcast_arrays(f, system.f_atomic)
        raise BarrierSuppressionError(float(f_over[over][0]), float(f_atomic[over][0]))
    ip = system.Ip
    # maximum only guards the roundoff of Ip^2 - 4 Zeff F at F = F_a
    delta_z = _as_float(np.sqrt(np.maximum(ip * ip - 4.0 * system.Zeff * f, 0.0)))
    return BarrierGeometry(
        f=f,
        delta_z=delta_z,
        # (Ip - delta_z)/(2F) rationalized; the difference form loses half
        # the significand in the weak-field limit where delta_z -> Ip
        x_entry=2.0 * system.Zeff / (ip + delta_z),
        x_exit=(ip + delta_z) / (2.0 * f),
        x_top=_as_float(np.sqrt(system.Zeff / f)),
        d_b=delta_z / f,
        d_c=ip / f,
    )


@dataclass(frozen=True)
class DelaySet:
    """Tunneling time delays at one field strength, in au.

    tau_ti and tau_ad are the delays of the instantaneous and delayed
    ionization steps, 1/(2(Ip + delta_z)) and 1/(2(Ip - delta_z)).
    tau_ad splits into the ionization part tau_dion = Ip/(8 Zeff F) and
    the barrier part tau_db = delta_z/(8 Zeff F).  tau_backr is the
    back-reaction delay (Ip - delta_z)/(8 Zeff F), identical to tau_ti.
    tau_a = 1/(2 Ip) is the common F -> F_a limit.
    """

    tau_a: float
    tau_ti: float
    tau_ad: float
    tau_dion: float
    tau_db: float
    tau_backr: float

    # attosecond mirrors
    @property
    def tau_a_as(self) -> float:
        return self.tau_a * au_time_as

    @property
    def tau_ti_as(self) -> float:
        return self.tau_ti * au_time_as

    @property
    def tau_ad_as(self) -> float:
        return self.tau_ad * au_time_as

    @property
    def tau_dion_as(self) -> float:
        return self.tau_dion * au_time_as

    @property
    def tau_db_as(self) -> float:
        return self.tau_db * au_time_as

    @property
    def tau_backr_as(self) -> float:
        return self.tau_backr * au_time_as


def delay_set(system: AtomicSystem, f: float) -> DelaySet:
    """All tunneling delays at field strength f, 0 < f <= F_a.

    tau_ad = 1/(2(Ip - delta_z)) and tau_backr = (Ip - delta_z)/(8 Zeff F)
    are evaluated through Ip - delta_z = 4 Zeff F/(Ip + delta_z), which is
    exact and free of the cancellation that the literal difference suffers
    for F << F_a.
    """
    geom = barrier_geometry(system, f)
    ip = system.Ip
    dz = geom.delta_z
    denom = 8.0 * system.Zeff * f
    return DelaySet(
        tau_a=0.5 / ip,
        tau_ti=0.5 / (ip + dz),
        tau_ad=(ip + dz) / denom,
        tau_dion=ip / denom,
        tau_db=dz / denom,
        tau_backr=0.5 / (ip + dz),
    )


@dataclass(frozen=True)
class PhotonAbsorptionDelay:
    """Delay accumulated over the n-photon absorption that lifts the
    electron to the continuum edge.

    n_photons = Ip/omega is kept real on purpose: rounding it to an
    integer would put a staircase into every scan over omega.
    """

    n_photons: float
    tau_1ph: float
    tau_nph: float


def photon_absorption_delay(system: AtomicSystem, f: float,
                            omega: float) -> PhotonAbsorptionDelay:
    """Per-photon and total absorption delay for photon energy omega.

    tau_nph = n omega/(8 Zeff F) with n = Ip/omega, so the total always
    equals the ionization delay tau_dion regardless of omega.
    """
    _require(omega > 0.0, omega, "omega must be positive, got {}")
    _check_field(system, f)
    with np.errstate(over="ignore", invalid="ignore"):
        n = system.Ip / omega
        tau_1 = omega / (8.0 * system.Zeff * f)
        tau_n = n * tau_1
    # an inf or NaN n or tau_1 leaves their product inf or NaN
    _require(np.isfinite(tau_n), (omega, f),
             "omega = {} at F = {} gives a photon count or absorption delay that is not finite")
    return PhotonAbsorptionDelay(n_photons=n, tau_1ph=tau_1, tau_nph=tau_n)


def keldysh_gamma(system: AtomicSystem, f: float, omega: float) -> float:
    """Keldysh adiabaticity parameter gamma = omega sqrt(2 Ip) / F."""
    _require(omega > 0.0, omega, "omega must be positive, got {}")
    _check_field(system, f)
    with np.errstate(over="ignore"):
        gamma = _as_float(omega * np.sqrt(2.0 * system.Ip) / f)
    _require(np.isfinite(gamma), (omega, f),
             "omega = {} at F = {} gives a Keldysh gamma that is not finite")
    return gamma

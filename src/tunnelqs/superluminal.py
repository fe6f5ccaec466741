"""Superluminality diagnostics for tunnel ionization.

Each quotient Q is a tunneling delay divided by the light traversal time
of the matching barrier distance; Q < 1 flags an apparently superluminal
barrier passage.  The intermediate picture interpolates between the
nonadiabatic exit (barrier top x_top, delay tau_dion) at zeta = 0 and the
adiabatic exit (width d_b, delay tau_ad) at zeta = 1.

Like the forms in :mod:`atomic`, the quotients take numpy arrays for f
and zeta; :func:`zeta_qs_roots` is the array form of :func:`zeta_qs`.
``scan.tabulate``, the evaluator ``delays`` and ``scan`` share, gathers
them all, with the light times, into one table row per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import (
    AtomicSystem,
    _as_float,
    _check_field,
    _require,
    barrier_geometry,
    delay_set,
)
from .constants import c_au

__all__ = [
    "CriticalFields",
    "IntermediateState",
    "ZetaRoot",
    "critical_fields",
    "d_imed_thick",
    "intermediate",
    "q_ad",
    "q_db",
    "q_imed_a",
    "q_imed_b",
    "q_nad",
    "zeta_qs",
    "zeta_qs_roots",
    "zeta_threshold_a",
]

_RESIDUAL_TOL = 1e-9     # closed-form root acceptance


def _check_zeta(zeta) -> None:
    _require((0.0 <= zeta) & (zeta <= 1.0), zeta, "zeta must lie in [0, 1], got {}")


def q_db(system: AtomicSystem) -> float:
    """Barrier-part quotient tau_db/(d_b/c) = c/(8 Zeff), field free."""
    return c_au / (8.0 * system.Zeff)


def q_ad(system: AtomicSystem) -> float:
    """Thick-barrier adiabatic quotient tau_ad/(d_b/c) -> c/(4 Zeff)."""
    return c_au / (4.0 * system.Zeff)


def q_nad(system: AtomicSystem, f: float) -> float:
    """Nonadiabatic quotient tau_dion/(x_top/c) = Ip c/(8 Zeff F x_top).

    For a nonrelativistic hydrogen-like atom this reduces to
    (c/16) sqrt(Zeff/F) and crosses 1 at F_c = (c/16)^2 Zeff.
    """
    geom = barrier_geometry(system, f)
    return system.Ip * c_au / (8.0 * system.Zeff * f * geom.x_top)


@dataclass(frozen=True)
class IntermediateState:
    """Delay and exit distance of the intermediate tunneling picture.

    band_inverted marks F > 0.8 F_a, where d_b drops below x_top and the
    zeta interpolation runs from the longer to the shorter distance.
    """

    zeta: float
    tau_imed: float
    d_imed: float
    band_inverted: bool


def intermediate(system: AtomicSystem, f: float, zeta: float) -> IntermediateState:
    """Intermediate delay tau_dion + zeta tau_db and exit distance
    (1 - zeta) x_top + zeta d_b, for zeta in [0, 1]."""
    _check_zeta(zeta)
    geom = barrier_geometry(system, f)
    delays = delay_set(system, f)
    return IntermediateState(
        zeta=zeta,
        tau_imed=delays.tau_dion + zeta * delays.tau_db,
        d_imed=(1.0 - zeta) * geom.x_top + zeta * geom.d_b,
        band_inverted=geom.d_b < geom.x_top,
    )


def q_imed_a(system: AtomicSystem, zeta: float) -> float:
    """Field-free intermediate quotient c (1 + zeta)/(8 Zeff).

    Compares tau_imed against d_b/c in the thick-barrier limit, where the
    exit-distance interpolation is dominated by d_b >> x_top.
    """
    _check_zeta(zeta)
    return c_au * (1.0 + zeta) / (8.0 * system.Zeff)


def zeta_threshold_a(system: AtomicSystem) -> float | None:
    """zeta where q_imed_a = 1, i.e. 8 Zeff/c - 1; None outside [0, 1]."""
    zi = 8.0 * system.Zeff / c_au - 1.0
    if 0.0 <= zi <= 1.0:
        return zi
    return None


def q_imed_b(system: AtomicSystem, f: float, zeta: float, thick: bool = False) -> float:
    """Field-dependent intermediate quotient tau_imed/(d_imed/c).

    Exact form:  c (Ip + zeta delta_z) /
                 [8 Zeff F (1 - zeta) x_top + 8 zeta Zeff delta_z]

    ``thick=True`` replaces the barrier height by Ip and the tunnel width
    by the classical width d_c = Ip/F.  The thick form stays defined for
    any F > 0, including the over-barrier regime; the exact form requires
    F <= F_a.
    """
    _check_zeta(zeta)
    if thick:
        _check_field(system, f)
        x_top = _as_float(np.sqrt(system.Zeff / f))
        a_t = 8.0 * system.Zeff * f * x_top / system.Ip
        return c_au * (1.0 + zeta) / (a_t * (1.0 - zeta) + 8.0 * system.Zeff * zeta)
    geom = barrier_geometry(system, f)
    num = c_au * (system.Ip + zeta * geom.delta_z)
    den = (8.0 * system.Zeff * f * (1.0 - zeta) * geom.x_top
           + 8.0 * system.Zeff * zeta * geom.delta_z)
    # den = 0 only at zeta = 1 and F = F_a, where the barrier is gone and
    # d_imed = d_b = 0; num > 0 there, so Q is inf
    with np.errstate(divide="ignore"):
        return _as_float(np.divide(num, den))


def d_imed_thick(system: AtomicSystem, f: float, zeta: float) -> float:
    """Thick-barrier exit distance (1 - zeta) x_top + zeta d_c, with the
    classical width d_c = Ip/F in place of d_b; defined for any F > 0,
    like ``q_imed_b(thick=True)``."""
    _check_zeta(zeta)
    _check_field(system, f)
    return _as_float((1.0 - zeta) * np.sqrt(system.Zeff / f) + zeta * system.Ip / f)


@dataclass(frozen=True)
class ZetaRoot:
    """Root of Q_imed_b(zeta) = 1 inside [0, 1]."""

    zeta: float
    mode: str        # "exact" | "thick" | "smallF"
    residual: float  # |Q(zeta) - 1| at the root; 0 for smallF
    method: str      # always "closed-form"


def zeta_qs_roots(system: AtomicSystem, f, mode: str = "exact"):
    """Roots of Q_imed_b(zeta) = 1 in [0, 1] for the exact and thick modes,
    with f a scalar or an array: (zeta, residual) shaped like f, NaN
    where no root exists.

    Q is a ratio of two affine functions of zeta and therefore monotone,
    so the root is unique when present.  With num and den as computed
    below, Q - 1 = (zeta den - num)/D(zeta), where D, the denominator of
    Q, is positive on [0, 1).  Q - 1 can therefore change sign on [0, 1]
    only at zeta = num/den, and den == 0 leaves no isolated root.  The
    residual is |Q - 1| at the root; any residual above 1e-9 raises
    ArithmeticError.
    """
    if mode == "thick":
        _check_field(system, f)
        a_t = 8.0 * system.Zeff * f * np.sqrt(system.Zeff / f) / system.Ip
        num = a_t - c_au
        den = a_t + c_au - 8.0 * system.Zeff
    elif mode == "exact":
        geom = barrier_geometry(system, f)
        a = 8.0 * system.Zeff * f * geom.x_top
        num = a - c_au * system.Ip
        den = a - 8.0 * system.Zeff * geom.delta_z + c_au * geom.delta_z
    else:
        raise ValueError(f"unknown mode {mode!r}")

    with np.errstate(divide="ignore", invalid="ignore"):
        zeta = np.divide(num, den)
    found = (den != 0.0) & (0.0 <= zeta) & (zeta <= 1.0)
    zeta = np.where(found, zeta, np.nan)
    q = q_imed_b(system, f, np.where(found, zeta, 0.0), thick=(mode == "thick"))
    residual = np.where(found, np.abs(q - 1.0), np.nan)
    failing = np.flatnonzero(found & ~(residual <= _RESIDUAL_TOL))
    if failing.size:
        z, res = float(zeta.flat[failing[0]]), residual.flat[failing[0]]
        raise ArithmeticError(f"closed-form zeta_QS = {z!r} ({mode}) leaves "
                              f"|Q - 1| = {res:.3e} above {_RESIDUAL_TOL:g}")
    return zeta, residual


def zeta_qs(system: AtomicSystem, f: float | None = None,
            mode: str = "exact") -> ZetaRoot | None:
    """Smallest zeta in [0, 1] with Q_imed_b = 1, or None when no root exists.

    An absent root is a normal outcome (the whole zeta band is on one
    side of Q = 1), not an error.  The exact and thick roots come from
    :func:`zeta_qs_roots`, with its residual check.

    Modes
    -----
    exact   : full barrier geometry; requires f in (0, F_a].
    thick   : thick-barrier form; any f > 0.
    smallF  : F -> 0 limit c/(8 Zeff - c); f is ignored.
    """
    if mode == "smallF":
        den = 8.0 * system.Zeff - c_au
        if den <= 0.0:
            return None
        zeta = c_au / den
        if not 0.0 <= zeta <= 1.0:
            return None
        return ZetaRoot(zeta=zeta, mode=mode, residual=0.0, method="closed-form")
    if f is None and mode in ("exact", "thick"):
        raise ValueError(f"mode {mode!r} needs a field strength")
    zeta, residual = zeta_qs_roots(system, f, mode)
    if np.isnan(zeta):
        return None
    return ZetaRoot(zeta=float(zeta), mode=mode, residual=float(residual),
                    method="closed-form")


@dataclass(frozen=True)
class CriticalFields:
    """Field strengths framing the superluminality window of one atom.

    f_crit = (c/16)^2 Zeff is where q_nad reaches 1 for a nonrelativistic
    hydrogen-like atom; f_zeta1 solves Q_imed_b(zeta=1, F) = 1 inside
    (0, F_a] and is None when the adiabatic end never crosses.  The
    window is nonempty when f_crit < f_atomic.
    """

    f_atomic: float
    f_crit: float
    f_zeta1: float | None
    window_nonempty: bool


def critical_fields(system: AtomicSystem) -> CriticalFields:
    f_a = system.f_atomic
    f_c = system.f_crit

    def g(f: float) -> float:
        return q_imed_b(system, f, 1.0) - 1.0

    lo, hi = f_a * 1e-9, f_a * (1.0 - 1e-12)
    f_zeta1 = None
    if g(lo) * g(hi) < 0.0:
        # imported here, like every scipy submodule the package uses: it
        # takes longer to load than the rest of a CLI call, and only an
        # atom with Zeff > c/4 has this root
        from scipy.optimize import brentq

        f_zeta1 = brentq(g, lo, hi, xtol=f_a * 1e-14, rtol=8.9e-16)
    return CriticalFields(
        f_atomic=f_a,
        f_crit=f_c,
        f_zeta1=f_zeta1,
        window_nonempty=f_c < f_a,
    )

"""Superluminality diagnostics for tunnel ionization.

Each quotient Q is a tunneling delay divided by the light traversal time
of the matching barrier distance; Q < 1 flags an apparently superluminal
barrier passage.  The intermediate picture interpolates between the
nonadiabatic exit (barrier top x_top, delay tau_dion) at zeta = 0 and the
adiabatic exit (width d_b, delay tau_ad) at zeta = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .atomic import AtomicSystem, barrier_geometry, delay_set
from .constants import c_au

__all__ = [
    "CriticalFields",
    "IntermediateState",
    "QsReport",
    "ZetaRoot",
    "critical_fields",
    "intermediate",
    "q_ad",
    "q_db",
    "q_imed_a",
    "q_imed_b",
    "q_nad",
    "qs_report",
    "zeta_qs",
    "zeta_threshold_a",
]

_RESIDUAL_TOL = 1e-9     # closed-form root acceptance


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
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must lie in [0, 1], got {zeta}")
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
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must lie in [0, 1], got {zeta}")
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
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must lie in [0, 1], got {zeta}")
    if thick:
        if not f > 0.0:
            raise ValueError(f"field strength must be positive, got {f}")
        x_top = math.sqrt(system.Zeff / f)
        a_t = 8.0 * system.Zeff * f * x_top / system.Ip
        return c_au * (1.0 + zeta) / (a_t * (1.0 - zeta) + 8.0 * system.Zeff * zeta)
    geom = barrier_geometry(system, f)
    num = c_au * (system.Ip + zeta * geom.delta_z)
    den = (8.0 * system.Zeff * f * (1.0 - zeta) * geom.x_top
           + 8.0 * system.Zeff * zeta * geom.delta_z)
    if den == 0.0:
        # zeta = 1 at F = F_a: the barrier is gone, d_imed = d_b = 0
        return math.inf
    return num / den


@dataclass(frozen=True)
class ZetaRoot:
    """Root of Q_imed_b(zeta) = 1 inside [0, 1]."""

    zeta: float
    mode: str        # "exact" | "thick" | "smallF"
    residual: float  # |Q(zeta) - 1| at the root; 0 for smallF
    method: str      # always "closed-form"


def zeta_qs(system: AtomicSystem, f: float | None = None,
            mode: str = "exact") -> ZetaRoot | None:
    """Smallest zeta in [0, 1] with Q_imed_b = 1, or None when no root exists.

    Q is a ratio of two affine functions of zeta and therefore monotone,
    so the root is unique when present.  With num and den as computed
    below, Q - 1 = (zeta den - num)/D(zeta), where D, the denominator of
    Q, is positive on [0, 1).  Q - 1 can therefore change sign on [0, 1]
    only at zeta = num/den, and den == 0 leaves no isolated root.  An
    absent root is a normal outcome (the whole zeta band is on one side
    of Q = 1), not an error.  The root comes back with its residual
    |Q - 1|; a residual above 1e-9 raises ArithmeticError.

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
    if mode not in ("exact", "thick"):
        raise ValueError(f"unknown mode {mode!r}")
    if f is None:
        raise ValueError(f"mode {mode!r} needs a field strength")

    if mode == "thick":
        if not f > 0.0:
            raise ValueError(f"field strength must be positive, got {f}")
        a_t = 8.0 * system.Zeff * f * math.sqrt(system.Zeff / f) / system.Ip
        num = a_t - c_au
        den = a_t + c_au - 8.0 * system.Zeff
    else:
        geom = barrier_geometry(system, f)
        a = 8.0 * system.Zeff * f * geom.x_top
        num = a - c_au * system.Ip
        den = a - 8.0 * system.Zeff * geom.delta_z + c_au * geom.delta_z

    if den == 0.0:
        return None
    zeta = num / den
    if not 0.0 <= zeta <= 1.0:
        return None
    res = abs(q_imed_b(system, f, zeta, thick=(mode == "thick")) - 1.0)
    if not res <= _RESIDUAL_TOL:
        raise ArithmeticError(f"closed-form zeta_QS = {zeta!r} ({mode}) leaves "
                              f"|Q - 1| = {res:.3e} above {_RESIDUAL_TOL:g}")
    return ZetaRoot(zeta=zeta, mode=mode, residual=res, method="closed-form")


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
    f_c = (c_au / 16.0) ** 2 * system.Zeff

    def g(f: float) -> float:
        return q_imed_b(system, f, 1.0) - 1.0

    lo, hi = f_a * 1e-9, f_a * (1.0 - 1e-12)
    f_zeta1 = None
    if g(lo) * g(hi) < 0.0:
        f_zeta1 = brentq(g, lo, hi, xtol=f_a * 1e-14, rtol=8.9e-16)
    return CriticalFields(
        f_atomic=f_a,
        f_crit=f_c,
        f_zeta1=f_zeta1,
        window_nonempty=f_c < f_a,
    )


@dataclass(frozen=True)
class QsReport:
    """All quotients and light times at one (F, zeta) point."""

    q_db: float
    q_ad: float
    q_nad: float
    q_imed_a: float
    q_imed_b: float
    tau_c_db: float     # d_b / c
    tau_c_nad: float    # x_top / c
    tau_c_imed: float   # d_imed / c
    superluminal_db: bool
    superluminal_ad: bool
    superluminal_nad: bool
    superluminal_imed: bool


def qs_report(system: AtomicSystem, f: float, zeta: float = 0.5) -> QsReport:
    geom = barrier_geometry(system, f)
    imed = intermediate(system, f, zeta)
    qdb = q_db(system)
    qad = q_ad(system)
    qnad = q_nad(system, f)
    qa = q_imed_a(system, zeta)
    qb = q_imed_b(system, f, zeta)
    return QsReport(
        q_db=qdb,
        q_ad=qad,
        q_nad=qnad,
        q_imed_a=qa,
        q_imed_b=qb,
        tau_c_db=geom.d_b / c_au,
        tau_c_nad=geom.x_top / c_au,
        tau_c_imed=imed.d_imed / c_au,
        superluminal_db=qdb < 1.0,
        superluminal_ad=qad < 1.0,
        superluminal_nad=qnad < 1.0,
        superluminal_imed=qb < 1.0,
    )

"""Parameter sweeps over (Z, F, zeta) grids.

Every grid point is evaluated into one flat record with a fixed, wide
column set; quantities that do not apply at a point (no zeta given, or F
beyond the barrier-suppression threshold) are NaN, and out-of-domain
points are kept and flagged instead of being dropped.  Identical grids
always produce byte-identical tables.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import superluminal as sl
from .atomic import BarrierSuppressionError, barrier_geometry, delay_set, make_system
from .constants import au_time_as, c_au

__all__ = [
    "AxisSpec",
    "COLUMNS",
    "PRESET_NAMES",
    "ScanGrid",
    "emit_table",
    "preset_grids",
    "run_preset",
    "run_scan",
]

NAN = float("nan")

AXIS_NAMES = ("Z", "F", "zeta")

COLUMNS = (
    "Z", "Zeff", "relativistic", "F", "zeta",
    "Ip", "F_a", "F_c",
    "delta_z", "x_entry", "x_exit", "x_top", "d_b", "d_c",
    "tau_a", "tau_ti", "tau_ad", "tau_dion", "tau_db", "tau_backr",
    "tau_a_as", "tau_ti_as", "tau_ad_as", "tau_dion_as", "tau_db_as", "tau_backr_as",
    "tau_c_db", "tau_c_db_as", "tau_c_nad", "tau_c_nad_as",
    "q_db", "q_ad", "q_nad",
    "tau_imed", "tau_imed_as", "d_imed", "tau_c_imed", "tau_c_imed_as",
    "d_imed_thick", "q_imed_a", "q_imed_b",
    "q_imed_b_thick", "zeta_qs_exact", "zeta_qs_thick",
    "barrier_suppressed", "band_inverted",
)

# columns carrying 0/1 flags; everything else is a float
FLAG_COLUMNS = ("relativistic", "barrier_suppressed", "band_inverted")


@dataclass(frozen=True)
class AxisSpec:
    """One swept axis: ``count`` points from start to stop inclusive."""

    name: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if self.count < 2:
            raise ValueError(f"axis {self.name}: count must be >= 2, got {self.count}")
        if not self.start < self.stop:
            raise ValueError(
                f"axis {self.name}: start must be < stop, got [{self.start}, {self.stop}]")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"axis {self.name}: spacing must be linear or log")
        if self.spacing == "log" and not self.start > 0.0:
            raise ValueError(f"axis {self.name}: log spacing needs start > 0")

    def points(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class ScanGrid:
    """Cartesian product of the swept axes around fixed parameter values.

    Row-major point order, rightmost axis fastest.  A grid without axes
    is a single point.
    """

    fixed: dict = field(default_factory=dict)
    axes: tuple = ()
    relativistic: bool = False

    def __post_init__(self):
        swept = [ax.name for ax in self.axes]
        if len(set(swept)) != len(swept):
            raise ValueError(f"duplicate swept axes: {swept}")
        for key in self.fixed:
            if key not in AXIS_NAMES:
                raise ValueError(f"unknown fixed parameter {key!r}")
            if key in swept:
                raise ValueError(f"parameter {key!r} both fixed and swept")
        if "Z" not in self.fixed and "Z" not in swept:
            raise ValueError("grid needs Z, fixed or swept")
        if "F" not in self.fixed and "F" not in swept:
            raise ValueError("grid needs F, fixed or swept")

    def points(self):
        """Yield one {name: value} dict per grid point."""
        base = dict(self.fixed)
        if not self.axes:
            yield base
            return
        axis_values = [ax.points() for ax in self.axes]
        names = [ax.name for ax in self.axes]
        for combo in itertools.product(*axis_values):
            point = dict(base)
            point.update(zip(names, (float(v) for v in combo)))
            yield point


def _evaluate_point(point: dict, relativistic: bool) -> dict:
    z = point["Z"]
    f = point["F"]
    zeta = point.get("zeta")
    system = make_system(z, relativistic=relativistic)

    rec = dict.fromkeys(COLUMNS, NAN)
    rec["Z"] = z
    rec["Zeff"] = system.Zeff
    rec["relativistic"] = int(relativistic)
    rec["F"] = f
    rec["zeta"] = zeta if zeta is not None else NAN
    rec["Ip"] = system.Ip
    rec["F_a"] = system.f_atomic
    rec["F_c"] = (c_au / 16.0) ** 2 * system.Zeff
    rec["q_db"] = sl.q_db(system)
    rec["q_ad"] = sl.q_ad(system)
    rec["barrier_suppressed"] = 0
    rec["band_inverted"] = 0

    # thick-barrier quantities survive beyond F_a
    if zeta is not None:
        rec["q_imed_a"] = sl.q_imed_a(system, zeta)
        rec["q_imed_b_thick"] = sl.q_imed_b(system, f, zeta, thick=True)
        x_top = math.sqrt(system.Zeff / f)
        rec["d_imed_thick"] = (1.0 - zeta) * x_top + zeta * system.Ip / f
    root_t = sl.zeta_qs(system, f, mode="thick")
    if root_t is not None:
        rec["zeta_qs_thick"] = root_t.zeta

    try:
        geom = barrier_geometry(system, f)
    except BarrierSuppressionError:
        rec["barrier_suppressed"] = 1
        return rec

    delays = delay_set(system, f)
    rec["delta_z"] = geom.delta_z
    rec["x_entry"] = geom.x_entry
    rec["x_exit"] = geom.x_exit
    rec["x_top"] = geom.x_top
    rec["d_b"] = geom.d_b
    rec["d_c"] = geom.d_c
    for name in ("tau_a", "tau_ti", "tau_ad", "tau_dion", "tau_db", "tau_backr"):
        val = getattr(delays, name)
        rec[name] = val
        rec[name + "_as"] = val * au_time_as
    rec["tau_c_db"] = geom.d_b / c_au
    rec["tau_c_db_as"] = rec["tau_c_db"] * au_time_as
    rec["tau_c_nad"] = geom.x_top / c_au
    rec["tau_c_nad_as"] = rec["tau_c_nad"] * au_time_as
    rec["q_nad"] = sl.q_nad(system, f)
    rec["band_inverted"] = int(geom.d_b < geom.x_top)
    if zeta is not None:
        imed = sl.intermediate(system, f, zeta)
        rec["tau_imed"] = imed.tau_imed
        rec["tau_imed_as"] = imed.tau_imed * au_time_as
        rec["d_imed"] = imed.d_imed
        rec["tau_c_imed"] = imed.d_imed / c_au
        rec["tau_c_imed_as"] = rec["tau_c_imed"] * au_time_as
        rec["q_imed_b"] = sl.q_imed_b(system, f, zeta)
    root_e = sl.zeta_qs(system, f, mode="exact")
    if root_e is not None:
        rec["zeta_qs_exact"] = root_e.zeta
    return rec


def run_scan(grid: ScanGrid) -> list[dict]:
    """Evaluate every grid point into a record, in grid order."""
    return [_evaluate_point(p, grid.relativistic) for p in grid.points()]


def _fmt_cell(name: str, value) -> str:
    if name in FLAG_COLUMNS:
        return str(int(value))
    v = float(value)
    return repr(v)


def emit_table(records, fmt: str = "csv", dest=None, header_comments=(), config=None):
    """Serialize records to CSV or JSON.

    CSV: optional ``# key=value`` comment lines, one header row naming
    every column, comma separated, ``.`` decimal point, LF endings,
    full round-trip double precision (shortest repr).  JSON: an array of
    flat objects (NaN encoded as null); with ``config`` given, a wrapper
    object {"config": ..., "records": [...]} so the file carries its own
    provenance.

    ``dest`` may be a path or a text file object; with ``dest=None`` the
    serialized text is returned.
    """
    if fmt == "csv":
        lines = [f"# {c}" for c in header_comments]
        lines.append(",".join(COLUMNS))
        for rec in records:
            lines.append(",".join(_fmt_cell(c, rec[c]) for c in COLUMNS))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        def clean(rec):
            out = {}
            for c in COLUMNS:
                v = rec[c]
                if c in FLAG_COLUMNS:
                    out[c] = int(v)
                else:
                    v = float(v)
                    out[c] = None if math.isnan(v) else v
            return out

        payload = [clean(r) for r in records]
        if config is not None:
            payload = {"config": config, "records": payload}
        text = json.dumps(payload, indent=1) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")

    if dest is None:
        return text
    if hasattr(dest, "write"):
        dest.write(text)
        return None
    with open(dest, "w", newline="") as fh:
        fh.write(text)
    return None


# ---------------------------------------------------------------------------
# figure presets
#
# Each preset reproduces the parameter grid behind one published-style
# figure: 400 points per swept axis unless the caption fixes a density,
# several stacked sub-grids where a figure overlays curves for a family
# of Z, F, or zeta values.

_POINTS = 400


def _f_axis(system, lo=None, hi=None, count=_POINTS) -> AxisSpec:
    f_a = system.f_atomic
    return AxisSpec("F", lo if lo is not None else f_a / count,
                    hi if hi is not None else f_a, count)


def _fig2() -> list[ScanGrid]:
    sys18 = make_system(18.0)
    return [ScanGrid(fixed={"Z": 18.0}, axes=(_f_axis(sys18),))]


def _fig3a() -> list[ScanGrid]:
    return [ScanGrid(fixed={"F": 1.0}, axes=(AxisSpec("Z", 3.0, 40.0, _POINTS),))]


def _fig3b() -> list[ScanGrid]:
    # width band straddles the c/8 threshold charge
    grids = []
    for z in (5.0, 10.0, c_au / 8.0, 25.0, 40.0):
        grids.append(ScanGrid(fixed={"Z": z}, axes=(_f_axis(make_system(z)),)))
    return grids


def _fig4() -> list[ScanGrid]:
    grids = []
    for z in (15.0, 30.0, 35.0, 40.0, 50.0):
        grids.append(ScanGrid(fixed={"Z": z}, axes=(_f_axis(make_system(z)),)))
    return grids


def _fig5a() -> list[ScanGrid]:
    sys1 = make_system(1.0)
    return [ScanGrid(fixed={"Z": 1.0, "zeta": 0.5},
                     axes=(_f_axis(sys1, lo=0.01),))]


def _fig5b() -> list[ScanGrid]:
    grids = []
    for z in (35.0, 50.0):
        grids.append(ScanGrid(fixed={"Z": z, "F": 1.0},
                              axes=(AxisSpec("zeta", 0.0, 1.0, _POINTS),)))
    return grids


def _fig6_zeta_curves(z: float) -> list[ScanGrid]:
    system = make_system(z, relativistic=True)
    crit = sl.critical_fields(system)
    fields = sorted({system.f_atomic / 100.0, crit.f_crit, crit.f_zeta1,
                     system.f_atomic} - {None})
    return [ScanGrid(fixed={"Z": z, "F": f},
                     axes=(AxisSpec("zeta", 0.0, 1.0, _POINTS),),
                     relativistic=True)
            for f in fields]


def _fig6_field_curves(z: float) -> list[ScanGrid]:
    system = make_system(z)
    small_f = sl.zeta_qs(system, mode="smallF")
    zetas = sorted({0.2, 0.6, small_f.zeta if small_f else 0.9, 1.0})
    f_a = system.f_atomic
    # runs past F_a on purpose: over-barrier rows stay, flagged
    return [ScanGrid(fixed={"Z": z, "zeta": zeta},
                     axes=(AxisSpec("F", f_a / _POINTS, 1.2 * f_a, _POINTS),))
            for zeta in zetas]


def _fig7() -> list[ScanGrid]:
    grids = []
    for z in (35.0, 50.0, 100.0):
        system = make_system(z)
        root = sl.zeta_qs(system, mode="smallF")
        zeta = root.zeta + 0.005
        grids.append(ScanGrid(fixed={"Z": z, "zeta": zeta},
                              axes=(AxisSpec("F", 1.0, 40.0, _POINTS),)))
    return grids


_PRESETS = {
    "fig2a": _fig2,
    "fig2b": _fig2,
    "fig3a": _fig3a,
    "fig3b": _fig3b,
    "fig4": _fig4,
    "fig5a": _fig5a,
    "fig5b": _fig5b,
    "fig6a": lambda: _fig6_zeta_curves(35.0),
    "fig6b": lambda: _fig6_field_curves(35.0),
    "fig6c": lambda: _fig6_zeta_curves(50.0),
    "fig6d": lambda: _fig6_field_curves(50.0),
    "fig7": _fig7,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_grids(name: str) -> list[ScanGrid]:
    """Grids of a named preset; raises KeyError listing the known names."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}") from None
    return builder()


def run_preset(name: str) -> list[dict]:
    records = []
    for grid in preset_grids(name):
        records.extend(run_scan(grid))
    return records

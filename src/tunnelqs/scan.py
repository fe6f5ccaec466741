"""Parameter sweeps over (Z, F, zeta) grids.

A grid is evaluated as columns: the closed forms of ``atomic`` and
``superluminal`` take numpy arrays, so each runs once per grid.  One
evaluator, :func:`tabulate`, serves both ``run_scan`` and the CLI's
``delays`` (a one-row table).  The table is a numpy structured array
with one field per ``COLUMNS`` entry (float64; int64 for the 0/1 flags)
and one row per grid point in grid order; :func:`emit_table` writes it,
or any other table of numeric fields, as CSV or JSON.  Quantities that do not
apply at a point (no zeta given, or F beyond the barrier-suppression
threshold) are NaN, and out-of-domain points are kept and flagged
instead of being dropped.  Identical grids give byte-identical tables.
The writer works a block of rows at a time (see :func:`emit_table`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import superluminal as sl
from .atomic import AtomicSystem, barrier_geometry, delay_set, make_system
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
    "tabulate",
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

TABLE_DTYPE = np.dtype([(c, np.int64 if c in FLAG_COLUMNS else np.float64)
                        for c in COLUMNS])


@dataclass(frozen=True)
class AxisSpec:
    """One swept axis: ``count`` points from start to stop inclusive."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if self.count < 2:
            raise ValueError(f"axis {self.name}: count must be >= 2, got {self.count}")
        if not self.start < self.stop:
            raise ValueError(
                f"axis {self.name}: start must be < stop, got [{self.start}, {self.stop}]")

    def points(self) -> np.ndarray:
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

    def columns(self) -> dict[str, np.ndarray]:
        """{name: values at every grid point} for Z, F and, when given,
        zeta, in row-major point order."""
        mesh = np.meshgrid(*(ax.points() for ax in self.axes), indexing="ij")
        n = mesh[0].size if mesh else 1
        cols = {name: np.full(n, value, dtype=float) for name, value in self.fixed.items()}
        cols.update((ax.name, m.ravel()) for ax, m in zip(self.axes, mesh))
        return cols


def tabulate(system: AtomicSystem, f, zeta=None) -> np.ndarray:
    """Evaluate one row per entry of ``f`` (with ``system`` and ``zeta``
    scalars or arrays of the same length) into a table: a structured
    array with the fields ``COLUMNS``.  ``run_scan`` and the ``delays``
    command both read their numbers from it."""
    f = np.atleast_1d(f)
    values = {
        "Z": system.Z, "Zeff": system.Zeff, "relativistic": int(system.relativistic),
        "F": f, "zeta": NAN if zeta is None else zeta,
        "Ip": system.Ip, "F_a": system.f_atomic, "F_c": system.f_crit,
        "q_db": sl.q_db(system), "q_ad": sl.q_ad(system),
    }
    # thick-barrier quantities survive beyond F_a
    if zeta is not None:
        values["q_imed_a"] = sl.q_imed_a(system, zeta)
        values["q_imed_b_thick"] = sl.q_imed_b(system, f, zeta, thick=True)
        values["d_imed_thick"] = sl.d_imed_thick(system, f, zeta)
    values["zeta_qs_thick"] = sl.zeta_qs_roots(system, f, "thick")[0]

    # the barrier quantities are evaluated at min(F, F_a) and then blanked
    # on the over-barrier rows
    suppressed = f > system.f_atomic
    f_b = np.minimum(f, system.f_atomic)
    geom = barrier_geometry(system, f_b)
    barrier = {**vars(geom), **vars(delay_set(system, f_b)),
               "tau_c_db": geom.d_b / c_au, "tau_c_nad": geom.x_top / c_au,
               "q_nad": sl.q_nad(system, f_b),
               "zeta_qs_exact": sl.zeta_qs_roots(system, f_b, "exact")[0]}
    del barrier["f"]
    if zeta is not None:
        imed = sl.intermediate(system, f_b, zeta)
        barrier.update(tau_imed=imed.tau_imed, d_imed=imed.d_imed,
                       tau_c_imed=imed.d_imed / c_au,
                       q_imed_b=sl.q_imed_b(system, f_b, zeta))
    for name in [n for n in barrier if n + "_as" in COLUMNS]:
        barrier[name + "_as"] = barrier[name] * au_time_as
    values.update((name, np.where(suppressed, NAN, v)) for name, v in barrier.items())
    values["barrier_suppressed"] = suppressed
    values["band_inverted"] = ~suppressed & (geom.d_b < geom.x_top)

    table = np.empty(len(f), dtype=TABLE_DTYPE)
    for name in COLUMNS:
        table[name] = values.get(name, NAN)
    return table


def run_scan(grid: ScanGrid) -> np.ndarray:
    """Evaluate a grid into a table (see :func:`tabulate`) with one row
    per grid point, in grid order."""
    cols = grid.columns()
    return tabulate(make_system(cols["Z"], relativistic=grid.relativistic),
                    cols["F"], cols.get("zeta"))


# rows formatted at a time: bounds the writer's memory, keeps its calls per row few
_BLOCK_ROWS = 4096

# the reprs that JSON spells differently: bools and non-finite floats
_JSON_SPELLING = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity",
                  "True": "true", "False": "false"}


def emit_table(table, fmt: str = "csv", dest=None, header_comments=(), config=None):
    """Serialize a table, a numpy structured array of scalar bool, int,
    uint or float fields of at most 8 bytes (the scan table of
    :func:`tabulate` among them), to CSV or JSON, one column per field;
    any other field raises ValueError naming it before ``dest`` is opened.

    CSV: optional ``# key=value`` comment lines, one header row naming
    every column, comma separated, ``.`` decimal point, LF endings,
    full round-trip double precision (shortest repr).  JSON: an array of
    flat objects, one per row (NaN encoded as null, infinities as
    Infinity), in the layout of ``json.dumps(..., indent=1)``; with
    ``config`` given, a wrapper object {"config": ..., "records": [...]}
    so the file carries its own provenance.

    The writer streams blocks of ``_BLOCK_ROWS`` rows.  In a block, the
    fields of one dtype are formatted together, each distinct bit pattern
    once (-0.0 apart from 0.0), and joined with the text between them.
    The bytes are those of ``",".join(map(repr, row))`` per CSV
    row and of ``json.dumps`` of a list of row dicts.  The blocks are
    written to path ``dest``, or joined and returned when it is None.
    """
    names = table.dtype.names
    refused = [c for c in names
               if table.dtype[c].kind not in "biuf" or table.dtype[c].itemsize > 8]
    if refused:
        raise ValueError("emit_table writes scalar bool, int, uint or float fields of at most "
                         f"8 bytes; refused: {', '.join(map(repr, refused))}")
    if not names:
        raise ValueError("emit_table writes tables of at least one field")
    if fmt == "csv":
        head = "".join(f"# {c}\n" for c in header_comments) + ",".join(names) + "\n"
        leads, sep, tail = [""] + [","] * (len(names) - 1) + ["\n"], "", ""
    elif fmt == "json":
        import json

        # the rows go where json.dumps puts the empty list, one level
        # deeper inside the config wrapper
        empty = json.dumps([] if config is None else {"config": config, "records": []},
                           indent=1)
        pad = " " if config is None else "  "
        at = empty.rindex("[]")
        head, tail, sep = empty[:at] + "[\n", f"\n{pad[1:]}]{empty[at + 2:]}\n", ",\n"
        if len(table) == 0:
            head, tail = empty + "\n", ""
        leads = [f"{sep}{pad} {json.dumps(c)}: " for c in names] + [f"\n{pad}}}"]
        leads[0] = f"{sep}{pad}{{\n{leads[0][len(sep):]}"
    else:
        raise ValueError(f"unknown format {fmt!r}")

    def pieces():
        yield head
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            rows = np.empty((len(block), 2 * len(names) + 1), dtype=object)
            rows[:, ::2] = leads  # the text before each cell, then the row's end
            for dtype in dict.fromkeys(table.dtype[c] for c in names):
                cols = [j for j, c in enumerate(names) if table.dtype[c] == dtype]
                bits = np.stack([block[names[j]].view(f"u{dtype.itemsize}") for j in cols], 1)
                bits, inverse = np.unique(bits, return_inverse=True)
                values = bits.view(dtype)
                texts = list(map(repr, values.tolist()))
                if fmt == "json":
                    for i in np.flatnonzero(~np.isfinite(values) | (dtype.kind == "b")).tolist():
                        texts[i] = _JSON_SPELLING[texts[i]]
                rows[:, 2 * np.array(cols) + 1] = np.array(texts, dtype=object)[inverse]
            # the table's first row follows the head, not a row separator
            rows[0, 0] = leads[0] if start else leads[0][len(sep):]
            yield "".join(rows.ravel().tolist())
        yield tail

    if dest is None:
        return "".join(pieces())
    with open(dest, "w", newline="") as fh:
        fh.writelines(pieces())
    return None


# ---------------------------------------------------------------------------
# figure presets
#
# Each preset reproduces the parameter grid behind one published-style
# figure: 400 points per swept axis unless the caption fixes a density,
# several stacked sub-grids where a figure overlays curves for a family
# of Z, F, or zeta values.

_POINTS = 400


def _f_axis(system) -> AxisSpec:
    return AxisSpec("F", system.f_atomic / _POINTS, system.f_atomic, _POINTS)


def _f_sweeps(zs: tuple[float, ...]) -> list[ScanGrid]:
    """One F sweep up to F_a per Z."""
    return [ScanGrid(fixed={"Z": z}, axes=(_f_axis(make_system(z)),)) for z in zs]


def _fig3a() -> list[ScanGrid]:
    return [ScanGrid(fixed={"F": 1.0}, axes=(AxisSpec("Z", 3.0, 40.0, _POINTS),))]


def _fig5a() -> list[ScanGrid]:
    f_a = make_system(1.0).f_atomic
    return [ScanGrid(fixed={"Z": 1.0, "zeta": 0.5}, axes=(AxisSpec("F", 0.01, f_a, _POINTS),))]


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
    "fig2a": lambda: _f_sweeps((18.0,)),
    "fig2b": lambda: _f_sweeps((18.0,)),
    "fig3a": _fig3a,
    # fig3b's width band straddles the c/8 threshold charge
    "fig3b": lambda: _f_sweeps((5.0, 10.0, c_au / 8.0, 25.0, 40.0)),
    "fig4": lambda: _f_sweeps((15.0, 30.0, 35.0, 40.0, 50.0)),
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


def run_preset(name: str) -> np.ndarray:
    """The tables of a preset's grids, stacked in grid order."""
    return np.concatenate([run_scan(grid) for grid in preset_grids(name)])

import json
import math
import tracemalloc
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelqs import (
    barrier_geometry,
    critical_fields,
    delay_set,
    intermediate,
    make_system,
    q_ad,
    q_db,
    q_imed_a,
    q_imed_b,
    q_nad,
    scan,
    zeta_qs,
)
from tunnelqs.constants import au_time_as, c_au
from tunnelqs.scan import (
    _BLOCK_ROWS,
    COLUMNS,
    FLAG_COLUMNS,
    PRESET_NAMES,
    AxisSpec,
    ScanGrid,
    emit_table,
    preset_grids,
    run_preset,
    run_scan,
)


class TestAxisSpec:
    def test_linear_points(self):
        ax = AxisSpec("F", 1.0, 5.0, 5)
        np.testing.assert_allclose(ax.points(), [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            AxisSpec("bogus", 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            AxisSpec("F", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            AxisSpec("F", 2.0, 1.0, 10)


class TestScanGrid:
    def test_single_point(self):
        grid = ScanGrid(fixed={"Z": 18.0, "F": 1.0})
        cols = grid.columns()
        assert {k: v.tolist() for k, v in cols.items()} == {"Z": [18.0], "F": [1.0]}

    def test_rightmost_axis_fastest(self):
        grid = ScanGrid(fixed={"zeta": 0.5},
                        axes=(AxisSpec("Z", 1.0, 2.0, 2),
                              AxisSpec("F", 0.01, 0.02, 2)))
        cols = grid.columns()
        assert list(zip(cols["Z"].tolist(), cols["F"].tolist())) == [
            (1.0, 0.01), (1.0, 0.02), (2.0, 0.01), (2.0, 0.02)]
        assert cols["zeta"].tolist() == [0.5] * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanGrid(fixed={"Z": 1.0})  # no F anywhere
        with pytest.raises(ValueError):
            ScanGrid(fixed={"F": 1.0})  # no Z anywhere
        with pytest.raises(ValueError):
            ScanGrid(fixed={"Z": 1.0, "F": 1.0},
                     axes=(AxisSpec("F", 0.1, 1.0, 4),))
        with pytest.raises(ValueError):
            ScanGrid(fixed={"Z": 1.0, "nope": 2.0, "F": 1.0})
        with pytest.raises(ValueError):
            ScanGrid(axes=(AxisSpec("F", 0.1, 1.0, 4),
                           AxisSpec("F", 0.1, 1.0, 4)),
                     fixed={"Z": 1.0})


class TestRunScan:
    def test_record_values(self):
        grid = ScanGrid(fixed={"Z": 18.0, "F": 1.0, "zeta": 0.5})
        (rec,) = run_scan(grid)
        s = make_system(18.0)
        assert rec["q_db"] == pytest.approx(q_db(s), rel=1e-15)
        assert rec["tau_db"] == pytest.approx(1.1234557302260635, rel=1e-13)
        assert rec["tau_db_as"] == pytest.approx(27.175094574567172, rel=1e-13)
        assert rec["barrier_suppressed"] == 0
        assert rec["relativistic"] == 0

    def test_all_columns_present(self):
        grid = ScanGrid(fixed={"Z": 5.0, "F": 0.3, "zeta": 0.2})
        table = run_scan(grid)
        assert len(table) == 1
        assert table.dtype.names == COLUMNS
        for name in COLUMNS:
            kind = np.int64 if name in FLAG_COLUMNS else np.float64
            assert table.dtype[name] == kind

    def test_no_zeta_leaves_imed_nan(self):
        grid = ScanGrid(fixed={"Z": 5.0, "F": 0.3})
        (rec,) = run_scan(grid)
        assert math.isnan(rec["tau_imed"])
        assert math.isnan(rec["q_imed_b"])
        # unconditioned quantities still fill in
        assert rec["q_db"] > 0.0

    def test_over_barrier_rows_degrade_gracefully(self):
        s = make_system(10.0)
        grid = ScanGrid(fixed={"Z": 10.0, "F": 1.2 * s.f_atomic, "zeta": 0.5})
        (rec,) = run_scan(grid)
        assert rec["barrier_suppressed"] == 1
        assert math.isnan(rec["delta_z"])
        assert math.isnan(rec["tau_db"])
        # thick-barrier columns stay defined past F_a
        assert rec["q_imed_b_thick"] > 0.0
        assert not math.isnan(rec["zeta_qs_thick"]) or True  # may be absent

    def test_band_inversion_flag(self):
        s = make_system(12.0)
        grid = ScanGrid(fixed={"Z": 12.0, "F": 0.9 * s.f_atomic, "zeta": 0.5})
        (rec,) = run_scan(grid)
        assert rec["band_inverted"] == 1


# columns that need a barrier, NaN on rows with F > F_a
BARRIER_COLUMNS = tuple(c for c in COLUMNS if c not in (
    "Z", "Zeff", "relativistic", "F", "zeta", "Ip", "F_a", "F_c", "q_db", "q_ad",
    "q_imed_a", "q_imed_b_thick", "d_imed_thick", "zeta_qs_thick",
    "barrier_suppressed", "band_inverted"))


def scalar_row(z, f, zeta, rel):
    """One scan row from scalar calls of the library, point by point."""
    s = make_system(z, relativistic=rel)
    row = dict.fromkeys(COLUMNS, math.nan)
    row.update(Z=z, Zeff=s.Zeff, relativistic=int(rel), F=f, Ip=s.Ip, F_a=s.f_atomic,
               F_c=critical_fields(s).f_crit, q_db=q_db(s), q_ad=q_ad(s),
               barrier_suppressed=int(f > s.f_atomic), band_inverted=0)
    root = zeta_qs(s, f, mode="thick")
    row["zeta_qs_thick"] = root.zeta if root else math.nan
    if zeta is not None:
        row.update(zeta=zeta, q_imed_a=q_imed_a(s, zeta),
                   q_imed_b_thick=q_imed_b(s, f, zeta, thick=True),
                   d_imed_thick=(1.0 - zeta) * math.sqrt(s.Zeff / f) + zeta * s.Ip / f)
    if f > s.f_atomic:
        return row
    geom, delays = barrier_geometry(s, f), delay_set(s, f)
    for name in ("delta_z", "x_entry", "x_exit", "x_top", "d_b", "d_c"):
        row[name] = getattr(geom, name)
    for name in ("tau_a", "tau_ti", "tau_ad", "tau_dion", "tau_db", "tau_backr"):
        row[name], row[name + "_as"] = getattr(delays, name), getattr(delays, name + "_as")
    row.update(tau_c_db=geom.d_b / c_au, tau_c_nad=geom.x_top / c_au, q_nad=q_nad(s, f),
               band_inverted=int(geom.d_b < geom.x_top))
    if zeta is not None:
        imed = intermediate(s, f, zeta)
        row.update(tau_imed=imed.tau_imed, d_imed=imed.d_imed,
                   tau_c_imed=imed.d_imed / c_au, q_imed_b=q_imed_b(s, f, zeta))
    for name in ("tau_c_db", "tau_c_nad", "tau_imed", "tau_c_imed"):
        row[name + "_as"] = row[name] * au_time_as
    root = zeta_qs(s, f, mode="exact")
    row["zeta_qs_exact"] = root.zeta if root else math.nan
    return row


class TestColumnsMatchScalarLibrary:
    @settings(max_examples=60, deadline=None)
    @given(z0=st.floats(1.0, 100.0), z_step=st.floats(0.0, 0.3),
           f_lo=st.floats(1e-4, 1.0), f_hi=st.floats(0.01, 1.3),
           nz=st.integers(2, 4), nf=st.integers(2, 6),
           zeta=st.one_of(st.none(), st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           rel=st.booleans())
    def test_rows_bit_for_bit(self, z0, z_step, f_lo, f_hi, nz, nf, zeta, rel):
        # F runs up to 1.3 F_a of the lightest ion on the Z axis
        z1 = z0 * (1.0 + z_step) + 1e-3
        f_a = make_system(z0, relativistic=rel).f_atomic
        f0, f1 = sorted((f_lo * f_a, f_hi * f_a))
        fixed = {} if zeta is None else {"zeta": zeta}
        grid = ScanGrid(fixed=fixed, relativistic=rel,
                        axes=(AxisSpec("Z", z0, z1, nz),
                              AxisSpec("F", f0, f1 * (1.0 + 1e-9), nf)))
        table = run_scan(grid)
        assert len(table) == nz * nf
        for rec in table:
            expect = scalar_row(float(rec["Z"]), float(rec["F"]), zeta, rel)
            got = {c: repr(rec[c].item()) for c in COLUMNS}
            assert got == {c: repr(v) for c, v in expect.items()}
            if rec["barrier_suppressed"]:
                assert all(math.isnan(rec[c]) for c in BARRIER_COLUMNS)

    def test_relativistic_ip_of_a_z_column(self):
        # (Z/c)^2 by Python's pow differs from the product in the last bit
        # for this Z, and the difference reaches Ip
        z = 99.41704080530177
        table = run_scan(ScanGrid(fixed={"Z": z, "F": 1.0}, relativistic=True))
        assert table["Ip"][0] == make_system(z, relativistic=True).Ip


class TestEmitTable:
    @pytest.fixture()
    def records(self):
        grid = ScanGrid(fixed={"zeta": 0.5},
                        axes=(AxisSpec("Z", 10.0, 40.0, 3),
                              AxisSpec("F", 1.0, 10.0, 3)))
        return run_scan(grid)

    def test_csv_layout(self, records):
        text = emit_table(records, fmt="csv", header_comments=("run=demo",))
        lines = text.split("\n")
        assert lines[0] == "# run=demo"
        assert lines[1] == ",".join(COLUMNS)
        assert len(lines) == 2 + len(records) + 1  # trailing newline
        assert lines[-1] == ""
        assert "\r" not in text

    def test_csv_round_trip_precision(self, records):
        text = emit_table(records, fmt="csv")
        header, first = text.split("\n")[:2]
        cols = header.split(",")
        cells = first.split(",")
        rec = records[0]
        for name, cell in zip(cols, cells):
            if name in FLAG_COLUMNS:
                assert cell in ("0", "1")
            elif not math.isnan(rec[name]):
                # shortest-repr cells parse back to the exact double
                assert float(cell) == rec[name]

    def test_csv_to_path(self, records, tmp_path):
        dest = tmp_path / "scan.csv"
        assert emit_table(records, fmt="csv", dest=dest) is None
        assert dest.read_text().startswith(",".join(COLUMNS[:3]))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dest_gets_the_returned_text(self, records, fmt, tmp_path):
        kwargs = dict(fmt=fmt, header_comments=("run=demo",), config={"run": "demo"})
        text = emit_table(records, **kwargs)
        dest = tmp_path / "scan.out"
        assert emit_table(records, dest=dest, **kwargs) is None
        assert dest.read_bytes() == text.encode()

    def test_any_structured_array(self):
        table = np.rec.fromarrays([np.array([0.0, 0.5]), np.array([1e-300, 2.0])],
                                  names="phi,P")
        assert emit_table(table, header_comments=("n=2",)) == (
            "# n=2\nphi,P\n0.0,1e-300\n0.5,2.0\n")
        assert json.loads(emit_table(table, fmt="json")) == [
            {"phi": 0.0, "P": 1e-300}, {"phi": 0.5, "P": 2.0}]

    def test_json_wrapper(self, records):
        text = emit_table(records, fmt="json",
                          config={"preset": "demo"})
        payload = json.loads(text)
        assert payload["config"]["preset"] == "demo"
        assert len(payload["records"]) == len(records)

    def test_json_nan_null(self):
        grid = ScanGrid(fixed={"Z": 5.0, "F": 0.3})  # no zeta -> NaN columns
        payload = json.loads(emit_table(run_scan(grid), fmt="json"))
        assert payload[0]["tau_imed"] is None

    def test_unknown_format(self, records):
        with pytest.raises(ValueError):
            emit_table(records, fmt="parquet")

    def test_deterministic_bytes(self, records):
        a = emit_table(records, fmt="csv")
        b = emit_table(run_scan(ScanGrid(fixed={"zeta": 0.5},
                                         axes=(AxisSpec("Z", 10.0, 40.0, 3),
                                               AxisSpec("F", 1.0, 10.0, 3)))),
                       fmt="csv")
        assert a == b


def old_emit_table(table, fmt, header_comments=(), config=None):
    """The per-row formulation emit_table replaced: the oracle for its bytes."""
    names = table.dtype.names
    if fmt == "csv":
        cells = [map(repr, table[c].tolist()) for c in names]
        lines = chain((f"# {c}" for c in header_comments), [",".join(names)],
                      map(",".join, zip(*cells)))
        return "".join(f"{line}\n" for line in lines)
    cells = [[None if v != v else v for v in table[c].tolist()] for c in names]
    payload = [dict(zip(names, row)) for row in zip(*cells)]
    if config is not None:
        payload = {"config": config, "records": payload}
    return json.dumps(payload, indent=1) + "\n"


SPECIAL_FLOATS = [
    math.nan, -math.nan, np.uint64(0x7FF8000000000001).view(np.float64),
    math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e-4,
    0.1, 123456789012345680.0, 1.7976931348623157e308,
]

# a pool of a few distinct values per column, drawn into rows; every
# float pool holds all the special values
COLUMN_POOLS = {
    "f8": st.lists(st.floats(), max_size=4).map(SPECIAL_FLOATS.__add__),
    "f4": st.lists(st.floats(width=32), max_size=4).map(SPECIAL_FLOATS[:7].__add__),
    ">f8": st.lists(st.floats(), max_size=4).map(SPECIAL_FLOATS.__add__),
    "i8": st.lists(st.sampled_from([0, 1]) | st.integers(-2 ** 63, 2 ** 63 - 1),
                   min_size=1, max_size=4),
    "i4": st.lists(st.integers(-2 ** 31, 2 ** 31 - 1), min_size=1, max_size=4),
    "u8": st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4),
    "?": st.lists(st.booleans(), min_size=1, max_size=2),
}

FIELD_NAMES = st.lists(st.text(alphabet='ab"%, \u00e9\u4e2d', min_size=1, max_size=4),
                       min_size=1, max_size=5, unique=True)

JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
CONFIGS = st.none() | st.dictionaries(
    st.text(max_size=4),
    st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6),
    max_size=3)


@st.composite
def tables(draw, block):
    names = draw(FIELD_NAMES)
    kinds = [draw(st.sampled_from(sorted(COLUMN_POOLS))) for _ in names]
    n_rows = draw(st.sampled_from([0, 1, block, block + 1, 2 * block + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    table = np.empty(n_rows, dtype=list(zip(names, kinds)))
    for name, kind in zip(names, kinds):
        pool = np.array(draw(COLUMN_POOLS[kind]), dtype=kind)
        # rows as many as the pool or more hold each of its values
        table[name] = pool[rng.permutation(np.resize(np.arange(len(pool)), n_rows))]
    return table


class TestEmitTableOracle:
    """emit_table writes the bytes of the per-row formulation it replaced."""

    @given(data=st.data(), block=st.integers(1, 4),
           header_comments=st.lists(st.text(max_size=6), max_size=3), config=CONFIGS)
    @settings(max_examples=100, deadline=None)
    def test_same_bytes_as_per_row_formulation(self, data, block, header_comments, config):
        # a small block size puts the block boundaries within a few rows
        table = data.draw(tables(block))
        with mock.patch.object(scan, "_BLOCK_ROWS", block):
            for fmt in ("csv", "json"):
                for cfg in (None, config):
                    assert emit_table(table, fmt, header_comments=header_comments,
                                      config=cfg) \
                        == old_emit_table(table, fmt, header_comments, cfg)

    def test_empty_tables(self):
        table = np.empty(0, dtype=[("a", "f8"), ("b", "i8")])
        assert emit_table(table, "csv", header_comments=("x=1",)) == "# x=1\na,b\n"
        assert emit_table(table, "json") == "[]\n"
        assert emit_table(table, "json", config={"x": []}) == (
            '{\n "config": {\n  "x": []\n },\n "records": []\n}\n')

    @pytest.mark.parametrize("n_rows", [_BLOCK_ROWS, _BLOCK_ROWS + 1])
    @pytest.mark.parametrize("config", [None, {"preset": "demo", "list": [1, []]}])
    def test_block_boundary(self, n_rows, config, tmp_path):
        # exactly one block and one block plus a row, with a float, an int
        # and a bool column
        table = np.zeros(n_rows, dtype=[("x", "f8"), ("flag", "i8"), ("ok", "?")])
        specials = np.array(SPECIAL_FLOATS)
        table["x"] = np.resize(np.concatenate([specials, np.arange(20) / 3.0]), n_rows)
        table["flag"][1::3] = 1
        table["ok"][::2] = True
        for fmt in ("csv", "json"):
            text = emit_table(table, fmt, header_comments=("n=1",), config=config)
            assert text == old_emit_table(table, fmt, ("n=1",), config)
            dest = tmp_path / f"table.{fmt}"
            emit_table(table, fmt, dest=dest, header_comments=("n=1",), config=config)
            assert dest.read_bytes() == text.encode()

    @pytest.mark.parametrize("kind, value", [
        ("U4", "a,b"), (("f8", (2,)), [0.0, 1.0]), ("c16", 1j),
        ("M8[D]", "2020-01-01"), (np.longdouble, 0.1), (object, 0.1)])
    def test_refuses_other_fields(self, kind, value, tmp_path):
        # a field without one numeric text per cell is named and refused
        # before any text is returned or any file is created
        table = np.zeros(2, dtype=[("x", "f8"), ("bad", kind)])
        table["bad"] = [value, value]
        for fmt in ("csv", "json"):
            dest = tmp_path / f"table.{fmt}"
            with pytest.raises(ValueError, match="refused: 'bad'$"):
                emit_table(table, fmt, dest=dest)
            assert not dest.exists()
            with pytest.raises(ValueError, match="refused: 'bad'$"):
                emit_table(table, fmt)

    def test_blocks_bound_the_writer_memory(self, tmp_path):
        # 144,000 rows as in tdse_momentum.csv: written block by block,
        # the transient memory does not grow with the table
        p, phi = np.linspace(0.01, 2.0, 200), np.linspace(0.0, 6.28, 720)
        table = np.rec.fromarrays([np.repeat(p, 720), np.tile(phi, 200),
                                   np.linspace(0.0, 1.0, 144000) ** 3],
                                  names="p,phi,density")
        tracemalloc.start()
        try:
            emit_table(table, dest=tmp_path / "momentum.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6   # the whole-table formulation peaked at 13.9 MB

    def test_blocks_bound_the_json_writer_memory(self, tmp_path):
        # a scan-shaped table of three blocks, every float cell distinct:
        # JSON's transient memory is about one block's texts and text
        n = 2 * _BLOCK_ROWS + 1
        rng = np.random.default_rng(0)
        table = np.empty(n, dtype=scan.TABLE_DTYPE)
        for c in COLUMNS:
            table[c] = rng.integers(0, 2, n) if c in FLAG_COLUMNS else rng.standard_normal(n)
        tracemalloc.start()
        try:
            emit_table(table, "json", dest=tmp_path / "scan.json", config={"preset": "demo"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 28.2 MB measured for the 13 MB file; a grid kept across blocks
        # held the last block's texts too and peaked at 36.9 MB
        assert peak < 32e6

    @pytest.mark.parametrize("block", [1, 2])
    def test_equal_bits_of_other_dtypes_stay_apart(self, block):
        # the fields of one dtype share their formatted texts; equal bit
        # patterns under another dtype or byte order are other values
        one, payload = 4607182418800017408, 0x7FF8000000000001  # 1.0, a NaN
        swapped_one = np.array(1.0, ">f8").view("<f8").item()
        table = np.zeros(4, dtype=[("n", "i8"), ("x", "f8"), ("big", ">f8"),
                                   ("y", "<f8"), ("ok", "?"), ("u", "u1")])
        table["n"] = [0, one, payload, -1]
        table["x"] = [0.0, 1.0, np.uint64(payload).view(np.float64), -0.0]
        table["big"] = [1.0, 1.0, -0.0, 2.5]
        table["y"] = [1.0, swapped_one, 0.0, 2.5]
        table["ok"] = [True, False, True, False]
        table["u"] = [1, 0, 1, 255]
        with mock.patch.object(scan, "_BLOCK_ROWS", block):
            for fmt in ("csv", "json"):
                for cfg in (None, {"block": block}):
                    assert emit_table(table, fmt, config=cfg) == old_emit_table(
                        table, fmt, config=cfg)

    def test_refuses_a_table_without_fields(self):
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError, match="at least one field"):
                emit_table(np.zeros(2, dtype=[]), fmt)


class TestPresets:
    def test_names(self):
        assert len(PRESET_NAMES) == 12
        assert PRESET_NAMES == tuple(sorted(PRESET_NAMES))
        for name in ("fig2a", "fig2b", "fig4", "fig7"):
            assert name in PRESET_NAMES

    def test_unknown_preset_lists_names(self):
        with pytest.raises(KeyError) as exc:
            preset_grids("fig99")
        assert "fig4" in str(exc.value)

    def test_fig2_is_argon(self):
        recs = run_preset("fig2a")
        assert len(recs) == 400
        assert {r["Z"] for r in recs} == {18.0}

    def test_fig4_z_family(self):
        recs = run_preset("fig4")
        assert {r["Z"] for r in recs} == {15.0, 30.0, 35.0, 40.0, 50.0}

    def test_fig4_superluminal_zones(self):
        recs = run_preset("fig4")
        dips = {z: False for z in (15.0, 30.0, 35.0, 40.0, 50.0)}
        for r in recs:
            if r["q_nad"] < 1.0:
                dips[r["Z"]] = True
        assert dips == {15.0: False, 30.0: False,
                        35.0: True, 40.0: True, 50.0: True}

    def test_fig2b_db_always_subluminal(self):
        # strict inequality below F_a; both times vanish at the endpoint
        for r in run_preset("fig2b"):
            if r["tau_c_db"] == 0.0:
                assert r["tau_db"] == 0.0
            else:
                assert r["tau_db"] < r["tau_c_db"]

    def test_fig7_intermediate_band(self):
        recs = run_preset("fig7")
        assert len(recs) == 1200
        assert {r["Z"] for r in recs} == {35.0, 50.0, 100.0}
        for r in recs:
            assert r["tau_imed"] < r["tau_c_imed"]
        # each family sits just above its asymptotic root
        for z in (35.0, 50.0, 100.0):
            small = zeta_qs(make_system(z), mode="smallF").zeta
            zetas = sorted({r["zeta"] for r in recs if r["Z"] == z})
            assert len(zetas) == 1
            assert zetas[0] == pytest.approx(small + 0.005, rel=1e-12)

    def test_fig6_field_curves_cross_barrier(self):
        recs = run_preset("fig6b")
        assert any(r["barrier_suppressed"] == 1 for r in recs)
        assert any(r["barrier_suppressed"] == 0 for r in recs)

    def test_preset_rerun_identical(self):
        a = emit_table(run_preset("fig3a"), fmt="csv")
        b = emit_table(run_preset("fig3a"), fmt="csv")
        assert a == b

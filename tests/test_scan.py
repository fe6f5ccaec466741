import json
import math

import numpy as np
import pytest

from tunnelqs import make_system, q_db, zeta_qs
from tunnelqs.scan import (
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

    def test_log_points(self):
        ax = AxisSpec("F", 1.0, 100.0, 3, spacing="log")
        np.testing.assert_allclose(ax.points(), [1.0, 10.0, 100.0], rtol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            AxisSpec("bogus", 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            AxisSpec("F", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            AxisSpec("F", 2.0, 1.0, 10)
        with pytest.raises(ValueError):
            AxisSpec("F", 0.0, 1.0, 10, spacing="log")
        with pytest.raises(ValueError):
            AxisSpec("F", 0.0, 1.0, 10, spacing="cubic")


class TestScanGrid:
    def test_single_point(self):
        grid = ScanGrid(fixed={"Z": 18.0, "F": 1.0})
        pts = list(grid.points())
        assert pts == [{"Z": 18.0, "F": 1.0}]

    def test_rightmost_axis_fastest(self):
        grid = ScanGrid(fixed={"zeta": 0.5},
                        axes=(AxisSpec("Z", 1.0, 2.0, 2),
                              AxisSpec("F", 0.01, 0.02, 2)))
        pts = list(grid.points())
        assert [(p["Z"], p["F"]) for p in pts] == [
            (1.0, 0.01), (1.0, 0.02), (2.0, 0.01), (2.0, 0.02)]

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
        (rec,) = run_scan(grid)
        assert set(rec) >= set(COLUMNS)

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

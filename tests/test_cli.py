import argparse
import json
import subprocess
import sys

import pytest

from tunnelqs.cli import (
    CRIT_SPEC,
    DELAYS_SPEC,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_NUMERICAL,
    EXIT_OK,
    SCAN_SPEC,
    TDSE_SPEC,
    ZETA_SPEC,
    build_parser,
    main,
    read_config_file,
)

# solver knobs beyond F0/omega travel through config files by design
MINI_TDSE_CFG = ("Z = 1\nF0 = 0.15\nomega = 1.2\nl_max = 4\nr_max = 30\n"
                 "n_p = 120\np_max = 1.8\nn_phi = 180\n")


def write_cfg(tmp_path, text, name="run.cfg"):
    cfg = tmp_path / name
    cfg.write_text(text)
    return str(cfg)


class TestDelays:
    def test_argon_text(self, capsys):
        assert main(["delays", "--Z", "18", "--F", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "27.1751" in out
        assert "0.951639" in out
        assert "superluminal channels: db" in out

    def test_argon_json(self, capsys):
        assert main(["delays", "--Z", "18", "--F", "1",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["Z"] == "18.0"
        assert payload["delays_as"]["tau_db"] == pytest.approx(
            27.175094574567172, rel=1e-12)
        assert payload["quotients"]["q_db"] == pytest.approx(
            0.9516388825277777, rel=1e-12)

    def test_suppression_point(self, capsys):
        assert main(["delays", "--Z", "1", "--F", "0.0625"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "24.1888" in out  # tau_ad = one atomic time in as

    def test_photon_block(self, capsys):
        assert main(["delays", "--Z", "18", "--F", "1",
                     "--omega", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n = 54" in out
        assert "tau_nph" in out

    def test_over_barrier_domain_error(self, capsys):
        rc = main(["delays", "--Z", "50", "--rel", "--F", "9000"])
        assert rc == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "8380.28" in err
        assert "domain error" in err

    def test_non_finite_json_is_null(self, capsys):
        # zeta = 1 at F = F_a: d_imed = 0, so Q_imed is infinite; the JSON
        # format used to exit 3 on it while the text format printed inf
        argv = ["delays", "--Z", "35", "--F", "2679.6875", "--zeta", "1"]
        assert main(argv) == EXIT_OK
        assert "Q_imed(zeta=1) = inf" in capsys.readouterr().out
        assert main([*argv, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["quotients"]["q_imed_b"] is None
        assert payload["quotients"]["q_db"] > 0.0

    def test_intensity_note(self, capsys):
        main(["delays", "--Z", "18", "--F", "1"])
        assert "3.509e+16 W/cm^2" in capsys.readouterr().out


class TestZetaQs:
    def test_small_f_values(self, capsys):
        assert main(["zeta-qs", "--Z", "50"]) == EXIT_OK
        assert "0.5211207565" in capsys.readouterr().out
        assert main(["zeta-qs", "--Z", "35"]) == EXIT_OK
        assert "0.9585350033" in capsys.readouterr().out

    def test_no_root_subluminal(self, capsys):
        assert main(["zeta-qs", "--Z", "10"]) == EXIT_OK
        assert "no root: subluminal for all zeta" in capsys.readouterr().out

    def test_no_root_superluminal(self, capsys):
        # inside the window but below the zeta = 1 crossing: the whole
        # band is already superluminal
        assert main(["zeta-qs", "--Z", "50", "--F", "4500"]) == EXIT_OK
        assert "superluminal for all zeta" in capsys.readouterr().out

    def test_exact_json(self, capsys):
        assert main(["zeta-qs", "--Z", "50", "--F", "6000",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "exact"
        assert payload["zeta_qs"] == pytest.approx(0.7865551578322504,
                                                   rel=1e-10)
        assert payload["residual"] <= 1e-9
        assert payload["window_nonempty"] is True

    def test_thick_mode(self, capsys):
        assert main(["zeta-qs", "--Z", "50", "--F", "1",
                     "--thick", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "thick"
        assert payload["zeta_qs"] == pytest.approx(0.51696, rel=1e-3)

    def test_residual_failure_is_numerical(self, monkeypatch, capsys):
        # a closed-form root that misses Q = 1 is reported, not returned
        monkeypatch.setattr("tunnelqs.superluminal.q_imed_b",
                            lambda *args, **kwargs: 1.5)
        assert main(["zeta-qs", "--Z", "50", "--F", "6000"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "numerical failure" in captured.err
        assert "|Q - 1| = 5.000e-01" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_thick_needs_field(self, source, tmp_path, capsys):
        # the small-field root has no thick variant: --thick alone used to
        # print the smallF root and exit 0
        argv = (["zeta-qs", "--Z", "50", "--thick"] if source == "flag" else
                ["zeta-qs", "--config", write_cfg(tmp_path, "Z = 50\nthick = true\n")])
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "thick needs F" in captured.err
        assert captured.out == ""


class TestCriticalFields:
    def test_z50_relativistic(self, capsys):
        assert main(["critical-fields", "--Z", "50", "--rel",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["F_a"] == pytest.approx(8380.28433080928, rel=1e-10)
        assert payload["F_c"] == pytest.approx(3667.7470790918064, rel=1e-10)
        assert payload["F_zeta1"] == pytest.approx(6104.476973049491,
                                                   rel=1e-8)
        assert payload["window_nonempty"] is True

    def test_empty_window(self, capsys):
        assert main(["critical-fields", "--Z", "15",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["window_nonempty"] is False
        assert payload["F_zeta1"] is None


class TestScan:
    def test_preset_to_file(self, capsys, tmp_path):
        dest = tmp_path / "fig4.csv"
        assert main(["scan", "--preset", "fig4", "--out", str(dest)]) == EXIT_OK
        assert "wrote 2000 rows" in capsys.readouterr().out
        lines = dest.read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert len(data) == 2001  # header + rows
        assert data[0].startswith("Z,Zeff,relativistic,F,")

    def test_preset_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scan", "--preset", "fig2a", "--out", str(a)])
        main(["scan", "--preset", "fig2a", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_workers_rejected(self, tmp_path, capsys):
        # points are evaluated serially; there is no worker count to set
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--preset", "fig3b", "--workers", "4"])
        assert exc.value.code == EXIT_CONFIG
        capsys.readouterr()
        cfg = write_cfg(tmp_path, "preset = fig3b\nworkers = 4\n")
        assert main(["scan", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "unknown config keys: workers" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_preset_echoes_only_its_name(self, fmt, capsys):
        # fig6a is relativistic; its header used to read rel=false
        assert main(["scan", "--preset", "fig6a", "--format", fmt]) == EXIT_OK
        out = capsys.readouterr().out
        if fmt == "csv":
            head = out.splitlines()[:2]
            assert head[0] == "# preset=fig6a"
            assert head[1].startswith("Z,Zeff,relativistic,")
        else:
            assert json.loads(out)["config"] == {"preset": "fig6a"}

    def test_unknown_preset(self, capsys):
        assert main(["scan", "--preset", "fig99"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "fig99" in err
        for name in ("fig2a", "fig7"):
            assert name in err

    def test_single_point_stdout(self, capsys):
        assert main(["scan", "--Z", "1", "--F", "0.05"]) == EXIT_OK
        captured = capsys.readouterr()
        data = [ln for ln in captured.out.splitlines()
                if ln and not ln.startswith("#")]
        assert len(data) == 2  # header + one row
        assert "1 rows" in captured.err

    def test_single_point_needs_z_and_f(self, capsys):
        assert main(["scan", "--Z", "1"]) == EXIT_CONFIG

    def test_json_format(self, capsys):
        assert main(["scan", "--Z", "18", "--F", "1",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"][0]["tau_db"] == pytest.approx(
            1.1234557302260635, rel=1e-12)

    def test_zeff_is_not_a_scan_setting(self, tmp_path, capsys):
        # scan points are always bare H-like ions; --Zeff used to be parsed
        # and then fail with exit 3 inside ScanGrid
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--Z", "18", "--F", "1", "--Zeff", "5"])
        assert exc.value.code == EXIT_CONFIG
        capsys.readouterr()
        cfg = write_cfg(tmp_path, "Z = 18\nF = 1\nZeff = 5\n")
        assert main(["scan", "--config", cfg]) == EXIT_CONFIG
        assert "unknown config keys: Zeff" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--Z", "5"], ["--F", "3"],
                                       ["--zeta", "0.5"], ["--rel"],
                                       ["--Z", "5", "--F", "3", "--rel"]])
    def test_preset_rejects_point_settings(self, extra, capsys):
        # these used to be echoed in the provenance header of a table
        # they did not change
        assert main(["scan", "--preset", "fig2a", *extra]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "cannot be combined with" in captured.err
        assert extra[0].lstrip("-") in captured.err
        assert captured.out == ""

    def test_preset_rejects_point_settings_from_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "preset = fig2a\nF = 3\n")
        assert main(["scan", "--config", cfg]) == EXIT_CONFIG
        assert "cannot be combined with F" in capsys.readouterr().err

    def test_out_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TUNNELQS_OUT_DIR", str(tmp_path))
        assert main(["scan", "--preset", "fig2a", "--out", "sub/x.csv"]) == EXIT_OK
        assert (tmp_path / "sub" / "x.csv").exists()


class TestConfigFiles:
    def test_read_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nZ = 18\nF = 1.0\n\nomega=3\n")
        assert read_config_file(str(cfg)) == {"Z": "18", "F": "1.0",
                                              "omega": "3"}

    def test_bad_line_number_reported(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("Z = 18\nnot a pair\n")
        rc = main(["delays", "--config", str(cfg), "--F", "1"])
        assert rc == EXIT_CONFIG
        assert ":2:" in capsys.readouterr().err  # file:line prefix

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("Z = 10\n")
        assert main(["zeta-qs", "--config", str(cfg), "--Z", "50"]) == EXIT_OK
        assert "0.5211207565" in capsys.readouterr().out

    def test_file_alone_works(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("Z = 18\nF = 1\n")
        assert main(["delays", "--config", str(cfg)]) == EXIT_OK
        assert "27.1751" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("Z = 18\nF = 1\nbanana = 3\n")
        assert main(["delays", "--config", str(cfg)]) == EXIT_CONFIG
        assert "banana" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["delays", "--Z", "nan", "--F", "0.05"],
        ["tdse", "--Z", "nan", "--F", "0.5", "--omega", "0.8", "--dry-run"],
        ["scan", "--Z", "1", "--F", "nan"],
        ["critical-fields", "--Z", "inf"],
    ])
    def test_non_finite_flag_rejected(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err

    def test_non_finite_file_value_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "Z = 1\nF = -inf\n")
        assert main(["delays", "--config", cfg]) == EXIT_CONFIG
        assert "F must be finite" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["delays", "--config", "/nonexistent/x.cfg",
                     "--Z", "1", "--F", "0.05"]) == EXIT_CONFIG


class TestTdse:
    def test_dry_run_published_scale(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        "Z = 18\nF0 = 50\nomega = 3\nl_max = 100\nr_max = 400\n")
        rc = main(["tdse", "--config", cfg, "--dry-run"])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert "not desk scale" in captured.err
        assert "10201 channels" in captured.err
        assert "plan:" in captured.out
        assert "# l_max=100" in captured.out

    def test_channel_guard(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        "Z = 1\nF0 = 0.5\nomega = 0.8\nl_max = 200\n")
        rc = main(["tdse", "--config", cfg])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "40401" in err
        assert "16384" in err

    def test_mini_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI_TDSE_CFG)
        rc = main(["tdse", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "tdse_report.json").read_text())
        assert report["no_ionization"] is False
        assert report["norm_final"] == pytest.approx(1.0, abs=1e-6)
        assert report["max_defect"] <= 1e-10
        assert isinstance(report["theta"], float)
        assert report["tau_as"] == pytest.approx(
            report["tau_au"] * 24.188843265857, rel=1e-12)
        assert (tmp_path / "tdse_checkpoint.npz").exists()
        ang = (tmp_path / "tdse_angular.csv").read_text().splitlines()
        rows = [ln for ln in ang if ln and not ln.startswith("#") and
                not ln.startswith("phi,")]
        assert len(rows) == 180
        pol = (tmp_path / "tdse_momentum.csv").read_text().splitlines()
        prows = [ln for ln in pol if ln and not ln.startswith("#") and
                 not ln.startswith("p,")]
        assert len(prows) == 120 * 180
        # every cell is a plain float literal, not a numpy scalar repr
        for table, width in ((rows, 2), (prows, 3)):
            for row in table:
                cells = row.split(",")
                assert len(cells) == width
                for cell in cells:
                    float(cell)
        out = capsys.readouterr().out
        assert "offset angle theta" in out
        assert "ionized fraction" in out

    def test_zero_field_no_ionization(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "Z = 1\nomega = 1.2\nl_max = 1\nr_max = 20\n")
        rc = main(["tdse", "--config", cfg, "--F", "0",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert "no ionization" in capsys.readouterr().out
        report = json.loads((tmp_path / "tdse_report.json").read_text())
        assert report["no_ionization"] is True
        assert report["theta"] is None
        assert not (tmp_path / "tdse_angular.csv").exists()

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        "Z = 1\nF0 = 10\nomega = 1\nl_max = 1\n"
                        "dr = 0.5\nr_max = 10\ndt = 0.5\n")
        rc = main(["tdse", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        # the crash checkpoint still lands
        assert (tmp_path / "tdse_checkpoint.npz").exists()

    def test_failure_prints_checkpoint_path(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\nl_max = 1\n"
                                  "r_max = 10\ntol = 1e-30\n")
        rc = main(["tdse", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_NUMERICAL
        assert str(tmp_path / "tdse_checkpoint.npz") in capsys.readouterr().err

    def test_zero_tol_rejected_on_dry_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\ntol = 0\n")
        assert main(["tdse", "--config", cfg, "--dry-run"]) == EXIT_CONFIG
        assert "tol must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--F", "nan", "--omega", "0.8"],
                                       ["--F", "0.5", "--omega", "inf"]])
    def test_non_finite_input_is_config_error(self, flags, capsys):
        rc = main(["tdse", "--Z", "1", *flags, "--dry-run"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err
        assert "must be finite" in err

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_rel_rejected(self, source, tmp_path, capsys):
        # the TDSE uses only Zeff, so rel = true used to be echoed and ignored
        base = "Z = 1\nF0 = 0.5\nomega = 0.8\n"
        argv = (["tdse", "--config", write_cfg(tmp_path, base), "--rel"]
                if source == "flag" else
                ["tdse", "--config", write_cfg(tmp_path, base + "rel = true\n")])
        assert main([*argv, "--dry-run"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "uses only Zeff" in captured.err
        assert captured.out == ""

    def test_config_file_round_trip(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINI_TDSE_CFG)
        rc = main(["tdse", "--config", cfg, "--dry-run"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "# F0=0.15" in out
        assert "# rel=false" in out
        assert "81 channels" not in out  # l_max 4 -> 25 channels
        assert "25 channels" in out


SPECS = {"delays": DELAYS_SPEC, "scan": SCAN_SPEC, "zeta-qs": ZETA_SPEC,
         "critical-fields": CRIT_SPEC, "tdse": TDSE_SPEC}
NON_SETTING_FLAGS = {"--config", "--out", "--format", "--dry-run", "-h"}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_flag_is_a_setting(name):
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(SPECS)
    spec = SPECS[name]
    flagged = set()
    for action in subparsers.choices[name]._actions:
        if action.dest in spec:
            flagged.add(action.dest)
        else:
            assert action.option_strings[0] in NON_SETTING_FLAGS, action.option_strings
    # and every setting with a flag help has its flag
    assert flagged == {k for k, entry in spec.items() if entry[2] is not None}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tunnelqs.cli", "delays", "--Z", "18",
         "--F", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "27.1751" in proc.stdout


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "tunnelqs.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for cmd in ("delays", "scan", "zeta-qs", "critical-fields", "tdse"):
        assert cmd in proc.stdout

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings

import pytest

import tunnelqs
from tunnelqs import cli
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
    ConfigError,
    build_parser,
    main,
    read_config_file,
    resolve_settings,
)
from tunnelqs.tdse import PropagationError, PulseParams, PulseResult, TdseConfigError

# solver knobs beyond F0/omega travel through config files by design
MINI_TDSE_CFG = ("Z = 1\nF0 = 0.15\nomega = 1.2\nl_max = 4\nr_max = 30\n"
                 "n_p = 120\np_max = 1.8\nn_phi = 180\n")


# an ionizing run in well under a second; dr = 0.25 gives the plan a
# warning and l_max = 1 the run its own
SMALL_TDSE_CFG = ("Z = 1\nF0 = 0.5\nomega = 0.8\nl_max = 1\ndr = 0.25\nr_max = 10\n"
                  "dt = 0.05\nn_p = 20\nn_phi = 36\n")


# SHA-256 of `delays` stdout: the text and JSON bytes of these calls are frozen
DELAYS_DIGESTS = {
    ("--Z 1 --F 0.05", "text"):
        "a3693d891e90cb80c84d6cc70167004d79fe2d354a3bed1c30b77ab6abda3999",
    ("--Z 1 --F 0.05", "json"):
        "df3efd6d9a71303674cb8953a4b292fdfe05acff8fd1171a55a82fbe2d94660c",
    ("--Z 18 --F 1 --Zeff 5", "text"):
        "c4051a70cff096da48c2362fce30f0e484bb1b22c59dbd3989d491c68dcd8a58",
    ("--Z 18 --F 1 --Zeff 5", "json"):
        "338edf3347532236555ab61f686dcb50d6e8fcb5e772aa0c44cbc4870a7e23dc",
    ("--Z 18 --F 1 --omega 3", "text"):
        "972b5872da87bbed98e7340c4429a616f8e7b28e388883e097727d0b16f939c3",
    ("--Z 18 --F 1 --omega 3", "json"):
        "887a3f50c39702bb555c6438bf2e5ed39b84e6adab8447ea9ad54cfc17b82b4f",
    ("--Z 50 --F 100 --rel --zeta 0", "text"):
        "c9a41f73c1d039334a3c911b7185bfd142343213e9e29f7c1f9d79d557c3178c",
    ("--Z 50 --F 100 --rel --zeta 0", "json"):
        "b5e68d946c5f57931fc6c64fb6c798a9f7b1974d073c89a054fcc543645c1a9c",
    ("--Z 35 --F 300 --zeta 1 --omega 2.5", "text"):
        "b89e9f53536a4cce6559bdfb6bb0b1bca2c5b5567f82d5384177bf97bba07012",
    ("--Z 35 --F 300 --zeta 1 --omega 2.5", "json"):
        "175f9626e71d238263dfa8f10af0f6e907b63a677dfab209b81aada439928a0c",
    ("--Z 35 --F 2679.6875 --zeta 1", "text"):
        "f333c745486f9b048f52c4bf9e546b8f2121eb9cad970196f7c23502aaa33052",
    ("--Z 35 --F 2679.6875 --zeta 1", "json"):
        "0a5744dbec1b5bcd5bc9f85a46dac1f6825e7d7b8834ef3593dbccae9fa41191",
    ("--Z 92 --rel --F 5000 --omega 10 --zeta 0.3", "text"):
        "fcb12761b4d19581269b42b1face8ac3a5e4c290f6daf204af2068c8f4706819",
    ("--Z 92 --rel --F 5000 --omega 10 --zeta 0.3", "json"):
        "9e5502850379338d5b83cee4e9a560852931350e09dfb1ace64e7548b7f96998",
    ("--Z 60 --Zeff 40 --rel --F 1e-4 --zeta 1", "text"):
        "9d39e5d694911ffe103641616fdf1812881ad274469d5e9b30eb6fb63a8b0da2",
    ("--Z 60 --Zeff 40 --rel --F 1e-4 --zeta 1", "json"):
        "80da04fd19cf5b52c71095862e5ce185dbbf83de0676f2ed3f307946f1542c64",
    ("--Z 2 --F 1e-6 --omega 0.057 --zeta 0", "text"):
        "f4444dba1c480679ea05bd1bacb8cc77d37b9779d7f045c55411810fde301997",
    ("--Z 2 --F 1e-6 --omega 0.057 --zeta 0", "json"):
        "1b132ea295f5261a40c05ff0746ebb60990769d7eb6d133c2df0f20fd208d540",
    ("--Z 136 --rel --F 30000 --zeta 0.75", "text"):
        "f8f424249f1de003a1c0395924df7c5ae333a42b3b81495bad3dbd5a2fe44b9a",
    ("--Z 136 --rel --F 30000 --zeta 0.75", "json"):
        "4053f5aa19c897c1c4e0102aa5994411bb19868a6bb300f0e6303f2ab50443b1",
}


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

    @pytest.mark.parametrize("f,omega", [("0.05", "1e-320"), ("1e-300", "1e10")])
    def test_extreme_omega_domain_error(self, f, omega, capsys):
        # n or tau_1ph overflowed: tau_nph printed inf beside a finite
        # tau_dion, which it equals by construction, and the call exited 0
        assert main(["delays", "--Z", "1", "--F", f, "--omega", omega]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert f"domain error: omega = {float(omega)} at F = {float(f)} " in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("args,fmt", sorted(DELAYS_DIGESTS), ids=" ".join)
    def test_stdout_bytes_frozen(self, args, fmt, capsys):
        assert main(["delays", *args.split(), "--format", fmt]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DELAYS_DIGESTS[args, fmt]

    def test_out_writes_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["delays", "--Z", "1", "--F", "0.05", "--out", str(path)]) == EXIT_OK
        assert capsys.readouterr().err == f"wrote report to {path}\n"
        assert json.loads(path.read_text())["config"]["F"] == "0.05"

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

    @pytest.mark.parametrize("argv", [["--Z", "40", "--F", "3000"],
                                      ["--Z", "100", "--F", "1e5"]])
    def test_no_root_thick_verdict(self, argv, capsys):
        # the side of a rootless band comes from the thick quotient, which
        # is 0.989, 0.897 and 0.857 at zeta = 0, 0.5 and 1 for the first
        # case and is defined above F_a = 62500 for the second
        assert main(["zeta-qs", *argv, "--thick"]) == EXIT_OK
        assert "no root: superluminal for all zeta in [0, 1]" in capsys.readouterr().out

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

    @pytest.mark.parametrize("z,message", [
        # F_a = Ip^2/(4 Zeff) overflows: printed F_a = inf with exit 0
        ("1e120", "Z = 1e+120, Zeff = 1e+120, Ip = 5e+239: the barrier-suppression "
                  "field F_a = Ip^2/(4 Zeff) is not finite"),
        # Ip = Z^2/2 overflows: blamed "field strength must be positive, got nan"
        ("1e308", "Z = 1e+308 is too large: Ip = Z^2/2 is not finite"),
    ])
    def test_overflowing_charge_is_domain_error(self, z, message, capsys):
        assert main(["critical-fields", "--Z", z]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.err == f"domain error: {message}\n"
        assert captured.out == ""

    def test_empty_window(self, capsys):
        assert main(["critical-fields", "--Z", "15",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["window_nonempty"] is False
        assert payload["F_zeta1"] is None


@pytest.mark.parametrize("command", ["delays", "scan"])
def test_subnormal_field_is_domain_error(command, capsys):
    # Zeff/F overflows at F = 1e-310: delays printed Q_Nad = 0 and flagged
    # nad and imed as superluminal, and both printed overflow warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, "--Z", "1", "--F", "1e-310"])
    assert rc == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert "domain error" in captured.err and "1e-310" in captured.err
    assert "superluminal" not in captured.out
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("argv,message", [
    # 8 Zeff F underflowed: tau_ad, tau_dion and tau_db printed inf, exit 0
    ("delays --Z 1 --Zeff 1e-300 --F 1e-300",
     "Zeff = 1e-300, F = 1e-300: Ip/(Zeff F) or c Ip/(Zeff F x_top) is not finite"),
    # tau_1ph divided by 8 Zeff F = 0 as Python floats: ZeroDivisionError, exit 4
    ("delays --Z 1 --Zeff 1e-300 --F 1e-300 --omega 0.1",
     "Zeff = 1e-300, F = 1e-300: Ip/(Zeff F) or c Ip/(Zeff F x_top) is not finite"),
    # 8 Zeff F x_top underflowed: Q_Nad printed inf, exit 0
    ("delays --Z 1 --Zeff 1e-200 --F 1e-100",
     "Zeff = 1e-200, F = 1e-100: Ip/(Zeff F) or c Ip/(Zeff F x_top) is not finite"),
    # the thick root divided by a_t = 0 with a RuntimeWarning, exit 0
    ("zeta-qs --Z 1 --Zeff 1e-300 --F 1e-300 --thick",
     "Zeff = 1e-300, F = 1e-300: Ip/(Zeff F) or c Ip/(Zeff F x_top) is not finite"),
    # F_a = Ip^2/(4 Zeff) underflowed to 0 and F = 1e-250 was blamed as 0.0
    ("scan --Z 1e-100 --F 1e-250",
     "Z = 1e-100, Zeff = 1e-100, Ip = 5e-201: the barrier-suppression field "
     "F_a = Ip^2/(4 Zeff) underflows to 0"),
], ids=["delays", "delays-omega", "delays-q-nad", "zeta-qs-thick", "scan"])
def test_underflowing_zeff_f_is_domain_error(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv.split()) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err == f"domain error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv,line", [
    ("critical-fields --Z 1 --Zeff 1e-300", "F_zeta1 = none"),
    ("critical-fields --Z 40 --Zeff 1e300", "F_zeta1 = none"),
    ("zeta-qs --Z 1 --Zeff 1e300", "window: F_c = 7.335494158e+301"),
], ids=["critical-fields-small-zeff", "critical-fields-large-zeff", "zeta-qs"])
def test_f_zeta1_bracket_checks_no_field(argv, line, capsys):
    # the bracket ends of the F_zeta1 search, F_a 1e-9 and F_a (1 - 1e-12),
    # went through the check meant for a caller's F and exited 3 naming a
    # field the user never gave
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv.split()) == EXIT_OK
    captured = capsys.readouterr()
    assert line in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("argv", [["delays", "--Z", "1", "--F", "0.05"],
                                  ["zeta-qs", "--Z", "35", "--F", "1"],
                                  ["critical-fields", "--Z", "35"]], ids=lambda a: a[0])
def test_failed_out_write_prints_no_report(argv, tmp_path, capsys):
    # --out is a directory: the report used to reach stdout before the
    # write failed, so a failed call looked complete
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err


class TestScan:
    def test_preset_to_file(self, capsys, tmp_path):
        dest = tmp_path / "fig4.csv"
        assert main(["scan", "--preset", "fig4", "--out", str(dest)]) == EXIT_OK
        assert "wrote 2000 rows" in capsys.readouterr().err
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

    @pytest.mark.parametrize("argv, message", [
        (["--F", "-1"], "field strength must be positive, got -1.0"),
        (["--F", "0.01", "--zeta", "1.5"], "zeta must lie in [0, 1], got 1.5"),
    ])
    def test_domain_error_names_the_value(self, argv, message, capsys):
        # the grid is evaluated as arrays; the message still shows a number
        assert main(["scan", "--Z", "1", *argv]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert f"domain error: {message}\n" == err

    def test_residual_failure_is_numerical(self, monkeypatch, capsys):
        # the column path runs the zeta_QS residual check of the library
        monkeypatch.setattr("tunnelqs.superluminal.q_imed_b",
                            lambda *args, **kwargs: 1.5)
        assert main(["scan", "--Z", "50", "--F", "6000"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "|Q - 1| = 5.000e-01" in captured.err
        assert captured.out == ""

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

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        # the last value used to win silently: this ran delays at Z = 2
        cfg = write_cfg(tmp_path, "Z = 1\nF = 0.05\n# again\nZ = 2\n")
        with pytest.raises(ConfigError, match=r":4: duplicate key 'Z' \(first set on line 1\)"):
            read_config_file(cfg)
        assert main(["delays", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "duplicate key 'Z'" in captured.err
        assert captured.out == ""

    def test_missing_file(self, capsys):
        assert main(["delays", "--config", "/nonexistent/x.cfg",
                     "--Z", "1", "--F", "0.05"]) == EXIT_CONFIG

    def test_missing_required_setting(self, capsys):
        assert main(["delays", "--Z", "1"]) == EXIT_CONFIG
        assert "config error: missing required setting 'F'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, message", [
        ("delays", "Z = 1\nF = 0.05\nrel = maybe\n", "rel: expected bool, got 'maybe'"),
        ("tdse", "Z = 1\nF0 = 0.5\nomega = 0.8\nl_max = 2.5\n",
         "l_max: expected int, got '2.5'"),
    ])
    def test_badly_typed_file_value(self, command, text, message, tmp_path, capsys):
        cfg = write_cfg(tmp_path, text)
        argv = [command, "--config", cfg] + (["--dry-run"] if command == "tdse" else [])
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""

    def test_bool_off_in_file_is_false(self, tmp_path):
        cfg = write_cfg(tmp_path, "Z = 1\nF = 0.05\nrel = off\n")
        args = build_parser().parse_args(["delays", "--config", cfg])
        assert resolve_settings(args, args.spec)["rel"] is False


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
        start = time.perf_counter()
        rc = main(["tdse", "--config", cfg, "--out", str(tmp_path)])
        wall = time.perf_counter() - start
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "tdse_report.json").read_text())
        timings = report["timings"]
        assert sorted(timings) == ["propagate_s", "readout_s", "write_s"]
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= wall
        assert report["no_ionization"] is False
        assert report["norm_final"] == pytest.approx(1.0, abs=1e-6)
        assert report["max_defect"] <= 1e-10
        assert report["steps"] <= report["iterations_total"] <= 50 * report["steps"]
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

    def test_report_follows_the_run_record(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_TDSE_CFG)
        assert main(["tdse", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "tdse_report.json").read_text())
        run = [f.name for f in dataclasses.fields(PulseResult) if f.name != "state"]
        assert list(report) == ["config", *run, "bound_removed", "total_ionized",
                                "no_ionization", "theta", "tau_au", "tau_as", "phi_peak",
                                "multimodal", "secondary_ratio", "timings"]
        assert len(report["populations_by_l"]) == 2
        # the plan's warning, then the run's own, each printed once
        plan_warning, run_warning = report["warnings"]
        assert plan_warning.startswith("under-resolved radial grid")
        assert run_warning.startswith("population tail")
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("warning: ")] == [
            f"warning: {w}" for w in report["warnings"]]

    def test_no_ionization_run_clears_an_earlier_runs_tables(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SMALL_TDSE_CFG)
        assert main(["tdse", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "tdse_momentum.csv").exists()
        assert main(["tdse", "--config", cfg, "--F", "0", "--out", str(tmp_path)]) == EXIT_OK
        assert json.loads((tmp_path / "tdse_report.json").read_text())["no_ionization"]
        assert not (tmp_path / "tdse_momentum.csv").exists()
        assert not (tmp_path / "tdse_angular.csv").exists()

    def test_failed_run_leaves_no_earlier_report(self, tmp_path, capsys):
        good = write_cfg(tmp_path, "Z = 1\nF0 = 0\nomega = 0.8\nl_max = 1\nr_max = 10\n",
                         name="good.cfg")
        assert main(["tdse", "--config", good, "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "tdse_report.json").exists()
        bad = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\nl_max = 1\n"
                                  "r_max = 10\ntol = 1e-30\n")
        assert main(["tdse", "--config", bad, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert not (tmp_path / "tdse_report.json").exists()

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

    def test_plan_and_run_step_counts_agree(self, tmp_path, capsys):
        # T1 is 20 steps of dt within 1e-12 T1: no shortened step in plan or run
        dt = PulseParams(F0=0.0, omega=8.0).duration / (20 + 2e-12)
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0\nomega = 8\nl_max = 0\ndr = 0.5\n"
                                  f"r_max = 5\ndt = {dt!r}\n")
        assert main(["tdse", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        counts = [line.split()[1] for line in out.splitlines()
                  if line.startswith(("plan:", "propagation:"))]
        assert counts == ["20", "20"]

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

    def test_box_without_bound_s_level_refused(self, tmp_path, capsys):
        # the lowest level of this box lies at E = +1.72; propagated as the
        # ground state, it gave an ionized fraction of 0.49
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\nl_max = 2\nr_max = 1\n"
                                  "dt = 0.05\nn_p = 20\n")
        assert main(["tdse", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.endswith(
            "config error: the radial box (dr = 0.1, r_max = 1) holds no bound s level "
            "for Zeff = 1; use a larger r_max\n")
        assert not (tmp_path / "tdse_report.json").exists()

    def test_refused_run_leaves_no_earlier_outputs(self, tmp_path, capsys):
        outputs = ("tdse_report.json", "tdse_momentum.csv", "tdse_angular.csv",
                   "tdse_checkpoint.npz")
        for name in outputs:
            (tmp_path / name).write_text("an earlier run's output\n")
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\nl_max = 2\nr_max = 1\n")
        assert main(["tdse", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "holds no bound s level" in capsys.readouterr().err
        assert [name for name in outputs if (tmp_path / name).exists()] == []

    def test_field_with_l_max_0_warns_on_dry_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\nl_max = 0\n")
        assert main(["tdse", "--config", cfg, "--dry-run"]) == EXIT_OK
        assert capsys.readouterr().err == (
            "warning: l_max = 0 leaves the field nothing to couple: A . p takes (0, 0) "
            "only to l = 1, so the run cannot ionize\n")

    def test_uncountable_dt_rejected_on_dry_run(self, tmp_path, capsys):
        # T1/dt overflows to inf, which used to exit 4 as a numerical failure
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\ndt = 1e-320\n")
        assert main(["tdse", "--config", cfg, "--dry-run"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error: dt = 1e-320 is too small" in captured.err
        assert captured.out == ""

    def test_omega_with_infinite_duration_rejected_on_dry_run(self, capsys):
        # T1 = 4 pi/omega overflows; the plan used to blame dt, with exit 2
        argv = ["tdse", "--Z", "1", "--F", "0.5", "--omega", "1e-320", "--dry-run"]
        assert main(argv) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.err == ("domain error: omega = 1e-320 is too small: "
                                "the pulse duration 4 pi/omega is not finite\n")
        assert captured.out == ""

    def test_huge_step_count_warns_on_dry_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\ndt = 1e-300\n")
        assert main(["tdse", "--config", cfg, "--dry-run"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "warning: not desk scale: 1.57e+301 steps" in captured.err
        assert "plan: 15707963267948966" in captured.out

    def test_zero_tol_rejected_on_dry_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\ntol = 0\n")
        assert main(["tdse", "--config", cfg, "--dry-run"]) == EXIT_CONFIG
        assert "tol must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,message", [
        ("n_p = 1", "n_p must be >= 2, got 1"),
        ("p_min = 0", "p_min must be positive, got 0.0"),
        ("p_max = 0.01", "p_max must be above p_min, got 0.01"),
        ("n_phi = 4", "n_phi must be >= 8, got 4"),
        # momenta the grid cannot carry: 1e200 used to print "ionized
        # fraction = nan" next to a theta and exit 0
        ("p_max = 1e200", "p_max must be below the lattice band edge 2/dr = 20, got 1e+200"),
        ("p_max = 20", "p_max must be below the lattice band edge 2/dr = 20, got 20.0"),
        ("checkpoint_every = -3", "checkpoint_every must be >= 0, got -3"),
        # linspace gives equal neighbours one ulp apart
        ("p_min = 1\np_max = 1.000000000000001",
         "p_min, p_max and n_p must give strictly increasing momenta, "
         "got 1.0, 1.000000000000001, 200"),
    ])
    def test_bad_spectra_or_checkpoint_setting_on_dry_run(self, setting, message,
                                                          tmp_path, capsys):
        # these used to pass --dry-run and fail (or misbehave) only after
        # the whole propagation
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\nl_max = 1\n"
                                  f"r_max = 10\n{setting}\n")
        assert main(["tdse", "--config", cfg, "--dry-run"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert captured.out == ""

    def test_p_max_beyond_the_band_edge_is_not_propagated(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\nl_max = 2\ndr = 0.2\n"
                                  "r_max = 20\ndt = 0.05\nn_p = 3\np_max = 1e200\n")
        assert main(["tdse", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error: p_max must be below the lattice band edge" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "tdse_report.json").exists()

    def test_p_max_just_below_the_band_edge_plans(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "Z = 1\nF0 = 0.5\nomega = 0.8\ndr = 0.2\n"
                                  "r_max = 20\np_max = 9.99\n")
        assert main(["tdse", "--config", cfg, "--dry-run"]) == EXIT_OK

    @pytest.mark.parametrize("setting,message", [
        ("dr = -0.1", "dr must be positive, got -0.1"),
        ("dr = 0.07", "must be an integer number of spacings"),
        ("r_max = 0.05", "r_max must exceed dr, got 0.05"),
        # no grid point for the continuum waves' normalization window: such
        # a grid used to propagate and print "no ionization"
        ("r_max = 0.3", "no interior point in [0.8, 0.9] r_max"),
    ])
    def test_bad_grid_rejected_on_dry_run(self, setting, message, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"Z = 1\nF0 = 0.5\nomega = 0.8\n{setting}\n")
        assert main(["tdse", "--config", cfg, "--dry-run"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error: " in captured.err and message in captured.err
        assert captured.out == ""

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


@pytest.mark.parametrize("argv,target", [
    (["tdse", "--Z", "1", "--F", "0.5", "--omega", "0.8"], "file"),
    (["delays", "--Z", "1", "--F", "0.05"], "dir"),
    (["scan", "--Z", "1", "--F", "0.05"], "file/x.csv"),
])
def test_unwritable_out_is_config_error(argv, target, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    assert main([*argv, "--out", str(tmp_path / target)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == ""


def test_config_error_is_the_librarys():
    assert cli.ConfigError is TdseConfigError


def test_propagation_error_is_arithmetic():
    assert issubclass(PropagationError, ArithmeticError)


def test_tdse_takes_no_format(capsys):
    # tdse has one output form; --format text was accepted and never read
    with pytest.raises(SystemExit) as exc:
        main(["tdse", "--Z", "1", "--F", "0.5", "--omega", "0.8", "--dry-run",
              "--format", "text"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --format text" in capsys.readouterr().err


@pytest.mark.parametrize("error,code,prefix", [
    (ConfigError("bad key"), EXIT_CONFIG, "config error"),
    (OSError("disk full"), EXIT_CONFIG, "config error"),
    (ValueError("bad Z"), EXIT_DOMAIN, "domain error"),
    (PropagationError(1.0, 1e-10, 3), EXIT_NUMERICAL, "numerical failure"),
    (ArithmeticError("residual"), EXIT_NUMERICAL, "numerical failure"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_exit_code_per_exception_family(error, code, prefix, monkeypatch, capsys):
    def handler(args, resolved):
        raise error

    commands = [(name, help_text, spec, handler, formats)
                for name, help_text, spec, _, formats in cli.COMMANDS]
    monkeypatch.setattr(cli, "COMMANDS", tuple(commands))
    assert main(["critical-fields", "--Z", "1"]) == code
    assert capsys.readouterr().err == f"{prefix}: {error}\n"


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


def _fresh_python(*args, cwd=None):
    """Run ``python *args`` in a new interpreter that imports this tunnelqs."""
    src = os.path.dirname(os.path.dirname(tunnelqs.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd)


def test_light_commands_load_no_scipy():
    # scipy loads only inside the functions that compute with it, so
    # neither the import nor a one-shot command loads any scipy module.
    # critical-fields at Z 7 has no F_zeta1 root, so brentq is not needed.
    child = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "from tunnelqs.cli import main\n"
        "assert loaded() == [], ('import', loaded())\n"
        "for argv in (['delays', '--Z', '1', '--F', '0.05'],\n"
        "             ['zeta-qs', '--Z', '10'],\n"
        "             ['critical-fields', '--Z', '7'],\n"
        "             ['scan', '--Z', '1', '--F', '0.05', '--zeta', '0.5'],\n"
        "             ['tdse', '--Z', '1', '--F', '0.5', '--omega', '0.8', '--dry-run']):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert loaded() == [], (argv, loaded())\n"
        "print('ok')\n"
    )
    proc = _fresh_python("-c", child)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")


def test_tdse_run_in_a_fresh_process(tmp_path):
    # a complete run from a cold interpreter, where no test module has
    # loaded scipy's submodules before the package needs them
    cfg = write_cfg(tmp_path, MINI_TDSE_CFG)
    proc = _fresh_python("-m", "tunnelqs.cli", "tdse", "--config", cfg,
                         "--out", str(tmp_path), cwd=tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "offset angle theta" in proc.stdout
    report = json.loads((tmp_path / "tdse_report.json").read_text())
    assert report["no_ionization"] is False
    for name in ("tdse_angular.csv", "tdse_momentum.csv", "tdse_checkpoint.npz"):
        assert (tmp_path / name).stat().st_size > 0, name

"""Command-line front end.

Subcommands: ``delays``, ``scan``, ``zeta-qs``, ``critical-fields``,
``tdse``.  Inputs are atomic units throughout; times are echoed in both
a.u. and attoseconds, and field strengths get an informational intensity
in W/cm^2.

Configuration comes from an optional flat key=value file (``--config``)
with command-line flags taking precedence.  Every output embeds the
fully resolved configuration, in ``# key=value`` comment lines for CSV
and under a ``config`` key for JSON, so any result can be reproduced
from its own metadata.  Relative output paths honor the
``TUNNELQS_OUT_DIR`` environment variable.

Exit codes: 0 success, 2 configuration error, 3 domain error (invalid
physical inputs, barrier-suppression regime), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .atomic import (
    BarrierSuppressionError,
    barrier_geometry,
    delay_set,
    keldysh_gamma,
    make_system,
    photon_absorption_delay,
)
from .constants import au_time_as, field_to_intensity
from .scan import PRESET_NAMES, ScanGrid, emit_table, run_preset, run_scan
from .spectra import (
    default_phi_grid,
    momentum_distribution,
    offset_angle_and_delay,
    project_scattering_states,
    radial_integrate,
)
from .superluminal import critical_fields, q_imed_b, qs_report, zeta_qs
from .tdse import (
    PropagationError,
    PulseParams,
    RadialGrid,
    TdseConfigError,
    default_dt,
    plan_run,
    run_pulse,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4

OUT_DIR_ENV = "TUNNELQS_OUT_DIR"

NO_IONIZATION_FLOOR = 1e-12


class ConfigError(ValueError):
    """Bad config file, unknown key, or missing required setting."""


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_bool(text: str, key: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def resolve_settings(args, file_keys: dict, spec: dict) -> dict:
    """Merge flag values over config-file values over defaults.

    ``spec`` maps key -> (type, default); a default of ... marks the key
    required.  Unknown file keys and non-finite float values are rejected.
    """
    unknown = set(file_keys) - set(spec)
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(sorted(unknown))}; "
            f"known keys: {', '.join(sorted(spec))}")
    resolved = {}
    for key, (typ, default) in spec.items():
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            resolved[key] = flag
            continue
        if key in file_keys:
            raw = file_keys[key]
            try:
                resolved[key] = _parse_bool(raw, key) if typ is bool else typ(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"{key}: expected {typ.__name__}, got {raw!r}") from None
            continue
        if default is ...:
            raise ConfigError(f"missing required setting {key!r} (flag or config file)")
        resolved[key] = default
    for key, value in resolved.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    return resolved


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_lines(resolved: dict) -> list[str]:
    return [f"{k}={_fmt_value(v)}" for k, v in resolved.items() if v is not None]


def resolve_out_path(path: str) -> Path:
    base = os.environ.get(OUT_DIR_ENV)
    p = Path(path)
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _au_as(x: float) -> str:
    return f"{x:.6g} a.u. = {x * au_time_as:.6g} as"


def _intensity_note(f: float) -> str:
    return f"{f:.6g} a.u. (~ {field_to_intensity(f):.3e} W/cm^2)"


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, np.ndarray):
        return [_jsonable(float(v)) for v in x]
    return x


def _system_from(resolved: dict):
    return make_system(resolved["Z"], Zeff=resolved.get("Zeff"),
                       relativistic=bool(resolved.get("rel", False)))


# ---------------------------------------------------------------- delays

DELAYS_SPEC = {
    "Z": (float, ...),
    "Zeff": (float, None),
    "rel": (bool, False),
    "F": (float, ...),
    "omega": (float, None),
    "zeta": (float, 0.5),
}


def cmd_delays(args) -> int:
    file_cfg = read_config_file(args.config) if args.config else {}
    resolved = resolve_settings(args, file_cfg, DELAYS_SPEC)
    system = _system_from(resolved)
    f = resolved["F"]
    delays = delay_set(system, f)
    geom = barrier_geometry(system, f)
    report = qs_report(system, f, resolved["zeta"])

    payload = {
        "config": {k: _fmt_value(v) for k, v in resolved.items() if v is not None},
        "Ip": system.Ip,
        "F_a": system.f_atomic,
        "delta_z": geom.delta_z,
        "x_entry": geom.x_entry,
        "x_exit": geom.x_exit,
        "x_top": geom.x_top,
        "d_b": geom.d_b,
        "d_c": geom.d_c,
        "delays_au": {
            "tau_a": delays.tau_a, "tau_ti": delays.tau_ti,
            "tau_ad": delays.tau_ad, "tau_dion": delays.tau_dion,
            "tau_db": delays.tau_db, "tau_backr": delays.tau_backr,
        },
        "delays_as": {
            "tau_a": delays.tau_a_as, "tau_ti": delays.tau_ti_as,
            "tau_ad": delays.tau_ad_as, "tau_dion": delays.tau_dion_as,
            "tau_db": delays.tau_db_as, "tau_backr": delays.tau_backr_as,
        },
        "quotients": {
            "q_db": report.q_db, "q_ad": report.q_ad, "q_nad": report.q_nad,
            "q_imed_a": report.q_imed_a, "q_imed_b": report.q_imed_b,
        },
        "light_times_au": {
            "tau_c_db": report.tau_c_db, "tau_c_nad": report.tau_c_nad,
            "tau_c_imed": report.tau_c_imed,
        },
        "superluminal": {
            "db": report.superluminal_db, "ad": report.superluminal_ad,
            "nad": report.superluminal_nad, "imed": report.superluminal_imed,
        },
    }
    if resolved["omega"] is not None:
        photon = photon_absorption_delay(system, f, resolved["omega"])
        payload["n_photons"] = photon.n_photons
        payload["tau_nph_au"] = photon.tau_nph
        payload["keldysh_gamma"] = keldysh_gamma(system, f, resolved["omega"])

    if args.format == "json":
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(f"# F = {_intensity_note(f)}")
        print(f"Z = {system.Z:g}  Zeff = {system.Zeff:g}  "
              f"Ip = {system.Ip:.10g} a.u.  F_a = {system.f_atomic:.10g} a.u.")
        print(f"barrier: delta_z = {geom.delta_z:.10g}  d_B = {geom.d_b:.10g}  "
              f"d_c = {geom.d_c:.10g}  x_top = {geom.x_top:.10g}")
        for name in ("tau_a", "tau_ti", "tau_ad", "tau_dion", "tau_db", "tau_backr"):
            print(f"{name:10s} = {_au_as(getattr(delays, name))}")
        if "n_photons" in payload:
            print(f"{'tau_nph':10s} = {_au_as(payload['tau_nph_au'])}  "
                  f"(n = {payload['n_photons']:.6g}, "
                  f"gamma_K = {payload['keldysh_gamma']:.6g})")
        print(f"quotients: Q_dB = {report.q_db:.6g}  Q_Ad = {report.q_ad:.6g}  "
              f"Q_Nad = {report.q_nad:.6g}  "
              f"Q_imed(zeta={resolved['zeta']:g}) = {report.q_imed_b:.6g}")
        flags = [k for k, v in payload["superluminal"].items() if v]
        print("superluminal channels: " + (", ".join(flags) if flags else "none"))
    if args.out:
        path = resolve_out_path(args.out)
        _write_json(path, payload)
        print(f"wrote report to {path}", file=sys.stderr)
    return EXIT_OK


# ------------------------------------------------------------------ scan

SCAN_SPEC = {
    "preset": (str, None),
    "Z": (float, None),
    "Zeff": (float, None),
    "rel": (bool, False),
    "F": (float, None),
    "zeta": (float, None),
    "workers": (int, 0),
}


def cmd_scan(args) -> int:
    file_cfg = read_config_file(args.config) if args.config else {}
    resolved = resolve_settings(args, file_cfg, SCAN_SPEC)
    if resolved["preset"] is not None:
        try:
            records = run_preset(resolved["preset"], workers=resolved["workers"])
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
    elif resolved["Z"] is not None and resolved["F"] is not None:
        fixed = {"Z": resolved["Z"], "F": resolved["F"]}
        if resolved["Zeff"] is not None:
            fixed["Zeff"] = resolved["Zeff"]
        if resolved["zeta"] is not None:
            fixed["zeta"] = resolved["zeta"]
        grid = ScanGrid(fixed=fixed, axes=(), relativistic=resolved["rel"])
        records = run_scan(grid, workers=resolved["workers"])
    else:
        raise ConfigError("need either preset=<name> or both Z and F")

    # workers is an execution detail, not provenance: the emitted table is
    # byte-identical for any worker count, and the echo must not break that
    echo_src = {k: v for k, v in resolved.items() if k != "workers"}
    comments = config_lines(echo_src)
    config_echo = {k: _fmt_value(v) for k, v in echo_src.items() if v is not None}
    if args.out:
        path = resolve_out_path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        emit_table(records, fmt=args.format, dest=path,
                   header_comments=comments, config=config_echo)
        print(f"wrote {len(records)} rows to {path}")
    else:
        sys.stdout.write(emit_table(records, fmt=args.format,
                                    header_comments=comments, config=config_echo))
        print(f"{len(records)} rows", file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------- zeta-qs

ZETA_SPEC = {
    "Z": (float, ...),
    "Zeff": (float, None),
    "rel": (bool, False),
    "F": (float, None),
    "thick": (bool, False),
}


def cmd_zeta_qs(args) -> int:
    file_cfg = read_config_file(args.config) if args.config else {}
    resolved = resolve_settings(args, file_cfg, ZETA_SPEC)
    system = _system_from(resolved)
    f = resolved["F"]
    mode = "smallF" if f is None else ("thick" if resolved["thick"] else "exact")
    root = zeta_qs(system, f, mode=mode)
    fields = critical_fields(system)

    payload = {
        "config": {k: _fmt_value(v) for k, v in resolved.items() if v is not None},
        "mode": mode,
        "Ip": system.Ip,
        "F_a": fields.f_atomic,
        "F_c": fields.f_crit,
        "F_zeta1": fields.f_zeta1,
        "window_nonempty": fields.window_nonempty,
    }
    if root is None:
        # Q is monotone in zeta, so one probe decides the side
        probe_f = f if f is not None else system.f_atomic * 1e-9
        side = "superluminal" if q_imed_b(system, probe_f, 0.5) < 1.0 else "subluminal"
        payload["zeta_qs"] = None
        payload["verdict"] = f"{side} for all zeta in [0, 1]"
    else:
        payload["zeta_qs"] = root.zeta
        payload["residual"] = root.residual
        payload["method"] = root.method

    if args.format == "json":
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(f"Z = {system.Z:g}  Zeff = {system.Zeff:g}  mode = {mode}")
        print(f"window: F_c = {fields.f_crit:.10g}  F_a = {fields.f_atomic:.10g}  "
              f"nonempty = {_fmt_value(fields.window_nonempty)}")
        if fields.f_zeta1 is not None:
            print(f"F_zeta1 = {fields.f_zeta1:.10g}")
        if root is None:
            print(f"no root: {payload['verdict']}")
        else:
            print(f"zeta_QS = {root.zeta:.10g}  (|Q-1| = {root.residual:.3e}, "
                  f"{root.method})")
    if args.out:
        path = resolve_out_path(args.out)
        _write_json(path, payload)
        print(f"wrote report to {path}", file=sys.stderr)
    return EXIT_OK


# -------------------------------------------------------- critical-fields

CRIT_SPEC = {
    "Z": (float, ...),
    "Zeff": (float, None),
    "rel": (bool, False),
}


def cmd_critical_fields(args) -> int:
    file_cfg = read_config_file(args.config) if args.config else {}
    resolved = resolve_settings(args, file_cfg, CRIT_SPEC)
    system = _system_from(resolved)
    fields = critical_fields(system)
    payload = {
        "config": {k: _fmt_value(v) for k, v in resolved.items() if v is not None},
        "Ip": system.Ip,
        "F_a": fields.f_atomic,
        "F_c": fields.f_crit,
        "F_zeta1": fields.f_zeta1,
        "window_nonempty": fields.window_nonempty,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(f"Z = {system.Z:g}  Zeff = {system.Zeff:g}  "
              f"relativistic = {_fmt_value(system.relativistic)}")
        print(f"Ip      = {system.Ip:.10g} a.u.")
        print(f"F_a     = {_intensity_note(fields.f_atomic)}")
        print(f"F_c     = {_intensity_note(fields.f_crit)}")
        if fields.f_zeta1 is not None:
            print(f"F_zeta1 = {_intensity_note(fields.f_zeta1)}")
        else:
            print("F_zeta1 = none (adiabatic end never crosses Q = 1)")
        print(f"window nonempty: {_fmt_value(fields.window_nonempty)}")
    if args.out:
        path = resolve_out_path(args.out)
        _write_json(path, payload)
        print(f"wrote report to {path}", file=sys.stderr)
    return EXIT_OK


# ------------------------------------------------------------------ tdse

TDSE_SPEC = {
    "Z": (float, ...),
    "Zeff": (float, None),
    "rel": (bool, False),
    "F0": (float, ...),
    "omega": (float, ...),
    "ellipticity": (float, 1.0),
    "carrier_phase": (float, 0.0),
    "l_max": (int, 8),
    "dr": (float, 0.1),
    "r_max": (float, 60.0),
    "dt": (float, None),
    "tol": (float, 1e-10),
    "max_channels": (int, 16384),
    "p_min": (float, 0.05),
    "p_max": (float, 2.5),
    "n_p": (int, 200),
    "n_phi": (int, 720),
    "checkpoint_every": (int, 0),
}


def cmd_tdse(args) -> int:
    file_cfg = read_config_file(args.config) if args.config else {}
    resolved = resolve_settings(args, file_cfg, TDSE_SPEC)
    system = _system_from(resolved)
    grid = RadialGrid(dr=resolved["dr"], r_max=resolved["r_max"])
    pulse = PulseParams(F0=resolved["F0"], omega=resolved["omega"],
                        ellipticity=resolved["ellipticity"],
                        carrier_phase=resolved["carrier_phase"])
    if resolved["dt"] is None:
        resolved["dt"] = default_dt(system.Zeff)

    n_steps, n_channels, warnings = plan_run(
        system, grid, pulse, resolved["l_max"], resolved["dt"],
        max_channels=resolved["max_channels"], tol=resolved["tol"])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"# peak field = {_intensity_note(pulse.peak_field)}")
    print(f"plan: {n_steps} steps of dt = {resolved['dt']:g}, "
          f"{n_channels} channels, {grid.n_points} radial points")
    if args.dry_run:
        for line in config_lines(resolved):
            print(f"# {line}")
        return EXIT_OK

    out_dir = resolve_out_path(args.out if args.out else ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = out_dir / "tdse_checkpoint.npz"

    result = run_pulse(system, grid, pulse, resolved["l_max"],
                       dt=resolved["dt"], tol=resolved["tol"],
                       max_channels=resolved["max_channels"],
                       checkpoint_path=checkpoint,
                       checkpoint_every=resolved["checkpoint_every"])
    for w in result.warnings:
        if w not in warnings:
            print(f"warning: {w}", file=sys.stderr)
    print(f"propagation: {result.steps} steps, "
          f"norm {result.norm_initial:.12g} -> {result.norm_final:.12g}, "
          f"max per-step drift {result.max_step_norm_drift:.3e}, "
          f"max defect {result.max_defect:.3e}")

    p = np.linspace(resolved["p_min"], resolved["p_max"], resolved["n_p"])
    amps = project_scattering_states(result.state, system, p)
    total = amps.total_ionized()
    config_echo = {k: _fmt_value(v) for k, v in resolved.items() if v is not None}
    report = {
        "config": config_echo,
        "energy0": result.energy0,
        "steps": result.steps,
        "norm_initial": result.norm_initial,
        "norm_final": result.norm_final,
        "max_step_norm_drift": result.max_step_norm_drift,
        "max_defect": result.max_defect,
        "max_iterations": result.max_iterations,
        "populations_by_l": _jsonable(result.populations_by_l),
        "tail_fraction": result.tail_fraction,
        "warnings": result.warnings,
        "bound_removed": amps.bound_removed,
        "total_ionized": total,
    }

    if total < NO_IONIZATION_FLOOR:
        report["no_ionization"] = True
        report["theta"] = None
        report["tau_au"] = None
        report["tau_as"] = None
        print("no ionization: offset angle and delay are undefined")
    else:
        phi = default_phi_grid(resolved["n_phi"])
        dist = momentum_distribution(amps, p, phi)
        ang = radial_integrate(dist)
        offset = offset_angle_and_delay(ang, pulse)
        report["no_ionization"] = False
        report["theta"] = offset.theta
        report["tau_au"] = offset.tau
        report["tau_as"] = offset.tau_as
        report["phi_peak"] = offset.phi_peak
        report["multimodal"] = offset.multimodal
        report["secondary_ratio"] = offset.secondary_ratio

        comments = config_lines(resolved)
        _write_polar_csv(out_dir / "tdse_momentum.csv", dist, comments)
        _write_angular_csv(out_dir / "tdse_angular.csv", ang, comments)
        print(f"ionized fraction = {total:.6g} "
              f"(bound removed = {amps.bound_removed:.6g})")
        flag = "  [multimodal]" if offset.multimodal else ""
        print(f"offset angle theta = {offset.theta:.6g} rad{flag}")
        print(f"delay tau = {_au_as(offset.tau)}")

    _write_json(out_dir / "tdse_report.json", report)
    print(f"wrote {out_dir / 'tdse_report.json'}", file=sys.stderr)
    return EXIT_OK


def _write_polar_csv(path: Path, dist, comments) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append("# columns: p, phi, density; phi from +x axis; "
                 "density rescaled so sum P p dp dphi = ionized probability")
    lines.append("p,phi,density")
    phis = dist.phi.tolist()   # Python floats: repr is a plain literal
    for pv, row in zip(dist.p.tolist(), dist.density.tolist()):
        for phiv, val in zip(phis, row):
            lines.append(f"{pv!r},{phiv!r},{val!r}")
    path.write_text("\n".join(lines) + "\n")


def _write_angular_csv(path: Path, ang, comments) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append("# columns: phi, P; theta measured from -y toward +x; tau = theta/omega")
    lines.append("phi,P")
    for phiv, val in zip(ang.phi.tolist(), ang.values.tolist()):
        lines.append(f"{phiv!r},{val!r}")
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunnelqs",
        description="Tunneling time delays, superluminality quotients, and "
                    "attoclock observables for hydrogen-like atoms in strong "
                    "fields (atomic units in, a.u. + attoseconds out).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_choices=("text", "json")):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--Z", type=float, help="nuclear charge")
        p.add_argument("--Zeff", type=float, help="effective charge (default Z)")
        p.add_argument("--rel", action="store_true", default=None,
                       help="relativistic ionization potential")
        p.add_argument("--out", help="output path (TUNNELQS_OUT_DIR honored)")
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])

    p = sub.add_parser("delays", help="tunneling delays and quotients at one (Z, F)")
    common(p)
    p.add_argument("--F", type=float, help="field strength (a.u.)")
    p.add_argument("--omega", type=float, help="laser frequency (a.u.)")
    p.add_argument("--zeta", type=float, help="intermediate switching parameter")
    p.set_defaults(handler=cmd_delays)

    p = sub.add_parser("scan", help="figure-preset or single-point parameter scan")
    common(p, fmt_choices=("csv", "json"))
    p.add_argument("--preset", help="preset name, e.g. fig4")
    p.add_argument("--F", type=float, help="field strength for a single point")
    p.add_argument("--zeta", type=float)
    p.add_argument("--workers", type=int, help="parallel workers (0 = serial)")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("zeta-qs", help="superluminality switching point zeta_QS")
    common(p)
    p.add_argument("--F", type=float,
                   help="field strength; omit for the small-field limit")
    p.add_argument("--thick", action="store_true", default=None,
                   help="thick-barrier variant")
    p.set_defaults(handler=cmd_zeta_qs)

    p = sub.add_parser("critical-fields", help="F_a, F_c and F_zeta1 for one atom")
    common(p)
    p.set_defaults(handler=cmd_critical_fields)

    p = sub.add_parser("tdse", help="propagate a pulse and extract the attoclock delay")
    common(p, fmt_choices=("text",))
    p.add_argument("--F", dest="F0", type=float,
                   help="field-strength parameter F0 (peak field F0/sqrt(1+eps^2))")
    p.add_argument("--omega", type=float, help="carrier frequency (a.u.)")
    p.add_argument("--dry-run", action="store_true",
                   help="validate and print the plan without propagating")
    p.set_defaults(handler=cmd_tdse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, TdseConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BarrierSuppressionError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PropagationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

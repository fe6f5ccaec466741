"""Command-line front end.

Subcommands: ``delays``, ``scan``, ``zeta-qs``, ``critical-fields``,
``tdse``.  Inputs are atomic units throughout; times are echoed in both
a.u. and attoseconds, and field strengths get an informational intensity
in W/cm^2.

Each subcommand has one settings table (``DELAYS_SPEC`` ...) mapping a
key to its type, default and flag help; the parser makes one ``--key``
flag per entry with a help (tdse's ``--F`` sets ``F0``), and entries
with no help are config-file only.  The other flags are ``--config``,
``--out``, ``--format`` (not on tdse, which has one output form) and
tdse's ``--dry-run``.  Settings come from an optional flat key=value
file (``--config``) with flags taking precedence.  Every output embeds
the fully resolved configuration, in ``# key=value`` comment lines for
CSV and under a ``config`` key for JSON, so any result can be reproduced
from its own metadata; a scan preset, which fixes its whole grid,
records only its name.  Relative output paths honor ``TUNNELQS_OUT_DIR``.

``delays``, ``zeta-qs`` and ``critical-fields`` each build one payload
and its text lines; ``print_report`` writes the payload to ``--out``
and then prints either.  ``delays`` prints one row of ``scan.tabulate``,
the evaluator ``scan`` uses; ``scan.emit_table`` writes any structured
table, also tdse's CSVs of what ``spectra.attoclock_readout`` returns.

``tdse`` checks all it can before propagating (``--dry-run`` stops there),
then clears the last run's report and CSVs from its output directory; the
report holds every ``PulseResult`` field but the state, then the readout.

Exit codes, one exception family each: 0 success; 2 configuration error,
``ConfigError`` (tdse's ``TdseConfigError``: also a key set twice, a tdse
setting that fails a check before propagating, a setting that would change
nothing: ``scan`` preset with Z/F/zeta/rel, ``zeta-qs`` thick without F,
``tdse`` rel) or ``OSError`` (an unwritable ``--out``); 3 domain error, any
other ``ValueError`` (invalid physical inputs, barrier suppression); 4
numerical failure, ``ArithmeticError`` (a failed TDSE step, a non-finite
ionized probability).  JSON reports write non-finite numbers as null
(scan tables: NaN as null, inf as Infinity).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .atomic import (
    barrier_geometry,
    keldysh_gamma,
    make_system,
    photon_absorption_delay,
)
from .constants import au_time_as, field_to_intensity
from .scan import PRESET_NAMES, ScanGrid, emit_table, run_preset, run_scan, tabulate
from .spectra import _band_edge, _wkb_window, attoclock_readout, default_phi_grid
from .superluminal import critical_fields, q_imed_b, zeta_qs
from .tdse import (
    DEFAULT_MAX_CHANNELS,
    DEFAULT_TOL,
    PulseParams,
    RadialGrid,
    default_dt,
    plan_run,
    run_pulse,
)
from .tdse import TdseConfigError as ConfigError  # the library's and the CLI's exit 2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4

OUT_DIR_ENV = "TUNNELQS_OUT_DIR"


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored, no key twice."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        out[key] = value
    return out


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def resolve_settings(args, spec: dict) -> dict:
    """Merge flag values over ``--config`` file values over defaults.

    ``spec`` maps key -> (type, default, flag help); a default of ...
    marks the key required.  Unknown file keys and non-finite float
    values are rejected.
    """
    file_keys = read_config_file(args.config) if args.config else {}
    unknown = set(file_keys) - set(spec)
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(sorted(unknown))}; "
            f"known keys: {', '.join(sorted(spec))}")
    resolved = {}
    for key, (typ, default, _) in spec.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
            continue
        if key in file_keys:
            raw = file_keys[key]
            try:
                resolved[key] = _parse_bool(raw) if typ is bool else typ(raw)
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


def config_echo(resolved: dict) -> dict[str, str]:
    """The settings as every output records them; unset ones are left out."""
    return {k: _fmt_value(v) for k, v in resolved.items() if v is not None}


def config_lines(resolved: dict) -> list[str]:
    return [f"{k}={v}" for k, v in config_echo(resolved).items()]


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
    """``x`` with arrays as lists and non-finite floats, at any depth, as None."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _system_from(resolved: dict):
    return make_system(resolved["Z"], Zeff=resolved.get("Zeff"),
                       relativistic=bool(resolved.get("rel", False)))


def print_report(args, resolved: dict, payload: dict, lines: list[str]) -> int:
    """Write the payload (after its config echo) as JSON to ``--out`` when
    given, then print it as JSON or its text lines."""
    payload = _jsonable({"config": config_echo(resolved), **payload})
    if args.out:
        path = resolve_out_path(args.out)
        _write_json(path, payload)
        print(f"wrote report to {path}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print("\n".join(lines))
    return EXIT_OK


# Settings tables: key -> (type, default, flag help).  A default of ...
# marks the key required; a help of None makes it config-file only.
ATOM_SPEC = {
    "Z": (float, ..., "nuclear charge"),
    "Zeff": (float, None, "effective charge (default Z)"),
    "rel": (bool, False, "relativistic ionization potential"),
}

# ---------------------------------------------------------------- delays

DELAYS_SPEC = {
    **ATOM_SPEC,
    "F": (float, ..., "field strength (a.u.)"),
    "omega": (float, None, "laser frequency (a.u.)"),
    "zeta": (float, 0.5, "intermediate switching parameter"),
}

DELAY_NAMES = ("tau_a", "tau_ti", "tau_ad", "tau_dion", "tau_db", "tau_backr")
BARRIER_NAMES = ("Ip", "F_a", "delta_z", "x_entry", "x_exit", "x_top", "d_b", "d_c")
# superluminal flag -> its quotient
CHANNELS = {"db": "q_db", "ad": "q_ad", "nad": "q_nad", "imed": "q_imed_b"}


def cmd_delays(args, resolved: dict) -> int:
    system = _system_from(resolved)
    f, zeta = resolved["F"], resolved["zeta"]
    # F > F_a is an error here, not a blanked row
    barrier_geometry(system, f)
    table = tabulate(system, f, zeta)
    row = dict(zip(table.dtype.names, table[0].tolist()))
    payload = {
        **{k: row[k] for k in BARRIER_NAMES},
        "delays_au": {n: row[n] for n in DELAY_NAMES},
        "delays_as": {n: row[f"{n}_as"] for n in DELAY_NAMES},
        "quotients": {q: row[q] for q in ("q_db", "q_ad", "q_nad", "q_imed_a", "q_imed_b")},
        "light_times_au": {t: row[t] for t in ("tau_c_db", "tau_c_nad", "tau_c_imed")},
        "superluminal": {k: row[q] < 1.0 for k, q in CHANNELS.items()},
    }
    lines = [
        f"# F = {_intensity_note(f)}",
        f"Z = {system.Z:g}  Zeff = {system.Zeff:g}  "
        f"Ip = {system.Ip:.10g} a.u.  F_a = {system.f_atomic:.10g} a.u.",
        f"barrier: delta_z = {row['delta_z']:.10g}  d_B = {row['d_b']:.10g}  "
        f"d_c = {row['d_c']:.10g}  x_top = {row['x_top']:.10g}",
        *(f"{name:10s} = {_au_as(row[name])}" for name in DELAY_NAMES),
    ]
    if resolved["omega"] is not None:
        photon = photon_absorption_delay(system, f, resolved["omega"])
        payload["n_photons"] = photon.n_photons
        payload["tau_nph_au"] = photon.tau_nph
        payload["keldysh_gamma"] = keldysh_gamma(system, f, resolved["omega"])
        lines.append(f"{'tau_nph':10s} = {_au_as(photon.tau_nph)}  "
                     f"(n = {photon.n_photons:.6g}, "
                     f"gamma_K = {payload['keldysh_gamma']:.6g})")
    flags = [k for k, v in payload["superluminal"].items() if v]
    lines += [f"quotients: Q_dB = {row['q_db']:.6g}  Q_Ad = {row['q_ad']:.6g}  "
              f"Q_Nad = {row['q_nad']:.6g}  "
              f"Q_imed(zeta={zeta:g}) = {row['q_imed_b']:.6g}",
              "superluminal channels: " + (", ".join(flags) if flags else "none")]
    return print_report(args, resolved, payload, lines)


# ------------------------------------------------------------------ scan

SCAN_SPEC = {
    "preset": (str, None, "preset name, e.g. fig4"),
    "Z": (float, None, "nuclear charge for a single point"),
    "rel": ATOM_SPEC["rel"],
    "F": (float, None, "field strength for a single point"),
    "zeta": (float, None, "intermediate switching parameter for a single point"),
}

POINT_KEYS = ("Z", "F", "zeta")


def cmd_scan(args, resolved: dict) -> int:
    if resolved["preset"] is not None:
        # a preset fixes its whole grid, so a point setting would only
        # mislabel the table's provenance header
        clash = [k for k in (*POINT_KEYS, "rel")
                 if resolved[k] is not None and resolved[k] is not False]
        if clash:
            raise ConfigError(f"preset {resolved['preset']!r} fixes its own grid; "
                              f"it cannot be combined with {', '.join(clash)}")
        try:
            table = run_preset(resolved["preset"])
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
        # the preset fixes Z, F, zeta and rel itself: its name is the provenance
        echo = {"preset": resolved["preset"]}
    elif resolved["Z"] is not None and resolved["F"] is not None:
        fixed = {k: resolved[k] for k in POINT_KEYS if resolved[k] is not None}
        grid = ScanGrid(fixed=fixed, axes=(), relativistic=resolved["rel"])
        table = run_scan(grid)
        echo = resolved
    else:
        raise ConfigError("need either preset=<name> or both Z and F")

    emit = dict(fmt=args.format, header_comments=config_lines(echo),
                config=config_echo(echo))
    if args.out:
        path = resolve_out_path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        emit_table(table, dest=path, **emit)
        print(f"wrote {len(table)} rows to {path}", file=sys.stderr)
    else:
        sys.stdout.write(emit_table(table, **emit))
        print(f"{len(table)} rows", file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------- zeta-qs

ZETA_SPEC = {
    **ATOM_SPEC,
    "F": (float, None, "field strength; omit for the small-field limit"),
    "thick": (bool, False, "thick-barrier variant (needs F)"),
}


def _window(system, fields) -> dict:
    return {
        "Ip": system.Ip,
        "F_a": fields.f_atomic,
        "F_c": fields.f_crit,
        "F_zeta1": fields.f_zeta1,
        "window_nonempty": fields.window_nonempty,
    }


def cmd_zeta_qs(args, resolved: dict) -> int:
    f = resolved["F"]
    if resolved["thick"] and f is None:
        raise ConfigError("thick needs F: the small-field limit has no "
                          "thick-barrier variant")
    system = _system_from(resolved)
    mode = "smallF" if f is None else ("thick" if resolved["thick"] else "exact")
    root = zeta_qs(system, f, mode=mode)
    fields = critical_fields(system)

    payload = {"mode": mode, **_window(system, fields)}
    lines = [f"Z = {system.Z:g}  Zeff = {system.Zeff:g}  mode = {mode}",
             f"window: F_c = {fields.f_crit:.10g}  F_a = {fields.f_atomic:.10g}  "
             f"nonempty = {_fmt_value(fields.window_nonempty)}"]
    if fields.f_zeta1 is not None:
        lines.append(f"F_zeta1 = {fields.f_zeta1:.10g}")
    if root is None:
        # Q is monotone in zeta, so the mode's own Q at one zeta decides the
        # side; Q(0) grows without bound as F -> 0, so smallF is subluminal
        superluminal = f is not None and q_imed_b(system, f, 0.5, thick=resolved["thick"]) < 1.0
        side = "superluminal" if superluminal else "subluminal"
        payload["zeta_qs"] = None
        payload["verdict"] = f"{side} for all zeta in [0, 1]"
        lines.append(f"no root: {payload['verdict']}")
    else:
        payload["zeta_qs"] = root.zeta
        payload["residual"] = root.residual
        payload["method"] = root.method
        lines.append(f"zeta_QS = {root.zeta:.10g}  (|Q-1| = {root.residual:.3e}, "
                     f"{root.method})")
    return print_report(args, resolved, payload, lines)


# -------------------------------------------------------- critical-fields

CRIT_SPEC = ATOM_SPEC


def cmd_critical_fields(args, resolved: dict) -> int:
    system = _system_from(resolved)
    fields = critical_fields(system)
    lines = [f"Z = {system.Z:g}  Zeff = {system.Zeff:g}  "
             f"relativistic = {_fmt_value(system.relativistic)}",
             f"Ip      = {system.Ip:.10g} a.u.",
             f"F_a     = {_intensity_note(fields.f_atomic)}",
             f"F_c     = {_intensity_note(fields.f_crit)}",
             f"F_zeta1 = {_intensity_note(fields.f_zeta1)}"
             if fields.f_zeta1 is not None
             else "F_zeta1 = none (adiabatic end never crosses Q = 1)",
             f"window nonempty: {_fmt_value(fields.window_nonempty)}"]
    return print_report(args, resolved, _window(system, fields), lines)


# ------------------------------------------------------------------ tdse

TDSE_SPEC = {
    **ATOM_SPEC,
    "rel": (bool, False, "not supported: the TDSE uses only Zeff (exit 2)"),
    "F0": (float, ..., "field-strength parameter F0 (peak field F0/sqrt(1+eps^2))"),
    "omega": (float, ..., "carrier frequency (a.u.)"),
    "ellipticity": (float, 1.0, None),
    "carrier_phase": (float, 0.0, None),
    "l_max": (int, 8, None),
    "dr": (float, 0.1, None),
    "r_max": (float, 60.0, None),
    "dt": (float, None, None),
    "tol": (float, DEFAULT_TOL, None),
    "max_channels": (int, DEFAULT_MAX_CHANNELS, None),
    "p_min": (float, 0.05, None),
    "p_max": (float, 2.5, None),
    "n_p": (int, 200, None),
    "n_phi": (int, 720, None),
    "checkpoint_every": (int, 0, None),
}


def cmd_tdse(args, resolved: dict) -> int:
    if resolved["rel"]:
        raise ConfigError("rel = true changes nothing here: the TDSE uses only "
                          "Zeff, not the relativistic ionization potential")
    grid = RadialGrid(dr=resolved["dr"], r_max=resolved["r_max"])
    # checked here so --dry-run catches what would fail only after propagating
    _wkb_window(grid)
    for key, ok, need in (
            ("n_p", resolved["n_p"] >= 2, ">= 2"),
            ("p_min", resolved["p_min"] > 0.0, "positive"),
            ("p_max", resolved["p_max"] > resolved["p_min"], "above p_min"),
            ("n_phi", resolved["n_phi"] >= 8, ">= 8"),
            ("p_max", resolved["p_max"] < _band_edge(grid),
             f"below the lattice band edge 2/dr = {_band_edge(grid):g}")):
        if not ok:
            raise ConfigError(f"{key} must be {need}, got {resolved[key]!r}")
    p = np.linspace(resolved["p_min"], resolved["p_max"], resolved["n_p"])
    if not np.all(np.diff(p) > 0.0):
        raise ConfigError("p_min, p_max and n_p must give strictly increasing momenta, "
                          f"got {resolved['p_min']!r}, {resolved['p_max']!r}, {resolved['n_p']}")
    system = _system_from(resolved)
    pulse = PulseParams(F0=resolved["F0"], omega=resolved["omega"],
                        ellipticity=resolved["ellipticity"],
                        carrier_phase=resolved["carrier_phase"])
    if resolved["dt"] is None:
        resolved["dt"] = default_dt(system.Zeff)

    plan = {k: resolved[k] for k in ("l_max", "dt", "tol", "max_channels", "checkpoint_every")}
    n_steps, n_channels, warnings = plan_run(system, grid, pulse, **plan)
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
    # a run that ends without ionization, fails or is refused leaves no earlier run's outputs
    for name in ("tdse_report.json", "tdse_momentum.csv", "tdse_angular.csv",
                 "tdse_checkpoint.npz"):
        (out_dir / name).unlink(missing_ok=True)

    t_start = time.perf_counter()
    result = run_pulse(system, grid, pulse, **plan,
                       checkpoint_path=out_dir / "tdse_checkpoint.npz")
    t_propagated = time.perf_counter()
    # its warnings start with the plan's, printed above
    for w in result.warnings[len(warnings):]:
        print(f"warning: {w}", file=sys.stderr)
    print(f"propagation: {result.steps} steps, "
          f"norm {result.norm_initial:.12g} -> {result.norm_final:.12g}, "
          f"max per-step drift {result.max_step_norm_drift:.3e}, "
          f"max defect {result.max_defect:.3e}")

    t_readout = time.perf_counter()
    amps, dist, ang, offset = attoclock_readout(
        result.state, system, pulse, p, default_phi_grid(resolved["n_phi"]))
    t_read = time.perf_counter()
    total = amps.total_ionized()
    report = {"config": config_echo(resolved),
              **{k: v for k, v in vars(result).items() if k != "state"},
              "bound_removed": amps.bound_removed, "total_ionized": total}

    if offset is None:
        report.update(no_ionization=True, theta=None, tau_au=None, tau_as=None)
        print("no ionization: offset angle and delay are undefined")
    else:
        report.update(no_ionization=False, theta=offset.theta, tau_au=offset.tau,
                      tau_as=offset.tau_as, phi_peak=offset.phi_peak,
                      multimodal=offset.multimodal, secondary_ratio=offset.secondary_ratio)

        comments = config_lines(resolved)
        # one row per (p, phi) point, p slowest, filled in place
        momentum = np.empty(dist.density.shape, [("p", "f8"), ("phi", "f8"), ("density", "f8")])
        momentum["p"] = dist.p[:, None]
        momentum["phi"] = dist.phi
        momentum["density"] = dist.density
        emit_table(momentum.reshape(-1), dest=out_dir / "tdse_momentum.csv", header_comments=[
            *comments, "columns: p, phi, density; phi from +x axis; "
            "density rescaled so sum P p dp dphi = ionized probability"])
        angular = np.rec.fromarrays([ang.phi, ang.values], names="phi,P")
        emit_table(angular, dest=out_dir / "tdse_angular.csv", header_comments=[
            *comments, "columns: phi, P; theta measured from -y toward +x; tau = theta/omega"])
        print(f"ionized fraction = {total:.6g} "
              f"(bound removed = {amps.bound_removed:.6g})")
        flag = "  [multimodal]" if offset.multimodal else ""
        print(f"offset angle theta = {offset.theta:.6g} rad{flag}")
        print(f"delay tau = {_au_as(offset.tau)}")

    # wall times of the run's phases; write_s is the two CSVs
    report["timings"] = {"propagate_s": t_propagated - t_start,
                         "readout_s": t_read - t_readout,
                         "write_s": time.perf_counter() - t_read}
    _write_json(out_dir / "tdse_report.json", _jsonable(report))
    print(f"wrote {out_dir / 'tdse_report.json'}", file=sys.stderr)
    return EXIT_OK


# ------------------------------------------------------------------ main

# name, help, settings table, handler, --format choices (first = default; none: no flag)
COMMANDS = (
    ("delays", "tunneling delays and quotients at one (Z, F)",
     DELAYS_SPEC, cmd_delays, ("text", "json")),
    ("scan", "figure-preset or single-point parameter scan",
     SCAN_SPEC, cmd_scan, ("csv", "json")),
    ("zeta-qs", "superluminality switching point zeta_QS",
     ZETA_SPEC, cmd_zeta_qs, ("text", "json")),
    ("critical-fields", "F_a, F_c and F_zeta1 for one atom",
     CRIT_SPEC, cmd_critical_fields, ("text", "json")),
    ("tdse", "propagate a pulse and extract the attoclock delay",
     TDSE_SPEC, cmd_tdse, ()),
)

# the one flag not named after its key
FLAG_NAMES = {"F0": "--F"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunnelqs",
        description="Tunneling time delays, superluminality quotients, and "
                    "attoclock observables for hydrogen-like atoms in strong "
                    "fields (atomic units in, a.u. + attoseconds out).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, spec, handler, formats in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for key, (typ, _, flag_help) in spec.items():
            if flag_help is None:
                continue
            flag = FLAG_NAMES.get(key, f"--{key}")
            if typ is bool:
                p.add_argument(flag, dest=key, action="store_true", default=None,
                               help=flag_help)
            else:
                p.add_argument(flag, dest=key, type=typ, help=flag_help)
        p.add_argument("--out", help="output path (TUNNELQS_OUT_DIR honored)")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(handler=handler, spec=spec)
    sub.choices["tdse"].add_argument(
        "--dry-run", action="store_true",
        help="validate and print the plan without propagating")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, resolve_settings(args, args.spec))
    except (ConfigError, OSError) as exc:   # OSError: writing --out
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # BarrierSuppressionError among them
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ArithmeticError as exc:  # PropagationError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

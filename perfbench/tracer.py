"""In-memory span tracer that instruments tunnelqs from the outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` looks
up each target in ``TARGETS`` (a module function or a class method),
replaces it with a timing wrapper in every ``tunnelqs`` module that binds
the same object, and ``Tracer.uninstall`` puts the originals back.  A
target that no longer exists is recorded in ``Tracer.absent`` and the
metrics that depend on it are left out rather than failing the run.

Spans are kept in flat arrays (name id, start, end, parent index) and
written out with ``Tracer.dump``.  ``layer_metrics`` turns one traced
operation's spans and counters into the per-layer metrics named in
``BENCHMARK.json``; a span's self time is its duration minus the time of
its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import sys
import time
from array import array
from collections import defaultdict

ITER_HIST_BINS = 7          # tdse.iter_hist.1 .. .7, then .8plus

# (dotted target, span name).  A dotted target is module[.Class].attr.
TARGETS = (
    ("tunnelqs.cli.main", "cli.main"),
    ("tunnelqs.tdse.run_pulse", "tdse.run_pulse"),
    ("tunnelqs.tdse.build_ground_state", "tdse.ground_state"),
    ("tunnelqs.tdse.Propagator.__init__", "tdse.propagator_init"),
    ("tunnelqs.tdse.Propagator.step", "tdse.step"),
    ("tunnelqs.tdse.Propagator.apply_interaction", "tdse.apply_interaction"),
    ("tunnelqs.tdse.Propagator.apply_atomic", "tdse.apply_atomic"),
    ("tunnelqs.tdse.Propagator._solve_implicit", "tdse.solve"),
    ("tunnelqs.tdse.WavefunctionState.norm", "tdse.norm"),
    ("tunnelqs.tdse.save_checkpoint", "tdse.checkpoint_write"),
    ("tunnelqs.tdse.load_checkpoint", "tdse.checkpoint_read"),
    ("tunnelqs.spectra.project_scattering_states", "spectra.project"),
    ("tunnelqs.spectra.remove_bound", "spectra.remove_bound"),
    ("tunnelqs.spectra.bound_states", "spectra.bound_states"),
    ("tunnelqs.spectra.continuum_waves", "spectra.continuum_waves"),
    ("tunnelqs.spectra.momentum_distribution", "spectra.ylm_sum"),
    ("tunnelqs.spectra.radial_integrate", "spectra.radial_integrate"),
    ("tunnelqs.spectra.offset_angle_and_delay", "spectra.offset"),
    ("tunnelqs.scan.preset_grids", "scan.preset_grids"),
    ("tunnelqs.scan.run_scan", "scan.evaluate"),
    ("tunnelqs.scan.emit_table", "scan.emit"),
    ("tunnelqs.atomic.barrier_geometry", "atomic.barrier_geometry"),
    ("tunnelqs.atomic.delay_set", "atomic.delay_set"),
    ("tunnelqs.superluminal.zeta_qs", "superluminal.zeta_qs"),
    ("tunnelqs.superluminal.critical_fields", "superluminal.critical_fields"),
)

# per-layer metric -> (unit, spans it needs)
LAYER_METRICS = {
    "tdse.apply_interaction_s": ("s", ("tdse.apply_interaction",)),
    "tdse.apply_interaction_calls": ("count", ("tdse.apply_interaction",)),
    "tdse.solve_s": ("s", ("tdse.solve",)),
    "tdse.solve_calls": ("count", ("tdse.solve",)),
    "tdse.apply_atomic_s": ("s", ("tdse.apply_atomic",)),
    "tdse.norm_s": ("s", ("tdse.norm",)),
    "tdse.step_self_s": ("s", ("tdse.step", "tdse.apply_interaction",
                               "tdse.apply_atomic", "tdse.solve")),
    "tdse.steps": ("count", ("tdse.step",)),
    "tdse.iterations_total": ("count", ("tdse.step",)),
    "tdse.iterations_max": ("count", ("tdse.step",)),
    **{f"tdse.iter_hist.{k}": ("count", ("tdse.step",))
       for k in range(1, ITER_HIST_BINS + 1)},
    f"tdse.iter_hist.{ITER_HIST_BINS + 1}plus": ("count", ("tdse.step",)),
    "tdse.step_ms_p50": ("ms", ("tdse.step",)),
    "tdse.step_ms_p98": ("ms", ("tdse.step",)),
    "tdse.ground_state_s": ("s", ("tdse.ground_state",)),
    "tdse.propagator_init_s": ("s", ("tdse.propagator_init",)),
    "tdse.checkpoint_write_s": ("s", ("tdse.checkpoint_write",)),
    "tdse.checkpoint_read_s": ("s", ("tdse.checkpoint_read",)),
    "tdse.psi_bytes": ("bytes", ("tdse.ground_state", "tdse.checkpoint_read")),
    "tdse.max_defect": ("1", ("tdse.run_pulse",)),
    "tdse.norm_drift": ("1", ("tdse.run_pulse",)),
    "tdse.minor_faults": ("count", ("tdse.run_pulse",)),
    "spectra.continuum_waves_s": ("s", ("spectra.continuum_waves",)),
    "spectra.continuum_waves_calls": ("count", ("spectra.continuum_waves",)),
    "spectra.numerov_points": ("count", ("spectra.continuum_waves",)),
    "spectra.remove_bound_s": ("s", ("spectra.remove_bound",)),
    "spectra.bound_states_s": ("s", ("spectra.bound_states",)),
    "spectra.project_self_s": ("s", ("spectra.project", "spectra.remove_bound",
                                     "spectra.continuum_waves")),
    "spectra.ylm_sum_s": ("s", ("spectra.ylm_sum",)),
    "spectra.radial_integrate_s": ("s", ("spectra.radial_integrate",)),
    "spectra.offset_s": ("s", ("spectra.offset",)),
    "scan.preset_grids_s": ("s", ("scan.preset_grids",)),
    "scan.evaluate_s": ("s", ("scan.evaluate",)),
    "scan.emit_csv_s": ("s", ("scan.emit",)),
    "scan.emit_json_s": ("s", ("scan.emit",)),
    "scan.csv_bytes": ("bytes", ("scan.emit",)),
    "scan.json_bytes": ("bytes", ("scan.emit",)),
    "scan.rows": ("count", ("scan.evaluate",)),
    "scan.rows_suppressed": ("count", ("scan.evaluate",)),
    "scan.rows_inverted": ("count", ("scan.evaluate",)),
    "atomic.barrier_geometry_calls_per_row": ("1", ("atomic.barrier_geometry",
                                                    "scan.evaluate")),
    "atomic.barrier_geometry_s": ("s", ("atomic.barrier_geometry",)),
    "atomic.delay_set_s": ("s", ("atomic.delay_set",)),
    "superluminal.zeta_qs_s": ("s", ("superluminal.zeta_qs",)),
    "superluminal.zeta_qs_bisection_frac": ("1", ("superluminal.zeta_qs",)),
    "superluminal.critical_fields_s": ("s", ("superluminal.critical_fields",)),
    "cli.dispatch_s": ("s", ("cli.main",)),
}


def _resolve(dotted: str):
    """(owner, attr) for module.attr or module.Class.attr, or None."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if hasattr(owner, parts[-1]):
            return owner, parts[-1]
        return None
    return None


class Tracer:
    """Spans and counters for one traced operation at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.absent: dict[str, str] = {}
        self.reset()

    def reset(self) -> None:
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.iterations = array("i")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span_name: str, on_return=None):
        nid = self._id(span_name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.kind.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self._stack.append(idx)
            self.start.append(clock())
            self.end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if on_return is not None:
                try:
                    on_return(result, args, kwargs)
                except (AttributeError, TypeError, IndexError, KeyError) as exc:
                    # the function changed shape; its metrics become absent
                    self.absent.setdefault(span_name, f"cannot read the result of "
                                                      f"{span_name}: {exc!r}")
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_emit(self, fn):
        """emit_table gets one span name per output format."""
        csv_fn = self.wrap(fn, "scan.emit_csv", self._count_bytes("scan.csv_bytes"))
        json_fn = self.wrap(fn, "scan.emit_json", self._count_bytes("scan.json_bytes"))

        def traced(records, fmt="csv", *args, **kwargs):
            chosen = json_fn if fmt == "json" else csv_fn
            return chosen(records, fmt, *args, **kwargs)

        return traced

    def _count_faults(self, fn, key: str):
        """Minor page faults of the process while ``fn`` runs."""
        def counted(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            try:
                return fn(*args, **kwargs)
            finally:
                after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                self.counts[key] += after - before
        return counted

    def _count_bytes(self, key: str):
        def hook(result, args, kwargs):
            if isinstance(result, str):
                self.counts[key] += len(result.encode())
        return hook

    # ------------------------------------------------------------ hooks

    def _on_step(self, result, args, kwargs):
        self.iterations.append(int(result[0]))

    def _on_run_pulse(self, result, args, kwargs):
        self.counts["tdse.max_defect"] = max(self.counts["tdse.max_defect"],
                                             float(result.max_defect))
        drift = abs(float(result.norm_final) - float(result.norm_initial))
        self.counts["tdse.norm_drift"] = max(self.counts["tdse.norm_drift"], drift)

    def _psi_bytes(self, state):
        self.counts["tdse.psi_bytes"] = max(self.counts["tdse.psi_bytes"],
                                            float(state.psi.nbytes))

    def _on_ground_state(self, result, args, kwargs):
        self._psi_bytes(result[0])

    def _on_checkpoint_read(self, result, args, kwargs):
        self._psi_bytes(result[0])

    def _on_continuum(self, result, args, kwargs):
        self.counts["spectra.numerov_points"] += float(result.size)

    def _on_run_scan(self, result, args, kwargs):
        self.counts["scan.rows"] += len(result)
        self.counts["scan.rows_suppressed"] += sum(
            int(r["barrier_suppressed"]) for r in result)
        self.counts["scan.rows_inverted"] += sum(int(r["band_inverted"]) for r in result)

    def _on_zeta_qs(self, result, args, kwargs):
        if result is not None:
            self.counts["zeta_qs.roots"] += 1
            if result.method == "bisection":
                self.counts["zeta_qs.bisection"] += 1

    # ---------------------------------------------------- install/remove

    def install(self) -> None:
        hooks = {
            "tdse.step": self._on_step,
            "tdse.run_pulse": self._on_run_pulse,
            "tdse.ground_state": self._on_ground_state,
            "tdse.checkpoint_read": self._on_checkpoint_read,
            "spectra.continuum_waves": self._on_continuum,
            "scan.evaluate": self._on_run_scan,
            "superluminal.zeta_qs": self._on_zeta_qs,
        }
        resolved = [(dotted, span, _resolve(dotted)) for dotted, span in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tunnelqs" or n.startswith("tunnelqs."))]
        for dotted, span, found in resolved:
            if found is None:
                self.absent[span] = f"{dotted} not found"
                continue
            owner, attr = found
            original = getattr(owner, attr)
            if span == "scan.emit":
                wrapper = self.wrap_emit(original)
            elif span == "tdse.run_pulse":
                wrapper = self.wrap(self._count_faults(original, "tdse.minor_faults"),
                                    span, hooks[span])
            else:
                wrapper = self.wrap(original, span, hooks.get(span))
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # rebind the name in every module that imported the same object
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ output

    def span_table(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        table: dict = {}
        for i in range(n):
            row = table.setdefault(self.names[self.kind[i]],
                                   {"calls": 0, "s": 0.0, "self_s": 0.0, "durs": []})
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            row["durs"].append(dur[i])
        return table

    def snapshot(self) -> dict:
        """The raw spans as plain lists: names, and (name id, start, end,
        parent index) per span."""
        return {"names": list(self.names),
                "spans": [[self.kind[i], self.start[i], self.end[i], self.parent[i]]
                          for i in range(len(self.start))]}


def write_spans(path, snapshots: list[dict]) -> None:
    """One JSON line per traced operation."""
    with open(path, "w") as fh:
        for snap in snapshots:
            fh.write(json.dumps(snap) + "\n")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans and counters recorded since reset.

    A layer that did no work in this operation reads 0; metrics whose
    spans could not be installed are left out (see ``absent_metrics``).
    """
    table = tracer.span_table()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durs": []}

    def span(name):
        return table.get(name, empty)

    c = tracer.counts
    its = list(tracer.iterations)
    hist = {f"tdse.iter_hist.{k}": float(its.count(k))
            for k in range(1, ITER_HIST_BINS + 1)}
    hist[f"tdse.iter_hist.{ITER_HIST_BINS + 1}plus"] = float(
        sum(1 for v in its if v > ITER_HIST_BINS))
    steps = span("tdse.step")
    step_children = sum(span(n)["s"] for n in ("tdse.apply_interaction",
                                               "tdse.apply_atomic", "tdse.solve"))
    rows = c["scan.rows"]
    roots = c["zeta_qs.roots"]
    out = {
        "tdse.apply_interaction_s": span("tdse.apply_interaction")["s"],
        "tdse.apply_interaction_calls": float(span("tdse.apply_interaction")["calls"]),
        "tdse.solve_s": span("tdse.solve")["s"],
        "tdse.solve_calls": float(span("tdse.solve")["calls"]),
        "tdse.apply_atomic_s": span("tdse.apply_atomic")["s"],
        "tdse.norm_s": span("tdse.norm")["s"],
        # children of a step are only the three kernels: step calls nothing else
        "tdse.step_self_s": steps["s"] - step_children,
        "tdse.steps": float(steps["calls"]),
        "tdse.iterations_total": float(sum(its)),
        "tdse.iterations_max": float(max(its, default=0)),
        **hist,
        "tdse.step_ms_p50": 1e3 * _percentile(steps["durs"], 50),
        "tdse.step_ms_p98": 1e3 * _percentile(steps["durs"], 98),
        "tdse.ground_state_s": span("tdse.ground_state")["s"],
        "tdse.propagator_init_s": span("tdse.propagator_init")["s"],
        "tdse.checkpoint_write_s": span("tdse.checkpoint_write")["s"],
        "tdse.checkpoint_read_s": span("tdse.checkpoint_read")["s"],
        "tdse.psi_bytes": c["tdse.psi_bytes"],
        "tdse.max_defect": c["tdse.max_defect"],
        "tdse.norm_drift": c["tdse.norm_drift"],
        "tdse.minor_faults": c["tdse.minor_faults"],
        "spectra.continuum_waves_s": span("spectra.continuum_waves")["s"],
        "spectra.continuum_waves_calls": float(span("spectra.continuum_waves")["calls"]),
        "spectra.numerov_points": c["spectra.numerov_points"],
        "spectra.remove_bound_s": span("spectra.remove_bound")["s"],
        "spectra.bound_states_s": span("spectra.bound_states")["s"],
        "spectra.project_self_s": span("spectra.project")["self_s"],
        "spectra.ylm_sum_s": span("spectra.ylm_sum")["s"],
        "spectra.radial_integrate_s": span("spectra.radial_integrate")["s"],
        "spectra.offset_s": span("spectra.offset")["s"],
        "scan.preset_grids_s": span("scan.preset_grids")["s"],
        "scan.evaluate_s": span("scan.evaluate")["s"],
        "scan.emit_csv_s": span("scan.emit_csv")["s"],
        "scan.emit_json_s": span("scan.emit_json")["s"],
        "scan.csv_bytes": c["scan.csv_bytes"],
        "scan.json_bytes": c["scan.json_bytes"],
        "scan.rows": rows,
        "scan.rows_suppressed": c["scan.rows_suppressed"],
        "scan.rows_inverted": c["scan.rows_inverted"],
        # 0 when the operation evaluated no scan rows
        "atomic.barrier_geometry_calls_per_row":
            span("atomic.barrier_geometry")["calls"] / rows if rows else 0.0,
        "atomic.barrier_geometry_s": span("atomic.barrier_geometry")["s"],
        "atomic.delay_set_s": span("atomic.delay_set")["s"],
        "superluminal.zeta_qs_s": span("superluminal.zeta_qs")["s"],
        # 0 when no root was found
        "superluminal.zeta_qs_bisection_frac":
            c["zeta_qs.bisection"] / roots if roots else 0.0,
        "superluminal.critical_fields_s": span("superluminal.critical_fields")["s"],
        "cli.dispatch_s": span("cli.main")["self_s"],
    }
    for name in absent_metrics(tracer):
        out.pop(name, None)
    return out


def absent_metrics(tracer: Tracer) -> dict[str, str]:
    """Metric -> reason, for metrics whose spans could not be installed."""
    out = {}
    for metric, (_, needs) in LAYER_METRICS.items():
        missing = [tracer.absent[s] for s in needs if s in tracer.absent]
        if missing:
            out[metric] = "; ".join(missing)
    return out

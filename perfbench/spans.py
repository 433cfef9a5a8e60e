"""Traced runs: wrappers around each layer's public names, and the
per-layer metrics computed from the spans they record.

`SPAN_MAP` declares, per layer, the module-level names wrapped at the
layer boundary. `Tracer.install` replaces every binding of each name in
the package's modules (``from .x import f`` copies included) and
`Tracer.uninstall` restores them. A declared name the package no longer
has is reported as unmapped; its metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

SPAN_MAP = {
    "cli": ("diffbeam.cli:main",),
    "bessel": ("diffbeam.bessel:bessel_j_table",),
    "modal": (
        "diffbeam.modal:build_modal_system",
        "diffbeam.modal:build_xi_matrix",
        "diffbeam.modal:build_psi_matrix",
    ),
    "solver": ("diffbeam.solver:design_filter", "diffbeam.solver:min_norm_solve"),
    "metrics": (
        "diffbeam.metrics:compute_metrics",
        "diffbeam.metrics:beampattern",
        "diffbeam.metrics:gain_curves",
        "diffbeam.metrics:magnitude_db",
        "diffbeam.metrics:power_db",
    ),
    "geometry": (
        "diffbeam.geometry:sample_random_geometry",
        "diffbeam.geometry:steering_vector",
    ),
    # _run_one is the only per-trial boundary the Monte Carlo module has
    "montecarlo": ("diffbeam.montecarlo:run_trials", "diffbeam.montecarlo:_run_one"),
    "patterns": (
        "diffbeam.patterns:resolve_pattern",
        "diffbeam.patterns:a_to_b",
        "diffbeam.patterns:apply_steering",
        "diffbeam.patterns:evaluate_target",
    ),
    "fileio": (
        "diffbeam.fileio:load_json",
        "diffbeam.fileio:load_geometry_file",
        "diffbeam.fileio:load_design",
        "diffbeam.fileio:save_geometry_file",
        "diffbeam.fileio:write_filter_csv",
        "diffbeam.fileio:write_design_manifest",
        "diffbeam.fileio:write_beampattern_csv",
        "diffbeam.fileio:write_wng_csv",
        "diffbeam.fileio:write_df_csv",
        "diffbeam.fileio:write_bp_stats_csv",
        "diffbeam.fileio:write_wng_stats_csv",
        "diffbeam.fileio:write_df_stats_csv",
        "diffbeam.fileio:write_failures_report",
    ),
}
FILE_READS = ("load_json", "load_geometry_file", "load_design")

# (name, unit, better); counts computed from call arguments rather than
# observed are listed in COMPUTED
PER_LAYER = (
    ("bessel.table_calls", "count", "lower"),
    ("bessel.busy_ms", "ms", "lower"),
    ("modal.systems_built", "count", "lower"),
    ("modal.self_ms", "ms", "lower"),
    ("modal.ms_per_system", "ms", "lower"),
    ("solver.systems_solved", "count", "lower"),
    ("solver.refused", "count", "lower"),
    ("solver.solve_ms", "ms", "lower"),
    ("solver.design_self_ms", "ms", "lower"),
    ("metrics.beampattern_ms", "ms", "lower"),
    ("metrics.gain_curves_ms", "ms", "lower"),
    ("metrics.beampattern_points", "count", "lower"),
    ("metrics.df_exp_count", "count", "lower"),
    ("geometry.sample_calls", "count", "lower"),
    ("geometry.sample_ms", "ms", "lower"),
    ("geometry.steering_ms", "ms", "lower"),
    ("montecarlo.trial_ms", "ms", "lower"),
    ("montecarlo.reduce_ms", "ms", "lower"),
    ("montecarlo.queue_wait_ms", "ms", "lower"),
    ("montecarlo.worker_busy_share", "ratio", "higher"),
    ("montecarlo.scaling_efficiency", "ratio", "higher"),
    ("fileio.read_ms", "ms", "lower"),
    ("fileio.write_ms", "ms", "lower"),
    ("fileio.bytes_written", "B", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("patterns.ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unmapped", "count", "lower"),
)
COMPUTED = ("metrics.beampattern_points", "metrics.df_exp_count")


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    layer: str
    call: object
    start: float
    end: float = 0.0
    error: str | None = None
    extra: dict | None = None


def _path_argument(bound) -> str | None:
    for value in bound.arguments.values():
        if isinstance(value, (str, os.PathLike)):
            return os.fspath(value)
    return None


def _beampattern_points(bound, _result) -> dict:
    return {"points": int(np.size(bound.arguments["theta"]))}


def _df_exp_count(bound, _result) -> dict:
    args = bound.arguments
    grid_points = args["filt"].grid.count
    return {"exps": grid_points * args["geometry"].size * int(args["integration_points"])}


def _bytes_written(bound, _result) -> dict:
    path = _path_argument(bound)
    return {"bytes": os.path.getsize(path) if path else 0}


class Tracer:
    """Span recorder. One closed-loop client drives it, so at most one CLI
    call is in flight; Monte Carlo pool threads attach their top-level spans
    to the span the main thread has open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call: object = None
        self.unmapped: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_top: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {"beampattern": _beampattern_points, "gain_curves": _df_exp_count}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, layer: str, fn):
        hook = self._hooks.get(name)
        if hook is None and name.startswith(("write_", "save_")):
            hook = _bytes_written
        signature = inspect.signature(fn) if hook else None
        is_main = threading.current_thread

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            on_main = is_main() is self._main
            parent = stack[-1] if stack else (None if on_main else self._main_top)
            span = Span(next(self._ids), parent, name, layer, self.call, time.perf_counter())
            stack.append(span.sid)
            if on_main:
                self._main_top = span.sid
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if on_main:
                    self._main_top = stack[-1] if stack else None
                self.spans.append(span)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.extra = hook(bound, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "diffbeam"]
        for layer, names in SPAN_MAP.items():
            for qualified in names:
                module_name, name = qualified.split(":")
                original = getattr(importlib.import_module(module_name), name, None)
                if original is None:
                    self.unmapped.append(qualified)
                    continue
                wrapper = self._wrap(name, layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()


def _self_ms(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of child intervals, per span id, in ms."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = 1e3 * (span.end - span.start - covered)
    return out


def layer_metrics(
    spans: list[Span],
    calls: int,
    workers: int,
    overhead_share: float,
    unmapped: list[str],
    scaling_efficiency: float,
) -> dict[str, float]:
    """Per-layer metrics, per CLI call unless the name says otherwise."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    self_ms = _self_ms(spans)
    per_call = 1.0 / max(calls, 1)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def total_ms(items):
        return 1e3 * sum(s.end - s.start for s in items)

    def layer_self(layer):
        return sum(self_ms[s.sid] for s in spans if s.layer == layer)

    def extra(name, key):
        return sum((s.extra or {}).get(key, 0) for s in by_name.get(name, ()))

    reads = named(*FILE_READS)
    read_ids = {s.sid for s in reads}
    writes = [s for s in spans if s.layer == "fileio" and s.sid not in read_ids]
    outer_reads = [s for s in reads if s.parent not in read_ids]
    solves = named("min_norm_solve")
    systems = named("build_modal_system")

    trials = named("_run_one")
    studies = named("run_trials")
    trial_ms = [1e3 * (s.end - s.start) for s in trials]
    reduce_ms, waits, busy, capacity = [], [], 0.0, 0.0
    for study in studies:
        own = [t for t in trials if t.parent == study.sid]
        if not own:
            continue
        reduce_ms.append(1e3 * (study.end - max(t.end for t in own)))
        waits.extend(1e3 * (t.start - study.start) for t in own)
        busy += sum(t.end - t.start for t in own)
        capacity += min(workers, len(own)) * (study.end - study.start)
    return {
        "bessel.table_calls": per_call * len(named("bessel_j_table")),
        "bessel.busy_ms": per_call * total_ms(named("bessel_j_table")),
        "modal.systems_built": per_call * len(systems),
        "modal.self_ms": per_call * layer_self("modal"),
        "modal.ms_per_system": total_ms(systems) / len(systems) if systems else 0.0,
        "solver.systems_solved": per_call * sum(s.error is None for s in solves),
        "solver.refused": per_call * sum(s.error == "RankDeficientSystemError" for s in solves),
        "solver.solve_ms": per_call * total_ms(solves),
        "solver.design_self_ms": per_call * sum(self_ms[s.sid] for s in named("design_filter")),
        "metrics.beampattern_ms": per_call * total_ms(named("beampattern")),
        "metrics.gain_curves_ms": per_call * total_ms(named("gain_curves")),
        "metrics.beampattern_points": per_call * extra("beampattern", "points"),
        "metrics.df_exp_count": per_call * extra("gain_curves", "exps"),
        "geometry.sample_calls": per_call * len(named("sample_random_geometry")),
        "geometry.sample_ms": per_call * total_ms(named("sample_random_geometry")),
        "geometry.steering_ms": per_call * total_ms(named("steering_vector")),
        "montecarlo.trial_ms": float(np.median(trial_ms)) if trial_ms else 0.0,
        "montecarlo.reduce_ms": float(np.median(reduce_ms)) if reduce_ms else 0.0,
        "montecarlo.queue_wait_ms": float(np.mean(waits)) if waits else 0.0,
        "montecarlo.worker_busy_share": busy / capacity if capacity else 0.0,
        "montecarlo.scaling_efficiency": scaling_efficiency,
        "fileio.read_ms": per_call * total_ms(outer_reads),
        "fileio.write_ms": per_call * total_ms(writes),
        "fileio.bytes_written": per_call * sum((s.extra or {}).get("bytes", 0) for s in writes),
        "cli.self_ms": per_call * layer_self("cli"),
        "patterns.ms": per_call * layer_self("patterns"),
        "trace.overhead_share": overhead_share,
        "trace.unmapped": float(len(unmapped)),
    }


def span_table(spans: list[Span], calls: int) -> dict[str, dict]:
    """Count, total and self time per wrapped name, per call."""
    self_ms = _self_ms(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(
            f"{span.layer}.{span.name}", {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        row["count"] += 1
        row["total_ms"] += 1e3 * (span.end - span.start)
        row["self_ms"] += self_ms[span.sid]
    per_call = 1.0 / max(calls, 1)
    return {
        key: {k: round(v * per_call, 6) for k, v in row.items()}
        for key, row in sorted(table.items())
    }

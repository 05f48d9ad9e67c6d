"""Benchmark-side spans around the calls into each layer of ``repro``.

The traced run attributes wall time to the repository's modules without
changing them: :class:`Tracer` replaces the public functions and methods
listed in :data:`CAMPAIGN_HOOKS` / :data:`SERVICE_HOOKS` with wrappers that
record one span per call (layer, name, thread, start, end, parent span), and
puts the originals back on :meth:`Tracer.uninstall`.  Spans stay in memory
until the run ends.

A layer's *self time* is its spans' duration minus the part covered by their
child spans.  Wall time covered by no span at all is reported as its own
``unattributed`` row rather than hidden.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

_METRIC_FUNCTIONS = ("average_dcdt", "average_sd", "max_visiting_interval")

#: ``(module, attribute path, layer, span name)`` wrapped in every traced run.
#: A function imported by name into another module is wrapped at each place
#: it is looked up, because that is where the caller finds it.
CAMPAIGN_HOOKS = (
    ("repro.runner.campaign", "Campaign.run", "runner", "campaign"),
    ("repro.runner.campaign", "Campaign.cells", "runner", "expand"),
    ("repro.runner.campaign", "execute_many", "runner", "execute_many"),
    ("repro.runner.campaign", "execute_run", "runner", "execute_run"),
    ("repro.runner.campaign", "build_cell_scenario", "scenarios", "scenario"),
    ("repro.scenarios.spec", "ScenarioSpec.build", "scenarios", "build"),
    ("repro.sim.batchpath", "batch_execute_records", "sim.batchpath", "batch"),
    ("repro.sim.engine", "PatrolSimulator.run", "sim.engine", "simulate"),
    ("repro.sim.fastpath", "run_fast_path", "sim.fastpath", "fastpath"),
    ("repro.sim.metrics", "per_target_sd", "sim.metrics", "per_target_sd"),
    *[(module, name, "sim.metrics", name)
      for module in ("repro.runner.campaign", "repro.sim.batchpath", "repro.sim.metrics")
      for name in _METRIC_FUNCTIONS],
    ("repro.runner.campaign", "run_fingerprint", "store", "fingerprint"),
    ("repro.store", "run_fingerprint", "store", "fingerprint"),
    ("repro.store.store", "ResultStore.get", "store", "get"),
    ("repro.store.store", "ResultStore.get_entry", "store", "get"),
    ("repro.store.store", "ResultStore.put", "store", "put"),
)

#: Extra hooks for the daemon: admission, and the cell runner the scheduler
#: binds when it is constructed (so these must be installed before that).
SERVICE_HOOKS = CAMPAIGN_HOOKS + (
    ("repro.service.scheduler", "run_fingerprint", "store", "fingerprint"),
    ("repro.service.scheduler", "ServiceScheduler.submit", "service", "submit"),
    ("repro.service.scheduler", "execute_cell", "runner", "execute_cell"),
)


def add_counters(rows, into: dict) -> None:
    """Add obs counter rows (``{name, labels, value}``) into ``name{k=v,...}`` totals."""
    for row in rows:
        labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
        key = f"{row['name']}{{{labels}}}"
        into[key] = into.get(key, 0) + row["value"]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@functools.lru_cache(maxsize=1)
def _planner_classes() -> tuple:
    """The classes defining ``plan`` for every registered strategy.

    Planners are wrapped at the class, so every planner instance, wherever it
    was made, is traced while the hooks are installed and none is after.
    """
    from repro.baselines.base import available_strategies, get_strategy

    classes = set()
    for name in available_strategies(include_aliases=False):
        try:
            planner = get_strategy(name)
        except (TypeError, ValueError):  # strategies that need parameters
            continue
        classes.update(k for k in type(planner).__mro__ if "plan" in vars(k))
    return tuple(sorted(classes, key=lambda k: (k.__module__, k.__qualname__)))


class Tracer:
    """Records spans from wrapped calls; install/uninstall can repeat."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, layer, name, thread, t0, t1)
        self.admitted: dict[str, float] = {}   # fingerprint -> submit() entry time
        self.cell_starts: list[tuple] = []     # (spec, start time) of executed cells
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, layer: str, name: str,
             on_exit: "Callable | None" = None) -> Callable:
        """``fn`` recording one span per call; ``on_exit(args, result, t0)`` runs after."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, layer, name, threading.get_ident(), t0, t1))
            if on_exit is not None:
                on_exit(args, result, t0)
            return result

        return traced

    def _note_admission(self, args, ticket, t0) -> None:
        for fingerprint in ticket.fingerprints():
            self.admitted.setdefault(fingerprint, t0)

    def _note_cell_start(self, args, result, t0) -> None:
        self.cell_starts.append((args[0], t0))

    # -- patching --------------------------------------------------------- #

    def install(self, hooks=CAMPAIGN_HOOKS) -> None:
        callbacks = {"submit": self._note_admission, "execute_cell": self._note_cell_start}
        for module_name, path, layer, name in hooks:
            owner, attr = _resolve(module_name, path)
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, name, callbacks.get(name)))
        for owner in _planner_classes():
            original = vars(owner)["plan"]
            self._saved.append((owner, "plan", original))
            setattr(owner, "plan", self.wrap(original, "planning", "plan"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------- #

    def queue_waits_ms(self) -> "list[float]":
        """Admission-to-start time of every executed cell the daemon admitted."""
        from repro.store import run_fingerprint

        waits = []
        for spec, started in self.cell_starts:
            admitted = self.admitted.get(run_fingerprint(spec))
            if admitted is not None:
                waits.append(max(0.0, started - admitted) * 1000.0)
        return waits

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (the span log of the run)."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, layer, name, thread, t0, t1 in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "layer": layer,
                                      "name": name, "thread": thread,
                                      "start_s": t0, "end_s": t1}) + "\n")


def _union_length(intervals: "list[tuple[float, float]]") -> float:
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def self_times(spans: "list[tuple]", windows: "list[tuple[float, float]]") -> dict:
    """Per-layer self time, per-span-name totals and the unattributed rest.

    ``spans`` are ``(id, parent, layer, name, thread, t0, t1)`` tuples;
    ``windows`` are the disjoint wall-clock intervals the table accounts
    for.  Returns ``{"self_s": {layer: s}, "name_self_s": {layer.name: s},
    "calls": {layer.name: n}, "unattributed_s": s, "window_s": s}``, where
    a span nested directly in a span of the same name is not counted as
    another call, and unattributed time is window time that no outermost
    span covers.
    """
    children: dict[int, list] = defaultdict(list)
    names = {}
    for span in spans:
        children[span[1]].append((span[5], span[6]))
        names[span[0]] = (span[2], span[3])
    self_s: dict[str, float] = defaultdict(float)
    name_self: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span_id, parent, layer, name, _thread, t0, t1 in spans:
        covered = _union_length([(max(a, t0), min(b, t1)) for a, b in children.get(span_id, ())
                                 if min(b, t1) > max(a, t0)])
        self_s[layer] += (t1 - t0) - covered
        name_self[f"{layer}.{name}"] += (t1 - t0) - covered
        if names.get(parent) != (layer, name):  # a call, not its own recursion
            calls[f"{layer}.{name}"] += 1
    windows = sorted(windows)
    starts = [w0 for w0, _w1 in windows]
    clipped = []
    for span in spans:
        if span[1] != 0:
            continue
        # Windows are disjoint and a span is shorter than the gaps between
        # them in practice, but clip against every window it may touch.
        i = max(0, bisect.bisect_right(starts, span[5]) - 1)
        while i < len(windows) and windows[i][0] < span[6]:
            lo, hi = max(span[5], windows[i][0]), min(span[6], windows[i][1])
            if hi > lo:
                clipped.append((lo, hi))
            i += 1
    window_s = sum(w1 - w0 for w0, w1 in windows)
    return {
        "self_s": dict(self_s),
        "name_self_s": dict(name_self),
        "calls": dict(calls),
        "unattributed_s": window_s - _union_length(clipped),
        "window_s": window_s,
    }


def format_table(table: dict) -> str:
    """The per-layer self-time table, largest first, unattributed last."""
    window = table["window_s"] or 1.0
    rows = sorted(table["self_s"].items(), key=lambda kv: -kv[1])
    lines = [f"{'layer':<16}{'self s':>10}{'share':>9}"]
    for layer, seconds in rows + [("unattributed", table["unattributed_s"])]:
        lines.append(f"{layer:<16}{seconds:>10.3f}{seconds / window:>9.1%}")
    lines.append(f"{'window':<16}{table['window_s']:>10.3f}")
    return "\n".join(lines)


FALLBACK_REASONS = ("batch-path-disabled", "max-visits", "custom-metrics", "tracked-energy",
                    "fastpath-fast-path-disabled", "fastpath-preloaded-buffer",
                    "fastpath-route-class", "row-fallback", "lap-estimate", "order-dependent")
CACHES = ("batch_plan", "batch_rows", "distance_matrix", "hamiltonian_tour",
          "polyline_length", "scenario_prototype")

#: Every per-layer metric with its unit, in report order.  A layer that does
#: no work on a workload reports 0 there.
PER_LAYER = (
    ("runner.self_s", "s"), ("runner.expand_s", "s"),
    ("scenarios.build_s", "s"), ("scenarios.builds", "count"),
    ("scenarios.prototype_hit_ratio", "ratio"),
    ("planning.plan_s", "s"), ("planning.plans", "count"),
    ("planning.plans_per_executed_cell", "ratio"), ("planning.tour_cache_hit_ratio", "ratio"),
    ("planning.kernel_vector_calls", "count"), ("planning.kernel_scalar_calls", "count"),
    ("sim.batchpath.s", "s"), ("sim.batchpath.batched_ratio", "ratio"),
    ("sim.batchpath.fallback_cells", "count"),
    *((f"sim.batchpath.fallback_cells.{reason}", "count") for reason in FALLBACK_REASONS),
    ("sim.batchpath.cache_hit_ratio", "ratio"),
    ("sim.metrics.s", "s"),
    ("sim.fastpath.s", "s"), ("sim.fastpath.cells", "count"),
    ("sim.engine.s", "s"), ("sim.engine.cells", "count"),
    ("store.fingerprint_s", "s"), ("store.get_s", "s"), ("store.put_s", "s"),
    ("store.gets", "count"), ("store.puts", "count"), ("store.hit_ratio", "ratio"),
    ("service.submit_s", "s"), ("service.queue_wait_p50_ms", "ms"),
    ("service.coalesced_ratio", "ratio"), ("service.store_hit_ratio", "ratio"),
    ("service.rejected", "count"),
    *((f"geometry.cache.{name}.hit_ratio", "ratio") for name in CACHES),
    ("unattributed.s", "s"),
    ("obs.tracing_overhead", "ratio"),
)


def _counter(counters: dict, name: str, **labels) -> float:
    """Sum of ``name`` counters whose labels include every ``labels`` pair."""
    wanted = {f"{k}={v}" for k, v in labels.items()}
    total = 0
    for key, value in counters.items():
        counter, _, rest = key.partition("{")
        if counter == name and wanted <= set(rest.rstrip("}").split(",")):
            total += value
    return total


def per_layer_metrics(table: dict, counters: dict, caches: dict, *, overhead: "float | None",
                      scheduler: "dict | None" = None, store: "dict | None" = None,
                      queue_wait_p50_ms: "float | None" = None) -> dict:
    """The ``PER_LAYER`` values from one traced run.

    ``table`` comes from :func:`self_times`; ``counters`` are the obs
    counters (``name{k=v,...}`` totals); ``caches`` maps cache name to
    ``{hits, misses}``; ``scheduler`` and ``store`` are the daemon's
    ``GET /stats`` sections on the service workload.
    """
    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def hit_ratio(*names: str) -> float:
        hits = sum(caches.get(n, {}).get("hits", 0) for n in names)
        misses = sum(caches.get(n, {}).get("misses", 0) for n in names)
        return ratio(hits, hits + misses)

    layer = table["self_s"]
    named = table["name_self_s"]
    calls = table["calls"]
    batched = _counter(counters, "batch_dispatch", outcome="batch")
    fastpath_cells = _counter(counters, "sim_dispatch", outcome="fastpath")
    engine_cells = _counter(counters, "sim_dispatch", outcome="event-loop")
    executed = batched + fastpath_cells + engine_cells
    plans = calls.get("planning.plan", 0)
    scheduler = scheduler or {}
    store = store or {}
    values = {
        "runner.self_s": layer.get("runner", 0.0),
        "runner.expand_s": named.get("runner.expand", 0.0),
        "scenarios.build_s": layer.get("scenarios", 0.0),
        "scenarios.builds": calls.get("scenarios.build", 0),
        "scenarios.prototype_hit_ratio": hit_ratio("scenario_prototype"),
        "planning.plan_s": layer.get("planning", 0.0),
        "planning.plans": plans,
        "planning.plans_per_executed_cell": ratio(plans, executed),
        "planning.tour_cache_hit_ratio": hit_ratio("hamiltonian_tour"),
        "planning.kernel_vector_calls": _counter(counters, "planning_kernel_dispatch", path="vector"),
        "planning.kernel_scalar_calls": _counter(counters, "planning_kernel_dispatch", path="scalar"),
        "sim.batchpath.s": layer.get("sim.batchpath", 0.0),
        "sim.batchpath.batched_ratio": ratio(batched, executed),
        "sim.batchpath.fallback_cells": _counter(counters, "batch_dispatch", outcome="scalar"),
        **{f"sim.batchpath.fallback_cells.{reason}":
           _counter(counters, "batch_dispatch", outcome="scalar", reason=reason)
           for reason in FALLBACK_REASONS},
        "sim.batchpath.cache_hit_ratio": hit_ratio("batch_plan", "batch_rows"),
        "sim.metrics.s": layer.get("sim.metrics", 0.0),
        "sim.fastpath.s": layer.get("sim.fastpath", 0.0),
        "sim.fastpath.cells": fastpath_cells,
        "sim.engine.s": layer.get("sim.engine", 0.0),
        "sim.engine.cells": engine_cells,
        "store.fingerprint_s": named.get("store.fingerprint", 0.0),
        "store.get_s": named.get("store.get", 0.0),
        "store.put_s": named.get("store.put", 0.0),
        "store.gets": calls.get("store.get", 0),
        "store.puts": calls.get("store.put", 0),
        "store.hit_ratio": ratio(store.get("hits", 0), store.get("hits", 0) + store.get("misses", 0)),
        "service.submit_s": layer.get("service", 0.0),
        "service.queue_wait_p50_ms": queue_wait_p50_ms or 0.0,
        "service.coalesced_ratio": ratio(scheduler.get("coalesced", 0), scheduler.get("cells", 0)),
        "service.store_hit_ratio": ratio(scheduler.get("store_hits", 0), scheduler.get("cells", 0)),
        "service.rejected": scheduler.get("rejected", 0),
        **{f"geometry.cache.{name}.hit_ratio": hit_ratio(name) for name in CACHES},
        "unattributed.s": table["unattributed_s"],
        "obs.tracing_overhead": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

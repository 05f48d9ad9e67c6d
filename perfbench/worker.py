"""The process that runs one campaign workload (replicate-batch, paper-sweep, plan-large).

Started by ``run.py`` as ``python -m perfbench.worker``.  It imports the
library, runs a warm-up campaign and prints ``READY``; everything up to that
line is set-up time.  With ``--probe`` it exits there (a cold-start
sample).  Otherwise it runs operations back to back, serially in this one
process, until ``--seconds`` of operations have passed and at least
``MIN_OPS`` have completed (or as many have failed), then checks a seeded
sample of the results and prints one JSON line with the raw samples and its
peak RSS over set-up and the first ``MIN_OPS`` operations.

With ``--probes N`` it stops N times between operations, spread evenly over
the timed window: it prints ``PAUSE`` and waits for a line on standard input
while ``run.py`` times another cold start.  The pauses are not timed work and
move the deadline, so set-up samples come from across the run rather than
from one moment of it.

With ``--trace 1`` the operations run in pairs, one untraced and one traced
(order alternating), each on emptied caches; the traced half feeds the
per-layer report and the pair times give the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

from perfbench import workloads
from perfbench.stats import min_samples_for
from perfbench.tracing import Tracer, add_counters, self_times

#: Enough operations for a median with ten samples beyond it.
MIN_OPS = min_samples_for(0.5)
ORACLE_SAMPLE = 8      # cells re-run on the event loop per run
PLAN_CHECK_OPS = 2     # plan-large operations re-planned and validated
SD_TOLERANCE = 1e-6
MAX_PROBLEMS = 20      # failure messages kept for the report


def _run_op(specs, on_first, counters: "dict | None" = None) -> "list[tuple]":
    """Run one operation's campaigns; returns ``(cell spec, record)`` pairs.

    With ``counters``, the obs counters each campaign reports in its result
    metadata are added into it, keyed ``name{label=value,...}``.
    """
    from repro.runner import Campaign
    from repro.runner.spec import spec_from_dict

    pairs = []
    for spec_dict in specs:
        campaign = Campaign(spec_from_dict(spec_dict))
        result = campaign.run(store=False, on_record=on_first)
        pairs.extend(zip(campaign.cells(), result.records))
        if counters is not None:
            add_counters(result.metadata.get("obs", {}).get("counters", ()), counters)
    return pairs


def _plan_digest(plan) -> str:
    routes = [
        [mule, type(route).__name__, list(getattr(route, "loop", ())),
         getattr(route, "entry_index", None), repr(route.start_position())]
        for mule, route in sorted(plan.routes.items())
    ]
    return hashlib.sha256(json.dumps([plan.strategy, routes]).encode()).hexdigest()


def _check_plan(cell) -> "list[str]":
    """Plan ``cell`` twice from scratch; validate the walks and compare digests."""
    from repro.baselines.base import get_strategy, strategy_params
    from repro.geometry.cache import clear_caches
    from repro.graphs.validation import ValidationError, validate_walk_visits

    params = dict(cell.params)
    if "seed" in strategy_params(cell.strategy) and "seed" not in params:
        params["seed"] = cell.seed
    problems = []
    digests = []
    for _ in range(2):
        clear_caches()
        scenario = cell.scenario.build(cell.seed)
        plan = get_strategy(cell.strategy, **params).plan(scenario)
        weights = {t.id: getattr(t, "weight", 1) for t in scenario.targets}
        weights[scenario.sink.id] = 1
        for mule, route in plan.routes.items():
            try:
                validate_walk_visits(route.loop, weights)
            except ValidationError as exc:
                problems.append(f"{cell.strategy} {mule}: {exc}")
        digests.append(_plan_digest(plan))
    if digests[0] != digests[1]:
        problems.append(f"{cell.strategy}: plan digest changed between two plans")
    return problems


def _check_oracle(cell, record) -> "list[str]":
    """Re-run ``cell`` on the event loop; the record must match byte for byte."""
    from repro.runner import execute_run

    oracle_spec = dataclasses.replace(cell, sim=dataclasses.replace(cell.sim, fast_path=False))
    oracle = execute_run(oracle_spec)
    if json.dumps(oracle, sort_keys=True) != json.dumps(record, sort_keys=True):
        return [f"{cell.strategy} seed {cell.seed}: record differs from the event loop"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CAMPAIGN_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--probes", type=int, default=0)
    parser.add_argument("--span-log", type=Path)
    args = parser.parse_args(argv)

    from repro.geometry.cache import cache_stats, clear_caches
    from repro.obs import registry as obs_registry

    _run_op(workloads.warmup_op(), None)
    clear_caches()
    print("READY", flush=True)
    if args.probe:
        return 0

    make_op = workloads.CAMPAIGN_OPS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
    samples = []          # (t0, t1, cells, first record time)
    pair_times = []       # (untraced s, traced s) per pair in trace mode
    traced_windows = []
    counters: dict = {}
    caches: dict = {}
    kept = []             # one (cell, record) per op, for the sampled checks
    attempted = failed = 0
    peak_rss_kb = 0
    problems: list[str] = []

    def timed_op(index: int, traced: bool):
        first = []

        def on_first(_index, _record):
            if not first:
                first.append(time.perf_counter())

        specs = make_op(args.seed, index)
        if tracer is not None:
            clear_caches()
            if traced:
                obs_registry.configure(enabled=True)
                tracer.install()
        t0 = time.perf_counter()
        try:
            pairs = _run_op(specs, on_first, counters if traced else None)
        finally:
            t1 = time.perf_counter()
            if traced:
                tracer.uninstall()
                obs_registry.configure(enabled=False)
        if traced:
            traced_windows.append((t0, t1))
            for name, stats in cache_stats().items():
                total = caches.setdefault(name, {"hits": 0, "misses": 0})
                total["hits"] += stats["hits"]
                total["misses"] += stats["misses"]
            obs_registry.reset()
        return t0, t1, pairs, first[0] if first else t1

    start = time.perf_counter()
    paused = 0.0
    probe_at = [args.seconds * (k + 1) / (args.probes + 1) for k in range(args.probes)]

    def pause() -> float:
        t0 = time.perf_counter()
        print("PAUSE", flush=True)
        sys.stdin.readline()
        return time.perf_counter() - t0

    index = op_failures = 0
    while (time.perf_counter() - paused < start + args.seconds
           or (len(samples) < MIN_OPS and op_failures < MIN_OPS)):
        if probe_at and time.perf_counter() - paused - start >= probe_at[0]:
            probe_at.pop(0)
            paused += pause()
        attempted += 1
        try:
            if tracer is None:
                t0, t1, pairs, first = timed_op(index, False)
            else:
                order = (False, True) if index % 2 == 0 else (True, False)
                legs = {traced: timed_op(index, traced) for traced in order}
                pair_times.append((legs[False][1] - legs[False][0], legs[True][1] - legs[True][0]))
                t0, t1, pairs, first = legs[True]
        except Exception as exc:  # one failed operation must not end the run
            failed += 1
            op_failures += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"op {index}: {type(exc).__name__}: {exc}")
            index += 1
            continue
        samples.append((t0, t1, len(pairs), first))
        if len(samples) == MIN_OPS:
            # Memory is read at a fixed point of the work, not at its end: the
            # content caches keep filling, so a faster run would end higher.
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # The paper's headline invariant: B-TCTP visits every target at a
        # fixed cadence, so the SD of its visiting intervals is 0 up to float
        # rounding (the tolerance the repository's own tests use).
        nonzero = [record["average_sd"] for cell, record in pairs
                   if cell.strategy == "b-tctp" and not abs(record["average_sd"]) <= SD_TOLERANCE]
        if any(cell.strategy == "b-tctp" for cell, _record in pairs):
            attempted += 1
            if nonzero:
                failed += 1
                problems.append(f"op {index}: b-tctp average_sd {nonzero[0]!r} is not 0")
        rng = random.Random(f"{args.seed}:{index}")
        kept.append((index, *pairs[rng.randrange(len(pairs))]))
        index += 1

    for _ in probe_at:  # a run too short to reach every probe point
        pause()
    if len(samples) < MIN_OPS:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    rng = random.Random(args.seed)
    if args.workload == "plan-large":
        from repro.runner import Campaign
        from repro.runner.spec import spec_from_dict

        for op_index, _cell, _record in rng.sample(kept, min(PLAN_CHECK_OPS, len(kept))):
            for cell in Campaign(spec_from_dict(make_op(args.seed, op_index)[0])).cells():
                attempted += 1
                found = _check_plan(cell)
                failed += bool(found)
                problems.extend(found)
    else:
        for _op_index, cell, record in rng.sample(kept, min(ORACLE_SAMPLE, len(kept))):
            attempted += 1
            found = _check_oracle(cell, record)
            failed += bool(found)
            problems.extend(found)

    out = {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer is not None:
        out["trace"] = {
            "table": self_times(tracer.spans, traced_windows),
            "counters": counters,
            "caches": caches,
            "pair_times": pair_times,
        }
        if args.span_log is not None:
            tracer.dump(args.span_log)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

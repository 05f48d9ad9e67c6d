"""The repository's benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload replicate-batch --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same workload with the benchmark's span hooks on and reports the
per-layer metrics instead.  Human-readable lines come first; the last line
of standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A fuller report (samples, spin-loop diagnostic, environment,
per-layer table) is written to ``.perfbench-out/``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import workloads  # noqa: E402
from perfbench.stats import environment, percentile, spin_seconds  # noqa: E402
from perfbench.tracing import format_table, per_layer_metrics, self_times  # noqa: E402

OUT = ROOT / ".perfbench-out"
#: Cold starts per run; ``setup_s`` is their median.  All but the first are
#: probes taken at even points of the timed window, with the workload paused.
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170.0

#: The bounded metrics of ``BENCHMARK.json``: the result line of every
#: untraced run carries all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cells_per_s", "cells/s"),
    ("requests_per_s", "req/s"),
)
#: Latencies: printed and kept in the report, bounded on no workload.  On the
#: campaign workloads their run-to-run spread is wider than any bound the
#: benchmark may set (README.md, "Steadiness and bounds"), and a bounded
#: metric has to exist on every workload.
REPORTED = (
    ("request_p50_ms", "ms"),
    ("request_p95_ms", "ms"),
    ("first_record_p50_ms", "ms"),
)


def _end_to_end(result: dict, setup, peak_rss_kb, cells, timed_s, latency_ms,
                first_record_ms) -> None:
    """Fill ``result["values"]``: the ``END_TO_END`` and ``REPORTED`` values.

    Rates are completed work over the seconds of timed work; a value the run
    has too few samples for is ``None``.
    """
    result["samples"] = len(latency_ms)
    result["values"] = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_kb / 1024.0 if peak_rss_kb else None,
        "cells_per_s": cells / timed_s if latency_ms and timed_s > 0 else None,
        "requests_per_s": len(latency_ms) / timed_s if latency_ms and timed_s > 0 else None,
        "request_p50_ms": percentile(latency_ms, 0.5),
        "request_p95_ms": percentile(latency_ms, 0.95),
        "first_record_p50_ms": percentile(first_record_ms, 0.5),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for name in ("REPRO_OBS", "REPRO_STORE_DIR", "REPRO_BATCHPATH", "REPRO_PLANNING_VECTOR"):
        env.pop(name, None)  # the benchmark measures the default configuration
    return env


# --------------------------------------------------------------------------- #
# Campaign workloads
# --------------------------------------------------------------------------- #

def _start_worker(args, env, *, probes: int = -1, span_log: "Path | None" = None):
    """Start a worker and wait for its ``READY``; ``probes=-1`` makes it a probe."""
    command = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    command += ["--probe"] if probes < 0 else ["--probes", str(probes)]
    if span_log is not None:
        command += ["--span-log", str(span_log)]
    started = time.perf_counter()
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up: {line!r}")
    return proc, ready - started


def _finish(proc, on_pause=None) -> str:
    """The rest of a worker's output once it has exited cleanly.

    Each ``PAUSE`` line calls ``on_pause()`` and then lets the worker go on.
    """
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            if line.strip() == "PAUSE":
                on_pause()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return "".join(lines)


def run_campaign_workload(args, env, span_log) -> dict:
    def probe():
        proc, seconds = _start_worker(args, env)
        _finish(proc)
        setup.append(seconds)

    probes = 0 if args.trace else SETUP_SAMPLES - 1
    proc, seconds = _start_worker(args, env, probes=probes, span_log=span_log)
    setup = [seconds]
    out = json.loads(_finish(proc, probe).strip().splitlines()[-1])
    result = {"setup_samples": setup, "worker": {k: v for k, v in out.items() if k != "trace"},
              "attempted": out["attempted"], "failed": out["failed"],
              "problems": out["problems"]}
    if args.trace:
        trace = out["trace"]
        untraced = sum(u for u, _t in trace["pair_times"])
        traced = sum(t for _u, t in trace["pair_times"])
        result["table"] = trace["table"]
        result["metrics"] = per_layer_metrics(
            trace["table"], trace["counters"], trace["caches"],
            overhead=traced / untraced - 1.0 if untraced else None)
        return result
    samples = out["samples"]
    _end_to_end(result, setup, out["peak_rss_kb"],
                sum(cells for _t0, _t1, cells, _f in samples),
                sum(t1 - t0 for t0, t1, _c, _f in samples),
                [(t1 - t0) * 1000.0 for t0, t1, _c, _f in samples],
                [(first - t0) * 1000.0 for t0, _t1, _c, first in samples])
    return result


# --------------------------------------------------------------------------- #
# service-mixed
# --------------------------------------------------------------------------- #

def _service_window(env, work: Path, seed: int, seconds: float, *, trace: bool,
                    span_log: "Path | None" = None, probes: int = 0) -> dict:
    """One daemon under load for ``seconds``; with ``probes``, that many cold
    starts of another daemon are timed at even points of the window while
    the clients wait."""
    from perfbench.loadgen import Daemon, ServiceRun, identity_failures

    setup = []

    def probe():
        other = Daemon(env, work)
        setup.append(other.setup_s)
        other.stop()

    daemon = Daemon(env, work, trace=trace, span_log=span_log)
    setup.insert(0, daemon.setup_s)
    try:
        run = ServiceRun(daemon.port, seed, seconds)
        start, _end = run.run(probes, probe)
        stats = daemon.stats()
    finally:
        daemon_result = daemon.stop()
    samples = run.samples
    failures = list(run.failures)
    checked, mismatches = identity_failures(run)
    executed = stats["scheduler"]["executed"]
    allowed = len(run.fresh_fingerprints | set(daemon.warm_fingerprints))
    if executed > allowed:
        mismatches.append(f"daemon executed {executed} cells for {allowed} distinct fresh ones")
    last = max((s[2] for s in samples), default=start)
    return {
        "setup": setup,
        "samples": samples,
        "window": (start, last),
        "stats": stats,
        "daemon": daemon_result,
        "attempted": len(samples) + checked + 1,
        "failed": len(failures) + len(mismatches),
        "problems": (failures + mismatches)[:20],
        # Seconds the clients were at work: the window less the probe pauses.
        "timed_s": last - start - run.paused_s,
    }


def run_service_workload(args, env, span_log) -> dict:
    work = OUT / f"service-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            # Same request stream twice, on fresh daemons: untraced, then traced.
            half = args.seconds / 2.0
            plain = _service_window(env, work, args.seed, half, trace=False)
            traced = _service_window(env, work, args.seed, half, trace=True, span_log=span_log)
            trace = traced["daemon"]["trace"]
            table = self_times([tuple(s) for s in trace["spans"]], [traced["window"]])
            waits = percentile(trace["queue_waits_ms"], 0.5)
            rates = [len(w["samples"]) / w["timed_s"] for w in (plain, traced)]
            metrics = per_layer_metrics(
                table, trace["counters"], trace["caches"],
                overhead=rates[0] / rates[1] - 1.0 if rates[1] else None,
                scheduler=traced["stats"]["scheduler"], store=traced["stats"]["store"],
                queue_wait_p50_ms=waits)
            return {"table": table, "metrics": metrics,
                    "attempted": plain["attempted"] + traced["attempted"],
                    "failed": plain["failed"] + traced["failed"],
                    "problems": plain["problems"] + traced["problems"]}
        window = _service_window(env, work, args.seed, args.seconds, trace=False,
                                 probes=SETUP_SAMPLES - 1)
        samples = window["samples"]
        result = {
            "setup_samples": window["setup"],
            "attempted": window["attempted"],
            "failed": window["failed"],
            "problems": window["problems"],
            "scheduler": window["stats"]["scheduler"],
        }
        _end_to_end(result, window["setup"], window["daemon"]["peak_rss_kb"],
                    sum(cells for _sent, _first, _end, cells in samples), window["timed_s"],
                    [(end - sent) * 1000.0 for sent, _first, end, _cells in samples],
                    [(first - sent) * 1000.0 for sent, first, _end, _cells in samples])
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    span_log = OUT / f"{stem}.spans.jsonl" if args.trace else None
    env = _child_env()
    spin_before = spin_seconds()
    if args.workload == "service-mixed":
        result = run_service_workload(args, env, span_log)
    else:
        result = run_campaign_workload(args, env, span_log)
    spin_after = spin_seconds()

    import repro

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(repro.__version__),
        "spin_s": {"before": spin_before, "after": spin_after},
        **result,
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"environment: {json.dumps(report['environment'], sort_keys=True)}")
    print(f"spin loop: {spin_before:.3f} s before, {spin_after:.3f} s after")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    if args.trace:
        metrics = result["metrics"]
        print(format_table(result["table"]))
    else:
        values = result["values"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"operations timed: {result['samples']}; reported, not bounded:")
        for name, unit in REPORTED:
            value = values[name]
            print(f"  {name:<48} "
                  + (f"{value:>14.6g} {unit}" if value is not None else "n/a (too few samples)"))
        print("bounded:")
    # A metric the run could not measure (too few completed operations) is
    # left out, and the run is not correct.
    missing = [name for name, metric in metrics.items() if metric["value"] is None]
    for name in missing:
        print(f"FAILED: no value for {name}")
        del metrics[name]
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    report["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True, default=str))
    print(json.dumps({
        "correct": result["failed"] == 0 and not missing,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

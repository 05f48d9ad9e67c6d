"""Steadiness evidence: repeat runs per workload and their quartile spreads.

Runs ``run.py`` once per (seed, workload), cycling through the workloads for
each seed so that a slow stretch of the machine is shared out rather than
landing on one workload, then reports for every end-to-end metric its median,
quartiles and spread (``(Q3 - Q1) / median``, quartiles as
``statistics.quantiles(values, n=4)`` gives them).  The bound a metric needs
is at least three times its worst spread::

    python3 perfbench/spread.py --runs 10 --seconds 25 --first-seed 2001 --out set.json

``--compare FIRST SECOND`` reads two such files (two sets of runs of the
same code) and checks each metric against its bound in ``BENCHMARK.json``:
the second set's spreads (``setup_s`` exempt) and how much worse its
median is than the first's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def compare(first: dict, second: dict) -> bool:
    """Print, per workload and metric, the second set against the first and the bound."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in config["end_to_end"]}
    ok = True
    for name, workload in second["workloads"].items():
        for metric, row in workload["metrics"].items():
            if metric not in bounds:
                print(f"{name:<16} {metric:<20} not bounded; spread {row['spread']:6.1%}")
                continue
            better, bound = bounds[metric]
            before = first["workloads"][name]["metrics"][metric]["median"]
            change = (row["median"] - before) / before
            worse = change if better == "lower" else -change
            fine = worse <= bound and (metric == "setup_s" or row["spread"] <= bound)
            ok &= fine
            print(f"{name:<16} {metric:<20} median {before:10.4g} -> {row['median']:10.4g} "
                  f"({worse:+6.1%} worse)  spread {row['spread']:6.1%}  bound {bound:.0%}  "
                  f"{'ok' if fine else 'OUT OF BOUND'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        return 0 if compare(first, second) else 1
    names = args.workloads.split(",")
    values: dict = {name: {} for name in names}
    runs: dict = {name: [] for name in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - started
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                raise SystemExit(f"{name} seed {seed} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report = json.loads((ROOT / ".perfbench-out" / f"{name}-seed{seed}-trace0.json")
                                .read_text())
            runs[name].append({"seed": seed, "wall_s": wall, "failed": result["failed"],
                               "attempted": result["attempted"], "spin_s": report["spin_s"]})
            for metric, value in report["values"].items():
                values[name].setdefault(metric, []).append(value)
            print(f"{name} seed {seed}: {wall:.1f} s, failed {result['failed']}, "
                  + ", ".join(f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()),
                  flush=True)
    summary: dict = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    worst: dict = {}
    for name in names:
        table = {}
        for metric, series in values[name].items():
            if None in series:  # a percentile some runs had too few samples for
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = quartile_spread(series)
            worst[metric] = max(worst.get(metric, 0.0), spread)
            table[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "values": series}
        summary["workloads"][name] = {"metrics": table, "runs": runs[name]}
    summary["worst_spread"] = worst
    for name in names:
        print(f"\n{name}")
        for metric, row in summary["workloads"][name]["metrics"].items():
            print(f"  {metric:<22} median {row['median']:>12.5g}  spread {row['spread']:7.2%}")
    print("\nworst spread per metric (a bound needs at least three times this):")
    for metric, spread in worst.items():
        print(f"  {metric:<22} {spread:7.2%}")
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run ``repro-patrol serve`` for the service-mixed workload.

Started by ``run.py`` as ``python -m perfbench.daemon``; it calls the same
CLI entry point as ``repro-patrol serve --workers 2 --store DIR``, and stops
on SIGINT like the real daemon.  On the way out it writes ``--result``: its
peak RSS and, with ``--trace``, the spans, cache counters and obs counters
of its lifetime.  With ``--trace`` the benchmark's span hooks are installed
before the scheduler is built, so the cell runner it binds is the traced one.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

WORKERS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--span-log", type=Path)
    args = parser.parse_args(argv)

    from repro.cli import main as cli_main

    tracer = None
    if args.trace:
        from repro.obs import registry as obs_registry
        from perfbench.tracing import SERVICE_HOOKS, Tracer, add_counters

        obs_registry.configure(enabled=True)
        tracer = Tracer()
        tracer.install(SERVICE_HOOKS)
    code = cli_main(["serve", "--port", str(args.port), "--workers", str(WORKERS),
                     "--store", args.store])
    out: dict = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        from repro.geometry.cache import cache_stats

        tracer.uninstall()
        counters: dict = {}
        add_counters(obs_registry.snapshot()["counters"], counters)
        out["trace"] = {
            "spans": tracer.spans,
            "queue_waits_ms": tracer.queue_waits_ms(),
            "caches": cache_stats(),
            "counters": counters,
        }
        if args.span_log is not None:
            tracer.dump(args.span_log)
    args.result.write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())

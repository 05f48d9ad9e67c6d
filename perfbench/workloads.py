"""Seeded workload generation: the specs each workload sends to the program.

Every function here maps the workload seed (and an operation index or
client number) to plain JSON spec dicts, so the program under test receives
only generated inputs and the same seed always yields the same work.  A different seed changes the
scenario layouts and replication seeds, never the shape of the work: the
same strategies, target counts and cell counts in the same order.

Why each workload exists (and which layer it isolates) is written down in
``README.md`` next to this file.
"""

from __future__ import annotations

import random

WORKLOADS = ("replicate-batch", "paper-sweep", "plan-large", "service-mixed")

# replicate-batch: the batched tensor engine's best case.
REPLICATE_STRATEGIES = ["b-tctp", "sweep", "w-tctp", "b-tctp-cw"]
REPLICATE_REPLICATIONS = 50
REPLICATE_HORIZON = 50_000.0

# paper-sweep: the paper's target counts, unpinned scenarios.
SWEEP_STRATEGIES = ["random", "sweep", "chb", "b-tctp", "w-tctp"]
SWEEP_TARGETS = [10, 30, 60]
SWEEP_HORIZON = 30_000.0
SWEEP_BATTERY = 200_000.0

# plan-large: tour construction on large fields.
PLAN_STRATEGIES = ["b-tctp", "w-tctp", "chb"]
PLAN_TARGETS = 500
PLAN_HORIZON = 10_000.0

# service-mixed: small specs against the daemon.
SERVICE_CLIENTS = 2
SERVICE_STRATEGIES = ["b-tctp", "w-tctp", "chb", "sweep"]
SERVICE_HORIZON = 6_000.0
# The traffic shares are this benchmark's own choice: the repository has no
# record of real daemon traffic to take them from.  README.md ("The
# service-mixed traffic mix") gives the reason for each value and the store
# and coalescing ratios they produce.  Changing them redefines the workload.
COALESCE_EVERY = 10
#: Share of the non-coalescing requests of each kind; the rest are fresh runs.
SERVICE_MIX = (("repeat", 0.30), ("lookup", 0.15), ("fresh-campaign", 0.10))
#: Replication stride of fresh campaigns: keeps their second replication
#: inside the client's own seed range, clear of its fresh runs.
FRESH_CAMPAIGN_STRIDE = 50_000


def _campaign(base: dict, grid: dict, replications: int = 1, **extra) -> dict:
    return {"kind": "campaign", "base": base, "grid": grid, "replications": replications,
            **extra}


def replicate_batch_op(seed: int, index: int) -> "list[dict]":
    """One campaign on a fresh pinned 12-target, 3-mule layout (bench_pr8 shape).

    The scenario seed is the workload seed plus the campaign index, so the
    batch caches fill within one campaign, as they do for a user, and not
    across campaigns.
    """
    return [_campaign(
        {
            "scenario": {"family": "uniform",
                         "params": {"num_targets": 12, "num_mules": 3},
                         "seed": seed + index},
            "strategy": REPLICATE_STRATEGIES[0],
            "sim": {"horizon": REPLICATE_HORIZON, "track_energy": False},
            "seed": seed + index,
        },
        {"strategy": REPLICATE_STRATEGIES},
        REPLICATE_REPLICATIONS,
    )]


def paper_sweep_op(seed: int, index: int) -> "list[dict]":
    """The paper's strategies over its target counts, every cell a new layout.

    One campaign per strategy, each on its own scenario seed, so no two
    cells share a layout and the content caches miss across cells: the five
    strategies without energy, then RW-TCTP with tracked batteries and a
    recharge station (it needs both to plan).
    """
    base = {
        "scenario": {"family": "uniform", "params": {"num_mules": 4}},
        "sim": {"horizon": SWEEP_HORIZON, "track_energy": False},
    }
    recharge = {
        "scenario": {"family": "uniform",
                     "params": {"num_mules": 4, "with_recharge_station": True,
                                "mule_battery": SWEEP_BATTERY}},
        "sim": {"horizon": SWEEP_HORIZON, "track_energy": True},
    }
    runs = [(base, strategy) for strategy in SWEEP_STRATEGIES] + [(recharge, "rw-tctp")]
    return [
        _campaign({**template, "strategy": strategy,
                   "seed": (seed + index) * len(runs) + k},
                  {"num_targets": SWEEP_TARGETS})
        for k, (template, strategy) in enumerate(runs)
    ]


def plan_large_op(seed: int, index: int) -> "list[dict]":
    """The tour-building strategies on one fresh large layout, short horizon.

    Every layout has the same target count: a median over operations of
    mixed sizes falls in the gap between two sizes and jumps from run to run.
    """
    return [_campaign(
        {
            "scenario": {"family": "uniform",
                         "params": {"num_targets": PLAN_TARGETS, "num_mules": 4},
                         "seed": seed + index},
            "strategy": PLAN_STRATEGIES[0],
            "sim": {"horizon": PLAN_HORIZON, "track_energy": False},
            "seed": seed + index,
        },
        {"strategy": PLAN_STRATEGIES},
    )]


CAMPAIGN_OPS = {
    "replicate-batch": replicate_batch_op,
    "paper-sweep": paper_sweep_op,
    "plan-large": plan_large_op,
}


def warmup_op() -> "list[dict]":
    """A two-cell campaign that loads every lazily imported path once."""
    return [_campaign(
        {
            "scenario": {"family": "uniform", "params": {"num_targets": 6, "num_mules": 2},
                         "seed": 0},
            "strategy": "b-tctp",
            "sim": {"horizon": 4_000.0, "track_energy": False},
            "seed": 0,
        },
        {"strategy": ["b-tctp", "random"]},
    )]


def _run_spec(strategy: str, seed: int) -> dict:
    return {
        "kind": "run",
        "strategy": strategy,
        "scenario": {"family": "uniform", "params": {"num_targets": 8, "num_mules": 2}},
        "sim": {"horizon": SERVICE_HORIZON, "track_energy": False},
        "seed": seed,
    }


def service_requests(seed: int, client: int):
    """Client ``client``'s request stream: dicts ``{"kind", "spec"?, "ref"?}``.

    Kinds: ``fresh-run`` and ``fresh-campaign`` execute new cells;
    ``repeat`` re-posts the spec of an earlier fresh request (``ref`` is its
    index in this stream), which the store answers; ``lookup`` is a
    ``GET /runs/{fp}`` of an earlier fresh request's first cell; and every
    ``COALESCE_EVERY``-th request is ``coalesce``: one fresh spec that every
    client sends at the same moment.  The first request is always fresh, so a
    ``ref`` always has a target.
    """
    # The mix (kinds, references, strategies) depends on the client only, so
    # every seed sends the same shape of traffic; the seed picks the layouts.
    rng = random.Random(f"service-mix:{client}")
    fresh: list[int] = []
    index = 0
    while True:
        if index % COALESCE_EVERY == COALESCE_EVERY - 1:
            k = index // COALESCE_EVERY
            strategy = SERVICE_STRATEGIES[k % len(SERVICE_STRATEGIES)]
            yield {"kind": "coalesce", "spec": _run_spec(strategy, _fresh_seed(seed, -1, k))}
            index += 1
            continue
        draw = rng.random() if fresh else 1.0
        kind = "fresh-run"
        for name, share in SERVICE_MIX:
            if draw < share:
                kind = name
                break
            draw -= share
        if kind in ("repeat", "lookup"):
            yield {"kind": kind, "ref": rng.choice(fresh)}
        else:
            strategy = SERVICE_STRATEGIES[rng.randrange(len(SERVICE_STRATEGIES))]
            spec = _run_spec(strategy, _fresh_seed(seed, client, index))
            if kind == "fresh-campaign":
                spec = _campaign({k: v for k, v in spec.items() if k != "kind"},
                                 {"strategy": SERVICE_STRATEGIES[:2]}, 2,
                                 seed_stride=FRESH_CAMPAIGN_STRIDE)
            fresh.append(index)
            yield {"kind": kind, "spec": spec}
        index += 1


def _fresh_seed(seed: int, client: int, index: int) -> int:
    # Disjoint ranges per client (client -1 is the shared coalescing stream)
    # so no two fresh requests of one run share a fingerprint; the modulus
    # keeps every seed below 2**32.
    return (seed % 4000) * 1_000_000 + (client + 1) * 100_000 + index

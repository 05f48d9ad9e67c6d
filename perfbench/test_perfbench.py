"""Tests for the benchmark harness's own logic (no workload is timed here)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.stats import min_samples_for, percentile, quartile_spread
from perfbench.tracing import PER_LAYER, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent


# -- percentile sample-count rule -------------------------------------------- #

def test_min_samples_leaves_ten_beyond_the_percentile():
    assert min_samples_for(0.5) == 20
    assert min_samples_for(0.95) == 200
    assert min_samples_for(0.99) == 1000


@pytest.mark.parametrize("q", [0.5, 0.95])
def test_percentile_withheld_below_the_sample_floor(q):
    floor = min_samples_for(q)
    assert percentile([float(i) for i in range(floor - 1)], q) is None
    assert percentile([float(i) for i in range(floor)], q) is not None


def test_percentile_interpolates_like_the_usual_definition():
    samples = [float(i) for i in range(1, 201)]
    assert percentile(samples, 0.5) == pytest.approx(100.5)
    assert percentile(samples, 0.95) == pytest.approx(190.05)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([float(v) for v in range(1, 11)]) == pytest.approx(5.5 / 5.5)


# -- self time from nested spans -------------------------------------------- #

def _span(span_id, parent, layer, name, t0, t1, thread=1):
    return (span_id, parent, layer, name, thread, t0, t1)


def test_self_time_subtracts_children_and_reports_the_rest_as_unattributed():
    spans = [
        _span(1, 0, "runner", "campaign", 0.0, 10.0),
        _span(2, 1, "planning", "plan", 1.0, 4.0),
        _span(3, 2, "planning", "plan", 2.0, 3.0),     # a planner delegating to a pipeline
        _span(4, 1, "sim.engine", "simulate", 5.0, 9.0),
    ]
    table = self_times(spans, [(0.0, 12.0)])
    assert table["self_s"] == pytest.approx({"runner": 3.0, "planning": 3.0, "sim.engine": 4.0})
    assert table["calls"]["planning.plan"] == 1
    assert table["unattributed_s"] == pytest.approx(2.0)
    assert table["window_s"] == pytest.approx(12.0)


def test_self_time_windows_clip_spans_and_threads_overlap():
    spans = [
        _span(1, 0, "service", "submit", 0.0, 2.0, thread=1),
        _span(2, 0, "runner", "execute_cell", 1.0, 3.0, thread=2),
        _span(3, 0, "store", "get", 9.0, 11.0, thread=1),
    ]
    table = self_times(spans, [(0.0, 4.0), (10.0, 12.0)])
    assert table["window_s"] == pytest.approx(6.0)
    # Covered: [0, 3) in the first window and [10, 11) in the second.
    assert table["unattributed_s"] == pytest.approx(2.0)


def test_tracer_records_layers_and_leaves_records_and_functions_untouched():
    from repro.runner import Campaign, campaign as campaign_module
    from repro.runner.spec import spec_from_dict

    spec = spec_from_dict(workloads.warmup_op()[0])
    plain = Campaign(spec).run(store=False).records
    original = campaign_module.execute_many
    tracer = Tracer()
    tracer.install()
    try:
        traced = Campaign(spec).run(store=False).records
    finally:
        tracer.uninstall()
    assert campaign_module.execute_many is original
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain, sort_keys=True)
    layers = {span[2] for span in tracer.spans}
    assert {"runner", "scenarios", "planning", "sim.metrics"} <= layers
    assert all(span[1] == 0 for span in tracer.spans if span[3] == "campaign")


# -- workload generation ---------------------------------------------------- #

def _shape(value):
    """``value`` with every seed blanked out."""
    if isinstance(value, dict):
        return {k: None if k == "seed" else _shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return value


def _service(seed, client, n=60):
    stream = workloads.service_requests(seed, client)
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(workloads.CAMPAIGN_OPS))
def test_campaign_ops_are_deterministic_per_seed_with_a_fixed_shape(name):
    make = workloads.CAMPAIGN_OPS[name]
    assert [make(7, i) for i in range(8)] == [make(7, i) for i in range(8)]
    assert [make(7, i) for i in range(8)] != [make(8, i) for i in range(8)]
    assert [_shape(make(7, i)) for i in range(8)] == [_shape(make(8, i)) for i in range(8)]


def test_service_stream_is_deterministic_per_seed_with_a_fixed_shape():
    assert _service(7, 0) == _service(7, 0)
    assert _service(7, 0) != _service(8, 0)
    assert [_shape(r) for r in _service(7, 0)] == [_shape(r) for r in _service(8, 0)]
    kinds = {r["kind"] for r in _service(7, 1)}
    assert kinds == {"fresh-run", "fresh-campaign", "repeat", "lookup", "coalesce"}


def test_service_references_point_back_to_fresh_requests_and_coalescing_is_shared():
    streams = [_service(3, client, 200) for client in range(workloads.SERVICE_CLIENTS)]
    for stream in streams:
        for index, request in enumerate(stream):
            if "ref" in request:
                assert request["ref"] < index
                assert stream[request["ref"]]["kind"].startswith("fresh-")
    coalesced = [[r["spec"] for r in s if r["kind"] == "coalesce"] for s in streams]
    assert coalesced[0] == coalesced[1]
    fresh_seeds = [r["spec"]["seed"] for s in streams for r in s if r["kind"] == "fresh-run"]
    assert len(fresh_seeds) == len(set(fresh_seeds))


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    from perfbench.run import END_TO_END

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["end_to_end"]] == [name for name, _unit in END_TO_END]
    assert [m["unit"] for m in config["end_to_end"]] == [unit for _name, unit in END_TO_END]
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)

"""Tests of the benchmark itself (tracing arithmetic, wrapper lifetime,
workload determinism, the large-n diameter bound, BENCHMARK.json)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from layer_trace import (  # noqa: E402
    SELF_TIME_METRICS,
    LayerTracer,
    layer_metric_names,
    layer_metrics,
    self_times,
)
from workloads import (  # noqa: E402
    LARGE_N_DIAMETER_BOUND,
    WORKLOADS,
    build_large_n,
)

#: The seeds the recorded baseline was measured with.
BASELINE_SEEDS = json.loads((HERE / "baseline.json").read_text())["seeds"]


def test_self_time_subtracts_direct_children_only():
    # a[0,10] > (b[1,4], c[5,9] > d[6,7]);  e[12,13] is a second root.
    names = np.array([0, 1, 2, 3, 0])
    start = np.array([0.0, 1.0, 5.0, 6.0, 12.0])
    end = np.array([10.0, 4.0, 9.0, 7.0, 13.0])
    parent = np.array([-1, 0, 0, 2, -1])
    own, inclusive, calls, covered = self_times(names, start, end, parent, 4)
    assert own.tolist() == [3.0 + 1.0, 3.0, 3.0, 1.0]
    assert inclusive.tolist() == [11.0, 3.0, 4.0, 1.0]
    assert calls.tolist() == [2, 1, 1, 1]
    assert covered == 11.0 == own.sum()


def _originals(tracer_patch_list):
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in tracer_patch_list}


def test_tracer_records_layers_and_uninstalls_every_wrapper():
    from repro.campaigns.aggregate import aggregate_results
    from repro.campaigns.registry import build_campaign
    from repro.campaigns.runner import run_campaign

    scenarios = build_campaign("micro", 3)
    untraced = aggregate_results("micro", scenarios, run_campaign(scenarios), 3)

    tracer = LayerTracer()
    probe = LayerTracer().install()  # learn what gets patched, then undo
    patched = probe.patched()
    probe.uninstall()
    before = _originals(patched)

    tracer.install()
    try:
        started = time.perf_counter()
        with tracer.region("campaigns.run_campaign"):
            results = run_campaign(scenarios)
        with tracer.region("campaigns.aggregate"):
            traced = aggregate_results("micro", scenarios, results, 3)
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()

    assert traced == untraced  # tracing never changes results
    assert _originals(patched) == before
    assert not tracer.patched()
    spans = len(tracer.log)
    assert spans > 0 and tracer.log.stack == [-1]
    run_campaign(scenarios[:1])
    assert len(tracer.log) == spans  # nothing records after uninstall

    metrics = layer_metrics(tracer, 1, wall, wall, 0.0)
    assert set(metrics) == set(layer_metric_names())
    assert metrics["graphs.make_graph_calls"]["value"] == len(scenarios)
    parts = sum(metrics[m]["value"] for m in SELF_TIME_METRICS)
    assert parts + metrics["trace.unattributed_s"]["value"] == pytest.approx(wall)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_generation_is_deterministic_per_seed(name):
    def hashes(seed):
        return [s.content_hash() for s in WORKLOADS[name].build(seed)]

    first = hashes(5)
    assert first == hashes(5)
    assert first != hashes(6)


def _diameter(topology) -> int:
    """Exact diameter by bit-parallel breadth-first search from every
    node at once (one bitset row of reached nodes per source)."""
    n = topology.n
    neighbors = np.array([topology.neighbors(v) for v in range(n)])
    nodes = np.arange(n)
    reach = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    reach[nodes, nodes // 64] = np.left_shift(
        np.uint64(1), (nodes % 64).astype(np.uint64)
    )
    levels = 0
    while True:
        grown = reach.copy()
        for column in neighbors.T:
            grown |= reach[column]
        if np.array_equal(grown, reach):
            return levels
        reach = grown
        levels += 1


def test_large_n_diameter_bound_holds_for_the_baseline_seeds():
    from repro.graphs.generators import make_graph

    for seed in BASELINE_SEEDS:
        cells = {s.tag("pairing"): s for s in build_large_n(seed)}
        for scenario in cells.values():
            rng = np.random.default_rng(scenario.seed)
            topology = make_graph(scenario.graph, rng, **scenario.params())
            assert _diameter(topology) <= LARGE_N_DIAMETER_BOUND, (seed, scenario)


def test_tail_percentile_leaves_ten_samples_beyond():
    for name, workload in WORKLOADS.items():
        count = len(workload.build(0))
        samples = count * workload.min_passes
        p = workload.tail_percentile(count)
        assert samples * (100 - p) / 100 >= 10, name


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert [m["name"] for m in bench["per_layer"]] == layer_metric_names()


def test_run_refuses_a_directory_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

"""Content-addressed result cache + the worker pool, as a gate.

Runs the ``dispatch-straggler`` campaign (28 ~5 ms scenarios plus 4
~40x-slower adjacent stragglers) in three configurations:

* **cold** — serial, against a fresh content-addressed result store:
  every scenario is computed and cached;
* **warm** — serial, against the now-populated store: every scenario
  must be served from cache without recomputation;
* **pool** — the work-stealing process pool over ``CAMPAIGN_WORKERS``
  workers, without the cache (inline when that is one worker).

Acceptance gates:

* the warm run is **>= 10x faster** than the cold run with a **100%
  hit rate** (0 misses), and its aggregates are **bit-identical** to
  the cold run's — a cache hit is indistinguishable from a fresh
  computation everywhere except wall-clock;
* the pool's aggregates are bit-identical to the serial run's (the
  worker count is pure execution strategy).

Persists ``benchmarks/results/BENCH_campaign_cache.json``: the
deterministic hit/miss accounting in the body, wall-clock timings in
``meta`` (machine-dependent, so never compared across PRs).  The timed kernel is one fully warm campaign run
— the steady-state cost of re-running an already-computed campaign.
"""

from __future__ import annotations

import json
import os
import time

from conftest import CAMPAIGN_WORKERS, emit

from repro.analysis.tables import render_table, results_dir, write_json
from repro.campaigns import (
    ResultCache,
    aggregate_results,
    build_campaign,
    run_campaign,
)

REGISTRY = "dispatch-straggler"
WARM_SPEEDUP_FLOOR = 10.0


def _run(scenarios, **kwargs):
    """One timed campaign run; returns (aggregates, seconds, stats)."""
    stats: dict = {}
    started = time.perf_counter()
    results = run_campaign(scenarios, stats=stats, **kwargs)
    elapsed = time.perf_counter() - started
    aggregates = aggregate_results(REGISTRY, scenarios, results, 0)
    assert aggregates["failure_count"] == 0, aggregates["failures"]
    return aggregates, elapsed, stats


def test_campaign_cache(benchmark, tmp_path):
    scenarios = build_campaign(REGISTRY)
    cache = ResultCache(str(tmp_path / "store"))

    cold, cold_s, cold_stats = _run(scenarios, cache=cache)
    warm, warm_s, warm_stats = _run(scenarios, cache=cache)

    # Cold filled the store; warm never computed anything.
    assert cold_stats["cache"]["misses"] == len(scenarios)
    assert warm_stats["cache"]["hits"] == len(scenarios)
    assert warm_stats["cache"]["misses"] == 0
    assert warm_stats["cache"]["hit_rate"] == 1.0
    assert cache.verify() == []

    # A hit aggregates bit-identically to a fresh computation.
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)

    speedup = cold_s / warm_s
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm run only {speedup:.1f}x faster than cold "
        f"({warm_s * 1000:.1f} ms vs {cold_s * 1000:.1f} ms); "
        f"the floor is {WARM_SPEEDUP_FLOOR:.0f}x"
    )

    # The pool on the straggler-skewed mix is bit-identical to the
    # serial reference (its wall-clock is informational).
    pool, pool_s, _ = _run(scenarios, workers=CAMPAIGN_WORKERS)
    assert json.dumps(pool, sort_keys=True) == json.dumps(cold, sort_keys=True)

    rows = [
        (
            "cold serial (computes + fills cache)",
            f"{cold_s * 1000:.1f}",
            f"0/{len(scenarios)}",
        ),
        (
            "warm serial (100% cache hits)",
            f"{warm_s * 1000:.1f}",
            f"{warm_stats['cache']['hits']}/{len(scenarios)}",
        ),
        (f"pool x{CAMPAIGN_WORKERS} (no cache)", f"{pool_s * 1000:.1f}", "—"),
    ]
    emit(
        "campaign_cache",
        render_table(
            ["configuration", "wall-clock (ms)", "hits"],
            rows,
            title=(
                f"Campaign cache + pool — {REGISTRY} "
                f"({len(scenarios)} scenarios), warm speedup "
                f"{speedup:.1f}x (floor {WARM_SPEEDUP_FLOOR:.0f}x)"
            ),
        ),
    )
    path = write_json(
        os.path.join(results_dir(), "BENCH_campaign_cache.json"),
        {
            "campaign": REGISTRY,
            "scenario_count": len(scenarios),
            "cold_cache": cold_stats["cache"],
            "warm_cache": warm_stats["cache"],
            "pool_bit_identical": True,
            "meta": {
                "cold_s": cold_s,
                "warm_s": warm_s,
                "warm_speedup": speedup,
                "pool_s": pool_s,
                "workers": CAMPAIGN_WORKERS,
            },
        },
    )
    print(f"[saved to {path}]")

    # Steady state: re-running an already-computed campaign.
    benchmark.pedantic(
        lambda: _run(scenarios, cache=cache), rounds=3, iterations=1
    )

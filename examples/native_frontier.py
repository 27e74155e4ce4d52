"""The compiled kernel tier at frontier scale: a million-node walk.

Demonstrates what ``engine="native"`` buys:

1. million-node graphs built directly in CSR form (the frontier
   families bypass networkx entirely — ``O(n + m)`` numpy passes —
   and wrap the arrays with ``Topology.from_csr``);
2. the ``native`` engine stepping a million-node ring and hub colony,
   with throughput reported in nanoseconds per node-step — one
   compiled loop over the CSR with no intermediate arrays, so
   ``n = 10^6`` fits comfortably;
3. a bit-identity spot check against the array engine at a size both
   tiers can hold — the native tier is a faster route to the *same*
   trajectory, not an approximation.

When no native backend is available (no numba, no C compiler) the
engine degrades to the numpy array tier with a warning, and this
script shrinks the walk so the fallback stays quick.

Run with::

    PYTHONPATH=src python examples/native_frontier.py
"""

from __future__ import annotations

import resource
import sys
import time

import numpy as np

from repro.core.algau import ThinUnison
from repro.core.algau_native import native_backend_name
from repro.graphs.frontier import frontier_colony, frontier_gnm, frontier_ring
from repro.model.engine import create_execution
from repro.model.scheduler import SynchronousScheduler

D = 2
BACKEND = native_backend_name()
#: The fallback (numpy) tier pays a few numpy passes and temporaries
#: over the CSR entries per step, so the walk shrinks when no backend
#: resolved.
N = 1_000_000 if BACKEND else 100_000


def build(topology, engine="native", seed=7):
    algorithm = ThinUnison(D)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, algorithm.encoding.size, topology.n)
    initial = algorithm.encoding.decode_configuration(topology, codes)
    return create_execution(
        topology,
        algorithm,
        initial,
        SynchronousScheduler(),
        rng=np.random.default_rng(0),
        engine=engine,
    )


def walk(topology, steps):
    execution = build(topology)
    execution.advance(1)  # warm the CSR and scheduler caches
    start = time.perf_counter()
    execution.advance(steps)
    elapsed = time.perf_counter() - start
    assert execution.t == steps + 1
    per_node = elapsed / steps / topology.n * 1e9
    print(
        f"  {topology.name:>34}  n={topology.n:>9,}  m={topology.m:>9,}  "
        f"{per_node:6.1f} ns/node-step  {steps / elapsed:6.1f} steps/s"
    )
    return execution


def main() -> None:
    print(f"native backend: {BACKEND or 'unavailable (array fallback)'}")

    print(f"\n1. Frontier walk at n = {N:,} (synchronous, D = {D}):")
    t0 = time.perf_counter()
    graphs = [
        frontier_ring(N),
        frontier_gnm(N, extra_edges=2 * N, seed=3),
        frontier_colony(N, hubs=2),
    ]
    print(f"  (all three graphs built in {time.perf_counter() - t0:.1f}s)")
    for topology in graphs:
        walk(topology, steps=5)

    print("\n2. Bit-identity spot check vs the array tier (n = 20,000):")
    check = frontier_gnm(20_000, 40_000, seed=9)
    native = build(check, engine="native")
    array = build(check, engine="array")
    native.advance(30)
    array.advance(30)
    assert np.array_equal(native.codes, array.codes)
    assert native.graph_is_good() == array.graph_is_good()
    print(
        "  30 synchronous steps: code vectors identical, "
        f"graph_is_good = {native.graph_is_good()}"
    )

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_bytes = rss if sys.platform == "darwin" else rss * 1024
    print(
        f"\npeak RSS: {rss_bytes / 2**20:,.0f} MiB "
        f"({rss_bytes / N:,.0f} bytes/node at n = {N:,})"
    )


if __name__ == "__main__":
    main()

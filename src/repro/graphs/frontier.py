"""Frontier-scale topology families built directly in CSR form.

The compiled kernel tier targets million-node graphs, where building a
networkx graph first would dwarf any simulation run on the result.  The
generators here draw their edge lists with vectorized numpy, build the
inclusive CSR with :func:`~repro.graphs.csr.csr_from_edges`, and wrap
it with :meth:`Topology.from_csr
<repro.graphs.topology.Topology.from_csr>` — the same
:class:`~repro.graphs.topology.Topology` every other family returns,
minus the input-graph checks (each family is connected by
construction).  The metric helpers (diameter, distances, balls) work
on the result, but they are Ω(n·m) and have no place at this scale.

Three families, chosen to stress different kernel regimes:

* :func:`frontier_ring` — constant degree 2, the sparsest connected
  graph; per-step work is pure CSR-walk overhead;
* :func:`frontier_gnm` — a uniform ``G(n, m)`` sample threaded onto a
  Hamiltonian ring backbone (so the sample is connected by
  construction); irregular degrees exercise the indirect indexing;
* :func:`frontier_colony` — the signaling-hub colony shape at scale: a
  ring of members plus a few hubs adjacent to everything; the hub rows
  are ``Θ(n)`` long, the member rows ``O(1)``, the most skewed
  neighborhood distribution the kernels will meet.

Construction cost is ``O(n + m)`` numpy passes (the lexsort dominates)
— a million-node, three-million-edge sample builds in seconds.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.csr import csr_from_edges
from repro.graphs.topology import Topology
from repro.model.errors import TopologyError


def _ring_edges(n: int) -> Tuple[np.ndarray, np.ndarray]:
    src = np.arange(n, dtype=np.int64)
    return src, (src + 1) % n


def _require_n(n: int, floor: int) -> None:
    if n < floor:
        raise TopologyError(f"frontier families need n >= {floor}, got {n}")


def frontier_ring(n: int) -> Topology:
    """The n-ring, built without touching networkx."""
    _require_n(n, 3)
    src, dst = _ring_edges(n)
    return Topology.from_csr(f"frontier-ring({n})", csr_from_edges(n, src, dst))


def frontier_gnm(n: int, extra_edges: int, seed: int = 0) -> Topology:
    """A connected ``G(n, m)``-style sample: ring backbone plus
    ``extra_edges`` uniform random chords (deduplicated, so the
    realized edge count can fall slightly short of ``n + extra_edges``).
    """
    _require_n(n, 3)
    rng = np.random.default_rng(seed)
    # Oversample, then canonicalize u < v and dedup against the
    # backbone; one top-up round is plenty at the densities we use.
    want = int(extra_edges)
    u = rng.integers(0, n, size=2 * want + 16, dtype=np.int64)
    v = rng.integers(0, n, size=2 * want + 16, dtype=np.int64)
    keep = u != v
    u, v = u[keep], v[keep]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    ring_src, ring_dst = _ring_edges(n)
    ring_keys = np.minimum(ring_src, ring_dst) * n + np.maximum(ring_src, ring_dst)
    keys = np.setdiff1d(lo * n + hi, ring_keys)  # unique + not in backbone
    keys = keys[rng.permutation(len(keys))][:want]
    src = np.concatenate([ring_src, keys // n])
    dst = np.concatenate([ring_dst, keys % n])
    return Topology.from_csr(
        f"frontier-gnm({n},+{want})", csr_from_edges(n, src, dst)
    )


def frontier_colony(n: int, hubs: int = 2) -> Topology:
    """The signaling-hub colony at frontier scale: nodes ``0..hubs-1``
    are adjacent to every other node, the remaining members sit on a
    ring — diameter 2 with maximally skewed degrees."""
    _require_n(n, max(4, hubs + 3))
    if hubs < 1:
        raise TopologyError(f"colony needs at least one hub, got {hubs}")
    ring_src, ring_dst = _ring_edges(n - hubs)
    member = np.arange(hubs, n, dtype=np.int64)
    hub_src = np.repeat(np.arange(hubs, dtype=np.int64), len(member))
    hub_dst = np.tile(member, hubs)
    # Hubs are mutually adjacent too.
    hub_pairs = np.array(
        [(a, b) for a in range(hubs) for b in range(a + 1, hubs)], dtype=np.int64
    ).reshape(-1, 2)
    src = np.concatenate([ring_src + hubs, hub_src, hub_pairs[:, 0]])
    dst = np.concatenate([ring_dst + hubs, hub_dst, hub_pairs[:, 1]])
    return Topology.from_csr(
        f"frontier-colony({n},hubs={hubs})", csr_from_edges(n, src, dst)
    )


FRONTIER_FAMILIES = {
    "ring": lambda n, seed=0: frontier_ring(n),
    "gnm": lambda n, seed=0: frontier_gnm(n, extra_edges=2 * n, seed=seed),
    "colony": lambda n, seed=0: frontier_colony(n, hubs=2),
}

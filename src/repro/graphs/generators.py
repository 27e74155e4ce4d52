"""Graph families used throughout the experiments.

The paper's focus is on ``D``-bounded-diameter graphs, motivated as
"complete graphs with some links disconnected by environmental
obstacles".  :func:`damaged_clique` realizes that family directly; the
remaining generators cover the standard families used in the
self-stabilization literature (rings for the Appendix-A live-lock,
paths/stars/dumbbells as diameter extremes, hypercubes and tori as
structured mid-diameter graphs) plus biological topologies (see
:mod:`repro.graphs.biological`).

Every generator returns a :class:`~repro.graphs.topology.Topology` whose
name encodes the parameters, which keeps experiment tables readable.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import networkx as nx
import numpy as np

from repro.graphs.topology import Topology
from repro.model.errors import TopologyError


def complete_graph(n: int) -> Topology:
    """The complete graph ``K_n`` (diameter 1)."""
    if n < 1:
        raise TopologyError("complete graph needs n >= 1")
    return Topology(nx.complete_graph(n), name=f"complete(n={n})")


def star(n: int) -> Topology:
    """A star with ``n`` nodes (diameter 2 for n >= 3)."""
    if n < 2:
        raise TopologyError("star needs n >= 2")
    return Topology(nx.star_graph(n - 1), name=f"star(n={n})")


def path(n: int) -> Topology:
    """The path ``P_n`` (diameter n-1)."""
    if n < 1:
        raise TopologyError("path needs n >= 1")
    return Topology(nx.path_graph(n), name=f"path(n={n})")


def ring(n: int) -> Topology:
    """The cycle ``C_n`` (diameter ⌊n/2⌋)."""
    if n < 3:
        raise TopologyError("ring needs n >= 3")
    return Topology(nx.cycle_graph(n), name=f"ring(n={n})")


def grid(rows: int, cols: int) -> Topology:
    """A rows×cols grid (diameter rows+cols-2)."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid needs positive dimensions")
    return Topology(nx.grid_2d_graph(rows, cols), name=f"grid({rows}x{cols})")


def torus(rows: int, cols: int) -> Topology:
    """A rows×cols torus (periodic grid)."""
    if rows < 3 or cols < 3:
        raise TopologyError("torus needs dimensions >= 3")
    return Topology(
        nx.grid_2d_graph(rows, cols, periodic=True),
        name=f"torus({rows}x{cols})",
    )


def hypercube(dimension: int) -> Topology:
    """The ``dimension``-dimensional hypercube (diameter = dimension)."""
    if dimension < 1:
        raise TopologyError("hypercube needs dimension >= 1")
    return Topology(nx.hypercube_graph(dimension), name=f"hypercube(d={dimension})")


def dumbbell(clique_size: int, bridge_length: int = 1) -> Topology:
    """Two cliques joined by a path of ``bridge_length`` edges.

    Diameter is ``bridge_length + 2`` — a useful "two dense communities"
    worst case for unison wavefronts.
    """
    if clique_size < 2:
        raise TopologyError("dumbbell needs clique_size >= 2")
    if bridge_length < 1:
        raise TopologyError("dumbbell needs bridge_length >= 1")
    left = nx.complete_graph(clique_size)
    graph = nx.Graph(left)
    offset = clique_size
    right = nx.complete_graph(clique_size)
    graph.add_edges_from(
        (u + offset + bridge_length - 1, v + offset + bridge_length - 1)
        for u, v in right.edges()
    )
    # Bridge path: node (clique_size-1) ... through bridge nodes ... to
    # the first right-clique node.
    previous = clique_size - 1
    for i in range(bridge_length - 1):
        bridge_node = offset + i
        graph.add_edge(previous, bridge_node)
        previous = bridge_node
    graph.add_edge(previous, offset + bridge_length - 1)
    return Topology(graph, name=f"dumbbell(c={clique_size}, b={bridge_length})")


def damaged_clique(
    n: int,
    diameter_bound: int,
    rng: np.random.Generator,
    damage: float = 0.5,
    max_attempts: int = 200,
) -> Topology:
    """A complete graph with random edges removed — the paper's own
    motivation for bounded-diameter graphs.

    ``damage`` is the fraction of edges the environment *attempts* to
    remove; removals that would disconnect the graph or push the
    diameter beyond ``diameter_bound`` are resampled.
    """
    if n < 2:
        raise TopologyError("damaged clique needs n >= 2")
    if not 0.0 <= damage < 1.0:
        raise TopologyError(f"damage must lie in [0, 1), got {damage}")
    for _ in range(max_attempts):
        graph = nx.complete_graph(n)
        edges = list(graph.edges())
        removable = rng.permutation(len(edges))
        target = int(damage * len(edges))
        removed = 0
        for index in removable:
            if removed >= target:
                break
            u, v = edges[int(index)]
            graph.remove_edge(u, v)
            if not nx.is_connected(graph):
                graph.add_edge(u, v)
                continue
            removed += 1
        if nx.is_connected(graph) and nx.diameter(graph) <= diameter_bound:
            return Topology(
                graph,
                name=f"damaged-clique(n={n}, D={diameter_bound}, dmg={damage})",
            )
    raise TopologyError(
        f"could not sample a damaged clique with diameter <= {diameter_bound} "
        f"(n={n}, damage={damage})"
    )


def random_connected(
    n: int, p: float, rng: np.random.Generator, max_attempts: int = 200
) -> Topology:
    """A connected Erdős–Rényi graph ``G(n, p)`` (rejection sampled)."""
    if n < 1:
        raise TopologyError("random graph needs n >= 1")
    for _ in range(max_attempts):
        seed = int(rng.integers(2**31))
        try:
            return Topology(
                nx.gnp_random_graph(n, p, seed=seed), name=f"gnp(n={n}, p={p})"
            )
        except TopologyError:
            continue
    raise TopologyError(f"G({n}, {p}) failed to produce a connected graph")


def random_regular(
    n: int, degree: int, rng: np.random.Generator, max_attempts: int = 200
) -> Topology:
    """A connected random ``degree``-regular graph."""
    for _ in range(max_attempts):
        seed = int(rng.integers(2**31))
        try:
            return Topology(
                nx.random_regular_graph(degree, n, seed=seed),
                name=f"regular(n={n}, d={degree})",
            )
        except TopologyError:
            continue
    raise TopologyError(f"random regular graph (n={n}, d={degree}) not connected")


def caterpillar(spine: int, legs_per_node: int = 2) -> Topology:
    """A caterpillar tree: a spine path with pendant legs.

    High-diameter sparse benchmark for unison wave propagation.
    """
    if spine < 2:
        raise TopologyError("caterpillar needs spine >= 2")
    graph = nx.path_graph(spine)
    next_node = spine
    for v in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(v, next_node)
            next_node += 1
    return Topology(graph, name=f"caterpillar(spine={spine}, legs={legs_per_node})")


def bounded_diameter_family(
    diameter_bound: int,
    n: int,
    rng: Optional[np.random.Generator] = None,
) -> Topology:
    """A representative graph with diameter exactly ≤ ``diameter_bound``
    used by the scaling sweeps: ``D = 1`` yields a clique, ``D = 2`` a
    star-augmented clique fragment, larger ``D`` a dumbbell whose bridge
    realizes the target diameter.
    """
    if diameter_bound < 1:
        raise TopologyError("diameter bound must be >= 1")
    if diameter_bound == 1:
        return complete_graph(n)
    if diameter_bound == 2:
        if rng is None:
            rng = np.random.default_rng(0)
        return damaged_clique(n, 2, rng, damage=0.4)
    clique_size = max(2, (n - (diameter_bound - 3)) // 2)
    topo = dumbbell(clique_size, bridge_length=diameter_bound - 2)
    topo.check_diameter_bound(diameter_bound)
    return topo


# ----------------------------------------------------------------------
# Declarative family registry.
#
# Campaign scenarios (repro.campaigns.spec) name their topology by
# family plus keyword parameters; every builder takes a seeded
# ``np.random.Generator`` first (deterministic families simply ignore
# it) so one scenario seed reproduces the exact graph.
# ----------------------------------------------------------------------


def _registry() -> Dict[str, Callable[..., Topology]]:
    from repro.graphs.biological import (
        cell_tissue,
        proneural_cluster,
        quorum_colony,
        signaling_hub_colony,
    )

    return {
        "complete": lambda rng, n: complete_graph(n),
        "star": lambda rng, n: star(n),
        "path": lambda rng, n: path(n),
        "ring": lambda rng, n: ring(n),
        "grid": lambda rng, rows, cols: grid(rows, cols),
        "torus": lambda rng, rows, cols: torus(rows, cols),
        "hypercube": lambda rng, dimension: hypercube(dimension),
        "dumbbell": lambda rng, clique_size, bridge_length=1: dumbbell(
            clique_size, bridge_length
        ),
        "caterpillar": lambda rng, spine, legs_per_node=2: caterpillar(
            spine, legs_per_node
        ),
        "damaged-clique": lambda rng, n, diameter_bound, damage=0.5: (
            damaged_clique(n, diameter_bound, rng, damage=damage)
        ),
        "gnp": lambda rng, n, p: random_connected(n, p, rng),
        "regular": lambda rng, n, degree: random_regular(n, degree, rng),
        "bounded-diameter": lambda rng, diameter_bound, n: (
            bounded_diameter_family(diameter_bound, n, rng)
        ),
        "quorum-colony": lambda rng, n, diameter_bound, obstacle_rate=0.35: (
            quorum_colony(n, diameter_bound, rng, obstacle_rate=obstacle_rate)
        ),
        "cell-tissue": lambda rng, width, height: cell_tissue(width, height, rng),
        "proneural": lambda rng, width, height, inhibition_radius=1: (
            proneural_cluster(width, height, inhibition_radius)
        ),
        "hub-colony": lambda rng, n, hubs=2, attachment=2: (
            signaling_hub_colony(n, rng, hubs=hubs, attachment=attachment)
        ),
    }


GRAPH_FAMILIES: Dict[str, Callable[..., Topology]] = _registry()


def graph_family_names() -> tuple:
    """The registered family names, sorted for stable listings."""
    return tuple(sorted(GRAPH_FAMILIES))


def make_graph(family: str, rng: np.random.Generator, **params: object) -> Topology:
    """Instantiate a registered graph family by name.

    Raises :class:`ValueError` listing the valid family names when
    ``family`` is unknown, mirroring ``create_execution``'s engine
    validation, so declarative specs fail fast with an actionable
    message.
    """
    try:
        builder = GRAPH_FAMILIES[family]
    except KeyError:
        valid = ", ".join(graph_family_names())
        raise ValueError(
            f"unknown graph family {family!r}: valid families are {valid}"
        ) from None
    return builder(rng, **params)

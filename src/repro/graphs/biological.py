"""Biological network topologies.

The paper's title application — fault-tolerant *biological* networks —
comes with no dataset: the SA model abstracts cellular populations
(quorum-sensing bacteria, developing tissues) whose communication is a
weak chemical broadcast.  These generators build the standard synthetic
stand-ins (documented as substitutions in DESIGN.md §5):

* :func:`quorum_colony` — a bacterial colony: near-complete contact
  graph with environmental edge loss, the paper's own bounded-diameter
  motivation (quorum sensing is its running example of broadcast
  communication);
* :func:`cell_tissue` — a 2-D tissue patch: cells touch their spatial
  neighbors (random geometric graph with a connectivity-safe radius);
* :func:`proneural_cluster` — the fly sensory-organ-precursor setting
  of [AAB+11, SJX13]: a lattice of epithelial cells where each cell
  inhibits its neighborhood within a small radius; MIS = the SOP
  selection pattern;
* :func:`signaling_hub_colony` — a heterogeneous-degree colony:
  preferential-attachment contact structure (most cells weakly
  connected, a few highly connected) plus designated broadcast hubs,
  modeling populations where a minority of cells dominate signaling.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import networkx as nx
import numpy as np

from repro.graphs.topology import Topology
from repro.model.errors import TopologyError

#: Largest per-axis displacement of a tissue cell from its grid point.
TISSUE_JITTER = 0.25


def quorum_colony(
    n: int,
    diameter_bound: int,
    rng: np.random.Generator,
    obstacle_rate: float = 0.35,
    max_attempts: int = 200,
) -> Topology:
    """A bacterial colony: all-to-all signaling with environmental
    obstacles knocking out a fraction of contacts, subject to the
    diameter staying within ``diameter_bound``."""
    if n < 2:
        raise TopologyError("colony needs n >= 2")
    for _ in range(max_attempts):
        graph = nx.complete_graph(n)
        for u, v in list(graph.edges()):
            if rng.random() < obstacle_rate:
                graph.remove_edge(u, v)
                if not nx.is_connected(graph):
                    graph.add_edge(u, v)
        if nx.diameter(graph) <= diameter_bound:
            return Topology(graph, name=f"quorum-colony(n={n}, D={diameter_bound})")
    raise TopologyError(
        f"could not sample a quorum colony with diameter <= {diameter_bound}"
    )


def cell_tissue(
    width: int,
    height: int,
    rng: np.random.Generator,
    contact_radius: float = 1.6,
) -> Topology:
    """A tissue patch: cells on a jittered grid, connected when their
    centers lie within ``contact_radius``.

    Each cell is displaced by at most :data:`TISSUE_JITTER` per axis,
    which guarantees connectivity for ``radius >= 1 + 2·jitter`` while
    keeping the contact structure organic.
    """
    jitter = TISSUE_JITTER
    if width < 2 or height < 2:
        raise TopologyError("tissue needs at least a 2x2 patch")
    if contact_radius < 1 + 2 * jitter:
        raise TopologyError("contact radius too small to guarantee a connected tissue")
    positions = {}
    index = 0
    for x in range(width):
        for y in range(height):
            dx, dy = rng.uniform(-jitter, jitter, size=2)
            positions[index] = (x + dx, y + dy)
            index += 1
    graph = nx.Graph()
    graph.add_nodes_from(positions)
    for u, v in itertools.combinations(positions, 2):
        ux, uy = positions[u]
        vx, vy = positions[v]
        if math.hypot(ux - vx, uy - vy) <= contact_radius:
            graph.add_edge(u, v)
    if not nx.is_connected(graph):
        raise TopologyError("tissue patch came out disconnected")
    topo = Topology(graph, name=f"cell-tissue({width}x{height})")
    return topo


def proneural_cluster(width: int, height: int, inhibition_radius: int = 1) -> Topology:
    """A proneural cluster: epithelial cells on a grid, adjacent when
    within ``inhibition_radius`` in Chebyshev distance (each cell
    laterally inhibits its surrounding ring — the fly SOP-selection
    geometry of [AAB+11]).
    """
    if width < 2 or height < 2:
        raise TopologyError("cluster needs at least a 2x2 patch")
    if inhibition_radius < 1:
        raise TopologyError("inhibition radius must be >= 1")
    graph = nx.Graph()
    cells = [(x, y) for x in range(width) for y in range(height)]
    graph.add_nodes_from(cells)
    for (x1, y1), (x2, y2) in itertools.combinations(cells, 2):
        if max(abs(x1 - x2), abs(y1 - y2)) <= inhibition_radius:
            graph.add_edge((x1, y1), (x2, y2))
    return Topology(
        graph,
        name=f"proneural({width}x{height}, r={inhibition_radius})",
    )


def signaling_hub_colony(
    n: int,
    rng: np.random.Generator,
    hubs: int = 2,
    attachment: int = 2,
    diameter_bound: Optional[int] = None,
) -> Topology:
    """A colony with strongly heterogeneous degrees.

    Cell contacts follow preferential attachment (Barabási–Albert with
    ``attachment`` edges per newcomer), so degrees span from
    ``attachment`` up to ``Θ(√n)``; the ``hubs`` highest-degree cells
    are then promoted to broadcast hubs adjacent to every other cell —
    the "signaling center" organization of developing tissues.  With at
    least one hub the diameter is at most 2 regardless of ``n``, which
    makes the family a natural stress test for the claim that AlgAU's
    behavior depends on ``D`` only, never on ``n`` or the degree
    distribution.
    """
    if n < 3:
        raise TopologyError("hub colony needs n >= 3")
    if hubs < 1:
        raise TopologyError("hub colony needs at least one hub")
    if attachment < 1 or attachment >= n:
        raise TopologyError("attachment must lie in [1, n)")
    seed = int(rng.integers(2**31))
    graph = nx.barabasi_albert_graph(n, attachment, seed=seed)
    by_degree = sorted(graph.degree, key=lambda pair: (-pair[1], pair[0]))
    for hub, _ in by_degree[:hubs]:
        for v in graph.nodes:
            if v != hub:
                graph.add_edge(hub, v)
    topo = Topology(graph, name=f"hub-colony(n={n}, hubs={hubs})")
    if diameter_bound is not None:
        topo.check_diameter_bound(diameter_bound)
    return topo

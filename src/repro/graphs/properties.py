"""Graph-property helpers used by experiments and tests."""

from __future__ import annotations

from typing import Tuple

import networkx as nx

from repro.graphs.topology import Topology


def diameter(topology: Topology) -> int:
    """``diam(G)`` (delegates to the topology's cache)."""
    return topology.diameter


def radius(topology: Topology) -> int:
    """The graph radius (minimum eccentricity)."""
    if topology.n == 1:
        return 0
    return nx.radius(topology.graph)


def degree_stats(topology: Topology) -> Tuple[int, float, int]:
    """(min degree, mean degree, max degree)."""
    degrees = [topology.degree(v) for v in topology.nodes]
    return min(degrees), sum(degrees) / len(degrees), max(degrees)


def summary(topology: Topology) -> str:
    """One-line description used in experiment table headers."""
    dmin, dmean, dmax = degree_stats(topology)
    return (
        f"{topology.name}: n={topology.n} m={topology.m} "
        f"diam={topology.diameter} deg[{dmin}/{dmean:.1f}/{dmax}]"
    )

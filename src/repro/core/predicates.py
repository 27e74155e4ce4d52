"""Global configuration predicates from the analysis of AlgAU (Sec. 2.3).

These predicates are *analysis-side* notions — AlgAU itself only reads
signals — but the paper's correctness proof is phrased entirely in their
vocabulary, so implementing them exactly lets us check the paper's
invariants (Obs. 2.1–2.9, Lem. 2.10–2.22) mechanically on executions:

* an edge is **protected** when its endpoints' levels are adjacent;
* a node is **protected** when all its incident edges are;
* a protected node sensing no faulty turn is **good**;
* a node is **out-protected** when it senses no level in ``Ψ≫(λ_v)``;
* the graph is **ℓ-out-protected** when all nodes with level in
  ``Ψ≥(ℓ)`` are out-protected;
* a faulty node is **justifiably faulty** when it is unprotected or has
  a neighbor in the faulty turn one unit inwards; a graph with no
  unjustifiably faulty node is **justified**;
* a node is **grounded** when it lies on a path of length ≤ D of
  protected nodes with an endpoint at level ±1.
"""

from __future__ import annotations

from typing import FrozenSet, Set, Tuple

from repro.core.algau import ThinUnison
from repro.core.turns import faulty
from repro.model.configuration import Configuration


def edge_protected(
    algorithm: ThinUnison, config: Configuration, u: int, v: int
) -> bool:
    """Whether edge ``(u, v)`` is protected (endpoint levels adjacent)."""
    return algorithm.levels.adjacent(config[u].level, config[v].level)


def protected_nodes(algorithm: ThinUnison, config: Configuration) -> FrozenSet[int]:
    """``V_p`` — nodes all of whose incident edges are protected."""
    topology = config.topology
    result = set(topology.nodes)
    for u, v in topology.edges:
        if not edge_protected(algorithm, config, u, v):
            result.discard(u)
            result.discard(v)
    return frozenset(result)


def protected_edges(
    algorithm: ThinUnison, config: Configuration
) -> FrozenSet[Tuple[int, int]]:
    """``E_p`` — the protected edges."""
    return frozenset(
        (u, v)
        for u, v in config.topology.edges
        if edge_protected(algorithm, config, u, v)
    )


def is_protected_graph(algorithm: ThinUnison, config: Configuration) -> bool:
    """Whether every node (equivalently every edge) is protected."""
    return all(
        edge_protected(algorithm, config, u, v) for u, v in config.topology.edges
    )


def good_nodes(algorithm: ThinUnison, config: Configuration) -> FrozenSet[int]:
    """Protected nodes that sense no faulty turn."""
    protected = protected_nodes(algorithm, config)
    result = set()
    for v in protected:
        if not any(config[u].faulty for u in config.topology.inclusive_neighbors(v)):
            result.add(v)
    return frozenset(result)


def is_good_graph(algorithm: ThinUnison, config: Configuration) -> bool:
    """Whether the graph is good: protected and entirely able.

    Per Sec. 2.3.2, reaching a good graph is exactly stabilization for
    AlgAU (goodness is closed under steps, and a good graph satisfies
    the AU safety and liveness conditions).
    """
    if any(config[v].faulty for v in config.topology.nodes):
        return False
    return is_protected_graph(algorithm, config)


def out_protected_nodes(algorithm: ThinUnison, config: Configuration) -> FrozenSet[int]:
    """``V_op`` — nodes sensing no level in ``Ψ≫(λ_v)``."""
    levels = algorithm.levels
    topology = config.topology
    result = set()
    for v in topology.nodes:
        own = config[v].level
        outer = levels.outwards_gg(own)
        if all(config[u].level not in outer for u in topology.inclusive_neighbors(v)):
            result.add(v)
    return frozenset(result)


def is_out_protected_graph(algorithm: ThinUnison, config: Configuration) -> bool:
    """Whether every node is out-protected (``V = V_op``)."""
    return len(out_protected_nodes(algorithm, config)) == config.topology.n


def is_level_out_protected(
    algorithm: ThinUnison, config: Configuration, level: int
) -> bool:
    """ℓ-out-protectedness: every node with level in ``Ψ≥(ℓ)`` is
    out-protected."""
    zone = algorithm.levels.outwards_ge(level)
    out_protected = out_protected_nodes(algorithm, config)
    return all(
        v in out_protected
        for v in config.topology.nodes
        if config[v].level in zone
    )


def justifiably_faulty_nodes(
    algorithm: ThinUnison, config: Configuration
) -> FrozenSet[int]:
    """Faulty nodes that are unprotected or have a neighbor in the
    faulty turn one unit inwards."""
    levels = algorithm.levels
    topology = config.topology
    protected = protected_nodes(algorithm, config)
    result = set()
    for v in topology.nodes:
        turn = config[v]
        if not turn.faulty:
            continue
        if v not in protected:
            result.add(v)
            continue
        inward = levels.outwards(turn.level, -1)
        if abs(inward) >= 2 and any(
            config[u] == faulty(inward) for u in topology.neighbors(v)
        ):
            result.add(v)
    return frozenset(result)


def unjustifiably_faulty_nodes(
    algorithm: ThinUnison, config: Configuration
) -> FrozenSet[int]:
    """Faulty nodes that are not justifiably faulty."""
    justified = justifiably_faulty_nodes(algorithm, config)
    return frozenset(
        v
        for v in config.topology.nodes
        if config[v].faulty and v not in justified
    )


def grounded_nodes(algorithm: ThinUnison, config: Configuration) -> FrozenSet[int]:
    """Nodes lying on a grounded path: a path of length ≤ D whose nodes
    are all protected and with an endpoint at level ±1.

    Computed as a BFS of depth ``D`` inside the protected-node induced
    subgraph, seeded at protected nodes with level in {−1, 1}.
    """
    topology = config.topology
    protected = protected_nodes(algorithm, config)
    seeds = {v for v in protected if abs(config[v].level) == 1}
    reached: Set[int] = set(seeds)
    frontier = set(seeds)
    for _ in range(algorithm.levels.diameter_bound):
        nxt = set()
        for v in frontier:
            for u in topology.neighbors(v):
                if u in protected and u not in reached:
                    nxt.add(u)
        reached |= nxt
        frontier = nxt
        if not frontier:
            break
    return frozenset(reached)

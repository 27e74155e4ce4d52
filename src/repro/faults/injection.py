"""Transient faults and adversarial initial configurations.

Self-stabilization is exactly the guarantee that the system recovers
from *any* combination of transient faults, which the model captures by
letting the adversary pick the initial configuration.  This module
provides:

* adversarial initial-configuration builders (arbitrary random states,
  AlgAU-specific worst cases such as clock tears and sign splits);
* :class:`TransientFaultInjector`, an execution intervention that
  corrupts a random subset of nodes at prescribed times — this models
  mid-execution transient faults, after which the algorithm must
  re-stabilize;
* dynamic-topology perturbations (:func:`perturb_topology`,
  :func:`carry_configuration`): the environment rewires contacts under
  the running system — edges appear and disappear while every node
  keeps its state — after which the algorithm must re-stabilize on the
  new graph (the dynamic FTSS setting of Dubois et al. for unison).

Nodes that *stay* faulty (Byzantine strategies, crash-stop, permanent
signal noise) are the third fault regime and live in
:mod:`repro.resilience`; their success criterion is containment
(:mod:`repro.analysis.containment`), not global re-stabilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.algau import ThinUnison
from repro.core.turns import able
from repro.graphs.topology import Topology
from repro.model.algorithm import Algorithm
from repro.model.configuration import Configuration
from repro.model.errors import ModelError


# ----------------------------------------------------------------------
# Adversarial initial configurations (generic).
# ----------------------------------------------------------------------


def random_configuration(
    algorithm: Algorithm, topology: Topology, rng: np.random.Generator
) -> Configuration:
    """Every node in an independently random state — the canonical
    adversarial start."""
    return Configuration.from_function(topology, lambda v: algorithm.random_state(rng))


def uniform_configuration(algorithm: Algorithm, topology: Topology) -> Configuration:
    """All nodes in the designated initial state ``q*_0``."""
    return Configuration.uniform(topology, algorithm.initial_state())


# ----------------------------------------------------------------------
# AlgAU-specific adversarial starts.
# ----------------------------------------------------------------------


def au_sign_split(
    algorithm: ThinUnison, topology: Topology, rng: np.random.Generator
) -> Configuration:
    """Half the nodes near level ``+k``, half near ``-k`` — the maximal
    clock discrepancy the out-protection analysis must undo."""
    k = algorithm.levels.k
    def pick(v: int):
        if v % 2 == 0:
            return able(int(rng.integers(max(1, k - 1), k + 1)))
        return able(-int(rng.integers(max(1, k - 1), k + 1)))
    return Configuration.from_function(topology, pick)


def au_clock_tear(
    algorithm: ThinUnison, topology: Topology, rng: np.random.Generator
) -> Configuration:
    """A graded clock assignment with one large tear: node ``v`` gets a
    level proportional to its index, producing many unprotected edges."""
    k = algorithm.levels.k
    n = topology.n
    levels = algorithm.levels
    def pick(v: int):
        clock = (v * max(1, (2 * k) // max(1, n))) % levels.group_order
        return able(levels.level_of_clock(clock))
    return Configuration.from_function(topology, pick)


def au_all_faulty(
    algorithm: ThinUnison, topology: Topology, rng: np.random.Generator
) -> Configuration:
    """Every node in a random *faulty* turn (the detour states)."""
    faulty_turns = algorithm.turns.faulty_turns
    return Configuration.from_function(
        topology,
        lambda v: faulty_turns[int(rng.integers(len(faulty_turns)))],
    )


#: The adversarial-start battery by declarative name — the single
#: source of truth shared by :func:`au_adversarial_suite`, the campaign
#: runner, and the CLI ``--start`` choices.  Insertion order is part of
#: the contract: callers iterate it while drawing from a shared rng.
AU_START_BUILDERS: Dict[str, Callable] = {
    "random": random_configuration,
    "sign-split": au_sign_split,
    "clock-tear": au_clock_tear,
    "all-faulty": au_all_faulty,
}


def au_adversarial_suite(
    algorithm: ThinUnison, topology: Topology, rng: np.random.Generator
) -> Dict[str, Configuration]:
    """The named battery of adversarial starts used by experiments."""
    return {
        name: build(algorithm, topology, rng)
        for name, build in AU_START_BUILDERS.items()
    }


# ----------------------------------------------------------------------
# Mid-execution transient faults.
# ----------------------------------------------------------------------


@dataclass
class FaultEvent:
    """Record of one injected fault burst."""

    t: int
    nodes: Tuple[int, ...]


class TransientFaultInjector:
    """Corrupts a random fraction of nodes at prescribed step times.

    Instances are passed as the ``intervention`` of an
    :class:`~repro.model.execution.Execution`; at each scheduled time the
    injector replaces the states of ``ceil(fraction * n)`` random nodes
    with states drawn from ``algorithm.random_state``.

    The ``events`` list records what was corrupted and when, so
    experiments can measure recovery time per burst.
    """

    def __init__(
        self,
        algorithm: Algorithm,
        times: Sequence[int],
        fraction: float = 0.25,
        rng: Optional[np.random.Generator] = None,
    ):
        if not 0.0 < fraction <= 1.0:
            raise ModelError(f"fault fraction must be in (0, 1], got {fraction}")
        self._algorithm = algorithm
        self._times = frozenset(int(t) for t in times)
        self._fraction = fraction
        self._rng = rng if rng is not None else np.random.default_rng()
        self.events: List[FaultEvent] = []

    def __call__(self, execution) -> Optional[Configuration]:
        if execution.t not in self._times:
            return None
        topology = execution.topology
        count = max(1, int(np.ceil(self._fraction * topology.n)))
        victims = self._rng.choice(topology.n, size=count, replace=False)
        updates = {int(v): self._algorithm.random_state(self._rng) for v in victims}
        self.events.append(FaultEvent(t=execution.t, nodes=tuple(sorted(updates))))
        return execution.configuration.replace(updates)


# ----------------------------------------------------------------------
# Dynamic topology perturbations.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TopologyPerturbation:
    """One environmental rewiring: the new topology plus what changed."""

    topology: Topology
    removed: Tuple[Tuple[int, int], ...]
    added: Tuple[Tuple[int, int], ...]


def perturb_topology(
    topology: Topology,
    rng: np.random.Generator,
    remove: int = 1,
    add: int = 1,
    diameter_bound: Optional[int] = None,
    max_attempts: int = 200,
) -> TopologyPerturbation:
    """Rewire ``topology``: drop ``remove`` random edges and create
    ``add`` random non-edges, keeping the graph connected (and, when
    ``diameter_bound`` is given, within the bound).

    The node set is untouched — the perturbation models environmental
    obstacles moving between cells, not cells dying — so a running
    configuration can be carried over node-for-node with
    :func:`carry_configuration`.  The delivery is *exact*: an attempt
    that cannot remove ``remove`` edges (connectivity), add ``add``
    edges (not enough non-edges, never re-adding a just-removed edge),
    or stay within ``diameter_bound`` is resampled, and the function
    raises after ``max_attempts`` rather than silently under-delivering
    — a partially-applied perturbation would make recovery measurements
    vacuously easy.
    """
    if remove < 0 or add < 0:
        raise ModelError("perturbation sizes must be non-negative")
    if remove == 0 and add == 0:
        return TopologyPerturbation(topology, (), ())

    # One mutable working graph for the whole call: a dict-of-sets
    # adjacency plus a swap-remove edge list for O(1) uniform edge
    # draws.  Candidate edges/non-edges are rejection-sampled (with an
    # exact enumeration fallback, so delivery stays exact on dense or
    # bridge-heavy graphs) instead of materializing and sorting every
    # non-edge of the graph per attempt.
    n = topology.n
    adj: Dict[int, set] = {v: set(topology.neighbors(v)) for v in topology.nodes}
    edges: List[Tuple[int, int]] = list(topology.edges)
    edge_pos: Dict[Tuple[int, int], int] = {e: i for i, e in enumerate(edges)}

    def drop(e: Tuple[int, int]) -> None:
        u, v = e
        adj[u].discard(v)
        adj[v].discard(u)
        i = edge_pos.pop(e)
        last = edges.pop()
        if last != e:
            edges[i] = last
            edge_pos[last] = i

    def insert(e: Tuple[int, int]) -> None:
        u, v = e
        adj[u].add(v)
        adj[v].add(u)
        edge_pos[e] = len(edges)
        edges.append(e)

    def connected_without(u: int, v: int) -> bool:
        """Does ``u`` still reach ``v`` once (u, v) is removed?"""
        if len(adj[u]) == 1 or len(adj[v]) == 1:
            return False
        seen = {u}
        frontier = [u]
        while frontier:
            nxt: List[int] = []
            for w in frontier:
                for x in adj[w]:
                    if w == u and x == v:
                        continue
                    if x == v:
                        return True
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            frontier = nxt
        return False

    def diameter_within(bound: int) -> bool:
        for source in adj:
            seen = {source}
            frontier = [source]
            depth = 0
            while frontier:
                depth += 1
                nxt = []
                for w in frontier:
                    for x in adj[w]:
                        if x not in seen:
                            seen.add(x)
                            nxt.append(x)
                frontier = nxt
                if frontier and depth > bound:
                    return False
            if len(seen) != n:
                return False
        return True

    def pick_removal() -> Optional[Tuple[int, int]]:
        for _ in range(max_attempts):
            e = edges[int(rng.integers(len(edges)))]
            if connected_without(*e):
                return e
        # Exact fallback: test every edge in a random order.
        for i in rng.permutation(len(edges)):
            e = edges[int(i)]
            if connected_without(*e):
                return e
        return None

    def pick_addition(removed_set: set) -> Optional[Tuple[int, int]]:
        for _ in range(max_attempts):
            u = int(rng.integers(n))
            v = int(rng.integers(n))
            if u == v:
                continue
            e = (u, v) if u < v else (v, u)
            if e in removed_set or e[1] in adj[e[0]]:
                continue
            return e
        # Exact fallback (dense graphs): enumerate the non-edges once.
        pool = sorted(
            (u, v)
            for u in adj
            for v in adj
            if u < v and v not in adj[u] and (u, v) not in removed_set
        )
        if not pool:
            return None
        return pool[int(rng.integers(len(pool)))]

    for _ in range(max_attempts):
        removed: List[Tuple[int, int]] = []
        added: List[Tuple[int, int]] = []
        ok = True
        for _ in range(remove):
            e = pick_removal()
            if e is None:
                ok = False
                break
            drop(e)
            removed.append(e)
        if ok:
            removed_set = set(removed)
            for _ in range(add):
                e = pick_addition(removed_set)
                if e is None:
                    ok = False
                    break
                insert(e)
                added.append(e)
        if ok and diameter_bound is not None:
            ok = diameter_within(diameter_bound)
        if ok:
            graph = nx.Graph()
            graph.add_nodes_from(topology.nodes)
            graph.add_edges_from(edges)
            perturbed = Topology(
                graph, name=f"{topology.name}~(-{len(removed)}+{len(added)})"
            )
            return TopologyPerturbation(perturbed, tuple(removed), tuple(added))
        # Revert the working graph and resample (only the diameter gate
        # or an unsatisfiable size can land here).
        for e in added:
            drop(e)
        for e in removed:
            insert(e)
    raise ModelError(
        f"could not perturb {topology.name!r} within {max_attempts} attempts "
        f"(remove={remove}, add={add}, diameter_bound={diameter_bound})"
    )


def carry_configuration(
    configuration: Configuration, topology: Topology
) -> Configuration:
    """Re-home ``configuration`` onto a same-node-set ``topology``.

    Every node keeps its state; only the communication structure (and
    therefore every signal) changes.  This is the state hand-off after a
    dynamic-topology perturbation: self-stabilization guarantees the
    system recovers from the resulting arbitrary "initial" configuration
    on the new graph.
    """
    if len(configuration) != topology.n:
        raise ModelError(
            f"cannot carry a {len(configuration)}-node configuration onto "
            f"{topology.name!r} with {topology.n} nodes"
        )
    return Configuration(topology, {v: configuration[v] for v in topology.nodes})

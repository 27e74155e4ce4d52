"""Seeded topology-churn processes (the dynamic-graph adversary).

The paper's biological networks are not static: cells die, divide and
rewire while the clock-synchronization protocol runs.  This module
models that adversary as a :class:`ChurnProcess` — a seeded generator
of :class:`~repro.graphs.dynamic.TopologyDelta` events that the engines
consume through ``mutate_topology`` — so the same delta stream can be
replayed bit-identically against every execution lane of a
differential pair (the process owns its rng; engines never see it).

Two regimes, selected by the rates:

* **edge churn** (``edge_add_rate`` / ``edge_remove_rate``) — the node
  set is fixed, links appear and disappear;
* **membership churn** (``join_rate`` / ``leave_rate``) — nodes join
  with fresh state (a cell is born unsynchronized) and leave as
  tombstones.

Event counts per step are Poisson draws, so a rate is "expected events
per sampled step".  The process mirrors the graph in its own
dict-of-sets adjacency plus a swap-remove edge list — sampling never
copies the topology (let alone a networkx graph).  Leaves and edge
removals never disconnect the alive part: each candidate is checked by
a BFS over the mirror, O(n + m) per *candidate*, paid only for those
events.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.dynamic import TopologyDelta, canonical_edge

__all__ = ["ChurnProcess"]

#: Attachment count for a joining node (capped by the alive count).
JOIN_DEGREE = 2
#: Candidates sampled for one event before it is skipped (and counted
#: in :attr:`ChurnProcess.skipped_events`).
MAX_ATTEMPTS = 64


class ChurnProcess:
    """A seeded stream of topology deltas over an evolving mirror graph.

    Parameters
    ----------
    topology:
        The starting graph (any object with ``nodes`` / ``neighbors``;
        tombstones from a prior ``left_nodes`` attribute are honoured).
    rates:
        Expected events per sampled step, one per event kind.  Rates of
        zero disable the kind.
    seed:
        Seeds the process-private rng.  Two processes built with the
        same topology, rates and seed emit identical delta streams —
        the property the engine-differential campaigns rely on.
    initial_state:
        Zero-argument factory for the state a joining node starts in
        (the algorithm's rest state in every campaign use).

    Leave and removal candidates that would disconnect the *alive* part
    are rejected and resampled; an event is skipped entirely once
    :data:`MAX_ATTEMPTS` candidates in a row failed (logged in
    :attr:`skipped_events`).  A joining node attaches to
    :data:`JOIN_DEGREE` alive nodes.
    """

    def __init__(
        self,
        topology,
        *,
        seed: int,
        edge_add_rate: float = 0.0,
        edge_remove_rate: float = 0.0,
        join_rate: float = 0.0,
        leave_rate: float = 0.0,
        initial_state=None,
    ) -> None:
        for name, rate in (
            ("edge_add_rate", edge_add_rate),
            ("edge_remove_rate", edge_remove_rate),
            ("join_rate", join_rate),
            ("leave_rate", leave_rate),
        ):
            if rate < 0:
                raise ValueError(f"{name} must be >= 0, got {rate!r}")
        if (join_rate or leave_rate) and initial_state is None:
            raise ValueError(
                "membership churn (join/leave rates) needs an "
                "initial_state factory for joining nodes"
            )
        self.edge_add_rate = float(edge_add_rate)
        self.edge_remove_rate = float(edge_remove_rate)
        self.join_rate = float(join_rate)
        self.leave_rate = float(leave_rate)
        self.initial_state = initial_state
        self.skipped_events = 0
        self.events = 0
        self._rng = np.random.default_rng([int(seed), 0x6368726E])

        left = set(getattr(topology, "left_nodes", ()))
        self._adj: Dict[int, Set[int]] = {
            v: set(topology.neighbors(v)) for v in topology.nodes if v not in left
        }
        self._alive: List[int] = sorted(self._adj)
        self._alive_pos: Dict[int, int] = {
            v: i for i, v in enumerate(self._alive)
        }
        self._next_id = (max(topology.nodes) + 1) if len(topology.nodes) else 0
        self._edges: List[Tuple[int, int]] = sorted(
            {canonical_edge(u, v) for u in self._adj for v in self._adj[u]}
        )
        self._edge_pos: Dict[Tuple[int, int], int] = {
            e: i for i, e in enumerate(self._edges)
        }

    # ------------------------------------------------------------------
    # Mirror maintenance (swap-remove lists for O(1) uniform choice).
    # ------------------------------------------------------------------

    @property
    def alive_count(self) -> int:
        return len(self._alive)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def _add_edge(self, u: int, v: int) -> None:
        self._adj[u].add(v)
        self._adj[v].add(u)
        e = canonical_edge(u, v)
        self._edge_pos[e] = len(self._edges)
        self._edges.append(e)

    def _remove_edge(self, u: int, v: int) -> None:
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        e = canonical_edge(u, v)
        i = self._edge_pos.pop(e)
        last = self._edges.pop()
        if last != e:
            self._edges[i] = last
            self._edge_pos[last] = i

    def _remove_alive(self, v: int) -> None:
        i = self._alive_pos.pop(v)
        last = self._alive.pop()
        if last != v:
            self._alive[i] = last
            self._alive_pos[last] = i

    def _connected_without_node(self, skip: int) -> bool:
        """Is the alive part minus ``skip`` still connected (BFS)?"""
        remaining = len(self._alive) - 1
        if remaining <= 1:
            return True
        source = self._alive[0] if self._alive[0] != skip else self._alive[1]
        seen = {source, skip}
        frontier = [source]
        count = 1
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        count += 1
                        nxt.append(w)
            frontier = nxt
        return count == remaining

    def _connected_without_edge(self, u: int, v: int) -> bool:
        """Does ``u`` still reach ``v`` with the edge (u, v) removed?"""
        if len(self._adj[u]) == 1 or len(self._adj[v]) == 1:
            return False
        seen = {u}
        frontier = [u]
        while frontier:
            nxt: List[int] = []
            for w in frontier:
                for x in self._adj[w]:
                    if w == u and x == v:
                        continue
                    if x == v:
                        return True
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            frontier = nxt
        return False

    # ------------------------------------------------------------------
    # Sampling.
    # ------------------------------------------------------------------

    def sample(self) -> Optional[TopologyDelta]:
        """Draw one step's delta; ``None`` when no event fired.

        Event kinds are sampled in a fixed order (leaves, joins,
        removals, additions) against the evolving mirror, so the emitted
        delta is always internally consistent: removals and additions
        never touch this step's leavers or joiners.
        """
        rng = self._rng
        n_leave = int(rng.poisson(self.leave_rate)) if self.leave_rate else 0
        n_join = int(rng.poisson(self.join_rate)) if self.join_rate else 0
        n_remove = (
            int(rng.poisson(self.edge_remove_rate)) if self.edge_remove_rate else 0
        )
        n_add = int(rng.poisson(self.edge_add_rate)) if self.edge_add_rate else 0
        if not (n_leave or n_join or n_remove or n_add):
            return None

        leavers: List[int] = []
        for _ in range(n_leave):
            v = self._sample_leaver()
            if v is None:
                self.skipped_events += 1
                continue
            for u in tuple(self._adj[v]):
                self._remove_edge(v, u)
            del self._adj[v]
            self._remove_alive(v)
            leavers.append(v)

        joins: List[Tuple[int, Tuple[int, ...], object]] = []
        joiners: Set[int] = set()
        for _ in range(n_join):
            if not self._alive:
                self.skipped_events += 1
                continue
            degree = min(JOIN_DEGREE, len(self._alive))
            picks = rng.choice(len(self._alive), size=degree, replace=False)
            hood = tuple(sorted(self._alive[int(i)] for i in picks))
            v = self._next_id
            self._next_id += 1
            self._adj[v] = set()
            self._alive_pos[v] = len(self._alive)
            self._alive.append(v)
            for u in hood:
                self._add_edge(v, u)
            joiners.add(v)
            joins.append((v, hood, self.initial_state()))

        removals: List[Tuple[int, int]] = []
        for _ in range(n_remove):
            e = self._sample_removable_edge(joiners)
            if e is None:
                self.skipped_events += 1
                continue
            self._remove_edge(*e)
            removals.append(e)

        additions: List[Tuple[int, int]] = []
        removed_now = set(removals)
        for _ in range(n_add):
            e = self._sample_absent_pair(joiners, removed_now)
            if e is None:
                self.skipped_events += 1
                continue
            self._add_edge(*e)
            additions.append(e)

        if not (leavers or joins or removals or additions):
            return None
        self.events += len(leavers) + len(joins) + len(removals) + len(additions)
        return TopologyDelta(
            add_edges=tuple(additions),
            remove_edges=tuple(removals),
            join=tuple(joins),
            leave=tuple(sorted(leavers)),
        )

    def deltas(self, steps: int) -> Iterator[Optional[TopologyDelta]]:
        """``steps`` consecutive draws (``None`` entries for quiet
        steps, so the stream aligns with engine steps one-to-one)."""
        for _ in range(steps):
            yield self.sample()

    def _sample_leaver(self) -> Optional[int]:
        rng = self._rng
        if len(self._alive) <= 2:
            return None
        for _ in range(MAX_ATTEMPTS):
            v = self._alive[int(rng.integers(len(self._alive)))]
            if self._connected_without_node(v):
                return v
        return None

    def _sample_removable_edge(
        self, joiners: Set[int]
    ) -> Optional[Tuple[int, int]]:
        rng = self._rng
        if not self._edges:
            return None
        for _ in range(MAX_ATTEMPTS):
            u, v = self._edges[int(rng.integers(len(self._edges)))]
            if u in joiners or v in joiners:
                continue  # this step's attachments are off limits
            if self._connected_without_edge(u, v):
                return (u, v)
        return None

    def _sample_absent_pair(
        self, joiners: Set[int], removed_now: Set[Tuple[int, int]]
    ) -> Optional[Tuple[int, int]]:
        rng = self._rng
        candidates = len(self._alive) - len(joiners)
        if candidates < 2:
            return None
        for _ in range(MAX_ATTEMPTS):
            i, j = rng.integers(len(self._alive)), rng.integers(len(self._alive))
            u, v = self._alive[int(i)], self._alive[int(j)]
            if u == v or u in joiners or v in joiners:
                continue
            if v in self._adj[u]:
                continue
            e = canonical_edge(u, v)
            if e in removed_now:
                # Re-adding an edge removed this very step would make
                # the delta internally inconsistent.
                continue
            return e
        return None

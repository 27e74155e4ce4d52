"""Mutable, versioned topology — the dynamic-membership substrate.

Every engine froze the topology at construction: cached inclusive CSR,
cross-step dirty sets keyed by node id, compiled kernels walking a
fixed ``indptr``/``indices`` pair.  Biological contact networks do not
hold still, so this module makes topology a *mutable engine concern*:

* :class:`TopologyDelta` — one declarative structural change: edges
  added/removed, nodes joined with arbitrary fresh state, nodes left.
* :class:`DynamicTopology` — a :class:`~repro.graphs.topology.Topology`
  duck-type that owns its inclusive neighbor rows as plain lists and
  applies deltas incrementally (no networkx, no full rebuild).
* :class:`MutableCSR` — a :class:`~repro.graphs.csr.CSRAdjacency`
  whose ``indices`` live in a slack buffer: a delta splices only the
  changed rows (double-buffered vectorized copy), and the buffer grows
  amortized-2x when the slack is exhausted.  Kernel consumers
  (:class:`~repro.core.algau_vec.VectorKernel`,
  :class:`~repro.core.algau_native.NativeKernel`) take the CSR per
  call, so the compiled tiers ride the patched arrays unchanged.
* :class:`ResolvedDelta` — one delta validated and spliced once, by
  :meth:`DynamicTopology.resolve`, holding the post-delta rows and
  CSR arrays.  Every other :class:`DynamicTopology` on the same base
  graph, at the same version, *replays* it
  (:meth:`DynamicTopology.replay`) instead of re-deriving it: the
  lanes of a campaign input group share one resolved churn stream.

Membership semantics are tombstoned: node ids are never renumbered.  A
node that *leaves* keeps its id — its incident edges are stripped, its
inclusive row collapses to ``[v]``, and the engines mask it (like a
crash) with its state reset to the algorithm's designated initial
state, so dense code vectors, :class:`~repro.model.rounds.RoundTracker`
round completion, and goodness scans all stay well-defined.  A node
that *joins* takes the next dense id (``n``, ``n+1``, ...) with an
arbitrary fresh state — the adversarial hand-off of the dynamic FTSS
setting (Dubois et al. for unison).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.csr import CSRAdjacency, bfs_levels
from repro.model.errors import TopologyError


def canonical_edge(u: int, v: int) -> Tuple[int, int]:
    """The ``(min, max)`` form every delta edge is stored in."""
    u, v = int(u), int(v)
    if u == v:
        raise TopologyError(f"self-loop ({u}, {v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class TopologyDelta:
    """One structural change, applied atomically between steps.

    The canonical application order (identical across every engine —
    this is what makes churn trajectories differentially comparable):

    1. ``remove_edges`` (plus, implicitly, every edge incident to a
       leaving node);
    2. ``leave`` — tombstone the nodes;
    3. ``join`` — append nodes ``n, n+1, ...`` with their attachment
       edges and fresh states;
    4. ``add_edges``.

    ``remove_edges``/``add_edges`` may only touch nodes that exist
    before the delta and survive it; join attachments are declared in
    the ``join`` entries themselves.
    """

    add_edges: Tuple[Tuple[int, int], ...] = ()
    remove_edges: Tuple[Tuple[int, int], ...] = ()
    #: ``(node_id, attachment_neighbors, fresh_state)`` triples; ids
    #: must be consecutive starting at the pre-delta node count.
    join: Tuple[Tuple[int, Tuple[int, ...], object], ...] = ()
    leave: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "add_edges",
            tuple(canonical_edge(u, v) for u, v in self.add_edges),
        )
        object.__setattr__(
            self,
            "remove_edges",
            tuple(canonical_edge(u, v) for u, v in self.remove_edges),
        )
        object.__setattr__(
            self,
            "join",
            tuple(
                (int(v), tuple(sorted(int(u) for u in hood)), state)
                for v, hood, state in self.join
            ),
        )
        object.__setattr__(self, "leave", tuple(int(v) for v in self.leave))
        if len(set(self.add_edges)) != len(self.add_edges):
            raise TopologyError("duplicate edges in add_edges")
        if len(set(self.remove_edges)) != len(self.remove_edges):
            raise TopologyError("duplicate edges in remove_edges")
        if set(self.add_edges) & set(self.remove_edges):
            raise TopologyError(
                "an edge cannot be both added and removed in one delta"
            )
        if len(set(self.leave)) != len(self.leave):
            raise TopologyError("duplicate nodes in leave")
        joined = [v for v, _, _ in self.join]
        if len(set(joined)) != len(joined):
            raise TopologyError("duplicate nodes in join")
        if set(joined) & set(self.leave):
            raise TopologyError("a node cannot join and leave in one delta")

    @property
    def is_empty(self) -> bool:
        return not (self.add_edges or self.remove_edges or self.join or self.leave)

    def __bool__(self) -> bool:
        return not self.is_empty


@dataclass(frozen=True)
class AppliedDelta:
    """What a delta actually did, resolved against the graph it hit.

    ``removed_edges`` includes the implicit leave-incident strips;
    ``added_edges`` includes the join attachments.  ``touched`` lists
    the *pre-existing surviving* nodes whose inclusive rows changed —
    exactly the rows an engine must re-dirty (joined and left nodes are
    reported separately; engines dirty those too, but they need
    different bookkeeping: fresh lanes vs. tombstones)."""

    removed_edges: Tuple[Tuple[int, int], ...]
    added_edges: Tuple[Tuple[int, int], ...]
    joined: Tuple[Tuple[int, object], ...]
    left: Tuple[int, ...]
    touched: Tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return not (
            self.removed_edges or self.added_edges or self.joined or self.left
        )

    @cached_property
    def affected(self) -> np.ndarray:
        """The touched, left and joined nodes, ascending, as a read-only
        ``int64`` array: every row a delta dirties.  Cached, so the
        lanes replaying one resolution share it."""
        nodes = set(self.touched)
        nodes.update(self.left)
        nodes.update(v for v, _ in self.joined)
        rows = np.array(sorted(nodes), dtype=np.int64)
        rows.flags.writeable = False
        return rows


@dataclass(frozen=True, eq=False)
class ResolvedDelta:
    """A delta resolved once, for replay on any topology at the same
    point of the same stream.

    :meth:`DynamicTopology.resolve` builds it on a private topology of
    ``base``, at topology ``version`` (the version the delta applies
    to).  ``rows`` holds the post-delta inclusive rows of the touched,
    left and joined nodes as ``(node, row)`` pairs in ascending node
    order, so joined rows come last; ``m`` is the post-delta edge
    count.  ``indptr``, ``indices`` and ``row_index`` are the post-delta
    inclusive CSR, read-only: every replaying topology shares them."""

    applied: AppliedDelta
    base: object
    version: int
    rows: Tuple[Tuple[int, Tuple[int, ...]], ...]
    m: int
    indptr: np.ndarray
    indices: np.ndarray
    row_index: np.ndarray

    @property
    def is_empty(self) -> bool:
        return self.applied.is_empty


class MutableCSR(CSRAdjacency):
    """An inclusive CSR whose rows can be spliced in place.

    ``indices`` is a contiguous prefix view of a slack buffer.  A patch
    rebuilds ``indptr`` (O(n) cumsum), bulk-copies every unchanged row
    span from the old buffer into the spare one, writes the changed
    rows, and swaps the buffers — O(n + m) numpy work per delta, no
    Python per-edge loops over unchanged structure.  When the new edge
    total exceeds the buffer, both buffers grow 2x (the amortized
    rebuild the slack exists to avoid)."""

    __slots__ = ("_buf", "_spare")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        super().__init__(indptr, indices)
        capacity = max(16, 2 * len(self.indices))
        self._buf = np.empty(capacity, dtype=np.int64)
        self._buf[: len(self.indices)] = self.indices
        self._spare = np.empty(capacity, dtype=np.int64)
        self.indices = self._buf[: len(indices)]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "MutableCSR":
        lengths = np.fromiter(
            (len(row) for row in rows), dtype=np.int64, count=len(rows)
        )
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        flat = np.fromiter(
            (u for row in rows for u in row), dtype=np.int64, count=int(indptr[-1])
        )
        return cls(indptr, flat)

    def patch(
        self,
        changed: Dict[int, Sequence[int]],
        appended: Sequence[Sequence[int]] = (),
    ) -> None:
        """Splice new contents for the ``changed`` rows and append the
        ``appended`` rows, preserving every other row."""
        if not changed and not appended:
            return
        old_indptr = self.indptr
        old_n = len(old_indptr) - 1
        new_n = old_n + len(appended)
        lengths = np.empty(new_n, dtype=np.int64)
        np.subtract(old_indptr[1:], old_indptr[:-1], out=lengths[:old_n])
        for v, row in changed.items():
            lengths[v] = len(row)
        for i, row in enumerate(appended):
            lengths[old_n + i] = len(row)
        indptr = np.zeros(new_n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        nnz = int(indptr[-1])
        if nnz > len(self._spare):
            self._spare = np.empty(max(2 * len(self._spare), nnz), dtype=np.int64)
        out = self._spare
        src = self._buf
        prev = 0
        for v in sorted(changed) + [old_n]:
            if v > prev:
                out[indptr[prev] : indptr[v]] = src[old_indptr[prev] : old_indptr[v]]
            if v < old_n:
                row = changed[v]
                out[indptr[v] : indptr[v] + len(row)] = row
            prev = v + 1
        for i, row in enumerate(appended):
            v = old_n + i
            out[indptr[v] : indptr[v] + len(row)] = row
        self._spare = self._buf
        self._buf = out
        self.indptr = indptr
        self.indices = self._buf[:nnz]
        self.row_index = np.repeat(np.arange(new_n, dtype=np.int64), lengths)

    def adopt(
        self, indptr: np.ndarray, indices: np.ndarray, row_index: np.ndarray
    ) -> None:
        """Take over a CSR resolved elsewhere.  ``indptr`` and
        ``row_index`` are shared as they are (nothing writes them in
        place); ``indices`` is copied into the spare buffer, which then
        swaps in, so a later :meth:`patch` splices from ``indices`` as
        usual."""
        nnz = len(indices)
        if nnz > len(self._spare):
            self._spare = np.empty(max(2 * len(self._spare), nnz), dtype=np.int64)
        out = self._spare
        out[:nnz] = indices
        self._spare = self._buf
        self._buf = out
        self.indptr = indptr
        self.indices = out[:nnz]
        self.row_index = row_index


class DynamicTopology:
    """A mutable topology duck-typing the engine-facing slice of
    :class:`~repro.graphs.topology.Topology`.

    The inclusive neighbor rows (``[v, *open neighborhood ascending]``)
    are the canonical structure, held as plain lists shared by value
    with the :class:`MutableCSR`'s ``neighbor_lists()`` cache — a delta
    patches both representations in one pass.  The CSR is built only
    once :meth:`inclusive_csr` is called; a reader of the rows alone
    (:meth:`inclusive_rows`) never pays for it.  Unlike the frozen class
    there is no connectivity requirement: churn may momentarily
    disconnect the alive part (the goodness predicate and all engines
    are well-defined regardless), and left nodes remain as isolated
    tombstones.
    """

    __slots__ = (
        "name",
        "_base",
        "_rows",
        "_left",
        "_nodes",
        "_m",
        "_version",
        "_csr",
        "_diameter",
    )

    def __init__(self, base) -> None:
        self.name = f"{base.name}~dyn"
        self._base = base
        csr = base.inclusive_csr()
        # Private copies: the base topology's CSR/list caches are shared
        # across executions (differential pairs), so never alias them.
        self._rows: List[List[int]] = [
            list(row) for row in csr.neighbor_lists()
        ]
        self._left: set = set(getattr(base, "left_nodes", ()))
        self._nodes: Tuple[int, ...] = tuple(base.nodes)
        self._m: int = base.m
        self._version: int = 0
        self._csr: Optional[MutableCSR] = None
        self._diameter: Optional[int] = None

    # ------------------------------------------------------------------
    # The Topology read surface.
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[int, ...]:
        return self._nodes

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def m(self) -> int:
        return self._m

    @property
    def version(self) -> int:
        """Monotone delta counter (0 = as constructed)."""
        return self._version

    @property
    def left_nodes(self) -> FrozenSet[int]:
        """Tombstoned ids: nodes that left (isolated, masked by engines)."""
        return frozenset(self._left)

    @property
    def alive_nodes(self) -> Tuple[int, ...]:
        return tuple(v for v in self._nodes if v not in self._left)

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(
            (v, u)
            for v in self._nodes
            for u in self._rows[v]
            if u > v
        )

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return tuple(self._rows[v][1:])

    def inclusive_neighbors(self, v: int) -> Tuple[int, ...]:
        return tuple(self._rows[v])

    def degree(self, v: int) -> int:
        return len(self._rows[v]) - 1

    def has_edge(self, u: int, v: int) -> bool:
        u, v = int(u), int(v)
        return u != v and v in self._rows[u][1:]

    def inclusive_rows(self) -> List[List[int]]:
        """The live inclusive neighbor rows; deltas update them in
        place, so a holder of this list sees every mutation."""
        return self._rows

    def inclusive_csr(self) -> MutableCSR:
        if self._csr is None:
            self._csr = MutableCSR.from_rows(self._rows)
            self._csr._lists = self._rows
        return self._csr

    # ------------------------------------------------------------------
    # Metrics (BFS on the alive part — no networkx).
    # ------------------------------------------------------------------

    def distance(self, u: int, v: int) -> int:
        levels = bfs_levels(self._rows, int(u))
        if int(v) not in levels:
            raise TopologyError(f"nodes {u} and {v} are not connected")
        return levels[int(v)]

    def ball(self, v: int, radius: int) -> FrozenSet[int]:
        levels = bfs_levels(self._rows, int(v))
        return frozenset(u for u, d in levels.items() if d <= radius)

    @property
    def diameter(self) -> int:
        """Diameter of the alive part (raises if disconnected)."""
        if self._diameter is None:
            alive = [v for v in self._nodes if v not in self._left]
            worst = 0
            for v in alive:
                levels = bfs_levels(self._rows, v)
                if len(levels) < len(alive):
                    raise TopologyError(
                        f"{self.name!r} alive part is disconnected"
                    )
                worst = max(worst, max(levels.values()))
            self._diameter = worst
        return self._diameter

    def is_connected(self) -> bool:
        alive = [v for v in self._nodes if v not in self._left]
        if not alive:
            return False
        return len(bfs_levels(self._rows, alive[0])) >= len(alive)

    def check_diameter_bound(self, bound: int) -> None:
        if self.diameter > bound:
            raise TopologyError(
                f"{self.name!r} has diameter {self.diameter} > bound {bound}"
            )

    # ------------------------------------------------------------------
    # Delta application.
    # ------------------------------------------------------------------

    def _require_alive(self, v: int, role: str) -> None:
        if not 0 <= v < len(self._rows):
            raise TopologyError(f"{role} names unknown node {v}")
        if v in self._left:
            raise TopologyError(f"{role} names tombstoned node {v}")

    def apply_delta(self, delta: TopologyDelta) -> AppliedDelta:
        """Validate ``delta`` against the current structure and apply it
        in the canonical order; returns the resolved change set."""
        if delta.is_empty:
            return AppliedDelta((), (), (), (), ())
        old_n = len(self._rows)

        # --- validation against the pre-delta graph ---
        leaving = set(delta.leave)
        for v in delta.leave:
            self._require_alive(v, "leave")
        for u, v in delta.remove_edges:
            self._require_alive(u, "remove_edges")
            self._require_alive(v, "remove_edges")
            if u in leaving or v in leaving:
                raise TopologyError(
                    f"remove_edges touches leaving node in ({u}, {v}); "
                    "leave-incident edges are stripped implicitly"
                )
            if v not in self._rows[u]:
                raise TopologyError(f"remove_edges names absent edge ({u}, {v})")
        for u, v in delta.add_edges:
            self._require_alive(u, "add_edges")
            self._require_alive(v, "add_edges")
            if u in leaving or v in leaving:
                raise TopologyError(
                    f"add_edges touches leaving node in ({u}, {v})"
                )
            if v in self._rows[u][1:]:
                raise TopologyError(f"add_edges names existing edge ({u}, {v})")
        expected = old_n
        for v, hood, _ in delta.join:
            if v != expected:
                raise TopologyError(
                    f"join ids must be consecutive from {old_n}; got {v} "
                    f"where {expected} was expected"
                )
            expected += 1
            if not hood:
                raise TopologyError(f"join node {v} needs at least one neighbor")
            for u in hood:
                if u >= old_n:
                    if not any(j == u for j, _, _ in delta.join if j < v):
                        raise TopologyError(
                            f"join node {v} attaches to unknown node {u}"
                        )
                else:
                    self._require_alive(u, f"join node {v} attachment")
                    if u in leaving:
                        raise TopologyError(
                            f"join node {v} attaches to leaving node {u}"
                        )

        removed: List[Tuple[int, int]] = []
        added: List[Tuple[int, int]] = []
        touched: set = set()
        rows = self._rows

        def drop_edge(u: int, v: int) -> None:
            rows[u].remove(v)
            rows[v].remove(u)
            self._m -= 1

        def insert_edge(u: int, v: int) -> None:
            # Rows keep the inclusive invariant: node first, open
            # neighborhood ascending.
            row = rows[u]
            lo, hi = 1, len(row)
            while lo < hi:
                mid = (lo + hi) // 2
                if row[mid] < v:
                    lo = mid + 1
                else:
                    hi = mid
            row.insert(lo, v)
            row = rows[v]
            lo, hi = 1, len(row)
            while lo < hi:
                mid = (lo + hi) // 2
                if row[mid] < u:
                    lo = mid + 1
                else:
                    hi = mid
            row.insert(lo, u)
            self._m += 1

        # 1. explicit removals + leave-incident strips
        for u, v in delta.remove_edges:
            drop_edge(u, v)
            removed.append((u, v))
            touched.add(u)
            touched.add(v)
        for v in delta.leave:
            for u in list(rows[v][1:]):
                drop_edge(v, u)
                removed.append(canonical_edge(v, u))
                if u not in leaving:
                    touched.add(u)
        # 2. tombstone the leavers
        for v in delta.leave:
            self._left.add(v)
        # 3. joins
        for v, hood, _ in delta.join:
            rows.append([v])
            for u in hood:
                insert_edge(v, u)
                added.append(canonical_edge(v, u))
                if u < old_n:
                    touched.add(u)
        # 4. explicit additions
        for u, v in delta.add_edges:
            insert_edge(u, v)
            added.append((u, v))
            touched.add(u)
            touched.add(v)

        touched -= leaving
        if delta.join:
            self._nodes = tuple(range(len(rows)))
        self._version += 1
        self._diameter = None

        applied = AppliedDelta(
            removed_edges=tuple(removed),
            added_edges=tuple(added),
            joined=tuple((v, state) for v, _, state in delta.join),
            left=tuple(delta.leave),
            touched=tuple(sorted(touched)),
        )
        if self._csr is not None:
            self._csr.patch(
                {v: rows[v] for v in applied.affected.tolist() if v < old_n},
                [rows[v] for v, _, _ in delta.join],
            )
            self._csr._lists = rows
        return applied

    def resolve(self, delta: TopologyDelta) -> ResolvedDelta:
        """Apply ``delta`` (validating it, as :meth:`apply_delta` does)
        and record the result for :meth:`replay`."""
        version = self._version
        csr = self.inclusive_csr()
        applied = self.apply_delta(delta)
        indices = csr.indices.copy()
        for array in (csr.indptr, indices, csr.row_index):
            array.flags.writeable = False
        return ResolvedDelta(
            applied=applied,
            base=self._base,
            version=version,
            rows=tuple((v, tuple(self._rows[v])) for v in applied.affected.tolist()),
            m=self._m,
            indptr=csr.indptr,
            indices=indices,
            row_index=csr.row_index,
        )

    def replay(self, resolved: ResolvedDelta) -> AppliedDelta:
        """Land a delta resolved on another topology of the same base
        graph: swap in its rows and adopt its CSR arrays.  The topology
        must sit at the version the delta was resolved at."""
        if resolved.base is not self._base or resolved.version != self._version:
            raise TopologyError(
                f"cannot replay a delta resolved at v{resolved.version} of "
                f"{resolved.base.name!r} onto {self!r}"
            )
        applied = resolved.applied
        if applied.is_empty:
            return applied
        rows = self._rows
        n = len(rows)
        for v, row in resolved.rows:
            if v < n:
                rows[v] = list(row)
            else:
                rows.append(list(row))
        self._left.update(applied.left)
        if applied.joined:
            self._nodes = tuple(range(len(rows)))
        self._m = resolved.m
        self._version += 1
        self._diameter = None
        if self._csr is not None:
            self._csr.adopt(resolved.indptr, resolved.indices, resolved.row_index)
        return applied

    def apply(self, delta) -> AppliedDelta:
        """:meth:`replay` a :class:`ResolvedDelta`; :meth:`apply_delta`
        a plain :class:`TopologyDelta`."""
        if isinstance(delta, ResolvedDelta):
            return self.replay(delta)
        return self.apply_delta(delta)

    def __repr__(self) -> str:
        return (
            f"<DynamicTopology {self.name!r} n={self.n} m={self.m} "
            f"left={len(self._left)} v{self._version}>"
        )

"""CSR (compressed sparse row) adjacency for the execution engines.

Both engines need the *inclusive* neighborhoods ``N+(v) = N(v) ∪ {v}``
of every node: the array backend as flat integer arrays so that the
per-step signal computation is one segmented reduction over contiguous
memory, and the object engine as plain Python lists so that signal sets
and dirty-neighborhood propagation iterate at list speed.
:class:`CSRAdjacency` is the one shared adjacency representation; it
stores the standard two-array layout:

* ``indptr`` — shape ``(n + 1,)``; the inclusive neighborhood of node
  ``v`` occupies ``indices[indptr[v]:indptr[v + 1]]``;
* ``indices`` — shape ``(n + 2m,)``; each slice starts with ``v``
  itself followed by its open neighborhood in ascending order (the same
  order as :meth:`Topology.inclusive_neighbors`).

The CSR is the primary form of a
:class:`~repro.graphs.topology.Topology`: the constructor builds it in
one numpy pass with :func:`csr_from_edges` (the one CSR builder), and
every execution on the topology shares it.  The Python
:meth:`neighbor_lists` view is derived lazily from the same arrays and
cached alongside them; :func:`bfs_levels` walks it for the metric
helpers (diameter, distance, ball).  :func:`is_connected`, the
constructor's check, walks the flat arrays instead, so a topology
whose engines only read the arrays never builds the lists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class CSRAdjacency:
    """Inclusive-neighborhood adjacency in CSR form."""

    __slots__ = ("indptr", "indices", "row_index", "_lists")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = indptr
        self.indices = indices
        # Row id of every entry of ``indices`` — precomputed because the
        # full goodness scans pair it with ``indices`` on every call.
        self.row_index = np.repeat(
            np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
        )
        self._lists: Optional[List[List[int]]] = None

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def degrees(self) -> np.ndarray:
        """Inclusive degrees ``|N+(v)| = deg(v) + 1``."""
        return np.diff(self.indptr)

    def neighborhood(self, v: int) -> np.ndarray:
        """The inclusive neighborhood slice of node ``v``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_lists(self) -> List[List[int]]:
        """Python-list view of the inclusive neighborhoods (cached).

        This is the object engine's (and the array engine's scalar fast
        path's) adjacency: one ``indices.tolist()`` conversion per
        topology, then every per-node iteration runs at Python-list
        speed instead of crossing the numpy scalar boundary element by
        element.
        """
        if self._lists is None:
            indices = self.indices.tolist()
            indptr = self.indptr.tolist()
            self._lists = [indices[indptr[v] : indptr[v + 1]] for v in range(self.n)]
        return self._lists

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated inclusive neighborhoods of ``rows``.

        Returns ``(flat, counts)`` where ``flat`` is the concatenation
        of the inclusive-neighborhood slices of every row (duplicates
        preserved — a node adjacent to two rows appears twice) and
        ``counts[i] = |N+(rows[i])|``.  This is the shared machinery
        behind the sparse signal gather and the dirty-neighborhood
        propagation of the incremental step pipeline.
        """
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        total = int(counts.sum())
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        return self.indices[np.repeat(starts, counts) + offsets], counts

    def __repr__(self) -> str:
        return f"<CSRAdjacency n={self.n} nnz={len(self.indices)}>"


def csr_from_edges(n: int, src: np.ndarray, dst: np.ndarray) -> CSRAdjacency:
    """Inclusive CSR of ``n`` nodes from an undirected simple edge list.

    Symmetrizes the edges, adds the diagonal, and orders every row as
    the layout above specifies: the node itself first, then the open
    neighborhood ascending (a lexsort whose secondary key maps the
    diagonal entry below every real neighbor).
    """
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([src, dst, diag])
    cols = np.concatenate([dst, src, diag])
    order = np.lexsort((np.where(cols == rows, -1, cols), rows))
    rows, cols = rows[order], cols[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CSRAdjacency(indptr, np.ascontiguousarray(cols))


def is_connected(csr: CSRAdjacency) -> bool:
    """Whether every node is reachable from node 0.  Walks flat Python
    copies of the two arrays, so it leaves no :meth:`neighbor_lists`
    cache behind on a graph whose engines never read it."""
    indices = csr.indices.tolist()
    indptr = csr.indptr.tolist()
    seen = bytearray(csr.n)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        v = stack.pop()
        for u in indices[indptr[v] + 1 : indptr[v + 1]]:
            if not seen[u]:
                seen[u] = 1
                reached += 1
                stack.append(u)
    return reached == csr.n


def bfs_levels(
    rows: Sequence[Sequence[int]], source: int, cutoff: Optional[int] = None
) -> Dict[int, int]:
    """Hop distance from ``source`` to every node it reaches, walking
    the (inclusive or open) neighbor ``rows``; with ``cutoff``, only the
    nodes within that many hops."""
    seen = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and (cutoff is None or depth < cutoff):
        depth += 1
        next_frontier = []
        for v in frontier:
            for u in rows[v]:
                if u not in seen:
                    seen[u] = depth
                    next_frontier.append(u)
        frontier = next_frontier
    return seen

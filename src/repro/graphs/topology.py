"""Immutable network topologies for stone age executions.

A :class:`Topology` *is* its inclusive CSR adjacency (see
:mod:`repro.graphs.csr`): the constructor checks the graph, then builds
``indptr``/``indices`` in one numpy pass from its edge list.  A
:mod:`networkx` graph is only an input format: it is read once and
never aliased, and :attr:`Topology.graph` rebuilds an equivalent one on
demand.  Node labels are normalized to the integers ``0 .. n-1`` in
sorted label order; the original labels are preserved in
:attr:`labels`.  Everything else — neighbor tuples, the edge list, the
metric helpers (diameter, distances, balls) — is derived lazily from
the CSR rows.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.graphs.csr import CSRAdjacency, bfs_levels, csr_from_edges
from repro.model.errors import TopologyError


class Topology:
    """A finite connected undirected graph ``G = (V, E)``.

    Parameters
    ----------
    graph:
        Any connected undirected networkx graph.  Self-loops are
        rejected (the model's inclusive neighborhood already contains
        the node itself).
    name:
        Optional label used in reports.

    :meth:`from_csr` wraps prebuilt CSR arrays instead (no checks, no
    networkx) — the route of the frontier-scale families.
    """

    __slots__ = (
        "_name",
        "_csr",
        "_nodes",
        "_labels",
        "_m",
        "_edge_array",
        "_graph_order",
        "_edges",
        "_neighbors",
        "_inclusive",
        "_graph",
        "_diameter",
    )

    def __init__(self, graph: nx.Graph, name: str = "graph"):
        n = graph.number_of_nodes()
        if n == 0:
            raise TopologyError("topology must contain at least one node")
        order = list(graph)
        endpoints = chain.from_iterable(graph.edges())
        # Labels keep their type (numpy ints, bools), so only the Python
        # ints 0..n-1 in iteration order skip the relabelling.
        if order == list(range(n)) and all(type(v) is int for v in order):
            labels = graph_order = None
        else:
            labels = tuple(sorted(order))
            code = {label: i for i, label in enumerate(labels)}
            # The input's node order, which ``graph`` replays so that
            # its ``edges()`` order stays the relabelled copy's.
            graph_order = tuple(code[v] for v in order)
            endpoints = (code[v] for v in endpoints)
        pairs = np.fromiter(endpoints, dtype=np.int64).reshape(-1, 2)
        src, dst = pairs[:, 0], pairs[:, 1]
        if np.any(src == dst):
            raise TopologyError("self-loops are not allowed")
        csr = csr_from_edges(n, src, dst)
        if len(bfs_levels(csr.neighbor_lists(), 0)) < n:
            raise TopologyError("topology must be connected")
        # The relabelled graph's ``edges()`` order, in ``(min, max)`` form.
        edge_array = np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1)
        self._setup(name, csr, labels, edge_array, graph_order)

    @classmethod
    def from_csr(cls, name: str, csr: CSRAdjacency) -> "Topology":
        """A topology over prebuilt inclusive-CSR arrays (rows laid out
        as :mod:`repro.graphs.csr` specifies).  Nothing is checked: the
        caller guarantees a connected simple graph.  Edges list in row
        order."""
        topology = cls.__new__(cls)
        topology._setup(name, csr, None, None, None)
        return topology

    def _setup(self, name, csr, labels, edge_array, graph_order) -> None:
        self._name = name
        self._csr = csr
        self._nodes: Tuple[int, ...] = tuple(range(csr.n))
        self._labels: Tuple[object, ...] = self._nodes if labels is None else labels
        # Every CSR row is the inclusive neighborhood: n + 2m entries.
        self._m = (len(csr.indices) - csr.n) // 2
        self._edge_array: Optional[np.ndarray] = edge_array
        self._graph_order: Optional[Tuple[int, ...]] = graph_order
        self._edges: Optional[Tuple[Tuple[int, int], ...]] = None
        self._neighbors: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._inclusive: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._graph: Optional[nx.Graph] = None
        self._diameter: Optional[int] = None

    # ------------------------------------------------------------------
    # Basic structure.
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def nodes(self) -> Tuple[int, ...]:
        """Nodes, normalized to ``0 .. n-1``."""
        return self._nodes

    @property
    def labels(self) -> Tuple[object, ...]:
        """Original node labels, indexed by normalized node id."""
        return self._labels

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Every edge once, as ``(min, max)``, in the input graph's
        ``edges()`` order."""
        if self._edges is None:
            if self._edge_array is None:
                csr = self._csr
                upper = csr.indices > csr.row_index
                self._edge_array = np.stack(
                    [csr.row_index[upper], csr.indices[upper]], axis=1
                )
            lo, hi = self._edge_array.T.tolist()
            self._edges = tuple(zip(lo, hi))
        return self._edges

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def _build_rows(self) -> None:
        inclusive = tuple(map(tuple, self._csr.neighbor_lists()))
        self._neighbors = tuple(row[1:] for row in inclusive)
        self._inclusive = inclusive

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The open neighborhood ``N(v)``."""
        if self._neighbors is None:
            self._build_rows()
        return self._neighbors[v]

    def inclusive_neighbors(self, v: int) -> Tuple[int, ...]:
        """The inclusive neighborhood ``N+(v) = N(v) ∪ {v}``."""
        if self._inclusive is None:
            self._build_rows()
        return self._inclusive[v]

    def degree(self, v: int) -> int:
        return len(self._csr.neighbor_lists()[v]) - 1

    def inclusive_rows(self) -> List[List[int]]:
        """The inclusive neighborhoods as Python lists, one per node
        (the CSR's cached :meth:`~repro.graphs.csr.CSRAdjacency.neighbor_lists`;
        shared, so never mutate them)."""
        return self._csr.neighbor_lists()

    def inclusive_csr(self) -> CSRAdjacency:
        """The inclusive-neighborhood CSR (see :mod:`repro.graphs.csr`
        for the layout)."""
        return self._csr

    def has_edge(self, u: int, v: int) -> bool:
        row = self._csr.neighbor_lists()[u]
        i = bisect_left(row, v, 1)
        return i < len(row) and row[i] == v

    @property
    def graph(self) -> nx.Graph:
        """An equivalent networkx graph (normalized labels), rebuilt on
        first use with the input graph's node and edge order."""
        if self._graph is None:
            graph = nx.Graph()
            graph.add_nodes_from(
                self._nodes if self._graph_order is None else self._graph_order
            )
            graph.add_edges_from(self.edges)
            self._graph = graph
        return self._graph

    # ------------------------------------------------------------------
    # Metric properties (BFS over the CSR rows).
    # ------------------------------------------------------------------

    @property
    def diameter(self) -> int:
        """The graph diameter ``diam(G)`` (cached)."""
        if self._diameter is None:
            rows = self._csr.neighbor_lists()
            self._diameter = max(max(bfs_levels(rows, v).values()) for v in self._nodes)
        return self._diameter

    def distance(self, u: int, v: int) -> int:
        """Graph distance ``dist_G(u, v)``."""
        return bfs_levels(self._csr.neighbor_lists(), u)[v]

    def ball(self, v: int, radius: int) -> frozenset:
        """``B(v, d) = {u : dist_G(u, v) ≤ d}``."""
        return frozenset(bfs_levels(self._csr.neighbor_lists(), v, radius))

    def check_diameter_bound(self, bound: int) -> None:
        """Raise :class:`TopologyError` unless ``diam(G) ≤ bound``."""
        if self.diameter > bound:
            raise TopologyError(
                f"graph {self._name!r} has diameter {self.diameter}, "
                f"exceeding the bound D={bound}"
            )

    # ------------------------------------------------------------------
    # Dunder conveniences.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self._nodes)

    def __repr__(self) -> str:
        return f"<Topology {self._name!r} n={self.n} m={self.m}>"


def topology_from_edges(edges: Iterable[Tuple[object, object]]) -> Topology:
    """Build a :class:`Topology` named ``graph`` from an edge list."""
    graph = nx.Graph()
    graph.add_edges_from(edges)
    return Topology(graph, name="graph")


def single_node_topology() -> Topology:
    """The degenerate one-node network (useful for edge-case tests)."""
    graph = nx.Graph()
    graph.add_node(0)
    return Topology(graph, name="singleton")

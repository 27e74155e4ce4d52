"""The CSR-first :class:`Topology` against the networkx construction it
replaced.

The reference below is the old constructor, kept test-local: relabel
the input graph to ``0 .. n-1`` in sorted label order with
``convert_node_labels_to_integers`` and read every structure off the
relabelled copy.  The CSR-first constructor must reproduce each of
those structures exactly — node and edge *order* included, because
``perturb_topology`` draws rewires from ``Topology.edges`` and every
pinned digest depends on those draws.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graphs.frontier import frontier_gnm
from repro.graphs.generators import GRAPH_FAMILIES, make_graph
from repro.graphs.topology import Topology
from repro.model.errors import TopologyError


class _Reference:
    """The pre-CSR construction: a relabelled networkx copy."""

    def __init__(self, graph: nx.Graph):
        relabeled = nx.convert_node_labels_to_integers(
            graph, ordering="sorted", label_attribute="original"
        )
        self.graph = relabeled
        self.nodes = tuple(range(relabeled.number_of_nodes()))
        self.labels = tuple(relabeled.nodes[v].get("original", v) for v in self.nodes)
        self.neighbors = tuple(
            tuple(sorted(relabeled.neighbors(v))) for v in self.nodes
        )
        self.inclusive = tuple((v,) + self.neighbors[v] for v in self.nodes)
        self.edges = tuple((min(u, v), max(u, v)) for u, v in relabeled.edges())
        lengths = [len(row) for row in self.inclusive]
        self.indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        self.indices = np.array(
            [u for row in self.inclusive for u in row], dtype=np.int64
        )
        self.diameter = nx.diameter(relabeled) if len(self.nodes) > 1 else 0


def assert_matches_reference(topology: Topology, reference: _Reference) -> None:
    assert topology.nodes == reference.nodes
    assert topology.labels == reference.labels
    assert list(map(type, topology.labels)) == list(map(type, reference.labels))
    for v in topology.nodes:
        assert topology.neighbors(v) == reference.neighbors[v]
        assert topology.inclusive_neighbors(v) == reference.inclusive[v]
        assert topology.degree(v) == len(reference.neighbors[v])
    assert topology.edges == reference.edges
    assert list(topology.graph.edges()) == list(reference.graph.edges())
    assert list(topology.graph.nodes()) == list(reference.graph.nodes())
    csr = topology.inclusive_csr()
    assert csr.indptr.dtype == csr.indices.dtype == np.int64
    assert np.array_equal(csr.indptr, reference.indptr)
    assert np.array_equal(csr.indices, reference.indices)
    assert topology.m == reference.graph.number_of_edges() == len(reference.edges)
    assert topology.diameter == reference.diameter
    for u in topology.nodes[:6]:
        lengths = nx.single_source_shortest_path_length(reference.graph, u)
        for radius in range(reference.diameter + 1):
            ball = {v for v, d in lengths.items() if d <= radius}
            assert topology.ball(u, radius) == ball
        for v in topology.nodes:
            assert topology.distance(u, v) == lengths[v]
            assert topology.has_edge(u, v) == reference.graph.has_edge(u, v)


#: Small parameters for every registered family (the assertion in
#: ``test_every_family_is_covered`` keeps this in step with the registry).
FAMILY_PARAMS = {
    "complete": dict(n=6),
    "star": dict(n=7),
    "path": dict(n=6),
    "ring": dict(n=8),
    "grid": dict(rows=3, cols=4),
    "torus": dict(rows=3, cols=4),
    "hypercube": dict(dimension=3),
    "dumbbell": dict(clique_size=4, bridge_length=3),
    "caterpillar": dict(spine=4, legs_per_node=2),
    "damaged-clique": dict(n=10, diameter_bound=2),
    "gnp": dict(n=20, p=0.3),
    "regular": dict(n=20, degree=4),
    "bounded-diameter": dict(diameter_bound=4, n=12),
    "quorum-colony": dict(n=12, diameter_bound=2),
    "cell-tissue": dict(width=4, height=3),
    "proneural": dict(width=4, height=3),
    "hub-colony": dict(n=15),
}


@pytest.fixture
def recorded(monkeypatch):
    """Every ``Topology(graph)`` built while the fixture is active,
    paired with the reference built from the same graph object."""
    pairs = []
    init = Topology.__init__

    def recording_init(self, graph, name="graph"):
        reference = _Reference(graph)
        init(self, graph, name)
        pairs.append((self, reference))

    monkeypatch.setattr(Topology, "__init__", recording_init)
    return pairs


def test_every_family_is_covered():
    assert set(FAMILY_PARAMS) == set(GRAPH_FAMILIES)


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_family_matches_the_networkx_construction(family, recorded):
    topology = make_graph(family, np.random.default_rng(3), **FAMILY_PARAMS[family])
    if family == "regular":
        # Built without a networkx graph: the reference is networkx's
        # own generator under the seed of the first (connected) attempt.
        assert not recorded
        params = FAMILY_PARAMS[family]
        seed = int(np.random.default_rng(3).integers(2**31))
        graph = nx.random_regular_graph(params["degree"], params["n"], seed=seed)
        assert nx.is_connected(graph)
        assert_matches_reference(topology, _Reference(graph))
        return
    assert recorded and recorded[-1][0] is topology
    for built, reference in recorded:
        assert_matches_reference(built, reference)


def _out_of_order_ints() -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from([3, 0, 5, 2, 1, 4])
    graph.add_edges_from([(3, 5), (0, 2), (5, 1), (2, 3), (1, 4), (4, 0), (3, 1)])
    return graph


def _numpy_ints() -> nx.Graph:
    return nx.relabel_nodes(nx.cycle_graph(7), {v: np.int64(v) for v in range(7)})


def _with_original_attribute(graph: nx.Graph) -> nx.Graph:
    nx.set_node_attributes(graph, {v: f"x{v}" for v in graph}, "original")
    return graph


@pytest.mark.parametrize(
    "build",
    [
        _out_of_order_ints,
        lambda: nx.grid_2d_graph(3, 4),
        _numpy_ints,
        lambda: _with_original_attribute(nx.path_graph(5)),
        lambda: _with_original_attribute(_out_of_order_ints()),
        lambda: nx.relabel_nodes(nx.path_graph(4), {0: True, 1: False, 2: 2, 3: 3}),
        lambda: nx.from_edgelist([("b", "a"), ("c", "a"), ("d", "c")]),
    ],
    ids=[
        "out-of-order-ints",
        "tuple-labels",
        "numpy-ints",
        "original-attribute",
        "original-attribute-out-of-order",
        "bool-labels",
        "string-labels",
    ],
)
def test_label_kinds_match_the_networkx_construction(build):
    assert_matches_reference(Topology(build()), _Reference(build()))


def test_in_order_int_labels_are_the_nodes():
    topology = Topology(nx.cycle_graph(5))
    assert topology.labels is topology.nodes


@pytest.mark.parametrize(
    "graph, message",
    [
        (nx.Graph(), "at least one node"),
        (nx.Graph([(0, 1), (1, 1)]), "self-loops"),
        # Self-loops are reported ahead of disconnection, as before.
        (nx.Graph([(0, 0), (1, 2)]), "self-loops"),
        (nx.Graph([(0, 1), (2, 3)]), "connected"),
        (nx.Graph([("a", "b"), ("c", "d")]), "connected"),
    ],
)
def test_rejected_graphs(graph, message):
    with pytest.raises(TopologyError, match=message):
        Topology(graph)


def test_caller_mutation_changes_nothing():
    graph = nx.cycle_graph(6)
    topology = Topology(graph)
    reference = _Reference(nx.cycle_graph(6))
    graph.add_edge(0, 3)
    graph.remove_edge(1, 2)
    graph.add_node(99)
    assert topology.graph is not graph
    assert_matches_reference(topology, reference)
    # The lazily rebuilt graph is private too.
    graph.add_edge(2, 4)
    assert_matches_reference(topology, reference)


def test_from_csr_round_trips():
    """``from_csr`` over a constructed topology's CSR reproduces it, up
    to edge order (row order instead of the input graph's)."""
    built = Topology(nx.random_regular_graph(3, 16, seed=4))
    wrapped = Topology.from_csr("wrapped", built.inclusive_csr())
    assert wrapped.nodes == built.nodes and wrapped.labels == built.labels
    assert wrapped.m == built.m
    assert wrapped.edges == tuple(sorted(built.edges))
    assert wrapped.diameter == built.diameter
    for v in built.nodes:
        assert wrapped.inclusive_neighbors(v) == built.inclusive_neighbors(v)


def test_from_csr_frontier_graph_has_the_full_interface():
    topology = frontier_gnm(40, 30, seed=2)
    assert isinstance(topology, Topology)
    assert Topology(topology.graph).edges == topology.edges
    assert topology.diameter == nx.diameter(topology.graph)
    u, v = topology.edges[0]
    assert topology.has_edge(u, v) and topology.has_edge(v, u)
    assert topology.distance(u, v) == 1


def test_from_edge_arrays_checks_and_keeps_the_given_order():
    src = np.array([3, 0, 2], dtype=np.int64)
    dst = np.array([1, 2, 1], dtype=np.int64)
    built = Topology.from_edge_arrays("arrays", 4, src, dst)
    assert built.edges == ((1, 3), (0, 2), (1, 2))
    assert built.inclusive_neighbors(1) == (1, 2, 3)
    for n, edges, message in (
        (0, [], "at least one node"),
        (3, [(0, 1), (1, 1)], "self-loops"),
        (4, [(0, 1), (2, 3)], "connected"),
    ):
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        with pytest.raises(TopologyError, match=message):
            Topology.from_edge_arrays("arrays", n, pairs[:, 0], pairs[:, 1])

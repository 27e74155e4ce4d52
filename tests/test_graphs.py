"""Tests for topologies, generators and biological families."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graphs.biological import cell_tissue, proneural_cluster, quorum_colony
from repro.graphs.generators import (
    bounded_diameter_family,
    caterpillar,
    complete_graph,
    damaged_clique,
    dumbbell,
    grid,
    hypercube,
    path,
    random_connected,
    random_regular,
    ring,
    star,
    torus,
)
from repro.graphs.properties import (
    degree_stats,
    radius,
    summary,
)
from repro.graphs.topology import (
    Topology,
    single_node_topology,
    topology_from_edges,
)
from repro.model.errors import TopologyError


class TestTopology:
    def test_normalizes_labels(self):
        topo = topology_from_edges([("a", "b"), ("b", "c")])
        assert topo.nodes == (0, 1, 2)
        assert set(topo.labels) == {"a", "b", "c"}

    def test_inclusive_neighbors_contain_self(self):
        topo = ring(5)
        for v in topo.nodes:
            assert v in topo.inclusive_neighbors(v)
            assert set(topo.inclusive_neighbors(v)) == {v} | set(topo.neighbors(v))

    def test_rejects_disconnected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(TopologyError):
            Topology(g)

    def test_rejects_empty(self):
        with pytest.raises(TopologyError):
            Topology(nx.Graph())

    def test_rejects_self_loops(self):
        g = nx.Graph()
        g.add_edge(0, 0)
        g.add_edge(0, 1)
        with pytest.raises(TopologyError):
            Topology(g)

    def test_diameter_cached(self):
        topo = path(6)
        assert topo.diameter == 5
        assert topo.diameter == 5

    def test_single_node(self):
        topo = single_node_topology()
        assert topo.n == 1
        assert topo.diameter == 0
        assert topo.inclusive_neighbors(0) == (0,)

    def test_distance_and_ball(self):
        topo = path(5)
        assert topo.distance(0, 4) == 4
        assert topo.ball(2, 1) == {1, 2, 3}

    def test_check_diameter_bound(self):
        topo = path(5)
        topo.check_diameter_bound(4)
        with pytest.raises(TopologyError):
            topo.check_diameter_bound(3)


class TestGenerators:
    def test_complete(self):
        topo = complete_graph(5)
        assert topo.n == 5
        assert topo.m == 10
        assert topo.diameter == 1

    def test_star(self):
        topo = star(6)
        assert topo.n == 6
        assert topo.diameter == 2

    def test_ring_and_path(self):
        assert ring(8).diameter == 4
        assert path(7).diameter == 6

    def test_grid_and_torus(self):
        assert grid(3, 4).diameter == 5
        assert torus(4, 4).diameter == 4

    def test_hypercube(self):
        topo = hypercube(3)
        assert topo.n == 8
        assert topo.diameter == 3

    def test_dumbbell(self):
        topo = dumbbell(4, 2)
        assert topo.diameter == 4
        assert topo.n == 9  # two 4-cliques plus one bridge node

    def test_dumbbell_bridge_one(self):
        topo = dumbbell(3, 1)
        assert topo.diameter == 3

    def test_caterpillar(self):
        topo = caterpillar(4, 2)
        assert topo.n == 4 + 8
        assert topo.diameter == 5

    def test_damaged_clique_respects_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            topo = damaged_clique(12, 2, rng)
            assert topo.diameter <= 2
            assert topo.m < 12 * 11 // 2  # something was damaged

    def test_damaged_clique_impossible_bound(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TopologyError):
            damaged_clique(3, 1, rng, damage=0.9, max_attempts=3)

    def test_random_connected(self):
        rng = np.random.default_rng(0)
        topo = random_connected(12, 0.4, rng)
        assert topo.n == 12

    def test_random_regular(self):
        rng = np.random.default_rng(0)
        topo = random_regular(10, 3, rng)
        assert all(topo.degree(v) == 3 for v in topo.nodes)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_bounded_diameter_family(self, d):
        rng = np.random.default_rng(0)
        topo = bounded_diameter_family(d, 12, rng)
        assert topo.diameter <= d


class TestBiological:
    def test_quorum_colony(self):
        rng = np.random.default_rng(0)
        topo = quorum_colony(14, 2, rng)
        assert topo.diameter <= 2
        assert topo.n == 14

    def test_cell_tissue(self):
        rng = np.random.default_rng(0)
        topo = cell_tissue(4, 4, rng)
        assert topo.n == 16

    def test_cell_tissue_radius_guard(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TopologyError):
            cell_tissue(4, 4, rng, contact_radius=0.5)

    def test_proneural_cluster(self):
        topo = proneural_cluster(3, 3, inhibition_radius=1)
        assert topo.n == 9
        # The center cell touches all 8 surrounding cells.
        center = topo.labels.index((1, 1))
        assert topo.degree(center) == 8

    def test_proneural_radius_two(self):
        topo = proneural_cluster(5, 5, inhibition_radius=2)
        center = topo.labels.index((2, 2))
        assert topo.degree(center) == 24


class TestProperties:
    def test_radius(self):
        assert radius(path(5)) == 2
        assert radius(path(4)) == 2
        assert radius(star(5)) == 1

    def test_degree_stats(self):
        topo = star(5)
        dmin, dmean, dmax = degree_stats(topo)
        assert dmin == 1
        assert dmax == 4

    def test_diameter_bound_is_a_diameter_comparison(self):
        assert ring(6).diameter <= 3
        assert not ring(6).diameter <= 2

    def test_summary_mentions_name(self):
        assert "path" in summary(path(3))

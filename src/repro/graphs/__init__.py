"""Network topologies: the simulator's graph substrate and generators."""

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
    diameter,
    radius,
    summary,
)
from repro.graphs.topology import (
    Topology,
    single_node_topology,
    topology_from_edges,
)

__all__ = [
    "Topology",
    "bounded_diameter_family",
    "caterpillar",
    "cell_tissue",
    "complete_graph",
    "damaged_clique",
    "degree_stats",
    "diameter",
    "dumbbell",
    "grid",
    "hypercube",
    "path",
    "proneural_cluster",
    "quorum_colony",
    "radius",
    "random_connected",
    "random_regular",
    "ring",
    "single_node_topology",
    "star",
    "summary",
    "topology_from_edges",
    "torus",
]

"""AlgAU — the paper's primary contribution — and its analysis toolkit."""

from repro.core.algau import ThinUnison, TransitionType
from repro.core.clock import CyclicClock
from repro.core.levels import LevelSystem, k_for_diameter_bound
from repro.core.potential import (
    ProgressReport,
    Stage,
    disorder_potential,
    progress_report,
    stage_timeline_is_monotone,
)
from repro.core.predicates import (
    edge_protected,
    good_nodes,
    grounded_nodes,
    is_good_graph,
    is_level_out_protected,
    is_out_protected_graph,
    is_protected_graph,
    justifiably_faulty_nodes,
    out_protected_nodes,
    protected_edges,
    protected_nodes,
    unjustifiably_faulty_nodes,
)
from repro.core.turns import (
    Turn,
    TurnSystem,
    able,
    faulty,
    levels_sensed,
)

__all__ = [
    "CyclicClock",
    "LevelSystem",
    "ProgressReport",
    "Stage",
    "ThinUnison",
    "TransitionType",
    "Turn",
    "TurnSystem",
    "able",
    "disorder_potential",
    "edge_protected",
    "faulty",
    "good_nodes",
    "grounded_nodes",
    "is_good_graph",
    "is_level_out_protected",
    "is_out_protected_graph",
    "is_protected_graph",
    "justifiably_faulty_nodes",
    "k_for_diameter_bound",
    "levels_sensed",
    "out_protected_nodes",
    "progress_report",
    "protected_edges",
    "protected_nodes",
    "stage_timeline_is_monotone",
    "unjustifiably_faulty_nodes",
]

"""Analysis layer: the stabilization round (:func:`settle` in
:mod:`repro.analysis.stabilization`) and its measurements, the
paper-claim tables of :mod:`repro.analysis.claims`, the invariant and
output-vector monitors, permanent-fault containment analytics,
statistics and table rendering."""

from repro.analysis.containment import (
    ContainmentMeasurement,
    ContainmentTracker,
    clean_node_mask,
    containment_radius,
    execution_clean_mask,
    hop_distances,
    measure_containment,
    radius_of_mask,
)
from repro.analysis.monitors import (
    AlgAUInvariantMonitor,
    InvariantViolation,
    OutputChangeMonitor,
)
from repro.analysis.stabilization import (
    StabilizationResult,
    measure_au_stabilization,
    measure_static_task_stabilization,
)
from repro.analysis.stats import (
    Summary,
    geometric_max_statistics,
    loglog_slope,
    max_geometric_sample,
    ratio_to_log,
)
from repro.analysis.tables import persist_table, render_table, results_dir

__all__ = [
    "AlgAUInvariantMonitor",
    "ContainmentMeasurement",
    "ContainmentTracker",
    "InvariantViolation",
    "OutputChangeMonitor",
    "StabilizationResult",
    "Summary",
    "clean_node_mask",
    "containment_radius",
    "execution_clean_mask",
    "geometric_max_statistics",
    "hop_distances",
    "loglog_slope",
    "max_geometric_sample",
    "measure_au_stabilization",
    "measure_containment",
    "measure_static_task_stabilization",
    "persist_table",
    "radius_of_mask",
    "ratio_to_log",
    "render_table",
    "results_dir",
]

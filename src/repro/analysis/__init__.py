"""Analysis layer: monitors, stabilization measurement, permanent-fault
containment analytics, statistics and table rendering."""

from repro.analysis.containment import (
    ContainmentMeasurement,
    ContainmentTracker,
    clean_node_mask,
    containment_radius,
    execution_clean_mask,
    execution_stabilized_outside,
    hop_distances,
    measure_containment,
    radius_of_mask,
    stabilized_outside,
)
from repro.analysis.monitors import (
    AlgAUInvariantMonitor,
    GoodGraphMonitor,
    InvariantViolation,
    OutputChangeMonitor,
    PredicateTimeline,
    TransitionCounter,
)
from repro.analysis.stabilization import (
    StabilizationResult,
    measure_au_stabilization,
    measure_static_task_stabilization,
    run_trials,
)
from repro.analysis.stats import (
    Summary,
    geometric_max_statistics,
    loglog_slope,
    max_geometric_sample,
    ratio_to_log,
    within_factor,
)
from repro.analysis.tables import persist_table, render_table, results_dir
from repro.analysis.trace import (
    ScheduleRecorder,
    Trace,
    TraceRecorder,
    TraceStep,
    load_trace,
    save_trace,
)

__all__ = [
    "AlgAUInvariantMonitor",
    "ContainmentMeasurement",
    "ContainmentTracker",
    "GoodGraphMonitor",
    "InvariantViolation",
    "OutputChangeMonitor",
    "PredicateTimeline",
    "ScheduleRecorder",
    "StabilizationResult",
    "Summary",
    "Trace",
    "TraceRecorder",
    "TraceStep",
    "TransitionCounter",
    "clean_node_mask",
    "containment_radius",
    "execution_clean_mask",
    "execution_stabilized_outside",
    "geometric_max_statistics",
    "hop_distances",
    "load_trace",
    "loglog_slope",
    "max_geometric_sample",
    "measure_au_stabilization",
    "measure_containment",
    "measure_static_task_stabilization",
    "persist_table",
    "radius_of_mask",
    "ratio_to_log",
    "stabilized_outside",
    "render_table",
    "results_dir",
    "run_trials",
    "save_trace",
    "within_factor",
]

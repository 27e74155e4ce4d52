"""The stone age (SA) model substrate.

This package implements the computational model of Emek & Wattenhofer
(PODC 2013) in the simplified form used by the reproduced paper:
anonymous randomized finite state machines over set-broadcast signals,
driven by an adversarial asynchronous scheduler, with time measured by
the round operator ``ϱ``.
"""

from repro.model.adversary import GreedyAdversary, greedy_au_adversary
from repro.model.algorithm import (
    Algorithm,
    Distribution,
    TransitionResult,
    product_distribution,
)
from repro.model.configuration import Configuration
from repro.model.errors import (
    ConfigurationError,
    ModelError,
    ReproError,
    ScheduleError,
    TopologyError,
    UnknownEngineError,
)
from repro.model.array_engine import ArrayExecution, supports_array_engine
from repro.model.engine import ExecutionBase, create_execution
from repro.model.execution import Execution, Monitor, RunResult, StepRecord
from repro.model.rounds import RoundTracker
from repro.model.scheduler import (
    EnabledOnlyScheduler,
    ExplicitScheduler,
    LaggardScheduler,
    LocallyCentralScheduler,
    RandomSubsetScheduler,
    RotatingScheduler,
    RoundRobinScheduler,
    Scheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)
from repro.model.signal import Signal

__all__ = [
    "Algorithm",
    "ArrayExecution",
    "Configuration",
    "ConfigurationError",
    "Distribution",
    "EnabledOnlyScheduler",
    "Execution",
    "ExecutionBase",
    "ExplicitScheduler",
    "GreedyAdversary",
    "LaggardScheduler",
    "LocallyCentralScheduler",
    "ModelError",
    "Monitor",
    "RandomSubsetScheduler",
    "ReproError",
    "RotatingScheduler",
    "RoundRobinScheduler",
    "RoundTracker",
    "RunResult",
    "ScheduleError",
    "Scheduler",
    "ShuffledRoundRobinScheduler",
    "Signal",
    "StepRecord",
    "SynchronousScheduler",
    "TopologyError",
    "UnknownEngineError",
    "TransitionResult",
    "create_execution",
    "supports_array_engine",
    "greedy_au_adversary",
    "product_distribution",
]

"""Distributed tasks: specifications, Restart, AlgLE and AlgMIS."""

from repro.tasks.le import COMPUTE, VERIFY, AlgLE, LEState
from repro.tasks.mis import IN, OUT, UNDECIDED, AlgMIS, MISState
from repro.tasks.restart import (
    RESTART_EXIT,
    IdleState,
    RestartMixin,
    RestartState,
    StandaloneRestart,
    restart_exit_time,
)
from repro.tasks.spec import (
    TaskVerdict,
    check_au_liveness_counts,
    check_au_safety,
    check_au_update_is_pulse,
    check_le_output,
    check_mis_output,
    greedy_mis,
    output_validator,
)

__all__ = [
    "AlgLE",
    "AlgMIS",
    "COMPUTE",
    "IN",
    "IdleState",
    "LEState",
    "MISState",
    "OUT",
    "RESTART_EXIT",
    "RestartMixin",
    "RestartState",
    "StandaloneRestart",
    "TaskVerdict",
    "UNDECIDED",
    "VERIFY",
    "check_au_liveness_counts",
    "check_au_safety",
    "check_au_update_is_pulse",
    "check_le_output",
    "check_mis_output",
    "greedy_mis",
    "output_validator",
    "restart_exit_time",
]

"""Transient fault injection, topology churn and adversarial starts."""

from repro.faults.churn import ChurnProcess
from repro.faults.injection import (
    FaultEvent,
    TransientFaultInjector,
    au_adversarial_suite,
    au_all_faulty,
    au_clock_tear,
    au_sign_split,
    random_configuration,
    uniform_configuration,
)

__all__ = [
    "ChurnProcess",
    "FaultEvent",
    "TransientFaultInjector",
    "au_adversarial_suite",
    "au_all_faulty",
    "au_clock_tear",
    "au_sign_split",
    "random_configuration",
    "uniform_configuration",
]

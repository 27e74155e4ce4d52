"""Permanent-fault resilience subsystem.

Fault models for nodes that *stay* faulty — Byzantine clock strategies,
crash-stop, and probabilistic signal noise
(:mod:`repro.resilience.strategies`) — imposed on executions by the
:class:`~repro.resilience.adversary.PermanentFaultAdversary`
intervention, which composes with both execution engines (faulty nodes
become masked lanes on the vectorized backend).  Containment analytics
(per-node recovery vs hop distance, the containment radius) live in
:mod:`repro.analysis.containment`; campaign integration (the
``byzantine`` registry and the ``byzantine``/``crash`` fault-plan
kinds) in :mod:`repro.campaigns`.
"""

from repro.resilience.adversary import (
    PermanentFaultAdversary,
    select_faulty_nodes,
)
from repro.resilience.strategies import (
    BYZANTINE_STRATEGIES,
    ByzantineStrategy,
    Crash,
    FrozenClock,
    Noisy,
    Oscillating,
    RandomClock,
    Targeted,
    make_strategy,
    strategy_names,
)

__all__ = [
    "BYZANTINE_STRATEGIES",
    "ByzantineStrategy",
    "Crash",
    "FrozenClock",
    "Noisy",
    "Oscillating",
    "PermanentFaultAdversary",
    "RandomClock",
    "Targeted",
    "make_strategy",
    "select_faulty_nodes",
    "strategy_names",
]

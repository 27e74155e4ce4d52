"""Permanent-fault models: Byzantine, crash-stop, and signal-noise.

Transient faults (:mod:`repro.faults.injection`) corrupt states and
move on; the strategies here model nodes that *stay* faulty for the
rest of the execution — the regime of Dubois et al.'s self-stabilizing
Byzantine unison and of biological pacemaker networks with permanently
damaged cells.  A strategy answers two questions about its faulty
nodes at every step ``t``:

* :meth:`ByzantineStrategy.masked_at` — are the faulty nodes *masked*
  (excluded from algorithmic updates) at ``t``?  Masked nodes never run
  δ; their states are whatever the adversary wrote last.
* :meth:`ByzantineStrategy.states_at` — which states does the adversary
  write into the faulty nodes before step ``t``?

Shipped strategies (registry :data:`BYZANTINE_STRATEGIES`):

==============  ====================================================
name            behavior of a faulty node
==============  ====================================================
``frozen``      broadcasts its (adversarially chosen) initial turn
                forever — the stopped-pacemaker cell
``random``      a fresh uniformly random turn every ``period`` steps
``oscillating`` alternates between the two extreme able turns
                ``+k`` and ``−k`` — the time-domain analog of a
                two-faced Byzantine node
``targeted``    greedily picks the turn maximizing the proof-aligned
                :func:`~repro.core.potential.disorder_potential`,
                scored locally in ``O(Σ_{u ∈ N[v]} deg u)`` per
                faulty node ``v`` (plus one ``O(n)`` encode per step)
``crash``       behaves correctly until step ``at``, then freezes at
                whatever turn it had reached (crash-stop)
``noisy``       runs the protocol honestly, but each step its
                broadcast state is replaced by a random turn with
                probability ``p`` (permanent signal noise)
==============  ====================================================

All strategies draw randomness only from the generator handed to them,
in a per-step call order that is independent of the execution engine —
which is what makes a permanent-fault run bit-identical across the
object and array backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from repro.core.turns import Turn, able
from repro.model.errors import ModelError


class ByzantineStrategy(ABC):
    """How a set of permanently faulty nodes (mis)behaves."""

    #: Declarative name (the ``FaultPlan.strategy`` axis).
    name: str = "byzantine"

    def masked_at(self, t: int) -> bool:
        """Whether the faulty nodes are masked (do not run δ) at step
        ``t``.  Default: always — a Byzantine node never executes the
        protocol."""
        return True

    def initial_states(
        self, algorithm, topology, nodes: Tuple[int, ...], rng: np.random.Generator
    ) -> Mapping[int, Turn]:
        """States written into the faulty nodes before the first step
        (default: keep whatever the initial configuration assigned)."""
        return {}

    @abstractmethod
    def states_at(
        self, execution, nodes: Tuple[int, ...], rng: np.random.Generator, t: int
    ) -> Mapping[int, Turn]:
        """State overrides applied immediately before step ``t``."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class FrozenClock(ByzantineStrategy):
    """The node's clock never moves: it broadcasts its initial turn
    forever.  With ``level`` given, every faulty node is frozen at the
    able turn of that level instead of its adversarial start state."""

    name = "frozen"

    def __init__(self, level: int | None = None):
        self._level = level

    def initial_states(self, algorithm, topology, nodes, rng):
        if self._level is None:
            return {}
        algorithm.levels.require_level(self._level)
        return {v: able(self._level) for v in nodes}

    def states_at(self, execution, nodes, rng, t):
        return {}  # masked ⇒ the frozen state can never drift


class RandomClock(ByzantineStrategy):
    """A fresh uniformly random turn for every faulty node every
    ``period`` steps — maximal incoherent babbling."""

    name = "random"

    def __init__(self, period: int = 1):
        if period < 1:
            raise ModelError("random-clock period must be >= 1")
        self._period = period

    def states_at(self, execution, nodes, rng, t):
        if t % self._period:
            return {}
        algorithm = execution.algorithm
        return {v: algorithm.random_state(rng) for v in nodes}


class Oscillating(ByzantineStrategy):
    """Alternates all faulty nodes between the two extreme able turns
    ``+k`` and ``−k`` every ``period`` steps.

    This is the state-broadcast analog of a two-faced Byzantine node:
    neighbors see the maximal clock discrepancy the level system allows,
    flipped faster than any honest clock can follow.
    """

    name = "oscillating"

    def __init__(self, period: int = 1):
        if period < 1:
            raise ModelError("oscillation period must be >= 1")
        self._period = period

    def states_at(self, execution, nodes, rng, t):
        k = execution.algorithm.levels.k
        face = able(k) if (t // self._period) % 2 == 0 else able(-k)
        return {v: face for v in nodes}


class Targeted(ByzantineStrategy):
    """Max-disruption play: every ``period`` steps each faulty node
    greedily picks the turn that maximizes the proof-aligned
    :func:`~repro.core.potential.disorder_potential` of the resulting
    configuration (nodes decided in ascending id order, each seeing the
    previous choices; ties broken by turn order for determinism).

    Every candidate turn is scored at once from the faulty node's
    two-hop neighborhood by :func:`~repro.core.potential.disorder_gain`
    on the configuration's code vector; code order is turn order, so the
    first maximum is the first such turn in ``all_turns``.  One decision
    costs ``O(Σ_{u ∈ N[v]} deg u)`` numpy row reads, on top of one
    ``O(n)`` encode of the configuration per call.
    """

    name = "targeted"

    def __init__(self, period: int = 1):
        if period < 1:
            raise ModelError("targeted period must be >= 1")
        self._period = period

    def states_at(self, execution, nodes, rng, t):
        if t % self._period:
            return {}
        from repro.core.potential import disorder_gain

        config = execution.configuration
        kernel = execution.algorithm.vector_kernel()
        encoding = kernel.encoding
        codes = encoding.encode_configuration(config)
        csr = config.topology.inclusive_csr()
        updates: Dict[int, Turn] = {}
        for v in nodes:
            best = int(np.argmax(disorder_gain(kernel, codes, csr, v)))
            codes[v] = best
            updates[v] = encoding.decode(best)
        return updates


class Crash(ByzantineStrategy):
    """Crash-stop at step ``at``: the node participates correctly until
    then, after which it freezes at whatever turn it had reached (its
    last broadcast state persists, as a dead cell's surface signal
    does)."""

    name = "crash"

    def __init__(self, at: int = 0):
        if at < 0:
            raise ModelError("crash time must be >= 0")
        self.at = at

    def masked_at(self, t: int) -> bool:
        return t >= self.at

    def states_at(self, execution, nodes, rng, t):
        return {}


class Noisy(ByzantineStrategy):
    """Permanent probabilistic signal noise: the node runs the protocol
    honestly (it is never masked), but before every step each noisy
    node's broadcast state is replaced by a uniformly random turn with
    probability ``p``."""

    name = "noisy"

    def __init__(self, p: float = 0.3):
        if not 0.0 < p <= 1.0:
            raise ModelError(f"noise probability must be in (0, 1], got {p}")
        self.p = p

    def masked_at(self, t: int) -> bool:
        return False

    def states_at(self, execution, nodes, rng, t):
        hits = rng.random(len(nodes)) < self.p
        algorithm = execution.algorithm
        return {
            v: algorithm.random_state(rng)
            for v, hit in zip(nodes, hits)
            if hit
        }


#: Strategy factories by declarative name — the single source of truth
#: shared by :func:`make_strategy`, the ``FaultPlan.strategy`` axis of
#: the campaign spec, and the benchmark sweeps.  Factories, not
#: instances: strategies may be stateful.
BYZANTINE_STRATEGIES: Dict[str, Callable[[], ByzantineStrategy]] = {
    "frozen": FrozenClock,
    "random": RandomClock,
    "oscillating": Oscillating,
    "targeted": Targeted,
    "crash": Crash,
    "noisy": Noisy,
}


def strategy_names() -> Tuple[str, ...]:
    return tuple(sorted(BYZANTINE_STRATEGIES))


def make_strategy(name: str, **params) -> ByzantineStrategy:
    """A fresh strategy instance by registry name."""
    try:
        factory = BYZANTINE_STRATEGIES[name]
    except KeyError:
        valid = ", ".join(strategy_names())
        raise ValueError(
            f"unknown Byzantine strategy {name!r}: valid strategies are {valid}"
        ) from None
    return factory(**params)

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

Strategies speak state codes: both :meth:`~ByzantineStrategy.states_at`
and :meth:`~ByzantineStrategy.initial_states` return ``(rows, codes)``,
parallel sequences of faulty nodes and the codes of the turns written
into them.  A turn's code is its index in ``TurnSystem.all_turns``,
which is the code of the algorithm's
:class:`~repro.core.encoding.TurnEncoding`, so the adversary hands the
writes to :meth:`~repro.model.engine.ExecutionBase.poke_codes` without
building a single :class:`~repro.core.turns.Turn`.

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
                faulty node ``v`` on a copy of the execution's codes
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
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.core.turns import able
from repro.model.errors import ModelError

#: What a strategy writes: parallel ``(rows, codes)`` sequences of
#: faulty nodes and state codes.
Writes = Tuple[Sequence[int], Sequence[int]]

#: The empty write.
NO_WRITES: Writes = ((), ())


def _draw_codes(execution, rng: np.random.Generator, count: int) -> list:
    """``count`` uniform state codes: the draws of ``count``
    ``random_state`` calls, one scalar draw each (on the one to three
    faulty nodes of a typical cell, scalar draws beat a batched one)."""
    size = execution.algorithm.encoding.size
    integers = rng.integers
    return [int(integers(size)) for _ in range(count)]


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
    ) -> Writes:
        """``(rows, codes)`` written into the faulty nodes before the
        first step (default: keep whatever the initial configuration
        assigned)."""
        return NO_WRITES

    @abstractmethod
    def states_at(
        self, execution, nodes: Tuple[int, ...], rng: np.random.Generator, t: int
    ) -> Writes:
        """``(rows, codes)`` written immediately before step ``t``."""

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
            return NO_WRITES
        algorithm.levels.require_level(self._level)
        code = algorithm.encoding.encode(able(self._level))
        return nodes, (code,) * len(nodes)

    def states_at(self, execution, nodes, rng, t):
        return NO_WRITES  # masked ⇒ the frozen state can never drift


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
            return NO_WRITES
        return nodes, _draw_codes(execution, rng, len(nodes))


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
        self._faces: Tuple[object, int, int] | None = None

    def states_at(self, execution, nodes, rng, t):
        encoding = execution.algorithm.encoding
        faces = self._faces
        if faces is None or faces[0] is not encoding:
            k = execution.algorithm.levels.k
            faces = self._faces = (
                encoding,
                encoding.encode(able(k)),
                encoding.encode(able(-k)),
            )
        face = faces[1] if (t // self._period) % 2 == 0 else faces[2]
        return nodes, (face,) * len(nodes)


class Targeted(ByzantineStrategy):
    """Max-disruption play: every step each faulty node greedily picks
    the turn that maximizes the proof-aligned
    :func:`~repro.core.potential.disorder_potential` of the resulting
    configuration (nodes decided in ascending id order, each seeing the
    previous choices; ties broken by turn order for determinism).

    Every candidate turn is scored at once from the faulty node's
    two-hop neighborhood by :func:`~repro.core.potential.disorder_gain`
    on a copy of the execution's code vector; code order is turn order,
    so the first maximum is the first such turn in ``all_turns``.  One
    decision costs ``O(Σ_{u ∈ N[v]} deg u)`` numpy row reads.
    """

    name = "targeted"

    def states_at(self, execution, nodes, rng, t):
        from repro.core.potential import disorder_gain

        kernel = execution.algorithm.vector_kernel()
        codes = execution.codes.copy()
        csr = execution.topology.inclusive_csr()
        chosen = []
        for v in nodes:
            best = int(np.argmax(disorder_gain(kernel, codes, csr, v)))
            codes[v] = best
            chosen.append(best)
        return nodes, chosen


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
        return NO_WRITES


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
        p = self.p
        rows = [v for v, x in zip(nodes, rng.random(len(nodes)).tolist()) if x < p]
        if not rows:
            return NO_WRITES
        return rows, _draw_codes(execution, rng, len(rows))


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

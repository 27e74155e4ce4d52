"""Activation schedulers — the adversary's half of the execution.

A schedule is the sequence ``{A_t}`` of activation sets chosen by a
malicious adversary who knows the algorithm but is oblivious to coin
tosses.  The only constraint is fairness: every node must be activated
infinitely often.  The schedulers below cover the paper's settings:

* :class:`SynchronousScheduler` — ``A_t = V`` (so ``R(i) = i``);
* :class:`RoundRobinScheduler` — one node per step, maximal asynchrony;
* :class:`ShuffledRoundRobinScheduler` — random permutation per round;
* :class:`RandomSubsetScheduler` — i.i.d. inclusion coin per node;
* :class:`ExplicitScheduler` — replay a hand-crafted schedule
  (used for the Appendix-A live-lock witness);
* :class:`RotatingScheduler` — a base activation order whose node
  indices shift every round (the Figure-2 adversary);
* :class:`LaggardScheduler` — starves a victim node as long as
  fairness allows, stressing the asynchronous analysis.

Two *enabled-aware* daemons from the self-stabilization literature ride
on the engines' incrementally maintained enabled-set view (they set
``uses_enabled_view`` and receive the view through :meth:`Scheduler.select`):

* :class:`EnabledOnlyScheduler` — the maximal *distributed* daemon
  restricted to enabled nodes: every enabled node fires each step
  (weakly fair by construction — an enabled node is activated
  immediately);
* :class:`LocallyCentralScheduler` — the *locally central* daemon: a
  maximal independent subset of the enabled nodes, so no two neighbors
  are ever activated together (weakly fair with probability 1 — the
  packing order is re-randomized every step).

All schedulers are deterministic functions of ``(t, rng)`` (plus, for
the enabled-aware daemons, the engine-provided enabled view, itself a
deterministic function of the trajectory) so that runs are reproducible
under seeded generators.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.errors import ScheduleError


class Scheduler(ABC):
    """Produces the activation set ``A_t`` for every step ``t``."""

    #: Human-readable name used in experiment reports.
    name: str = "scheduler"

    #: Enabled-aware daemons set this to ``True``; the execution engine
    #: then calls :meth:`select` (passing its O(activity)-amortized
    #: enabled view) instead of :meth:`activations`.
    uses_enabled_view: bool = False

    @abstractmethod
    def activations(
        self, t: int, nodes: Sequence[int], rng: np.random.Generator
    ) -> FrozenSet[int]:
        """The set of nodes activated in step ``t`` (non-empty)."""

    def select(
        self,
        t: int,
        nodes: Sequence[int],
        rng: np.random.Generator,
        enabled: FrozenSet[int],
    ) -> FrozenSet[int]:
        """The enabled-aware selection hook.

        Engines call this (instead of :meth:`activations`) when
        ``uses_enabled_view`` is set, passing the current enabled nodes
        (masked nodes excluded).  The default ignores the view so that
        oblivious schedulers behave identically through either entry
        point.
        """
        return self.activations(t, nodes, rng)

    def round_activation_order(
        self, nodes: Sequence[int], rng: np.random.Generator
    ) -> Optional[np.ndarray]:
        """Optional bulk hook for round-based single-node schedulers.

        A scheduler whose schedule is one node per step, covering every
        node exactly once per round, may return the activation order of
        the *rest of its current round* as an index array: the whole
        next round at a round start, or the unconsumed tail when
        per-step :meth:`activations` calls have consumed part of it.  It
        must consume exactly the rng draws the equivalent
        :meth:`activations` calls would consume (so trajectories stay
        bit-identical).  The replica-batched ensemble engine uses this
        to gather a whole fused step's activations with array indexing,
        and the array-tier engines hand whole rounds to one sequence
        kernel call.
        The default ``None`` (no rng consumed) keeps the per-step
        protocol.
        """
        return None

    def hand_back(self, tail: np.ndarray) -> None:
        """Return the unapplied ``tail`` of the last
        :meth:`round_activation_order`: the next :meth:`activations`
        calls must replay it in order before drawing anything new.

        A bulk caller calls this when it stops mid-round.  Schedulers
        that implement :meth:`round_activation_order` override it; the
        default refuses, since a scheduler without a round order has
        no tail to take back."""
        raise ScheduleError(f"{self.name} does not hand out round orders")

    def bind(self, execution) -> None:
        """Called by the execution engine at construction time.

        Oblivious schedulers ignore it; adaptive ones (e.g.
        :class:`~repro.model.adversary.GreedyAdversary`) override it to
        capture the execution whose configuration they inspect.
        """

    def _validate(
        self, activated: Iterable[int], nodes: Sequence[int]
    ) -> FrozenSet[int]:
        result = frozenset(activated)
        if not result:
            raise ScheduleError(f"{self.name} produced an empty activation set")
        known = set(nodes)
        if not result <= known:
            raise ScheduleError(
                f"{self.name} activated unknown nodes {sorted(result - known)}"
            )
        return result

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class SynchronousScheduler(Scheduler):
    """``A_t = V`` for all ``t``; every step is a round."""

    name = "synchronous"

    def __init__(self) -> None:
        # The engine passes the same nodes tuple every step, so the
        # full-activation frozenset is built once per node sequence
        # instead of once per step (at n = 10^6 the per-step set build
        # would dominate the compiled kernel tier).
        self._all: Optional[FrozenSet[int]] = None
        self._all_for: Optional[Sequence[int]] = None

    def activations(self, t, nodes, rng):
        if nodes is not self._all_for:
            self._all = frozenset(nodes)
            self._all_for = nodes
        return self._all


class RoundRobinScheduler(Scheduler):
    """Activates exactly one node per step, cycling through a fixed
    order.  One round takes exactly ``n`` steps."""

    name = "round-robin"

    def __init__(self, order: Optional[Sequence[int]] = None):
        self._order = tuple(order) if order is not None else None
        # The permutation check is O(n); validate once per node
        # sequence (the engine passes the same tuple every step), not
        # once per step.
        self._validated_for: Optional[Sequence[int]] = None
        self._singletons: Tuple[FrozenSet[int], ...] = ()
        self._order_array: Optional[np.ndarray] = None

    def activations(self, t, nodes, rng):
        if nodes is not self._validated_for:
            self._validate_order(nodes)
        return self._singletons[t % len(self._singletons)]

    def _validate_order(self, nodes):
        order = self._order if self._order is not None else tuple(nodes)
        if len(order) != len(nodes) or set(order) != set(nodes):
            raise ScheduleError("round-robin order must be a permutation of V")
        self._singletons = tuple(frozenset((v,)) for v in order)
        self._validated_for = nodes

    def hand_back(self, tail):
        """Nothing to keep: the position in the order is ``t mod n``."""

    def round_activation_order(self, nodes, rng):
        """Every round replays the fixed order (no rng consumed).  The
        position is ``t mod n``, so bulk callers call this only at
        round starts."""
        if nodes is not self._validated_for:
            self._validate_order(nodes)
            self._order_array = None
        if self._order_array is None:
            order = self._order if self._order is not None else tuple(nodes)
            self._order_array = np.asarray(order, dtype=np.int64)
        return self._order_array


class ShuffledRoundRobinScheduler(Scheduler):
    """One node per step, re-shuffling the order at every round
    boundary.  Fair with probability 1 and far less predictable than
    plain round-robin."""

    name = "shuffled-round-robin"

    def __init__(self) -> None:
        self._current: List[int] = []

    def activations(self, t, nodes, rng):
        if not self._current:
            self._current = list(nodes)
            rng.shuffle(self._current)
        return frozenset((self._current.pop(),))

    def round_activation_order(self, nodes, rng):
        """The unconsumed rest of a round that per-step pops have
        started, or else one fresh shuffle — the same single draw (and
        therefore the same rng stream) as the incremental per-step pops,
        which consume the shuffled list from its tail."""
        if self._current:
            order = self._current[::-1]
            self._current = []
        else:
            order = list(nodes)
            rng.shuffle(order)
            order.reverse()  # activations() pops from the end
        return np.asarray(order, dtype=np.int64)

    def hand_back(self, tail):
        """Queue ``tail`` for the next pops, first node last."""
        self._current = tail[::-1].tolist()


class RandomSubsetScheduler(Scheduler):
    """Each node is activated independently with probability ``p``.

    Empty draws are resampled so every step activates at least one node;
    fairness holds with probability 1.
    """

    name = "random-subset"

    def __init__(self, p: float = 0.5):
        if not 0.0 < p <= 1.0:
            raise ScheduleError(f"activation probability must be in (0, 1], got {p}")
        self._p = p
        self.name = f"random-subset(p={p})"

    @property
    def p(self) -> float:
        return self._p

    def activations(self, t, nodes, rng):
        node_list = tuple(nodes)
        while True:
            mask = rng.random(len(node_list)) < self._p
            if mask.any():
                return frozenset(v for v, included in zip(node_list, mask) if included)


class ExplicitScheduler(Scheduler):
    """Replays a prescribed finite schedule, optionally repeating it.

    Replays the activation sets that a run's step records list, or
    drives a hand-built adversarial schedule.  When the prescribed
    sequence is exhausted and ``repeat`` is false, the scheduler falls
    back to synchronous steps (keeping the execution fair).
    """

    name = "explicit"

    def __init__(
        self,
        sequence: Sequence[Iterable[int]],
        repeat: bool = False,
    ):
        self._sequence: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(step) for step in sequence
        )
        if not self._sequence:
            raise ScheduleError("explicit schedule must be non-empty")
        self._repeat = repeat

    def activations(self, t, nodes, rng):
        if t < len(self._sequence):
            return self._validate(self._sequence[t], nodes)
        if self._repeat:
            return self._validate(self._sequence[t % len(self._sequence)], nodes)
        return frozenset(nodes)


class RotatingScheduler(Scheduler):
    """Activates single nodes following ``base_order`` whose indices are
    shifted by ``shift`` (mod n) at each completed traversal.

    With ``base_order = [p0, p6, p1, p2, p3, p4, p7, p5]`` and
    ``shift = 1`` on the 8-ring, this is exactly the adversary that keeps
    the Appendix-A algorithm in a live-lock: after every traversal the
    configuration equals the previous one rotated by one position, and
    the schedule rotates along with it.
    """

    name = "rotating"

    def __init__(self, base_order: Sequence[int], shift: int = 1):
        if not base_order:
            raise ScheduleError("rotating schedule needs a non-empty base order")
        self._base = tuple(base_order)
        self._shift = shift
        self._validated_for: Optional[Sequence[int]] = None

    def activations(self, t, nodes, rng):
        n = len(nodes)
        if nodes is not self._validated_for:
            if set(self._base) != set(nodes):
                raise ScheduleError("rotating base order must be a permutation of V")
            self._validated_for = nodes
        traversal, position = divmod(t, len(self._base))
        node = (self._base[position] + traversal * self._shift) % n
        return frozenset((node,))


class LaggardScheduler(Scheduler):
    """Activates every node except a victim each step, touching the
    victim only once every ``period`` steps.

    This is the "almost-starving" fair adversary: the victim's rounds
    stretch to ``period`` steps, which maximizes the gap between step
    counts and round counts.
    """

    name = "laggard"

    def __init__(self, victim: int = 0, period: int = 8):
        if period < 2:
            raise ScheduleError("laggard period must be at least 2")
        self._victim = victim
        self._period = period
        self.name = f"laggard(victim={victim}, period={period})"
        # Both activation sets are fixed per node sequence; build them
        # once instead of refiltering V every step.
        self._validated_for: Optional[Sequence[int]] = None
        self._others: FrozenSet[int] = frozenset()
        self._everyone: FrozenSet[int] = frozenset()

    def activations(self, t, nodes, rng):
        if nodes is not self._validated_for:
            if self._victim not in set(nodes):
                raise ScheduleError(f"victim {self._victim} is not a node")
            self._others = frozenset(v for v in nodes if v != self._victim)
            self._everyone = self._others | frozenset((self._victim,))
            self._validated_for = nodes
        if t % self._period == self._period - 1 or not self._others:
            return self._everyone
        return self._others


class EnabledOnlyScheduler(Scheduler):
    """The maximal distributed daemon restricted to enabled nodes.

    Every step activates exactly the nodes whose ``δ`` would move them
    — the daemon the unison time/workload trade-off literature calls
    *enabled-aware*: it wastes no activation on nodes that cannot act,
    so step counts measure useful work.  Weakly fair by construction
    (a continuously enabled node is activated at once); when nothing is
    enabled (a quiescent configuration) it falls back to activating all
    nodes, which keeps activation sets non-empty and rounds progressing.
    """

    name = "enabled-only"
    uses_enabled_view = True

    def select(self, t, nodes, rng, enabled):
        if enabled:
            return self._validate(enabled, nodes)
        return frozenset(nodes)

    def activations(self, t, nodes, rng):
        raise ScheduleError(
            f"{self.name} needs the engine's enabled view; drive it "
            "through an execution (it is selected via select())"
        )


class LocallyCentralScheduler(Scheduler):
    """The locally central daemon over the enabled set.

    Activates a *maximal independent subset* of the enabled nodes, so
    no two neighbors ever fire in the same step — the serialization
    guarantee the locally central daemons of the self-stabilization
    literature provide (cf. Dubois et al. on Byzantine asynchronous
    unison).  The subset is packed greedily in an rng-permuted order,
    which makes the daemon weakly fair with probability 1: a
    continuously enabled node precedes all of its enabled neighbors
    infinitely often.  On a quiescent configuration it falls back to a
    maximal independent subset of all nodes (nothing can move, but
    activation sets stay non-empty and fair).
    """

    name = "locally-central"
    uses_enabled_view = True

    def __init__(self) -> None:
        self._neighbors = None

    def bind(self, execution) -> None:
        self._neighbors = execution.topology.neighbors

    def select(self, t, nodes, rng, enabled):
        if self._neighbors is None:
            raise ScheduleError(
                f"{self.name} is not bound to an execution (pass it as "
                "the scheduler of an execution, or call bind())"
            )
        pool = sorted(enabled) if enabled else list(nodes)
        order = rng.permutation(len(pool))
        chosen: List[int] = []
        blocked = set()
        for index in order:
            v = pool[int(index)]
            if v in blocked:
                continue
            chosen.append(v)
            blocked.add(v)
            blocked.update(self._neighbors(v))
        return self._validate(chosen, nodes)

    def activations(self, t, nodes, rng):
        raise ScheduleError(
            f"{self.name} needs the engine's enabled view; drive it "
            "through an execution (it is selected via select())"
        )

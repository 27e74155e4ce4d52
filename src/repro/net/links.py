"""Link model: configurable delay, jitter, loss, and duplication.

Links follow the *fair-lossy* abstraction standard in the
message-passing literature: an individual send may be dropped,
duplicated, delayed, or reordered, but a message sent infinitely often
is delivered infinitely often.  We realize the fairness half
constructively — each directed edge tracks its consecutive-drop streak
and force-delivers after :attr:`LinkConfig.max_consecutive_loss` drops —
so liveness of the stubborn-broadcast protocol in
:mod:`repro.net.runtime` is a property of the model, not of luck.

All durations are expressed in *slot units*: one activation step of the
runtime is one slot (see :mod:`repro.net.runtime` for the phase
layout).  Determinism note: when every stochastic knob is zero the link
consults no randomness at all, which keeps the noise RNG stream empty
and makes zero-noise runs bit-identical to the simulation engines.

:class:`MessageNetwork` puts the links to work: the in-flight
deliveries of the AlgAU runtime, drained in ``(time, send order)``
order from a FIFO of broadcasts under noiseless links and from a heap
otherwise.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, fields
from typing import Deque, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.model.errors import ModelError

#: Copies of one broadcast sharing a delivery instant: ``(time, order of
#: the first copy, sender, receivers, payload)``.
Batch = Tuple[float, int, int, Sequence[int], object]


@dataclass(frozen=True)
class LinkConfig:
    """Stochastic parameters of every link in a net run.

    Attributes:
        delay: fixed propagation delay added to each delivery, in slot
            units (``>= 0``).
        jitter: upper bound of a uniform random extra delay per
            delivery, in slot units (``>= 0``).
        loss: probability that an individual send is dropped
            (``0 <= loss < 1``), subject to the fairness bound.
        duplicate: probability that a delivered message is delivered a
            second time at an independently jittered instant
            (``0 <= duplicate < 1``).
        max_consecutive_loss: fairness bound — a directed edge never
            drops more than this many sends in a row (``>= 1``).
    """

    delay: float = 0.0
    jitter: float = 0.0
    loss: float = 0.0
    duplicate: float = 0.0
    max_consecutive_loss: int = 3

    def __post_init__(self) -> None:
        """Validate ranges."""
        for field in ("delay", "jitter"):
            value = getattr(self, field)
            if not (isinstance(value, (int, float)) and value >= 0.0):
                raise ModelError(f"link {field} must be >= 0, got {value!r}")
        for field in ("loss", "duplicate"):
            value = getattr(self, field)
            if not (isinstance(value, (int, float)) and 0.0 <= value < 1.0):
                raise ModelError(f"link {field} must be in [0, 1), got {value!r}")
        streak = self.max_consecutive_loss
        if not (isinstance(streak, int) and streak >= 1):
            raise ModelError(
                f"max_consecutive_loss must be an int >= 1, got {streak!r}"
            )

    @property
    def is_noiseless(self) -> bool:
        """Whether the link introduces no randomness (pure fixed delay)."""
        return self.jitter == 0.0 and self.loss == 0.0 and self.duplicate == 0.0

    @classmethod
    def from_params(cls, params: Mapping[str, object]) -> "LinkConfig":
        """Build a config from a ``net_params``-style mapping.

        Unknown keys are rejected so campaign specs cannot silently
        misspell a knob.
        """
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ModelError(f"unknown link parameter(s): {', '.join(unknown)}")
        kwargs = dict(params)
        if "max_consecutive_loss" in kwargs:
            streak = kwargs["max_consecutive_loss"]
            kwargs["max_consecutive_loss"] = int(streak)  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


class FairLossyLink:
    """Per-directed-edge fault state on top of a shared :class:`LinkConfig`.

    One instance models one directed edge.  :meth:`transmit` is called
    once per send and returns the tuple of delivery latencies for that
    send — empty when dropped, one entry for a normal delivery, two when
    duplicated.  :class:`MessageNetwork` schedules one delivery per
    entry; since latencies differ across messages, reordering arises
    naturally.
    """

    __slots__ = ("config", "consecutive_losses")

    def __init__(self, config: LinkConfig) -> None:
        self.config = config
        self.consecutive_losses = 0

    def transmit(self, rng: np.random.Generator) -> Tuple[float, ...]:
        """Sample the fate of one send; return delivery latencies in slots.

        The noise ``rng`` is consulted only for knobs that are actually
        enabled, so a noiseless config leaves the stream untouched.
        """
        config = self.config
        if config.loss > 0.0:
            streak_open = self.consecutive_losses < config.max_consecutive_loss
            if streak_open and rng.random() < config.loss:
                self.consecutive_losses += 1
                return ()
            self.consecutive_losses = 0
        latencies = [config.delay + self._jitter(rng)]
        if config.duplicate > 0.0 and rng.random() < config.duplicate:
            latencies.append(config.delay + self._jitter(rng))
        return tuple(latencies)

    def _jitter(self, rng: np.random.Generator) -> float:
        if self.config.jitter > 0.0:
            return float(rng.random()) * self.config.jitter
        return 0.0


@dataclass
class NetStats:
    """Cumulative message-layer counters of one network (its consumer
    counts ``messages_delivered``)."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0

    def per_node_round(self, n: int, rounds: int) -> float:
        """Messages sent per node per completed round (0 when no round
        completed)."""
        if n <= 0 or rounds <= 0:
            return 0.0
        return self.messages_sent / (n * rounds)


class MessageNetwork:
    """In-flight messages over lazily created per-edge fair-lossy links.

    The unit of the queues is a *batch* ``(time, order, sender,
    receivers, payload)``: copies of one broadcast that share a
    delivery instant.  ``time`` is the caller's departure instant plus
    the link latency; ``order`` numbers the batch's first copy, and
    copies are numbered in send order, so deliveries leave
    :meth:`due_batches` in ``(time, send order)`` order.  Two queues
    keep that order:

    * the *outbox*, a FIFO, while the config is noiseless and departures
      never decrease.  The latency is then one fixed ``delay``, so
      delivery times rise with send order and the FIFO drains in
      exactly the heap's order, with no heap operation and one entry per
      broadcast;
    * the *heap* otherwise.  Under a noisy config each surviving copy is
      a batch of its own: a directed edge gets its
      :class:`FairLossyLink` on its first send, and a caller that tears
      an edge down pops it from :attr:`links`, so a re-added edge starts
      a fresh loss streak.  A noiseless network that sees a departure
      earlier than the last one moves its outbox into the heap and keeps
      to the heap from then on.

    A noiseless config keeps no per-edge state: every send is delivered
    exactly once, ``delay`` after its departure.
    """

    def __init__(self, config: LinkConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.links: Dict[Tuple[int, int], FairLossyLink] = {}
        self.stats = NetStats()
        self._heap: List[Batch] = []
        self._order = 0
        self._fixed_delay = config.delay if config.is_noiseless else None
        #: ``None`` once departures went backwards, or when noisy.
        self._outbox: Optional[Deque[Batch]] = deque() if config.is_noiseless else None
        self._last_departure = float("-inf")

    def broadcast(
        self, departure: float, sender: int, receivers: Sequence[int], payload: object
    ) -> None:
        """Send ``payload`` to every receiver, all copies departing at
        ``departure``, in the order of ``receivers``; schedule each
        surviving copy for delivery."""
        stats = self.stats
        stats.messages_sent += len(receivers)
        if self._fixed_delay is not None:
            time = departure + self._fixed_delay
            batch = (time, self._order + 1, sender, receivers, payload)
            self._order += len(receivers)
            outbox = self._outbox
            if outbox is not None:
                if departure >= self._last_departure:
                    self._last_departure = departure
                    outbox.append(batch)
                    return
                self._heap.extend(outbox)
                heapq.heapify(self._heap)
                self._outbox = None
            heapq.heappush(self._heap, batch)
            return
        for receiver in receivers:
            link = self.links.get((sender, receiver))
            if link is None:
                link = self.links[(sender, receiver)] = FairLossyLink(self.config)
            latencies = link.transmit(self.rng)
            if not latencies:
                stats.messages_dropped += 1
            elif len(latencies) > 1:
                stats.messages_duplicated += 1
            for latency in latencies:
                self._order += 1
                heapq.heappush(
                    self._heap,
                    (departure + latency, self._order, sender, (receiver,), payload),
                )

    def due_batches(self, until: float) -> Iterator[Batch]:
        """Pop every batch due at or before ``until``, in ``(time, send
        order)`` order."""
        outbox = self._outbox
        while outbox and outbox[0][0] <= until:
            yield outbox.popleft()
        heap = self._heap
        while heap and heap[0][0] <= until:
            yield heapq.heappop(heap)

"""Link model: configurable delay, jitter, loss, and duplication.

Links follow the *fair-lossy* abstraction standard in the
message-passing literature: an individual send may be dropped,
duplicated, delayed, or reordered, but a message sent infinitely often
is delivered infinitely often.  We realize the fairness half
constructively — each directed edge tracks its consecutive-drop streak
and force-delivers after :attr:`LinkConfig.max_consecutive_loss` drops —
so liveness of the stubborn-broadcast protocol in
:mod:`repro.net.node` is a property of the model, not of luck.

All durations are expressed in *slot units*: one activation step of the
runtime is one slot (see :mod:`repro.net.runtime` for the phase
layout).  Determinism note: when every stochastic knob is zero the link
consults no randomness at all, which keeps the noise RNG stream empty
and makes zero-noise runs bit-identical to the simulation engines.

:class:`MessageNetwork` puts the links to work: one heap of in-flight
deliveries, driven by the AlgAU runtime.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Mapping, Tuple

import numpy as np

from repro.model.errors import ModelError


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
    counts ``messages_delivered`` and, in the AlgAU runtime, ``acts``)."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    acts: int = 0

    def per_node_round(self, n: int, rounds: int) -> float:
        """Messages sent per node per completed round (0 when no round
        completed)."""
        if n <= 0 or rounds <= 0:
            return 0.0
        return self.messages_sent / (n * rounds)


class MessageNetwork:
    """In-flight messages over lazily created per-edge fair-lossy links.

    Every surviving copy of a send becomes one heap entry
    ``(time, order, sender, receiver, payload)``: ``time`` is the
    caller's departure instant plus the link latency, and ``order``
    counts copies, so deliveries due at the same instant pop in send
    order.  Under a noisy config a directed edge gets its
    :class:`FairLossyLink` on its first send; a caller that tears an edge
    down pops it from :attr:`links`, so a re-added edge starts a fresh
    loss streak.  A noiseless config keeps no per-edge state: every send
    is delivered exactly once, ``delay`` after its departure.
    """

    def __init__(self, config: LinkConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.links: Dict[Tuple[int, int], FairLossyLink] = {}
        self.stats = NetStats()
        self._heap: List[Tuple[float, int, int, int, object]] = []
        self._order = 0
        self._fixed_delay = config.delay if config.is_noiseless else None

    def send(
        self, departure: float, sender: int, receiver: int, payload: object
    ) -> None:
        """Send one message; schedule each surviving copy for delivery."""
        stats = self.stats
        stats.messages_sent += 1
        if self._fixed_delay is not None:
            self._order += 1
            time = departure + self._fixed_delay
            heapq.heappush(self._heap, (time, self._order, sender, receiver, payload))
            return
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
                (departure + latency, self._order, sender, receiver, payload),
            )

    def due(self, until: float) -> Iterator[Tuple[float, int, int, int, object]]:
        """Pop every delivery due at or before ``until``, in
        ``(time, send order)`` order."""
        heap = self._heap
        while heap and heap[0][0] <= until:
            yield heapq.heappop(heap)

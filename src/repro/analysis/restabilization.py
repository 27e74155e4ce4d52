"""Re-stabilization analytics for dynamic-topology (churn) runs.

Static campaigns measure one number — the stabilization round.  Under
churn the interesting quantities are *trajectories*: how long the
system needs to re-absorb each topology event, what fraction of the
churn window it spends in a good configuration, and how tightly the
surviving clocks pulse once the dust settles.  This module owns those
three measurements so the campaign runner, the churn benchmark and the
tests share one definition:

* :class:`RestabilizationTracker` — per-event time-to-re-stabilize,
  fed step-by-step by whoever drives the execution;
* :func:`pulse_tightness` — the minimal cyclic arc of ``Z_{2k}``
  covering the alive able clocks, normalized to ``[0, 1]`` (0.0 is a
  perfect pulse, 1.0 means the clocks smear around the whole cycle or
  a faulty turn survives);
* :func:`churn_phase_boundary` — the sustainable-churn phase
  transition extracted from a (rate, clean-fraction) sweep.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "RestabilizationTracker",
    "churn_phase_boundary",
    "pulse_tightness",
]


class RestabilizationTracker:
    """Per-event re-stabilization times under a churn stream.

    The driver calls :meth:`on_event` when it applies a topology delta
    and :meth:`on_step` after every engine step with the current
    goodness verdict.  An *episode* opens at the first event that finds
    the system good (or at the event following a recovery) and closes
    at the first good step after it; events landing inside an open
    episode extend it rather than opening a second one, so episode
    times measure the response to event *clusters* the way the paper's
    adversary would see them.
    """

    def __init__(self) -> None:
        self._open: Optional[int] = None
        self.episodes: List[Tuple[int, int]] = []

    def on_event(self, t: int) -> None:
        """A topology delta was applied at engine time ``t``."""
        if self._open is None:
            self._open = t

    def on_step(self, t: int, good: bool) -> None:
        """One engine step completed at time ``t`` with verdict ``good``."""
        if good and self._open is not None:
            self.episodes.append((self._open, t))
            self._open = None

    @property
    def unresolved(self) -> bool:
        """An episode is still open (the run ended before recovery)."""
        return self._open is not None

    def times(self) -> List[int]:
        """Steps-to-re-stabilize of every closed episode, in order."""
        return [end - start for start, end in self.episodes]

    def mean_time(self) -> Optional[float]:
        times = self.times()
        if not times:
            return None
        return sum(times) / len(times)

    def max_time(self) -> Optional[int]:
        times = self.times()
        if not times:
            return None
        return max(times)


def pulse_tightness(algorithm, states: Iterable) -> Optional[float]:
    """Pulse-synchrony tightness of ``states`` on the clock cycle.

    ``states`` are the *alive* nodes' states.  For AlgAU-family
    algorithms (anything exposing a ``levels``/:class:`LevelSystem`
    attribute) the result is the length of the minimal cyclic arc of
    ``Z_{2k}`` containing every able clock, divided by the group order:
    0.0 when all clocks agree (a perfect pulse, the paper's biological
    reading of unison), approaching 1.0 as they smear around the whole
    cycle.  A surviving faulty turn pins the value at 1.0 — the colony
    is not pulsing at all.  Algorithms without a level system yield
    ``None`` (the column stays empty for the zoo tasks).
    """
    levels = getattr(algorithm, "levels", None)
    if levels is None or not hasattr(levels, "clock_value"):
        return None
    group = levels.group_order
    clocks = set()
    for state in states:
        if getattr(state, "faulty", False):
            return 1.0
        clocks.add(levels.clock_value(state.level))
    if len(clocks) <= 1:
        return 0.0
    ordered = sorted(clocks)
    # Largest cyclic gap between consecutive occupied clocks; the
    # minimal covering arc is the rest of the cycle.
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    gaps.append(group - ordered[-1] + ordered[0])
    return float(group - max(gaps)) / float(group)


def churn_phase_boundary(points: Sequence[Tuple[float, float]]) -> Optional[float]:
    """The sustainable-churn phase boundary of a rate sweep.

    ``points`` are ``(churn_rate, clean_fraction)`` observations —
    typically one per scenario, several per rate.  Fractions are
    averaged per rate, rates are scanned in increasing order, and the
    boundary is the midpoint between the last *sustainable* rate (mean
    clean fraction at or above one half) and the first
    *unsustainable* one.  Returns ``None`` when the sweep never
    collapses (the boundary lies beyond the sweep — not measurable),
    and the smallest swept rate when even that rate is unsustainable.
    """
    if not points:
        return None
    by_rate: Dict[float, List[float]] = {}
    for rate, fraction in points:
        by_rate.setdefault(float(rate), []).append(float(fraction))
    rates = sorted(by_rate)
    previous: Optional[float] = None
    for rate in rates:
        mean = sum(by_rate[rate]) / len(by_rate[rate])
        if mean < 0.5:
            if previous is None:
                return rate
            return (previous + rate) / 2.0
        previous = rate
    return None

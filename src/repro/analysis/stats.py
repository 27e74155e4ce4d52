"""Statistics helpers for the experiment harness.

The paper's quantitative claims are asymptotic ("O(D^3) rounds",
"O(D log n) whp"); the harness validates their *shape* with seeded
Monte-Carlo sweeps: summary statistics per sweep point plus log-log
growth-rate fits across sweep points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of one sweep point."""

    count: int
    mean: float
    std: float
    median: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        data = np.asarray(list(values), dtype=float)
        if data.size == 0:
            raise ValueError("cannot summarize an empty sample")
        return cls(
            count=int(data.size),
            mean=float(data.mean()),
            std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
            median=float(np.median(data)),
            minimum=float(data.min()),
            maximum=float(data.max()),
        )

    def __str__(self) -> str:
        return (
            f"mean={self.mean:.1f} ±{self.std:.1f} "
            f"med={self.median:.1f} max={self.maximum:.0f}"
        )

    def to_dict(self) -> dict:
        """A JSON-ready dict; float fields are bit-exact round-trips,
        so summaries over the same samples serialize identically."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "median": self.median,
            "min": self.minimum,
            "max": self.maximum,
        }


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x`` — the
    empirical polynomial degree of a scaling curve."""
    lx = np.log(np.asarray(list(xs), dtype=float))
    ly = np.log(np.asarray(list(ys), dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two sweep points for a slope")
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


def ratio_to_log(ns: Sequence[int], ys: Sequence[float]) -> Tuple[float, ...]:
    """``y / log2(n)`` per sweep point — flat means ``Θ(log n)``."""
    return tuple(float(y) / math.log2(n) if n > 1 else float(y) for n, y in zip(ns, ys))


def max_geometric_sample(n: int, p: float, rng: np.random.Generator) -> int:
    """One draw of ``max`` of ``n`` i.i.d. Geom(p) variables (support
    starting at 1) — the distribution behind RandPhase/RandCount
    (Obs 3.2)."""
    return int(rng.geometric(p, size=n).max())


def geometric_max_statistics(n: int, p: float, trials: int, seed: int = 0) -> Summary:
    """Monte-Carlo summary of ``max`` of ``n`` Geom(p)."""
    rng = np.random.default_rng(seed)
    return Summary.of([max_geometric_sample(n, p, rng) for _ in range(trials)])

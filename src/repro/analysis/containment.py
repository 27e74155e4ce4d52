"""Containment analytics for permanent faults.

With permanently Byzantine nodes the global AlgAU stabilization
predicate (*every* node able, *every* edge protected) is unreachable by
construction — the interesting question, following Dubois et al.'s
self-stabilizing Byzantine unison, is *containment*: does the
disruption stay within a bounded hop radius of the faulty nodes, with
everything farther away stabilizing as if the faults did not exist?

The vocabulary used here:

* ``distances[v]`` — hop distance from ``v`` to the nearest faulty
  node (0 exactly on the faulty nodes themselves);
* a correct node ``v`` is **clean** when it holds an able turn and
  every incident edge to a neighbor *no closer to the faulty set*
  (``distances[u] >= distances[v]``) is protected.  Edges pointing
  inwards are charged to the inner endpoint, and edges to faulty
  nodes (distance 0 < any correct distance) never count against a
  correct node — a Byzantine neighbor cannot be required to agree;
* the graph is **stabilized outside radius r** when every correct
  node at distance ``> r`` is clean — equivalently, the subgraph
  induced by ``{v : distances[v] > r}`` is a good graph;
* the **containment radius** (:func:`containment_radius`) of a
  configuration is the smallest such ``r``: the largest distance of
  any unclean correct node (0 when every correct node is clean).

:func:`measure_containment` runs a full fixed-horizon measurement with
a :class:`ContainmentTracker` monitor and reports the stable radius
(the worst radius over a trailing confirmation window — a snapshot can
look clean while a disruption wave is mid-flight) plus per-node
recovery rounds as a function of hop distance, the subsystem's
headline curve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.algau import ThinUnison
from repro.graphs.topology import Topology
from repro.model.array_engine import ArrayExecution
from repro.model.configuration import Configuration
from repro.model.engine import ExecutionBase, Monitor, StepRecord, create_execution
from repro.model.errors import ModelError
from repro.model.scheduler import Scheduler
from repro.resilience.adversary import PermanentFaultAdversary
from repro.resilience.strategies import ByzantineStrategy


def hop_distances(topology: Topology, sources: Iterable[int]) -> np.ndarray:
    """Hop distance from every node to the nearest of ``sources``
    (multi-source BFS; the topology is connected, so all distances are
    finite)."""
    source_set = {int(v) for v in sources}
    if not source_set:
        raise ModelError("hop_distances needs at least one source node")
    unknown = source_set - set(topology.nodes)
    if unknown:
        raise ModelError(f"unknown source nodes {sorted(unknown)}")
    distances = np.full(topology.n, -1, dtype=np.int64)
    queue = deque(sorted(source_set))
    for v in queue:
        distances[v] = 0
    while queue:
        v = queue.popleft()
        for u in topology.neighbors(v):
            if distances[u] < 0:
                distances[u] = distances[v] + 1
                queue.append(u)
    return distances


# ----------------------------------------------------------------------
# The per-node clean mask (object and vectorized paths).
# ----------------------------------------------------------------------


def clean_node_mask(
    algorithm: ThinUnison,
    configuration: Configuration,
    distances: np.ndarray,
) -> np.ndarray:
    """Boolean mask of clean correct nodes (faulty nodes — distance 0 —
    are never clean).  Reference object-model implementation."""
    topology = configuration.topology
    levels = algorithm.levels
    clean = np.zeros(topology.n, dtype=bool)
    for v in topology.nodes:
        if distances[v] == 0:
            continue
        state = configuration[v]
        if state.faulty:
            continue
        ok = True
        for u in topology.neighbors(v):
            if distances[u] < distances[v]:
                continue  # charged to the inner endpoint (or Byzantine)
            other = configuration[u]
            if other.faulty or not levels.adjacent(state.level, other.level):
                ok = False
                break
        clean[v] = ok
    return clean


def clean_node_mask_codes(kernel, codes: np.ndarray, csr, distances: np.ndarray):
    """Vectorized :func:`clean_node_mask` on the array engine's dense
    turn codes and CSR neighborhoods — one pass over the edge arrays,
    no configuration decode."""
    k2 = kernel.num_clocks
    rows = csr.row_index
    cols = csr.indices
    able = codes < k2
    # Edges charged to the row endpoint: neighbor strictly no closer to
    # the faulty set (faulty nodes have distance 0, so they never
    # qualify), excluding the CSR self-entries.
    relevant = (cols != rows) & (distances[cols] >= distances[rows])
    diff = (codes[cols] - codes[rows]) % k2
    adjacent = (diff <= 1) | (diff == k2 - 1)
    bad_entry = relevant & (~able[rows] | ~able[cols] | ~adjacent)
    dirty = np.zeros(len(codes), dtype=bool)
    dirty[rows[bad_entry]] = True
    return able & ~dirty & (distances > 0)


def execution_clean_mask(
    execution: ExecutionBase, distances: np.ndarray
) -> np.ndarray:
    """The clean mask of an execution's current configuration, using
    the vectorized path on the array engine (bit-identical to the
    object path — verified by the resilience test suite)."""
    if isinstance(execution, ArrayExecution):
        return clean_node_mask_codes(
            execution.algorithm.vector_kernel(),
            execution.codes,
            execution.topology.inclusive_csr(),
            distances,
        )
    return clean_node_mask(execution.algorithm, execution.configuration, distances)


# ----------------------------------------------------------------------
# Containment predicates.
# ----------------------------------------------------------------------


def radius_of_mask(clean: np.ndarray, distances: np.ndarray) -> int:
    """The containment radius encoded by one clean mask: the largest
    distance of an unclean correct node (0 when all are clean)."""
    unclean = (distances > 0) & ~np.asarray(clean, dtype=bool)
    if not unclean.any():
        return 0
    return int(distances[unclean].max())


def containment_radius(
    algorithm: ThinUnison,
    configuration: Configuration,
    distances: np.ndarray,
) -> int:
    """Smallest ``r`` such that the configuration is stabilized outside
    radius ``r``."""
    return radius_of_mask(
        clean_node_mask(algorithm, configuration, distances), distances
    )


# ----------------------------------------------------------------------
# Round-resolution tracking.
# ----------------------------------------------------------------------


class ContainmentTracker(Monitor):
    """Records, at every round boundary, the clean mask's containment
    radius and each node's last unclean round.

    ``last_unclean_round[v] == i`` means node ``v`` was unclean at the
    boundary of round ``i`` and clean at every later sampled boundary
    (0 means never observed unclean) — the per-node recovery time in
    the paper's round unit.
    """

    def __init__(self, faulty_nodes: Sequence[int]):
        self.faulty_nodes: Tuple[int, ...] = tuple(sorted(int(v) for v in faulty_nodes))
        self.distances: Optional[np.ndarray] = None
        self.radius_timeline: list = []
        self._last_unclean: Optional[np.ndarray] = None
        self._rounds = 0

    def on_start(self, execution: ExecutionBase) -> None:
        self.distances = hop_distances(execution.topology, self.faulty_nodes)
        self._last_unclean = np.zeros(execution.topology.n, dtype=np.int64)

    def on_step(self, execution: ExecutionBase, record: StepRecord) -> None:
        if not record.completed_round:
            return
        self._rounds += 1
        clean = execution_clean_mask(execution, self.distances)
        unclean = (self.distances > 0) & ~clean
        self._last_unclean[unclean] = self._rounds
        self.radius_timeline.append(radius_of_mask(clean, self.distances))

    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def last_unclean_round(self) -> np.ndarray:
        if self._last_unclean is None:
            raise ModelError("tracker observed no execution yet")
        return self._last_unclean

    def stable_radius(self, window: int) -> int:
        """The worst containment radius over the trailing ``window``
        round boundaries — robust against sampling a disruption wave at
        a lucky instant."""
        if not self.radius_timeline:
            raise ModelError("tracker observed no completed round yet")
        window = max(1, min(window, len(self.radius_timeline)))
        return int(max(self.radius_timeline[-window:]))


# ----------------------------------------------------------------------
# The full measurement harness.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ContainmentMeasurement:
    """Outcome of one fixed-horizon permanent-fault run."""

    faulty_nodes: Tuple[int, ...]
    distances: Tuple[int, ...]
    rounds: int
    confirm_rounds: int
    #: Worst containment radius over the trailing confirmation window.
    stable_radius: int
    #: Per-round-boundary containment radius trace.
    radius_timeline: Tuple[int, ...]
    #: Last round at which each node was observed unclean (0 = never).
    last_unclean_round: Tuple[int, ...]

    @property
    def max_distance(self) -> int:
        return max(self.distances)

    @property
    def contained(self) -> bool:
        """Whether some correct nodes lie strictly beyond the stable
        radius — i.e. the disruption did *not* engulf the graph."""
        return self.stable_radius < self.max_distance

    def settled(self, v: int) -> bool:
        """Whether node ``v`` was clean throughout the confirmation
        window."""
        return self.last_unclean_round[v] <= self.rounds - self.confirm_rounds

    def clean_fraction(self) -> float:
        """Fraction of correct nodes settled by the end of the run."""
        correct = [v for v, d in enumerate(self.distances) if d > 0]
        return sum(1 for v in correct if self.settled(v)) / len(correct)

    def recovery_by_distance(self) -> Dict[int, Dict[str, float]]:
        """Per hop distance: how many nodes, how many settled, and the
        mean/max recovery round among the settled ones — the
        recovery-time-vs-distance curve."""
        buckets: Dict[int, list] = {}
        for v, d in enumerate(self.distances):
            if d > 0:
                buckets.setdefault(int(d), []).append(v)
        curve: Dict[int, Dict[str, float]] = {}
        for d, nodes in sorted(buckets.items()):
            settled = [v for v in nodes if self.settled(v)]
            recoveries = [int(self.last_unclean_round[v]) for v in settled]
            curve[d] = {
                "nodes": len(nodes),
                "settled": len(settled),
                "mean_recovery_rounds": (
                    float(np.mean(recoveries)) if recoveries else None
                ),
                "max_recovery_rounds": max(recoveries) if recoveries else None,
            }
        return curve


def measure_containment(
    algorithm: ThinUnison,
    topology: Topology,
    initial: Configuration,
    scheduler: Scheduler,
    rng: np.random.Generator,
    faulty_nodes: Sequence[int],
    strategy: ByzantineStrategy,
    rounds: int,
    confirm_rounds: int = 10,
    engine: str = "array",
) -> ContainmentMeasurement:
    """Run ``rounds`` rounds under a permanent-fault adversary and
    measure containment.

    Unlike the transient-fault measurements there is no ``until``
    predicate — a Byzantine system never globally stabilizes — so the
    run is a fixed horizon and the reported radius is the worst over
    the trailing ``confirm_rounds`` boundaries.
    """
    if rounds < 1:
        raise ModelError("containment measurement needs rounds >= 1")
    if not 1 <= confirm_rounds <= rounds:
        raise ModelError("confirm window must lie in [1, rounds]")
    adversary = PermanentFaultAdversary(strategy, faulty_nodes, rng=rng)
    tracker = ContainmentTracker(faulty_nodes)
    execution = create_execution(
        topology,
        algorithm,
        initial,
        scheduler,
        rng=rng,
        monitors=(tracker,),
        intervention=adversary,
        engine=engine,
    )
    execution.run(max_rounds=rounds)
    return ContainmentMeasurement(
        faulty_nodes=tracker.faulty_nodes,
        distances=tuple(int(d) for d in tracker.distances),
        rounds=tracker.rounds,
        confirm_rounds=confirm_rounds,
        stable_radius=tracker.stable_radius(confirm_rounds),
        radius_timeline=tuple(tracker.radius_timeline),
        last_unclean_round=tuple(int(r) for r in tracker.last_unclean_round),
    )

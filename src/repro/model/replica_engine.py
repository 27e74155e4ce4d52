"""The replica-batched ensemble execution engine.

The paper's headline numbers are *ensemble* statistics: every Thm 1.1
sweep and fault-recovery figure aggregates many independent runs of the
same (topology family, algorithm, scheduler) cell that differ only by
seed.  Running each replica as its own
:class:`~repro.model.array_engine.ArrayExecution` repays the full
python/numpy dispatch overhead per replica per step.
:class:`ReplicaBatchExecution` vectorizes *across replicas as well as
nodes*: it holds the code vectors of ``R`` independent replicas as one
flat array (an ``(R, n)`` code matrix when the replicas share ``n`` —
see :attr:`ReplicaBatchExecution.codes_matrix`), concatenates their CSR
neighborhoods into one block-diagonal adjacency, and advances every
live replica's activated lanes in a single fused Table 1 kernel pass
per ensemble step.

Per replica the engine keeps exactly the state the per-scenario path
keeps: its own scheduler instance, its own ``SeedSequence``-derived rng
stream (consumed only by the scheduler, in the same order as a solo
run — which is what makes batched results bit-identical to per-scenario
runs), its own :class:`~repro.model.rounds.RoundTracker`, and its own
incrementally folded goodness counts (the ``(faulty nodes, unprotected
ordered pairs)`` accounting of the PR 4 step pipeline, here held as
per-replica count *vectors* folded with one
:meth:`~repro.core.algau_vec.VectorKernel.pair_deltas` call per step).
A replica whose counts hit ``(0, 0)`` — the AlgAU stabilization
predicate — or whose round budget runs out is *retired*: its lanes drop
out of the fused pass, so late in a campaign the hot loop only pays for
the stragglers.

Two drive modes, never mixed:

* ``create_execution(engine="replica-batch")`` — the degenerate R = 1
  case: the class inherits the whole
  :class:`~repro.model.array_engine.ArrayExecution` contract
  (incremental pipeline, enabled view, pokes/masks/interventions,
  monitors), so a single scenario routed through this engine behaves
  exactly like the array backend;
* :meth:`ReplicaBatchExecution.from_replicas` — the ensemble case:
  ``R`` replica specs are fused and driven through
  :meth:`run_ensemble`, which implements the campaign measurement loop
  (``run(max_rounds=..., until=graph_is_good)``) for all replicas at
  once.  Per-step ``StepRecord`` streams are not materialized on this
  path (no per-node Turn tuples — that is a large part of the win);
  callers get per-replica :class:`ReplicaOutcome` rows instead.

Limitations of the ensemble path (enforced): the algorithm must expose
the vectorized backend (ThinUnison), schedulers must be oblivious
(``uses_enabled_view`` daemons need a per-replica enabled view the
fused pass does not maintain), and fault plans are out of scope —
faulted scenarios keep the per-scenario engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.graphs.csr import CSRAdjacency
from repro.graphs.topology import Topology
from repro.model.array_engine import ArrayExecution
from repro.model.configuration import Configuration
from repro.model.engine import StepRecord
from repro.model.errors import ModelError
from repro.model.rounds import RoundTracker
from repro.model.scheduler import Scheduler


class ReplicaSpec(NamedTuple):
    """One replica of an ensemble: its own topology (same family,
    possibly a different sample), start, scheduler instance and rng."""

    topology: Topology
    initial_configuration: Configuration
    scheduler: Scheduler
    rng: np.random.Generator


@dataclass(frozen=True)
class ReplicaOutcome:
    """The measured outcome of one replica — the same quantities the
    per-scenario AU pipeline reports for a fault-free scenario
    (`repro.campaigns.runner.run_scenario`), bit-identical to a solo
    run from the same seed."""

    index: int
    n: int
    m: int
    stabilized: bool
    #: Paper units: smallest ``i`` with a good graph by ``R(i)`` when
    #: stabilized, else the completed rounds at budget exhaustion.
    rounds: int
    steps: int
    #: Total work in moves — activations that changed a lane's state —
    #: folded per replica from the ensemble diff stream; bit-identical
    #: to a solo run's :attr:`~repro.model.engine.ExecutionBase.moves`
    #: (retired replicas stop being activated, so the count freezes at
    #: the stabilizing step exactly like a solo ``run(until=...)``).
    moves: int = 0


class _Replica:
    """Mutable per-replica bookkeeping of an ensemble run.

    Replicas run in one of two scheduling modes, decided at the start of
    the run:

    * **queue mode** — the scheduler exposes
      :meth:`~repro.model.scheduler.Scheduler.round_activation_order`:
      whole rounds are pre-drawn into the shared queue buffer, rounds
      complete exactly every ``n`` steps, and the fused loop gathers the
      replica's activation by array indexing (no per-step Python);
    * **call mode** — the generic per-step protocol: one
      ``scheduler.activations`` call per step and a
      :class:`~repro.model.rounds.RoundTracker` for the round operator.
    """

    __slots__ = (
        "index",
        "offset",
        "n",
        "m",
        "nodes",
        "scheduler",
        "rng",
        "tracker",
        "t",
        "all_rows",
        "done",
        "stabilized",
        "rounds",
        "completed",
        "round_start",
        "queue_mode",
    )

    def __init__(self, index: int, offset: int, spec: ReplicaSpec):
        self.index = index
        self.offset = offset
        self.n = spec.topology.n
        self.m = spec.topology.m
        self.nodes = spec.topology.nodes
        self.scheduler = spec.scheduler
        self.rng = spec.rng
        self.tracker = RoundTracker(self.nodes)
        self.t = 0
        self.all_rows = np.arange(offset, offset + self.n, dtype=np.int64)
        self.done = False
        self.stabilized = False
        self.rounds = 0
        # Queue-mode round bookkeeping (boundaries fall exactly at
        # multiples of n because one pre-drawn round covers every node
        # once; this is RoundTracker's arithmetic for such schedules).
        self.completed = 0
        self.round_start = 0
        self.queue_mode = False

    def finish(self, stabilized: bool, rounds: int) -> None:
        self.done = True
        self.stabilized = stabilized
        self.rounds = rounds

    def stabilization_round(self) -> int:
        """The paper's stabilization round of *now*, on the replica's
        own round clock."""
        return self.tracker.round_of_time(self.tracker.time)

    def queue_stabilization_round(self) -> int:
        at_boundary = self.t == self.round_start + self.n
        return self.completed + (0 if at_boundary else 1)

    def outcome(self, moves: int = 0) -> ReplicaOutcome:
        return ReplicaOutcome(
            index=self.index,
            n=self.n,
            m=self.m,
            stabilized=self.stabilized,
            rounds=self.rounds,
            steps=self.t,
            moves=moves,
        )


class ReplicaBatchExecution(ArrayExecution):
    """Ensemble-vectorized engine: R replicas, one fused kernel pass.

    Constructed through :func:`~repro.model.engine.create_execution`
    this is the R = 1 degenerate case and inherits the full array-engine
    contract.  Ensembles are built with :meth:`from_replicas` and driven
    with :meth:`run_ensemble`; the single-step API is disabled on them
    (the two drive modes must not interleave — the inherited pipeline
    state only tracks the primary replica).
    """

    def __init__(self, *args, **kwargs):
        self._ensemble: Optional[List[_Replica]] = None
        super().__init__(*args, **kwargs)

    # ------------------------------------------------------------------
    # Ensemble construction.
    # ------------------------------------------------------------------

    @classmethod
    def from_replicas(
        cls, algorithm, replicas: Sequence[ReplicaSpec]
    ) -> "ReplicaBatchExecution":
        """Fuse ``replicas`` (same algorithm, oblivious schedulers)
        into one batched execution."""
        specs = [ReplicaSpec(*spec) for spec in replicas]
        if not specs:
            raise ModelError("a replica batch needs at least one replica")
        for spec in specs:
            if spec.scheduler.uses_enabled_view:
                raise ModelError(
                    f"scheduler {spec.scheduler.name!r} needs the per-"
                    f"replica enabled view, which the fused ensemble pass "
                    f"does not maintain; run it through the per-scenario "
                    f"engines"
                )
        first = specs[0]
        self = cls(
            first.topology,
            algorithm,
            first.initial_configuration,
            first.scheduler,
            rng=first.rng,
        )
        self._build_ensemble(specs)
        return self

    def _build_ensemble(self, specs: Sequence[ReplicaSpec]) -> None:
        encoding = self._encoding
        reps: List[_Replica] = []
        code_parts: List[np.ndarray] = []
        indptr_parts: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
        index_parts: List[np.ndarray] = []
        offset = 0
        nnz = 0
        for i, spec in enumerate(specs):
            reps.append(_Replica(i, offset, spec))
            code_parts.append(
                encoding.encode_configuration(spec.initial_configuration)
            )
            csr = spec.topology.inclusive_csr()
            indptr_parts.append(csr.indptr[1:] + nnz)
            index_parts.append(csr.indices + offset)
            offset += spec.topology.n
            nnz += len(csr.indices)
        self._ensemble = reps
        # Per-replica topologies, kept for dynamic-topology deltas
        # (converted to DynamicTopology copy-on-first-mutate).
        self._replica_tops: List = [spec.topology for spec in specs]
        self._flat = np.concatenate(code_parts)
        self._block_csr = CSRAdjacency(
            np.concatenate(indptr_parts), np.concatenate(index_parts)
        )
        # Tombstone lanes (nodes that left): excluded from every fused
        # pass, mirroring the solo engines' permanent-fault masking.
        self._left_flat = np.zeros(offset, dtype=bool)
        for rep, spec in zip(reps, specs):
            for v in getattr(spec.topology, "left_nodes", ()):
                self._left_flat[rep.offset + v] = True
        self._rep_of_node = np.repeat(
            np.arange(len(reps), dtype=np.int64),
            np.fromiter((rep.n for rep in reps), dtype=np.int64, count=len(reps)),
        )
        self._in_diff_flat = np.zeros(offset, dtype=bool)
        self._new_code_flat = np.zeros(offset, dtype=np.int64)
        # Staging buffer for queue-mode scheduling: one slot per node
        # per replica (a pre-drawn round covers every node once).
        self._queue = np.zeros(offset, dtype=np.int64)
        # Per-replica goodness count vectors, seeded by one full scan
        # each and folded incrementally from every fused change set.
        self._faulty_counts = np.zeros(len(reps), dtype=np.int64)
        self._bad_counts = np.zeros(len(reps), dtype=np.int64)
        # Per-replica move totals, folded from the same diff stream as
        # the goodness counts (one bincount per step).
        self._move_counts = np.zeros(len(reps), dtype=np.int64)
        for rep, spec in zip(reps, specs):
            faulty, bad = self._goodness_counts(
                self._flat[rep.offset : rep.offset + rep.n],
                spec.topology.inclusive_csr(),
            )
            self._faulty_counts[rep.index] = faulty
            self._bad_counts[rep.index] = bad

    # ------------------------------------------------------------------
    # Ensemble state inspection.
    # ------------------------------------------------------------------

    @property
    def replica_count(self) -> int:
        return 1 if self._ensemble is None else len(self._ensemble)

    @property
    def codes_matrix(self) -> np.ndarray:
        """The ``(R, n)`` code matrix (read-only snapshot); defined when
        every replica has the same node count (the common campaign
        case — one graph family, one parameter point)."""
        if self._ensemble is None:
            return self.codes.reshape(1, -1)
        widths = {rep.n for rep in self._ensemble}
        if len(widths) != 1:
            raise ModelError(
                f"replicas have heterogeneous node counts {sorted(widths)}; "
                f"use replica_codes(i) instead"
            )
        snapshot = self._flat.reshape(len(self._ensemble), widths.pop()).copy()
        snapshot.flags.writeable = False
        return snapshot

    def replica_codes(self, index: int) -> np.ndarray:
        """A read-only snapshot of replica ``index``'s code vector."""
        if self._ensemble is None:
            if index != 0:
                raise ModelError(f"no replica {index} (single-replica engine)")
            return self.codes
        rep = self._ensemble[index]
        snapshot = self._flat[rep.offset : rep.offset + rep.n].copy()
        snapshot.flags.writeable = False
        return snapshot

    def replica_graph_is_good(self, index: int) -> bool:
        """The AlgAU stabilization predicate on replica ``index``,
        answered from the maintained per-replica counts."""
        if self._ensemble is None:
            if index != 0:
                raise ModelError(f"no replica {index} (single-replica engine)")
            return self.graph_is_good()
        return self._faulty_counts[index] == 0 and self._bad_counts[index] == 0

    # ------------------------------------------------------------------
    # Dynamic topology (ensemble path).
    # ------------------------------------------------------------------

    def _apply_topology_delta(self, delta):
        """Apply one :class:`~repro.graphs.dynamic.TopologyDelta` to
        *every* replica of the ensemble (replica-local node ids — the
        same delta stream a solo lane of the differential pair sees).

        Edge-only deltas keep every offset intact and splice the
        affected rows of the block-diagonal CSR in place; membership
        deltas (joins/leaves) shift the lane layout and rebuild the
        fused arrays by re-concatenation.  Must not be called while a
        :meth:`run_ensemble` drive is in flight (queued rounds would go
        stale)."""
        if self._ensemble is None:
            return super()._apply_topology_delta(delta)
        from repro.graphs.dynamic import DynamicTopology

        tops = self._replica_tops
        for i, top in enumerate(tops):
            if not isinstance(top, DynamicTopology):
                tops[i] = DynamicTopology(top)
        # Keep the base-class node bookkeeping (masking, round tracker)
        # anchored on the primary replica's mutable view.
        self.topology = tops[0]
        applieds = [top.apply_delta(delta) for top in tops]
        if delta.join or delta.leave:
            self._rebuild_ensemble_arrays(applieds)
        else:
            # Edge-only: offsets unchanged — patch the block CSR rows.
            changed = {}
            for rep, top, a in zip(self._ensemble, tops, applieds):
                for v in a.touched:
                    changed[rep.offset + v] = [
                        u + rep.offset for u in top.inclusive_neighbors(v)
                    ]
                rep.m = top.m
            self._ensure_mutable_block_csr().patch(changed)
        self._reseed_ensemble_goodness()
        return applieds[0]

    def _ensure_mutable_block_csr(self):
        from repro.graphs.dynamic import MutableCSR

        if not isinstance(self._block_csr, MutableCSR):
            self._block_csr = MutableCSR(
                self._block_csr.indptr, self._block_csr.indices
            )
        return self._block_csr

    def _rebuild_ensemble_arrays(self, applieds) -> None:
        """Re-concatenate the fused arrays after a membership delta:
        joined lanes are appended at each replica's end (shifting every
        later replica's offset), left lanes stay as tombstones."""
        from repro.graphs.dynamic import MutableCSR

        encode = self._encoding.encode
        rest = encode(self.algorithm.initial_state())
        reps = self._ensemble
        tops = self._replica_tops
        code_parts: List[np.ndarray] = []
        left_parts: List[np.ndarray] = []
        indptr_parts: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
        index_parts: List[np.ndarray] = []
        offset = 0
        nnz = 0
        for rep, top, a in zip(reps, tops, applieds):
            codes = np.zeros(top.n, dtype=np.int64)
            codes[: rep.n] = self._flat[rep.offset : rep.offset + rep.n]
            for v in a.left:
                codes[v] = rest
            for v, state in a.joined:
                codes[v] = encode(state)
            code_parts.append(codes)
            left = np.zeros(top.n, dtype=bool)
            for v in top.left_nodes:
                left[v] = True
            left_parts.append(left)
            csr = top.inclusive_csr()
            indptr_parts.append(np.asarray(csr.indptr[1:]) + nnz)
            index_parts.append(np.asarray(csr.indices) + offset)
            rep.offset = offset
            rep.n = top.n
            rep.m = top.m
            rep.nodes = top.nodes
            rep.all_rows = np.arange(offset, offset + top.n, dtype=np.int64)
            rep.tracker.add_nodes(v for v, _ in a.joined)
            offset += top.n
            nnz += len(csr.indices)
        self._flat = np.concatenate(code_parts)
        self._left_flat = np.concatenate(left_parts)
        self._block_csr = MutableCSR(
            np.concatenate(indptr_parts), np.concatenate(index_parts)
        )
        self._rep_of_node = np.repeat(
            np.arange(len(reps), dtype=np.int64),
            np.fromiter((rep.n for rep in reps), dtype=np.int64, count=len(reps)),
        )
        self._in_diff_flat = np.zeros(offset, dtype=bool)
        self._new_code_flat = np.zeros(offset, dtype=np.int64)
        self._queue = np.zeros(offset, dtype=np.int64)

    def _reseed_ensemble_goodness(self) -> None:
        """Full goodness rescan per replica after a structural delta —
        the same counts the solo array lane lazily recomputes."""
        for rep, top in zip(self._ensemble, self._replica_tops):
            faulty, bad = self._goodness_counts(
                self._flat[rep.offset : rep.offset + rep.n], top.inclusive_csr()
            )
            self._faulty_counts[rep.index] = faulty
            self._bad_counts[rep.index] = bad

    # ------------------------------------------------------------------
    # Drive-mode guard.
    # ------------------------------------------------------------------

    def step(self) -> StepRecord:
        if self._ensemble is not None:
            raise ModelError(
                "multi-replica batches are driven with run_ensemble(); "
                "the single-step API only exists on the R = 1 engine "
                "(create_execution(engine='replica-batch'))"
            )
        return super().step()

    def _bare_step(self) -> bool:
        # The record-free body behind advance() and run().
        if self._ensemble is not None:
            raise ModelError(
                "multi-replica batches are driven with run_ensemble(); "
                "the bulk-step API only exists on the R = 1 engine "
                "(create_execution(engine='replica-batch'))"
            )
        return super()._bare_step()

    # ------------------------------------------------------------------
    # The fused ensemble loop.
    # ------------------------------------------------------------------

    def run_ensemble(
        self, max_rounds: int, max_steps: Optional[int] = None
    ) -> List[ReplicaOutcome]:
        """Drive every replica to stabilization or budget exhaustion.

        Per replica this is exactly
        ``run(max_rounds=max_rounds, until=graph_is_good)`` followed by
        the campaign's stabilization-round measurement: the goodness
        predicate is pre-checked before the first step, the round budget
        is checked before each step, the predicate after each step.
        ``max_steps`` additionally caps the per-replica step count
        (benchmark harnesses); replicas stopped by it count as not
        stabilized.  Returns one :class:`ReplicaOutcome` per replica in
        construction order.
        """
        if self._ensemble is None:
            raise ModelError(
                "run_ensemble() needs a multi-replica batch; build one "
                "with ReplicaBatchExecution.from_replicas"
            )
        reps = self._ensemble
        for rep in reps:
            if not rep.done and self._replica_good(rep):
                rep.finish(stabilized=True, rounds=0)  # pre-satisfied

        # Mode split.  Queue-mode replicas pre-draw whole rounds into
        # the shared queue buffer (global row ids), so the fused loop
        # gathers their activations with one array index per step; the
        # first round is drawn here — the same point of the rng stream
        # at which a solo run's first activations() call would draw it.
        call_reps: List[_Replica] = []
        queue_reps: List[_Replica] = []
        for rep in reps:
            if rep.done:
                continue
            order = rep.scheduler.round_activation_order(rep.nodes, rep.rng)
            if order is None:
                call_reps.append(rep)
            else:
                rep.queue_mode = True
                self._load_round(rep, order, 0)
                queue_reps.append(rep)

        # Parallel arrays over the live queue-mode replicas: the global
        # fused-step activation of replica i is queue[q_base[i] + t],
        # and its current round is exhausted when t reaches q_pos[i].
        def queue_arrays():
            count = len(queue_reps)
            base = np.fromiter(
                (rep.offset - rep.round_start for rep in queue_reps),
                dtype=np.int64,
                count=count,
            )
            pos = np.fromiter(
                (rep.round_start + rep.n for rep in queue_reps),
                dtype=np.int64,
                count=count,
            )
            return base, pos

        q_base, q_pos = queue_arrays()
        # Tombstone lanes (membership churn) are scheduled like every
        # other node but dropped from the fused pass — the solo engines'
        # masking semantics (RoundTracker still observes them).
        left_flat = self._left_flat
        left_any = bool(left_flat.any())
        t = 0
        while call_reps or queue_reps:
            if max_steps is not None and t >= max_steps:
                for rep in call_reps:
                    rep.finish(stabilized=False, rounds=rep.tracker.completed_rounds)
                for rep in queue_reps:
                    rep.t = t
                    rep.finish(stabilized=False, rounds=rep.completed)
                break

            # --- queue mode: budget checks and refills at round starts
            # (amortized — once per n steps per replica), then one fused
            # gather for every replica's activated lane. ---
            if queue_reps and t:
                exhausted = np.nonzero(q_pos == t)[0]
                if exhausted.size:
                    retired = False
                    for i in exhausted:
                        rep = queue_reps[i]
                        if rep.completed >= max_rounds:
                            rep.t = t
                            rep.finish(stabilized=False, rounds=rep.completed)
                            retired = True
                            continue
                        self._load_round(
                            rep,
                            rep.scheduler.round_activation_order(rep.nodes, rep.rng),
                            t,
                        )
                        q_base[i] = rep.offset - t
                        q_pos[i] = t + rep.n
                    if retired:
                        queue_reps = [rep for rep in queue_reps if not rep.done]
                        q_base, q_pos = queue_arrays()

            parts: List[np.ndarray] = []
            if queue_reps:
                parts.append(self._queue[q_base + t])

            # --- call mode: the generic per-step scheduler protocol. ---
            stepped: List[tuple] = []
            if call_reps:
                survivors = []
                for rep in call_reps:
                    if rep.tracker.completed_rounds >= max_rounds:
                        rep.finish(
                            stabilized=False, rounds=rep.tracker.completed_rounds
                        )
                        continue
                    activated = rep.scheduler.activations(rep.t, rep.nodes, rep.rng)
                    if len(activated) == rep.n:
                        parts.append(rep.all_rows)
                    else:
                        rows = np.fromiter(
                            activated, dtype=np.int64, count=len(activated)
                        )
                        rows += rep.offset
                        parts.append(rows)
                    stepped.append((rep, activated))
                    survivors.append(rep)
                call_reps = survivors

            if not parts:
                break
            rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if left_any:
                rows = rows[~left_flat[rows]]
            changed_reps = self._ensemble_apply(rows) if rows.size else None
            t += 1

            # --- post-step bookkeeping: rounds first, then retirement.
            # Only replicas whose codes changed can newly satisfy the
            # predicate, so the check is O(changed replicas). ---
            for rep, activated in stepped:
                rep.tracker.observe(activated)
                rep.t = t
            if queue_reps:
                for i in np.nonzero(q_pos == t)[0]:
                    queue_reps[i].completed += 1
            if changed_reps is not None:
                faulty = self._faulty_counts
                bad = self._bad_counts
                retired = False
                for index in changed_reps:
                    rep = reps[index]
                    if rep.done or faulty[index] or bad[index]:
                        continue
                    if rep.queue_mode:
                        rep.t = t
                        rounds = rep.queue_stabilization_round()
                    else:
                        rounds = rep.stabilization_round()
                    rep.finish(stabilized=True, rounds=rounds)
                    retired = True
                if retired:
                    call_reps = [rep for rep in call_reps if not rep.done]
                    before = len(queue_reps)
                    queue_reps = [rep for rep in queue_reps if not rep.done]
                    if len(queue_reps) != before:
                        q_base, q_pos = queue_arrays()
        return [
            rep.outcome(moves=int(self._move_counts[rep.index])) for rep in reps
        ]

    def _load_round(self, rep: _Replica, order: Optional[np.ndarray], t: int) -> None:
        """Stage one pre-drawn round into the shared queue buffer as
        global row ids."""
        if order is None or len(order) != rep.n:
            raise ModelError(
                f"scheduler {rep.scheduler.name!r} returned an invalid "
                f"round_activation_order (need a permutation of the "
                f"{rep.n} nodes)"
            )
        self._queue[rep.offset : rep.offset + rep.n] = order
        self._queue[rep.offset : rep.offset + rep.n] += rep.offset
        rep.round_start = t

    def _replica_good(self, rep: _Replica) -> bool:
        return self._faulty_counts[rep.index] == 0 and self._bad_counts[rep.index] == 0

    def _ensemble_apply(self, rows: np.ndarray) -> Optional[np.ndarray]:
        """One fused step: evaluate δ for every activated lane of every
        live replica in a single batched kernel pass, write the moved
        lanes in place, and fold the per-replica goodness counts.
        Returns the indices of the replicas whose codes changed (the
        only candidates for retirement), or ``None`` when nothing
        moved."""
        codes = self._flat
        active = codes[rows]
        new = self._evaluate(codes, rows, self._block_csr)
        moved = new != active
        if not moved.any():
            return None
        diff = rows[moved]
        new_diff = new[moved]
        old_diff = active[moved]
        changed_reps = self._fold_goodness(diff, old_diff, new_diff)
        codes[diff] = new_diff
        return changed_reps

    def _fold_goodness(
        self, diff: np.ndarray, old_diff: np.ndarray, new_diff: np.ndarray
    ) -> np.ndarray:
        """Fold one fused change set into the per-replica ``(faulty,
        unprotected-pairs)`` count vectors — the replica-indexed variant
        of :meth:`ArrayExecution._update_goodness` (replica blocks are
        disjoint in the block CSR, so one shared
        :meth:`~repro.core.algau_vec.VectorKernel.pair_deltas` call
        covers every replica at once).  Must run before the codes are
        written.  Returns the sorted replica indices owning the change
        set."""
        k2 = self._kernel.num_clocks
        count = len(self._faulty_counts)
        owner = self._rep_of_node[diff]
        # Every diff lane is one move (a state-changing activation);
        # retired replicas are never activated, so their totals freeze
        # at the stabilizing step exactly like a solo run.
        self._move_counts += np.bincount(owner, minlength=count)
        faulty_delta = (new_diff >= k2).view(np.int8) - (old_diff >= k2).view(np.int8)
        if faulty_delta.any():
            self._faulty_counts += np.bincount(
                owner, weights=faulty_delta, minlength=count
            ).astype(np.int64)
        self._fold_pair_counts(diff, old_diff, new_diff, owner)
        return np.unique(owner)

    def _fold_pair_counts(
        self,
        diff: np.ndarray,
        old_diff: np.ndarray,
        new_diff: np.ndarray,
        owner: np.ndarray,
    ) -> None:
        """Fold the unprotected-pair deltas of one fused change set into
        ``self._bad_counts`` (``owner[i]`` is the replica of lane
        ``diff[i]``).  Reads pre-write codes; the native tier overrides
        it with a compiled owner-scattered fold."""
        _, counts, delta, col_changed = self._kernel.pair_deltas(
            self._flat,
            self._block_csr,
            diff,
            old_diff,
            new_diff,
            self._in_diff_flat,
            self._new_code_flat,
        )
        pair_owner = np.repeat(owner, counts)
        # Once per ordered pair whose row moved, plus the symmetric
        # reverse of pairs whose column did not move — weight 2 unless
        # the column itself moved (its own row iteration covers the
        # reverse), folded in one bincount.
        delta *= 2 - col_changed.view(np.int8)
        self._bad_counts += np.bincount(
            pair_owner, weights=delta, minlength=len(self._bad_counts)
        ).astype(np.int64)

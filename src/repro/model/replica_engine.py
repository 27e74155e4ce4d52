"""The replica-batched seed-ensemble runner.

The paper's headline numbers are *ensemble* statistics: every Thm 1.1
sweep and fault-recovery figure aggregates many independent runs of the
same (topology family, algorithm, scheduler) cell that differ only by
seed.  Running each replica as its own
:class:`~repro.model.array_engine.ArrayExecution` repays the full
python/numpy dispatch overhead per replica per step.
:class:`ReplicaBatchExecution` is the campaign runner's batching
strategy for fault-free seed ensembles: it holds the code vectors of
``R`` independent replicas as one flat array, concatenates their CSR
neighborhoods into one block-diagonal adjacency, and advances every
live replica's activated lanes in a single fused Table 1 kernel pass
per ensemble step.  δ and the goodness seed go through the array
tier's kernel seams (the kernel's packed-signal
:meth:`~repro.core.algau_vec.CodeKernel.delta_rows` and its goodness
scan), which the native tier reroutes to its compiled kernels.

Per replica the runner keeps exactly the state the per-scenario path
keeps: its own scheduler instance, its own ``SeedSequence``-derived rng
stream (consumed only by the scheduler, in the same order as a solo
run — which is what makes batched results bit-identical to per-scenario
runs), its own :class:`~repro.model.rounds.RoundTracker` (the one
implementation of the paper's rounds ``R(i)``), and its own
incrementally folded goodness counts (per-replica ``(faulty nodes,
unprotected ordered pairs)`` count *vectors* folded with one
:meth:`~repro.core.algau_vec.VectorKernel.pair_deltas` call per step).
A replica whose counts hit ``(0, 0)`` — the AlgAU stabilization
predicate — or whose round budget runs out is *retired*: its lanes drop
out of the fused pass, so late in a campaign the hot loop only pays for
the stragglers.

:meth:`ReplicaBatchExecution.from_replicas` fuses ``R`` replica specs
and :meth:`~ReplicaBatchExecution.run_ensemble` implements the campaign
measurement loop (``run(max_rounds=..., until=graph_is_good)``) for all
of them at once.  Per-step ``StepRecord`` streams are not materialized
(no per-node Turn tuples — that is a large part of the win); callers
get per-replica :class:`ReplicaOutcome` rows instead.  A single
scenario, ``engine="replica-batch"`` included, runs on
:class:`~repro.model.array_engine.ArrayExecution`.

Scope (enforced): the algorithm must expose the vectorized backend
(ThinUnison), schedulers must be oblivious (``uses_enabled_view``
daemons need a per-replica enabled view the fused pass does not
maintain), and topologies are static — fault plans and topology deltas
keep the per-scenario engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.graphs.csr import CSRAdjacency
from repro.graphs.topology import Topology
from repro.model.array_engine import supports_array_engine
from repro.model.configuration import Configuration
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
      whole rounds are pre-drawn into the shared queue buffer
      (:attr:`order` holds the current one) and the fused loop gathers
      the replica's activation by array indexing (no per-step Python);
      the tracker observes each round in one
      :meth:`~repro.model.rounds.RoundTracker.observe_sequence` call as
      it completes, and the partial round at retirement;
    * **call mode** — the generic per-step protocol: one
      ``scheduler.activations`` call and one tracker observation per
      step.

    Either way the tracker is the replica's clock: its ``time`` is the
    replica's step count and its rounds are the paper's.
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
        "all_rows",
        "order",
        "done",
        "stabilized",
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
        self.all_rows = np.arange(offset, offset + self.n, dtype=np.int64)
        self.order: Optional[np.ndarray] = None
        self.done = False
        self.stabilized = False

    def catch_up(self, t: int) -> None:
        """Let the tracker observe the queued steps of the current round
        up to ensemble step ``t`` (a no-op in call mode, whose tracker
        observes every step)."""
        pending = t - self.tracker.time
        if pending:
            self.tracker.observe_sequence(self.order[:pending])

    def retire(self, t: int, stabilized: bool) -> None:
        self.catch_up(t)
        self.done = True
        self.stabilized = stabilized

    def outcome(self, moves: int) -> ReplicaOutcome:
        tracker = self.tracker
        if self.stabilized:
            rounds = tracker.round_of_time(tracker.time)
        else:
            rounds = tracker.completed_rounds
        return ReplicaOutcome(
            index=self.index,
            n=self.n,
            m=self.m,
            stabilized=self.stabilized,
            rounds=rounds,
            steps=tracker.time,
            moves=moves,
        )


class ReplicaBatchExecution:
    """Seed-ensemble runner: R replicas, one fused kernel pass per step.

    Holds the algorithm's encoding and
    :class:`~repro.core.algau_vec.VectorKernel`; ensembles are built
    with :meth:`from_replicas` and driven with :meth:`run_ensemble`.
    """

    def __init__(self, algorithm):
        if not supports_array_engine(algorithm):
            raise ModelError(
                f"{algorithm.name} does not expose the vectorized backend "
                "(encoding/vector_kernel); replica ensembles "
                "need it"
            )
        self._encoding = algorithm.encoding
        self._kernel = algorithm.vector_kernel()

    # ------------------------------------------------------------------
    # Kernel seams (the native tier reroutes both).
    # ------------------------------------------------------------------

    def _evaluate(self, codes, rows, csr) -> np.ndarray:
        return self._kernel.delta_rows(codes, csr, rows)

    def _goodness_counts(self, codes, csr):
        return self._kernel.goodness_counts(codes, csr)

    # ------------------------------------------------------------------
    # Ensemble construction.
    # ------------------------------------------------------------------

    @classmethod
    def from_replicas(
        cls, algorithm, replicas: Sequence[ReplicaSpec]
    ) -> "ReplicaBatchExecution":
        """Fuse ``replicas`` (same algorithm, oblivious schedulers,
        static topologies) into one batched execution."""
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
            if getattr(spec.topology, "left_nodes", ()):
                raise ModelError(
                    "replica ensembles run static topologies; a topology "
                    "with departed nodes needs the per-scenario engines"
                )
        self = cls(algorithm)
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
        self._replicas = reps
        self._flat = np.concatenate(code_parts)
        self._block_csr = CSRAdjacency(
            np.concatenate(indptr_parts), np.concatenate(index_parts)
        )
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

    def replica_codes(self, index: int) -> np.ndarray:
        """A read-only snapshot of replica ``index``'s code vector."""
        rep = self._replicas[index]
        snapshot = self._flat[rep.offset : rep.offset + rep.n].copy()
        snapshot.flags.writeable = False
        return snapshot

    # ------------------------------------------------------------------
    # The fused ensemble loop.
    # ------------------------------------------------------------------

    def run_ensemble(self, max_rounds: int) -> List[ReplicaOutcome]:
        """Drive every replica to stabilization or budget exhaustion.

        Per replica this is exactly
        ``run(max_rounds=max_rounds, until=graph_is_good)`` followed by
        the campaign's stabilization-round measurement
        (``round_of_time`` on the replica's tracker): the goodness
        predicate is pre-checked before the first step, the round budget
        is checked before each step, the predicate after each step.
        Returns one :class:`ReplicaOutcome` per replica in construction
        order.
        """
        reps = self._replicas
        for rep in reps:
            if not rep.done and self._replica_good(rep):
                rep.retire(0, stabilized=True)  # pre-satisfied

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
                self._load_round(rep, order)
                queue_reps.append(rep)

        # Parallel arrays over the live queue-mode replicas: the global
        # fused-step activation of replica i is queue[q_base[i] + t],
        # and its current round is exhausted when t reaches q_pos[i].
        # A live replica's tracker stands at its current round's start.
        def queue_arrays():
            count = len(queue_reps)
            base = np.fromiter(
                (rep.offset - rep.tracker.time for rep in queue_reps),
                dtype=np.int64,
                count=count,
            )
            pos = np.fromiter(
                (rep.tracker.time + rep.n for rep in queue_reps),
                dtype=np.int64,
                count=count,
            )
            return base, pos

        q_base, q_pos = queue_arrays()
        t = 0
        while call_reps or queue_reps:
            # --- queue mode: round completion, budget checks and
            # refills at round ends (amortized — once per n steps per
            # replica), then one fused gather for every replica's
            # activated lane. ---
            if queue_reps and t:
                exhausted = np.nonzero(q_pos == t)[0]
                if exhausted.size:
                    retired = False
                    for i in exhausted:
                        rep = queue_reps[i]
                        rep.catch_up(t)  # the whole round, in O(1)
                        if rep.tracker.completed_rounds >= max_rounds:
                            rep.retire(t, stabilized=False)
                            retired = True
                            continue
                        self._load_round(
                            rep,
                            rep.scheduler.round_activation_order(rep.nodes, rep.rng),
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
                        rep.retire(t, stabilized=False)
                        continue
                    activated = rep.scheduler.activations(t, rep.nodes, rep.rng)
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
            changed_reps = self._ensemble_apply(rows) if rows.size else None
            t += 1

            # --- post-step bookkeeping: rounds first, then retirement.
            # Only replicas whose codes changed can newly satisfy the
            # predicate, so the check is O(changed replicas). ---
            for rep, activated in stepped:
                rep.tracker.observe(activated)
            if changed_reps is not None:
                faulty = self._faulty_counts
                bad = self._bad_counts
                retired = False
                for index in changed_reps:
                    rep = reps[index]
                    if rep.done or faulty[index] or bad[index]:
                        continue
                    rep.retire(t, stabilized=True)
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

    def _load_round(self, rep: _Replica, order: Optional[np.ndarray]) -> None:
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
        rep.order = order

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
        unprotected-pairs)`` count vectors (replica blocks are
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

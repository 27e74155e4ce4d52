"""The array-backed vectorized execution engine.

:class:`ArrayExecution` is the scale backend of the simulator: it keeps
the configuration as a dense integer code vector (see
:mod:`repro.core.encoding`), packs activated nodes' signals into
``⌈|Q|/64⌉`` bit words per node, OR-reduced over the topology's CSR
neighborhoods (:mod:`repro.graphs.csr`), and applies the code-level
Table 1 of :mod:`repro.core.algau_vec` one word at a time — turning one
step into a handful of numpy passes instead of ``|A_t|`` Python-level
transition evaluations.

On top of the batched kernel the engine runs the incremental step
pipeline of :class:`~repro.model.engine.ExecutionBase`: a pending-code
vector guarded by a dirty mask.  A step only pays kernel work for the
``activated ∩ dirty`` lane subset; clean activated lanes replay their
cached pending code, and a state change re-dirties exactly its CSR
neighborhood.  Tiny activation sets (round-robin and friends)
additionally take a scalar fast path (:meth:`CodeKernel.delta_one`)
that bypasses numpy dispatch entirely, which is what makes sparse
schedules scale with *activity* instead of ``n``.  The engine also
keeps a :class:`~repro.model.goodness.GoodnessLedger`: a step or poke
of up to :attr:`ArrayExecution.SCALAR_ACTIVATION_MAX` movers folds into
it move by move, a larger one drops its counts for one recount at the
next query, so polling the AlgAU stabilization predicate never rescans
after a sparse step.  ``run(until=graph_is_good)`` hands each round of
a round-order daemon to one sequence-kernel call
(:meth:`VectorKernel.run_sequence`).
``incremental=False`` restores the naive full-recompute reference
(bit-identical trajectories; the differential suite compares the two).

The engine implements the exact contract of
:class:`~repro.model.engine.ExecutionBase`:

* identical ``StepRecord`` streams (activation sets, change tuples with
  real :class:`~repro.core.turns.Turn` objects, round completion flags)
  for the same seeds — verified step for step by the differential test
  suite; a record keeps its step's moved rows and codes and decodes
  the Turn tuples only when ``changed`` is read;
* monitors and interventions see a real
  :class:`~repro.model.configuration.Configuration` via the
  :attr:`configuration` property, which is decoded lazily and cached
  until the codes change, so monitor-free runs never materialize Turn
  objects;
* any scheduler works: the activation set is translated to an index
  array, and sparse activations take a fast path that only gathers the
  activated rows' neighborhoods.

Requirements: the algorithm must expose the vectorized backend
(``encoding`` and a ``vector_kernel()`` with the
:class:`~repro.core.algau_vec.CodeKernel` δ entries) and be
deterministic — currently :class:`~repro.core.algau.ThinUnison` (both
the paper's variant and the ``cautious_af=False`` ablation) and
:class:`~repro.baselines.reset_tail_unison.ResetTailUnison`.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import FrozenSet, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.graphs.dynamic import DynamicTopology
from repro.graphs.topology import Topology
from repro.model.algorithm import Algorithm
from repro.model.configuration import Configuration
from repro.model.engine import Changes, ExecutionBase, Intervention, Monitor
from repro.model.engine import RunResult, graph_is_good
from repro.model.errors import ModelError
from repro.model.goodness import GoodnessLedger
from repro.model.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids
    # the repro.core <-> repro.model import cycle at package init)
    from repro.core.turns import Turn


_EMPTY_ROWS = np.empty(0, dtype=np.int64)


def _decode_changes(
    table: Sequence[Turn], rows, old_codes, new_codes
) -> Tuple[Tuple[int, Turn, Turn], ...]:
    """The ``(node, old, new)`` Turn tuples of one step, from its moved
    rows and their old and new codes (numpy arrays or lists, in row
    order).  A :class:`~repro.model.engine.StepRecord` calls this on its
    first read of ``changed``; the arrays are the step's own copies, so
    later steps' in-place writes to the code vector cannot reach them."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
        old_codes = old_codes.tolist()
        new_codes = new_codes.tolist()
    return tuple(
        (v, table[old], table[new]) for v, old, new in zip(rows, old_codes, new_codes)
    )


def supports_array_engine(algorithm: Algorithm) -> bool:
    """Whether ``algorithm`` exposes the vectorized backend."""
    return hasattr(algorithm, "encoding") and hasattr(algorithm, "vector_kernel")


class ArrayExecution(ExecutionBase["Turn"]):
    """Vectorized engine: dense codes + CSR signals + batched δ."""

    #: At most this many activated nodes, the incremental pipeline
    #: evaluates δ scalar-by-scalar (no numpy dispatch at all) — the
    #: round-robin/rotating regime.
    SCALAR_ACTIVATION_MAX = 4

    #: The native tier's compiled kernel (``None``: numpy kernels only).
    _native = None

    def __init__(
        self,
        topology: Topology,
        algorithm: Algorithm,
        initial_configuration: Configuration,
        scheduler: Scheduler,
        rng: Optional[np.random.Generator] = None,
        monitors: Tuple[Monitor, ...] = (),
        intervention: Optional[Intervention] = None,
        incremental: bool = True,
    ):
        if not supports_array_engine(algorithm):
            raise ModelError(
                f"{algorithm.name} does not expose the vectorized backend "
                "(encoding/vector_kernel); use the object engine"
            )
        self._encoding = algorithm.encoding
        self._kernel = algorithm.vector_kernel()
        self._csr = topology.inclusive_csr()
        super().__init__(
            topology,
            algorithm,
            initial_configuration,
            scheduler,
            rng=rng,
            monitors=monitors,
            intervention=intervention,
            incremental=incremental,
        )

    # ------------------------------------------------------------------
    # Engine hooks.
    # ------------------------------------------------------------------

    def _load_configuration(self, configuration: Configuration) -> None:
        self._codes = self._encoding.encode_configuration(configuration)
        self._config_cache: Optional[Configuration] = configuration
        n = len(self._codes)
        # Incremental-pipeline state: everything dirty, nothing cached.
        self._dirty = np.ones(n, dtype=bool)
        self._dirty_count = n
        self._pending = self._codes.copy()
        self._enabled_mask = np.zeros(n, dtype=bool)
        self._enabled_count = 0
        self._ledger = GoodnessLedger(self._native or self._kernel)  # counted lazily

    @property
    def configuration(self) -> Configuration:
        """The current configuration, decoded lazily and cached until
        the next state change."""
        if self._config_cache is None:
            self._config_cache = self._encoding.decode_configuration(
                self.topology, self._codes
            )
        return self._config_cache

    def state_of(self, v: int) -> Turn:
        return self._encoding.turn_table[int(self._codes[v])]

    @property
    def codes(self) -> np.ndarray:
        """A read-only snapshot of the current code vector.

        The engine mutates its internal array in place, so the returned
        copy is *not* updated by subsequent steps — re-read the property
        to observe new state."""
        snapshot = self._codes.copy()
        snapshot.flags.writeable = False
        return snapshot

    def poke_states(self, updates) -> None:
        """Encode ``updates`` and write them through :meth:`poke_codes`."""
        encode = self._encoding.encode
        self.poke_codes(list(updates), [encode(state) for state in updates.values()])

    def poke_codes(self, rows, codes) -> None:
        """Sparse code-lane writes without decoding the configuration.

        Only the moved lanes are written and only their neighborhoods
        re-dirtied.  Up to :attr:`SCALAR_ACTIVATION_MAX` moved lanes take
        the per-move goodness fold and per-row re-dirtying of
        :meth:`_write_scalar`; more drop the goodness counts for a
        recount at the next query and re-dirty in one gather.
        """
        current = self._codes
        n = len(current)
        size = self._encoding.size
        moved, new_codes = [], []
        for v, code in zip(rows, codes):
            v, code = int(v), int(code)
            if not 0 <= v < n:
                raise ModelError(f"cannot poke unknown node {v}")
            if not 0 <= code < size:
                raise ModelError(f"code {code} out of range for |Q|={size}")
            if int(current[v]) != code:
                moved.append(v)
                new_codes.append(code)
        if not moved:
            return
        self._state_epoch += 1
        if len(moved) <= self.SCALAR_ACTIVATION_MAX:
            self._write_scalar(moved, new_codes)
            return
        moved_rows = np.array(moved, dtype=np.int64)
        self._ledger.counts = None
        current[moved_rows] = new_codes
        self._config_cache = None
        self._mark_dirty_rows(moved_rows)

    def _apply(self, activated: FrozenSet[int]) -> Changes:
        if not self.incremental:
            return self._apply_naive(activated)
        codes = self._codes
        n = len(codes)
        count = len(activated)
        if count <= self.SCALAR_ACTIVATION_MAX and count < n:
            return self._apply_scalar(activated)

        dirty = self._dirty
        if count == n:
            # Full activation: the stale set is exactly the dirty set,
            # so the dense-step decision needs no index materialization.
            if 2 * self._dirty_count >= count:
                return self._apply_dense(None)
            rows = None
            stale = np.nonzero(dirty)[0] if self._dirty_count else _EMPTY_ROWS
        else:
            rows = np.fromiter(activated, dtype=np.int64, count=count)
            rows.sort()
            stale = rows[dirty[rows]] if self._dirty_count else _EMPTY_ROWS
            if 4 * count >= n and 2 * stale.size >= count:
                # Dense step over a mostly-dirty activation: the cache
                # cannot save kernel work, so skip its maintenance too
                # and invalidate wholesale — the naive cost, never more.
                return self._apply_dense(rows)
        if stale.size:
            self._refresh_rows(stale)

        pending = self._pending
        if rows is None:
            diff = np.nonzero(pending != codes)[0]
            new_diff = pending[diff]
        else:
            new_active = pending[rows]
            moved = new_active != codes[rows]
            diff = rows[moved]
            new_diff = new_active[moved]
        if diff.size == 0:
            return ()
        changed = self._commit(diff, new_diff)
        self._mark_dirty_rows(diff)
        return changed

    def _records_unused(self) -> bool:
        """Whether nothing consumes per-step records: no monitors, no
        intervention, no mask and a scheduler that is not
        enabled-aware.  Only then may :meth:`advance` and
        :meth:`run` skip the per-step :meth:`step` protocol."""
        return not (
            self.monitors
            or self.intervention is not None
            or self._masked
            or self.scheduler.uses_enabled_view
        )

    @contextmanager
    def _without_records(self):
        """Let ``_apply`` skip the per-change Turn tuples for the
        duration (state updates are unaffected)."""
        self._record_changes = False
        try:
            yield
        finally:
            self._record_changes = True

    def _bare_step(self) -> bool:
        """One step of the record-free body shared by :meth:`advance`
        and :meth:`run`: the same scheduler draw, ``_apply`` pipeline
        and round bookkeeping as :meth:`step`, minus the
        ``StepRecord``.  Returns whether the step completed a round."""
        activated = self.scheduler.activations(
            self._t - self._sched_t0, self.topology.nodes, self.rng
        )
        if activated:
            self._apply(activated)
        self._t += 1
        return self._rounds.observe(activated)

    def advance(self, steps: int) -> None:
        """Record-free bulk stepping (see :meth:`ExecutionBase.advance`).

        The fast path drops everything a discarded ``StepRecord`` would
        have carried — the per-change Turn tuples, the activation
        frozenset copy, the enabled stamp — while running the *same*
        ``_apply`` pipeline on the same scheduler draws, so state
        trajectories stay bit-identical to ``steps`` :meth:`step` calls.
        Anything that needs the per-step protocol (monitors,
        interventions, masks, enabled-aware daemons, enabled tracking)
        falls back to the generic loop.
        """
        if not self._records_unused():
            super().advance(steps)
            return
        self._notify_start()
        with self._without_records():
            for _ in range(steps):
                self._bare_step()

    def _run_loop(self, max_steps, max_rounds, until, check_until_each_step):
        """Record-free :meth:`run` under the same conditions as
        :meth:`advance`'s fast path: identical budgets and ``until``
        polling, with :meth:`_bare_step` in place of :meth:`step` — or
        :meth:`_run_rounds` when ``until`` *is* :func:`graph_is_good`."""
        if not self._records_unused():
            return super()._run_loop(max_steps, max_rounds, until, check_until_each_step)
        with self._without_records():
            if until is graph_is_good and check_until_each_step and self.incremental:
                return self._run_rounds(max_steps, max_rounds)
            return self._drive(
                self._bare_step, max_steps, max_rounds, until, check_until_each_step
            )

    def _run_rounds(self, max_steps, max_rounds) -> RunResult:
        """The round loop: stops on exactly the step, with exactly the
        rounds, state and rng stream, of the per-step loop.

        Rounds complete only at round ends, so the budgets are checked
        once per round; each order is capped at the steps left.  A run
        that finds itself mid-round (resumed after a mid-round stop)
        steps to the boundary first, and a mid-round stop hands the
        unapplied tail back to the scheduler.
        """
        rounds = self._rounds
        nodes = self.topology.nodes
        scheduler = self.scheduler
        steps = 0
        while True:
            if not rounds.at_boundary:
                cap = rounds.completed_rounds + 1
                if max_rounds is not None:
                    cap = min(cap, max_rounds)
                result = self._drive(
                    self._bare_step, max_steps, cap, graph_is_good, True, steps
                )
                if result.reason != "max_rounds" or cap == max_rounds:
                    return result
                steps = result.steps
                continue
            if max_steps is not None and steps >= max_steps:
                return RunResult(steps, rounds.completed_rounds, False, "max_steps")
            if max_rounds is not None and rounds.completed_rounds >= max_rounds:
                return RunResult(steps, rounds.completed_rounds, False, "max_rounds")
            order = scheduler.round_activation_order(nodes, self.rng)
            if order is None:
                return self._drive(
                    self._bare_step, max_steps, max_rounds, graph_is_good, True, steps
                )
            capped = order if max_steps is None else order[: max_steps - steps]
            applied = self._run_sequence(capped)
            rounds.observe_sequence(order[:applied])
            self._t += applied
            steps += applied
            if applied < len(order):
                scheduler.hand_back(order[applied:])
            if self._ledger.good:
                return RunResult(steps, rounds.completed_rounds, True, "predicate")

    def _run_sequence(self, order: np.ndarray) -> int:
        """Apply ``order`` through the :meth:`_sequence` seam and fold
        its effect into the engine: goodness counts, moves, and one
        wholesale invalidation of the pending cache."""
        ledger = self._ledger
        counts = np.array([*ledger.counts, 0], dtype=np.int64)
        applied = self._sequence(self._codes, self._csr, order, counts)
        ledger.counts = (int(counts[0]), int(counts[1]))
        if counts[2]:
            self._moves += int(counts[2])
            self._config_cache = None
            self._invalidate_all()
        return applied

    def _sequence(self, codes: np.ndarray, csr, order: np.ndarray, counts) -> int:
        """The kernel seam of :meth:`_run_sequence`
        (:meth:`~repro.core.algau_vec.VectorKernel.run_sequence`); the
        native tier overrides it with the compiled kernel."""
        return self._kernel.run_sequence(codes, csr, order, counts)

    def _commit(self, diff: np.ndarray, new_diff: np.ndarray) -> Changes:
        """Apply the moved lanes: capture the change record (decoded
        only if read), write them in place and drop the
        decoded-configuration cache.  Up to :attr:`SCALAR_ACTIVATION_MAX`
        moves fold into the goodness ledger one by one; a larger change
        set drops its counts, and the next query recounts them.  Callers
        handle their own dirty-set bookkeeping."""
        codes = self._codes
        if self._record_changes:
            table = self._encoding.turn_table
            changed = partial(_decode_changes, table, diff, codes[diff], new_diff)
        else:
            changed = ()
        if diff.size <= self.SCALAR_ACTIVATION_MAX:
            self._write_moves(diff.tolist(), new_diff.tolist())
        else:
            self._ledger.counts = None
            codes[diff] = new_diff
        self._moves += diff.size
        self._config_cache = None
        return changed

    def _evaluate(
        self, codes: np.ndarray, rows: Optional[np.ndarray], csr
    ) -> np.ndarray:
        """δ for the ``rows`` lanes of ``codes`` (all lanes when
        ``None``), returned in row order.

        This is the batched-δ kernel seam of the array tier: every batched
        evaluation — dense steps, stale-lane refreshes, the naive
        reference — funnels through it, and the replica ensemble's fused
        pass uses the same seam.  The base implementation is the
        kernel's packed-signal :meth:`~repro.core.algau_vec.CodeKernel.delta_rows`;
        the native tier overrides it with a compiled CSR-walking kernel.
        """
        return self._kernel.delta_rows(codes, csr, rows)

    def _apply_dense(self, rows: Optional[np.ndarray]) -> Changes:
        """Dense-activation step: batch-recompute the activated lanes
        like the naive reference (writes in place) and wholesale-dirty
        the pipeline afterwards."""
        codes = self._codes
        if rows is None:
            new_active = self._evaluate(codes, None, self._csr)
            diff = np.nonzero(new_active != codes)[0]
            new_diff = new_active[diff]
        else:
            new_active = self._evaluate(codes, rows, self._csr)
            moved = new_active != codes[rows]
            diff = rows[moved]
            new_diff = new_active[moved]
        if diff.size == 0:
            return ()
        changed = self._commit(diff, new_diff)
        self._invalidate_all()
        return changed

    def _invalidate_all(self) -> None:
        """Wholesale cache invalidation: every lane dirty, no enabled
        flags (the invariant ``dirty ⇒ enabled flag False`` that
        :meth:`_refresh_rows` relies on)."""
        self._dirty[:] = True
        self._dirty_count = len(self._dirty)
        self._enabled_mask[:] = False
        self._enabled_count = 0

    # ------------------------------------------------------------------
    # The scalar fast path (|A_t| tiny — round-robin and friends).
    # ------------------------------------------------------------------

    def _apply_scalar(self, activated: FrozenSet[int]) -> Changes:
        codes = self._codes
        dirty = self._dirty
        pending = self._pending
        hoods = self._csr.neighbor_lists()
        kernel = self._kernel
        verts = sorted(activated)
        for v in verts:
            if dirty[v]:
                new = kernel.delta_one(codes, hoods[v])
                pending[v] = new
                dirty[v] = False
                self._dirty_count -= 1
                if new != codes[v]:
                    self._enabled_mask[v] = True
                    self._enabled_count += 1
        moved = [v for v in verts if pending[v] != codes[v]]
        if not moved:
            return ()
        old_codes = [int(codes[v]) for v in moved]
        new_codes = [int(pending[v]) for v in moved]
        if self._record_changes:
            table = self._encoding.turn_table
            changed = partial(_decode_changes, table, moved, old_codes, new_codes)
        else:
            changed = ()
        self._moves += len(moved)
        self._write_scalar(moved, new_codes)
        return changed

    def _write_moves(self, moved, new_codes) -> None:
        """Write a few moved lanes one by one, folding each move into
        the goodness ledger (while it counts) just before its write."""
        codes = self._codes
        ledger = self._ledger
        hoods = None if ledger.counts is None else self._csr.neighbor_lists()
        for v, code in zip(moved, new_codes):
            if hoods is not None:
                neighbors = (codes.item(u) for u in hoods[v] if u != v)
                ledger.move(codes.item(v), code, neighbors)
            codes[v] = code

    def _write_scalar(self, moved, new_codes) -> None:
        """:meth:`_write_moves`, then re-dirty each one's CSR neighborhood
        (the scalar counterpart of :meth:`_mark_dirty_rows`)."""
        self._write_moves(moved, new_codes)
        dirty = self._dirty
        enabled_mask = self._enabled_mask
        neighborhood = self._csr.neighborhood
        for v in moved:
            hood = neighborhood(v)
            newly = hood[~dirty[hood]]
            if newly.size:
                self._enabled_count -= int(enabled_mask[newly].sum())
                self._dirty_count += newly.size
                enabled_mask[newly] = False
                dirty[newly] = True
        self._config_cache = None

    # ------------------------------------------------------------------
    # Dynamic topology.
    # ------------------------------------------------------------------

    def _ensure_dynamic_topology(self):
        """Convert the shared frozen topology into a private
        :class:`~repro.graphs.dynamic.DynamicTopology` (and its
        :class:`~repro.graphs.dynamic.MutableCSR`) on first mutation.
        Copy-on-first-mutate matters: the construction-time CSR is
        cached on the topology and shared across executions
        (differential pairs), so it must never be patched in place."""
        top = self.topology
        if not isinstance(top, DynamicTopology):
            top = DynamicTopology(top)
            self.topology = top
            self._csr = top.inclusive_csr()
        return top

    def _apply_topology_delta(self, delta):
        dyn = self._ensure_dynamic_topology()
        old_n = len(self._codes)
        applied = dyn.apply(delta)  # patches or adopts into self._csr in place
        n = dyn.n
        if n > old_n:
            grow = n - old_n
            self._codes = np.concatenate(
                [self._codes, np.zeros(grow, dtype=np.int64)]
            )
            self._pending = np.concatenate(
                [self._pending, np.zeros(grow, dtype=np.int64)]
            )
            self._dirty = np.concatenate([self._dirty, np.zeros(grow, dtype=bool)])
            self._enabled_mask = np.concatenate(
                [self._enabled_mask, np.zeros(grow, dtype=bool)]
            )
        encode = self._encoding.encode
        codes = self._codes
        left_codes = [codes.item(v) for v in applied.left]
        if applied.left:
            rest = encode(self.algorithm.initial_state())
            for v in applied.left:
                codes[v] = rest
                self._pending[v] = rest
        for v, state in applied.joined:
            code = encode(state)
            codes[v] = code
            self._pending[v] = code
        self._ledger.fold_delta(applied, codes.item, left_codes)
        # Fold the delta into the dirty set: exactly the rows whose
        # inclusive neighborhood (or state) changed — no wholesale
        # invalidation.
        if applied.affected.size:
            self._dirty_exact_rows(applied.affected)
        self._config_cache = None
        return applied

    def _dirty_exact_rows(self, rows: np.ndarray) -> None:
        """Dirty exactly ``rows`` (no neighborhood gather): the
        structural-delta variant of :meth:`_mark_dirty_rows` — the delta
        already names every row whose signal changed."""
        dirty = self._dirty
        newly = rows[~dirty[rows]]
        if newly.size:
            self._enabled_count -= int(self._enabled_mask[newly].sum())
            self._enabled_mask[newly] = False
            self._dirty_count += newly.size
            dirty[newly] = True

    # ------------------------------------------------------------------
    # Dirty-set maintenance.
    # ------------------------------------------------------------------

    def _refresh_rows(self, stale: np.ndarray) -> None:
        """Re-evaluate δ for the (sorted) ``stale`` lanes."""
        codes = self._codes
        new = self._evaluate(codes, stale, self._csr)
        self._pending[stale] = new
        self._dirty[stale] = False
        self._dirty_count -= stale.size
        now_enabled = new != codes[stale]
        # Dirty lanes always carry a False enabled flag (the dirty-mark
        # step cleared it), so the count moves by exactly the new trues.
        self._enabled_mask[stale] = now_enabled
        self._enabled_count += int(now_enabled.sum())

    def _mark_dirty_rows(self, moved: np.ndarray) -> None:
        """Re-dirty the CSR neighborhoods of the moved lanes.

        Dense change sets (synchronous-style steps) skip the per-lane
        gather: wholesale invalidation is a memset, and the next step
        re-evaluates everything anyway — exactly the naive cost, so the
        pipeline never loses to the reference on dense schedules."""
        n = len(self._dirty)
        if 4 * moved.size >= n:
            self._invalidate_all()
            return
        hood, _ = self._csr.gather(moved)
        self._dirty_exact_rows(np.unique(hood))

    def _refresh_pending(self) -> None:
        if not self.incremental:
            # Naive reference: recompute the whole pending vector.
            self._pending = self._evaluate(self._codes, None, self._csr)
            self._enabled_mask = self._pending != self._codes
            self._enabled_count = int(self._enabled_mask.sum())
            self._dirty[:] = False
            self._dirty_count = 0
            return
        if self._dirty_count:
            self._refresh_rows(np.nonzero(self._dirty)[0])

    def _enabled_snapshot(self) -> FrozenSet[int]:
        # Materializing the set costs one vectorized mask scan plus
        # O(enabled) set construction; the count-based API
        # (enabled_count / is_quiescent) stays O(dirty) amortized.
        if not self._enabled_count:
            return frozenset()
        return frozenset(np.nonzero(self._enabled_mask)[0].tolist())

    def enabled_count(self) -> int:
        """O(dirty)-amortized enabled count (no set materialization)."""
        self._refresh_pending()
        count = self._enabled_count
        if self._masked:
            masked = np.fromiter(self._masked, dtype=np.int64, count=len(self._masked))
            count -= int(self._enabled_mask[masked].sum())
        return count

    # ------------------------------------------------------------------
    # The naive full-recompute reference (pre-pipeline behavior).
    # ------------------------------------------------------------------

    def _apply_naive(self, activated: FrozenSet[int]) -> Changes:
        # A dense step over the activated rows; the wholesale
        # invalidation keeps the enabled bookkeeping conservative.
        if len(activated) == len(self._codes):
            return self._apply_dense(None)
        rows = np.fromiter(activated, dtype=np.int64, count=len(activated))
        rows.sort()
        return self._apply_dense(rows)

    # ------------------------------------------------------------------
    # Vectorized analysis fast paths.
    # ------------------------------------------------------------------

    def graph_is_good(self) -> bool:
        """Vectorized stabilization predicate: equivalent to
        ``is_good_graph(algorithm, execution.configuration)`` without
        decoding the configuration — and, on the incremental pipeline,
        answered from the goodness ledger: in O(1) while it counts, by
        one recount after a change set of more than
        :attr:`SCALAR_ACTIVATION_MAX` moves."""
        if not hasattr(self._kernel, "goodness_counts"):
            # Non-AlgAU kernels (e.g. the reset-tail lane) carry no
            # goodness machinery; defer to the base, whose clear
            # ModelError points at the algorithm's own predicate.
            return super().graph_is_good()
        if not self.incremental:
            return self._kernel.is_good(self._codes, self._csr)
        ledger = self._ledger
        if ledger.counts is None:
            ledger.recount(self._codes, self._csr)
        return ledger.good

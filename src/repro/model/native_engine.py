"""The compiled-kernel execution tier (``engine="native"``).

:class:`NativeExecution` is :class:`~repro.model.array_engine.ArrayExecution`
with its three kernel seams rerouted to the compiled CSR-walking kernels
of :mod:`repro.core.algau_native`:

* :meth:`~repro.model.array_engine.ArrayExecution._evaluate` — batched δ
  without the ``(rows, |Q|)`` presence matrix (O(n + m) memory);
* :meth:`~repro.model.array_engine.ArrayExecution._pair_fold` /
  :meth:`~repro.model.replica_engine.ReplicaBatchExecution._fold_pair_counts`
  — the incremental goodness folds;
* :meth:`~repro.model.array_engine.ArrayExecution._goodness_counts` —
  the full-scan seed.

Everything else — the dirty-set pipeline, schedulers, monitors, masks,
pokes, the enabled view — is inherited unchanged, so trajectories are
bit-identical to the array engine (the differential suite checks this
across graph × scheduler × fault combinations).
:class:`NativeReplicaBatchExecution` applies the same reroute to the
block-diagonal CSR of the replica-batched ensemble runner, so Monte
Carlo campaigns ride the compiled tier through the same seams.

On top of the seams, :meth:`NativeExecution.run` hands whole rounds of
a round-order daemon to the compiled ``run_sequence`` kernel when the
stop predicate is the shared :func:`~repro.model.engine.graph_is_good`
and nothing consumes per-step records; it stops on exactly the step,
with exactly the rounds, moves and rng stream, of the per-step loop.

Backend availability is resolved once per process by
:func:`repro.core.algau_native.native_backend` (numba if installed,
else a lazily ``cc``-compiled C library); when neither exists,
:func:`native_execution_class` warns and falls back to the numpy tier,
so ``engine="native"`` degrades gracefully instead of failing.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.algau_native import NativeKernel, native_backend
from repro.model.array_engine import ArrayExecution
from repro.model.engine import RunResult, graph_is_good
from repro.model.replica_engine import ReplicaBatchExecution


class _NativeKernelMixin:
    """Reroutes the array-tier kernel seams to a :class:`NativeKernel`.

    Must precede the engine (or ensemble runner) base class in the MRO;
    the base ``__init__`` builds the numpy :class:`VectorKernel` first
    (its lookup tables are the source the native tables are extracted
    from), then this mixin wraps it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._native = NativeKernel(self._kernel)

    def _evaluate(self, codes, rows, csr) -> np.ndarray:
        return self._native.delta_rows(codes, csr, rows)

    def _goodness_counts(self, codes, csr):
        return self._native.goodness_counts(codes, csr)

    def _pair_fold(self, diff, old_diff, new_diff) -> int:
        return self._native.fold_pair_delta(
            self._codes,
            self._csr,
            diff,
            old_diff,
            new_diff,
            self._in_diff,
            self._new_code_of,
        )


class NativeExecution(_NativeKernelMixin, ArrayExecution):
    """The array engine on compiled CSR-walking kernels."""

    def _run_loop(self, max_steps, max_rounds, until, check_until_each_step):
        """Compiled whole rounds for ``run(until=graph_is_good)`` under a
        round-order daemon; every other run takes the array tier's
        paths."""
        if not (
            until is graph_is_good
            and check_until_each_step
            and self.incremental
            and self._records_unused()
        ):
            return super()._run_loop(max_steps, max_rounds, until, check_until_each_step)
        with self._without_records():
            return self._run_rounds(max_steps, max_rounds)

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
            if self._goodness == (0, 0):
                return RunResult(steps, rounds.completed_rounds, True, "predicate")

    def _run_sequence(self, order) -> int:
        """Apply ``order`` through the compiled kernel and fold its
        effect into the engine: goodness counts, moves, and one
        wholesale invalidation of the pending cache."""
        faulty, bad = self._goodness
        counts = np.array([faulty, bad, 0], dtype=np.int64)
        applied = self._native.run_sequence(self._codes, self._csr, order, counts)
        self._goodness = (int(counts[0]), int(counts[1]))
        if counts[2]:
            self._moves += int(counts[2])
            self._config_cache = None
            self._invalidate_all()
        return applied


class NativeReplicaBatchExecution(_NativeKernelMixin, ReplicaBatchExecution):
    """The replica-batched ensemble runner on compiled kernels."""

    def _fold_pair_counts(self, diff, old_diff, new_diff, owner) -> None:
        # The compiled fold scatters by the per-node owner table
        # directly, so the per-lane ``owner`` gather is not needed.
        self._native.fold_pair_delta_by_owner(
            self._flat,
            self._block_csr,
            diff,
            old_diff,
            new_diff,
            self._in_diff_flat,
            self._new_code_flat,
            self._rep_of_node,
            self._bad_counts,
        )


def native_execution_class() -> type:
    """The class behind ``engine="native"``: :class:`NativeExecution`
    when a compiled backend is available, else
    :class:`~repro.model.array_engine.ArrayExecution` with a warning."""
    if native_backend() is None:
        warnings.warn(
            "the native engine tier is unavailable (numba is not "
            "installed and no C compiler was found); falling back to "
            "the numpy array engine — install the 'native' extra "
            "(pip install .[native]) for compiled kernels",
            RuntimeWarning,
            stacklevel=2,
        )
        return ArrayExecution
    return NativeExecution


def replica_batch_execution_class(engine: str) -> type:
    """The ensemble runner class matching ``engine`` — the batching
    counterpart of :func:`~repro.model.engine.engine_class`, used by the
    campaign runner to keep batched scenarios on the kernels their spec
    names.  ``native`` degrades to the numpy ensemble runner exactly
    like :func:`native_execution_class` does."""
    if engine == "native":
        if native_backend() is None:
            warnings.warn(
                "the native engine tier is unavailable (numba is not "
                "installed and no C compiler was found); replica batches "
                "fall back to the numpy ensemble engine",
                RuntimeWarning,
                stacklevel=2,
            )
            return ReplicaBatchExecution
        return NativeReplicaBatchExecution
    return ReplicaBatchExecution

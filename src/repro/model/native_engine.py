"""The compiled-kernel execution tier (``engine="native"``).

:class:`NativeExecution` is :class:`~repro.model.array_engine.ArrayExecution`
with its kernel seams rerouted to the compiled CSR-walking kernels of
:mod:`repro.core.algau_native`:

* :meth:`~repro.model.array_engine.ArrayExecution._evaluate` — batched δ
  as one compiled walk over the active lanes' neighborhoods, testing
  each sensed clock inline (no signal words, no numpy passes);
* :meth:`~repro.model.array_engine.ArrayExecution._sequence` — a
  round-order daemon's activations applied in turn, stopping on the
  first good configuration (the array tier's whole-round runs);
* ``_native`` — the compiled kernel that the engine's
  :class:`~repro.model.goodness.GoodnessLedger` binds, so its recount
  is a compiled walk.

Everything else — the dirty-set pipeline, the ``run`` drivers,
schedulers, monitors, masks, pokes, the enabled view — is inherited
unchanged, so trajectories are bit-identical to the array engine (the
differential suite checks this across graph × scheduler × fault
combinations).  :class:`NativeReplicaBatchExecution` applies the same
reroute to the block-diagonal CSR of the replica-batched ensemble
runner, so Monte Carlo campaigns ride the compiled tier through the
same seams (its goodness recount and per-replica fold included).

Backend availability is resolved once per process by
:func:`repro.core.algau_native.native_backend` (numba if installed,
else a lazily ``cc``-compiled C library); when neither exists,
:func:`native_execution_class` warns and falls back to the numpy tier,
so ``engine="native"`` degrades gracefully instead of failing (whole-round
runs included, on the list kernel).
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

from repro.core.algau_native import NativeKernel, native_backend
from repro.model.array_engine import ArrayExecution
from repro.model.replica_engine import ReplicaBatchExecution


class _NativeKernelMixin:
    """Reroutes the array-tier kernel seams to a :class:`NativeKernel`.

    Must precede the engine (or ensemble runner) base class in the MRO;
    ``_native`` wraps the base's numpy :class:`VectorKernel` on first use.
    """

    @cached_property
    def _native(self) -> NativeKernel:
        return NativeKernel(self._kernel)

    def _evaluate(self, codes, rows, csr) -> np.ndarray:
        return self._native.delta_rows(codes, csr, rows)

    def _sequence(self, codes, csr, order, counts) -> int:
        return self._native.run_sequence(codes, csr, order, counts)


class NativeExecution(_NativeKernelMixin, ArrayExecution):
    """The array engine on compiled CSR-walking kernels."""


class NativeReplicaBatchExecution(_NativeKernelMixin, ReplicaBatchExecution):
    """The replica-batched ensemble runner on compiled kernels."""

    def _goodness_counts(self, codes, csr):
        return self._native.goodness_counts(codes, csr)

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

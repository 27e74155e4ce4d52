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
combinations).  Native seed ensembles run solo on this class: the
campaign runner fuses only ``array``/``replica-batch`` ensembles.

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


class _NativeKernelMixin:
    """Reroutes the array-tier kernel seams to a :class:`NativeKernel`.

    Must precede :class:`ArrayExecution` in the MRO; ``_native`` wraps
    the engine's numpy :class:`VectorKernel` on first use.  The layer
    tracer of ``perfbench/`` names the native lane by this class, so it
    stays a class of its own.
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

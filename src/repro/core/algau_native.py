"""Compiled AlgAU kernels over CSR neighborhoods (the ``native`` tier).

:class:`~repro.core.algau_vec.VectorKernel` evaluates Table 1 with a
handful of numpy passes over packed signal words — one gather and one
``reduceat`` per word across every CSR entry, then a few passes per
lane.  The kernels here walk the CSR ``indptr``/``indices`` arrays
directly and test each sensed clock against the per-code window masks
inline, so the per-step cost is one tight loop over the active lanes'
neighborhoods with no intermediate arrays.

Four kernels cover every seam the array-tier engines use:

* ``delta_rows`` — batched Table 1 transition for an explicit lane set
  (the ``activated ∩ dirty`` incremental path) or all lanes at once;
* ``goodness_counts`` — the full ``(faulty, unprotected pairs)`` scan
  that seeds incremental goodness accounting;
* ``fold_pairs`` — the replica-batch lane's per-step pair-delta fold
  over its block-diagonal CSR, scattered into one counter per replica
  (the array and native engines fold a step of up to four movers move
  by move in Python and recount after a larger one);
* ``run_sequence`` — a sequential daemon's activations applied one
  after another (δ, write, goodness fold, move count per activation),
  stopping on the first good configuration: whole rounds of round-robin
  schedules in one call.

``delta_rows`` and ``run_sequence`` share one per-lane δ body
(``_delta_code``).

Backends
--------
The kernels are written once as nopython-compatible Python.  At first
use the module resolves the fastest available backend:

1. ``numba`` — the Python kernels wrapped in ``numba.njit(cache=True)``
   (``pip install .[native]``).
2. ``cc`` — the identical C translation in ``_native_kernels.c``,
   compiled lazily with the host C compiler into a content-hash-keyed
   shared library under ``REPRO_NATIVE_CACHE_DIR`` (default
   ``~/.cache/repro-native``) and bound through :mod:`ctypes`.
3. ``python`` — the un-jitted kernels themselves; never auto-selected
   (they are slower than the numpy tier) but forceable for tests.

``REPRO_NATIVE_BACKEND`` forces a specific lane (``numba`` / ``cc`` /
``python``) or disables the tier entirely (``none``).  When nothing is
available, :func:`native_backend` returns ``None`` and the engine
factory falls back to the numpy tier with a warning.

Every backend has one seam, ``bind(tables)``: it returns the backend's
entry points with one kernel's constant Table 1 arrays bound, so a call
passes only what changes between calls — the codes, the CSR arrays and
the row or change arrays.  :class:`NativeKernel` binds once per kernel.
On graphs of a dozen nodes a kernel call costs a few microseconds, and
converting an array to a ``ctypes`` address costs about two, so the
``cc`` lane converts the ten tables once instead of on every call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.algau_vec import checked_sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.algau_vec import VectorKernel
    from repro.graphs.csr import CSRAdjacency

try:  # pragma: no cover - only bound when numba is installed
    from numba.extending import register_jitable
except ImportError:  # pragma: no cover - the common container case

    def register_jitable(fn):
        return fn


class NativeBackendError(RuntimeError):
    """No native backend could be built (numba missing, no C compiler)."""


# ----------------------------------------------------------------------
# Table extraction.
# ----------------------------------------------------------------------


@dataclass
class NativeTables:
    """The :class:`VectorKernel` lookup tables flattened into the
    C-contiguous primitive arrays the compiled kernels index.

    Dtypes are part of the kernel ABI (the C lane binds them blindly):
    code/clock tables are int64, boolean masks uint8, and ``pair_bad``
    int8 so per-pair deltas live in {-1, 0, 1} without wrapping.
    """

    clock_of: np.ndarray
    aa_succ: np.ndarray
    fa_succ: np.ndarray
    af_code: np.ndarray
    af_sense: np.ndarray
    is_faulty: np.ndarray
    has_twin: np.ndarray
    adjacent_mask: np.ndarray
    aa_mask: np.ndarray
    outwards_mask: np.ndarray
    pair_bad: np.ndarray
    num_clocks: int
    size: int
    cautious: int

    @classmethod
    def from_kernel(cls, kernel: "VectorKernel") -> "NativeTables":
        def i64(a):
            return np.ascontiguousarray(a, dtype=np.int64)

        def u8(a):
            return np.ascontiguousarray(a, dtype=np.uint8)

        return cls(
            clock_of=i64(kernel.encoding.clock_of_code),
            aa_succ=i64(kernel.aa_succ),
            fa_succ=i64(kernel.fa_succ),
            af_code=i64(kernel.af_code),
            af_sense=i64(kernel.af_sense_code),
            is_faulty=u8(kernel.is_faulty_code),
            has_twin=u8(kernel.has_faulty_twin),
            adjacent_mask=u8(kernel.adjacent_mask),
            aa_mask=u8(kernel.aa_mask),
            outwards_mask=u8(kernel.outwards_mask),
            pair_bad=np.ascontiguousarray(kernel.pair_unprotected, dtype=np.int8),
            num_clocks=kernel.num_clocks,
            size=kernel.size,
            cautious=1 if kernel.cautious_af else 0,
        )


# ----------------------------------------------------------------------
# The kernels (nopython-compatible Python; also the ``python`` lane).
# ----------------------------------------------------------------------


@register_jitable
def _delta_code(
    codes,
    indices,
    lo,
    hi,
    c,
    clock_of,
    aa_succ,
    fa_succ,
    af_code,
    af_sense,
    is_faulty,
    has_twin,
    adjacent_mask,
    aa_mask,
    outwards_mask,
    cautious,
):
    """The Table 1 transition of one node (current code ``c``) from its
    inclusive CSR row ``indices[lo:hi]`` — the per-lane body of
    ``delta_rows`` and ``run_sequence``."""
    if not is_faulty[c]:
        sense = af_sense[c]
        not_protected = False
        any_faulty = False
        outside_aa = False
        senses_af = False
        for e in range(lo, hi):
            cu = codes[indices[e]]
            cl = clock_of[cu]
            if is_faulty[cu]:
                any_faulty = True
            if not adjacent_mask[c, cl]:
                not_protected = True
            if not aa_mask[c, cl]:
                outside_aa = True
            if cu == sense:
                senses_af = True
        if (not not_protected) and (not any_faulty) and (not outside_aa):
            return aa_succ[c]  # AA
        if has_twin[c] and (
            not_protected or (cautious != 0 and sense >= 0 and senses_af)
        ):
            return af_code[c]  # AF
        return c
    for e in range(lo, hi):
        if outwards_mask[c, clock_of[codes[indices[e]]]]:
            return c
    return fa_succ[c]  # FA


def _delta_rows_impl(
    codes,
    indptr,
    indices,
    rows,
    out,
    clock_of,
    aa_succ,
    fa_succ,
    af_code,
    af_sense,
    is_faulty,
    has_twin,
    adjacent_mask,
    aa_mask,
    outwards_mask,
    cautious,
):
    for i in range(rows.shape[0]):
        v = rows[i]
        out[i] = _delta_code(
            codes, indices, indptr[v], indptr[v + 1], codes[v],
            clock_of, aa_succ, fa_succ, af_code, af_sense, is_faulty,
            has_twin, adjacent_mask, aa_mask, outwards_mask, cautious,
        )


def _run_sequence_impl(
    codes,
    indptr,
    indices,
    order,
    clock_of,
    aa_succ,
    fa_succ,
    af_code,
    af_sense,
    is_faulty,
    has_twin,
    adjacent_mask,
    aa_mask,
    outwards_mask,
    cautious,
    pair_bad,
    counts,
):
    faulty = counts[0]
    bad = counts[1]
    moves = counts[2]
    applied = 0
    while applied < order.shape[0]:
        v = order[applied]
        applied += 1
        lo = indptr[v]
        hi = indptr[v + 1]
        c = codes[v]
        cn = _delta_code(
            codes, indices, lo, hi, c,
            clock_of, aa_succ, fa_succ, af_code, af_sense, is_faulty,
            has_twin, adjacent_mask, aa_mask, outwards_mask, cautious,
        )
        if cn != c:
            delta = 0
            for e in range(lo, hi):
                u = indices[e]
                if u != v:
                    delta += int(pair_bad[cn, codes[u]]) - int(pair_bad[c, codes[u]])
            faulty += int(is_faulty[cn]) - int(is_faulty[c])
            bad += 2 * delta
            moves += 1
            codes[v] = cn
        if faulty == 0 and bad == 0:
            break
    counts[0] = faulty
    counts[1] = bad
    counts[2] = moves
    return applied


def _goodness_counts_impl(codes, indptr, indices, is_faulty, pair_bad):
    faulty = 0
    bad = 0
    for v in range(codes.shape[0]):
        cv = codes[v]
        if is_faulty[cv]:
            faulty += 1
        for e in range(indptr[v], indptr[v + 1]):
            bad += int(pair_bad[cv, codes[indices[e]]])
    return faulty, bad


def _fold_pairs_owner_impl(
    codes,
    indptr,
    indices,
    diff,
    old_diff,
    new_diff,
    in_diff,
    new_code_of,
    pair_bad,
    owner,
    bad_out,
):
    for i in range(diff.shape[0]):
        in_diff[diff[i]] = 1
        new_code_of[diff[i]] = new_diff[i]
    for i in range(diff.shape[0]):
        v = diff[i]
        co = old_diff[i]
        cn = new_diff[i]
        delta = 0
        for e in range(indptr[v], indptr[v + 1]):
            u = indices[e]
            cu = codes[u]
            if in_diff[u]:
                delta += int(pair_bad[cn, new_code_of[u]]) - int(pair_bad[co, cu])
            else:
                delta += 2 * (int(pair_bad[cn, cu]) - int(pair_bad[co, cu]))
        bad_out[owner[v]] += delta
    for i in range(diff.shape[0]):
        in_diff[diff[i]] = 0


# ----------------------------------------------------------------------
# Backends.
# ----------------------------------------------------------------------


class _ArrayKernels:
    """An array-taking backend's kernels (the ``python`` and ``numba``
    lanes) with one kernel's Table 1 arrays bound: the per-call
    arguments are the codes, the CSR and the row or change arrays."""

    def __init__(self, backend, tables: NativeTables):
        t = tables
        self._backend = backend
        self._tables = t
        self._delta_tables = (
            t.clock_of, t.aa_succ, t.fa_succ, t.af_code, t.af_sense,
            t.is_faulty, t.has_twin, t.adjacent_mask, t.aa_mask,
            t.outwards_mask, t.cautious,
        )

    def delta_rows(self, codes, indptr, indices, rows, out) -> None:
        self._backend.delta_rows(codes, indptr, indices, rows, out, *self._delta_tables)

    def run_sequence(self, codes, indptr, indices, order, counts) -> int:
        return self._backend.run_sequence(
            codes, indptr, indices, order, *self._delta_tables,
            self._tables.pair_bad, counts,
        )

    def goodness_counts(self, codes, indptr, indices) -> Tuple[int, int]:
        t = self._tables
        faulty, bad = self._backend.goodness_counts(
            codes, indptr, indices, t.is_faulty, t.pair_bad
        )
        return int(faulty), int(bad)

    def fold_pairs_owner(
        self, codes, indptr, indices, diff, old_diff, new_diff,
        in_diff, new_code_of, owner, bad_out,
    ) -> None:
        self._backend.fold_pairs_owner(
            codes, indptr, indices, diff, old_diff, new_diff,
            in_diff, new_code_of, self._tables.pair_bad, owner, bad_out,
        )


class _PythonBackend:
    """The un-jitted kernels — correctness reference, test-only lane."""

    name = "python"

    delta_rows = staticmethod(_delta_rows_impl)
    goodness_counts = staticmethod(_goodness_counts_impl)
    fold_pairs_owner = staticmethod(_fold_pairs_owner_impl)
    run_sequence = staticmethod(_run_sequence_impl)

    def bind(self, tables: NativeTables) -> _ArrayKernels:
        return _ArrayKernels(self, tables)


class _NumbaBackend(_PythonBackend):
    """The Python kernels under ``numba.njit(cache=True)``."""

    name = "numba"

    def __init__(self):
        import numba

        jit = numba.njit(cache=True, nogil=True)
        self.delta_rows = jit(_delta_rows_impl)
        self.goodness_counts = jit(_goodness_counts_impl)
        self.fold_pairs_owner = jit(_fold_pairs_owner_impl)
        self.run_sequence = jit(_run_sequence_impl)


_C_SOURCE = Path(__file__).with_name("_native_kernels.c")


def _native_cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE_DIR", "").strip()
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro-native"


def compile_native_library() -> Path:
    """Compile ``_native_kernels.c`` into a cached shared library.

    The output name is keyed by a hash of the source text, so kernel
    edits transparently rebuild while repeat runs reuse the cached
    ``.so``.  Tries ``$CC``, then ``cc``/``gcc``/``clang``.
    """
    text = _C_SOURCE.read_bytes()
    digest = hashlib.sha256(text).hexdigest()[:16]
    cache = _native_cache_dir()
    target = cache / f"native_kernels_{digest}.so"
    if target.exists():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    compilers = [os.environ.get("CC", "").strip(), "cc", "gcc", "clang"]
    errors = []
    for compiler in [c for c in compilers if c]:
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run(
                [compiler, "-O3", "-fPIC", "-shared", "-o", tmp, str(_C_SOURCE)],
                check=True,
                capture_output=True,
            )
            os.replace(tmp, target)
            return target
        except (OSError, subprocess.CalledProcessError) as exc:
            errors.append(f"{compiler}: {exc}")
            try:
                os.unlink(tmp)
            except OSError:
                pass
    raise NativeBackendError(
        "could not compile _native_kernels.c: " + "; ".join(errors or ["no compiler"])
    )


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


class _CKernels:
    """The ``cc`` lane's entry points with one kernel's Table 1 pointers
    bound.

    ``ndarray.ctypes.data`` costs about as much as a small kernel call,
    so the constant tables (and a private output buffer) are converted
    once here; only the codes, the CSR and the row or change arrays —
    which the engines replace between calls (``MutableCSR.patch`` swaps
    its buffers) — are converted per call.  The tables object is held so
    the bound addresses stay valid.
    """

    def __init__(self, backend: "_CBackend", tables: NativeTables):
        t = tables
        self._tables = t
        self._c = backend
        self._out = np.zeros(2, dtype=np.int64)
        ptr = ctypes.c_void_p
        self._out_ptr = ptr(_ptr(self._out))
        self._delta_tables = tuple(
            ptr(_ptr(a))
            for a in (
                t.clock_of, t.aa_succ, t.fa_succ, t.af_code, t.af_sense,
                t.is_faulty, t.has_twin, t.adjacent_mask, t.aa_mask,
                t.outwards_mask,
            )
        ) + (t.aa_mask.shape[1], t.cautious)
        self._is_faulty = ptr(_ptr(t.is_faulty))
        self._pair_bad = (ptr(_ptr(t.pair_bad)), t.pair_bad.shape[1])

    def delta_rows(self, codes, indptr, indices, rows, out) -> None:
        self._c.delta(
            _ptr(codes), _ptr(indptr), _ptr(indices), _ptr(rows), rows.shape[0],
            _ptr(out), *self._delta_tables,
        )

    def run_sequence(self, codes, indptr, indices, order, counts) -> int:
        return self._c.sequence(
            _ptr(codes), _ptr(indptr), _ptr(indices), _ptr(order), order.shape[0],
            *self._delta_tables, *self._pair_bad, _ptr(counts),
        )

    def goodness_counts(self, codes, indptr, indices) -> Tuple[int, int]:
        out = self._out
        self._c.goodness(
            _ptr(codes), _ptr(indptr), _ptr(indices), codes.shape[0],
            self._is_faulty, *self._pair_bad, self._out_ptr,
        )
        return int(out[0]), int(out[1])

    def fold_pairs_owner(
        self, codes, indptr, indices, diff, old_diff, new_diff,
        in_diff, new_code_of, owner, bad_out,
    ) -> None:
        self._c.fold(
            _ptr(codes), _ptr(indptr), _ptr(indices), _ptr(diff), _ptr(old_diff),
            _ptr(new_diff), diff.shape[0], _ptr(in_diff), _ptr(new_code_of),
            *self._pair_bad, _ptr(owner), _ptr(bad_out),
        )


class _CBackend:
    """``_native_kernels.c`` compiled on demand and bound via ctypes."""

    name = "cc"

    def __init__(self):
        lib = ctypes.CDLL(str(compile_native_library()))
        p = ctypes.c_void_p
        i64 = ctypes.c_int64
        self.delta = lib.delta_rows
        self.delta.restype = None
        self.delta.argtypes = [p] * 4 + [i64, p] + [p] * 10 + [i64, ctypes.c_int32]
        self.goodness = lib.goodness_counts
        self.goodness.restype = None
        self.goodness.argtypes = [p, p, p, i64, p, p, i64, p]
        self.fold = lib.fold_pairs
        self.fold.restype = None
        self.fold.argtypes = [p] * 6 + [i64] + [p] * 3 + [i64] + [p, p]
        self.sequence = lib.run_sequence
        self.sequence.restype = i64
        self.sequence.argtypes = (
            [p] * 4 + [i64] + [p] * 10 + [i64, ctypes.c_int32, p, i64, p]
        )

    def bind(self, tables: NativeTables) -> _CKernels:
        return _CKernels(self, tables)


# ----------------------------------------------------------------------
# Backend resolution.
# ----------------------------------------------------------------------

#: Sentinel marking the memo as unresolved (``None`` means "resolved:
#: nothing available", which tests monkeypatch to simulate absence).
_UNRESOLVED = "?"
_RESOLVED = _UNRESOLVED

_BUILDERS = {
    "numba": _NumbaBackend,
    "cc": _CBackend,
    "python": _PythonBackend,
}


def _probe(backend) -> None:
    """Exercise ``delta_rows`` on a synthetic 2-node input.

    Catches broken toolchains (a library that compiles but cannot be
    loaded, a numba that cannot lower the kernels) at resolution time
    instead of mid-run.  Correctness is the test suite's job; the probe
    only proves the lane is callable.
    """
    two = np.array([0, 1], dtype=np.int64)
    off = np.zeros(2, dtype=np.uint8)
    on = np.ones((2, 1), dtype=np.uint8)
    tables = NativeTables(
        clock_of=np.zeros(2, dtype=np.int64), aa_succ=two, fa_succ=two,
        af_code=two, af_sense=np.full(2, -1, dtype=np.int64), is_faulty=off,
        has_twin=off, adjacent_mask=on, aa_mask=on,
        outwards_mask=np.zeros((2, 1), dtype=np.uint8),
        pair_bad=np.zeros((2, 2), dtype=np.int8), num_clocks=1, size=2, cautious=0,
    )
    out = np.empty(2, dtype=np.int64)
    backend.bind(tables).delta_rows(
        np.zeros(2, dtype=np.int64),
        np.array([0, 2, 4], dtype=np.int64),
        np.array([0, 1, 1, 0], dtype=np.int64),
        np.arange(2, dtype=np.int64),
        out,
    )
    if out[0] != 0 or out[1] != 0:
        raise NativeBackendError(f"{backend.name} probe returned {out!r}")


def _resolve_backend():
    choice = os.environ.get("REPRO_NATIVE_BACKEND", "").strip().lower()
    if choice == "none":
        return None
    order = [choice] if choice in _BUILDERS else ["numba", "cc"]
    for name in order:
        try:
            backend = _BUILDERS[name]()
            _probe(backend)
            return backend
        except Exception:
            continue
    return None


def native_backend():
    """The resolved backend object, or ``None`` when unavailable.

    Resolution runs once per process and is memoized; set
    ``REPRO_NATIVE_BACKEND`` before first use to force a lane.
    """
    global _RESOLVED
    if _RESOLVED is _UNRESOLVED:
        _RESOLVED = _resolve_backend()
    return _RESOLVED


def native_backend_name() -> Optional[str]:
    backend = native_backend()
    return None if backend is None else backend.name


# ----------------------------------------------------------------------
# The dispatch wrapper the engines hold.
# ----------------------------------------------------------------------


class NativeKernel:
    """Backend-dispatching facade with the call shapes the array-tier
    engines need: explicit row sets, CSR in, codes out."""

    def __init__(self, kernel: "VectorKernel", backend=None):
        self.vector = kernel
        self.tables = NativeTables.from_kernel(kernel)
        backend = backend if backend is not None else native_backend()
        if backend is None:
            raise NativeBackendError(
                "no native backend available (numba not installed, no C compiler)"
            )
        self.backend = backend
        #: The backend's entry points with this kernel's tables bound.
        self.kernels = backend.bind(self.tables)
        self._all_rows: Dict[int, np.ndarray] = {}

    def _rows_for(self, n: int) -> np.ndarray:
        rows = self._all_rows.get(n)
        if rows is None:
            rows = np.arange(n, dtype=np.int64)
            self._all_rows[n] = rows
        return rows

    def delta_rows(
        self,
        codes: np.ndarray,
        csr: "CSRAdjacency",
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Next codes for the lanes in ``rows`` (all lanes when
        ``None``) — the compiled counterpart of the packed-signal
        :meth:`~repro.core.algau_vec.CodeKernel.delta_rows`."""
        if rows is None:
            rows = self._rows_for(len(codes))
        elif rows.dtype != np.int64:
            rows = rows.astype(np.int64)
        out = np.empty(len(rows), dtype=np.int64)
        self.kernels.delta_rows(codes, csr.indptr, csr.indices, rows, out)
        return out

    def run_sequence(
        self,
        codes: np.ndarray,
        csr: "CSRAdjacency",
        order: np.ndarray,
        counts: np.ndarray,
    ) -> int:
        """Apply the single-node activations ``order`` in turn, in place
        on ``codes`` — a sequential daemon's round in one call.

        ``counts`` is the int64 triple ``(faulty nodes, unprotected
        ordered pairs, moves)``: read as the counts of the entry
        configuration, updated with every move.  Stops right after the
        first activation that leaves both goodness counts at zero and
        returns the number of activations applied (``len(order)`` when
        the graph never became good)."""
        # The compiled lanes index and write through raw pointers.
        order = checked_sequence(codes, order, counts)
        return int(
            self.kernels.run_sequence(codes, csr.indptr, csr.indices, order, counts)
        )

    def goodness_counts(self, codes: np.ndarray, csr: "CSRAdjacency") -> Tuple[int, int]:
        return self.kernels.goodness_counts(codes, csr.indptr, csr.indices)

    def fold_pair_delta_by_owner(
        self,
        codes: np.ndarray,
        csr: "CSRAdjacency",
        diff: np.ndarray,
        old_diff: np.ndarray,
        new_diff: np.ndarray,
        in_diff: np.ndarray,
        new_code_of: np.ndarray,
        owner: np.ndarray,
        bad_out: np.ndarray,
    ) -> None:
        """The folded unprotected-pair delta of one change set, scattered
        into ``bad_out[owner[lane]]`` (the replica-batch lane's
        per-replica pair counters), with the weight-2 convention for
        unmoved columns.  ``codes`` must still hold pre-write codes;
        ``in_diff``/``new_code_of`` are the caller's scratch arrays
        (``in_diff`` all-False on entry, restored on exit)."""
        self.kernels.fold_pairs_owner(
            codes, csr.indptr, csr.indices, diff, old_diff, new_diff,
            in_diff.view(np.uint8), new_code_of, owner, bad_out,
        )

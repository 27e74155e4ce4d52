"""Vectorized AlgAU transition kernel (Table 1 in code space).

This module is the computational core of the array engine: it evaluates
the AA/AF/FA transition conditions of
:class:`~repro.core.algau.ThinUnison` for *all* nodes of a configuration
at once, operating on the dense turn codes of
:class:`~repro.core.encoding.TurnEncoding` and the CSR neighborhoods of
:class:`~repro.graphs.csr.CSRAdjacency`.

Representation
--------------
A configuration is a code vector ``codes`` of shape ``(n,)``.  The
node-local view (the set-broadcast signal) is the paper's binary signal
vector ``S_v ∈ {0, 1}^Q``: the set of codes held in ``N+(v)``.  AlgAU
is thin — ``|Q| = 4k - 2 = 12D + 6`` does not depend on ``n`` — so
``S_v`` packs into ``⌈|Q|/64⌉`` ``uint64`` words (two at ``D = 9``),
built word by word with one ``bitwise_or.reduceat`` over the inclusive
CSR.

Every Table 1 condition is a set condition on the sensed codes, so each
becomes one ``(|Q|, |Q|)`` boolean table over (own code, sensed code),
packed into bit masks by :class:`CodeDelta`:

* **AA** (``v`` good and ``Λ_v ⊆ {ℓ, φ+1(ℓ)}``) — blocked by any
  faulty code or any code whose clock is outside the two-clock window;
* **AF** (``v`` not protected, or senses ``ψ-1(ℓ)̂``) — fired by a
  code whose clock is outside the three-clock adjacency window, or by
  the precomputed inward-faulty code (the ``cautious_af`` ablation
  simply drops the second disjunct);
* **FA** (``Λ_v ∩ Ψ>(ℓ) = ∅``) — blocked by any code whose clock lies
  in the strictly outwards mask of the node's level.

The same masks serve one node at a time (Python int ANDs, no numpy
dispatch) and a batch of nodes (one AND per signal word), giving the
``O(D)``-state promise of Thm 1.1 a simulator whose per-step cost is a
few numpy passes over the CSR entries.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.algau import ThinUnison
    from repro.graphs.csr import CSRAdjacency


#: Below this activated fraction :meth:`CodeDelta.rows` gathers only the
#: activated rows' neighborhoods instead of evaluating every row and
#: slicing.
SPARSE_ACTIVATION_FRACTION = 0.5

_WORD = (1 << 64) - 1


class CodeDelta:
    """The code-level ``δ``: Table 1 in code space, one table set
    behind every lane that evaluates δ on codes.

    Each rule of a state machine whose guards are set conditions on the
    sensed codes is one bit mask per own code:

    * the *free* rule fires unless some code in ``block[own]`` is
      sensed, moving to ``free_to[own]``;
    * otherwise the *fire* rule fires if some code in ``fire[own]`` is
      sensed, moving to ``fire_to[own]``;
    * otherwise the node stays.

    ``block`` and ``fire`` are ``(|Q|, |Q|)`` boolean tables indexed
    ``[own code, sensed code]``.  Two entries read them:

    * :meth:`__call__` — one node, with the masks as Python ints (the
      scalar ``delta_one``, the list ``run_sequence`` kernel, the net
      lane's nodes): two integer ANDs per transition;
    * :meth:`rows` — a batch of nodes over an inclusive CSR, with the
      masks split into ``⌈|Q|/64⌉`` ``uint64`` words: the signal
      ``S_v`` of every node is OR-reduced word by word over its
      neighborhood, and each rule is one AND per word.
    """

    __slots__ = (
        "_bit",
        "_block",
        "_free_to",
        "_fire",
        "_fire_to",
        "_words",
        "_targets",
    )

    def __init__(
        self,
        block: np.ndarray,
        free_to: np.ndarray,
        fire: np.ndarray,
        fire_to: np.ndarray,
    ):
        self._bit = [1 << code for code in range(len(block))]
        self._block = _row_masks(block)
        self._free_to = free_to.tolist()
        self._fire = _row_masks(fire)
        self._fire_to = fire_to.tolist()
        # Word-major batched tables: per word, the (|Q|,) uint64 arrays
        # of each code's own bit, block mask and fire mask.  One
        # contiguous array per word keeps every gather 1-D.
        self._words = tuple(
            tuple(
                np.array([(mask >> shift) & _WORD for mask in masks], dtype=np.uint64)
                for masks in (self._bit, self._block, self._fire)
            )
            for shift in range(0, len(block), 64)
        )
        # Per own code: the free target, itself (stay), the fire target.
        targets = np.stack([free_to, np.arange(len(block)), fire_to], axis=1)
        self._targets = targets.astype(np.int64).ravel()

    def __call__(self, own: int, sensed: Iterable[int]) -> int:
        """The next code of a node in ``own`` sensing ``sensed`` (its
        neighbors' codes; the node's own code is sensed implicitly, and
        repeats are harmless — the signal is a set)."""
        bit = self._bit
        mask = bit[own]
        for code in sensed:
            mask |= bit[code]
        if not mask & self._block[own]:
            return self._free_to[own]
        if mask & self._fire[own]:
            return self._fire_to[own]
        return own

    def rows(
        self,
        codes: np.ndarray,
        csr: "CSRAdjacency",
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Next codes for the ``rows`` lanes of ``codes`` (sorted node
        ids; all lanes when ``None``), in row order — a fresh array.

        Every inclusive CSR row holds at least its own node, so no
        ``reduceat`` segment is empty (an empty segment would silently
        read the next row's first entry)."""
        if rows is None:
            own = codes
            sensed = codes.take(csr.indices)
            starts = csr.indptr[:-1]
        elif len(rows) <= SPARSE_ACTIVATION_FRACTION * len(codes):
            flat, counts = csr.gather(rows)
            own = codes.take(rows)
            sensed = codes.take(flat)
            starts = np.cumsum(counts) - counts
        else:
            return self.rows(codes, csr).take(rows)
        blocked = np.zeros(len(own), dtype=bool)
        fired = np.zeros(len(own), dtype=bool)
        for bit, block, fire in self._words:
            word = np.bitwise_or.reduceat(bit.take(sensed), starts)
            blocked |= (word & block.take(own)) != 0
            fired |= (word & fire.take(own)) != 0
        # 0 = free rule, 1 = stay, 2 = fire rule: the column of ``own``'s
        # row in the (|Q|, 3) target table.
        outcome = blocked.view(np.uint8) << fired.view(np.uint8)
        return self._targets.take(3 * own + outcome)


def checked_sequence(codes: np.ndarray, order, counts: np.ndarray) -> np.ndarray:
    """``order`` as contiguous int64, checked as every ``run_sequence``
    lane checks it (and ``counts``) before touching ``codes``."""
    order = np.ascontiguousarray(order, dtype=np.int64)
    if len(order) and not 0 <= order.min() <= order.max() < len(codes):
        raise ValueError("run_sequence order names a node outside the codes")
    if counts.dtype != np.int64 or counts.shape != (3,):
        raise ValueError("run_sequence counts must be an int64 triple")
    return order


def _row_masks(table: np.ndarray) -> List[int]:
    """Each row of a boolean ``(|Q|, |Q|)`` table as an int bit mask
    (bit ``s`` set iff ``table[row, s]``)."""
    packed = np.packbits(table, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class CodeKernel:
    """The δ entries of a kernel whose Table 1 is one :class:`CodeDelta`
    (built lazily by the subclass's :meth:`_build_code_delta`)."""

    _code_delta: Optional[CodeDelta] = None

    def _build_code_delta(self) -> CodeDelta:
        raise NotImplementedError

    def code_delta(self) -> CodeDelta:
        """The code-level δ tables of this kernel (built on first use)."""
        if self._code_delta is None:
            self._code_delta = self._build_code_delta()
        return self._code_delta

    def delta_one(self, codes: np.ndarray, neighborhood: List[int]) -> int:
        """Scalar ``δ`` for one node over the codes of its inclusive
        neighborhood (node first — see
        :meth:`~repro.graphs.csr.CSRAdjacency.neighbor_lists`): a
        one-row :meth:`delta_rows` without numpy's per-call dispatch,
        for sparsely scheduled steps that refresh a single dirty node."""
        hood = codes[neighborhood].tolist()
        return self.code_delta()(hood[0], hood)

    def delta_rows(
        self,
        codes: np.ndarray,
        csr: "CSRAdjacency",
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched ``δ`` for the ``rows`` lanes (all when ``None``) on
        packed signal words — :meth:`CodeDelta.rows`, with the contract
        of :meth:`~repro.core.algau_native.NativeKernel.delta_rows`."""
        return self.code_delta().rows(codes, csr, rows)


class VectorKernel(CodeKernel):
    """Precomputed lookup tables + the code-level transition function
    for one :class:`ThinUnison` instance."""

    def __init__(self, algorithm: "ThinUnison"):
        # No back-reference to ``algorithm``: it caches this kernel, and
        # a cycle would keep every scenario's tables alive until the
        # cyclic collector runs.
        self.cautious_af = algorithm.cautious_af
        encoding = algorithm.encoding
        self.encoding = encoding
        levels = algorithm.levels
        k2 = encoding.num_clocks  # 2k
        size = encoding.size  # 4k - 2
        self.num_clocks = k2
        self.size = size

        clock = encoding.clock_of_code
        level = encoding.level_of_code
        is_faulty = encoding.is_faulty_code
        faulty_of_clock = encoding.faulty_code_of_clock

        # Successor tables (identity where a transition type does not
        # apply; the fire masks guarantee they are only read where valid).
        codes = np.arange(size, dtype=np.int64)
        self.aa_succ = np.where(is_faulty, codes, (clock + 1) % k2)
        self.fa_succ = codes.copy()
        inward_level = np.where(
            np.abs(level) >= 2, np.sign(level) * (np.abs(level) - 1), level
        )
        inward_clock = np.array(
            [levels.clock_value(int(lvl)) for lvl in inward_level], dtype=np.int64
        )
        self.fa_succ[is_faulty] = inward_clock[is_faulty]
        # Able code -> its faulty twin (only defined where |ℓ| >= 2).
        self.af_code = np.where(
            ~is_faulty & (faulty_of_clock[clock] >= 0),
            faulty_of_clock[clock],
            codes,
        )
        self.has_faulty_twin = ~is_faulty & (faulty_of_clock[clock] >= 0)
        # Able code -> code of ψ-1(ℓ)̂ (the inward faulty turn sensed by
        # the cautious AF trigger), or -1 where that turn does not exist.
        self.af_sense_code = np.where(
            ~is_faulty & (np.abs(level) >= 2),
            faulty_of_clock[inward_clock],
            -1,
        )
        self.is_faulty_code = is_faulty

        # (|Q|, 2k) clock masks.
        clock_grid = np.arange(k2, dtype=np.int64)[None, :]
        own = clock[:, None]
        cyc = np.minimum((clock_grid - own) % k2, (own - clock_grid) % k2)
        self.adjacent_mask = cyc <= 1  # {φ-1(ℓ), ℓ, φ+1(ℓ)}
        self.aa_mask = ((clock_grid - own) % k2) <= 1  # {ℓ, φ+1(ℓ)}
        level_of_clock = np.array(
            [levels.level_of_clock(c) for c in range(k2)], dtype=np.int64
        )
        own_level = level[:, None]
        grid_level = level_of_clock[None, :]
        self.outwards_mask = (np.sign(grid_level) == np.sign(own_level)) & (
            np.abs(grid_level) > np.abs(own_level)
        )  # Ψ>(ℓ) in clock space

        # (|Q|, |Q|) edge-protection table: pair_unprotected[a, b] is
        # True iff a node in code ``a`` and a neighbor in code ``b``
        # form an unprotected pair (their levels' clocks are not
        # cyclically adjacent).  This is the incremental-goodness
        # counterpart of :meth:`is_good`: engines count unprotected
        # ordered pairs with it and update the count from each step's
        # change set instead of rescanning the whole configuration.
        pc = clock[:, None]
        qc = clock[None, :]
        pair_cyc = np.minimum((qc - pc) % k2, (pc - qc) % k2)
        self.pair_unprotected = pair_cyc > 1

        self._pair_bad_rows: Optional[List[List[int]]] = None
        self._outwards_gg: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # The code-level δ.
    # ------------------------------------------------------------------

    def _build_code_delta(self) -> CodeDelta:
        """Table 1 with each guard in code space.

        AA (able) and FA (faulty) are the free rules: AA is blocked by
        any faulty code or any clock outside ``{ℓ, φ+1(ℓ)}``, FA by any
        clock in ``Ψ>(ℓ)``.  AF is the fire rule of able codes with a
        faulty twin: a clock outside the three-clock adjacency window,
        or (cautious) the inward faulty code ``ψ-1(ℓ)̂``.
        """
        rows = np.arange(self.size)[:, None]
        sensed = self.encoding.clock_of_code[None, :]
        is_faulty = self.is_faulty_code
        aa_block = is_faulty[None, :] | ~self.aa_mask[rows, sensed]
        fa_block = self.outwards_mask[rows, sensed]
        af_fire = self.has_faulty_twin[:, None] & ~self.adjacent_mask[rows, sensed]
        if self.cautious_af:
            twins = np.nonzero(self.af_sense_code >= 0)[0]
            af_fire[twins, self.af_sense_code[twins]] = True
        return CodeDelta(
            np.where(is_faulty[:, None], fa_block, aa_block),
            np.where(is_faulty, self.fa_succ, self.aa_succ),
            af_fire,
            self.af_code,
        )

    def pair_bad_rows(self) -> List[List[int]]:
        """``pair_unprotected`` as nested lists of 0/1 ints (built
        lazily) — the scalar goodness lookups."""
        if self._pair_bad_rows is None:
            self._pair_bad_rows = self.pair_unprotected.astype(np.int64).tolist()
        return self._pair_bad_rows

    def outwards_gg_mask(self) -> np.ndarray:
        """``Ψ≫(ℓ)`` in clock space: the ``(|Q|, 2k)`` mask of the
        levels outwards of each code's level by at least two (built
        lazily — only the targeted adversary reads it).

        ``Ψ≫(ℓ) = Ψ>(ℓ) − {ψ+1(ℓ)}``, and ``ψ+1(ℓ)`` is the one clock of
        ``Ψ>(ℓ)`` cyclically adjacent to ``ℓ``'s own.
        """
        if self._outwards_gg is None:
            self._outwards_gg = self.outwards_mask & ~self.adjacent_mask
        return self._outwards_gg

    def run_sequence(
        self,
        codes: np.ndarray,
        csr: "CSRAdjacency",
        order: np.ndarray,
        counts: np.ndarray,
    ) -> int:
        """:meth:`~repro.core.algau_native.NativeKernel.run_sequence`
        (same contract) at Python-list speed: :meth:`code_delta`'s
        masks and :meth:`pair_bad_rows` over one ``tolist()`` of the
        codes, written back once."""
        order = checked_sequence(codes, order, counts).tolist()
        delta = self.code_delta()
        bit, block, free_to = delta._bit, delta._block, delta._free_to
        fire, fire_to = delta._fire, delta._fire_to
        pair_bad = self.pair_bad_rows()
        k2 = self.num_clocks
        hoods = csr.neighbor_lists()
        values = codes.tolist()
        faulty, bad, moves = counts.tolist()
        applied = 0
        for v in order:
            applied += 1
            c = values[v]
            hood = hoods[v]
            mask = 0
            for u in hood:
                mask |= bit[values[u]]
            if not mask & block[c]:
                new = free_to[c]
            elif mask & fire[c]:
                new = fire_to[c]
            else:
                new = c
            if new != c:
                bad_new = pair_bad[new]
                bad_old = pair_bad[c]
                fold = 0
                for u in hood:
                    if u != v:
                        cu = values[u]
                        fold += bad_new[cu] - bad_old[cu]
                bad += 2 * fold
                faulty += (new >= k2) - (c >= k2)
                moves += 1
                values[v] = new
            if not faulty and not bad:
                break
        if moves != counts[2]:
            codes[:] = values
        counts[:] = (faulty, bad, moves)
        return applied

    # ------------------------------------------------------------------
    # Incremental goodness accounting (shared by the engines).
    # ------------------------------------------------------------------

    def pair_deltas(
        self,
        codes: np.ndarray,
        csr: "CSRAdjacency",
        diff: np.ndarray,
        old_diff: np.ndarray,
        new_diff: np.ndarray,
        in_diff: np.ndarray,
        new_code_of: np.ndarray,
    ):
        """Unprotected-pair deltas induced by one change set.

        ``diff`` holds the moved lanes, ``old_diff``/``new_diff`` their
        pre/post codes; ``codes`` must still hold the *pre-write* codes
        (the neighbor gather reads them).  ``in_diff`` (bool) and
        ``new_code_of`` (int64) are caller-owned length-``n`` scratch
        arrays (``in_diff`` all-False on entry, restored on exit).

        Returns ``(cols, counts, delta, col_changed)``: the gathered
        inclusive neighborhoods of ``diff``, their per-lane counts, the
        per-ordered-pair badness delta, and the mask of pairs whose
        column itself moved.  Callers fold the deltas into their own
        counters — once per pair plus the symmetric reverse of pairs
        whose column did not move (protection is symmetric; the self
        pair contributes 0) — which is how both the array engine's
        scalar counts and the replica engine's per-replica count
        vectors stay O(deg(diff)) per step.
        """
        cols, counts = csr.gather(diff)
        row_old = np.repeat(old_diff, counts)
        row_new = np.repeat(new_diff, counts)
        col_old = codes[cols]
        in_diff[diff] = True
        col_changed = in_diff[cols]
        in_diff[diff] = False
        col_new = col_old
        if col_changed.any():
            new_code_of[diff] = new_diff
            col_new = col_old.copy()
            col_new[col_changed] = new_code_of[cols[col_changed]]
        pair_bad = self.pair_unprotected
        # int8 views: deltas live in {-1, 0, 1} and numpy's integer sum
        # promotes to the platform int, so the narrow dtype is exact.
        bad_after = pair_bad[row_new, col_new].view(np.int8)
        bad_before = pair_bad[row_old, col_old].view(np.int8)
        return cols, counts, bad_after - bad_before, col_changed

    # ------------------------------------------------------------------
    # Vectorized analysis predicates.
    # ------------------------------------------------------------------

    def is_good(self, codes: np.ndarray, csr: "CSRAdjacency") -> bool:
        """Vectorized ``is_good_graph``: every node able and every edge
        protected (endpoint clocks cyclically adjacent)."""
        k2 = self.num_clocks
        if (codes >= k2).any():
            return False
        diff = (codes[csr.indices] - codes[csr.row_index]) % k2
        return bool(((diff <= 1) | (diff == k2 - 1)).all())

    def goodness_counts(self, codes: np.ndarray, csr: "CSRAdjacency"):
        """``(faulty nodes, unprotected ordered pairs)`` of a
        configuration — the full-recompute seed of the engines'
        incremental goodness accounting.  The graph is good iff both
        counts are zero (pairs are counted once per direction; self
        pairs are trivially protected and contribute nothing)."""
        faulty = int(np.count_nonzero(codes >= self.num_clocks))
        # One flat ``take`` on the raveled table: the ordered pair
        # ``(a, b)`` sits at ``a * |Q| + b``.
        pairs = codes.take(csr.row_index) * self.size
        pairs += codes.take(csr.indices)
        bad = int(np.count_nonzero(self.pair_unprotected.ravel().take(pairs)))
        return faulty, bad

"""Vectorized AlgAU transition kernel (Table 1 as boolean masks).

This module is the computational core of the array engine: it evaluates
the AA/AF/FA transition conditions of
:class:`~repro.core.algau.ThinUnison` for *all* nodes of a configuration
at once, operating on the dense turn codes of
:class:`~repro.core.encoding.TurnEncoding` and the CSR neighborhoods of
:class:`~repro.graphs.csr.CSRAdjacency`.

Representation
--------------
A configuration is a code vector ``codes`` of shape ``(n,)``.  The
node-local view (the set-broadcast signal) is the boolean *presence
matrix* ``P`` of shape ``(n, |Q|)`` with ``P[v, q] = 1`` iff some node
in ``N+(v)`` holds code ``q`` — exactly the paper's binary signal
vector ``S_v ∈ {0, 1}^Q``, materialized for every node by a single
scatter over the CSR arrays.

Because able codes coincide with clock values (see
:mod:`repro.core.encoding`), the sensed level set ``Λ_v`` becomes the
boolean vector ``sensed_clock[v] ∈ {0, 1}^{2k}``: the able half of the
presence row OR-ed with the faulty half scattered onto its levels'
clocks.  Every Table 1 condition is then a per-code row mask applied to
``sensed_clock``:

* **AA** (``v`` good and ``Λ_v ⊆ {ℓ, φ+1(ℓ)}``) — no sensed clock
  outside the two-clock window, no faulty turn sensed;
* **AF** (``v`` not protected, or senses ``ψ-1(ℓ)̂``) — some sensed
  clock outside the three-clock adjacency window, or the precomputed
  inward-faulty code present (the ``cautious_af`` ablation simply drops
  the second disjunct);
* **FA** (``Λ_v ∩ Ψ>(ℓ) = ∅``) — no sensed clock in the strictly
  outwards mask of the node's level.

All masks are ``(|Q|, 2k)`` tables built once per algorithm instance;
each step is a handful of gathers and reductions, giving the
``O(D)``-state promise of Thm 1.1 a simulator whose per-step cost is a
few numpy passes over ``(n, 2k)`` arrays.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.algau import ThinUnison
    from repro.graphs.csr import CSRAdjacency


class ScalarDelta:
    """The one-node ``δ`` on codes: ``(own code, sensed codes) → code``.

    The batched kernel pays ~20 numpy dispatches per call, which
    dominates when a single node steps at a time (round-robin daemons,
    the net lane's actors).  Here each rule of a state machine whose
    guards are set conditions on the sensed codes is one bit mask per
    own code, so a transition is two integer ANDs over the mask of the
    sensed codes:

    * the *free* rule fires unless some code in ``block[own]`` is
      sensed, moving to ``free_to[own]``;
    * otherwise the *fire* rule fires if some code in ``fire[own]`` is
      sensed, moving to ``fire_to[own]``;
    * otherwise the node stays.

    ``block`` and ``fire`` are ``(|Q|, |Q|)`` boolean tables indexed
    ``[own code, sensed code]``.
    """

    __slots__ = ("_bit", "_block", "_free_to", "_fire", "_fire_to")

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


class VectorKernel:
    """Precomputed lookup tables + the batched transition function for
    one :class:`ThinUnison` instance."""

    def __init__(self, algorithm: "ThinUnison"):
        self.algorithm = algorithm
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

        self._scalar_delta: Optional[ScalarDelta] = None
        self._pair_bad_rows: Optional[List[List[int]]] = None
        self._outwards_gg: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Signals.
    # ------------------------------------------------------------------

    def signal_presence(
        self,
        codes: np.ndarray,
        csr: "CSRAdjacency",
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The boolean presence matrix ``S`` of the configuration.

        Without ``rows``: shape ``(n, |Q|)``, one row per node.  With
        ``rows`` (sorted node ids): shape ``(len(rows), |Q|)``, only
        those nodes' signals — the sparse-activation fast path.
        """
        if rows is None:
            presence = np.zeros((len(codes), self.size), dtype=bool)
            presence[csr.row_index, codes[csr.indices]] = True
            return presence
        flat, counts = csr.gather(rows)
        out_row = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        presence = np.zeros((len(rows), self.size), dtype=bool)
        presence[out_row, codes[flat]] = True
        return presence

    def sensed_clocks(self, presence: np.ndarray) -> np.ndarray:
        """``Λ`` per row: the ``(rows, 2k)`` boolean matrix of sensed
        levels (clock-indexed), merging able and faulty codes."""
        k2 = self.num_clocks
        sensed = presence[:, :k2].copy()
        faulty_clocks = self.encoding.clock_of_code[k2:]
        # Each faulty code maps to a distinct clock, so fancy |= is safe.
        sensed[:, faulty_clocks] |= presence[:, k2:]
        return sensed

    # ------------------------------------------------------------------
    # The batched transition function.
    # ------------------------------------------------------------------

    def delta_batch(self, codes: np.ndarray, presence: np.ndarray) -> np.ndarray:
        """Next codes for a batch of activated nodes.

        ``codes[i]`` is the state of the ``i``-th batch node and
        ``presence[i]`` its signal row; every batch node is considered
        activated (callers slice out the active rows — see
        :meth:`ThinUnison.delta_batch` for the masked variant).  Returns
        a fresh array; ``codes`` is not modified.
        """
        k2 = self.num_clocks
        sensed = self.sensed_clocks(presence)

        any_faulty = presence[:, k2:].any(axis=1)
        not_protected = (sensed & ~self.adjacent_mask[codes]).any(axis=1)
        outside_aa = (sensed & ~self.aa_mask[codes]).any(axis=1)
        is_able = ~self.is_faulty_code[codes]

        # Table 1, type AA: v good and Λ ⊆ {ℓ, φ+1(ℓ)}.
        aa_fire = is_able & ~not_protected & ~any_faulty & ~outside_aa

        # Table 1, type AF: able with a faulty twin; not protected, or
        # (cautious) sensing the inward faulty turn.  AA takes
        # precedence, mirroring ThinUnison.classify.
        sense_codes = self.af_sense_code[codes]
        af_sense = np.zeros(len(codes), dtype=bool)
        defined = sense_codes >= 0
        af_sense[defined] = presence[np.nonzero(defined)[0], sense_codes[defined]]
        af_condition = not_protected
        if self.cautious_af:
            af_condition = af_condition | af_sense
        af_fire = is_able & ~aa_fire & self.has_faulty_twin[codes] & af_condition

        # Table 1, type FA: faulty with Λ ∩ Ψ>(ℓ) = ∅.
        fa_fire = ~is_able & ~(sensed & self.outwards_mask[codes]).any(axis=1)

        new_codes = codes.copy()
        new_codes[aa_fire] = self.aa_succ[codes[aa_fire]]
        new_codes[af_fire] = self.af_code[codes[af_fire]]
        new_codes[fa_fire] = self.fa_succ[codes[fa_fire]]
        return new_codes

    # ------------------------------------------------------------------
    # The scalar δ (one node at a time).
    # ------------------------------------------------------------------

    def scalar_delta(self) -> ScalarDelta:
        """The code-level δ entry ``(own code, sensed codes) → code``
        (built lazily): Table 1 with each guard in code space.

        AA (able) and FA (faulty) are the free rules: AA is blocked by
        any faulty code or any clock outside ``{ℓ, φ+1(ℓ)}``, FA by any
        clock in ``Ψ>(ℓ)``.  AF is the fire rule of able codes with a
        faulty twin: a clock outside the three-clock adjacency window,
        or (cautious) the inward faulty code ``ψ-1(ℓ)̂``.
        """
        if self._scalar_delta is None:
            rows = np.arange(self.size)[:, None]
            sensed = self.encoding.clock_of_code[None, :]
            is_faulty = self.is_faulty_code
            aa_block = is_faulty[None, :] | ~self.aa_mask[rows, sensed]
            fa_block = self.outwards_mask[rows, sensed]
            af_fire = self.has_faulty_twin[:, None] & ~self.adjacent_mask[rows, sensed]
            if self.cautious_af:
                twins = np.nonzero(self.af_sense_code >= 0)[0]
                af_fire[twins, self.af_sense_code[twins]] = True
            self._scalar_delta = ScalarDelta(
                np.where(is_faulty[:, None], fa_block, aa_block),
                np.where(is_faulty, self.fa_succ, self.aa_succ),
                af_fire,
                self.af_code,
            )
        return self._scalar_delta

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

    def delta_one(self, codes: np.ndarray, neighborhood: List[int]) -> int:
        """Scalar ``δ`` for one node: :meth:`scalar_delta` over the codes
        of its inclusive neighborhood (node first — see
        :meth:`~repro.graphs.csr.CSRAdjacency.neighbor_lists`).

        Exactly equivalent to a one-row :meth:`delta_batch` call but
        without numpy's per-call dispatch — the incremental engines use
        it when a sparsely scheduled step needs to refresh a single
        dirty node.
        """
        hood = codes[neighborhood].tolist()
        return self.scalar_delta()(hood[0], hood)

    def run_sequence(
        self,
        codes: np.ndarray,
        csr: "CSRAdjacency",
        order: np.ndarray,
        counts: np.ndarray,
    ) -> int:
        """:meth:`~repro.core.algau_native.NativeKernel.run_sequence`
        (same contract) at Python-list speed: :meth:`scalar_delta`'s
        masks and :meth:`pair_bad_rows` over one ``tolist()`` of the
        codes, written back once."""
        order = checked_sequence(codes, order, counts).tolist()
        delta = self.scalar_delta()
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
        k2 = self.num_clocks
        faulty = int((codes >= k2).sum())
        bad = int(
            self.pair_unprotected[codes[csr.row_index], codes[csr.indices]].sum()
        )
        return faulty, bad

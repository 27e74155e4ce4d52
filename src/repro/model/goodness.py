"""One goodness ledger for the array, native and net lanes.

AlgAU's stabilization predicate is "the graph is good": every node able
and every edge protected.  :class:`GoodnessLedger` keeps the counts
behind it, ``(faulty nodes, unprotected ordered pairs)``, and folds
single moves and resolved topology deltas into them.  The array and
native lanes fold a step or poke move by move up to
:attr:`~repro.model.array_engine.ArrayExecution.SCALAR_ACTIVATION_MAX`
(4) movers; a larger change set drops the counts, and the next query
recounts them.  So polling the predicate costs O(changes) after a step
of up to 4 movers, and otherwise one O(n + m) recount at the next
query.  Pairs count once per direction; a node's self pair is always
protected.  The object lane keeps its own ``Turn``-level count as the
differential oracle.
"""

from __future__ import annotations

import numpy as np


class GoodnessLedger:
    """The goodness counts of one lane's configuration, over the pair
    table of a numpy :class:`~repro.core.algau_vec.VectorKernel` or a
    compiled :class:`~repro.core.algau_native.NativeKernel`.

    ``counts`` is ``None`` until the first :meth:`recount` (kernels
    without AlgAU's pair table never take one) and after a lane drops
    it for a larger change set; the folds skip while it is.
    """

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        self.counts = None

    @property
    def good(self) -> bool:
        return self.counts == (0, 0)

    def recount(self, codes: np.ndarray, csr) -> None:
        """Count ``codes`` over the inclusive ``csr`` from scratch."""
        kernel = self._kernel
        vector = getattr(kernel, "vector", kernel)
        self._able = vector.num_clocks
        self._pair_bad = vector.pair_bad_rows()
        self.counts = tuple(kernel.goodness_counts(codes, csr))

    def move(self, old: int, new: int, neighbor_codes) -> None:
        """Fold one node's move from code ``old`` to ``new`` against its
        neighbors' current codes.  A step's moves fold one by one, each
        before its own write."""
        if self.counts is None:
            return
        bad_new, bad_old = self._pair_bad[new], self._pair_bad[old]
        delta = 0
        for code in neighbor_codes:
            delta += bad_new[code] - bad_old[code]
        able = self._able
        faulty, bad = self.counts
        # Protection is symmetric: the reverse ordered pairs move too.
        self.counts = (faulty + (new >= able) - (old >= able), bad + 2 * delta)

    def fold_delta(self, applied, code_of, left_codes) -> None:
        """Fold a resolved :class:`~repro.graphs.dynamic.AppliedDelta`
        after the lane wrote its codes: ``code_of(v)`` reads them, and
        ``left_codes`` holds the left nodes' codes before the delta.
        Removed edges leave at the old codes, left nodes trade their
        faulty bit for the rest code's, joined nodes add theirs, and
        added edges enter at the new codes."""
        if self.counts is None:
            return
        pair_bad, able = self._pair_bad, self._able
        before = dict(zip(applied.left, left_codes))
        faulty, bad = self.counts
        for u, v in applied.removed_edges:
            bad -= 2 * pair_bad[before.get(u, code_of(u))][before.get(v, code_of(v))]
        for v, old in before.items():
            faulty += (code_of(v) >= able) - (old >= able)
        for v, _ in applied.joined:
            faulty += code_of(v) >= able
        for u, v in applied.added_edges:
            bad += 2 * pair_bad[code_of(u)][code_of(v)]
        self.counts = (faulty, bad)

"""Progress metrics aligned with the stabilization proof.

The proof of Theorem 1.1 advances through a ladder of configuration
classes, each *closed* under steps once reached:

    arbitrary → out-protected (Obs 2.3/2.6, Cor 2.15)
              → justified (Lem 2.16, Cor 2.17)
              → good (Lem 2.10, Lem 2.22)

(Protectedness alone is *not* closed outside the justified regime — an
FA transition may unprotect an edge — which is why the ladder skips
from justified straight to good, exactly as Lem 2.18 does: a justified
protected graph is already good.)

:class:`ProgressReport` measures where a configuration sits on the
ladder plus quantitative residuals (per-stage violator counts, the
largest clock gap across an edge).  The stage index is monotone along
any execution — a property test in ``tests/test_potential.py`` checks
it — and the residuals power diagnostics in the examples and CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence, TYPE_CHECKING

import numpy as np

from repro.core.algau import ThinUnison
from repro.core.predicates import (
    good_nodes,
    grounded_nodes,
    is_good_graph,
    is_out_protected_graph,
    is_protected_graph,
    out_protected_nodes,
    protected_edges,
    protected_nodes,
    unjustifiably_faulty_nodes,
)
from repro.model.configuration import Configuration

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.algau_vec import VectorKernel
    from repro.graphs.csr import CSRAdjacency


class Stage(IntEnum):
    """The proof ladder, ordered; every stage is closed under steps."""

    ARBITRARY = 0
    OUT_PROTECTED = 1
    JUSTIFIED = 2
    GOOD = 3


@dataclass(frozen=True)
class ProgressReport:
    """A snapshot of how close a configuration is to stabilization."""

    stage: Stage
    n: int
    protected_nodes: int
    out_protected_nodes: int
    good_nodes: int
    grounded_nodes: int
    faulty_nodes: int
    unjustified_nodes: int
    unprotected_edges: int
    max_edge_gap: int  # largest level distance across an edge
    protected_graph: bool

    def __str__(self) -> str:
        return (
            f"stage={self.stage.name} good={self.good_nodes}/{self.n} "
            f"protected={self.protected_nodes}/{self.n} "
            f"faulty={self.faulty_nodes} gap={self.max_edge_gap}"
        )


def progress_report(algorithm: ThinUnison, config: Configuration) -> ProgressReport:
    """Measure ``config`` against the proof ladder."""
    topology = config.topology
    levels = algorithm.levels
    protected = protected_nodes(algorithm, config)
    out_protected = out_protected_nodes(algorithm, config)
    good = good_nodes(algorithm, config)
    grounded = grounded_nodes(algorithm, config)
    unjustified = unjustifiably_faulty_nodes(algorithm, config)
    faulty = sum(1 for v in topology.nodes if config[v].faulty)
    edges_p = protected_edges(algorithm, config)
    max_gap = 0
    for u, v in topology.edges:
        max_gap = max(max_gap, levels.distance(config[u].level, config[v].level))

    if is_good_graph(algorithm, config):
        stage = Stage.GOOD
    elif is_out_protected_graph(algorithm, config) and not unjustified:
        stage = Stage.JUSTIFIED
    elif is_out_protected_graph(algorithm, config):
        stage = Stage.OUT_PROTECTED
    else:
        stage = Stage.ARBITRARY

    return ProgressReport(
        stage=stage,
        n=topology.n,
        protected_nodes=len(protected),
        out_protected_nodes=len(out_protected),
        good_nodes=len(good),
        grounded_nodes=len(grounded),
        faulty_nodes=faulty,
        unjustified_nodes=len(unjustified),
        unprotected_edges=topology.m - len(edges_p),
        max_edge_gap=max_gap,
        protected_graph=is_protected_graph(algorithm, config),
    )


def disorder_potential(algorithm: ThinUnison, config: Configuration) -> int:
    """A scalar "how broken is this configuration" score: the number of
    non-out-protected nodes, plus non-protected edges, plus faulty
    nodes.  Zero exactly on good graphs.  Used by the greedy adversary
    (it tries to keep this high) and as a coarse progress indicator —
    it is *not* claimed to be monotone step by step (only the staged
    predicates of the proof ladder are).
    """
    topology = config.topology
    out_protected = out_protected_nodes(algorithm, config)
    faulty = sum(1 for v in topology.nodes if config[v].faulty)
    unprotected_edges = topology.m - len(protected_edges(algorithm, config))
    return (topology.n - len(out_protected)) + unprotected_edges + faulty


def disorder_gain(
    kernel: "VectorKernel", codes: np.ndarray, csr: "CSRAdjacency", v: int
) -> np.ndarray:
    """:func:`disorder_potential` after moving node ``v`` to each code
    ``q``, up to a constant that is the same for every ``q``.

    ``codes`` is the configuration's code vector and ``csr`` its
    inclusive adjacency (rows start with the node itself).  Moving ``v``
    can only change ``v``'s faulty bit, the protectedness of the edges
    at ``v``, and the out-protectedness of ``v`` and of each neighbor
    ``u``, so the score reads only ``v``'s two-hop neighborhood::

        gain(q) = [q faulty] + Σ_u pair_unprotected[q, c_u]
                + [∃u: λ_u ∈ Ψ≫(λ_q)]
                + Σ_{u out-protected without v} [λ_q ∈ Ψ≫(λ_u)]

    with ``u`` ranging over ``N(v)``; a neighbor that senses some level
    in ``Ψ≫(λ_u)`` other than ``v``'s is non-out-protected whatever
    ``q`` is, which is the constant.  Returns the ``(|Q|,)`` integer
    vector over codes: ``gain(q) − gain(q′)`` is exactly the potential
    difference of the two moves, so ties are preserved.
    """
    gg = kernel.outwards_gg_mask()
    clock = kernel.encoding.clock_of_code
    neighbors = csr.indices[csr.indptr[v] + 1 : csr.indptr[v + 1]]
    near = codes[neighbors]
    # pair_unprotected is symmetric, so rows serve as columns.
    gain = kernel.pair_unprotected[near].sum(axis=0)
    gain += kernel.is_faulty_code
    gain += gg[:, clock[near]].any(axis=1)
    flat, counts = csr.gather(neighbors)
    hit = gg[np.repeat(near, counts), clock[codes[flat]]] & (flat != v)
    blocked = np.logical_or.reduceat(hit, np.cumsum(counts) - counts)
    gain += gg[near[~blocked]].sum(axis=0)[clock]
    return gain


def stage_timeline_is_monotone(stages: Sequence[Stage]) -> bool:
    """Whether a recorded stage sequence never falls below a stage it
    has reached — the closure property of the proof ladder."""
    best = Stage.ARBITRARY
    for stage in stages:
        if stage < best:
            return False
        best = max(best, stage)
    return True

"""The benchmark's workloads: scenario lists generated from a seed.

Three workloads are shipped campaign registries; ``large-n`` is built
here with the public :class:`~repro.campaigns.registry.CampaignBuilder`.
Every workload is a pure function of its seed, and the simulator only
ever sees the generated scenarios.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict

#: The seed whose aggregates are pinned in :data:`PINNED_DIGESTS`.
DEFAULT_SEED = 0

#: ``large-n`` cells: (nodes, scheduler).  Cell (a) is one big
#: synchronous graph, where graph construction and the per-step engine
#: path dominate; cell (b) is a smaller graph under a single-node daemon,
#: where per-step bookkeeping is the whole cost.
LARGE_N_CELLS = ((10_000, "synchronous"), (2_000, "shuffled-round-robin"))
LARGE_N_DEGREE = 6
#: Random 6-regular graphs of these sizes have diameter 6 or 7; the
#: bound leaves slack and is checked for the baseline seeds by a test.
LARGE_N_DIAMETER_BOUND = 9
#: Round budget of a ``large-n`` scenario: far above what random starts
#: need, low enough that a non-stabilizing cell fails within seconds.
LARGE_N_MAX_ROUNDS = 600
LARGE_N_LANES = ("native", "array")

#: ``byzantine`` targeted-adversary block (see :func:`build_byzantine`):
#: engine pairs on the registry's ring, and their round budget.  On the
#: ring, containment is first reached after 30 or more rounds.
BYZANTINE_TARGETED_PAIRS = 6
BYZANTINE_TARGETED_ROUNDS = 8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: Why the benchmark runs it (mirrored in ``BENCHMARK.json``).
    why: str
    build: Callable[[int], list]
    #: Whether rows carry ``pairing`` tags that every lane must agree on.
    paired: bool
    #: Passes a run always makes, whatever ``--seconds`` says; sized so
    #: ``scenarios x min_passes`` samples leave ten beyond the tail
    #: percentile at a meaningful level.
    min_passes: int

    def tail_percentile(self, scenario_count: int) -> int:
        """The highest whole percentile of per-scenario time with at
        least ten of the ``scenario_count * min_passes`` samples a run
        always collects beyond it.  Fixed per workload, so every run of
        it reports the same percentile however many passes it makes."""
        samples = scenario_count * self.min_passes
        return max(0, math.floor(100 * (samples - 10) / samples))


def _registry(name: str) -> Callable[[int], list]:
    def build(seed: int) -> list:
        from repro.campaigns.registry import build_campaign

        return build_campaign(name, seed)

    return build


def build_byzantine(seed: int) -> list:
    """The ``byzantine`` registry with its targeted-adversary cells run
    on a fixed round budget.

    In the registry the targeted cells run to containment, which takes
    1,000 to 1,700 steps at about 10 ms a step depending on the seed, so
    two draws swing the campaign between 34 and 57 s.  Here the ring
    family's targeted cell is run as :data:`BYZANTINE_TARGETED_PAIRS`
    engine pairs capped at :data:`BYZANTINE_TARGETED_ROUNDS` rounds,
    before containment can be reached, so every seed does the same
    adversary work.  Twelve equal cells also make them the top of the
    per-scenario time distribution that ``scenario_ms_tail`` samples.
    Every other scenario is the registry's own, seed included.
    """
    import dataclasses

    from repro.campaigns.registry import (
        BYZANTINE_GRAPHS,
        CampaignBuilder,
        build_campaign,
    )
    from repro.campaigns.spec import FaultPlan

    kept = [s for s in build_campaign("byzantine", seed) if s.faults.strategy != "targeted"]
    pair = 1 + max(int(s.tag("pairing")) for s in kept)
    builder = CampaignBuilder("byzantine", seed)
    faults = FaultPlan(kind="byzantine", strategy="targeted", density=0.06, radius=3)
    graph, params, d = BYZANTINE_GRAPHS[0]
    for _ in range(BYZANTINE_TARGETED_PAIRS):
        for engine in ("object", "array"):
            builder.add_au(
                graph,
                params,
                d,
                engine=engine,
                max_rounds=BYZANTINE_TARGETED_ROUNDS,
                faults=faults,
                group=f"byzantine-targeted@{graph}",
                tags=(("pairing", str(pair)), ("density", f"{faults.density:.2f}")),
                seed_index=pair,
            )
        pair += 1
    return [
        dataclasses.replace(s, index=i)
        for i, s in enumerate(kept + builder.scenarios)
    ]


def build_large_n(seed: int) -> list:
    """Thin unison from random starts on random 6-regular graphs, each
    cell on the native and array lanes under one shared seed."""
    from repro.campaigns.registry import CampaignBuilder

    builder = CampaignBuilder("large-n", seed)
    for pair, (n, scheduler) in enumerate(LARGE_N_CELLS):
        for engine in LARGE_N_LANES:
            builder.add_au(
                "regular",
                (("n", n), ("degree", LARGE_N_DEGREE)),
                LARGE_N_DIAMETER_BOUND,
                scheduler=scheduler,
                engine=engine,
                start="random",
                max_rounds=LARGE_N_MAX_ROUNDS,
                group=f"large-n@{n}/{scheduler}",
                tags=(("pairing", str(pair)),),
                seed_index=pair,
            )
    return builder.scenarios


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "byzantine",
            "the only workload dominated by the adversary layer: targeted "
            "Byzantine cells re-score the configuration with disorder_potential",
            build_byzantine,
            paired=True,
            min_passes=1,
        ),
        Workload(
            "churn-phase",
            "the only workload that runs the asyncio net lane, incremental "
            "mutate_topology and ChurnProcess, on tiny colony graphs",
            _registry("churn-phase"),
            paired=True,
            min_passes=2,
        ),
        Workload(
            "large-n",
            "the only workload where engine and graph layers do the work: "
            "n=10k synchronous and n=2k single-node steps, native and array",
            build_large_n,
            paired=True,
            min_passes=4,
        ),
        Workload(
            "smoke",
            "the only workload with replica-batch ensembles, static LE/MIS "
            "tasks and storm/bursts/rewire plans; short, so many passes",
            _registry("smoke"),
            paired=False,
            min_passes=14,
        ),
    )
}


def aggregates_digest(aggregates: Dict[str, object]) -> str:
    """SHA-256 of the canonical JSON of a campaign's aggregates (which
    carry no wall-clock field and no run metadata)."""
    text = json.dumps(aggregates, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Aggregate digests at :data:`DEFAULT_SEED`; a run at that seed whose
#: aggregates differ is reported as incorrect.  (The 12 fixed-budget
#: targeted ``byzantine`` rows count as not contained, by design.)
PINNED_DIGESTS: Dict[str, str] = {
    "byzantine": "30c217f70b931b3b8c81bc9cc80b4933b662d12e2ccc11623d6606742b9f4ccc",
    "churn-phase": "dfe577de11774a8be1f348c849c1094e326fbc34ebd3009316f10314ce8cfe03",
    "large-n": "d279c6977aad54a5a1bc50bf5267fc9fb159360d51c77bc8f1256eab4f365e6e",
    "smoke": "f2fd3585158eb12cd31a4e1f82d78ff17064a85f7cc915a6ea4b824a0750bc86",
}


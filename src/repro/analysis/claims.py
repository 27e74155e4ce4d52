"""The paper's claims, each with one table and one acceptance gate.

Every claim the reproduction checks is defined here once: Figures 1
and 2, Table 1, Theorem 1.1 (scaling in ``D`` and independence of
``n``), Corollary 1.2, Theorems 1.3, 1.4 and 3.1, Observation 3.2 and
the fault-recovery application.  A check returns a :class:`ClaimCheck`,
the rendered markdown table plus the list of problems found; the claim
holds when that list is empty.

Sweep claims fold the aggregates of a campaign registry, so the caller
picks the sweep size: the benchmarks under ``benchmarks/`` run the whole
registry, ``repro report`` its first trials.  The other claims run a
fixed experiment at one size.  Both consumers print the same table and
apply the same gate (:data:`CLAIMS` lists them in report order).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stabilization import measure_static_task_stabilization, settle
from repro.analysis.stats import (
    Summary,
    geometric_max_statistics,
    loglog_slope,
    max_geometric_sample,
    ratio_to_log,
)
from repro.analysis.tables import render_table
from repro.baselines.failed_reset_au import (
    LivelockWitness,
    livelock_witness,
    rotate_configuration,
)
from repro.baselines.luby_mis import IDGreedyMIS
from repro.campaigns import fold_worst_rounds, state_count, sweep_summaries
from repro.core.algau import ThinUnison, TransitionType
from repro.core.turns import Turn, faulty, levels_sensed
from repro.faults.injection import random_configuration
from repro.graphs.biological import proneural_cluster
from repro.model.configuration import Configuration
from repro.model.engine import graph_is_good
from repro.model.execution import Execution
from repro.model.scheduler import RotatingScheduler, SynchronousScheduler
from repro.model.signal import Signal
from repro.tasks.mis import AlgMIS
from repro.tasks.restart import restart_exit_time
from repro.tasks.spec import output_validator
from repro.viz.state_diagram import state_diagram, to_text, verify_figure1_structure

Aggregates = Dict[str, object]


@dataclass(frozen=True)
class ClaimCheck:
    """One claim checked: its rendered table and the problems found."""

    table: str
    problems: List[str]

    @property
    def passed(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class Claim:
    """A paper claim: its report heading, the name of the table file the
    benchmarks write (``benchmarks/results/<artifact>.md``), its check,
    and for a sweep claim the campaign registry the check folds."""

    title: str
    artifact: str
    check: Callable[..., ClaimCheck]
    registry: Optional[str] = None

    def run(self, campaign: Callable[[str], Aggregates]) -> ClaimCheck:
        """Check the claim; a sweep claim folds ``campaign(registry)``."""
        if self.registry is None:
            return self.check()
        return self.check(campaign(self.registry))


def _failed_rows(aggregates: Aggregates) -> List[str]:
    failures = aggregates["failures"]
    return [f"failed scenarios: {failures}"] if failures else []


def _trials(rows: Sequence[Aggregates]) -> int:
    return len({row["tags"]["trial"] for row in rows})


# -- Figure 1 ---------------------------------------------------------------

FIGURE1_DIAMETER_BOUND = 2


def check_figure1() -> ClaimCheck:
    """The state diagram extracted from δ has the structure of Figure 1."""
    algorithm = ThinUnison(FIGURE1_DIAMETER_BOUND)
    diagram = state_diagram(algorithm)
    k = algorithm.levels.k
    able = len([t for t in diagram.turns if t.able])
    detours = f"2(k-1) = {2 * (k - 1)}"
    table = render_table(
        ["element", "count", "paper"],
        [
            ("able turns (clock cycle)", able, f"2k = {2 * k}"),
            ("faulty turns (detours)", len(diagram.turns) - able, detours),
            ("AA edges (solid)", len(diagram.aa_edges), f"one 2k-cycle = {2 * k}"),
            ("AF edges (dashed red)", len(diagram.af_edges), detours),
            ("FA edges (dotted blue)", len(diagram.fa_edges), detours),
            ("total states", len(diagram.turns), f"4k-2 = {4 * k - 2} = 12D+6"),
        ],
        title=(
            "Figure 1 — AlgAU state diagram structure "
            f"(D={FIGURE1_DIAMETER_BOUND}, k={k})"
        ),
    )
    return ClaimCheck(
        table + "\n\n```\n" + to_text(diagram) + "\n```",
        verify_figure1_structure(diagram, k),
    )


# -- Figure 2 ---------------------------------------------------------------


def livelock_replay(witness: LivelockWitness, rounds: int) -> List[Configuration]:
    """The witness's configuration at the start of rounds ``0..rounds``
    under its rotating adversary (one round: ``n`` single-node steps)."""
    execution = Execution(
        witness.topology,
        witness.algorithm,
        witness.initial,
        witness.scheduler,
        rng=np.random.default_rng(0),
    )
    configurations = [execution.configuration]
    for _ in range(rounds):
        for _ in range(witness.topology.n):
            execution.step()
        configurations.append(execution.configuration)
    return configurations


def livelock_problems(
    witness: LivelockWitness, replay: Sequence[Configuration]
) -> List[str]:
    """The rounds of ``replay`` that are not the initial configuration
    rotated by the round index (empty: the live-lock holds)."""
    n = witness.topology.n
    return [
        f"round {r} is not the initial configuration rotated by {r % n}"
        for r, configuration in enumerate(replay)
        if configuration != rotate_configuration(witness.initial, r % n)
    ]


def check_figure2() -> ClaimCheck:
    """The failed reset-based AU live-locks on the 8-ring with period
    ``n``, while AlgAU under the same adversary stabilizes."""
    witness = livelock_witness()
    n = witness.topology.n
    replay = livelock_replay(witness, n)
    problems = livelock_problems(witness, replay)

    rng = np.random.default_rng(1)
    algorithm = ThinUnison(witness.topology.diameter)
    contrast = Execution(
        witness.topology,
        algorithm,
        random_configuration(algorithm, witness.topology, rng),
        RotatingScheduler(witness.base_order, shift=witness.shift),
        rng=rng,
    )
    rounds = settle(contrast, graph_is_good, 50_000)
    if rounds is None:
        problems.append("AlgAU did not stabilize under the rotating adversary")

    table = render_table(
        ["round", "ring configuration", "relation to round 0"],
        [
            (
                r,
                " ".join(str(configuration[v]) for v in witness.topology.nodes),
                (
                    "initial"
                    if configuration == witness.initial
                    else f"initial rotated by {r % n}"
                ),
            )
            for r, configuration in enumerate(replay)
        ],
        title=(
            "Figure 2 — live-lock of the failed reset-based AU "
            f"(8-ring, c=2, D=2; period {n}).  AlgAU under the same "
            f"rotating adversary stabilized in {rounds} rounds."
        ),
    )
    return ClaimCheck(table, problems)


# -- Table 1 ----------------------------------------------------------------

TABLE1_DIAMETER_BOUND = 1  # k = 5: small enough for exhaustive signal pairs


def classify_all(algorithm: ThinUnison) -> List[Tuple[Turn, Signal, TransitionType]]:
    """δ's transition type for every turn sensing itself plus any pair
    of turns: ``(turn, signal, type)`` triples."""
    turns = algorithm.turns.all_turns
    classified = []
    for state in turns:
        for extra in itertools.combinations(turns, 2):
            signal = Signal((state,) + extra)
            classified.append((state, signal, algorithm.classify(state, signal)))
    return classified


def _obeys_table1(
    algorithm: ThinUnison, state: Turn, signal: Signal, kind: TransitionType
) -> bool:
    """Whether a transition of type ``kind`` meets its Table 1 guard."""
    levels = algorithm.levels
    if kind is TransitionType.AA:
        return (
            state.able
            and algorithm.locally_good(state, signal)
            and levels_sensed(signal) <= {state.level, levels.forward(state.level)}
        )
    if kind is TransitionType.AF:
        return (
            state.able
            and abs(state.level) >= 2
            and (
                not algorithm.locally_protected(state, signal)
                or signal.senses(faulty(levels.outwards(state.level, -1)))
            )
        )
    if kind is TransitionType.FA:
        outwards = levels.strictly_outwards(state.level)
        return state.faulty and levels_sensed(signal).isdisjoint(outwards)
    return True


def check_table1(diameter_bound: int = TABLE1_DIAMETER_BOUND) -> ClaimCheck:
    """Classifying δ exhaustively yields exactly the three transition
    families of Table 1, each firing only under its guard."""
    algorithm = ThinUnison(diameter_bound)
    classified = classify_all(algorithm)
    tally = Counter(kind for _, _, kind in classified)
    problems = [
        f"{kind.name} transition of {state} under {signal} breaks its guard"
        for state, signal, kind in classified
        if not _obeys_table1(algorithm, state, signal, kind)
    ]
    problems += [
        f"no {kind.name} transition occurs"
        for kind in (TransitionType.AA, TransitionType.AF, TransitionType.FA)
        if not tally[kind]
    ]
    table = render_table(
        [
            "Type",
            "Pre-transition turn",
            "Post-transition turn",
            "Condition",
            "occurrences (exhaustive sweep)",
        ],
        [
            (
                "AA",
                "ℓ̄, 1 ≤ |ℓ| ≤ k",
                "φ+1(ℓ)",
                "v is good and Λ_v ⊆ {ℓ, φ+1(ℓ)}",
                tally[TransitionType.AA],
            ),
            (
                "AF",
                "ℓ̄, 2 ≤ |ℓ| ≤ k",
                "ℓ̂",
                "v ∉ V_p or v senses turn ψ-1(ℓ)̂",
                tally[TransitionType.AF],
            ),
            (
                "FA",
                "ℓ̂, 2 ≤ |ℓ| ≤ k",
                "ψ-1(ℓ)",
                "Λ_v ∩ Ψ>(ℓ) = ∅",
                tally[TransitionType.FA],
            ),
            ("(stay)", "-", "-", "no guard fires", tally[TransitionType.STAY]),
        ],
        title=(
            f"Table 1 — AlgAU transition types (D={diameter_bound}, "
            f"k={algorithm.levels.k}, |Q|={algorithm.state_space_size()})"
        ),
    )
    return ClaimCheck(table, problems)


# -- Theorem 1.1 ------------------------------------------------------------


def check_thm11_scaling(aggregates: Aggregates) -> ClaimCheck:
    """``|Q| = 12D + 6`` exactly; the worst rounds over the adversarial
    starts stay within ``k³`` and grow at most cubically in ``D``."""
    rows = aggregates["rows"]
    worst = fold_worst_rounds(rows)
    bounds = sorted({int(row["diameter_bound"]) for row in rows})
    summaries = {
        d: Summary.of([r for (group, _), r in worst.items() if group == f"D={d}"])
        for d in bounds
    }
    slope = loglog_slope(bounds, [summaries[d].mean for d in bounds])
    states = {row["diameter_bound"]: state_count(row) for row in rows}
    cubes = {d: ThinUnison(d).levels.k ** 3 for d in bounds}

    problems = _failed_rows(aggregates)
    for row in rows:
        d = row["diameter_bound"]
        if state_count(row) != 12 * d + 6:
            problems.append(f"D={d}: |Q| = {state_count(row)}, not 12D+6")
    for d in bounds:
        if summaries[d].maximum > cubes[d]:
            problems.append(f"D={d}: {summaries[d].maximum:.0f} rounds > k^3")
    if slope > 3.2:
        problems.append(f"log-log slope {slope:.2f} > 3.2")

    table = render_table(
        [
            "D",
            "states |Q|",
            "paper 12D+6",
            "rounds (worst over starts)",
            "paper bound k^3",
        ],
        [(d, states[d], 12 * d + 6, str(summaries[d]), cubes[d]) for d in bounds],
        title=(
            f"Thm 1.1 — AlgAU scaling in D (campaign '{aggregates['campaign']}': "
            "bounded-diameter family targeting n=14, shuffled-round-robin "
            "scheduler, worst of 4 adversarial starts "
            f"× {_trials(rows)} trials, {aggregates['scenario_count']} scenarios); "
            f"log-log slope of rounds vs D = {slope:.2f} (paper: ≤ 3)"
        ),
    )
    return ClaimCheck(table, problems)


def check_thm11_n_independence(aggregates: Aggregates) -> ClaimCheck:
    """At fixed ``D``, growing ``n`` by 8× leaves ``|Q|`` at ``12D + 6``
    and does not even double the stabilization rounds."""
    rows = aggregates["rows"]
    (d,) = {int(row["diameter_bound"]) for row in rows}
    worst = fold_worst_rounds(rows)
    ns = sorted({int(row["n"]) for row in rows})
    states = {row["group"]: state_count(row) for row in rows}
    summaries = [
        Summary.of([r for (group, _), r in worst.items() if group == f"n={n}"])
        for n in ns
    ]
    means = [summary.mean for summary in summaries]

    problems = _failed_rows(aggregates)
    problems += [
        f"n={n}: |Q| = {states[f'n={n}']}, not 12D+6"
        for n in ns
        if states[f"n={n}"] != 12 * d + 6
    ]
    if max(means) > 2.0 * min(means):
        problems.append("mean rounds grow more than 2x across the n sweep")

    table = render_table(
        ["n", "states |Q| (must stay 12D+6)", "rounds (worst over starts)"],
        [(n, states[f"n={n}"], str(s)) for n, s in zip(ns, summaries)],
        title=(
            f"Thm 1.1 — n-independence at D={d} (campaign "
            f"'{aggregates['campaign']}', "
            f"{aggregates['scenario_count']} scenarios): growing n by 8x "
            "leaves the state space untouched and stabilization "
            "essentially flat"
        ),
    )
    return ClaimCheck(table, problems)


# -- Corollary 1.2 ----------------------------------------------------------


def check_cor12(aggregates: Aggregates) -> ClaimCheck:
    """The synchronizer lift has exactly ``|Q|² · (12D + 6)`` states and
    costs at most 6× the synchronous rounds plus the AU term ``k³``."""
    rows = aggregates["rows"]
    (d,) = {int(row["diameter_bound"]) for row in rows}
    unison = ThinUnison(d)
    unison_states = unison.state_space_size()
    # (task, n) -> {"sync": rows of Π, "async": rows of Π*}
    cells: Dict[tuple, Dict[str, list]] = {}
    for row in rows:
        lane = "async" if row["algorithm"].startswith("sync-") else "sync"
        n = row["graph_params"]["n"]
        cells.setdefault((row["task"], n), {"sync": [], "async": []})[lane].append(row)

    problems = _failed_rows(aggregates)
    table_rows = []
    for (task, n), lanes in cells.items():
        sync = Summary.of([r["rounds"] for r in lanes["sync"]])
        lifted = Summary.of([r["rounds"] for r in lanes["async"]])
        inner = state_count(lanes["sync"][0])
        product = state_count(lanes["async"][0])
        table_rows.append((task.upper(), n, str(sync), str(lifted), inner, product))
        if product != inner * inner * unison_states:
            problems.append(f"{task} n={n}: |Q*| = {product}, not |Q|²·(12D+6)")
        # Asynchrony costs a bounded multiplicative overhead plus the
        # O(D^3) AU additive term, nowhere near an Ω(n) blowup.
        if lifted.mean > 6 * sync.mean + unison.levels.k**3:
            problems.append(f"{task} n={n}: async rounds exceed 6·sync + k^3")

    table = render_table(
        [
            "task",
            "n",
            "sync rounds (Π)",
            "async rounds (Π*)",
            "|Q|",
            "|Q*| = |Q|²·(12D+6)",
        ],
        table_rows,
        title=(
            f"Cor 1.2 — synchronizer overhead at D={d} (campaign "
            f"'{aggregates['campaign']}': async = shuffled-round-robin, "
            f"{_trials(rows)} seed-paired random-start trials); AU factor "
            f"12D+6 = {unison_states}"
        ),
    )
    return ClaimCheck(table, problems)


# -- Theorems 1.3 and 1.4 ---------------------------------------------------


def _one_state_count(rows: Sequence[Aggregates]) -> List[str]:
    counts = {state_count(row) for row in rows}
    return [] if len(counts) == 1 else [f"|Q| depends on n: {counts}"]


def check_thm13(aggregates: Aggregates) -> ClaimCheck:
    """AlgLE: rounds/log2(n) drifts at most 4× across the n sweep (Θ(n)
    growth would drift ~10×) and ``|Q|`` does not depend on ``n``."""
    rows = aggregates["rows"]
    by_n = sweep_summaries(rows, "n")
    by_d = sweep_summaries(rows, "D")
    ratios = ratio_to_log(list(by_n), [s.mean for s in by_n.values()])
    states = {row["group"]: state_count(row) for row in rows}

    problems = _failed_rows(aggregates)
    if max(ratios) > 4.0 * max(min(ratios), 1.0):
        problems.append("rounds/log2(n) drifts more than 4x across the n sweep")
    problems += _one_state_count([r for r in rows if r["group"].startswith("n=")])

    table_n = render_table(
        ["n", "states |Q|", "rounds", "rounds / log2(n)"],
        [
            (n, states[f"n={n}"], str(summary), f"{ratio:.1f}")
            for (n, summary), ratio in zip(by_n.items(), ratios)
        ],
        title=(
            f"Thm 1.3 — AlgLE rounds vs n at D=2 (campaign "
            f"'{aggregates['campaign']}': synchronous schedule, "
            f"{_trials(rows)} random-start trials; O(D log n) ⇒ flat ratio)"
        ),
    )
    table_d = render_table(
        ["D", "states |Q|", "rounds"],
        [(d, states[f"D={d}"], str(summary)) for d, summary in by_d.items()],
        title="Thm 1.3 — AlgLE rounds vs D at n=12 (epoch length = D + 1)",
    )
    return ClaimCheck(table_n + "\n\n" + table_d, problems)


def check_thm14(aggregates: Aggregates) -> ClaimCheck:
    """AlgMIS: rounds over ``(D + log2 n)·log2 n`` drift at most 5×
    across the n sweep and ``|Q|`` does not depend on ``n``."""
    rows = aggregates["rows"]
    (d,) = {int(row["diameter_bound"]) for row in rows}
    by_n = sweep_summaries(rows, "n")
    states = {row["group"]: state_count(row) for row in rows}

    def bound(n: int) -> float:
        log_n = max(1.0, math.log2(n))
        return (d + log_n) * log_n

    ratios = [summary.mean / bound(n) for n, summary in by_n.items()]
    problems = _failed_rows(aggregates)
    if max(ratios) > 5.0 * max(min(ratios), 0.2):
        problems.append("rounds/((D+log n)·log n) drifts more than 5x")
    problems += _one_state_count(rows)

    table = render_table(
        ["n", "states |Q|", "rounds", "(D+log n)·log n", "ratio"],
        [
            (n, states[f"n={n}"], str(summary), f"{bound(n):.0f}", f"{ratio:.2f}")
            for (n, summary), ratio in zip(by_n.items(), ratios)
        ],
        title=(
            f"Thm 1.4 — AlgMIS rounds vs n at D={d} (campaign "
            f"'{aggregates['campaign']}': synchronous schedule, "
            f"{_trials(rows)} random-start trials; O((D + log n) log n) ⇒ "
            "flat ratio)"
        ),
    )
    return ClaimCheck(table, problems)


# -- Theorem 3.1 ------------------------------------------------------------


THM31_NODES = 14  # the Restart graph's size at every D


def check_thm31() -> ClaimCheck:
    """From random starts holding a σ-state, all nodes exit Restart
    concurrently within ``6D + 4`` rounds; the mean exit time grows
    with ``D``, at most linearly."""
    diameter_bounds = (1, 2, 3, 4, 6, 8)
    trials = 15
    times = {
        d: [
            restart_exit_time(d, THM31_NODES, np.random.default_rng(100 * d + trial))
            for trial in range(trials)
        ]
        for d in diameter_bounds
    }
    # A trial without a concurrent exit counts at the 10D + 20 budget.
    summaries = {
        d: Summary.of([10 * d + 20 if t is None else t for t in ts])
        for d, ts in times.items()
    }
    means = [summaries[d].mean for d in diameter_bounds]
    slope = loglog_slope(diameter_bounds, means)

    problems = []
    for d in diameter_bounds:
        if None in times[d]:
            problems.append(f"D={d}: a trial never exits concurrently")
        if summaries[d].maximum > 6 * d + 4:
            problems.append(f"D={d}: exit after {summaries[d].maximum:.0f} > 6D+4")
    if any(later <= earlier for earlier, later in zip(means, means[1:])):
        problems.append("the mean exit time does not grow with D")
    if slope > 1.25:
        problems.append(f"log-log slope {slope:.2f} > 1.25")

    table = render_table(
        ["D", "σ-states (2D+1)", "exit time (rounds)", "bound 6D+4", "concurrent"],
        [
            (
                d,
                2 * d + 1,
                str(summaries[d]),
                6 * d + 4,
                "NO" if None in times[d] else "yes",
            )
            for d in diameter_bounds
        ],
        title=(
            "Thm 3.1 — Restart: all nodes exit concurrently within O(D) "
            f"rounds ({trials} random starts per D; log-log slope "
            f"{slope:.2f}, paper: ≤ 1)"
        ),
    )
    return ClaimCheck(table, problems)


# -- Observation 3.2 --------------------------------------------------------

OBS32_P = 0.25  # the geometric variables' success probability


def check_obs32() -> ClaimCheck:
    """The max of ``n`` Geom(p) grows as Θ(log n): the mean over log2(n)
    stays within a 2× band, and no draw at the largest ``n`` falls below
    ``0.5 · log2 n``."""
    ns = (4, 16, 64, 256, 1024)
    trials = 400
    stats = [geometric_max_statistics(n, OBS32_P, trials=trials, seed=n) for n in ns]
    means = [s.mean for s in stats]
    ratios = [m / math.log2(n) for m, n in zip(means, ns)]

    problems = []
    if max(ratios) > 2.0 * min(ratios):
        problems.append("mean / log2(n) leaves its 2x band")
    if means != sorted(means):
        problems.append("the mean does not grow with n")
    rng = np.random.default_rng(7)
    worst = min(max_geometric_sample(ns[-1], OBS32_P, rng) for _ in range(200))
    if worst < 0.5 * math.log2(ns[-1]):
        problems.append(f"a draw of {worst} falls below 0.5·log2(n)")

    table = render_table(
        ["n", "mean", "median", "max", "mean / log2(n)"],
        [
            (
                n,
                f"{s.mean:.2f}",
                f"{s.median:.0f}",
                f"{s.maximum:.0f}",
                f"{ratio:.2f}",
            )
            for n, s, ratio in zip(ns, stats, ratios)
        ],
        title=(
            f"Obs 3.2 — max of n Geom(p={OBS32_P}) over {trials} trials: "
            "Θ(log n) (flat normalized column)"
        ),
    )
    return ClaimCheck(table, problems)


# -- The application: fault tolerance on biological topologies --------------


def mis_contrast(trials: int) -> Tuple[int, int]:
    """Corrupted starts on a proneural cluster: how many runs reach a
    valid MIS under AlgMIS and under the IDGreedyMIS comparator."""
    algmis_ok = 0
    baseline_ok = 0
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        tissue = proneural_cluster(4, 3)
        d = tissue.diameter
        is_valid = output_validator("mis", tissue)

        algorithm = AlgMIS(d)
        result = measure_static_task_stabilization(
            algorithm,
            tissue,
            random_configuration(algorithm, tissue, rng),
            SynchronousScheduler(),
            rng,
            is_valid,
            max_rounds=80_000,
            confirm_rounds=10 * (d + 3),
        )
        algmis_ok += result.stabilized

        baseline = IDGreedyMIS(tissue.n)
        execution = Execution(
            tissue,
            baseline,
            random_configuration(baseline, tissue, rng),
            SynchronousScheduler(),
            rng=rng,
        )
        execution.run(max_rounds=200)
        out = execution.configuration.output_vector(baseline)
        if all(o is not None for o in out) and is_valid(out):
            baseline_ok += 1
    return algmis_ok, baseline_ok


def check_fault_recovery(aggregates: Aggregates) -> ClaimCheck:
    """A stabilized colony clock heals every transient burst; AlgMIS
    heals every corrupted proneural start, the comparator does not."""
    mis_trials = 8
    trials = aggregates["scenario_count"]
    recovered = aggregates["groups"]["au-recovery"]["recovered"]
    recoveries = [
        row["recovery_rounds"]
        for row in aggregates["rows"]
        if row["recovery_rounds"] is not None
    ]
    algmis_ok, baseline_ok = mis_contrast(mis_trials)

    problems = _failed_rows(aggregates)
    if recovered != trials:
        problems.append(f"{recovered}/{trials} runs recovered from every burst")
    if algmis_ok != mis_trials:
        problems.append(f"AlgMIS healed only {algmis_ok}/{mis_trials} starts")
    if baseline_ok == mis_trials:
        problems.append("IDGreedyMIS healed every start: no contrast")

    table = render_table(
        ["experiment", "result"],
        [
            (
                f"AlgAU(D=2) n=16, 3 bursts @30% × {trials} trials "
                f"(campaign '{aggregates['campaign']}')",
                f"{recovered}/{trials} runs recovered from "
                "every burst; worst recovery rounds: "
                f"{Summary.of(recoveries) if recoveries else '—'}",
            ),
            (
                f"AlgMIS on proneural(4x3), corrupted start × {mis_trials}",
                f"{algmis_ok}/{mis_trials} valid SOP patterns (self-stabilizing)",
            ),
            (
                f"IDGreedyMIS on proneural(4x3), corrupted start × {mis_trials}",
                f"{baseline_ok}/{mis_trials} valid patterns (no recovery "
                "mechanism)",
            ),
        ],
        title=(
            "Application — fault tolerance on biological topologies: "
            "the paper's algorithms heal, classic comparators do not"
        ),
    )
    return ClaimCheck(table, problems)


# -- The claims, in report order --------------------------------------------

FIGURE1 = Claim("Figure 1 — state diagram", "fig1_state_diagram", check_figure1)
FIGURE2 = Claim("Figure 2 — Appendix-A live-lock", "fig2_livelock", check_figure2)
TABLE1 = Claim("Table 1 — transition types", "table1_transition_types", check_table1)
THM11_SCALING = Claim(
    "Thm 1.1 — AlgAU (O(D) states, O(D^3) rounds)",
    "thm11_au_scaling",
    check_thm11_scaling,
    "thm11-scaling",
)
THM11_N_INDEPENDENCE = Claim(
    "Thm 1.1 — independence of n",
    "thm11_n_independence",
    check_thm11_n_independence,
    "thm11-n-independence",
)
COR12 = Claim(
    "Cor 1.2 — the synchronizer",
    "cor12_synchronizer",
    check_cor12,
    "cor12-synchronizer",
)
THM13 = Claim(
    "Thm 1.3 — AlgLE (O(D log n))",
    "thm13_le_scaling",
    check_thm13,
    "thm13-le-scaling",
)
THM14 = Claim(
    "Thm 1.4 — AlgMIS (O((D + log n) log n))",
    "thm14_mis_scaling",
    check_thm14,
    "thm14-mis-scaling",
)
THM31 = Claim(
    "Thm 3.1 — Restart (O(D) concurrent exit)",
    "thm31_restart",
    check_thm31,
)
OBS32 = Claim("Obs 3.2 — max-geometric growth", "obs32_geometric_max", check_obs32)
FAULT_RECOVERY = Claim(
    "Application — transient-fault recovery",
    "fault_recovery",
    check_fault_recovery,
    "fault-recovery",
)

CLAIMS: Tuple[Claim, ...] = (
    FIGURE1,
    FIGURE2,
    TABLE1,
    THM11_SCALING,
    THM11_N_INDEPENDENCE,
    COR12,
    THM13,
    THM14,
    THM31,
    OBS32,
    FAULT_RECOVERY,
)

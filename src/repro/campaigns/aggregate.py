"""Campaign aggregation and artifact emission.

:func:`aggregate_results` folds a campaign's index-sorted results into
one deterministic payload: per-scenario rows (scenario axes joined with
measured outcomes) plus per-group :class:`~repro.analysis.stats.Summary`
statistics.  Wall-clock timing never enters the payload — it lives in
the separate ``meta`` section of the artifact — so equal campaigns
serialize byte-identically regardless of worker count, shard sizes, or
completion order.

:func:`write_campaign_artifact` persists ``{"aggregates": ..., "meta":
...}`` via :func:`repro.analysis.tables.write_json`; the rendering side
lives in :func:`repro.analysis.report.campaign_report`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import Summary
from repro.analysis.tables import write_json
from repro.campaigns.spec import ALGORITHM_FACTORIES, Scenario, ScenarioResult


def _row(scenario: Scenario, result: ScenarioResult) -> Dict[str, object]:
    return {
        "index": scenario.index,
        "scenario_id": scenario.scenario_id,
        "group": scenario.group,
        "task": scenario.task,
        "graph": scenario.graph,
        "graph_params": dict(scenario.graph_params),
        "diameter_bound": scenario.diameter_bound,
        "scheduler": scenario.scheduler,
        "engine": scenario.engine,
        "runtime": scenario.runtime,
        "net_params": dict(scenario.net_params),
        "start": scenario.start,
        "algorithm": scenario.algorithm,
        "faults": scenario.faults.label,
        "seed": scenario.seed,
        "tags": dict(scenario.tags),
        "n": result.n,
        "m": result.m,
        "stabilized": result.stabilized,
        "rounds": result.rounds,
        "steps": result.steps,
        "recovered": result.recovered,
        "recovery_rounds": result.recovery_rounds,
        "containment_radius": result.containment_radius,
        "clean_fraction": result.clean_fraction,
        "state_bits": result.state_bits,
        "moves": result.moves,
        "churn_events": result.churn_events,
        "pulse_tightness": result.pulse_tightness,
        "detail": result.detail,
        "status": result.status,
    }


def _row_ok(row: Dict[str, object]) -> bool:
    """A scenario counts as failed if it did not stabilize *or* if its
    fault plan's recovery did not succeed — a recovery regression must
    fail the campaign (and therefore the CI smoke gate), not just dent
    a summary statistic."""
    return bool(row["stabilized"]) and row["recovered"] is not False


def _group_summary(rows: List[Dict[str, object]]) -> Dict[str, object]:
    stabilized = [r for r in rows if r["stabilized"]]
    recoveries = [
        r["recovery_rounds"]
        for r in rows
        if r["recovery_rounds"] is not None
    ]
    recovered_universe = [r for r in rows if r["recovered"] is not None]
    radii = [
        r["containment_radius"]
        for r in rows
        if r["containment_radius"] is not None
    ]
    clean = [
        r["clean_fraction"] for r in rows if r["clean_fraction"] is not None
    ]
    tightness = [
        r["pulse_tightness"]
        for r in rows
        if r.get("pulse_tightness") is not None
    ]
    return {
        "count": len(rows),
        "failures": sum(1 for r in rows if not _row_ok(r)),
        "rounds": (
            Summary.of([r["rounds"] for r in stabilized]).to_dict()
            if stabilized
            else None
        ),
        "recovered": (
            sum(1 for r in recovered_universe if r["recovered"])
            if recovered_universe
            else None
        ),
        "recovery_rounds": Summary.of(recoveries).to_dict() if recoveries else None,
        "containment_radius": Summary.of(radii).to_dict() if radii else None,
        "clean_fraction": Summary.of(clean).to_dict() if clean else None,
        "pulse_tightness": Summary.of(tightness).to_dict() if tightness else None,
    }


def _dominates(a: tuple, b: tuple) -> bool:
    """Pareto dominance: ``a`` no worse on every axis, better on one."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def compute_pareto(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The time/space/workload/generality Pareto structure of a
    multi-algorithm campaign.

    AU rows are folded per *cell* — ``graph family × daemon`` — and,
    within a cell, per algorithm: mean stabilization ``rounds``, exact
    ``state_bits`` per node (``None`` when the state space is
    unbounded, e.g. min-unison), mean work in ``moves``, all over the
    stabilized rows (engine-paired rows are bit-identical, so
    double-counting engines cannot shift a mean), plus the declared
    :meth:`~repro.campaigns.spec.AlgorithmSpec.coverage`.  The
    ``frontier`` of a cell is the non-dominated set under ``(rounds,
    state_bits, moves)`` minimized and ``coverage`` maximized, with
    unbounded state treated as ``+inf`` bits.  The generality axis is
    load-bearing: from benign random starts the Figure 2 strawman beats
    every sound algorithm on all three measured axes — precisely
    *because* it dropped the reset-interrupt rule that buys
    self-stabilization — so a three-axis frontier would crown it the
    winner.  With coverage as a fourth axis an algorithm can only be
    dominated by one at least as general, which is the paper's Sec. 5
    comparison stated as a dominance relation.  Algorithms with no
    stabilized row never enter the frontier but stay visible in
    ``cells``.  Cells covering fewer than two algorithms are dropped —
    a frontier needs a comparison — so single-algorithm campaigns get
    an empty result and no ``pareto`` section in their aggregates.

    Rows arrive index-sorted from :func:`aggregate_results`, so the
    folded payload is bit-identical across worker counts.
    """
    cells: Dict[tuple, Dict[str, List[Dict[str, object]]]] = {}
    for row in rows:
        if row["task"] != "au":
            continue
        key = (str(row["graph"]), str(row["scheduler"]))
        cells.setdefault(key, {}).setdefault(
            str(row["algorithm"]), []
        ).append(row)
    pareto: Dict[str, object] = {}
    for (graph, scheduler), algos in sorted(cells.items()):
        if len(algos) < 2:
            continue
        summaries: Dict[str, Dict[str, object]] = {}
        for algorithm, algo_rows in sorted(algos.items()):
            ok = [
                r
                for r in algo_rows
                if r["stabilized"] and r["moves"] is not None
            ]
            bits = next(
                (
                    r["state_bits"]
                    for r in algo_rows
                    if r["state_bits"] is not None
                ),
                None,
            )
            spec = ALGORITHM_FACTORIES.get(algorithm)
            summaries[algorithm] = {
                "rows": len(algo_rows),
                "stabilized": sum(1 for r in algo_rows if r["stabilized"]),
                "state_bits": bits,
                "rounds": (
                    sum(int(r["rounds"]) for r in ok) / len(ok) if ok else None
                ),
                "moves": (
                    sum(int(r["moves"]) for r in ok) / len(ok) if ok else None
                ),
                "coverage": spec.coverage() if spec is not None else 0,
            }
        contenders = {
            algorithm: summary
            for algorithm, summary in summaries.items()
            if summary["rounds"] is not None
        }

        def metric(summary: Dict[str, object]) -> tuple:
            """Minimized dominance key: (-coverage, rounds, bits, moves)."""
            bits = summary["state_bits"]
            return (
                -summary["coverage"],
                summary["rounds"],
                float("inf") if bits is None else bits,
                summary["moves"],
            )

        frontier = sorted(
            algorithm
            for algorithm, summary in contenders.items()
            if not any(
                other != algorithm
                and _dominates(metric(other_summary), metric(summary))
                for other, other_summary in contenders.items()
            )
        )
        pareto[f"{graph}|{scheduler}"] = {
            "graph": graph,
            "scheduler": scheduler,
            "cells": summaries,
            "frontier": frontier,
        }
    return pareto


def aggregate_results(
    name: str,
    scenarios: Sequence[Scenario],
    results: Sequence[ScenarioResult],
    seed: int,
) -> Dict[str, object]:
    """The deterministic aggregates of one completed campaign."""
    by_id = {result.scenario_id: result for result in results}
    ordered = sorted(scenarios, key=lambda s: s.index)
    rows = [_row(scenario, by_id[scenario.scenario_id]) for scenario in ordered]
    groups: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        groups.setdefault(str(row["group"]), []).append(row)
    failures = [r["scenario_id"] for r in rows if not _row_ok(r)]
    payload: Dict[str, object] = {
        "campaign": name,
        "seed": seed,
        "scenario_count": len(rows),
        "stabilized_count": len(rows) - len(failures),
        "failure_count": len(failures),
        "failures": failures,
        "groups": {
            group: _group_summary(group_rows)
            for group, group_rows in sorted(groups.items())
        },
        "rows": rows,
    }
    pareto = compute_pareto(rows)
    if pareto:
        payload["pareto"] = pareto
    return payload


def fold_worst_rounds(
    rows: Sequence[Dict[str, object]], tag: str = "trial"
) -> Dict[tuple, int]:
    """Worst ``rounds`` per ``(group, tag value)`` over aggregate rows.

    The paper's scaling measurements report the worst stabilization
    over the adversarial-start suite per trial; campaigns encode each
    start as its own scenario, so benchmarks re-fold the rows with this
    helper before summarizing per sweep point.
    """
    worst: Dict[tuple, int] = {}
    for row in rows:
        value = row["tags"].get(tag)
        if value is None:
            raise ValueError(
                f"row {row['scenario_id']!r} carries no {tag!r} tag; "
                f"fold_worst_rounds needs a campaign whose scenarios are "
                f"tagged with {tag!r} (its tags: {sorted(row['tags'])})"
            )
        worst[(row["group"], value)] = max(
            worst.get((row["group"], value), 0), int(row["rounds"])
        )
    return worst


def state_count(row: Dict[str, object]) -> Optional[int]:
    """``|Q|`` of an aggregate row, from its exact ``state_bits``
    (``None`` when the row has none: unbounded or errored)."""
    bits = row["state_bits"]
    return None if bits is None else round(2.0**bits)


def sweep_summaries(rows: Sequence[Dict[str, object]], axis: str) -> Dict[int, Summary]:
    """Stabilization-rounds summaries of the sweep groups named
    ``<axis>=<value>``, keyed by the integer value in ascending order.

    Only stabilized rows enter a summary (as in the per-group
    aggregates), so a point whose every row failed is absent.
    """
    prefix = f"{axis}="
    rounds: Dict[int, List[int]] = {}
    for row in rows:
        group = str(row["group"])
        if group.startswith(prefix) and row["stabilized"]:
            rounds.setdefault(int(group[len(prefix) :]), []).append(int(row["rounds"]))
    return {value: Summary.of(rounds[value]) for value in sorted(rounds)}


#: The measured (engine-independent) columns of an aggregate row —
#: everything except the identity/axis columns.
MEASURED_COLUMNS = (
    "n",
    "m",
    "stabilized",
    "rounds",
    "steps",
    "recovered",
    "recovery_rounds",
    "containment_radius",
    "clean_fraction",
    "state_bits",
    "moves",
    "churn_events",
    "pulse_tightness",
    "detail",
    "status",
)


def measured_payload(result: ScenarioResult) -> Dict[str, object]:
    """The measured columns of ``result``, as a plain dict.

    This is the slice of a result row that is a pure function of the
    scenario's :meth:`~repro.campaigns.spec.Scenario.content_payload`
    — everything except the identity labels (``scenario_id``/``index``/
    ``group``/``tags``) and the wall-clock ``elapsed_ms``.  It is what
    the content-addressed result cache (:mod:`repro.campaigns.cache`)
    persists and what :func:`verify_engine_pairing` compares, so the
    two layers can never drift apart on what "the measured outcome"
    means.
    """
    return {column: getattr(result, column) for column in MEASURED_COLUMNS}


def _lane(row: Dict[str, object]) -> str:
    """A row's execution lane: engine plus runtime (``runtime`` defaults
    to ``sim`` so pre-runtime-axis artifact rows keep verifying)."""
    return f"{row['engine']}/{row.get('runtime', 'sim')}"


def verify_engine_pairing(
    rows: Sequence[Dict[str, object]],
    tag: str = "pairing",
    allow_unpaired: bool = False,
) -> List[str]:
    """Cross-check engine-paired aggregate rows.

    Registries built with shared ``seed_index`` values (the
    ``byzantine`` campaign across engines, the ``net-smoke`` campaign
    across the sim/net runtime lanes) run every experiment once per
    *lane* — engine × runtime — under the same seed; since AlgAU and
    the permanent-fault adversary are deterministic (and the net lane's
    zero-noise runs mirror the sim parity stream), all measured columns
    must be bit-identical within a pairing.  Returns a list of
    human-readable mismatch descriptions (empty = the lanes agree), and
    raises :class:`ValueError` if the rows are not actually paired.
    ``allow_unpaired`` skips tag-less rows instead (for campaigns like
    ``net-smoke`` that mix paired cells with deliberately unpaired
    ones, e.g. lossy-link coverage that cannot be bit-compared).
    """
    pairs: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        value = row["tags"].get(tag)
        if value is None:
            if allow_unpaired:
                continue
            raise ValueError(
                f"row {row['scenario_id']!r} carries no {tag!r} tag; "
                f"verify_engine_pairing needs an engine-paired campaign"
            )
        pairs.setdefault(str(value), []).append(row)
    mismatches: List[str] = []
    for value, paired in sorted(pairs.items()):
        lanes = sorted(_lane(r) for r in paired)
        if len(paired) < 2 or len(set(lanes)) < 2:
            raise ValueError(
                f"pairing {value!r} covers lanes {lanes}; expected "
                f"one row per engine/runtime lane"
            )
        reference = paired[0]
        for other in paired[1:]:
            for column in MEASURED_COLUMNS:
                if reference.get(column) != other.get(column):
                    mismatches.append(
                        f"pairing {value}: {column} differs between "
                        f"{_lane(reference)} ({reference.get(column)!r}) and "
                        f"{_lane(other)} ({other.get(column)!r}) "
                        f"[{reference['scenario_id']}]"
                    )
    return mismatches


def write_campaign_artifact(
    aggregates: Dict[str, object],
    path: str,
    meta: Optional[Dict[str, object]] = None,
) -> str:
    """Persist ``BENCH_campaign_<name>.json``.

    The ``aggregates`` section is bit-identical for equal campaigns;
    ``meta`` (worker count, wall-clock, checkpoint path) is the only
    run-dependent part and is kept strictly separated so artifact diffs
    across PRs and worker counts stay meaningful.
    """
    return write_json(path, {"aggregates": aggregates, "meta": meta or {}})


def default_artifact_path(name: str) -> str:
    """The conventional artifact filename for campaign ``name``."""
    return f"BENCH_campaign_{name}.json"

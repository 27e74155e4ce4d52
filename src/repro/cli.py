"""Command-line interface: ``repro <subcommand>``.

Subcommands regenerate the paper's artifacts from the terminal:

* ``repro figure1 --diameter-bound 2`` — the AlgAU state diagram (text
  or DOT);
* ``repro figure2`` — the Appendix-A live-lock trace;
* ``repro table1`` — Table 1 regenerated from ``δ``: an exhaustive
  classification of every turn against every sensed pair, with the
  occurrences of each transition type and a check of its guard;
* ``repro au --diameter-bound 3`` — one adversarial AlgAU run with a
  per-round goodness trace;
* ``repro report`` — every paper claim of ``repro.analysis.claims``
  checked, the sweeps on their first ``--trials`` trials;
* ``repro engines`` — the execution-engine registry with a per-engine
  availability probe (the ``native`` row reports which compiled backend
  resolved, or why it fell back);
* ``repro algorithms`` — the algorithm registry: per-algorithm task,
  engine lanes, state bits (exact at a sample diameter bound), and the
  Scenario axes each entry supports;
* ``repro campaign {list,run,report}`` — registry-driven scenario
  campaigns: sharded parallel sweeps over graph family × scheduler ×
  adversarial start × fault plan × engine × algorithm, checkpointed to
  JSONL and aggregated into ``BENCH_campaign_*.json`` artifacts.  The
  ``byzantine`` registry exercises the permanent-fault resilience
  subsystem (engine-paired containment sweeps); ``pareto-unison``
  sweeps the algorithm zoo into a time/space/workload frontier;
  ``net-smoke`` pairs the simulation and message-passing lanes; the
  ``thm11-*``, ``thm13-le-scaling``, ``thm14-mis-scaling`` and
  ``cor12-synchronizer`` registries are the paper's scaling sweeps;
* ``repro net run`` — one AlgAU run on the message-passing runtime:
  per-node actors exchanging clock messages over fair-lossy
  links (``--delay/--jitter/--loss/--duplicate``), with a per-round
  goodness trace and message statistics.

``python -m repro`` (via :mod:`repro.__main__`) and the installed
``repro`` console script both invoke :func:`main`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np


def _cmd_figure1(args: argparse.Namespace) -> int:
    from repro.core.algau import ThinUnison
    from repro.viz.state_diagram import state_diagram, to_dot, to_text

    algorithm = ThinUnison(args.diameter_bound)
    diagram = state_diagram(algorithm)
    print(to_dot(diagram) if args.dot else to_text(diagram))
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.analysis.claims import livelock_problems, livelock_replay
    from repro.baselines.failed_reset_au import livelock_witness

    witness = livelock_witness(args.diameter_bound, args.c)
    replay = livelock_replay(witness, args.rounds)
    n = witness.topology.n
    print(f"ring of {n} nodes, algorithm {witness.algorithm.name}")
    for round_index, configuration in enumerate(replay[:-1]):
        states = " ".join(f"{str(configuration[v]):>3s}" for v in range(n))
        print(f"round {round_index:2d}: {states}")
    verdict = "??" if livelock_problems(witness, replay) else "LIVE-LOCK"
    print(
        f"after {args.rounds} rounds: configuration = initial rotated "
        f"by {args.rounds % n} -> {verdict}"
    )
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.claims import check_table1

    check = check_table1(args.diameter_bound)
    print(check.table)
    for problem in check.problems:
        print(f"PROBLEM: {problem}")
    return 0 if check.passed else 1


def _cmd_au(args: argparse.Namespace) -> int:
    from repro.core.algau import ThinUnison
    from repro.core.predicates import good_nodes
    from repro.faults.injection import au_adversarial_suite
    from repro.graphs.generators import bounded_diameter_family
    from repro.model.engine import create_execution
    from repro.model.scheduler import ShuffledRoundRobinScheduler

    rng = np.random.default_rng(args.seed)
    topology = bounded_diameter_family(args.diameter_bound, args.nodes, rng)
    algorithm = ThinUnison(args.diameter_bound)
    initial = au_adversarial_suite(algorithm, topology, rng)[args.start]
    execution = create_execution(
        topology,
        algorithm,
        initial,
        ShuffledRoundRobinScheduler(),
        rng=rng,
        engine=args.engine,
    )
    print(
        f"{topology.name}: n={topology.n} D={args.diameter_bound} "
        f"start={args.start} states={algorithm.state_space_size()} "
        f"engine={args.engine}"
    )
    while not execution.graph_is_good():
        execution.run_rounds(1)
        good = len(good_nodes(algorithm, execution.configuration))
        print(
            f"round {execution.completed_rounds:4d}: good nodes "
            f"{good}/{topology.n}"
        )
        if execution.completed_rounds > args.max_rounds:
            print("did not stabilize within the budget", file=sys.stderr)
            return 1
    print(f"stabilized (good graph) after {execution.completed_rounds} rounds")
    return 0


def _cmd_net_run(args: argparse.Namespace) -> int:
    from repro.core.algau import ThinUnison
    from repro.core.predicates import good_nodes
    from repro.faults.injection import au_adversarial_suite
    from repro.graphs.generators import bounded_diameter_family
    from repro.model.scheduler import SynchronousScheduler
    from repro.net import LinkConfig, create_net_execution

    rng = np.random.default_rng(args.seed)
    topology = bounded_diameter_family(args.diameter_bound, args.nodes, rng)
    algorithm = ThinUnison(args.diameter_bound)
    initial = au_adversarial_suite(algorithm, topology, rng)[args.start]
    try:
        link_config = LinkConfig(
            delay=args.delay,
            jitter=args.jitter,
            loss=args.loss,
            duplicate=args.duplicate,
        )
    except Exception as error:
        print(f"bad link configuration: {error}", file=sys.stderr)
        return 2
    execution = create_net_execution(
        topology,
        algorithm,
        initial,
        SynchronousScheduler(),
        rng=rng,
        link_config=link_config,
        noise_seed=args.seed,
    )
    print(
        f"{topology.name}: n={topology.n} D={args.diameter_bound} "
        f"start={args.start} links={link_config} runtime=net"
    )
    while not execution.graph_is_good():
        execution.run_rounds(1)
        good = len(good_nodes(algorithm, execution.configuration))
        stats = execution.stats
        print(
            f"round {execution.completed_rounds:4d}: good nodes "
            f"{good}/{topology.n}  sent {stats.messages_sent} "
            f"dropped {stats.messages_dropped}"
        )
        if execution.completed_rounds > args.max_rounds:
            print("did not stabilize within the budget", file=sys.stderr)
            return 1
    stats = execution.stats
    per_node_round = stats.per_node_round(
        topology.n, max(1, execution.completed_rounds)
    )
    print(
        f"stabilized (good graph) after {execution.completed_rounds} "
        f"rounds at virtual time {execution.virtual_time:g}"
    )
    print(
        f"messages: sent {stats.messages_sent} delivered "
        f"{stats.messages_delivered} dropped {stats.messages_dropped} "
        f"duplicated {stats.messages_duplicated} "
        f"({per_node_round:.2f} per node-round)"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    report = generate_report(trials=args.trials)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"[saved to {args.output}]", file=sys.stderr)
    return 0 if "FAIL" not in report else 1


def _cmd_engines(args: argparse.Namespace) -> int:
    import warnings

    from repro.analysis.tables import render_table
    from repro.model.engine import ENGINE_DESCRIPTIONS, ENGINE_NAMES, engine_class

    rows = []
    for name in ENGINE_NAMES:
        if name == "native":
            from repro.core.algau_native import native_backend_name

            backend = native_backend_name()
            if backend is None:
                status = (
                    "unavailable (numba not installed, no C compiler); "
                    "falls back to 'array'"
                )
            else:
                status = f"available ({backend} backend)"
        else:
            status = "available"
        with warnings.catch_warnings():
            # The native factory warns on fallback; the probe column
            # already reports that, so keep the listing quiet.
            warnings.simplefilter("ignore")
            cls = engine_class(name)
        rows.append((name, cls.__name__, status, ENGINE_DESCRIPTIONS.get(name, "")))
    print(
        render_table(
            ["engine", "class", "availability", "description"],
            rows,
            title="Execution engines",
        )
    )
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.campaigns.spec import ALGORITHM_FACTORIES, algorithm_names

    d = args.diameter_bound
    rows = []
    for name in algorithm_names():
        spec = ALGORITHM_FACTORIES[name]
        bits = spec.state_bits(d, n_hint=args.nodes)
        rows.append(
            (
                name,
                spec.task,
                "+".join(spec.engines),
                spec.state_bits_formula or "-",
                f"{bits:.2f}" if bits is not None else "unbounded",
                "yes" if spec.self_stabilizing else "NO",
                spec.summary,
            )
        )
    print(
        render_table(
            [
                "algorithm",
                "task",
                "engines",
                "state bits",
                f"bits@D={d}",
                "self-stab",
                "description",
            ],
            rows,
            title="Algorithm registry",
        )
    )
    return 0


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.campaigns import (
        build_campaign,
        describe_registry,
        registry_names,
    )

    rows = []
    for name in registry_names():
        scenarios = build_campaign(name)
        algorithms = sorted({s.algorithm for s in scenarios})
        runtimes = sorted({s.runtime for s in scenarios})
        rows.append(
            (
                name,
                len(scenarios),
                ",".join(algorithms),
                ",".join(runtimes),
                describe_registry(name),
            )
        )
    print(
        render_table(
            ["registry", "scenarios", "algorithms", "runtimes", "description"],
            rows,
            title="Campaign registries",
        )
    )
    return 0


def _resolve_cache(args: argparse.Namespace):
    """The :class:`ResultCache` a ``campaign run`` should use, or ``None``.

    Caching is opt-in: ``--cache-dir`` (or ``REPRO_CACHE_DIR``) turns
    it on, ``--no-cache`` wins over both — so existing invocations and
    the CI nightlies keep their exact behavior until a store is
    configured explicitly.
    """
    import os

    from repro.campaigns import ResultCache

    if args.no_cache:
        return None
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        return None
    return ResultCache(cache_dir)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.analysis.report import campaign_report
    from repro.campaigns import (
        aggregate_results,
        build_campaign,
        default_artifact_path,
        run_campaign,
        write_campaign_artifact,
    )

    if args.resume and not args.checkpoint:
        print("--resume needs --checkpoint", file=sys.stderr)
        return 2
    if args.shard_size is not None and args.shard_size < 1:
        print("--shard-size must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("--timeout must be > 0 seconds", file=sys.stderr)
        return 2
    scenarios = build_campaign(args.registry, seed=args.seed)
    if args.limit is not None:
        scenarios = scenarios[: args.limit]

    def progress(done: int, total: int) -> None:
        print(f"\r[{done}/{total} scenarios]", end="", file=sys.stderr)

    cache = _resolve_cache(args)
    run_stats: dict = {}
    started = time.perf_counter()
    results = run_campaign(
        scenarios,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        shard_size=args.shard_size,
        progress=progress,
        batch=not args.no_batch,
        timeout_s=args.timeout,
        dispatch=None if args.dispatch == "auto" else args.dispatch,
        cache=cache,
        stats=run_stats,
    )
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(file=sys.stderr)

    aggregates = aggregate_results(args.registry, scenarios, results, args.seed)
    path = args.output or default_artifact_path(args.registry)
    write_campaign_artifact(
        aggregates,
        path,
        meta={
            "workers": args.workers,
            "elapsed_ms": elapsed_ms,
            "checkpoint": args.checkpoint,
            "resumed": args.resume,
            "batched": not args.no_batch,
            "timeout_s": args.timeout,
            "dispatch": run_stats.get("dispatch"),
            "cache": run_stats.get("cache"),
        },
    )
    print(campaign_report(aggregates))
    cache_stats = run_stats.get("cache")
    if cache_stats:
        print(
            "[cache: {hits} hits / {misses} misses, "
            "{saved_compute_s:.1f}s compute saved]".format(**cache_stats),
            file=sys.stderr,
        )
    print(f"[saved to {path}]", file=sys.stderr)
    return 0 if aggregates["failure_count"] == 0 else 1


def _open_cache(args: argparse.Namespace):
    """The result store a ``repro cache`` subcommand operates on."""
    from repro.campaigns import ResultCache, default_cache_dir

    return ResultCache(args.cache_dir or default_cache_dir())


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    import json

    cache = _open_cache(args)
    payload = cache.stats()
    last_run = cache.load_last_run()
    if last_run is not None:
        payload["last_run"] = last_run
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    problems = cache.verify(remove=args.remove)
    for problem in problems:
        print(problem, file=sys.stderr)
    entries = cache.stats()["entries"]
    action = "removed" if args.remove else "found"
    print(f"[{entries} sound entries; {len(problems)} corrupt {action}]")
    return 0 if not problems else 1


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    import json

    if args.older_than < 0:
        print("--older-than must be >= 0 days", file=sys.stderr)
        return 2
    cache = _open_cache(args)
    summary = cache.gc(args.older_than * 86400.0)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.report import campaign_report

    with open(args.input, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    print(campaign_report(artifact))
    aggregates = artifact.get("aggregates", artifact)
    return 0 if not aggregates.get("failure_count") else 1


def build_parser() -> argparse.ArgumentParser:
    from repro.campaigns import DISPATCHER_NAMES, registry_names
    from repro.model.engine import ENGINE_NAMES

    engines = list(ENGINE_NAMES)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Emek & Keren (PODC 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure1", help="AlgAU state diagram (Figure 1)")
    p.add_argument("--diameter-bound", type=int, default=2)
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(fn=_cmd_figure1)

    p = sub.add_parser("figure2", help="Appendix-A live-lock (Figure 2)")
    p.add_argument("--diameter-bound", type=int, default=2)
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--rounds", type=int, default=8)
    p.set_defaults(fn=_cmd_figure2)

    p = sub.add_parser("table1", help="AlgAU transition types (Table 1)")
    p.add_argument("--diameter-bound", type=int, default=2)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("au", help="one adversarial AlgAU run")
    p.add_argument("--diameter-bound", type=int, default=3)
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=100_000)
    p.add_argument(
        "--start",
        choices=["random", "sign-split", "clock-tear", "all-faulty"],
        default="sign-split",
    )
    p.add_argument(
        "--engine",
        choices=engines,
        default="object",
        help="execution backend: readable object model or vectorized arrays",
    )
    p.set_defaults(fn=_cmd_au)

    p = sub.add_parser("report", help="run the full reproduction battery (small sizes)")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "engines",
        help="list the execution engines with a per-engine availability probe",
    )
    p.set_defaults(fn=_cmd_engines)

    p = sub.add_parser(
        "algorithms",
        help="list the algorithm registry: tasks, engine lanes, state bits",
    )
    p.add_argument(
        "--diameter-bound",
        type=int,
        default=2,
        help="diameter bound for the exact per-node state-bits column",
    )
    p.add_argument(
        "--nodes",
        type=int,
        default=16,
        help="node-count hint for ID-based algorithms' state bits",
    )
    p.set_defaults(fn=_cmd_algorithms)

    p = sub.add_parser("campaign", help="registry-driven scenario campaigns")
    csub = p.add_subparsers(dest="campaign_command", required=True)

    c = csub.add_parser("list", help="list the campaign registries")
    c.set_defaults(fn=_cmd_campaign_list)

    c = csub.add_parser("run", help="run a campaign sharded over worker processes")
    c.add_argument(
        "--registry",
        required=True,
        choices=list(registry_names()),
        help="which campaign to run",
    )
    c.add_argument("--workers", type=int, default=1, help="worker processes (shards)")
    c.add_argument("--seed", type=int, default=0, help="campaign seed")
    c.add_argument(
        "--limit",
        type=int,
        default=None,
        help="run only the first N scenarios (debugging)",
    )
    c.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="scenarios per shard (default: balanced over workers)",
    )
    c.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help="JSONL progress checkpoint (enables --resume)",
    )
    c.add_argument(
        "--resume",
        action="store_true",
        help="skip scenarios already present in --checkpoint",
    )
    c.add_argument(
        "--no-batch",
        action="store_true",
        help="run seed ensembles solo instead of replica-batched "
        "(results are bit-identical either way; this forces the "
        "per-scenario engines)",
    )
    c.add_argument(
        "--output",
        type=str,
        default=None,
        help="artifact path (default: BENCH_campaign_<registry>.json)",
    )
    c.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-scenario wall-clock budget in seconds; scenarios "
        "over budget report deterministic status=timeout rows instead "
        "of hanging their shard",
    )
    c.add_argument(
        "--dispatch",
        choices=["auto"] + list(DISPATCHER_NAMES),
        default="auto",
        help="execution backend: serial (inline), shards (static "
        "sharding over a process pool), or queue (work-stealing shared "
        "task queue); auto keeps the historical choice (serial at "
        "--workers 1, shards above) — aggregates are bit-identical "
        "across all backends",
    )
    c.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="content-addressed result store; cached scenarios are "
        "served without recomputation (also honors REPRO_CACHE_DIR)",
    )
    c.add_argument(
        "--no-cache",
        action="store_true",
        help="force recomputation even when REPRO_CACHE_DIR is set",
    )
    c.set_defaults(fn=_cmd_campaign_run)

    c = csub.add_parser("report", help="render a campaign artifact as markdown")
    c.add_argument(
        "--input",
        type=str,
        required=True,
        help="a BENCH_campaign_*.json artifact",
    )
    c.set_defaults(fn=_cmd_campaign_report)

    p = sub.add_parser(
        "cache", help="the content-addressed campaign result store"
    )
    kwargs_sub = p.add_subparsers(dest="cache_command", required=True)

    def _cache_dir_arg(cache_parser: argparse.ArgumentParser) -> None:
        cache_parser.add_argument(
            "--cache-dir",
            type=str,
            default=None,
            help="store root (default: REPRO_CACHE_DIR, else "
            "~/.cache/repro-results)",
        )

    c = kwargs_sub.add_parser(
        "stats", help="entry count, bytes on disk, and last-run hit rate"
    )
    _cache_dir_arg(c)
    c.set_defaults(fn=_cmd_cache_stats)

    c = kwargs_sub.add_parser(
        "verify", help="re-hash every entry and report corruption"
    )
    _cache_dir_arg(c)
    c.add_argument(
        "--remove",
        action="store_true",
        help="delete corrupt entries so they get recomputed",
    )
    c.set_defaults(fn=_cmd_cache_verify)

    c = kwargs_sub.add_parser(
        "gc", help="expire entries by age"
    )
    _cache_dir_arg(c)
    c.add_argument(
        "--older-than",
        type=float,
        required=True,
        metavar="DAYS",
        help="delete entries not rewritten in the last DAYS days",
    )
    c.set_defaults(fn=_cmd_cache_gc)

    p = sub.add_parser("net", help="the message-passing deployment runtime")
    nsub = p.add_subparsers(dest="net_command", required=True)

    c = nsub.add_parser(
        "run", help="one AlgAU run over fair-lossy links with message stats"
    )
    c.add_argument("--diameter-bound", type=int, default=3)
    c.add_argument("--nodes", type=int, default=16)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--max-rounds", type=int, default=10_000)
    c.add_argument(
        "--start",
        choices=["random", "sign-split", "clock-tear", "all-faulty"],
        default="sign-split",
    )
    c.add_argument(
        "--delay", type=float, default=0.0,
        help="base one-way link delay in virtual slots",
    )
    c.add_argument(
        "--jitter", type=float, default=0.0,
        help="uniform extra delay in [0, jitter) per message",
    )
    c.add_argument(
        "--loss", type=float, default=0.0,
        help="per-message drop probability (fair-lossy: bounded streaks)",
    )
    c.add_argument(
        "--duplicate", type=float, default=0.0,
        help="per-message duplication probability",
    )
    c.set_defaults(fn=_cmd_net_run)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Named campaign registries.

A *campaign* is a programmatically enumerated list of
:class:`~repro.campaigns.spec.Scenario` specs.  Registries are
registered with the :func:`campaign` decorator and built with
:func:`build_campaign`, which derives one independent seed per scenario
from the campaign seed via :class:`numpy.random.SeedSequence` — the
same scenario list (ids, seeds, and all) regardless of process or
worker count.

A *pairing* (:meth:`CampaignBuilder.add_paired`) is one cell run once
per lane under one shared seed, as index-adjacent scenarios.  In the
lane-paired registries (``byzantine``, ``enabled-daemons``,
``native-pairing``, ``net-smoke``, ``pareto-unison``, ``churn-phase``)
the lanes are engines or runtimes, the members differ in nothing else,
and :func:`~repro.campaigns.aggregate.verify_engine_pairing` requires
their measured columns to agree.  ``cor12-synchronizer`` pairs
algorithms instead: its two lanes share the graph sample only.  Either
way the runner samples a pairing's graph once for all its lanes.

Shipped registries:

* ``micro`` — a handful of scenarios; test-suite and CLI sanity runs;
* ``smoke`` — the CI campaign: ≥ 50 fast scenarios crossing graph
  families (including heterogeneous-degree biological graphs), both
  engines, schedulers, the full adversarial-start suite, and every
  fault kind (bursts, storms, dynamic-topology rewires);
* ``enabled-daemons`` — the enabled-aware daemon axes
  (``enabled-only`` and ``locally-central``), engine-paired so the
  aggregation cross-checks that both backends drive the daemons off
  identical enabled views;
* ``native-pairing`` — compiled-tier differential: every cell runs on
  both the ``array`` and ``native`` engines with a shared seed so the
  nightly aggregation cross-checks the compiled kernels bit for bit;
* ``thm11-scaling`` / ``thm11-n-independence`` / ``fault-recovery`` —
  the Thm 1.1 sweeps and the title application behind
  ``benchmarks/bench_thm11_*`` and ``bench_fault_recovery``;
* ``thm13-le-scaling`` / ``thm14-mis-scaling`` — AlgLE and AlgMIS
  stabilization rounds as ``n`` (and, for LE, ``D``) grows;
* ``cor12-synchronizer`` — each static task synchronously against its
  synchronizer lift under an asynchronous daemon, seed-paired so both
  rows of a trial see the same graph sample;
* ``pareto-unison`` — the algorithm-zoo Pareto grid: every unison
  baseline × graph family × daemon, engine-paired where an algorithm
  ships both lanes, aggregated into per-cell ``{rounds, state_bits,
  moves}`` metrics and a non-dominated frontier (the Sec. 5
  time/space/workload comparison as a CI artifact);
* ``net-smoke`` — the sim-vs-net differential: every cell runs once on
  the ``array`` simulation lane and once on the message-passing net
  runtime over zero-noise links with a shared seed, so the aggregation
  cross-checks the deployment runtime bit for bit; a small unpaired
  block exercises lossy/delayed links.
* ``churn-phase`` — dynamic-topology churn: edge-churn and membership
  rate sweeps over the biological colony families, every cell run on
  all four lanes (object/array/native engines plus the zero-noise net
  runtime) under one shared seed, so the lane pairing cross-checks the
  incremental ``mutate_topology`` paths bit for bit while the
  aggregated clean fractions trace the sustainable-churn phase
  diagram.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.campaigns.spec import NO_FAULTS, FaultPlan, Scenario
from repro.campaigns.spec import AU_STARTS as SPEC_AU_STARTS

GraphSpec = Tuple[str, Tuple[Tuple[str, object], ...], int]


def au_round_budget(diameter_bound: int) -> int:
    """The AU round budget at diameter bound ``d`` — a cap, not an
    estimate (the paper's bound is ``k^3`` with ``k = 3d + 2``)."""
    return 200 * (3 * diameter_bound + 2) ** 3


def derive_seed(campaign_seed: int, index: int) -> int:
    """A stable per-scenario seed, independent of the worker count."""
    sequence = np.random.SeedSequence([campaign_seed, index])
    return int(sequence.generate_state(1)[0])


class CampaignBuilder:
    """Accumulates scenarios, assigning indices and derived seeds."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.scenarios: List[Scenario] = []
        #: Pairings added so far (the next pairing's number).
        self.pairings = 0

    def add(
        self,
        task: str,
        graph: str,
        graph_params: Tuple[Tuple[str, object], ...],
        diameter_bound: int,
        scheduler: str,
        engine: str,
        start: str,
        max_rounds: int,
        faults: FaultPlan = NO_FAULTS,
        group: str = "",
        tags: Tuple[Tuple[str, str], ...] = (),
        seed_index: Optional[int] = None,
        batch_replicas: int = 1,
        algorithm: str = "",
        runtime: str = "sim",
        net_params: Tuple[Tuple[str, object], ...] = (),
    ) -> Scenario:
        """Append one scenario.

        ``seed_index`` overrides the index the per-scenario seed is
        derived from: scenarios sharing a ``seed_index`` receive the
        *same* seed, which is how engine-paired registries (the
        ``byzantine`` campaign) run the identical experiment on both
        backends and let the aggregation cross-check them.
        ``batch_replicas >= 2`` marks seed ensembles for the runner's
        replica-batched path (see :meth:`Scenario.batch_key`).
        ``algorithm`` picks an entry from
        :data:`~repro.campaigns.spec.ALGORITHM_FACTORIES` (empty =
        the task's default, i.e. the paper's algorithm).
        ``runtime="net"`` routes the scenario through the
        message-passing runtime with the link knobs in ``net_params``
        (see :mod:`repro.net.adapter`).
        """
        index = len(self.scenarios)
        scenario = Scenario(
            campaign=self.name,
            index=index,
            task=task,
            graph=graph,
            graph_params=graph_params,
            diameter_bound=diameter_bound,
            scheduler=scheduler,
            engine=engine,
            start=start,
            seed=derive_seed(self.seed, index if seed_index is None else seed_index),
            max_rounds=max_rounds,
            faults=faults,
            group=group or f"{task}@{graph}",
            tags=tags,
            batch_replicas=batch_replicas,
            algorithm=algorithm,
            runtime=runtime,
            net_params=net_params,
        )
        self.scenarios.append(scenario)
        return scenario

    def add_au(self, graph, graph_params, diameter_bound, **kwargs):
        """``add`` with the AU task's conventional defaults filled in."""
        kwargs.setdefault("max_rounds", au_round_budget(diameter_bound))
        kwargs.setdefault("scheduler", "shuffled-round-robin")
        kwargs.setdefault("engine", "array")
        kwargs.setdefault("start", "random")
        return self.add("au", graph, graph_params, diameter_bound, **kwargs)

    def add_paired(
        self,
        lanes: Sequence[Mapping[str, object]],
        graph: str,
        graph_params: Tuple[Tuple[str, object], ...],
        diameter_bound: int,
        task: str = "au",
        tags: Tuple[Tuple[str, str], ...] = (),
        **fields,
    ) -> List[Scenario]:
        """Append one pairing: the same cell once per lane.

        Each lane maps the fields that set it apart (``{"engine":
        "native"}``, ``{"runtime": "net"}``); ``fields`` holds the ones
        all lanes share.  The members are index-adjacent, lead their
        tags with ``("pairing", k)`` for the campaign's ``k``-th
        pairing, and derive their seed from ``k`` (``seed_index``), so
        every lane samples the same graph.  The runner builds that
        graph, and the start configuration and churn stream the lanes
        have in common, once for the whole pairing, and
        :func:`~repro.campaigns.aggregate.verify_engine_pairing` checks
        that engine and runtime lanes agree column for column.  AU
        cells get :meth:`add_au`'s defaults; other tasks name every
        field.
        """
        pair = self.pairings
        self.pairings += 1
        tags = (("pairing", str(pair)), *tags)
        add = self.add_au if task == "au" else functools.partial(self.add, task)
        return [
            add(
                graph,
                graph_params,
                diameter_bound,
                tags=tags,
                seed_index=pair,
                **fields,
                **lane,
            )
            for lane in lanes
        ]


def engine_lanes(*engines: str) -> Tuple[Dict[str, str], ...]:
    """One :meth:`CampaignBuilder.add_paired` lane per engine."""
    return tuple({"engine": engine} for engine in engines)


CampaignFn = Callable[[CampaignBuilder], None]

_REGISTRY: Dict[str, Tuple[str, CampaignFn]] = {}


def campaign(name: str, description: str):
    """Register a campaign builder under ``name``."""

    def wrap(fn: CampaignFn) -> CampaignFn:
        """Store ``fn`` in the registry and return it unchanged."""
        _REGISTRY[name] = (description, fn)
        return fn

    return wrap


def registry_names() -> Tuple[str, ...]:
    """All registered campaign names, sorted."""
    return tuple(sorted(_REGISTRY))


def describe_registry(name: str) -> str:
    """The one-line description of campaign ``name``."""
    _require(name)
    return _REGISTRY[name][0]


def build_campaign(name: str, seed: int = 0) -> List[Scenario]:
    """Enumerate the named campaign's scenarios (deterministic)."""
    _require(name)
    builder = CampaignBuilder(name, seed)
    _REGISTRY[name][1](builder)
    return builder.scenarios


def _require(name: str) -> None:
    if name not in _REGISTRY:
        valid = ", ".join(registry_names())
        raise ValueError(
            f"unknown campaign registry {name!r}: valid registries are "
            f"{valid}"
        )


# ----------------------------------------------------------------------
# Shared axis fragments.
# ----------------------------------------------------------------------

#: The adversarial sweep omits the benign ``uniform`` start.
AU_STARTS = tuple(name for name in SPEC_AU_STARTS if name != "uniform")

#: The cross-family AU workload: name, params, diameter bound.
CORE_GRAPHS: Tuple[GraphSpec, ...] = (
    ("complete", (("n", 8),), 1),
    (
        "damaged-clique",
        (("n", 10), ("diameter_bound", 2), ("damage", 0.4)),
        2,
    ),
    ("star", (("n", 9),), 2),
    ("dumbbell", (("clique_size", 4), ("bridge_length", 1)), 3),
    ("ring", (("n", 8),), 4),
)

BIO_GRAPHS: Tuple[GraphSpec, ...] = (
    ("quorum-colony", (("n", 12), ("diameter_bound", 2)), 2),
    ("hub-colony", (("n", 12), ("hubs", 2)), 2),
    ("cell-tissue", (("width", 3), ("height", 3)), 4),
)

FAULT_GRAPHS: Tuple[GraphSpec, ...] = (
    (
        "damaged-clique",
        (("n", 10), ("diameter_bound", 2), ("damage", 0.4)),
        2,
    ),
    ("quorum-colony", (("n", 10), ("diameter_bound", 2)), 2),
)


def _alternating_engine(builder: CampaignBuilder) -> str:
    """Alternate engines so campaigns continuously cross-check both
    backends (AlgAU is deterministic, so mixed engines cannot change
    aggregate values, only exercise both code paths)."""
    return "array" if len(builder.scenarios) % 2 == 0 else "object"


def _fault_block(builder: CampaignBuilder) -> None:
    for graph, params, d in FAULT_GRAPHS:
        for bursts in (1, 2):
            builder.add_au(
                graph,
                params,
                d,
                faults=FaultPlan(kind="bursts", bursts=bursts, fraction=0.3),
                group=f"au-bursts@{graph}",
            )
        builder.add_au(
            graph,
            params,
            d,
            engine=_alternating_engine(builder),
            faults=FaultPlan(kind="storm", times=(5, 40, 80), fraction=0.25),
            group=f"au-storm@{graph}",
        )
        for remove, add in ((1, 1), (2, 1)):
            builder.add_au(
                graph,
                params,
                d,
                faults=FaultPlan(kind="rewire", remove=remove, add=add),
                group=f"au-rewire@{graph}",
            )


# ----------------------------------------------------------------------
# Registries.
# ----------------------------------------------------------------------


@campaign("micro", "six-scenario sanity campaign (tests, CLI smoke)")
def _micro(builder: CampaignBuilder) -> None:
    for start in ("random", "all-faulty"):
        for scheduler in ("synchronous", "shuffled-round-robin"):
            builder.add_au(
                "complete",
                (("n", 6),),
                1,
                scheduler=scheduler,
                engine=_alternating_engine(builder),
                start=start,
                group="au@complete",
            )
    params = (("n", 8), ("diameter_bound", 2), ("damage", 0.4))
    builder.add_au(
        "damaged-clique",
        params,
        2,
        faults=FaultPlan(kind="bursts", bursts=1, fraction=0.3),
        group="au-bursts",
    )
    builder.add_au(
        "damaged-clique",
        params,
        2,
        faults=FaultPlan(kind="rewire", remove=1, add=1),
        group="au-rewire",
    )


@campaign(
    "smoke",
    "CI campaign: every family/scheduler/start/fault axis at small sizes",
)
def _smoke(builder: CampaignBuilder) -> None:
    for graph, params, d in CORE_GRAPHS:
        for start in AU_STARTS:
            for scheduler in ("synchronous", "shuffled-round-robin"):
                builder.add_au(
                    graph,
                    params,
                    d,
                    scheduler=scheduler,
                    engine=_alternating_engine(builder),
                    start=start,
                    group=f"au@{graph}",
                )
    _fault_block(builder)
    for graph, params, d in BIO_GRAPHS:
        for start in ("sign-split", "all-faulty"):
            builder.add_au(graph, params, d, start=start, group=f"au@{graph}")
    # A seed ensemble exercising the replica-batched Monte Carlo path
    # in every CI run: eight trials differing only by seed, fused into
    # one ReplicaBatchExecution when batching is enabled and bit-
    # identical solo runs when it is not (the nightly shard checks the
    # aggregates agree either way).
    for trial in range(8):
        builder.add_au(
            "damaged-clique",
            (("n", 10), ("diameter_bound", 2), ("damage", 0.4)),
            2,
            engine="replica-batch",
            group="au-ensemble@damaged-clique",
            tags=(("trial", str(trial)),),
            batch_replicas=8,
        )
    # The compiled kernel tier rides every CI run: a fault-free slice
    # of the core families on ``engine="native"`` (which degrades to
    # the array tier with a warning on compiler-less runners, so the
    # campaign stays green either way) plus one batched ensemble on
    # the native replica lane.
    for graph, params, d in (CORE_GRAPHS[0], CORE_GRAPHS[4]):
        for start in ("random", "all-faulty"):
            builder.add_au(
                graph,
                params,
                d,
                engine="native",
                start=start,
                group=f"au-native@{graph}",
            )
    for trial in range(4):
        builder.add_au(
            "damaged-clique",
            (("n", 10), ("diameter_bound", 2), ("damage", 0.4)),
            2,
            engine="native",
            group="au-native-ensemble@damaged-clique",
            tags=(("trial", str(trial)),),
            batch_replicas=4,
        )
    for n in (4, 8):
        builder.add(
            "le",
            "damaged-clique",
            (("n", n), ("diameter_bound", 2), ("damage", 0.4)),
            2,
            scheduler="synchronous",
            engine="object",
            start="random",
            max_rounds=40_000,
            group="le@damaged-clique",
        )
    builder.add(
        "mis",
        "proneural",
        (("width", 3), ("height", 3)),
        2,
        scheduler="synchronous",
        engine="object",
        start="random",
        max_rounds=80_000,
        group="mis@proneural",
    )
    builder.add(
        "mis",
        "damaged-clique",
        (("n", 8), ("diameter_bound", 2), ("damage", 0.4)),
        2,
        scheduler="synchronous",
        engine="object",
        start="random",
        max_rounds=80_000,
        group="mis@damaged-clique",
    )


@campaign(
    "thm11-scaling",
    "Thm 1.1 — AlgAU rounds vs diameter bound D (worst adversarial start)",
)
def _thm11_scaling(builder: CampaignBuilder) -> None:
    # Trials of one (D, start) cell differ only by seed, so the runner
    # fuses them into replica batches — the ensemble trick that pays for
    # the Thm 1.1 sweeps.
    for d in (1, 2, 3, 4, 5):
        for trial in range(6):
            for start in AU_STARTS:
                builder.add_au(
                    "bounded-diameter",
                    (("diameter_bound", d), ("n", 14)),
                    d,
                    start=start,
                    group=f"D={d}",
                    tags=(("trial", str(trial)), ("start", start)),
                    batch_replicas=8,
                )


@campaign(
    "thm11-n-independence",
    "Thm 1.1 — AlgAU rounds stay flat as n grows at fixed D=2",
)
def _thm11_n_independence(builder: CampaignBuilder) -> None:
    for n in (6, 12, 24, 48):
        for trial in range(5):
            for start in AU_STARTS:
                builder.add_au(
                    "damaged-clique",
                    (("n", n), ("diameter_bound", 2), ("damage", 0.4)),
                    2,
                    start=start,
                    group=f"n={n}",
                    tags=(("trial", str(trial)), ("start", start)),
                    batch_replicas=8,
                )


@campaign(
    "fault-recovery",
    "Title application — repeated fault bursts on a quorum-colony clock",
)
def _fault_recovery(builder: CampaignBuilder) -> None:
    for trial in range(8):
        builder.add_au(
            "quorum-colony",
            (("n", 16), ("diameter_bound", 2)),
            2,
            faults=FaultPlan(kind="bursts", bursts=3, fraction=0.3),
            group="au-recovery",
            tags=(("trial", str(trial)),),
        )


def _static_task_graph(n: int, diameter_bound: int) -> Tuple[str, Tuple]:
    """The static-task sweep workload: a damaged clique within the
    diameter bound, degenerating to the complete graph at ``D = 1``
    (removing any edge from a clique already exceeds diameter 1)."""
    if diameter_bound == 1:
        return "complete", (("n", n),)
    params = (("n", n), ("diameter_bound", diameter_bound), ("damage", 0.4))
    return "damaged-clique", params


def _static_task_scaling(builder: CampaignBuilder, task: str, sweep) -> None:
    """Four synchronous random-start trials per ``(n, D, group)`` point."""
    for n, d, group in sweep:
        graph, params = _static_task_graph(n, d)
        for trial in range(4):
            builder.add(
                task,
                graph,
                params,
                d,
                scheduler="synchronous",
                engine="object",
                start="random",
                max_rounds=40_000,
                group=group,
                tags=(("trial", str(trial)),),
            )


#: The ``n`` sweep of the static-task scaling registries, at ``D = 2``.
STATIC_N_SWEEP = tuple((n, 2, f"n={n}") for n in (4, 8, 16, 32))


@campaign(
    "thm13-le-scaling",
    "Thm 1.3 — AlgLE rounds vs n at D=2 and vs D at n=12",
)
def _thm13_le_scaling(builder: CampaignBuilder) -> None:
    sweep_d = tuple((12, d, f"D={d}") for d in (1, 2, 3))
    _static_task_scaling(builder, "le", STATIC_N_SWEEP + sweep_d)


@campaign("thm14-mis-scaling", "Thm 1.4 — AlgMIS rounds vs n at D=2")
def _thm14_mis_scaling(builder: CampaignBuilder) -> None:
    _static_task_scaling(builder, "mis", STATIC_N_SWEEP)


@campaign(
    "cor12-synchronizer",
    "Cor 1.2 — synchronous Π vs its asynchronous synchronizer lift Π*",
)
def _cor12_synchronizer(builder: CampaignBuilder) -> None:
    """Each trial is an *algorithm* pairing: the paper's algorithm
    under the synchronous daemon and its ``sync-alg-*`` lift under the
    shuffled round-robin daemon, on the same graph sample.  The two
    rows measure different algorithms, so they share the graph but
    not the start configuration, and they are compared by the Cor 1.2
    claim, not by :func:`~repro.campaigns.aggregate.verify_engine_pairing`."""
    for task in ("mis", "le"):
        for n in (6, 10, 14):
            graph, params = _static_task_graph(n, 2)
            lanes = [
                {
                    "algorithm": algorithm,
                    "scheduler": scheduler,
                    "group": f"{algorithm}@n={n}",
                }
                for algorithm, scheduler in (
                    (f"alg-{task}", "synchronous"),
                    (f"sync-alg-{task}", "shuffled-round-robin"),
                )
            ]
            for trial in range(3):
                builder.add_paired(
                    lanes,
                    graph,
                    params,
                    2,
                    task=task,
                    engine="object",
                    start="random",
                    max_rounds=120_000,
                    tags=(("trial", str(trial)),),
                )


#: Large-hop-distance workloads for the permanent-fault campaign —
#: containment is only observable when correct nodes exist well beyond
#: the faulty neighborhoods, so these graphs trade density for
#: diameter.  (name, params, D.)
BYZANTINE_GRAPHS: Tuple[Tuple[str, Tuple[Tuple[str, object], ...], int], ...] = (
    ("ring", (("n", 16),), 8),
    ("caterpillar", (("spine", 6), ("legs_per_node", 1)), 7),
)

#: Containment target radius by fault density: a single faulty node
#: must be contained tightly (plenty of correct nodes beyond 3 hops);
#: denser fault sets shrink the fault-free margin, so the target
#: loosens rather than making the scenario unsatisfiable.
BYZANTINE_RADII = {0.06: 3, 0.2: 4}


@campaign(
    "byzantine",
    "permanent faults: engine-paired containment sweep "
    "(strategy x density x graph family)",
)
def _byzantine(builder: CampaignBuilder) -> None:
    """Every cell is run on *both* engines with the *same* derived seed
    (``seed_index`` pairing), so the aggregation can verify that the
    permanent-fault machinery is bit-identical across backends — the
    differential property the transient campaigns get from
    ``_alternating_engine`` is promoted to a hard pairwise check here
    (see :func:`repro.campaigns.aggregate.verify_engine_pairing`)."""
    cells = []
    for graph, params, d in BYZANTINE_GRAPHS:
        for strategy in ("frozen", "random", "oscillating", "noisy"):
            for density, radius in sorted(BYZANTINE_RADII.items()):
                if strategy == "frozen" and graph == "caterpillar":
                    # A frozen clock at an outward level permanently
                    # jams the FA drain of its neighbors; on tree-like
                    # graphs the jam chain runs one hop farther than on
                    # the ring, so the target loosens accordingly.
                    radius += 1
                faults = FaultPlan(
                    kind="byzantine",
                    strategy=strategy,
                    density=density,
                    radius=radius,
                )
                cells.append((graph, params, d, faults))
        faults = FaultPlan(kind="crash", density=0.14, times=(25,), radius=3)
        cells.append((graph, params, d, faults))
    # The targeted max-disruption adversary gets one small cell per
    # family.
    for graph, params, d in BYZANTINE_GRAPHS:
        faults = FaultPlan(
            kind="byzantine", strategy="targeted", density=0.06, radius=3
        )
        cells.append((graph, params, d, faults))
    for graph, params, d, faults in cells:
        builder.add_paired(
            engine_lanes("object", "array"),
            graph,
            params,
            d,
            max_rounds=4000,
            faults=faults,
            group=f"{faults.kind}-{faults.strategy or 'stop'}@{graph}",
            tags=(("density", f"{faults.density:.2f}"),),
        )


#: Families exercised by the enabled-daemon campaign: a sparse
#: large-diameter family (where enabled sets stay small) plus the
#: heterogeneous-degree biological hub colony named by the dirty-set
#: issue, plus a dense control.
ENABLED_DAEMON_GRAPHS: Tuple[GraphSpec, ...] = (
    ("ring", (("n", 12),), 6),
    ("hub-colony", (("n", 12), ("hubs", 2)), 2),
    (
        "damaged-clique",
        (("n", 10), ("diameter_bound", 2), ("damage", 0.4)),
        2,
    ),
)


@campaign(
    "enabled-daemons",
    "enabled-aware daemon axes: engine-paired sweep over "
    "enabled-only/locally-central schedulers x families x starts",
)
def _enabled_daemons(builder: CampaignBuilder) -> None:
    """Every cell runs on *both* engines with the *same* derived seed
    (``seed_index`` pairing, like the ``byzantine`` campaign): the
    enabled-aware daemons choose activations from the engines'
    incrementally maintained enabled views, so pairwise-identical
    results certify that the object and array pipelines maintain
    identical enabled sets along whole trajectories — the sharpest
    cross-check of the dirty-set invariant the campaign layer can run
    (enforced by :func:`repro.campaigns.aggregate.verify_engine_pairing`)."""
    cells = [
        (graph, params, d, scheduler, start, NO_FAULTS)
        for graph, params, d in ENABLED_DAEMON_GRAPHS
        for scheduler in ("enabled-only", "locally-central")
        for start in ("random", "all-faulty")
    ]
    # The daemons must also compose with mid-run state corruption (the
    # bursts re-dirty whole neighborhoods at once).
    bursts = FaultPlan(kind="bursts", bursts=1, fraction=0.3)
    for scheduler in ("enabled-only", "locally-central"):
        cells.append(
            ("hub-colony", (("n", 12), ("hubs", 2)), 2, scheduler, "random", bursts)
        )
    for graph, params, d, scheduler, start, faults in cells:
        builder.add_paired(
            engine_lanes("object", "array"),
            graph,
            params,
            d,
            scheduler=scheduler,
            start=start,
            faults=faults,
            group=f"{scheduler}@{graph}",
            tags=(("daemon", scheduler),),
        )


#: Families for the native-vs-array pairing sweep: the core ring and
#: damaged-clique cells plus the large-hop byzantine graphs, so the
#: compiled kernels are cross-checked on both the dense incremental
#: path and the permanent-fault mask/poke machinery.
NATIVE_PAIRING_GRAPHS: Tuple[GraphSpec, ...] = (
    ("ring", (("n", 12),), 6),
    (
        "damaged-clique",
        (("n", 10), ("diameter_bound", 2), ("damage", 0.4)),
        2,
    ),
    ("hub-colony", (("n", 12), ("hubs", 2)), 2),
)


@campaign(
    "native-pairing",
    "compiled-tier differential: array-vs-native engine-paired sweep "
    "over families x schedulers x fault kinds",
)
def _native_pairing(builder: CampaignBuilder) -> None:
    """Every cell runs on both the ``array`` and ``native`` engines
    with the *same* derived seed (``seed_index`` pairing, like the
    ``byzantine`` campaign), so the nightly aggregation can assert the
    compiled CSR-walking kernels reproduce the numpy tier bit for bit
    along whole trajectories — transient storms, permanent byzantine
    and crash faults, masks and pokes included (enforced by
    :func:`repro.campaigns.aggregate.verify_engine_pairing`).  On
    runners without a native backend the native lane degrades to the
    array engine, and the pairing check degenerates to a tautology
    rather than a failure."""
    cells = []
    for graph, params, d in NATIVE_PAIRING_GRAPHS:
        for scheduler in ("synchronous", "shuffled-round-robin"):
            for start in ("random", "all-faulty"):
                cells.append((graph, params, d, scheduler, start, NO_FAULTS))
        for faults in (
            FaultPlan(kind="storm", times=(5, 40, 80), fraction=0.25),
            FaultPlan(kind="rewire", remove=1, add=1),
        ):
            cells.append((graph, params, d, "shuffled-round-robin", "random", faults))
    # The permanent-fault machinery (masks, pokes, containment
    # analytics) must agree too.
    for graph, params, d in BYZANTINE_GRAPHS:
        for faults in (
            *(
                FaultPlan(kind="byzantine", strategy=strategy, density=0.2, radius=4)
                for strategy in ("frozen", "random", "oscillating")
            ),
            FaultPlan(kind="crash", density=0.14, times=(25,), radius=3),
        ):
            cells.append((graph, params, d, "shuffled-round-robin", "random", faults))
    for graph, params, d, scheduler, start, faults in cells:
        builder.add_paired(
            engine_lanes("array", "native"),
            graph,
            params,
            d,
            scheduler=scheduler,
            start=start,
            max_rounds=4000,
            faults=faults,
            group=f"{faults.kind}@{graph}",
        )


#: Families for the Pareto grid — one dense, one tree-like, one
#: large-diameter family, so the zoo is compared where each design's
#: weakness shows (reset waves are cheap on dense graphs, expensive on
#: rings; AlgAU's state count grows with ``D``).
PARETO_GRAPHS: Tuple[GraphSpec, ...] = (
    ("complete", (("n", 8),), 1),
    ("star", (("n", 9),), 2),
    ("ring", (("n", 8),), 4),
)

#: The unison zoo entered in the grid: algorithm name → the engines it
#: runs on (both lanes = engine-paired cells cross-checked by
#: :func:`repro.campaigns.aggregate.verify_engine_pairing`).  The
#: non-self-stabilizing ``failed-reset-unison`` witness is *included* —
#: from random starts on these families it converges, and its row makes
#: the frontier honest about what its missing interrupt rule buys.
PARETO_ALGORITHMS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("thin-unison", ("object", "array")),
    ("reset-tail-unison", ("object", "array")),
    ("min-unison", ("object",)),
    ("failed-reset-unison", ("object",)),
)


@campaign(
    "pareto-unison",
    "algorithm zoo Pareto grid: unison baselines x families x daemons, "
    "per-cell {rounds, state_bits, moves} + non-dominated frontier",
)
def _pareto_unison(builder: CampaignBuilder) -> None:
    """Each (algorithm, family, daemon, trial) cell runs once per
    supported engine under the *same* derived seed (``seed_index``
    pairing), so the aggregation both cross-checks the reset-tail
    vectorized lane bit for bit and folds engine rows into one Pareto
    cell without double-weighting.  The aggregation side lives in
    :func:`repro.campaigns.aggregate.compute_pareto`; the CI gate in
    ``benchmarks/bench_pareto_unison.py``."""
    for graph, params, d in PARETO_GRAPHS:
        for scheduler in ("synchronous", "shuffled-round-robin"):
            for algorithm, engines in PARETO_ALGORITHMS:
                for trial in range(3):
                    builder.add_paired(
                        engine_lanes(*engines),
                        graph,
                        params,
                        d,
                        scheduler=scheduler,
                        start="random",
                        max_rounds=20_000,
                        algorithm=algorithm,
                        group=f"{algorithm}@{graph}/{scheduler}",
                        tags=(("daemon", scheduler), ("trial", str(trial))),
                    )


#: Families for the sim-vs-net differential: a large-diameter ring, a
#: dense random graph, and the biological quorum colony, so the net
#: runtime's register propagation is cross-checked both where messages
#: travel far and where neighborhoods are wide.  (name, params, D,
#: permanent-fault containment radius.)
NET_SMOKE_GRAPHS: Tuple[Tuple[str, Tuple[Tuple[str, object], ...], int, int], ...] = (
    ("ring", (("n", 12),), 6, 3),
    ("gnp", (("n", 12), ("p", 0.5)), 4, 3),
    ("quorum-colony", (("n", 10), ("diameter_bound", 2)), 2, 2),
)


@campaign(
    "net-smoke",
    "sim-vs-net differential: runtime-paired zero-noise cells over "
    "families x starts x daemons x permanent faults, plus lossy links",
)
def _net_smoke(builder: CampaignBuilder) -> None:
    """Every cell runs once with ``runtime="sim"`` and once with
    ``runtime="net"`` under the *same* derived seed (``seed_index``
    pairing, like the ``byzantine`` campaign) over zero-noise links, so
    the aggregation can assert the message-passing runtime reproduces
    the array engine bit for bit — the differential contract of
    ``docs/net-runtime.md`` (enforced by
    :func:`repro.campaigns.aggregate.verify_engine_pairing`, which
    treats ``engine/runtime`` as the lane identity).  A trailing
    unpaired block runs lossy/delayed links for coverage of the noise
    machinery; those rows carry no pairing tag, so the cross-check
    skips them."""
    cells = []
    for graph, params, d, _ in NET_SMOKE_GRAPHS:
        for scheduler, start in (
            ("synchronous", "uniform"),
            ("synchronous", "random"),
            ("shuffled-round-robin", "random"),
        ):
            cells.append((graph, params, d, scheduler, start, NO_FAULTS))
    for graph, params, d, radius in NET_SMOKE_GRAPHS:
        for faults in (
            FaultPlan(kind="byzantine", strategy="frozen", density=0.1, radius=radius),
            FaultPlan(kind="crash", density=0.12, times=(25,), radius=radius),
        ):
            cells.append((graph, params, d, "synchronous", "random", faults))
    for graph, params, d, scheduler, start, faults in cells:
        builder.add_paired(
            ({"runtime": "sim"}, {"runtime": "net"}),
            graph,
            params,
            d,
            scheduler=scheduler,
            engine="array",
            start=start,
            max_rounds=4000,
            faults=faults,
            group=f"au@{graph}" if faults.kind == "none" else f"{faults.kind}@{graph}",
        )
    # Unpaired noisy-link coverage: lossy and delayed variants of the
    # ring cell (stabilization slows but must still complete).
    for key, value in (("loss", 0.2), ("delay", 1.0)):
        builder.add_au(
            "ring",
            (("n", 12),),
            6,
            scheduler="synchronous",
            engine="array",
            start="random",
            max_rounds=4000,
            runtime="net",
            net_params=((key, value),),
            group="noisy@ring",
            tags=((key, f"{value:g}"),),
        )


#: Families for the churn-phase campaign: the paper's biological colony
#: graphs — a quorum colony, a signaling-hub colony and a cell tissue —
#: where membership churn is the native failure mode (cells are born
#: and die while the clock runs).
CHURN_GRAPHS: Tuple[GraphSpec, ...] = (
    ("quorum-colony", (("n", 12), ("diameter_bound", 2)), 2),
    ("hub-colony", (("n", 12), ("hubs", 2)), 2),
    ("cell-tissue", (("width", 3), ("height", 3)), 4),
)

#: Expected churn events per step swept by the campaign, spanning the
#: sustainable-to-collapsed range so the per-rate clean fractions
#: bracket the phase boundary on every family.
CHURN_RATES = (0.05, 0.25, 1.0, 4.0)

#: Churn window length in engine steps.
CHURN_WINDOW = 160


@campaign(
    "churn-phase",
    "dynamic-topology churn: kind x rate x colony-family sweep, "
    "lane-paired (object/array/native engines + zero-noise net)",
)
def _churn_phase(builder: CampaignBuilder) -> None:
    """Every cell runs once per *lane* — the three sim engines plus the
    zero-noise net runtime — under the *same* derived seed
    (``seed_index`` pairing).  The
    :class:`~repro.faults.churn.ChurnProcess` delta stream is a pure
    function of the scenario seed, so all four lanes absorb the
    bit-identical sequence of joins, leaves and edge rewires and must
    report bit-identical measured columns — the sharpest cross-check of
    the incremental ``mutate_topology`` paths the campaign layer can
    run (enforced by
    :func:`repro.campaigns.aggregate.verify_engine_pairing`).  The
    aggregated per-(kind, rate, family) clean fractions trace the
    sustainable-churn phase diagram; the boundary extraction lives in
    :func:`repro.analysis.restabilization.churn_phase_boundary` and the
    CI gate in ``benchmarks/bench_churn.py``."""
    lanes = (
        *engine_lanes("object", "array", "native"),
        {"engine": "array", "runtime": "net"},
    )
    for graph, params, d in CHURN_GRAPHS:
        for kind in ("churn", "membership"):
            for rate in CHURN_RATES:
                builder.add_paired(
                    lanes,
                    graph,
                    params,
                    d,
                    scheduler="synchronous",
                    start="random",
                    max_rounds=4000,
                    faults=FaultPlan(kind=kind, rate=rate, times=(CHURN_WINDOW,)),
                    group=f"{kind}(r={rate:g})@{graph}",
                    tags=(("kind", kind), ("rate", f"{rate:g}")),
                )


@campaign(
    "dispatch-straggler",
    "straggler-skewed mix stress-testing the worker pool",
)
def _dispatch_straggler(builder: CampaignBuilder) -> None:
    """Many ~5 ms scenarios plus a few ~40x-slower stragglers, with the
    stragglers *adjacent* in index order — the worst case for static
    sharding, which packs contiguous runs of jobs together and leaves
    the other workers idle while one drains the slow run.  The
    work-stealing pool hands each straggler to a different idle worker,
    and ``benchmarks/bench_campaign_cache.py`` checks that it still
    aggregates bit-identically to the serial run."""
    for trial in range(28):
        builder.add_au(
            "complete",
            (("n", 6),),
            1,
            scheduler="shuffled-round-robin",
            engine="array",
            start="random",
            group="tiny@complete",
            tags=(("trial", str(trial)),),
        )
    for trial in range(4):
        builder.add_au(
            "ring",
            (("n", 48),),
            24,
            scheduler="shuffled-round-robin",
            engine="array",
            start="clock-tear",
            group="straggler@ring",
            tags=(("trial", str(trial)),),
        )

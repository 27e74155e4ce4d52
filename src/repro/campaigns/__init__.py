"""Scenario-campaign subsystem.

Declarative :class:`Scenario` specs (:mod:`repro.campaigns.spec`),
named campaign registries (:mod:`repro.campaigns.registry`), a parallel
runner with JSONL checkpointing behind pluggable dispatch backends
(:mod:`repro.campaigns.runner`, :mod:`repro.campaigns.dispatch`), a
content-addressed deterministic result cache
(:mod:`repro.campaigns.cache`), and deterministic aggregation into
``BENCH_campaign_*.json`` artifacts
(:mod:`repro.campaigns.aggregate`).  Exposed on the command line as
``repro campaign {list,run,report}`` and ``repro cache
{stats,verify,gc}``.
"""

from repro.campaigns.aggregate import (
    aggregate_results,
    default_artifact_path,
    fold_worst_rounds,
    measured_payload,
    state_count,
    sweep_summaries,
    verify_engine_pairing,
    write_campaign_artifact,
)
from repro.campaigns.cache import (
    CacheRunStats,
    ResultCache,
    default_cache_dir,
)
from repro.campaigns.dispatch import (
    DISPATCHER_NAMES,
    Dispatcher,
    ProcessPoolDispatcher,
    QueueDispatcher,
    SerialDispatcher,
    make_dispatcher,
)
from repro.campaigns.registry import (
    CampaignBuilder,
    build_campaign,
    campaign,
    describe_registry,
    registry_names,
)
from repro.campaigns.runner import (
    ScenarioTimeout,
    load_checkpoint,
    run_campaign,
    run_scenario,
    run_scenario_batch,
)
from repro.campaigns.spec import (
    CONTENT_HASH_VERSION,
    FaultPlan,
    Scenario,
    ScenarioResult,
    make_scheduler,
    scheduler_names,
)

__all__ = [
    "CONTENT_HASH_VERSION",
    "CacheRunStats",
    "CampaignBuilder",
    "DISPATCHER_NAMES",
    "Dispatcher",
    "FaultPlan",
    "ProcessPoolDispatcher",
    "QueueDispatcher",
    "ResultCache",
    "Scenario",
    "ScenarioResult",
    "ScenarioTimeout",
    "SerialDispatcher",
    "aggregate_results",
    "build_campaign",
    "campaign",
    "default_artifact_path",
    "default_cache_dir",
    "describe_registry",
    "fold_worst_rounds",
    "load_checkpoint",
    "make_dispatcher",
    "make_scheduler",
    "measured_payload",
    "registry_names",
    "run_campaign",
    "run_scenario",
    "run_scenario_batch",
    "scheduler_names",
    "state_count",
    "sweep_summaries",
    "verify_engine_pairing",
    "write_campaign_artifact",
]

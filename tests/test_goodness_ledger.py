"""The goodness ledger equals a full recount on every code lane.

Hypothesis draws a colony graph (``hub-colony``, ``quorum-colony`` or
``cell-tissue``), a random start, an edge-churn or membership stream of
:class:`~repro.faults.churn.ChurnProcess` (joiners arrive in random,
often faulty, states) and a sequence of steps, whole-round runs,
``poke_codes`` writes and, on the net lane, ``crash_node`` calls.  After
every delta, poke and step, the lane's folded ``(faulty nodes,
unprotected ordered pairs)`` must equal a full recount by the numpy
kernel, and ``graph_is_good`` must equal the object-level predicate
:func:`~repro.core.predicates.is_good_graph` on the lane's
configuration.  The array lane recounts with the numpy kernel and the
native lane with each available backend's compiled kernel.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import algau_native
from repro.core.algau import ThinUnison
from repro.core.algau_native import NativeBackendError
from repro.core.predicates import is_good_graph
from repro.faults.churn import ChurnProcess
from repro.faults.injection import random_configuration
from repro.graphs.biological import cell_tissue, quorum_colony, signaling_hub_colony
from repro.model.array_engine import ArrayExecution
from repro.model.engine import graph_is_good
from repro.model.native_engine import NativeExecution
from repro.model.scheduler import (
    RandomSubsetScheduler,
    ShuffledRoundRobinScheduler,
    SynchronousScheduler,
)
from repro.net import NetExecution

#: Colony families at about 24 nodes: a step there moves anywhere from
#: one node (folded move by move) to most of the colony (the counts
#: dropped for a recount at the next query).
FAMILIES = {
    "hub-colony": lambda rng: signaling_hub_colony(24, rng),
    "quorum-colony": lambda rng: quorum_colony(24, 2, rng),
    "cell-tissue": lambda rng: cell_tissue(5, 5, rng),
}

SCHEDULERS = {
    "synchronous": SynchronousScheduler,
    "shuffled-round-robin": ShuffledRoundRobinScheduler,
    "random-subset": lambda: RandomSubsetScheduler(0.15),
}


def _lanes():
    """``array``, ``net``, and ``native`` on every backend: ``python``
    always, ``cc`` with a C compiler, ``numba`` when installed; an
    unavailable backend is a skipped case."""
    lanes = [pytest.param(lane, None, id=lane) for lane in ("array", "net")]
    for name in ("python", "cc", "numba"):
        try:
            backend = algau_native._BUILDERS[name]()
        except (ImportError, OSError, NativeBackendError):
            skip = pytest.mark.skip(reason=f"the {name} backend is unavailable")
            lanes.append(pytest.param("native", None, id=f"native-{name}", marks=skip))
        else:
            lanes.append(pytest.param("native", backend, id=f"native-{name}"))
    return lanes


def _execution(lane, backend, topology, algorithm, start, scheduler, seed):
    rng = np.random.default_rng(seed)
    if lane == "net":
        return NetExecution(topology, algorithm, start, scheduler, rng=rng)
    if lane == "array":
        return ArrayExecution(topology, algorithm, start, scheduler, rng=rng)
    # The compiled kernel is built during construction, from the
    # resolved backend.
    with mock.patch.object(algau_native, "_RESOLVED", backend):
        return NativeExecution(topology, algorithm, start, scheduler, rng=rng)


def _check(execution, algorithm):
    ledger = execution._ledger
    recount = tuple(
        algorithm.vector_kernel().goodness_counts(
            np.array(execution.codes), execution.topology.inclusive_csr()
        )
    )
    # A change set of more than four rows defers to a recount on the
    # next query.
    assert ledger.counts in (None, recount)
    good = is_good_graph(algorithm, execution.configuration)
    assert execution.graph_is_good() == good
    assert ledger.counts == recount


OPS = ("step", "step", "delta", "delta", "poke", "run", "crash")


@pytest.mark.parametrize("lane, backend", _lanes())
@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    membership=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=30),
)
def test_folded_counts_equal_a_recount(
    lane, backend, family, scheduler, membership, seed, ops
):
    rng = np.random.default_rng(seed)
    algorithm = ThinUnison(3)
    topology = FAMILIES[family](rng)
    start = random_configuration(algorithm, topology, rng)
    execution = _execution(
        lane, backend, topology, algorithm, start, SCHEDULERS[scheduler](), seed
    )
    join_rng = np.random.default_rng(seed + 1)
    churn = ChurnProcess(
        topology,
        seed=seed,
        edge_add_rate=1.0,
        edge_remove_rate=1.0,
        join_rate=0.5 if membership else 0.0,
        leave_rate=0.5 if membership else 0.0,
        initial_state=lambda: algorithm.random_state(join_rng),
    )
    size = algorithm.encoding.size
    _check(execution, algorithm)
    for op in ops:
        alive = [
            v for v in execution.topology.nodes if v not in execution.masked_nodes
        ]
        if op == "step":
            execution.step()
        elif op == "run":
            execution.run(max_steps=2 * len(alive), until=graph_is_good)
        elif op == "delta":
            delta = churn.sample()
            if delta is not None:
                execution.mutate_topology(delta)
        elif op == "poke":
            # Up to four rows fold move by move; more drop the counts for
            # a recount on the next query.
            count = min(int(rng.integers(1, 7)), len(alive))
            rows = rng.choice(alive, size=count, replace=False)
            execution.poke_codes(rows, rng.integers(0, size, count))
        elif lane == "net" and len(alive) > 2:
            execution.crash_node(int(rng.choice(alive)))
        _check(execution, algorithm)

"""The in-repo ``regular`` generator against networkx's.

:func:`~repro.graphs.generators.random_regular` runs networkx's
pairing algorithm itself and feeds the edge set straight into the CSR.
Every pinned digest built on a ``regular`` graph depends on it drawing
exactly the graphs ``Topology(nx.random_regular_graph(d, n, seed))``
gave: the same CSR, the same ``edges`` order (``perturb_topology``
draws rewires from it) and the same retries, failed pairings and
disconnected draws included.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

import repro
from repro.graphs.generators import _pairing_edges, make_graph, random_regular
from repro.graphs.topology import Topology
from repro.model.errors import TopologyError


def _networkx_regular(n, degree, rng, max_attempts):
    """The construction the generator replaced: networkx's graph under
    the same outer seed draws, read by ``Topology``; ``None`` when every
    attempt was disconnected."""
    for _ in range(max_attempts):
        seed = int(rng.integers(2**31))
        try:
            return Topology(nx.random_regular_graph(degree, n, seed=seed))
        except TopologyError:
            continue
    return None


def _assert_same_draw(n, degree, seed, max_attempts=200):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    reference = _networkx_regular(n, degree, reference_rng, max_attempts)
    if reference is None:
        with pytest.raises(TopologyError, match="not connected"):
            random_regular(n, degree, rng, max_attempts=max_attempts)
    else:
        built = random_regular(n, degree, rng, max_attempts=max_attempts)
        csr, expected = built.inclusive_csr(), reference.inclusive_csr()
        assert np.array_equal(csr.indptr, expected.indptr)
        assert np.array_equal(csr.indices, expected.indices)
        assert built.edges == reference.edges
        assert built.name == f"regular(n={n}, d={degree})"
    # The outer numpy stream advanced by the same number of attempts.
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "n, degree",
    [(n, d) for n in (2, 5, 9, 16, 31) for d in range(n) if n * d % 2 == 0]
    + [(64, 3), (200, 6)],
)
def test_matches_networkx_on_a_grid(n, degree, seed):
    _assert_same_draw(n, degree, seed)


def _first_seed(seed):
    return int(np.random.default_rng(seed).integers(2**31))


@pytest.mark.parametrize(
    "n, degree, seed", [(6, 4, 0), (8, 6, 0), (12, 6, 2), (20, 6, 1)]
)
def test_matches_networkx_after_a_failed_pairing(n, degree, seed):
    # The first pairing attempt leaves stubs that cannot pair, so
    # networkx (and the port) shuffle afresh on the same stream.
    assert _pairing_edges(n, degree, random.Random(_first_seed(seed))) is None
    _assert_same_draw(n, degree, seed)


@pytest.mark.parametrize("n, degree, seed", [(8, 2, 0), (10, 2, 1), (12, 2, 2)])
def test_matches_networkx_after_a_disconnected_draw(n, degree, seed):
    # The first draw is a disconnected union of cycles, so the outer
    # loop draws a new seed.
    graph = nx.random_regular_graph(degree, n, seed=_first_seed(seed))
    assert not nx.is_connected(graph)
    _assert_same_draw(n, degree, seed)


def test_degree_zero():
    # One node is connected with no edges; more are never connected.
    assert random_regular(1, 0, np.random.default_rng(0)).m == 0
    _assert_same_draw(1, 0, 0)
    _assert_same_draw(4, 0, 0, max_attempts=3)


@pytest.mark.parametrize(
    "n, degree, condition",
    [
        (7, 3, "n \\* d even"),
        (5, 1, "n \\* d even"),
        (4, 4, "0 <= d < n"),
        (3, 6, "0 <= d < n"),
        (4, -2, "0 <= d < n"),
    ],
)
def test_invalid_parameters_raise_before_any_draw(n, degree, condition):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(TopologyError, match=condition):
        random_regular(n, degree, rng)
    assert rng.bit_generator.state == before


def test_builds_no_networkx_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a networkx graph was built")

    monkeypatch.setattr(nx.Graph, "add_edges_from", refuse)
    monkeypatch.setattr(nx.Graph, "add_edge", refuse)
    topology = make_graph("regular", np.random.default_rng(0), n=300, degree=6)
    assert topology.n == 300 and topology.m == 900


_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from repro.graphs.generators import random_regular

topology = random_regular(400, 5, np.random.default_rng(7))
csr = topology.inclusive_csr()
digest = hashlib.sha256()
for array in (csr.indptr, csr.indices, np.asarray(topology.edges)):
    digest.update(array.tobytes())
print(digest.hexdigest())
"""


def test_edge_order_does_not_depend_on_hash_randomization():
    """The edge order comes from iterating a set of int pairs; two
    ``PYTHONHASHSEED`` values must give the same CSR and edge order."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    digests = [
        subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in ("0", "12345")
    ]
    assert len(digests[0]) > 64 and digests[0] == digests[1]

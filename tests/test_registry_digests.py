"""Pinned seed-0 aggregates of whole campaign registries.

The repository benchmark pins its own workloads, but it swaps out the
``byzantine`` registry's targeted cells, and the nightly CI shards only
compare worker counts against each other.  These digests pin the full
registries at the default seed, so a change to the adversary layer, an
engine lane or the runner that moves any aggregate fails here.  The
nightly CI determinism steps check their 4-worker aggregates against
the same constants.

The digest is the repository benchmark's
:func:`workloads.aggregates_digest`: SHA-256 of the canonical JSON of
the aggregates.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.campaigns import (
    aggregate_results,
    build_campaign,
    run_campaign,
    verify_engine_pairing,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import aggregates_digest  # noqa: E402

#: Seed-0 aggregate digests of the full registries.
REGISTRY_DIGESTS = {
    "byzantine": "d50641b93d9595a04c366e4910f15bbc105005bb7a8ed2329629323bcf3f127f",
    "native-pairing": (
        "df98844c805a6b0814fb55fb6d4f95e9a31582a01a3a6d4b9e3c5fd48cb11119"
    ),
    "net-smoke": "5cec372879f764c95f47b25022cc99146d435e8dcb75237dd76a490f55358e71",
}


@pytest.mark.parametrize("name", sorted(REGISTRY_DIGESTS))
def test_registry_aggregates_are_pinned(name):
    scenarios = build_campaign(name)
    aggregates = aggregate_results(name, scenarios, run_campaign(scenarios), 0)
    # net-smoke's lossy-link cells are deliberately unpaired.
    assert not verify_engine_pairing(aggregates["rows"], allow_unpaired=True)
    assert aggregates_digest(aggregates) == REGISTRY_DIGESTS[name]

"""`NetAdapter`: the campaign-facing entry to the net runtime.

The campaign layer stays declarative: a :class:`~repro.campaigns.spec.Scenario`
with ``runtime="net"`` is the *same* spec as its simulation twin plus
the link knobs in ``net_params``.  This adapter owns the mapping from
the spec's simulation-era axes onto the deployment model:

* **scheduler daemons → activation timers.**  A scheduler's step-``t``
  activation set becomes the set of per-node timers firing in virtual
  slot ``t``: the synchronous daemon is "every node's timer fires every
  slot", shuffled round-robin is "one timer per slot in a fair shuffled
  order".  The daemon still draws from the scenario's parity RNG stream
  in the inherited step machinery, which is what keeps the activation
  sequence bit-identical to the simulation lane.  Enabled-aware daemons
  have no deployment analogue (a timer cannot see remote enabledness)
  and are rejected at spec validation.
* **FaultPlan kinds → node-level faults.**  ``crash`` masks the faulty
  nodes — their timers stop firing, so they stop acting *and
  broadcasting*, their codes freeze, and their neighbors' registers of
  them keep the last message heard; ``byzantine`` runs the
  standard :class:`~repro.resilience.adversary.PermanentFaultAdversary`,
  whose per-step state overrides reach the neighbors through the
  runtime's instant register refresh (the omniscient-adversary
  convention: it rewrites memories, not messages).
* **seeds → noise.**  The scenario seed doubles as the link-noise seed;
  the noise stream is namespaced away from the parity stream, so a
  noiseless net scenario consumes exactly the simulation lane's draws.

Emitted :class:`~repro.campaigns.spec.ScenarioResult` rows therefore
carry the same stabilization/moves columns with the same meanings, and
:func:`~repro.campaigns.aggregate.verify_engine_pairing` can hold the
sim and net lanes to bit-identical measured columns under zero noise.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graphs.topology import Topology
from repro.model.algorithm import Algorithm
from repro.model.configuration import Configuration
from repro.model.engine import Intervention, Monitor
from repro.model.scheduler import Scheduler
from repro.net.links import LinkConfig
from repro.net.runtime import NetExecution


class NetAdapter:
    """Builds :class:`~repro.net.runtime.NetExecution` instances from
    campaign scenarios (see the module docstring for the axis mapping).
    """

    @staticmethod
    def create(
        scenario,
        topology: Topology,
        algorithm: Algorithm,
        initial_configuration: Configuration,
        scheduler: Scheduler,
        rng: Optional[np.random.Generator] = None,
        monitors: Tuple[Monitor, ...] = (),
        intervention: Optional[Intervention] = None,
    ) -> NetExecution:
        """Build the scenario's net execution.

        The caller supplies the already-materialized graph/algorithm/
        start configuration (built from the scenario's parity RNG in the
        standard order) so the net lane consumes the stream exactly as
        the simulation lane does.
        """
        return NetExecution(
            topology,
            algorithm,
            initial_configuration,
            scheduler,
            rng=rng,
            monitors=monitors,
            intervention=intervention,
            link_config=LinkConfig.from_params(dict(scenario.net_params)),
            noise_seed=scenario.seed,
        )

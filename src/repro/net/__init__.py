"""Message-passing deployment runtime (the ``runtime="net"`` lane).

The simulation engines of :mod:`repro.model` evaluate AlgAU under the
paper's shared-memory abstraction: an activated node reads its
neighbors' states directly out of the configuration.  This package
replaces that abstraction with an executable deployment model — each
node holds only its own AlgAU state and what it last heard from each
neighbor, neighbors exchange constant-size clock messages over
simulated fair-lossy links (configurable delay, jitter, reordering,
loss, duplication), and every
message in flight waits in one virtual-time delivery queue, so every
run is seeded and fully deterministic.

Modules:

* :mod:`repro.net.links` — :class:`LinkConfig`, the fair-lossy link
  model (per-edge loss/duplication with a bounded-consecutive-loss
  fairness guarantee) and :class:`MessageNetwork`, the queue of
  in-flight deliveries (a FIFO of broadcasts under noiseless links, a
  heap otherwise);
* :mod:`repro.net.runtime` — :class:`NetExecution`, the
  :class:`~repro.model.engine.ExecutionBase` implementation over a
  register table (one code, one neighborhood and one
  last-writer-wins register per neighbor for each node; one AlgAU
  transition and one stubborn broadcast per activation), so schedulers,
  monitors, adversaries, and the ``run`` driver compose unchanged;
* :mod:`repro.net.adapter` — :class:`NetAdapter`, mapping campaign
  :class:`~repro.campaigns.spec.Scenario` axes onto the runtime.

The differential contract: under zero-delay/zero-loss links the
runtime's trajectories are bit-identical to the simulation engines
(asserted by the ``net-smoke`` campaign and
``benchmarks/bench_net_runtime.py``); under injected delay/loss the
system still stabilizes, with a bounded slowdown.
"""

from repro.net.adapter import NetAdapter
from repro.net.links import FairLossyLink, LinkConfig, MessageNetwork, NetStats
from repro.net.runtime import NetExecution

__all__ = [
    "FairLossyLink",
    "LinkConfig",
    "MessageNetwork",
    "NetAdapter",
    "NetExecution",
    "NetStats",
]

"""The permanent-fault adversary: an execution-level intervention.

:class:`PermanentFaultAdversary` imposes a
:class:`~repro.resilience.strategies.ByzantineStrategy` on a fixed set
of faulty nodes.  It plugs into the ``intervention`` slot of any
execution engine (the same slot the transient
:class:`~repro.faults.injection.TransientFaultInjector` uses) and runs
before every step:

1. it (un)masks the faulty nodes according to the strategy's
   :meth:`~repro.resilience.strategies.ByzantineStrategy.masked_at` —
   masked nodes drop out of the engine's batched δ application, so the
   vectorized hot loop stays batched (the faulty lanes simply are not
   rows of the update);
2. it writes the strategy's per-step ``(rows, codes)`` overrides
   through :meth:`~repro.model.engine.ExecutionBase.poke_codes`, which
   drops no-op writes.  The array-tier engines and the net runtime
   compare and write codes directly; only the object engine decodes
   them, at its own boundary.

Because honest nodes evaluate their signals under the *pre-step*
configuration, they sense exactly the adversarial states for the whole
step, never a faulty node's hypothetical honest transition.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.graphs.topology import Topology
from repro.model.errors import ModelError
from repro.resilience.strategies import ByzantineStrategy


def select_faulty_nodes(
    topology: Topology,
    density: float,
    rng: np.random.Generator,
) -> Tuple[int, ...]:
    """Pick ``ceil(density * n)`` distinct faulty nodes (at least one,
    and always leaving at least one correct node)."""
    if not 0.0 < density < 1.0:
        raise ModelError(f"fault density must be in (0, 1), got {density}")
    n = topology.n
    count = max(1, int(np.ceil(density * n)))
    if count >= n:
        raise ModelError(
            f"density {density} faults {count}/{n} nodes; at least one "
            f"node must stay correct"
        )
    victims = rng.choice(n, size=count, replace=False)
    return tuple(sorted(int(v) for v in victims))


class PermanentFaultAdversary:
    """Imposes a permanent-fault strategy on ``nodes`` of an execution.

    Pass an instance as the ``intervention`` of
    :func:`~repro.model.engine.create_execution`; it composes with both
    engines.  The adversary draws randomness from ``rng`` in an
    engine-independent per-step order, so the same seed produces
    bit-identical trajectories on the object and array backends.
    """

    def __init__(
        self,
        strategy: ByzantineStrategy,
        nodes: Iterable[int],
        rng: Optional[np.random.Generator] = None,
    ):
        self.strategy = strategy
        self.nodes: Tuple[int, ...] = tuple(sorted({int(v) for v in nodes}))
        if not self.nodes:
            raise ModelError("permanent-fault adversary needs at least one node")
        self._rng = rng if rng is not None else np.random.default_rng()
        self._masked: Optional[bool] = None
        self._initialized = False

    def __call__(self, execution):
        t = execution.t
        if not self._initialized:
            self._initialized = True
            if max(self.nodes) >= execution.topology.n:
                raise ModelError(
                    f"faulty nodes {self.nodes} exceed the topology "
                    f"({execution.topology.n} nodes)"
                )
            execution.poke_codes(
                *self.strategy.initial_states(
                    execution.algorithm, execution.topology, self.nodes, self._rng
                )
            )
        masked = self.strategy.masked_at(t)
        if masked != self._masked:
            execution.mask_nodes(self.nodes if masked else ())
            self._masked = masked
        rows, codes = self.strategy.states_at(execution, self.nodes, self._rng, t)
        if len(rows):
            execution.poke_codes(rows, codes)
        return None  # states were poked in place; no configuration swap

    def __repr__(self) -> str:
        return (
            f"<PermanentFaultAdversary {self.strategy.name!r} "
            f"nodes={self.nodes}>"
        )

"""The synchronizer transformer of Corollary 1.2.

A node's *pulse* is one type-AA transition of its AlgAU coordinate;
count pulses with :meth:`Synchronizer.pulse_advanced` over the
``changed`` tuples of the records that ``step()`` returns.
"""

from repro.sync.synchronizer import Synchronizer, SyncState

__all__ = ["SyncState", "Synchronizer"]

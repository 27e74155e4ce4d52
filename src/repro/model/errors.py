"""Exception hierarchy for the stone age model substrate.

Every error raised by :mod:`repro` derives from :class:`ReproError` so
that callers can catch library failures without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ModelError(ReproError):
    """An algorithm or execution violated the stone age model contract."""


class UnknownEngineError(ModelError, ValueError):
    """An unknown execution-engine name was requested.

    Doubles as a :class:`ValueError` so that callers validating user
    input (CLI flags, scenario specs) can catch it without importing the
    model error hierarchy.
    """


class ConfigurationError(ModelError):
    """A configuration is malformed (unknown node, illegal state, ...)."""


class ScheduleError(ModelError):
    """A scheduler produced an illegal activation set."""


class TopologyError(ReproError, ValueError):
    """A graph is unusable (disconnected, empty, diameter bound violated)
    or a topology delta is malformed or inconsistent with the graph.

    Doubles as a :class:`ValueError`, the contract of delta validation.
    """

"""Presentation helpers: Figure-1 regeneration."""

from repro.viz.state_diagram import (
    StateDiagram,
    state_diagram,
    to_dot,
    to_text,
    verify_figure1_structure,
)

__all__ = [
    "StateDiagram",
    "state_diagram",
    "to_dot",
    "to_text",
    "verify_figure1_structure",
]

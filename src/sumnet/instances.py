"""Built-in named instances.

The named structures pin the worked examples the CLI and the acceptance
suite rely on, so nothing needs external files.  ``INSTANCES`` maps each
name to its family ("graph" or "bibd") and a function that builds it;
``ALIASES`` maps another name to one of them.
"""

from __future__ import annotations

from typing import Callable

from . import incidence
from .incidence import IncidenceStructure


def _fig3_graph() -> IncidenceStructure:
    # A 3-star centered at vertex 1 plus the disjoint edge {5,6}.
    return incidence.from_graph(6, [(1, 2), (1, 3), (1, 4), (5, 6)])


def _fig4a_graph() -> IncidenceStructure:
    # 4 vertices, 5 edges; irregular (degrees 3,2,3,2).
    return incidence.from_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])


INSTANCES: dict[str, tuple[str, Callable[[], IncidenceStructure]]] = {
    "k2": ("graph", lambda: incidence.from_graph(2, [(1, 2)])),
    "triangle": ("graph", lambda: incidence.from_graph(3, [(1, 2), (1, 3), (2, 3)])),
    "fig3": ("graph", _fig3_graph),
    "fig4a": ("graph", _fig4a_graph),
    "star-composite": ("graph", incidence.star_composite),  # hub degrees 7/16/11
    "fano": ("bibd", incidence.fano),
}

ALIASES = {"fig6": "star-composite"}

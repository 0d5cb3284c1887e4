"""Built-in named instances.

The named structures pin the worked examples the CLI and the acceptance
suite rely on, so nothing needs external files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import incidence
from .incidence import IncidenceStructure


@dataclass(frozen=True)
class NamedInstance:
    name: str
    family: str  # "graph", "bibd", "tdesign", or "higher"
    description: str
    build: Callable[[], IncidenceStructure]


def _fig3_graph() -> IncidenceStructure:
    # A 3-star centered at vertex 1 plus the disjoint edge {5,6}.
    return incidence.from_graph(6, [(1, 2), (1, 3), (1, 4), (5, 6)])


def _fig4a_graph() -> IncidenceStructure:
    # 4 vertices, 5 edges; irregular (degrees 3,2,3,2).
    return incidence.from_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])


INSTANCES: dict[str, NamedInstance] = {}


def _register(name: str, family: str, description: str, build) -> None:
    INSTANCES[name] = NamedInstance(name, family, description, build)


_register("k2", "graph", "single edge on two vertices", lambda: incidence.from_graph(2, [(1, 2)]))
_register("triangle", "graph", "triangle graph (equals its own transpose)",
          lambda: incidence.from_graph(3, [(1, 2), (1, 3), (2, 3)]))
_register("fig3", "graph", "3-star plus a disjoint edge (6 vertices, 4 edges)", _fig3_graph)
_register("fig4a", "graph", "irregular 4-vertex graph with 5 edges", _fig4a_graph)
_register("star-composite", "graph",
          "three bridged stars, hub degrees 7/16/11 (33 vertices, 32 edges)",
          incidence.star_composite)
_register("fano", "bibd", "Fano plane, the 2-(7,3,1) design", incidence.fano)

ALIASES = {"fig6": "star-composite"}


def get_instance(name: str) -> NamedInstance:
    key = ALIASES.get(name, name)
    if key not in INSTANCES:
        known = ", ".join(sorted(INSTANCES) + sorted(ALIASES))
        raise KeyError(f"unknown instance {name!r}; known: {known}")
    return INSTANCES[key]

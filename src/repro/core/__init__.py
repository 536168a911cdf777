"""The paper's primary contribution: PLDS and the sequential LDS baseline."""

from .densest import charikar_peel, densest_subgraph_estimate
from .invariants import (
    approximation_violations,
    structure_matches_edges,
)
from .lds import LDS
from .orientation import (
    degeneracy,
    is_acyclic_orientation,
    max_out_degree,
    out_degrees,
)
from .plds import PLDS, DirectedEdge, UpdateResult
from .query import CorenessQueries, EpochSnapshot, QueryView

__all__ = [
    "PLDS",
    "CorenessQueries",
    "EpochSnapshot",
    "QueryView",
    "charikar_peel",
    "densest_subgraph_estimate",
    "LDS",
    "DirectedEdge",
    "UpdateResult",
    "approximation_violations",
    "structure_matches_edges",
    "degeneracy",
    "is_acyclic_orientation",
    "max_out_degree",
    "out_degrees",
]

"""Independent geometric verification layer.

Everything in this subpackage works directly from rational linear algebra on
coordinates: no chains, ensembles, tableaux or other combinatorial models are
consulted, so its outputs can arbitrate the combinatorial layers.
"""

from .arrangement import Arrangement, CapExceeded, SignCondition, gl_arrangement
from .cells import (
    CellEnumeration,
    adjacency_from_cells,
    cell_feasible,
    enumerate_cells,
    rays_geometric,
)
from .flats import FlatEnumeration, enumerate_flats_geometric, enumerate_generic_flats
from .weightsystems import (
    WeightSystem,
    chamber_cell_counts,
    check_weights_proportional_to_roots,
    simplex_counts,
    weight_system,
)

__all__ = [
    "Arrangement",
    "CapExceeded",
    "CellEnumeration",
    "FlatEnumeration",
    "SignCondition",
    "WeightSystem",
    "adjacency_from_cells",
    "cell_feasible",
    "chamber_cell_counts",
    "check_weights_proportional_to_roots",
    "enumerate_cells",
    "enumerate_flats_geometric",
    "enumerate_generic_flats",
    "gl_arrangement",
    "rays_geometric",
    "simplex_counts",
    "weight_system",
]

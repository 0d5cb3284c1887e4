"""sumnet: sum-networks from incidence structures.

A workbench that builds the sum-network of a (0,1)-matrix, computes exact
characteristic-dependent upper bounds on its computation capacity,
generates matching linear network codes, and machine-verifies that every
terminal decodes the finite-field sum of all source messages.
"""

from .bounds import (
    BoundResult,
    SubsetSearchRefused,
    bound_matrix,
    closure_columns,
    family_bound,
    rank_bound,
    subset_bound,
    subset_bound_limited,
    support_product,
)
from .codes import (
    Decoder,
    NetworkCode,
    NoApplicableCode,
    OverlapResidue,
    build_graph_transpose_code,
    build_scalar_code,
    build_transfer_code,
    check_transfer_matrix,
    export_code,
    find_margin_matrix,
    find_transfer_matrix,
    import_code,
    lift_code,
    overlap_residue,
)
from .gf import IntMatrix, PrimeField, is_prime
from .incidence import (
    DesignParams,
    IncidenceStructure,
    all_subsets_design,
    complete_graph,
    fano,
    from_graph,
    higher_incidence,
    star_composite,
    steiner_triple,
    validate_design,
)
from .network import SumNetwork, build_sum_network, export_graph, import_graph, min_cut
from .report import CapacityRow, RowSpec, capacity_table, higher_family_capacity
from .verify import VerifyReport, exhaustive_oracle, verify_exact, verify_random

__version__ = "0.1.0"

"""Partitions of multihypergraphs into strictly degenerate parts.

The library decides whether a multihypergraph splits into p classes, the
i-th inducing a strictly f_i-degenerate subhypergraph, and returns either
such a partition or a checkable certificate describing why none exists.
Coloring applications (list coloring, degree-constrained partitions,
point-partition numbers) are thin reductions to the same solver.
"""

from .coloring import (
    ColoringResult,
    chi_and_chi_list,
    chromatic_number,
    degree_constrained_partition,
    is_k_choosable,
    is_Lxs_choosable,
    is_proper,
    list_color,
    list_to_vector,
    point_partition_number,
)
from .degeneracy import DegeneracyWitness, col, is_strictly_degenerate
from .hardpair import (
    CTag,
    HardPairCertificate,
    KTag,
    MTag,
    classify_block,
    hard_components,
    is_hard,
    make_hard,
    random_hard_plan,
    verify_certificate,
)
from .hypergraph import (
    Hypergraph,
    VectorFunction,
    complete_uniform,
    cycle,
    merge,
    path,
    random_hypergraph,
    t_fold,
    t_fold_complete_parameters,
    t_fold_cycle_parameters,
)
from .instancefile import Instance, ParseError, emit_instance, parse_instance
from .oracle import OracleVerdict, brute_partitionable, brute_strictly_degenerate
from .partition import (
    SolveResult,
    enforce_degree_bounds,
    partition_weight,
    reduce_pair,
    solve,
    verify_partition,
)
from .structure import BlockTree, blocks, components, is_connected, separating_vertices

__all__ = [
    "BlockTree",
    "CTag",
    "ColoringResult",
    "DegeneracyWitness",
    "HardPairCertificate",
    "Hypergraph",
    "Instance",
    "KTag",
    "MTag",
    "OracleVerdict",
    "ParseError",
    "SolveResult",
    "VectorFunction",
    "blocks",
    "brute_partitionable",
    "brute_strictly_degenerate",
    "chi_and_chi_list",
    "chromatic_number",
    "classify_block",
    "col",
    "complete_uniform",
    "components",
    "cycle",
    "degree_constrained_partition",
    "emit_instance",
    "enforce_degree_bounds",
    "hard_components",
    "is_Lxs_choosable",
    "is_connected",
    "is_hard",
    "is_k_choosable",
    "is_proper",
    "is_strictly_degenerate",
    "list_color",
    "list_to_vector",
    "make_hard",
    "merge",
    "partition_weight",
    "parse_instance",
    "path",
    "point_partition_number",
    "random_hard_plan",
    "random_hypergraph",
    "reduce_pair",
    "solve",
    "separating_vertices",
    "t_fold",
    "t_fold_complete_parameters",
    "t_fold_cycle_parameters",
    "verify_certificate",
    "verify_partition",
]

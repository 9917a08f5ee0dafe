"""Exact longest-cycle transversal machinery for bounded-treewidth graphs."""

from .classify import (
    BagContext,
    CyclePosture,
    Fencing,
    Posture,
    Side,
    cross_or_fence,
    cycle_posture,
    k_intersect,
    path_side,
    s_equivalent,
    vertex_side,
)
from .cycles import (
    Cycle,
    LongestCycleSet,
    PathSegment,
    enumerate_longest_cycles,
    join,
    longest_cycle_length_td,
    parts,
    tails,
)
from .decomposition import (
    Branch,
    BranchUnion,
    TreeDecomposition,
    branch_at,
    branch_of_route,
    branch_of_vertex,
    branch_union,
    check_separator_property,
    exact_treewidth,
    full_tree_decomposition,
    has_treewidth_at_most_2,
    require_valid,
    validate,
)
from .generate import GenSpec, canonical_key, exhaustive_small, generate_k_tree, generate_partial_k_tree
from .graph import (
    Graph,
    Graph6Error,
    components_after_removal,
    is_biconnected,
    parse_graph6,
    separates,
    write_graph6,
)
from .transversal import (
    CycleFamilies,
    GraphFacts,
    TransversalResult,
    build_families,
    check_escape_cycle,
    check_fenced_or_shared,
    check_pairwise_and_common,
    compute_lct,
    conjecture_scan,
)

__version__ = "0.1.0"

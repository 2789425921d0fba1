"""Subtree counting and extremal trees for prescribed degree sequences.

The number of subtrees of a tree (nonempty connected induced subgraphs)
is maximized, among all trees with a fixed degree sequence, by a unique
greedy breadth-first tree; the maximum grows strictly along the
majorization order on sequences.  This package computes subtree counts
exactly, builds the extremal trees, walks majorization chains, answers
extremal questions for constrained classes, and verifies all of it
against brute-force enumeration.
"""

from __future__ import annotations

from .counting import FVector, count_containing_all, count_rooted, count_subtrees, f_vector
from .errors import (
    InfeasibleConstraint,
    InvalidVertex,
    NotATree,
    NotComparable,
    NotRealizable,
    ParseError,
    SubtreeError,
    TooLarge,
)
from .extremal import (
    build_greedy_bfs,
    has_bfs_ordering,
    local_search_optimize,
    swap_components,
)
from .formulas import (
    ClassAnswer,
    bound_path_star,
    independence_extremal,
    independence_number,
    leaves_extremal,
    matching_extremal,
    matching_number,
    max_degree_extremal,
    wiener_index,
)
from .majorization import majorization_chain, majorizes
from .oracle import (
    count_subtrees_bruteforce,
    enumerate_trees,
    labeled_tree_count,
    prufer_sequences,
    realizable_sequences,
    tree_from_prufer,
)
from .trees import (
    Tree,
    canonical_code,
    degree_sequence_of,
    format_edge_list,
    is_isomorphic,
    parse_degree_sequence,
    parse_edge_list,
    path_between,
    relabel,
    tree_from_edges,
    validate_degree_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Tree",
    "FVector",
    "ClassAnswer",
    "tree_from_edges",
    "validate_degree_sequence",
    "degree_sequence_of",
    "path_between",
    "canonical_code",
    "is_isomorphic",
    "relabel",
    "parse_edge_list",
    "parse_degree_sequence",
    "format_edge_list",
    "count_rooted",
    "count_subtrees",
    "f_vector",
    "count_containing_all",
    "build_greedy_bfs",
    "has_bfs_ordering",
    "swap_components",
    "local_search_optimize",
    "majorizes",
    "majorization_chain",
    "bound_path_star",
    "max_degree_extremal",
    "leaves_extremal",
    "independence_extremal",
    "matching_extremal",
    "wiener_index",
    "matching_number",
    "independence_number",
    "tree_from_prufer",
    "prufer_sequences",
    "enumerate_trees",
    "count_subtrees_bruteforce",
    "labeled_tree_count",
    "realizable_sequences",
    "SubtreeError",
    "ParseError",
    "NotATree",
    "NotRealizable",
    "InvalidVertex",
    "NotComparable",
    "InfeasibleConstraint",
    "TooLarge",
]

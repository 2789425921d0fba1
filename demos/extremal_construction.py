"""
Building the subtree-richest tree of a degree sequence
======================================================

Handing the largest degrees out layer by layer from the root produces the
greedy breadth-first tree, the unique subtree-count maximizer among all
trees realizing the sequence.  This script builds one mid-sized example,
inspects its BFS-ordering, and watches local search climb from a poor
starting tree to the optimum, which it reaches here but not from every tree.
"""

from subtrees import (
    build_greedy_bfs,
    count_subtrees,
    degree_sequence_of,
    has_bfs_ordering,
    local_search_optimize,
    tree_from_edges,
)

# A 19-vertex sequence: two degree-4 vertices, five degree-3, one degree-2
# and eleven leaves.
pi = (4, 4, 3, 3, 3, 3, 3, 2) + (1,) * 11
tree, sizes = build_greedy_bfs(pi)
print("layer sizes:", sizes)
print("phi(T*) =", count_subtrees(tree))

# The construction labels vertices in BFS order, and that order is a
# BFS-ordering: heights never drop, degrees never rise, and children
# follow their parents' order.
ok, witness = has_bfs_ordering(tree, 0)
print("greedy tree has a BFS-ordering:", ok)

# Most trees admit no BFS-ordering from any root.  The spider with legs
# of lengths 1, 1 and 3 realizes the same degrees as the one with legs
# 1, 2, 2 but orders its degrees badly.
lanky = tree_from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
print(
    "lanky spider has a BFS-ordering from some root:",
    any(has_bfs_ordering(lanky, r)[0] for r in range(6)),
)

# Local search repairs it: degree-preserving rewirings are applied while
# any of them strictly increases the subtree count.
print("phi before:", count_subtrees(lanky))
better = local_search_optimize(lanky)
print("phi after: ", count_subtrees(better))

# The end point is the greedy tree of the same degree sequence.
target, _ = build_greedy_bfs(degree_sequence_of(lanky))
print("reached the greedy optimum:", count_subtrees(better) == count_subtrees(target))

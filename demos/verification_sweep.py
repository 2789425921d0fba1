"""
Exhaustive verification at small orders
=======================================

For every degree sequence up to eight vertices, enumerate the whole
isomorphism class from the free-tree stream and confirm two things: the
greedy BFS tree is the unique subtree-count maximizer, and the same tree
minimizes the Wiener index (total pairwise distance) within its class.
"""

from subtrees import (
    build_greedy_bfs,
    canonical_code,
    count_subtrees,
    enumerate_trees,
    realizable_sequences,
    wiener_index,
)

max_phi = {}
for n in range(4, 9):
    print(f"n = {n}")
    for pi in realizable_sequences(n):
        classes = [(canonical_code(t), t, count_subtrees(t)) for t in enumerate_trees(pi)]
        max_phi[pi] = max(phi for _, _, phi in classes)
        greedy, _ = build_greedy_bfs(pi)

        maximizers = [code for code, _, phi in classes if phi == max_phi[pi]]
        unique_max = maximizers == [canonical_code(greedy)]

        wieners = [(wiener_index(t), code) for code, t, _ in classes]
        least = min(w for w, _ in wieners)
        wiener_min_codes = [code for w, code in wieners if w == least]
        coincides = wiener_min_codes == [canonical_code(greedy)]

        print(
            f"  pi={','.join(map(str, pi))}"
            f"  classes={len(classes):2d}"
            f"  phi*={max_phi[pi]:4d}"
            f"  unique-max={'yes' if unique_max else 'NO'}"
            f"  wiener-min-coincides={'yes' if coincides else 'NO'}"
        )
    print()

print("phi* above always equals count_subtrees of the greedy tree:")
checks = []
for pi, best in max_phi.items():
    tree, _ = build_greedy_bfs(pi)
    checks.append(count_subtrees(tree) == best)
print("all agree:", all(checks))

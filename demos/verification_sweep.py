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
    extremal_by_enumeration,
    realizable_sequences,
    wiener_index,
)

for n in range(4, 9):
    print(f"n = {n}")
    for pi in realizable_sequences(n):
        summary = extremal_by_enumeration(pi)
        greedy, _ = build_greedy_bfs(pi)

        unique_max = [code for code, _, _ in summary.maximizers] == [
            canonical_code(greedy)
        ]

        wieners = [(wiener_index(t), code) for code, t, _ in summary.iso_classes]
        least = min(w for w, _ in wieners)
        wiener_min_codes = [code for w, code in wieners if w == least]
        coincides = wiener_min_codes == [canonical_code(greedy)]

        print(
            f"  pi={','.join(map(str, pi))}"
            f"  classes={len(summary.iso_classes):2d}"
            f"  phi*={summary.max_phi:4d}"
            f"  unique-max={'yes' if unique_max else 'NO'}"
            f"  wiener-min-coincides={'yes' if coincides else 'NO'}"
        )
    print()

print("phi* above always equals count_subtrees of the greedy tree:")
checks = []
for n in range(4, 9):
    for pi in realizable_sequences(n):
        tree, _ = build_greedy_bfs(pi)
        checks.append(count_subtrees(tree) == extremal_by_enumeration(pi).max_phi)
print("all agree:", all(checks))

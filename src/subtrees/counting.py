"""Exact subtree counting: totals, per-vertex counts, joint containment.

A subtree always means a nonempty connected induced subgraph.  All counts
are exact Python integers, so nothing overflows for any tree size.  One
bottom-up DP, ``_rooted_counts``, runs over the breadth-first ``parent``
and ``order`` lists of ``trees._bfs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EmptySet, InvalidVertex
from .trees import RootedView, Tree, _bfs, root_at

__all__ = [
    "FVector",
    "count_rooted",
    "count_subtrees",
    "f_vector",
    "count_containing_all",
]


@dataclass(frozen=True)
class FVector:
    """Per-vertex subtree counts and the vertices attaining the maximum.

    ``values[v]`` is the number of subtrees containing v.  ``argmax`` lists
    the maximizing vertices in ascending order; there are at most two and
    when there are two they are adjacent.
    """

    values: tuple[int, ...]
    argmax: tuple[int, ...]


def _rooted_counts(parent: Sequence[int | None], order: Sequence[int]) -> list[int]:
    """Rooted subtree counts g over a breadth-first order, children first.

    Each vertex's finished count multiplies into its parent's as the
    factor (1 + g), so g(v) ends as the product over v's children.  Each
    vertex's children are one run of ``order``, so one run of equal factors
    is pending at a time: ``factor**times``, flushed into ``owner`` when the
    parent or factor changes, which is always before the owner's own g is
    read.  A star's centre takes one power of 2, not n - 1 products.
    """
    g = [1] * len(parent)
    owner, factor, times = order[0], 1, 0
    for v in order[:0:-1]:
        p = parent[v]
        if p == owner and 1 + g[v] == factor:
            times += 1
            continue
        g[owner] *= factor**times
        owner, factor, times = p, 1 + g[v], 1
    g[owner] *= factor**times
    return g


def count_rooted(view: RootedView) -> tuple[int, ...]:
    """For each vertex v, the number of subtrees rooted at v.

    A subtree rooted at v lives inside v's branch of the rooted view and
    contains v.  Each child's branch can contribute any of its own rooted
    subtrees or stay out, hence the product of (1 + child count).
    """
    return tuple(_rooted_counts(view.parent, view.order))


def count_subtrees(tree: Tree) -> int:
    """The number of subtrees of the tree.

    Rooting at vertex 0 and summing the rooted counts over all vertices
    counts every subtree once, at its unique vertex closest to the root.
    The sum runs children first, as counts grow toward the root: root
    first, each of the n additions would copy a number as long as phi.
    """
    parent, order = _bfs(tree.adjacency, 0)
    g = _rooted_counts(parent, order)
    return sum(map(g.__getitem__, reversed(order)))


def _rerooted_counts(tree: Tree) -> tuple[list[int], list[int], list[int]]:
    """BFS parents from root 0, the rooted counts g and the up-pass counts A.

    The root is its own parent, as in ``trees._bfs``.  A(c) counts the
    subtrees that contain c's parent v and stay outside c's branch: the
    rooted count of v's branch seen from c.  It comes from A(v) and the
    sibling products without division:

        A(root) = 0
        A(c) = (1 + A(v)) * prod over siblings s of c of (1 + g(s))
    """
    parent, order = _bfs(tree.adjacency, 0)
    g = _rooted_counts(parent, order)
    above = [0] * tree.n
    start = 1
    for v in order:
        stop = start + len(tree.adjacency[v]) - (v != 0)
        kids, start = order[start:stop], stop
        prefix = [1]
        for c in kids:
            prefix.append(prefix[-1] * (1 + g[c]))
        suffix = 1
        for i in range(len(kids) - 1, -1, -1):
            above[kids[i]] = (1 + above[v]) * prefix[i] * suffix
            suffix *= 1 + g[kids[i]]
    return parent, g, above


def f_vector(tree: Tree) -> FVector:
    """The number of subtrees containing each single vertex.

    A subtree containing c is its part inside c's branch (g(c) choices)
    and its part outside (1 + A(c) choices, counting the empty outside),
    so f(c) = g(c) * (1 + A(c)) with g and A from ``_rerooted_counts``.
    """
    _, g, above = _rerooted_counts(tree)
    values = tuple(g[v] * (1 + above[v]) for v in range(tree.n))
    best = max(values)
    argmax = tuple(v for v in range(tree.n) if values[v] == best)
    return FVector(values=values, argmax=argmax)


def count_containing_all(tree: Tree, vertices: Sequence[int]) -> int:
    """The number of subtrees containing every vertex in ``vertices``.

    The subtrees in question are exactly the ones containing the minimal
    connected set S spanning ``vertices`` (the union of the paths between
    them).  Rooting at one of the given vertices makes S closed under
    taking parents, and any such subtree is S plus an independent choice,
    for every child branch hanging off S, of one of its rooted subtrees
    or nothing.  Hence the product of (1 + g(c)) over hanging children c.

    Raises EmptySet for an empty selection and InvalidVertex for ids
    outside the tree.
    """
    targets = sorted(set(vertices))
    if not targets:
        raise EmptySet("need at least one vertex")
    for v in targets:
        if not (0 <= v < tree.n):
            raise InvalidVertex(f"vertex {v} outside 0..{tree.n - 1}")
    if len(targets) == 1:
        return f_vector(tree).values[targets[0]]
    view = root_at(tree, targets[0])
    g = count_rooted(view)
    in_steiner = bytearray(tree.n)
    for t in targets:
        w = t
        while not in_steiner[w]:
            in_steiner[w] = 1
            if w == view.root:
                break
            w = view.parent[w]  # type: ignore[assignment]
    total = 1
    for w in range(tree.n):
        if not in_steiner[w]:
            continue
        for c in view.children[w]:
            if not in_steiner[c]:
                total *= 1 + g[c]
    return total

"""Greedy BFS trees, BFS-orderings and subtree-increasing exchange moves.

The greedy breadth-first tree of a degree sequence maximizes the subtree
count within its class.  This module builds that tree, decides whether a
rooted tree admits a BFS-ordering (heights nondecreasing, degrees
nonincreasing, children blocks following their parents' order), and
pushes any tree toward the optimum with one move, ``swap_components``,
of which the paper's path rewirings are a special case.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from operator import neg
from typing import Iterator, Sequence

from .counting import _rerooted_counts, _rooted_counts
from .errors import InvalidVertex
from .trees import (
    Tree,
    _bfs,
    _branch_labels,
    _iter,
    _tree,
    _vertex,
    degree_sequence_of,
    path_between,
    tree_from_edges,
    validate_degree_sequence,
)

__all__ = [
    "build_greedy_bfs",
    "has_bfs_ordering",
    "swap_components",
    "local_search_optimize",
]


def _greedy_parents(pi: Sequence[int]) -> list[int]:
    """BFS parents of the greedy tree of a valid nonincreasing pi; root 0 is its own.

    Ids are the BFS order: the root's children are the next pi[0] ids and
    each later non-leaf v's the next pi[v] - 1, so parents never decrease.
    Equal degrees are contiguous, and each run of them is filled at once.
    """
    parent = [0] * (1 + pi[0])
    v, inner = 1, len(pi) - pi.count(1)
    while v < inner:
        d = pi[v]
        ids = range(v, bisect_right(pi, -d, v, inner, key=neg))
        parent += ids if d == 2 else chain.from_iterable(zip(*repeat(ids, d - 1)))
        v = ids.stop
    return parent


def _layer_sizes(parent: Sequence[int]) -> tuple[int, ...]:
    """Layer sizes of a greedy parent array, root layer first.

    Parents never decrease, so the layer after ids start..stop - 1 ends
    where the parents reach stop.
    """
    n = len(parent)
    sizes, stop = [1], 1
    while stop < n:
        start, stop = stop, bisect_left(parent, stop, stop)
        sizes.append(stop - start)
    return tuple(sizes)


def build_greedy_bfs(pi: Sequence[int]) -> tuple[Tree, tuple[int, ...]]:
    """The breadth-first greedy tree of a degree sequence, with its layer sizes.

    Degrees are handed out largest first: vertex 0 is the root with the
    top degree, and each later vertex, visited in breadth-first order,
    takes the next unused ids as its children until its degree is filled.
    Vertex ids therefore coincide with the BFS order, and 0..n-1 is a
    BFS-ordering of the tree rooted at 0.  The layer sizes start with the
    root layer of size 1.
    """
    pi = validate_degree_sequence(pi)
    n = len(pi)
    parent = _greedy_parents(pi)
    tree = tree_from_edges(n, list(zip(parent[1:], range(1, n))))
    return tree, _layer_sizes(parent)


def has_bfs_ordering(tree: Tree, root: int) -> tuple[bool, tuple[int, ...] | None]:
    """Whether the tree rooted at ``root`` admits a BFS-ordering, with a witness.

    Along any BFS-ordering v_1 .. v_n the degrees are nonincreasing, so
    deg(v_i) = pi_i for the degree sequence pi, and parent positions never
    decrease, so v_1's children are the next pi_1 vertices and each later
    v_i's children the next pi_i - 1.  That is the greedy BFS tree of pi
    with v_i as vertex i - 1, and the greedy order 0..n-1 is a
    BFS-ordering that any rooted isomorphism carries over.  So the tree
    has one exactly when it is rooted-isomorphic to the greedy tree rooted
    at 0.  The witness maps each greedy vertex, parents first, onto an
    unused child of its parent's image with the same label.
    Raises InvalidVertex for a root outside 0..n-1.
    """
    root = _vertex(root, _tree(tree).n, "root")
    g_parent = _greedy_parents(degree_sequence_of(tree))
    g_order = range(len(g_parent))  # greedy ids are the BFS order
    g_labels, g_keys = _branch_labels(g_parent, g_order)
    parent, order = _bfs(tree.adjacency, root)
    labels, keys = _branch_labels(parent, order)
    if g_keys != keys:
        return False, None
    unused: dict[tuple[int, int], list[int]] = {}
    for v in order[1:]:
        unused.setdefault((parent[v], labels[v]), []).append(v)
    image = [root] * len(g_parent)
    for g in g_order[1:]:
        image[g] = unused[image[g_parent[g]], g_labels[g]].pop()
    return True, tuple(image)


def swap_components(
    tree: Tree,
    x: int,
    y: int,
    x_child_set: Sequence[int],
    y_child_set: Sequence[int],
) -> Tree:
    """Exchange hanging branches between two vertices.

    Each entry of ``x_child_set`` is a neighbor of x whose branch (the
    component of that neighbor once x is removed) detaches and reattaches
    at y, and symmetrically for ``y_child_set``.  The rest of the tree,
    including the whole x-y path, stays put, so the result is again a
    tree.  Branches containing the other endpoint cannot move; selecting
    one raises InvalidVertex, as does a non-iterable set, a repeat or x = y.

    The paper's path rewiring is the one-for-one case.  Write a path as
    x_m .. x_1 (z) y_1 .. y_m, with the middle vertex z present exactly
    when its length is odd.  Deleting x_k x_{k+1} and y_k y_{k+1} and
    adding x_{k+1} y_k and y_{k+1} x_k (1 <= k <= m - 1) reverses the
    inner part of the path and keeps every degree; it is
    ``swap_components(tree, x_k, y_k, (x_{k+1},), (y_{k+1},))``, since
    both x_{k+1} and y_{k+1} sit off the x_k-y_k path.
    """
    n = _tree(tree).n
    x, y = _vertex(x, n), _vertex(y, n)
    if x == y:
        raise InvalidVertex("attachment vertices must be distinct")
    xc = [_vertex(c, n) for c in _iter(x_child_set, InvalidVertex)]
    yc = [_vertex(d, n) for d in _iter(y_child_set, InvalidVertex)]
    if len(set(xc)) != len(xc) or len(set(yc)) != len(yc):
        raise InvalidVertex("repeated neighbor in a detachment set")
    path = path_between(tree, x, y)
    toward_y, toward_x = path[1], path[-2]
    for c in xc:
        if c not in tree.adjacency[x]:
            raise InvalidVertex(f"{c} is not a neighbor of {x}")
        if c == toward_y:
            raise InvalidVertex(f"the branch at {c} contains {y}; detaching it disconnects the middle")
    for d in yc:
        if d not in tree.adjacency[y]:
            raise InvalidVertex(f"{d} is not a neighbor of {y}")
        if d == toward_x:
            raise InvalidVertex(f"the branch at {d} contains {x}; detaching it disconnects the middle")
    drop = {(min(x, c), max(x, c)) for c in xc} | {(min(y, d), max(y, d)) for d in yc}
    edges = [e for e in tree.edges if e not in drop]
    edges.extend((y, c) for c in xc)
    edges.extend((x, d) for d in yc)
    return tree_from_edges(n, edges)


def _branch_tables(tree: Tree) -> tuple[list[int], list[dict[int, int]]]:
    """f(v) per vertex and ``side[v][w]`` per directed edge, in one rerooting.

    ``side[v][w]`` is the rooted count of w's branch at v (w's component
    once v is removed, rooted at w): g(w) when w is v's child in the tree
    rooted at 0, and A(v) = f(parent) // (1 + g(v)) when w is v's parent.
    The dicts list v's neighbors in adjacency order.
    """
    parent, order = _bfs(tree.adjacency, 0)
    g = _rooted_counts(parent, order)
    f = _rerooted_counts(parent, order, g.copy())
    up = [f[parent[v]] // (1 + g[v]) for v in range(tree.n)]
    side = [{w: g[w] if parent[w] == v else up[v] for w in tree.adjacency[v]} for v in range(tree.n)]
    return f, side


def _root_row(
    tree: Tree, x: int, f: Sequence[int], side: Sequence[dict[int, int]]
) -> tuple[list[int], list[int], list[int]]:
    """``step``, ``back`` and ``both`` for root x, from one BFS.

    ``step[y]`` is x's neighbor toward y, ``back[y]`` y's neighbor toward
    x (its BFS parent) and ``both[y]`` the number of subtrees containing
    x and y.  Of the subtrees containing x and a vertex p, a fraction
    g/(1 + g) also contain p's child w, with g = side(p->w), so
    both[w] = both[p] * g / (1 + g) exactly, from both[x] = f(x).
    """
    back, order = _bfs(tree.adjacency, x)
    step = [x] * tree.n
    both = [0] * tree.n
    both[x] = f[x]
    for w in order[1:]:
        p = back[w]
        step[w] = w if p == x else step[p]
        g = side[p][w]
        both[w] = both[p] * g // (1 + g)
    return step, back, both


def _scored_moves(tree: Tree) -> Iterator[tuple[int, int, int, tuple[int, ...], tuple[int, ...]]]:
    """Every degree-preserving move with its exact change of phi, in scan order.

    Yields (delta, x, y, xc, yc): ``swap_components(tree, x, y, xc, yc)``
    has phi(tree) + delta subtrees.  First the one-for-one branch
    exchanges, c at x for d at y, over the pairs x < y; then the
    single-branch relocations of c from x to a y of one degree less,
    which leave the degree multiset unchanged.  The paper's path
    rewirings need no family of their own: each one is a branch
    exchange at (x_k, y_k), as the ``swap_components`` docstring shows.

    The exchange lemma gives delta without building the tree.  With g a
    branch's rooted count and A (B) the number of subtrees of T - c - d
    containing x but not y (y but not x),

        delta = (g(c) - g(d)) * (B - A),

    and a relocation is the case g(d) = 0.  A subtree of T with x but not
    y extends into c's branch in 1 + g(c) ways, so A = (f(x) - both[y]) /
    (1 + g(c)) and B = (f(y) - both[y]) / (1 + g(d)).  Memory is O(n) and
    each move costs O(1) integer operations.
    """
    f, side = _branch_tables(tree)
    inner = [v for v in range(tree.n) if tree.degree(v) > 1]  # a leaf's branch holds the rest
    for i, x in enumerate(inner):
        step, back, both = _root_row(tree, x, f, side)
        for y in inner[i + 1 :]:
            only_x, only_y = f[x] - both[y], f[y] - both[y]
            at_y = [(d, gd, only_y // (1 + gd)) for d, gd in side[y].items() if d != back[y]]
            for c, gc in side[x].items():
                if c == step[y]:
                    continue
                a = only_x // (1 + gc)
                for d, gd, b in at_y:
                    yield (gc - gd) * (b - a), x, y, (c,), (d,)
    for x in inner:
        step, _, both = _root_row(tree, x, f, side)
        for y in range(tree.n):
            if tree.degree(x) != tree.degree(y) + 1:
                continue
            only_x, only_y = f[x] - both[y], f[y] - both[y]
            for c, gc in side[x].items():
                if c != step[y]:
                    yield gc * (only_y - only_x // (1 + gc)), x, y, (c,), ()


def local_search_optimize(tree: Tree) -> Tree:
    """Greedily apply subtree-increasing exchange moves until none remains.

    Scans ``_scored_moves`` in its fixed order, applies the first move
    whose delta = (g(c) - g(d)) * (B - A) is positive (g(d) = 0 for a
    single-branch relocation), building only that tree, through
    ``swap_components`` with all its checks, and restarts.  phi strictly
    grows and is bounded, so this terminates; degrees never change.  The
    search can stop short of the optimum: the two move families do not
    reach the greedy tree from every tree of its degree sequence.
    """
    current = _tree(tree)
    while True:
        for delta, x, y, xc, yc in _scored_moves(current):
            if delta > 0:
                current = swap_components(current, x, y, xc, yc)
                break
        else:
            return current

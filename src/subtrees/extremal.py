"""Greedy BFS trees, BFS-orderings and subtree-increasing exchange moves.

The greedy breadth-first tree of a degree sequence maximizes the subtree
count within its class.  This module builds that tree, decides whether a
rooted tree admits a BFS-ordering (heights nondecreasing, degrees
nonincreasing, children blocks following their parents' order), and
pushes any tree toward the optimum with one move, ``swap_components``,
of which the paper's path rewirings are a special case.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain, repeat
from operator import neg
from typing import Iterator, Sequence

from .counting import _check_f_size, _rerooted_counts, _rooted_counts
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


def _greedy_phi(pi: Sequence[int]) -> int:
    """The subtree count of the greedy tree of a valid nonincreasing pi, from its runs.

    Vertex v's children are the next pi[v] - 1 unused ids (the root's, the
    first pi[0]).  With L leaves from id e on and degree-2 ids s..e-1, each
    degree-2 vertex i has its one child at i + L, so g(i) = 1 + ceil((e - i)
    / L) and their sum has a closed form; ids s..s+L-1 are the children of
    the ids below s.  Those, highest first, take their children off the
    front of a queue of [count, g] runs and join its back as runs of their
    own: the parents whose children lie in one run cost one power, and a
    parent whose children straddle runs one product.  So the cost grows
    with the distinct degrees and the runs per layer, not with n.
    """
    n = len(pi)
    if n < 3:
        return 2 * n - 1  # a vertex or an edge, whose root is a leaf
    e = n - pi.count(1)
    s = bisect_left(pi, -2, 1, e, key=neg)
    leaves = n - e
    q, r = divmod(e - s, leaves)
    phi = leaves + e - s + leaves * q * (q + 1) // 2 + r * (q + 1)
    runs = [[leaves - r, q + 1], [r, q + 2]]  # ids s..s+L-1, highest first; r may be 0
    head, hi = 0, s
    while hi:
        d = pi[hi - 1]
        lo = bisect_left(pi, -d, 1, hi, key=neg) if hi > 1 else 0
        c, left = d - (lo > 0), hi - lo
        while left:
            # The next k parents' children lie in the front run, or one parent's straddle runs.
            k = min(left, runs[head][0] // c) or 1
            runs[head][0] -= (k - 1) * c
            g, need = 1, c
            while need:
                run = runs[head]
                t = min(run[0], need)
                g *= (1 + run[1]) ** t
                need -= t
                run[0] -= t
                head += not run[0]
            left -= k
            phi += k * g
            runs.append([k, g])
        hi = lo
    return phi


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


def _root_row(adjacency: Sequence[Sequence[int]], x: int) -> tuple[list[int], ...]:
    """``step``, ``back``, ``g``, ``both`` and the BFS ``order`` for root x, from one BFS.

    ``adjacency[v]`` lists v's neighbors ascending, as a ``Tree``'s does.
    ``step[y]`` is x's neighbor toward y, ``back[y]`` y's neighbor toward x
    (its BFS parent), ``g`` the rooted count from x and ``both[y]`` the
    number of subtrees containing x and y.  Of the subtrees containing x
    and a vertex p, a fraction g(w)/(1 + g(w)) also contain p's child w, so
    both[w] = both[p] * g(w) / (1 + g(w)) exactly, from both[x] = g(x).
    """
    back, order = _bfs(adjacency, x)
    g = _rooted_counts(back, order)
    step = [x] * len(adjacency)
    both = [0] * len(adjacency)
    both[x] = g[x]
    for w in order[1:]:
        p = back[w]
        step[w] = w if p == x else step[p]
        both[w] = both[p] * g[w] // (1 + g[w])
    return step, back, g, both, order


def _scored_moves(
    adjacency: Sequence[Sequence[int]],
) -> Iterator[tuple[int, int, int, tuple[int, ...], tuple[int, ...]]]:
    """Every degree-preserving move of a tree's adjacency with its exact phi change, in scan order.

    Yields (delta, x, y, xc, yc): ``swap_components(tree, x, y, xc, yc)``
    has phi(tree) + delta subtrees.  The scan is row-major, one row per
    inner x, ascending, on one ``_root_row``: x's one-for-one branch
    exchanges, c at x for d at each later inner y, then x's single-branch
    relocations of c to each y of one degree less, ascending, which keep
    the degree multiset.  The search applies the first gaining move of
    this order.  The paper's path rewirings are among the exchanges: see
    ``swap_components``.  f is the first row's g rerooted, checked by
    ``_check_f_size`` as ``f_vector`` checks it, so a scan roots once per row.

    The exchange lemma gives delta without building the tree.  With g the
    rooted count from x (c and d are children there, so g(c) and g(d) count
    their branches) and A (B) the number of subtrees of T - c - d
    containing x but not y (y but not x),

        delta = (g(c) - g(d)) * (B - A),

    and a relocation is the case g(d) = 0.  A subtree of T with x but not
    y extends into c's branch in 1 + g(c) ways, so A = (f(x) - both[y]) /
    (1 + g(c)) and B = (f(y) - both[y]) / (1 + g(d)).  Memory is O(n) and
    each move costs O(1) integer operations.
    """
    n = len(adjacency)
    degree = list(map(len, adjacency))
    by_degree: dict[int, list[int]] = {}
    for v, d in enumerate(degree):
        by_degree.setdefault(d, []).append(v)
    inner = [v for v, d in enumerate(degree) if d > 1]  # a leaf's branch holds the rest
    _check_f_size(n, 1 << degree.count(1))
    for i, x in enumerate(inner):
        step, back, g, both, order = _root_row(adjacency, x)
        if not i:
            _check_f_size(n, sum(map(g.__getitem__, reversed(order))))
            f = _rerooted_counts(back, order, g[:])
        for y in inner[i + 1 :]:
            only_x, only_y = f[x] - both[y], f[y] - both[y]
            at_y = [(d, g[d], only_y // (1 + g[d])) for d in adjacency[y] if d != back[y]]
            for c in adjacency[x]:
                if c == step[y]:
                    continue
                gc = g[c]
                a = only_x // (1 + gc)
                for d, gd, b in at_y:
                    yield (gc - gd) * (b - a), x, y, (c,), (d,)
        for y in by_degree.get(degree[x] - 1, ()):
            only_x, only_y = f[x] - both[y], f[y] - both[y]
            for c in adjacency[x]:
                if c != step[y]:
                    yield g[c] * (only_y - only_x // (1 + g[c])), x, y, (c,), ()


def _move_branches(adj: list[list[int]], x: int, y: int, xc: Sequence[int], yc: Sequence[int]) -> None:
    """``swap_components``'s move in place on ascending lists, unchecked: for scored moves only."""
    for a, b, roots in ((x, y, xc), (y, x, yc)):
        for c in roots:
            adj[a].remove(c)
            adj[c].remove(a)
            insort(adj[b], c)
            insort(adj[c], b)


def local_search_optimize(tree: Tree) -> Tree:
    """Greedily apply subtree-increasing exchange moves until none remains.

    Applies the first move of ``_scored_moves`` whose delta is positive to
    one adjacency, in place, and rescans; phi strictly grows and is
    bounded, so this terminates, and degrees never change.  The result is
    built and checked once, by ``tree_from_edges``.  The search can stop
    short of the optimum: the two move families do not reach the greedy
    tree from every tree of its degree sequence.
    """
    adj = list(map(list, _tree(tree).adjacency))
    while move := next((m[1:] for m in _scored_moves(adj) if m[0] > 0), None):
        _move_branches(adj, *move)
    return tree_from_edges(tree.n, zip(_bfs(adj, 0)[0][1:], range(1, tree.n)))  # BFS parent edges

"""Exact subtree counting: totals, per-vertex counts, joint containment.

A subtree always means a nonempty connected induced subgraph.  All counts
are exact Python integers, so nothing overflows for any tree size.  One
bottom-up DP, ``_rooted_counts``, and one top-down pass that turns its
counts into f in place run over ``parent`` and parents-first ``order``
lists (``trees._bfs``, whose siblings are one run, or
``trees._peel_leaves``, whose leaf siblings are), in ints or exact
decimals.  The ``count`` command runs them in ints while phi is short and
in exact decimals, whose text is linear in their digits, when it is long.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

from .errors import InvalidVertex, TooLarge
from .trees import Tree, _bfs, _iter, _tree, _vertex

__all__ = [
    "FVector",
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


def _rooted_counts(parent: Sequence[int], order: Sequence[int], one: Any = 1) -> list:
    """Rooted subtree counts g over any parents-first order, children first.

    Each vertex's finished count multiplies into its parent's as the
    factor (1 + g), so g(v) ends as the product over v's children.  One
    run of equal factors is pending at a time: ``factor**times``, flushed
    into ``owner`` when the parent or factor changes, which is always
    before the owner's own g is read.  In a breadth-first order a vertex's
    children are one run, and in ``trees._peel_leaves``'s its leaf children
    are, so a star's centre takes one power of 2; each further run costs
    one more.  The counts are in the ring of ``one``: ints, or exact decimals.
    """
    g = [one] * len(parent)
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


def count_subtrees(tree: Tree) -> int:
    """The number of subtrees of the tree.

    Rooting at vertex 0 and summing the rooted counts over all vertices
    counts every subtree once, at its unique vertex closest to the root.
    The sum runs children first, as counts grow toward the root: root
    first, each of the n additions would copy a number as long as phi.
    """
    parent, order = _bfs(_tree(tree).adjacency, 0)
    g = _rooted_counts(parent, order)
    return sum(map(g.__getitem__, reversed(order)))


def _rerooted_counts(parent: Sequence[int], order: Sequence[int], counts: list) -> list:
    """Overwrite the rooted counts g from root ``order[0]`` with f, parents first.

    For a child c of v, a subtree containing v meets c's branch in one of
    the g(c) subtrees rooted at c or not at all, and leaves outside it the
    A(c) subtrees of v's branch seen from c.  So f(v) = (1 + g(c)) * A(c),
    the floor division A(c) = f(v) // (1 + g(c)) is exact, and

        f(c) = g(c) * (1 + A(c)) = g(c) * (1 + f(v) // (1 + g(c))).

    f(v) is written before c is read, as v precedes c in ``order``.
    """
    for c in itertools.islice(order, 1, None):
        gc = counts[c]
        counts[c] = gc * (1 + counts[parent[c]] // (1 + gc))
    return counts


# ``f_vector`` and ``count`` refuse a tree whose f list, n counts of up to
# digits(phi) digits each, could pass this many digits.  ``count`` holds
# f as exact decimals at about 0.42 bytes per digit: 823 MB of peak RSS
# for the 1.96e9 digits of a 10^5-vertex random recursive tree (Python
# 3.11.7), so a tree at the cap peaks near 1.05 GB.
_F_DIGITS = 25 * 10**8


def _check_f_size(n: int, phi: int) -> None:
    """Raise TooLarge when n counts of up to digits(phi) digits pass ``_F_DIGITS``.

    phi < 2**b for its bit length b, so it has at most b * log10(2) + 1
    digits; the bound needs no decimal text of phi.  It grows with phi, so
    a lower bound on phi, such as 2**L for a tree with L leaves, raises
    only where phi would.
    """
    digits = phi.bit_length() * 30103 // 100000 + 1
    if n * digits > _F_DIGITS:
        raise TooLarge(
            f"the f list of {n} counts of up to {digits} digits passes {_F_DIGITS} digits"
        )


def _argmax(values: Sequence[Any]) -> tuple[int, ...]:
    """The positions of the largest value, ascending (at most two, as in f), found in C."""
    best = max(values)
    first = values.index(best)
    return (first,) if values.count(best) == 1 else (first, values.index(best, first + 1))


def f_vector(tree: Tree) -> FVector:
    """The number of subtrees containing each single vertex.

    One rooted DP from vertex 0 gives g and f(0) = g(0); the pass of
    ``_rerooted_counts`` turns each g(c) into f(c) = g(c) * (1 + A(c)),
    where A(c) = f(v) // (1 + g(c)) for c's parent v is exact because
    f(v) = (1 + g(c)) * A(c).  Raises TooLarge, before that pass, when the
    n values could hold more than ``_F_DIGITS`` digits in all, and before
    the DP when 2**L does for the L leaves: each set of leaves joins the
    subtree of the other vertices, so phi >= 2**L for n >= 3.
    """
    adjacency = _tree(tree).adjacency
    _check_f_size(tree.n, 1 << list(map(len, adjacency)).count(1))
    parent, order = _bfs(adjacency, 0)
    g = _rooted_counts(parent, order)
    _check_f_size(len(g), sum(map(g.__getitem__, reversed(order))))
    values = tuple(_rerooted_counts(parent, order, g))
    return FVector(values=values, argmax=_argmax(values))


def count_containing_all(tree: Tree, vertices: Sequence[int]) -> int:
    """The number of subtrees containing every vertex in ``vertices``.

    The subtrees in question are exactly the ones containing the minimal
    connected set S spanning ``vertices`` (the union of the paths between
    them).  Rooting at one of the given vertices makes S closed under
    taking parents, and any such subtree is S plus an independent choice,
    for every child branch hanging off S, of one of its rooted subtrees
    or nothing.  Hence the product of (1 + g(c)) over hanging children c:
    the vertices outside S whose parent is in S, with one power per
    distinct factor.  The root is its own parent, so the walk up from each
    target stops at a vertex of S; for one target v the hanging children
    are v's children and the product is f(v).

    Raises InvalidVertex for an empty or non-iterable selection and for an
    id that is not an integer in 0..n-1.
    """
    n = _tree(tree).n
    targets = sorted({_vertex(v, n) for v in _iter(vertices, InvalidVertex)})
    if not targets:
        raise InvalidVertex("need at least one vertex")
    parent, order = _bfs(tree.adjacency, targets[0])
    g = _rooted_counts(parent, order)
    in_steiner = bytearray(n)
    for w in targets:
        while not in_steiner[w]:
            in_steiner[w] = 1
            w = parent[w]
    factors = Counter(1 + g[c] for c in range(n) if not in_steiner[c] and in_steiner[parent[c]])
    return math.prod(factor**times for factor, times in factors.items())

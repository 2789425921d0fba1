"""Brute-force ground truth: tree enumeration and direct subtree counting.

The ground truth is Pruefer decoding (``tree_from_prufer``,
``prufer_sequences``, ``labeled_tree_count``), ``connected_subsets`` and
``count_subtrees_bruteforce``, which counts subtrees by explicit
enumeration of connected vertex sets.  They share no code with the fast
counters, so the two can check each other.  The free trees of an order
come one per isomorphism class from the Wright-Richmond-Odlyzko-McKay
stream, with no canonical codes and no dedupe; ``_order_census`` counts
the phi of each with the fast ``counting._phi_from_parents``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .counting import _phi_from_parents
from .errors import NotRealizable, TooLarge
from .trees import Tree, _decimal, _int, _vertex, tree_from_edges, validate_degree_sequence

__all__ = [
    "tree_from_prufer",
    "prufer_sequences",
    "enumerate_trees",
    "count_subtrees_bruteforce",
    "labeled_tree_count",
    "realizable_sequences",
]

# Vertex cap for brute-force subtree counting.
_BRUTEFORCE_LIMIT = 16
# Vertex cap for the free-tree stream, so for class enumeration and full
# sweeps: at n = 18 a sweep of all 123,867 classes takes a few seconds.
_ENUMERATION_LIMIT = 18
# Length cap for listing degree sequences, which also bounds the recursion
# depth: n = 40 gives 26,015 sequences in 3.1-3.9 s, n = 45 63,261 in
# 7.7-8.3 s, and the time grows about 1.2x per vertex (Python 3.11.7,
# 2-CPU x86-64 VM).
_SEQUENCE_LIMIT = 40


def _edges_from_prufer(code: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence into an edge list, assuming valid input.

    Smallest-leaf scan: ptr sweeps left to right; leaf tracks the current
    smallest degree-1 vertex, dipping below ptr only when a code entry's
    degree drops to 1 at a smaller id.
    """
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    ptr = 0
    leaf = -1
    for v in code:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
            ptr += 1
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


def tree_from_prufer(code: Sequence[int], n: int) -> Tree:
    """Decode a Pruefer sequence of length n-2 into a labeled tree on n >= 2.

    Vertex v appears in the code exactly deg(v) - 1 times.  Raises
    NotRealizable when n is not an integer of at least 2 or the code is not a
    sequence of length n - 2, and InvalidVertex for an entry that is not an id.
    """
    n = _int(n, NotRealizable, "vertex count")
    if n < 2:
        raise NotRealizable(f"Pruefer decoding needs n >= 2, got {n}")
    if not isinstance(code, Sequence):
        raise NotRealizable(f"expected a sequence, got {type(code).__name__}")
    if len(code) != n - 2:
        raise NotRealizable(f"code length {len(code)} != n - 2 = {n - 2}")
    code = [_vertex(v, n, "code entry") for v in code]
    return tree_from_edges(n, _edges_from_prufer(code, n))


def _next_permutation(seq: list[int]) -> bool:
    """Advance seq to its next lexicographic permutation in place."""
    i = len(seq) - 2
    while i >= 0 and seq[i] >= seq[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(seq) - 1
    while seq[j] <= seq[i]:
        j -= 1
    seq[i], seq[j] = seq[j], seq[i]
    seq[i + 1 :] = reversed(seq[i + 1 :])
    return True


def prufer_sequences(pi: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All Pruefer sequences with vertex v appearing pi[v] - 1 times.

    Sequences come out in lexicographic order.
    """
    pi = validate_degree_sequence(pi)
    n = len(pi)
    if n < 2:
        raise NotRealizable("Pruefer sequences need n >= 2")
    symbols = []
    for v in range(n):
        symbols.extend([v] * (pi[v] - 1))
    current = sorted(symbols)
    yield tuple(current)
    while _next_permutation(current):
        yield tuple(current)


def _next_rooted_tree(levels: list[int], p: int | None = None) -> bool:
    """Step a level sequence to the next rooted tree in place (Beyer-Hedetniemi).

    From p, by default the last vertex off level 1, the tail repeats the
    block that starts at p's parent q.  False after the star.
    """
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
    if p == 0:
        return False
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    for i in range(p, len(levels)):
        levels[i] = levels[i - p + q]
    return True


def _split_levels(levels: Sequence[int]) -> tuple[list[int], list[int]]:
    """The root's first branch as a rooted tree, and the rest with the root."""
    try:
        m = levels.index(1, 2)
    except ValueError:
        m = len(levels)
    return [x - 1 for x in levels[1:m]], [0, *levels[m:]]


def _free_trees(n: int) -> Iterator[list[int]]:
    """One parent array per free tree of order n: the WROM stream.

    Wright, Richmond, Odlyzko and McKay (SIAM J. Comput. 15(2), 1986) walk
    the Beyer-Hedetniemi order of rooted level sequences (SIAM J. Comput.
    9(4), 1980) from the path rooted at its centre.  A tree is kept only
    rooted at a centre, with its first branch no higher than the rest and,
    at equal height, no larger, or no later at equal size; from any other
    rooting the walk jumps to the next candidate.  Ids are the preorder,
    so parent[v] < v, and the root 0 is its own parent.  Raises TooLarge
    above the enumeration cap.
    """
    if n > _ENUMERATION_LIMIT:
        raise TooLarge(f"exhaustive enumeration capped at {_ENUMERATION_LIMIT} vertices, got {n}")
    if n == 1:
        yield [0]
        return
    levels = [*range(n // 2 + 1), *range(1, (n + 1) // 2)]
    while True:
        left, rest = _split_levels(levels)
        lh, rh = max(left), max(rest)
        if lh > rh or lh == rh and (len(left), left) > (len(rest), rest):
            p = len(left)
            deep = levels[p] > 2
            _next_rooted_tree(levels, p)
            if deep:
                h = max(_split_levels(levels)[0])
                levels[n - h - 1 :] = range(1, h + 2)
        last = [0] * n
        parent = [0] * n
        for v in range(1, n):
            parent[v] = last[levels[v] - 1]
            last[levels[v]] = v
        yield parent
        if not _next_rooted_tree(levels):
            return


def _degrees(parent: Sequence[int]) -> tuple[int, ...]:
    """The nonincreasing degree sequence of a parent array rooted at 0."""
    degree = [1] * len(parent)
    degree[0] = 0
    for p in parent[1:]:
        degree[p] += 1
    return tuple(sorted(degree, reverse=True))


def _order_census(
    n: int, only: tuple[int, ...] | None = None
) -> dict[tuple[int, ...], tuple[int, int, int]]:
    """(classes, max phi, classes at the max) per degree sequence of order n.

    One pass over the free-tree stream, bucketed by sorted degrees.  With
    ``only`` given, trees of any other sequence are skipped before their
    phi is counted, and only that bucket is returned.
    """
    buckets: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for parent in _free_trees(n):
        key = _degrees(parent)
        if only is not None and key != only:
            continue
        phi = _phi_from_parents(parent)
        classes, best, at_best = buckets.get(key, (0, phi, 0))
        if phi > best:
            best, at_best = phi, 0
        buckets[key] = (classes + 1, best, at_best + (phi == best))
    return buckets


def enumerate_trees(pi: Sequence[int]) -> Iterator[Tree]:
    """One representative per isomorphism class with degree sequence pi.

    Filters the deterministic free-tree stream of order len(pi), so it
    raises TooLarge above the enumeration cap.
    """
    pi = validate_degree_sequence(pi)
    n = len(pi)
    for parent in _free_trees(n):
        if _degrees(parent) == pi:
            yield tree_from_edges(n, list(zip(parent[1:], range(1, n))))


def connected_subsets(tree: Tree, anchor: int | None = None) -> Iterator[frozenset[int]]:
    """Every nonempty connected vertex set, each exactly once.

    Sets are grouped by their smallest vertex: for each anchor a, the sets
    whose minimum is a are grown by include/exclude branching over the
    neighbors above a, kept on an explicit stack of (chosen, frontier)
    pairs.  With ``anchor`` given, only that group is produced.
    """
    n = tree.n
    anchors = range(n) if anchor is None else (_vertex(anchor, n, "anchor"),)
    for a in anchors:
        stack = [(frozenset((a,)), tuple(w for w in tree.adjacency[a] if w > a))]
        while stack:
            chosen, frontier = stack.pop()
            if not frontier:
                yield chosen
                continue
            v, rest = frontier[-1], frontier[:-1]
            # Excluding v is final: in a tree no other chosen vertex can ever
            # be adjacent to v again without closing a cycle.  The exclude
            # branch is pushed last so it is explored first.
            grown = chosen | {v}
            extended = rest + tuple(w for w in tree.adjacency[v] if w > a and w not in grown)
            stack.append((grown, extended))
            stack.append((chosen, rest))


def count_subtrees_bruteforce(tree: Tree) -> int:
    """Count subtrees by enumerating connected sets one by one: exponential
    on purpose, so a tree above 16 vertices raises TooLarge."""
    if tree.n > _BRUTEFORCE_LIMIT:
        raise TooLarge(f"brute force capped at {_BRUTEFORCE_LIMIT} vertices, tree has {tree.n}")
    return sum(1 for _ in connected_subsets(tree))


def labeled_tree_count(pi: Sequence[int]) -> int:
    """The number of labeled trees with degree sequence pi.

    Pruefer's correspondence makes this the multinomial
    (n-2)! / prod (pi[v] - 1)!.
    """
    from math import factorial

    pi = validate_degree_sequence(pi)
    n = len(pi)
    if n == 1:
        return 1
    total = factorial(n - 2)
    for d in pi:
        total //= factorial(d - 1)
    return total


def realizable_sequences(n: int) -> list[tuple[int, ...]]:
    """All tree degree sequences of length n, descending lexicographic.

    Raises NotRealizable unless n is a positive integer, and TooLarge for
    n above ``_SEQUENCE_LIMIT``.
    """
    n = _int(n, NotRealizable, "vertex count")
    if n < 1:
        raise NotRealizable("need n >= 1")
    if n > _SEQUENCE_LIMIT:
        raise TooLarge(f"sequence listing capped at {_SEQUENCE_LIMIT} vertices, got {_decimal(n)}")
    if n == 1:
        return [(0,)]
    out: list[tuple[int, ...]] = []

    def build(prefix: list[int], remaining: int, slots: int, cap: int) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        # Each later entry is at least 1 and at most cap.
        for d in range(min(cap, remaining - (slots - 1)), 0, -1):
            prefix.append(d)
            build(prefix, remaining - d, slots - 1, d)
            prefix.pop()

    build([], 2 * (n - 1), n, n - 1)
    return out

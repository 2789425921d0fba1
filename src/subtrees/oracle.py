"""Brute-force ground truth: tree enumeration and direct subtree counting.

The ground truth is Pruefer decoding (``tree_from_prufer``,
``prufer_sequences``, ``labeled_tree_count``), ``connected_subsets`` and
``count_subtrees_bruteforce``, which counts subtrees by explicit
enumeration of connected vertex sets.  They share no code with the fast
counters, so the two can check each other.  ``realizable_sequences``
lists the degree sequences of an order in one loop over the partitions of
n - 2.  The free trees of an order come one per isomorphism class from
the Wright-Richmond-Odlyzko-McKay stream, with no canonical codes and no
dedupe.  The stream updates one parent array in place and gives with it
the first index that changed, so a caller copies the array to keep it;
``_order_census`` updates the rooted subtree counts and degrees of the
last tree over what changed, and keeps its result for the rest of the
process.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .errors import NotRealizable, TooLarge
from .trees import Tree, _decimal, _int, _tree, _vertex, tree_from_edges, validate_degree_sequence

__all__ = [
    "tree_from_prufer",
    "prufer_sequences",
    "enumerate_trees",
    "connected_subsets",
    "count_subtrees_bruteforce",
    "labeled_tree_count",
    "realizable_sequences",
]

# Vertex cap for brute-force subtree counting.
_BRUTEFORCE_LIMIT = 16
# Vertex cap for the free-tree stream, so for class enumeration and full
# sweeps: at n = 18 a sweep of all 123,867 classes takes a few seconds.
_ENUMERATION_LIMIT = 18
# Length cap for listing degree sequences, which bounds the output: it grows
# about 1.2x per vertex, n = 40 gives 26,015 sequences in 0.07-0.11 s and
# n = 45 63,261 in 0.18-0.26 s (Python 3.11.7, 2-CPU x86-64 VM).
_SEQUENCE_LIMIT = 40


def _edges_from_prufer(code: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence into an edge list, assuming valid input.

    One left-to-right scan: the next leaf is the next degree-1 id past ptr,
    unless a code entry's degree drops to 1 at an id below ptr; that entry
    is then the smallest leaf.
    """
    degree = [1] * n
    for v in code:
        degree[v] += 1
    ptr = leaf = degree.index(1)
    edges = []
    for v in code:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    edges.append((leaf, n - 1))
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


def _free_trees(n: int) -> Iterator[tuple[list[int], int]]:
    """One parent array per free tree of order n: the WROM stream.

    Wright, Richmond, Odlyzko and McKay (SIAM J. Comput. 15(2), 1986) walk
    the Beyer-Hedetniemi order of rooted level sequences (SIAM J. Comput.
    9(4), 1980) from the path rooted at its centre.  A tree is kept only
    rooted at a centre, with its first branch no higher than the rest and,
    at equal height, no larger, or no later at equal size; from any other
    rooting the walk jumps to the next candidate.  Ids are the preorder,
    so parent[v] < v, and the root 0 is its own parent.  Raises TooLarge
    above the enumeration cap.

    Each item is (parent, k), and ``parent`` is one list, updated in place
    from tree to tree: copy it to keep it.  parent[:k] is as in the
    previous tree, and k = 1 for the first.  A Beyer-Hedetniemi step from
    p rewrites only the suffix from p, copying the block of p's parent.
    The levels stay canonical, so the first branch and the rest are as
    high as the runs 1, 2, 3, ... that start at vertex 1 and at the second
    root child m; the walk keeps m and the ends h1 and h2 of those runs as
    it goes.  A tree thus costs its changed suffix, 1.94 entries on average
    at n = 18, plus a comparison of the two halves when they are equal in
    height and size.
    """
    if n > _ENUMERATION_LIMIT:
        raise TooLarge(f"exhaustive enumeration capped at {_ENUMERATION_LIMIT} vertices, got {n}")
    # levels[n] = 1 ends every search for the second root child.
    levels = [*range(n // 2 + 1), *range(1, (n + 1) // 2), 1]
    parent = [0, *range(n - 1)]
    if n > 2:
        parent[n // 2 + 1] = 0
    h1, m, h2 = n // 2, n // 2 + 1, n - 1

    def step(p: int) -> None:
        """Rewrite levels[p:] and parent[p:] as the next rooted tree, and
        h1, m and h2 with them; p is never 1, so p < m puts m at or past p."""
        nonlocal h1, m, h2
        q = parent[p]
        d, lq, pq = p - q, levels[q], parent[q]
        for i in range(p, n):
            lv = levels[i] = levels[i - d]
            parent[i] = pq if lv == lq else parent[i - d] + d
        h1 = min(h1, p - 1)
        if p < m:
            m = h2 = levels.index(1, p)
            while h2 + 1 < n and levels[h2 + 1] == levels[h2] + 1:
                h2 += 1
        else:
            h2 = min(h2, p - 1)

    k = 1
    while True:
        # The heights of the first branch, from its own root, and of the rest.
        # A first branch higher, or as high and larger or later, means this
        # is not the kept rooting: jump past every rooting like it.
        left, right = h1 - 1, levels[h2] if m < n else 0
        if left > right or left == right and (
            m - 1 > n + 1 - m or m - 1 == n + 1 - m and levels[2:m] > [x + 1 for x in levels[m:n]]
        ):
            p = m - 1
            deep = levels[p] > 2
            step(p)
            k = min(k, p)
            if deep:
                # The step left no vertex past p on level 1, so the root has
                # one child; the tail becomes a second, as high as the first.
                t = n - h1
                levels[t:n] = range(1, h1 + 1)
                parent[t:n] = [0, *range(t, n - 1)]
                k, m, h2 = min(k, t), t, n - 1
        yield parent, k
        # The next step starts at the last vertex off level 1: the first change.
        k = n - 1
        while levels[k] == 1:
            k -= 1
        if k == 0:
            return
        step(k)


def _degrees(parent: Sequence[int]) -> tuple[int, ...]:
    """The nonincreasing degree sequence of a parent array rooted at 0."""
    degree = [1] * len(parent)
    degree[0] = 0
    for p in parent[1:]:
        degree[p] += 1
    return tuple(sorted(degree, reverse=True))


@functools.cache
def _order_census(n: int) -> Mapping[tuple[int, ...], tuple[int, int, int]]:
    """(classes, max phi, classes at the max) per degree sequence of order n.

    One pass over the free-tree stream, computed once per process and
    handed out read-only.  Each tree updates the last one's rooted counts
    g, degrees and phi = sum(g) over what the stream changed: the suffix
    from k, whose old parents ``old`` keeps, and the chain from k - 1 to
    the root, the only vertices that a suffix vertex can hang from.  The
    chain's links are divided out from the top, (1 + g) exactly, the old
    suffix is taken out and the new one counted children first, and the
    chain is multiplied back in from the bottom.  A tree is bucketed by
    the sum of (n + 1)**degree over its vertices, whose digits in base
    n + 1 count the vertices of each degree.
    """
    power = [(n + 1) ** d for d in range(n)]
    # The state before the first tree is that of the star rooted at 0.
    old = [0] * n
    g = [2 ** (n - 1), *[1] * (n - 1)]
    degree = [n - 1, *[1] * (n - 1)]
    phi, key = sum(g), sum(power[d] for d in degree)
    buckets: dict[int, tuple[int, int, int]] = {}
    for parent, k in _free_trees(n):
        chain = [k - 1]
        while chain[-1]:
            chain.append(parent[chain[-1]])
        for u in reversed(chain):
            phi -= g[u]
            key -= power[degree[u]]
            if u:
                g[parent[u]] //= 1 + g[u]
        for v in range(n - 1, k - 1, -1):
            phi -= g[v]
            key -= power[degree[v]]
            if old[v] < k:
                g[old[v]] //= 1 + g[v]
                degree[old[v]] -= 1
        g[k:] = degree[k:] = [1] * (n - k)
        for v in range(n - 1, k - 1, -1):
            phi += g[v]
            key += power[degree[v]]
            g[parent[v]] *= 1 + g[v]
            degree[parent[v]] += 1
        for u in chain:
            phi += g[u]
            key += power[degree[u]]
            if u:
                g[parent[u]] *= 1 + g[u]
        old[k:] = parent[k:]
        classes, best, at_best = buckets.get(key, (0, phi, 0))
        if phi > best:
            best, at_best = phi, 0
        buckets[key] = (classes + 1, best, at_best + (phi == best))
    census = {}
    for key, value in buckets.items():
        pi: list[int] = []
        for d in reversed(range(n)):
            count, key = divmod(key, power[d])
            pi += [d] * count
        census[tuple(pi)] = value
    return MappingProxyType(census)


def enumerate_trees(pi: Sequence[int]) -> Iterator[Tree]:
    """One representative per isomorphism class with degree sequence pi.

    Filters the deterministic free-tree stream of order len(pi), so it
    raises TooLarge above the enumeration cap.  Each ``Tree`` is built
    from the stream's shared parent list before the stream moves on.
    """
    pi = validate_degree_sequence(pi)
    n = len(pi)
    for parent, _ in _free_trees(n):
        if _degrees(parent) == pi:
            yield tree_from_edges(n, list(zip(parent[1:], range(1, n))))


def connected_subsets(tree: Tree) -> Iterator[frozenset[int]]:
    """Every nonempty connected vertex set, each exactly once.

    Sets are grouped by their smallest vertex, in increasing order: for each
    a, the sets whose minimum is a are grown by include/exclude branching
    over the neighbors above a, kept on an explicit stack of (chosen,
    frontier) pairs.
    """
    for a in range(_tree(tree).n):
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
    if _tree(tree).n > _BRUTEFORCE_LIMIT:
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
    # The partitions of n - 2, each part one higher and padded with 1s, in
    # reverse lexicographic order: each step lowers the last part t > 1 and
    # refills the freed total, trailing 1s included, with parts of t - 1.
    parts = [n - 2] if n > 2 else []
    out = []
    while True:
        out.append(tuple([p + 1 for p in parts] + [1] * (n - len(parts))))
        ones = parts.count(1)
        del parts[len(parts) - ones :]
        if not parts:
            return out
        t = parts.pop()
        q, r = divmod(ones + 1, t - 1)
        parts += [t - 1] * (q + 1) + [r] * (r > 0)

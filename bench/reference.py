"""Independent reference code for generating inputs and checking outputs.

Nothing here imports ``subtrees``: the benchmark makes its inputs and
judges the program's answers with this code, so a defect in a fast path
under test cannot hide itself by also corrupting the check.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import lru_cache
from math import factorial

# Free (unlabeled) trees on n vertices, OEIS A000055, n = 0..10.
FREE_TREES = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106)

# Python refuses int <-> str conversions above this many digits by default.
_SAFE_DIGITS = 4000


def decimal_to_int(text: str) -> int:
    """Parse a decimal string of any length without the int-digit limit."""
    if len(text) <= _SAFE_DIGITS:
        return int(text)
    low = len(text) // 2
    return decimal_to_int(text[:-low]) * 10**low + decimal_to_int(text[-low:])


def decimal_less(a: str, b: str) -> bool:
    """Order two nonnegative decimal strings without converting them."""
    return (len(a), a) < (len(b), b)


def prufer_edges(code: list[int], n: int) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence (entries in 0..n-1, length n-2), heap-based."""
    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_tree_edges(rng, n: int) -> list[tuple[int, int]]:
    """A uniformly random labeled tree on n >= 2 vertices."""
    return prufer_edges([rng.randrange(n) for _ in range(n - 2)], n)


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def spider_edges(legs: list[int]) -> list[tuple[int, int]]:
    """Paths with the given edge counts glued at vertex 0."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_tree(n: int, edges) -> bool:
    """n - 1 edges on vertices 0..n-1 that join everything (union-find)."""
    if n < 1 or len(edges) != n - 1:
        return False
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        root[ru] = rv
    return True


def degree_multiset(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return sorted(deg, reverse=True)


def _rooted(n: int, edges) -> tuple[list[int], list[int]]:
    """Parents and breadth-first order of the tree rooted at vertex 0."""
    adj = adjacency(n, edges)
    parent = [-1] * n
    parent[0] = 0
    order = [0]
    for v in order:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    return parent, order


def phi(n: int, edges) -> int:
    """Subtree count: sum over v of prod(1 + g(child)) rooted at vertex 0."""
    parent, order = _rooted(n, edges)
    g = [1] * n
    for v in reversed(order[1:]):
        g[parent[v]] *= 1 + g[v]
    return sum(g)


def path_phi(n: int) -> int:
    return n * (n + 1) // 2


def spider_phi(legs: list[int]) -> int:
    """Subtrees through the centre, plus the path subtrees inside each leg."""
    through = 1
    for length in legs:
        through *= length + 1
    return through + sum(length * (length + 1) // 2 for length in legs)


def greedy_edges(pi: list[int]) -> list[tuple[int, int]]:
    """The breadth-first greedy tree: ids handed out largest degree first."""
    pi = sorted(pi, reverse=True)
    n = len(pi)
    edges = []
    nxt = 1
    for v in range(n):
        if nxt >= n:
            break
        for _ in range(pi[v] - (0 if v == 0 else 1)):
            edges.append((v, nxt))
            nxt += 1
    return edges


def tree_sequences(n: int) -> list[tuple[int, ...]]:
    """Nonincreasing positive sequences of length n >= 2 summing to 2(n-1)."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], left: int, slots: int, cap: int) -> None:
        if slots == 0:
            if left == 0:
                out.append(tuple(prefix))
            return
        for d in range(min(cap, left - (slots - 1)), 0, -1):
            if d * slots >= left:
                grow(prefix + [d], left - d, slots - 1, d)

    grow([], 2 * (n - 1), n, n - 1)
    return out


def relation(a, b) -> str:
    """Majorization order of two equal-sum nonincreasing sequences:
    "greater", "less", "equal" or "incomparable"."""
    run_a = run_b = 0
    signs = set()
    for x, y in zip(a, b):
        run_a += x
        run_b += y
        if run_a != run_b:
            signs.add(run_a > run_b)
    if len(signs) == 2:
        return "incomparable"
    if not signs:
        return "equal"
    return "greater" if signs.pop() else "less"


def _free_code(n: int, edges) -> str:
    """Canonical string of a free tree: the smaller AHU code from a centre."""
    adj = adjacency(n, edges)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, -1) for c in layer)


@lru_cache(maxsize=None)
def free_tree_classes(n: int) -> dict[tuple[int, ...], int]:
    """Free trees on n <= 10 vertices per degree sequence, found by growing
    every tree on m - 1 vertices by one leaf and removing duplicates."""
    trees: dict[str, list[tuple[int, int]]] = {"()": []}
    for m in range(2, n + 1):
        grown: dict[str, list[tuple[int, int]]] = {}
        for edges in trees.values():
            for v in range(m - 1):
                bigger = edges + [(v, m - 1)]
                grown.setdefault(_free_code(m, bigger), bigger)
        trees = grown
    return Counter(tuple(degree_multiset(n, e)) for e in trees.values())


def labeled_count(pi) -> int:
    """Labeled trees with degree sequence pi: (n-2)! / prod (d-1)!."""
    total = factorial(len(pi) - 2)
    for d in pi:
        total //= factorial(d - 1)
    return total


def matching_number(n: int, edges) -> int:
    """Maximum matching of a tree: match each vertex to its parent, leaves up."""
    parent, order = _rooted(n, edges)
    matched = bytearray(n)
    count = 0
    for v in reversed(order[1:]):
        p = parent[v]
        if not matched[v] and not matched[p]:
            matched[v] = matched[p] = 1
            count += 1
    return count

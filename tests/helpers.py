"""Shared tree builders and induced-subgraph helpers for the tests."""

from __future__ import annotations

import json
import random
from itertools import combinations, permutations
from typing import Iterator, Sequence

from hypothesis import strategies as st

from subtrees import cli
from subtrees.counting import count_subtrees, f_vector
from subtrees.errors import ParseError
from subtrees.extremal import _satisfies_bfs_ordering, build_greedy_bfs, swap_components
from subtrees.majorization import majorizes
from subtrees.oracle import (
    _edges_from_prufer,
    labeled_tree_count,
    prufer_sequences,
    realizable_sequences,
    tree_from_prufer,
)
from subtrees.trees import (
    Tree,
    _centers,
    _code_from_adjacency,
    _decimal,
    _parse_uint,
    canonical_code,
    path_between,
    tree_from_edges,
    validate_degree_sequence,
)


def path(n: int) -> Tree:
    return tree_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Tree:
    return tree_from_edges(n, [(0, i) for i in range(1, n)])


def spider(*legs: int) -> Tree:
    """Paths of the given edge lengths glued at a common center (vertex 0)."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return tree_from_edges(nxt, edges)


def induced_subtree(tree: Tree, vertices) -> tuple[Tree, dict[int, int]]:
    """The subgraph induced by a connected vertex set, relabeled densely."""
    vs = sorted(vertices)
    index = {v: i for i, v in enumerate(vs)}
    edges = [
        (index[u], index[v]) for u, v in tree.edges if u in index and v in index
    ]
    return tree_from_edges(len(vs), edges), index


def f_within(tree: Tree, vertices, v: int) -> int:
    """Subtrees of the induced subgraph that contain v."""
    sub, index = induced_subtree(tree, vertices)
    return f_vector(sub).values[index[v]]


@st.composite
def random_trees(draw, min_n: int = 1, max_n: int = 12) -> Tree:
    """Uniform labeled trees via random Pruefer sequences."""
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return tree_from_edges(1, [])
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return tree_from_prufer(tuple(code), n)


def seeded_tree(seed: int, n: int) -> Tree:
    """A uniform labeled tree on n >= 2 vertices from a seeded Pruefer code."""
    rng = random.Random(seed)
    return tree_from_prufer(tuple(rng.randrange(n) for _ in range(n - 2)), n)


def reference_parse_edge_list(text: str) -> Tree:
    """The first edge-list parser: one line at a time, into ``tree_from_edges``."""
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise ParseError("missing vertex count on the first line")
    head = lines[0].split()
    if len(head) != 1:
        raise ParseError(f"first line must hold the vertex count alone, got {lines[0]!r}")
    n = _parse_uint(head[0], "vertex count")
    if n < 1:
        raise ParseError("vertex count must be at least 1")
    if len(lines) < n:
        raise ParseError(f"expected {n - 1} edge lines, found {len(lines) - 1}")
    edges = []
    for i in range(1, n):
        tokens = lines[i].split()
        if len(tokens) != 2:
            raise ParseError(f"edge line {i + 1} must be 'u v', got {lines[i]!r}")
        edges.append((_parse_uint(tokens[0], "vertex"), _parse_uint(tokens[1], "vertex")))
    for extra in lines[n:]:
        if extra.strip():
            raise ParseError(f"trailing garbage after the edge list: {extra!r}")
    return tree_from_edges(n, edges)


def reference_parse_degree_sequence(text: str) -> tuple[int, ...]:
    """The first degree-sequence parser: one checked token at a time."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty degree sequence input")
    if len(lines) > 1:
        raise ParseError(f"degree sequence must sit on one line, got {len(lines)}")
    degrees = [_parse_uint(tok.strip(), "degree") for tok in lines[0].split(",")]
    return validate_degree_sequence(degrees)


def reference_root(
    tree: Tree, root: int
) -> tuple[list[int | None], list[list[int]], list[int], list[int]]:
    """Parents (None at the root), children, heights and BFS order from root.

    An independent traversal: each vertex's children in ascending id, the
    children blocks in their parents' order.
    """
    parent: list[int | None] = [None] * tree.n
    children: list[list[int]] = [[] for _ in range(tree.n)]
    height = [0] * tree.n
    order = [root]
    for v in order:
        for w in sorted(tree.adjacency[v]):
            if w != root and parent[w] is None:
                parent[w], height[w] = v, height[v] + 1
                children[v].append(w)
                order.append(w)
    return parent, children, height, order


def reference_rooted_counts(parent: Sequence[int | None], order: Sequence[int]) -> list[int]:
    """The first rooted subtree DP: one product (1 + g) per child, children first."""
    g = [1] * len(parent)
    for v in order[:0:-1]:
        g[parent[v]] *= 1 + g[v]  # type: ignore[index]
    return g


def reference_rerooted_counts(tree: Tree) -> tuple[list[int | None], list[int], list[int]]:
    """BFS parents from root 0, the rooted counts g and the up-pass counts A.

    The first rerooting, without division.  A(c) counts the subtrees that
    contain c's parent v and stay outside c's branch, from A(v) and the
    sibling products:

        A(root) = 0
        A(c) = (1 + A(v)) * prod over siblings s of c of (1 + g(s))

    so that f(c) = g(c) * (1 + A(c)).
    """
    parent, children, _, order = reference_root(tree, 0)
    g = reference_rooted_counts(parent, order)
    above = [0] * tree.n
    for v in order:
        kids = children[v]
        prefix = [1]
        for c in kids:
            prefix.append(prefix[-1] * (1 + g[c]))
        suffix = 1
        for i in range(len(kids) - 1, -1, -1):
            above[kids[i]] = (1 + above[v]) * prefix[i] * suffix
            suffix *= 1 + g[kids[i]]
    return parent, g, above


def reference_greedy_bfs(pi: Sequence[int]) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """The first greedy construction: edges and layer sizes, layer by layer.

    Each vertex of a layer, in id order, takes the next unused ids as its
    children: pi[0] for the root, pi[v] - 1 for any other v.
    """
    pi = validate_degree_sequence(pi)
    edges: list[tuple[int, int]] = []
    next_id, layer, sizes = 1, [0], [1]
    while next_id < len(pi):
        nxt = []
        for v in layer:
            for _ in range(pi[v] - (v != 0)):
                edges.append((v, next_id))
                nxt.append(next_id)
                next_id += 1
        sizes.append(len(nxt))
        layer = nxt
    return edges, tuple(sizes)


def reference_phi_star(chain: Sequence[Sequence[int]]) -> list[str]:
    """The first ``order`` loop: build each greedy tree and count its subtrees."""
    trees = (tree_from_edges(len(pi), reference_greedy_bfs(pi)[0]) for pi in chain)
    return [_decimal(count_subtrees(t)) for t in trees]


def _rendered(command: str, inputs: dict, outputs: dict, lines: list[str]) -> tuple[str, str]:
    report = json.dumps(cli._report(command, inputs, outputs), sort_keys=True)
    return "\n".join(lines) + "\n", report + "\n"


def reference_build_output(pi: Sequence[int]) -> tuple[str, str]:
    """Human and JSON ``build`` output from a greedy ``Tree`` and ``count_subtrees``.

    The first output path: build and validate the tree, run its BFS to
    count, and read its sorted edges back.
    """
    tree, sizes = build_greedy_bfs(pi)
    phi = _decimal(count_subtrees(tree))
    outputs = {
        "edges": [list(e) for e in tree.edges],
        "layer_sizes": list(sizes),
        "phi": phi,
    }
    lines = [
        str(tree.n),
        *(f"{u} {v}" for u, v in tree.edges),
        "layer_sizes: " + ",".join(map(str, sizes)),
        f"phi: {phi}",
    ]
    return _rendered("build", {"pi": list(validate_degree_sequence(pi))}, outputs, lines)


def reference_class_output(kind: str, n: int, k: int) -> tuple[str, str]:
    """Human and JSON ``class`` output from a greedy ``Tree`` and ``count_subtrees``.

    The answer gives the sequence, details and published value; the
    edges, phi and the discrepancy flag come from the first output path.
    """
    answer = cli._CLASS_FUNCTIONS[kind](n, k)
    tree, _ = build_greedy_bfs(answer.extremal_pi)
    phi = count_subtrees(tree)
    printed = answer.printed_formula_value
    flag = printed is not None and printed != phi
    outputs = {
        "pi": list(answer.extremal_pi),
        "edges": [list(e) for e in tree.edges],
        "phi": _decimal(phi),
        "printed_formula_value": None if printed is None else _decimal(printed),
        "discrepancy_flag": flag,
        "details": dict(sorted(answer.details.items())),
    }
    lines = [
        f"type: {kind}",
        f"n: {n}",
        f"k: {k}",
        "pi: " + ",".join(map(str, answer.extremal_pi)),
        *(f"{u} {v}" for u, v in tree.edges),
        f"phi: {_decimal(phi)}",
        *([] if printed is None else [f"printed_formula: {_decimal(printed)}"]),
        f"discrepancy: {str(flag).lower()}",
    ]
    return _rendered("class", {"type": kind, "n": n, "k": k}, outputs, lines)


def reference_rooted_code(n: int, adjacency: Sequence[Sequence[int]], root: int) -> bytes:
    """Rooted byte code with its own traversal: sorted child codes in parens.

    The first implementation of the canonical code, one BFS and one
    bottom-up pass per root, kept as the reference that the package's
    shared-BFS code must match byte for byte.
    """
    parent = [-1] * n
    order = [root]
    parent[root] = root
    for v in order:
        for w in adjacency[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    code: list[bytes] = [b""] * n
    for v in reversed(order):
        kids = sorted(code[w] for w in adjacency[v] if parent[w] == v and w != root)
        code[v] = b"(" + b"".join(kids) + b")"
    return code[root]


def reference_code(n: int, adjacency: Sequence[Sequence[int]]) -> bytes:
    """The smaller reference rooted code over the tree's one or two centers."""
    return min(reference_rooted_code(n, adjacency, c) for c in _centers(n, adjacency))


def reference_has_bfs_ordering(tree: Tree, root: int) -> bool:
    """Whether any vertex order with the root first is a BFS-ordering.

    Tries all (n-1)! orders, so keep n small.
    """
    rest = [v for v in range(tree.n) if v != root]
    return any(_satisfies_bfs_ordering(tree, root, (root, *perm)) for perm in permutations(rest))


def reference_enumerate_trees(pi: Sequence[int]) -> Iterator[Tree]:
    """One tree per isomorphism class with degrees pi, by decode and dedupe.

    The first implementation of ``enumerate_trees``: decode every Pruefer
    sequence of the class and keep the first tree of each canonical code.
    It visits all (n-2)!/prod (pi[v]-1)! labeled trees, so keep n small.
    """
    pi = validate_degree_sequence(pi)
    n = len(pi)
    if n == 1:
        yield tree_from_edges(1, [])
        return
    seen: set[bytes] = set()
    for code in prufer_sequences(pi):
        edges = _edges_from_prufer(code, n)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        key = _code_from_adjacency(n, adj)
        if key not in seen:
            seen.add(key)
            yield tree_from_edges(n, edges)


def reference_grow_trees(pi: Sequence[int]) -> Iterator[Tree]:
    """One tree per isomorphism class with degrees pi, grown leaf by leaf.

    The second implementation of ``enumerate_trees``.  Free trees grow
    from the 2-vertex tree: at each size a new leaf goes on every vertex
    of every kept tree, and the result is kept when its sorted degrees fit
    under pi entry by entry and its canonical code is new.  Deleting the
    leaves of a tree with degrees pi one at a time passes only through
    trees that fit, so every class is reached; at size n, fitting means
    having degrees exactly pi.
    """
    pi = validate_degree_sequence(pi)
    n = len(pi)
    if n == 1:
        yield tree_from_edges(1, [])
        return
    level: list[list[list[int]]] = [[[1], [0]]]
    for k in range(2, n):
        seen: set[bytes] = set()
        grown = []
        for adj in level:
            degrees = [len(a) for a in adj] + [1]
            for v in range(k):
                degrees[v] += 1
                fits = all(d <= p for d, p in zip(sorted(degrees, reverse=True), pi))
                degrees[v] -= 1
                if not fits:
                    continue
                child = [*adj[:v], [*adj[v], k], *adj[v + 1 :], [v]]
                key = _code_from_adjacency(k + 1, child)
                if key not in seen:
                    seen.add(key)
                    grown.append(child)
        level = grown
    for adj in level:
        yield tree_from_edges(n, [(u, w) for u in range(n) for w in adj[u] if u < w])


def reference_verify_outputs(n: int) -> dict:
    """The ``outputs`` of ``verify --all-n n --json`` from the first per-sequence path.

    Each sequence's classes come from ``reference_grow_trees``; the greedy
    tree passes when its canonical code is the only maximizer's.
    """
    sequences = realizable_sequences(n)
    results = []
    for pi in sequences:
        phis = {canonical_code(t): count_subtrees(t) for t in reference_grow_trees(pi)}
        best = max(phis.values())
        max_codes = [code for code, phi in phis.items() if phi == best]
        results.append(
            {
                "pi": list(pi),
                "iso_classes": len(phis),
                "labeled_count": str(labeled_tree_count(pi)),
                "max_phi": str(best),
                "maximizer_count": len(max_codes),
                "greedy_is_unique_max": max_codes == [canonical_code(build_greedy_bfs(pi)[0])],
            }
        )
    pairs = 0
    monotonic_ok = True
    for i, j in combinations(range(len(sequences)), 2):
        relation = majorizes(sequences[i], sequences[j])
        if relation != "incomparable":
            pairs += 1
            bigger = int(results[i]["max_phi"]) > int(results[j]["max_phi"])
            smaller = int(results[i]["max_phi"]) < int(results[j]["max_phi"])
            monotonic_ok &= bigger if relation == "greater" else smaller
    all_unique = all(r["greedy_is_unique_max"] for r in results)
    return {
        "sequences": results,
        "comparable_pairs": pairs,
        "monotonic_ok": monotonic_ok,
        "all_unique": all_unique,
        "pass": all_unique and monotonic_ok,
    }


def reference_moves(tree: Tree) -> Iterator[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """The local search's moves as ``swap_components`` arguments, in scan order.

    One-for-one branch exchanges over the pairs x < y, then single-branch
    relocations from x to every y of one degree less; a branch holding the
    other endpoint never moves.  Each pair walks its path again.
    """
    n = tree.n
    for x, y in combinations(range(n), 2):
        p = path_between(tree, x, y)
        for c in tree.adjacency[x]:
            if c == p[1]:
                continue
            for d in tree.adjacency[y]:
                if d != p[-2]:
                    yield x, y, (c,), (d,)
    for x in range(n):
        for y in range(n):
            if x == y or tree.degree(x) != tree.degree(y) + 1:
                continue
            toward_y = path_between(tree, x, y)[1]
            for c in tree.adjacency[x]:
                if c != toward_y:
                    yield x, y, (c,), ()


def reference_local_search(tree: Tree) -> Tree:
    """The first local search: build and recount every move of ``reference_moves``.

    Applies the first move whose rebuilt tree has more subtrees, then
    restarts the scan, until no move gains.
    """
    current = tree
    best = count_subtrees(current)
    improved = True
    while improved:
        improved = False
        for move in reference_moves(current):
            candidate = swap_components(current, *move)
            phi = count_subtrees(candidate)
            if phi > best:
                current, best = candidate, phi
                improved = True
                break
    return current

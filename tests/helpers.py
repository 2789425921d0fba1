"""Shared tree builders and induced-subgraph helpers for the tests."""

from __future__ import annotations

import contextlib
import json
import random
import re
import sys
from itertools import combinations, permutations
from typing import Iterator, NamedTuple, Sequence

from hypothesis import strategies as st

from subtrees import cli
from subtrees.counting import _phi_from_parents, count_subtrees, f_vector
from subtrees.errors import ParseError
from subtrees.extremal import build_greedy_bfs, swap_components
from subtrees.majorization import majorizes
from subtrees.oracle import (
    _degrees,
    _edges_from_prufer,
    enumerate_trees,
    labeled_tree_count,
    prufer_sequences,
    realizable_sequences,
    tree_from_prufer,
)
from subtrees.trees import (
    Tree,
    _bfs,
    _edge_ends,
    _parse_uint,
    canonical_code,
    parse_edge_list,
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


@contextlib.contextmanager
def int_digit_limit(digits: int) -> Iterator[None]:
    """Run the block under the interpreter's int-digit limit ``digits``."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def seeded_tree(seed: int, n: int) -> Tree:
    """A uniform labeled tree on n >= 2 vertices from a seeded Pruefer code."""
    rng = random.Random(seed)
    return tree_from_prufer(tuple(rng.randrange(n) for _ in range(n - 2)), n)


def random_recursive_tree(rng: random.Random, n: int) -> Tree:
    """A tree on n vertices where each vertex v >= 1 hangs on a uniform earlier one."""
    return tree_from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def reference_parse_edge_list(text: str) -> Tree:
    """The first edge-list parser: one line at a time, into ``tree_from_edges``."""
    n, ends = reference_line_ends(text)
    pairs = iter(ends)
    return tree_from_edges(n, zip(pairs, pairs))


def reference_line_ends(text: str) -> tuple[int, list[int]]:
    """``trees._edge_ends`` one line at a time: n and the flat edge ends,
    checked for syntax and for n - 1 edge lines only."""
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
    ends = []
    for i in range(1, n):
        tokens = lines[i].split()
        if len(tokens) != 2:
            raise ParseError(f"edge line {i + 1} must be 'u v', got {lines[i]!r}")
        ends += (_parse_uint(tokens[0], "vertex"), _parse_uint(tokens[1], "vertex"))
    for extra in lines[n:]:
        if extra.strip():
            raise ParseError(f"trailing garbage after the edge list: {extra!r}")
    return n, ends


def reference_edge_ends(text: str) -> tuple[int, list[int]]:
    """``trees._edge_ends`` with ``map(int, ...)`` over canonical text, about
    64 KiB at a time cut at newlines, and the line loop for the rest."""
    if re.fullmatch(r"[0-9]+\n(?:[0-9]+ [0-9]+\n)*", text):
        start = text.index("\n") + 1
        try:
            n = int(text[:start])
            ends: list[int] = []
            while start < len(text):
                stop = text.find("\n", start + 65536) + 1 or len(text)
                ends += map(int, text[start:stop].split())
                start = stop
        except ValueError:  # a token longer than the interpreter's int-digit limit
            pass
        else:
            if n >= 1 and len(ends) == 2 * (n - 1):
                return n, ends
    return reference_line_ends(text)


def reference_tree_bfs(text: str) -> tuple[list[int], list[int]]:
    """The first rooting of ``count``: adjacency lists from the edge ends of
    the text and one BFS from vertex 0, else ``parse_edge_list``'s error."""
    n, ends = _edge_ends(text)
    if max(ends, default=0) < n:
        adjacency: list[list[int]] = [[] for _ in range(n)]
        pairs = iter(ends)
        for u, v in zip(pairs, pairs):
            adjacency[u].append(v)
            adjacency[v].append(u)
        parent, order = _bfs(adjacency, 0)
        if len(order) == n:
            return parent, order
    return _bfs(parse_edge_list(text).adjacency, 0)


def reference_decimal(x: int) -> str:
    """The first exact decimal text: ``str``, or past the int-digit limit a
    split by a power of ten into two halves converted the same way."""
    if x < 0:
        return "-" + reference_decimal(-x)
    try:
        return str(x)
    except ValueError:
        half = x.bit_length() * 30103 // 200000
        high, low = divmod(x, 10**half)
        return reference_decimal(high) + reference_decimal(low).zfill(half)


def reference_map_degree_sequence(text: str) -> tuple[int, ...]:
    """``parse_degree_sequence`` with one ``map(int, ...)`` over plain text
    and the token loop for the rest."""
    if re.fullmatch(r"[0-9]+(?:,[0-9]+)*", text):
        try:
            degrees = list(map(int, text.split(",")))
        except ValueError:  # an entry longer than the interpreter's int-digit limit
            pass
        else:
            return validate_degree_sequence(degrees)
    return reference_parse_degree_sequence(text)


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
    return [reference_decimal(count_subtrees(t)) for t in trees]


def _rendered(command: str, inputs: dict, outputs: dict, lines: list[str]) -> tuple[str, str]:
    report = json.dumps(cli._report(command, inputs, outputs), sort_keys=True)
    return "\n".join(lines) + "\n", report + "\n"


def reference_build_output(pi: Sequence[int]) -> tuple[str, str]:
    """Human and JSON ``build`` output from a greedy ``Tree`` and ``count_subtrees``.

    The first output path: build and validate the tree, run its BFS to
    count, and read its sorted edges back.
    """
    tree, sizes = build_greedy_bfs(pi)
    phi = reference_decimal(count_subtrees(tree))
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
        "phi": reference_decimal(phi),
        "printed_formula_value": None if printed is None else reference_decimal(printed),
        "discrepancy_flag": flag,
        "details": dict(sorted(answer.details.items())),
    }
    lines = [
        f"type: {kind}",
        f"n: {n}",
        f"k: {k}",
        "pi: " + ",".join(map(str, answer.extremal_pi)),
        *(f"{u} {v}" for u, v in tree.edges),
        f"phi: {reference_decimal(phi)}",
        *([] if printed is None else [f"printed_formula: {reference_decimal(printed)}"]),
        f"discrepancy: {str(flag).lower()}",
    ]
    return _rendered("class", {"type": kind, "n": n, "k": k}, outputs, lines)


def reference_emit(args, report, human, items=None, splice=None) -> None:
    """``cli._emit`` with the text of the first implementations: each
    spliced JSON text is decoded with ``json.loads`` and put back in its
    place in the report, the whole report goes through ``json.dumps``, and
    the long list is one ``%`` per item, joined by ``str.join`` and spliced
    around ``"key": null``."""
    data = report()
    for key, value in (splice() if splice else {}).items():
        for part in (data["inputs"], data["outputs"]):
            if key in part:
                part[key] = json.loads(value)
    text = json.dumps(data, sort_keys=True)
    if items is None:
        for line in [text] if args.json else human():
            print(line)
        return
    key, json_item, human_item, columns, _ = items
    rows = list(zip(*columns))
    if args.json:
        head, _, tail = text.rpartition(f'"{key}": null')
        print(head, f'"{key}": [', ", ".join(map(json_item.__mod__, rows)), "]", tail, sep="")
    else:
        before, after = human()
        print(before, "".join(map(human_item.__mod__, rows)), after, sep="", end="")


def reference_argmax(values: Sequence) -> tuple[int, ...]:
    """The positions of the largest value, ascending, one comparison per value."""
    best = max(values)
    return tuple(v for v, x in enumerate(values) if x == best)


def reference_rooted_code(n: int, adjacency: Sequence[Sequence[int]], root: int) -> bytes:
    """Rooted byte code with its own traversal: sorted child codes in parens.

    The first implementation of the canonical code, one BFS and one
    bottom-up pass per root, kept as the reference whose classes the
    package's integer-label code must match; it takes quadratic memory,
    so keep n small.
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


def reference_centers(n: int, adjacency: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The one or two middle vertices found by repeatedly peeling all leaves."""
    if n <= 2:
        return tuple(range(n))
    deg = [len(a) for a in adjacency]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in adjacency[v]:
                if deg[w] > 1:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return tuple(sorted(layer))


def reference_code(n: int, adjacency: Sequence[Sequence[int]]) -> bytes:
    """The smaller reference rooted code over the tree's one or two centers."""
    return min(reference_rooted_code(n, adjacency, c) for c in reference_centers(n, adjacency))


def satisfies_bfs_ordering(tree: Tree, root: int, order: Sequence[int]) -> bool:
    """Whether ``order`` is a BFS-ordering of the tree rooted at ``root``.

    Condition one: heights nondecreasing and degrees nonincreasing along
    the order.  Condition two: children follow their parents' order, i.e.
    listing the non-root vertices by position, their parents' positions
    never decrease.
    """
    n = tree.n
    if sorted(order) != list(range(n)) or order[0] != root:
        return False
    parent, bfs = _bfs(tree.adjacency, root)
    height = [0] * n
    for v in bfs[1:]:
        height[v] = height[parent[v]] + 1
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    for i in range(n - 1):
        u, v = order[i], order[i + 1]
        if height[u] > height[v] or tree.degree(u) < tree.degree(v):
            return False
    parent_pos = [pos[parent[v]] for v in order[1:]]
    return all(parent_pos[i] <= parent_pos[i + 1] for i in range(len(parent_pos) - 1))


def reference_has_bfs_ordering(tree: Tree, root: int) -> bool:
    """Whether any vertex order with the root first is a BFS-ordering.

    Tries all (n-1)! orders, so keep n small.
    """
    rest = [v for v in range(tree.n) if v != root]
    return any(satisfies_bfs_ordering(tree, root, (root, *perm)) for perm in permutations(rest))


class EnumeratedClass(NamedTuple):
    """Every tree of one degree sequence: a (canonical code, tree, phi)
    triple per isomorphism class, sorted by code; the largest phi and the
    triples that reach it; and the number of labeled trees."""

    labeled_count: int
    iso_classes: list[tuple[bytes, Tree, int]]
    max_phi: int
    maximizers: list[tuple[bytes, Tree, int]]


def enumerated_class(pi: Sequence[int]) -> EnumeratedClass:
    """The class of pi from ``enumerate_trees``, phi from ``count_subtrees``."""
    triples = sorted(
        ((canonical_code(t), t, count_subtrees(t)) for t in enumerate_trees(pi)),
        key=lambda triple: triple[0],
    )
    best = max(phi for _, _, phi in triples)
    maximizers = [triple for triple in triples if triple[2] == best]
    return EnumeratedClass(labeled_tree_count(pi), triples, best, maximizers)


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
        key = reference_code(n, adj)
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
                key = reference_code(k + 1, child)
                if key not in seen:
                    seen.add(key)
                    grown.append(child)
        level = grown
    for adj in level:
        yield tree_from_edges(n, [(u, w) for u in range(n) for w in adj[u] if u < w])


def _reference_next_rooted_tree(levels: list[int], p: int | None = None) -> bool:
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


def _reference_split_levels(levels: Sequence[int]) -> tuple[list[int], list[int]]:
    """The root's first branch as a rooted tree, and the rest with the root."""
    try:
        m = levels.index(1, 2)
    except ValueError:
        m = len(levels)
    return [x - 1 for x in levels[1:m]], [0, *levels[m:]]


def reference_free_trees(n: int) -> Iterator[list[int]]:
    """The WROM free-tree stream from scratch: a fresh parent list per tree.

    The second implementation of ``oracle._free_trees``, which keeps its
    split and heights as it walks and rewrites only a suffix.  This one
    splits the level sequence, takes both heights with ``max`` and
    rebuilds the whole parent array for every tree.
    """
    if n == 1:
        yield [0]
        return
    levels = [*range(n // 2 + 1), *range(1, (n + 1) // 2)]
    while True:
        left, rest = _reference_split_levels(levels)
        lh, rh = max(left), max(rest)
        if lh > rh or lh == rh and (len(left), left) > (len(rest), rest):
            p = len(left)
            deep = levels[p] > 2
            _reference_next_rooted_tree(levels, p)
            if deep:
                h = max(_reference_split_levels(levels)[0])
                levels[n - h - 1 :] = range(1, h + 2)
        last = [0] * n
        parent = [0] * n
        for v in range(1, n):
            parent[v] = last[levels[v] - 1]
            last[levels[v]] = v
        yield parent
        if not _reference_next_rooted_tree(levels):
            return


def reference_order_census(n: int) -> dict[tuple[int, ...], tuple[int, int, int]]:
    """``oracle._order_census`` from scratch: every tree's sorted degrees and
    phi counted afresh, with no state carried from one tree to the next."""
    buckets: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for parent in reference_free_trees(n):
        key = _degrees(parent)
        phi = _phi_from_parents(parent)
        classes, best, at_best = buckets.get(key, (0, phi, 0))
        if phi > best:
            best, at_best = phi, 0
        buckets[key] = (classes + 1, best, at_best + (phi == best))
    return buckets


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

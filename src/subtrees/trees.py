"""Tree representation, validation, rooting, paths and isomorphism.

Vertices are dense integers 0..n-1.  Every value is immutable after
construction; operations return new objects and never mutate their inputs,
so values can be shared freely between threads or processes.

One breadth-first primitive, ``_bfs``, walks every rooted tree in the
package: the connectivity check, ``path_between`` and the canonical code
here, and the subtree DP, the BFS-ordering check and the move scores
elsewhere all read its flat ``parent`` and ``order`` lists, in which the
root is its own parent.  ``_vertex`` checks every vertex id that a
public function takes.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .errors import InvalidVertex, NotATree, NotRealizable, ParseError

__all__ = [
    "Tree",
    "tree_from_edges",
    "validate_degree_sequence",
    "degree_sequence_of",
    "path_between",
    "canonical_code",
    "is_isomorphic",
    "relabel",
    "parse_edge_list",
    "parse_degree_sequence",
    "format_edge_list",
]


@dataclass(frozen=True)
class Tree:
    """An undirected labeled tree: n vertices, n-1 edges, connected.

    ``edges`` holds (u, v) pairs with u < v in lexicographic order and
    ``adjacency[v]`` lists the neighbors of v in ascending order.  Build
    instances through :func:`tree_from_edges`, which validates everything.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def _vertex(w: Any, n: int, what: str = "vertex") -> int:
    """w as an int, when it is an integer vertex id in 0..n-1.

    Raises InvalidVertex naming ``what`` otherwise.  Any integer type
    passes (``operator.index``); a float or a string does not.
    """
    try:
        v = operator.index(w)
    except TypeError:
        raise InvalidVertex(f"{what} {w!r} is not an integer") from None
    if not 0 <= v < n:
        raise InvalidVertex(f"{what} {v} outside 0..{n - 1}")
    return v


def tree_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Tree:
    """Build a validated Tree from an iterable of undirected edges.

    Raises NotATree when the input has an edge that is not a pair of
    integer ids, the wrong edge count, a self-loop, a duplicate edge, a
    vertex outside 0..n-1, or is disconnected.
    """
    if n < 1:
        raise NotATree(f"vertex count must be at least 1, got {n}")
    norm = []
    for e in edges:
        try:
            u, v = e
            if type(u) is not int or type(v) is not int:
                e = u, v = operator.index(u), operator.index(v)
        except (TypeError, ValueError):
            raise NotATree(f"edge {e!r} is not a pair of integer vertex ids") from None
        if not (0 <= u < n and 0 <= v < n):
            raise NotATree(f"edge ({u}, {v}) has a vertex outside 0..{n - 1}")
        if u == v:
            raise NotATree(f"self-loop at vertex {u}")
        # An ordered tuple is kept as is, so a parsed edge list is not copied.
        norm.append((v, u) if u > v else e if type(e) is tuple else (u, v))
    if len(norm) != n - 1:
        raise NotATree(f"a tree on {n} vertices needs {n - 1} edges, got {len(norm)}")
    norm.sort()
    if any(map(operator.eq, norm, norm[1:])):
        raise NotATree("duplicate edge")
    # Sorted pairs u < v give each vertex its smaller neighbors, then its larger.
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in norm:
        adj[u].append(v)
        adj[v].append(u)
    if len(_bfs(adj, 0)[1]) != n:
        raise NotATree("edge set is not connected")
    return Tree(n=n, edges=tuple(norm), adjacency=tuple(map(tuple, adj)))


def _decimal(x: int) -> str:
    """Exact decimal text of an integer of any size.

    ``str`` refuses ints above the interpreter's digit limit (4300 digits
    by default); such values are split by a power of ten and converted
    piece by piece.  Parsing keeps the limit.
    """
    if x < 0:
        return "-" + _decimal(-x)
    try:
        return str(x)
    except ValueError:
        half = x.bit_length() * 30103 // 200000
        high, low = divmod(x, 10**half)
        return _decimal(high) + _decimal(low).zfill(half)


def validate_degree_sequence(degrees: Iterable[int]) -> tuple[int, ...]:
    """Sort a degree sequence nonincreasing and check tree realizability.

    A sequence of length n >= 2 is realizable exactly when every entry is
    positive and the total is 2(n-1).  The single-vertex tree is admitted
    as the sequence (0,).  Raises NotRealizable otherwise.
    """
    seq = sorted(degrees, reverse=True)
    if not seq:
        raise NotRealizable("empty degree sequence")
    n = len(seq)
    if n == 1:
        if seq[0] != 0:
            raise NotRealizable(f"a single vertex has degree 0, got {_decimal(seq[0])}")
        return (0,)
    if seq[-1] < 1:
        raise NotRealizable(f"degree {_decimal(seq[-1])} is not positive")
    total = sum(seq)
    if total != 2 * (n - 1):
        raise NotRealizable(f"degree sum {_decimal(total)} != 2(n-1) = {2 * (n - 1)}")
    return tuple(seq)


def degree_sequence_of(tree: Tree) -> tuple[int, ...]:
    """The nonincreasing degree multiset of the tree."""
    return tuple(sorted((len(a) for a in tree.adjacency), reverse=True))


def _bfs(adjacency: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first parent links and visit order of the part reached from root.

    The root is its own parent and unreached vertices keep parent -1.
    Each visited vertex's children, its unvisited neighbors in adjacency
    order, form one contiguous run of ``order``, and the runs follow their
    parents' positions in ``order``.
    """
    parent = [-1] * len(adjacency)
    parent[root] = root
    order = [root]
    for v in order:
        for w in adjacency[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    return parent, order


def path_between(tree: Tree, u: int, v: int) -> tuple[int, ...]:
    """The unique u-v path, endpoints included; dist(u,v) = length - 1."""
    u, v = _vertex(u, tree.n), _vertex(v, tree.n)
    parent, _ = _bfs(tree.adjacency, v)
    path = [u]
    while path[-1] != v:
        path.append(parent[path[-1]])
    return tuple(path)


def _centers(n: int, adjacency: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The one or two middle vertices found by repeatedly peeling leaves."""
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


def _branch_codes(parent: Sequence[int], order: Sequence[int]) -> list[bytes]:
    """Canonical byte code of every vertex's branch, bottom-up.

    A branch's code is its children's codes, sorted, inside parentheses;
    each finished code is pushed to its parent.  The root, its own
    parent, comes last and pushes its code after its list is read.
    """
    kids: list[list[bytes]] = [[] for _ in parent]
    code = [b""] * len(parent)
    for v in reversed(order):
        kids[v].sort()
        code[v] = b"(" + b"".join(kids[v]) + b")"
        kids[parent[v]].append(code[v])
    return code


def _code_from_adjacency(n: int, adjacency: Sequence[Sequence[int]]) -> bytes:
    return min(_branch_codes(*_bfs(adjacency, c))[c] for c in _centers(n, adjacency))


def canonical_code(tree: Tree) -> bytes:
    """A byte string equal for two trees exactly when they are isomorphic.

    The tree is rooted at its center (for two centers, the smaller of the
    two codes wins) and encoded bottom-up with sorted child codes, so the
    result does not depend on the labeling.
    """
    return _code_from_adjacency(tree.n, tree.adjacency)


def is_isomorphic(a: Tree, b: Tree) -> bool:
    """Whether the two trees are isomorphic (equal canonical codes)."""
    return a.n == b.n and canonical_code(a) == canonical_code(b)


def relabel(tree: Tree, perm: Sequence[int]) -> Tree:
    """Apply a vertex permutation: vertex v becomes perm[v]."""
    try:
        ok = sorted(_vertex(w, tree.n) for w in perm) == list(range(tree.n))
    except InvalidVertex:
        ok = False
    if not ok:
        raise InvalidVertex("perm is not a permutation of 0..n-1")
    return tree_from_edges(tree.n, [(perm[u], perm[v]) for u, v in tree.edges])


def _parse_uint(token: str, what: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"expected a nonnegative decimal {what}, got {token!r}")
    try:
        return int(token)
    except ValueError as exc:  # longer than the interpreter's int-digit limit
        raise ParseError(f"{what} of {len(token)} digits is too large") from exc


def _edge_ends(text: str) -> tuple[int, list[int]]:
    """The vertex count n and the flat edge ends [u0, v0, u1, v1, ...] of an
    edge list, checked for syntax and for n - 1 edge lines only.

    Canonical text (digits, one space inside each edge line, a newline
    after every line) converts about 64 KiB at a time, cut at newlines,
    so only a few thousand token strings are alive at once.  Any other
    text, and canonical text with a token past the int-digit limit, n < 1
    or the wrong edge count, goes through the line loop, which raises the
    ParseError that the text deserves.
    """
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
        ends.append(_parse_uint(tokens[0], "vertex"))
        ends.append(_parse_uint(tokens[1], "vertex"))
    for extra in lines[n:]:
        if extra.strip():
            raise ParseError(f"trailing garbage after the edge list: {extra!r}")
    return n, ends


def parse_edge_list(text: str) -> Tree:
    """Parse the edge-list format: first line n, then n-1 lines "u v".

    Anything after the last edge line other than blank lines is rejected.
    Syntax problems raise ParseError; structural problems raise NotATree.
    """
    n, ends = _edge_ends(text)
    pairs = iter(ends)
    return tree_from_edges(n, zip(pairs, pairs))


def parse_degree_sequence(text: str) -> tuple[int, ...]:
    """Parse comma-separated positive integers on one line and validate.

    Plain text (ASCII digits and single commas, nothing else) converts
    with one ``map(int, ...)``.  Any other text, and plain text with an
    entry past the int-digit limit, goes through the token loop, which
    gives every syntax error its message.  Raises ParseError on syntax
    problems and NotRealizable when the parsed sequence is not a tree
    degree sequence.
    """
    if re.fullmatch(r"[0-9]+(?:,[0-9]+)*", text):
        try:
            degrees = list(map(int, text.split(",")))
        except ValueError:  # an entry longer than the interpreter's int-digit limit
            pass
        else:
            return validate_degree_sequence(degrees)
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty degree sequence input")
    if len(lines) > 1:
        raise ParseError(f"degree sequence must sit on one line, got {len(lines)}")
    degrees = [_parse_uint(tok.strip(), "degree") for tok in lines[0].split(",")]
    return validate_degree_sequence(degrees)


def format_edge_list(tree: Tree) -> str:
    """Render a tree in the edge-list format accepted by parse_edge_list."""
    out = [str(tree.n)]
    out.extend(f"{u} {v}" for u, v in tree.edges)
    return "\n".join(out) + "\n"

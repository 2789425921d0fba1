"""Tree representation, validation, rooting, paths and isomorphism.

Vertices are dense integers 0..n-1.  Every value is immutable after
construction; operations return new objects and never mutate their inputs,
so values can be shared freely between threads or processes.

One breadth-first primitive, ``_bfs``, walks a ``Tree`` from a root the
caller picks (the connectivity check, ``path_between``, the subtree DP,
the BFS-ordering check, the move scores) into flat ``parent`` and
``order`` lists, the root its own parent; ``_peel_leaves`` gives them
from flat edge ends, rooted at a center.  ``_branch_labels`` gives the
branches of any such rooting integer labels, which the canonical code
(at the peel's end, or between two centers) and the BFS-ordering check
compare.  ``_int`` checks every integer that a public function takes
(``_ints`` a whole sequence, ``_vertex`` a vertex id), and ``_tree``
every tree.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import operator
import re
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from decimal import DivisionByZero, Inexact, InvalidOperation, Overflow, Rounded
from typing import Any, Iterable, Iterator, Sequence

from .errors import InvalidVertex, NotATree, NotRealizable, ParseError, SubtreeError

__all__ = [
    "Tree",
    "tree_from_edges",
    "validate_degree_sequence",
    "degree_sequence_of",
    "path_between",
    "canonical_code",
    "is_isomorphic",
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


def _int(w: Any, error: type[SubtreeError], what: str) -> int:
    """w as an int, else ``error`` naming ``what``.  Any integer type passes
    (``operator.index``), bools too; a float or a string does not."""
    try:
        return operator.index(w)
    except TypeError:
        raise error(f"{what} {w!r} is not an integer") from None


def _iter(values: Any, error: type[SubtreeError]) -> Iterator[Any]:
    """iter(values), else ``error``: a sequence argument that is not iterable."""
    try:
        return iter(values)
    except TypeError:
        raise error(f"expected a sequence, got {type(values).__name__}") from None


def _ints(values: Iterable[Any], error: type[SubtreeError], what: str) -> list[int]:
    """Every value as an int, in one ``map``; a failing input is scanned
    again by ``_int`` for the first value to name."""
    values = values if isinstance(values, Sequence) else list(_iter(values, error))
    try:
        return list(map(operator.index, values))
    except TypeError:
        for w in values:
            _int(w, error, what)
        raise


def _vertex(w: Any, n: int, what: str = "vertex") -> int:
    """w as an int, when it is an integer vertex id in 0..n-1, else InvalidVertex."""
    v = _int(w, InvalidVertex, what)
    if not 0 <= v < n:
        raise InvalidVertex(f"{what} {v} outside 0..{n - 1}")
    return v


def _tree(t: Any) -> Tree:
    """t, when it is a Tree, else NotATree: where a public function reads its tree."""
    if not isinstance(t, Tree):
        raise NotATree(f"expected a Tree, got {type(t).__name__}")
    return t


def tree_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Tree:
    """Build a validated Tree from an iterable of undirected edges.

    Raises NotATree when n is not a positive integer, or the edges are not
    iterable, or have an edge that is not a pair of integer ids, the wrong
    edge count, a self-loop, a duplicate edge, a vertex outside 0..n-1,
    or are disconnected.
    """
    n = _int(n, NotATree, "vertex count")
    if n < 1:
        raise NotATree(f"vertex count must be at least 1, got {n}")
    norm = []
    for e in _iter(edges, NotATree):
        try:
            u, v = e
            u, v = operator.index(u), operator.index(v)
        except (TypeError, ValueError):
            raise NotATree(f"edge {e!r} is not a pair of integer vertex ids") from None
        if not (0 <= u < n and 0 <= v < n):
            raise NotATree(f"edge ({u}, {v}) has a vertex outside 0..{n - 1}")
        if u == v:
            raise NotATree(f"self-loop at vertex {u}")
        norm.append((v, u) if u > v else (u, v))
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


# Integer arithmetic in decimal: any rounding would raise.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow],
)


def _decimal(x: int) -> str:
    """Exact decimal text of an integer of any size.

    ``str`` refuses ints above the interpreter's digit limit (4300 digits by
    default); such values are split by bits and joined again in exact
    decimals, as in CPython 3.12's ``_pylong``.  Parsing keeps the limit.
    """
    if x < 0:
        return "-" + _decimal(-x)
    with contextlib.suppress(ValueError):
        return str(x)

    def convert(x: int, j: int) -> Decimal:  # x < powers[j]^2 = 2^(2048 << j)
        if not x >> 1024:
            return Decimal(x)
        hi = x >> (1024 << j)
        return convert(x - (hi << (1024 << j)), j - 1) + convert(hi, j - 1) * powers[j]

    with localcontext(_EXACT):
        powers = [Decimal(2) ** 1024]
        while 1024 << len(powers) < x.bit_length():
            powers.append(powers[-1] * powers[-1])
        return str(convert(x, len(powers) - 1))


def validate_degree_sequence(degrees: Iterable[int]) -> tuple[int, ...]:
    """Sort a degree sequence nonincreasing and check tree realizability.

    A sequence of length n >= 2 is realizable exactly when every entry is
    positive and the total is 2(n-1).  The single-vertex tree is admitted
    as the sequence (0,).  Raises NotRealizable otherwise, also for a
    non-iterable or an entry that is not an integer; the result holds ints.
    """
    seq = _ints(degrees, NotRealizable, "degree")
    seq.sort(reverse=True)
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
    return tuple(sorted((len(a) for a in _tree(tree).adjacency), reverse=True))


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


def _peel_leaves(n: int, ends: list[int]) -> tuple[list[int], list[int]] | None:
    """``_bfs``'s lists for the tree with flat edge ends ``ends`` in 0..n-1
    (emptied once read), else None.  ``link[v]``, the XOR of v's unpeeled
    neighbours, is a leaf's parent.  n - 1 peels of a leaf prove a tree, and
    the vertex left is the root.  Leaves go by parent, so leaf siblings are one run."""
    deg, link = [0] * n, [0] * n
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        deg[u] += 1
        deg[v] += 1
        link[u] ^= v
        link[v] ^= u
    ends.clear()
    # Degree 0 only for n = 1, or for an isolated vertex of a non-tree.
    order = sorted((v for v, d in enumerate(deg) if d < 2), key=link.__getitem__)
    for v in itertools.islice(order, n - 1):
        if deg[v] != 1:
            return None
        p = link[v]
        link[p] ^= v
        deg[p] -= 1
        if deg[p] == 1:
            order.append(p)
    if len(order) != n:
        return None
    order.reverse()
    link[order[0]] = order[0]
    return link, order


def path_between(tree: Tree, u: int, v: int) -> tuple[int, ...]:
    """The unique u-v path, endpoints included; dist(u,v) = length - 1."""
    u, v = _vertex(u, _tree(tree).n), _vertex(v, tree.n)
    parent, _ = _bfs(tree.adjacency, v)
    path = [u]
    while path[-1] != v:
        path.append(parent[path[-1]])
    return tuple(path)


def _heights(parent: Sequence[int], order: Sequence[int]) -> list[int]:
    """Every vertex's height, for any parents-first order, the root its own parent."""
    height = [0] * len(parent)
    for v in itertools.islice(reversed(order), len(order) - 1):  # all but the root
        p = parent[v]
        if height[p] <= height[v]:
            height[p] = height[v] + 1
    return height


def _branch_labels(
    parent: Sequence[int], order: Sequence[int]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """An integer label for every vertex's branch, and the keys in label order.

    ``order`` is any parents-first order, the root its own parent.  A
    vertex's key is the sorted tuple of its children's labels (Aho,
    Hopcroft and Ullman's tree isomorphism).  Labels go out by height, and
    by sorted key within one height, so they are intrinsic: two rooted trees
    are isomorphic exactly when their key lists are equal, and equal labels
    then mark isomorphic branches.  Memory is O(n).
    """
    height = _heights(parent, order)
    kids: list[list[int]] = [[] for _ in parent]
    label = [0] * len(parent)
    keys: list[tuple[int, ...]] = []
    for _, layer in itertools.groupby(sorted(order, key=height.__getitem__), height.__getitem__):
        # Labels reach the parents in increasing order, so each kids list is
        # its sorted key, and the layer is labelled in key order.
        last = None
        for v in sorted(layer, key=kids.__getitem__):
            if kids[v] != last:
                last = kids[v]
                keys.append(tuple(last))
            label[v] = len(keys) - 1
            kids[parent[v]].append(label[v])
    return label, keys


def canonical_code(tree: Tree) -> bytes:
    """A byte string equal for two trees exactly when they are isomorphic.

    The leaf peel roots the tree at its center c, or, when a child t of c
    is strictly taller than all others, at a new vertex n splitting the
    edge c-t between the two centers.  The code is n with the keys of that
    rooting's ``_branch_labels`` (n tells P4 split so from P5, same shape).
    """
    parent, order = _peel_leaves(_tree(tree).n, list(itertools.chain.from_iterable(tree.edges)))
    c, height = order[0], _heights(parent, order)
    tall = [v for v, p in enumerate(parent) if p == c and height[v] == height[c] - 1]
    if len(tall) == 1:  # tall[0] is the second center
        parent[c] = parent[tall[0]] = tree.n
        parent, order = parent + [tree.n], [tree.n, *order]
    return repr((tree.n, _branch_labels(parent, order)[1])).encode()


def is_isomorphic(a: Tree, b: Tree) -> bool:
    """Whether the two trees are isomorphic (equal canonical codes)."""
    return _tree(a).n == _tree(b).n and canonical_code(a) == canonical_code(b)


def _text(text: Any) -> str:
    """text, when it is a str, else ParseError: the parsers read only text."""
    if not isinstance(text, str):
        raise ParseError(f"expected text, got {type(text).__name__}")
    return text


def _parse_uint(token: str, what: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"expected a nonnegative decimal {what}, got {token!r}")
    try:
        return int(token)
    except ValueError as exc:  # longer than the interpreter's int-digit limit
        raise ParseError(f"{what} of {len(token)} digits is too large") from exc


_COMMAS = str.maketrans(" \n", ",,")


def _edge_ends(text: str) -> tuple[int, list[int]]:
    """The vertex count n and the flat edge ends [u0, v0, u1, v1, ...] of an
    edge list, checked for syntax and for n - 1 edge lines only.

    Canonical text (digits, one space inside each edge line, a newline
    after every line) becomes one JSON array: one ``str.translate`` turns
    the spaces and newlines of the body into commas, and ``json.loads``
    reads all its ints in C.  Any other text, and canonical text with a
    leading zero (which JSON refuses), a token past the int-digit limit,
    n < 1 or the wrong edge count, goes through the line loop, which
    accepts it or raises the ParseError that the text deserves.
    """
    if re.fullmatch(r"[0-9]+\n(?:[0-9]+ [0-9]+\n)*", _text(text)):
        start = text.index("\n") + 1
        try:
            n = int(text[:start])
            ends = json.loads(f"[{text[start:-1].translate(_COMMAS)}]")
        except ValueError:  # a leading zero, or a token past the int-digit limit
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
    Syntax problems and a value that is not a str raise ParseError;
    structural problems raise NotATree.
    """
    n, ends = _edge_ends(text)
    pairs = iter(ends)
    return tree_from_edges(n, zip(pairs, pairs))


def parse_degree_sequence(text: str) -> tuple[int, ...]:
    """Parse comma-separated positive integers on one line and validate.

    Plain text (ASCII digits and single commas, nothing else) is read as
    one JSON array, in C.  Any other text, and plain text with a leading
    zero (which JSON refuses) or an entry past the int-digit limit, goes
    through the token loop, which accepts it or gives the syntax error its
    message.  Raises ParseError on syntax problems or a value that is not a
    str, and NotRealizable when the parsed sequence is not a tree degree
    sequence.
    """
    if re.fullmatch(r"[0-9]+(?:,[0-9]+)*", _text(text)):
        try:
            degrees = json.loads(f"[{text}]")
        except ValueError:  # a leading zero, or an entry past the int-digit limit
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
    """Render a tree in the edge-list format that ``parse_edge_list`` and the
    ``count`` command read, so that ``parse_edge_list`` inverts it."""
    out = [str(_tree(tree).n)]
    out.extend(f"{u} {v}" for u, v in tree.edges)
    return "\n".join(out) + "\n"

"""Tree construction, validation, parsing, rooting and isomorphism."""

from __future__ import annotations

import contextlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from helpers import (
    int_digit_limit,
    path,
    random_recursive_tree,
    random_trees,
    reference_centers,
    reference_code,
    reference_decimal,
    reference_edge_ends,
    reference_line_ends,
    reference_map_degree_sequence,
    reference_parse_degree_sequence,
    seeded_tree,
    spider,
    star,
)
from subtrees import errors, trees
from subtrees.counting import count_containing_all
from subtrees.errors import (
    InfeasibleConstraint,
    InvalidVertex,
    NotATree,
    NotComparable,
    NotRealizable,
    ParseError,
    SubtreeError,
)
from subtrees.extremal import build_greedy_bfs, has_bfs_ordering, swap_components
from subtrees.formulas import (
    bound_path_star,
    leaves_extremal,
    matching_extremal,
    max_degree_extremal,
)
from subtrees.majorization import majorizes
from subtrees.oracle import (
    _edges_from_prufer,
    enumerate_trees,
    labeled_tree_count,
    prufer_sequences,
    realizable_sequences,
    tree_from_prufer,
)
from subtrees.trees import (
    _decimal,
    _edge_ends,
    _peel_leaves,
    canonical_code,
    degree_sequence_of,
    format_edge_list,
    is_isomorphic,
    parse_degree_sequence,
    parse_edge_list,
    path_between,
    tree_from_edges,
    validate_degree_sequence,
)


def test_tree_from_edges_normalizes():
    t = tree_from_edges(4, [(2, 0), (3, 2), (1, 0)])
    assert t.edges == ((0, 1), (0, 2), (2, 3))
    assert t.adjacency == ((1, 2), (0,), (0, 3), (2,))
    assert t.degree(0) == 2 and t.degree(3) == 1


def test_tree_from_edges_single_vertex():
    t = tree_from_edges(1, [])
    assert t.n == 1 and t.edges == () and t.adjacency == ((),)


@pytest.mark.parametrize(
    "n, edges",
    [
        (3, [(0, 1)]),  # too few edges
        (3, [(0, 1), (1, 2), (0, 2)]),  # too many
        (3, [(0, 1), (1, 1)]),  # self-loop
        (3, [(0, 1), (1, 0)]),  # duplicate (reversed)
        (3, [(0, 1), (1, 3)]),  # out of range
        (4, [(0, 1), (1, 0), (2, 3)]),  # duplicate + disconnected
        (0, []),
    ],
)
def test_tree_from_edges_rejects(n, edges):
    with pytest.raises(NotATree):
        tree_from_edges(n, edges)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (0, [(0, 0)], "vertex count must be at least 1, got 0"),
        (3, [(0, 1), (1, 1), (0, 5)], "self-loop at vertex 1"),
        (3, [(0, 5), (1, 1)], r"edge \(0, 5\) has a vertex outside 0..2"),
        (3, [(0, 1), (0, 1), (1, 2)], "a tree on 3 vertices needs 2 edges, got 3"),
        (4, [(0, 1), (1, 0), (2, 3)], "duplicate edge"),
        (4, [(0, 1), (1, 2), (2, 0)], "edge set is not connected"),
    ],
)
def test_tree_from_edges_messages_in_precedence(n, edges, message):
    # Checks run in this order: vertex count, then each edge's range and
    # self-loop in input order, edge count, duplicates, connectivity.
    with pytest.raises(NotATree, match=f"^{message}$"):
        tree_from_edges(n, edges)


@given(random_trees(max_n=40), st.randoms(use_true_random=False))
def test_tree_from_edges_ignores_edge_order_and_direction(t, rng):
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges]
    rng.shuffle(edges)
    assert tree_from_edges(t.n, edges) == t
    assert tree_from_edges(t.n, [list(e) for e in edges]) == t
    assert tree_from_edges(t.n, sorted(t.edges)) == t


def test_disconnected_even_with_right_count():
    # 4 vertices, 3 edges, but one edge repeated leaves 2-3 unreachable.
    with pytest.raises(NotATree):
        tree_from_edges(4, [(0, 1), (0, 1), (2, 3)])


def test_validate_degree_sequence():
    assert validate_degree_sequence([1, 2, 2, 1]) == (2, 2, 1, 1)
    assert validate_degree_sequence((0,)) == (0,)
    with pytest.raises(NotRealizable):
        validate_degree_sequence([])
    with pytest.raises(NotRealizable):
        validate_degree_sequence([1])
    with pytest.raises(NotRealizable):
        validate_degree_sequence([2, 1, 1, 0])
    with pytest.raises(NotRealizable):
        validate_degree_sequence([3, 3, 1, 1])  # sum 8 != 6
    # The messages quote these values, which pass the int-digit limit.
    huge = 10**5000
    for bad in ([huge], [huge, 1], [-huge, 1]):
        with pytest.raises(NotRealizable):
            validate_degree_sequence(bad)
    assert _decimal(-huge) == "-1" + "0" * 5000


def decimal_cases() -> list[int]:
    """0, +-1, 10^k and 10^k - 1 around the base case of the split (1024
    bits, 309 digits), the least int-digit limit (640) and the default
    (4300), powers of 2 around the split's widths, and random ints of up
    to 10^5 digits."""
    digits = (*range(300, 320), *range(630, 650), *range(4290, 4310))
    tens = [10**k - d for k in digits for d in (0, 1)]
    twos = [2**w + d for j in range(2, 9) for w in (1024 << j, (1024 << j) + 1) for d in (-1, 0, 1)]
    rng = random.Random(18)
    drawn = [rng.getrandbits(rng.randint(1, 332193)) for _ in range(12)]
    values = [0, 1, *tens, *twos, *drawn, (1 << 332193) - 1]
    return values + [-x for x in values]


@pytest.mark.parametrize("limit", [None, 640])
def test_decimal_matches_reference(limit):
    with int_digit_limit(limit) if limit else contextlib.nullcontext():
        for x in decimal_cases():
            assert _decimal(x) == reference_decimal(x), x.bit_length()


def test_decimal_is_subquadratic():
    # 2^(10^6) - 1 has 301,030 digits.  The first split by powers of ten,
    # quadratic in the digits, took 0.95-1.02 s to convert it, and the split
    # by bits 0.09-0.11 s (Python 3.11.7, 2-CPU x86-64 VM).  The subprocess
    # timeout keeps a slower regression from hanging the suite.
    script = (
        "import time\n"
        "from subtrees.trees import _decimal\n"
        "x = (1 << 10**6) - 1\n"
        "start = time.perf_counter()\n"
        "text = _decimal(x)\n"
        "print(time.perf_counter() - start, len(text), text[-20:] == f'{x % 10**20:020}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=5)
    seconds, digits, tail = proc.stdout.split()
    assert (digits, tail) == ("301030", "True")
    assert float(seconds) < 0.5


def test_degree_sequence_of():
    assert degree_sequence_of(star(5)) == (4, 1, 1, 1, 1)
    assert degree_sequence_of(path(4)) == (2, 2, 1, 1)
    assert degree_sequence_of(tree_from_edges(1, [])) == (0,)


def test_path_between():
    p = path(6)
    assert path_between(p, 0, 5) == (0, 1, 2, 3, 4, 5)
    assert path_between(p, 4, 1) == (4, 3, 2, 1)
    assert path_between(p, 3, 3) == (3,)
    with pytest.raises(InvalidVertex):
        path_between(p, 0, 6)


P3, P4 = path(3), path(4)


def in_subprocess(expression: str) -> None:
    """Evaluate an expression over the package's names in a new interpreter,
    killed after 5 s, and raise here the SubtreeError it raised there."""
    script = (
        "import subtrees\n"
        "try:\n"
        f"    eval({expression!r}, vars(subtrees))\n"
        "except subtrees.SubtreeError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=5)
    name, _, message = proc.stdout.rstrip("\n").partition(" ")
    raise getattr(errors, name, AssertionError)(message or proc.stderr)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: tree_from_edges(2, [(0.0, 1)]), NotATree, "edge (0.0, 1) is not a pair"),
        (lambda: tree_from_edges(2, [("0", 1)]), NotATree, "edge ('0', 1) is not a pair"),
        (lambda: tree_from_edges(3, [(0, 1, 2), (1, 2)]), NotATree, "edge (0, 1, 2) is not"),
        (lambda: tree_from_edges(2, [0]), NotATree, "edge 0 is not a pair"),
        (lambda: path_between(P3, 0, 2.0), InvalidVertex, "vertex 2.0 is not an integer"),
        (lambda: count_containing_all(P3, [0, 1.0]), InvalidVertex, "vertex 1.0 is not"),
        (lambda: tree_from_prufer([1.0], 3), InvalidVertex, "code entry 1.0 is not"),
        (lambda: tree_from_prufer([3], 3), InvalidVertex, "code entry 3 outside 0..2"),
        (lambda: swap_components(P4, 1, 2, (0.0,), ()), InvalidVertex, "vertex 0.0 is not"),
        (lambda: swap_components(P4, 1, 2.0, (0,), ()), InvalidVertex, "vertex 2.0 is not"),
        (lambda: has_bfs_ordering(P3, 1.0), InvalidVertex, "root 1.0 is not an integer"),
        (lambda: has_bfs_ordering(P3, 3), InvalidVertex, "root 3 outside 0..2"),
        (lambda: has_bfs_ordering(P3, "1"), InvalidVertex, "root '1' is not an integer"),
        (lambda: has_bfs_ordering(P3, -1), InvalidVertex, "root -1 outside 0..2"),
        (lambda: labeled_tree_count([2.0, 1.0, 1.0]), NotRealizable, "degree 2.0 is not an"),
        (lambda: build_greedy_bfs(["1", "1"]), NotRealizable, "degree '1' is not an integer"),
        (lambda: list(prufer_sequences([2.0, 1.0, 1.0])), NotRealizable, "degree 2.0 is not"),
        (lambda: list(enumerate_trees([2.0, 1.0, 1.0])), NotRealizable, "degree 2.0 is"),
        (lambda: tree_from_edges(2.0, [(0, 1)]), NotATree, "vertex count 2.0 is not an integer"),
        (lambda: tree_from_prufer([0], 3.0), NotRealizable, "vertex count 3.0 is not an integer"),
        (lambda: realizable_sequences(2.5), NotRealizable, "vertex count 2.5 is not an integer"),
        (lambda: max_degree_extremal(5, 2.5), InfeasibleConstraint, "delta 2.5 is not an integer"),
        (lambda: leaves_extremal(7.0, 3), InfeasibleConstraint, "n 7.0 is not an integer"),
        (lambda: bound_path_star(3.5), InfeasibleConstraint, "n 3.5 is not an integer"),
        (
            lambda: majorizes([2.5, 1.5, 1, 1], [3, 1, 1, 1]),
            NotComparable,
            "sequence entry 2.5 is not an integer",
        ),
        (
            # It walked without end before the check; a regression fails
            # on the subprocess timeout instead of hanging the suite.
            lambda: in_subprocess("majorization_chain([2.5, 1.5, 1, 1], [3, 1, 1, 1])"),
            NotComparable,
            "sequence entry 2.5 is not",
        ),
    ],
)
def test_vertex_ids_are_checked(call, error, message):
    # Every public function that takes a vertex id, a degree, a vertex
    # count, a sequence entry or a class parameter raises a SubtreeError
    # for a non-integer or out-of-range one, never a builtin exception.
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: validate_degree_sequence(5), NotRealizable, "expected a sequence, got int"),
        (lambda: majorizes(5, (1, 1)), NotComparable, "expected a sequence, got int"),
        (lambda: count_containing_all(P3, 5), InvalidVertex, "expected a sequence, got int"),
        (lambda: swap_components(P4, 0, 2, 5, ()), InvalidVertex, "expected a sequence, got int"),
        (lambda: tree_from_edges(2, 5), NotATree, "expected a sequence, got int"),
        (
            lambda: tree_from_prufer(iter([0]), 3),
            NotRealizable,
            "expected a sequence, got list_iterator",
        ),
    ],
)
def test_non_iterable_sequence_arguments_are_checked(call, error, message):
    # A value that is not a sequence, where one is wanted, raises the
    # SubtreeError its function documents, not a TypeError.
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_integer_types_pass_as_vertex_ids():
    class Id:
        def __init__(self, v: int) -> None:
            self.v = v

        def __index__(self) -> int:
            return self.v

    assert tree_from_edges(3, [(Id(1), Id(0)), (True, 2)]) == P3
    assert path_between(P3, Id(0), True) == (0, 1)
    assert has_bfs_ordering(P3, Id(1)) == has_bfs_ordering(P3, 1) == (True, (1, 2, 0))
    # Degrees, and the sequences built from class parameters, are plain ints.
    pi = validate_degree_sequence([Id(1), Id(2), True])
    assert pi == (2, 1, 1) and all(type(d) is int for d in pi)
    assert build_greedy_bfs([Id(2), 1, 1]) == build_greedy_bfs((2, 1, 1))
    answer = leaves_extremal(Id(7), Id(3))
    assert answer.phi == 36
    assert all(type(d) is int for d in answer.extremal_pi)
    assert all(type(d) is int for d in matching_extremal(5, True).extremal_pi)


def test_isomorphism_distinguishes_same_degree_sequence():
    # Both spiders realize (3,2,2,1,1,1) but have different shapes.
    a = spider(1, 2, 2)
    b = spider(1, 1, 3)
    assert degree_sequence_of(a) == degree_sequence_of(b)
    assert not is_isomorphic(a, b)
    assert canonical_code(a) != canonical_code(b)


def test_isomorphism_ignores_labels():
    t1 = tree_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    t2 = tree_from_edges(4, [(3, 2), (2, 0), (0, 1)])
    assert is_isomorphic(t1, t2)
    assert not is_isomorphic(t1, star(4))


def test_canonical_code_bicentral():
    # P4 has two centers; the code must still be well defined and stable.
    assert canonical_code(path(4)) == canonical_code(
        tree_from_edges(4, [(1, 3), (3, 0), (0, 2)])
    )


def test_canonical_code_labels_one_rooting(monkeypatch):
    # One labelling, at the center or on the central edge: no second
    # rooting through ``_bfs``, and no read of the adjacency lists.
    shapes = [
        path(4),
        path(5),
        star(6),
        build_greedy_bfs((4, 3, 3, 2, 1, 1, 1, 1, 1, 1))[0],
        random_recursive_tree(random.Random(1), 1000),
    ]
    calls: list[str] = []
    for name in ("_branch_labels", "_bfs"):
        spied = getattr(trees, name)
        monkeypatch.setattr(trees, name, lambda *a, f=spied, s=name: calls.append(s) or f(*a))
    codes = set()
    for t in shapes:
        calls.clear()
        codes.add(canonical_code(trees.Tree(t.n, t.edges, adjacency=None)))
        assert calls == ["_branch_labels"]
    # P4 subdivided on its central edge has the shape of P5 rooted at its center.
    assert len(codes) == len(shapes)


def assert_same_classes(pairs) -> None:
    """Canonical codes and reference codes, one (code, reference) pair per
    tree, induce the same partition: each determines the other."""
    ours: dict[bytes, bytes] = {}
    theirs: dict[bytes, bytes] = {}
    for code, ref in pairs:
        assert ours.setdefault(code, ref) == ref
        assert theirs.setdefault(ref, code) == code


def test_canonical_code_matches_reference_on_every_small_tree():
    # Every labeled tree of every degree sequence up to n = 9.  The leaf
    # peel, where the code roots, ends at the centers.
    def pairs():
        for n in range(2, 10):
            for pi in realizable_sequences(n):
                for code in prufer_sequences(pi):
                    edges = _edges_from_prufer(code, n)
                    adj: list[list[int]] = [[] for _ in range(n)]
                    for u, v in edges:
                        adj[u].append(v)
                        adj[v].append(u)
                    centers = reference_centers(n, adj)
                    order = _peel_leaves(n, [x for e in edges for x in e])[1]
                    assert sorted(order[: len(centers)]) == list(centers)
                    yield canonical_code(tree_from_edges(n, edges)), reference_code(n, adj)

    assert_same_classes(pairs())


@given(random_trees(max_n=40), random_trees(max_n=40), st.randoms(use_true_random=False))
def test_canonical_code_matches_reference_on_random_trees(a, b, rng):
    # Against an unrelated tree, a relabelled copy and a copy with one
    # leaf moved, so that equal and unequal codes both occur.
    perm = list(range(a.n))
    rng.shuffle(perm)
    edges = list(a.edges)
    if a.n > 2:
        leaf = rng.choice([v for v in range(a.n) if a.degree(v) == 1])
        edges.remove(tuple(sorted((leaf, a.adjacency[leaf][0]))))
        edges.append((leaf, rng.choice([v for v in range(a.n) if v != leaf])))
    relabelled = tree_from_edges(a.n, [(perm[u], perm[v]) for u, v in a.edges])
    trees = [a, b, relabelled, tree_from_edges(a.n, edges)]
    assert_same_classes((canonical_code(t), reference_code(t.n, t.adjacency)) for t in trees)


@given(
    random_trees(max_n=10)
    | st.builds(random_recursive_tree, st.randoms(use_true_random=False), st.integers(1, 1000)),
    st.randoms(use_true_random=False),
)
def test_relabel_preserves_isomorphism(t, rng):
    perm = list(range(t.n))
    rng.shuffle(perm)
    assert is_isomorphic(t, tree_from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges]))


def test_parse_edge_list_roundtrip():
    t = spider(1, 2, 2)
    assert parse_edge_list(format_edge_list(t)) == t


def test_parse_edge_list_single_vertex():
    assert parse_edge_list("1\n").n == 1


def test_parse_edge_list_allows_trailing_blank_lines():
    assert parse_edge_list("2\n0 1\n\n  \n").n == 2


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\n0 1\n",
        "2 7\n0 1\n",
        "3\n0 1\n",  # missing an edge line
        "2\n0 1 2\n",
        "2\n0 -1\n",
        "2\n0 1\n1 0\n",  # trailing garbage
        "0\n",
    ],
)
def test_parse_edge_list_rejects(text):
    with pytest.raises(ParseError):
        parse_edge_list(text)


@pytest.mark.parametrize("token", ["\u00b2", "\u0663", "\uff15"])
def test_parse_edge_list_rejects_non_ascii_digits(token):
    # str.isdigit accepts superscript two, Arabic-Indic three and fullwidth five.
    with pytest.raises(ParseError, match="expected a nonnegative decimal"):
        parse_edge_list(f"3\n0 1\n1 {token}\n")
    with pytest.raises(ParseError, match="expected a nonnegative decimal vertex count"):
        parse_edge_list(f"{token}\n")


@pytest.mark.parametrize("parse", [parse_edge_list, parse_degree_sequence])
@pytest.mark.parametrize("value", [0, b"3,1", b"2\n0 1\n", None, ["3", "1"]])
def test_parsers_refuse_values_that_are_not_text(parse, value):
    with pytest.raises(ParseError, match=f"^expected text, got {type(value).__name__}$"):
        parse(value)


def test_parse_edge_list_structural_errors_are_not_parse_errors():
    with pytest.raises(NotATree):
        parse_edge_list("3\n0 1\n0 1\n")


def test_edge_ends_canonical_route_matches_the_line_loop(monkeypatch):
    # About 330 KB, read by one ``json.loads``.
    t = seeded_tree(4, 30000)
    text = format_edge_list(t)
    ends = [x for e in t.edges for x in e]
    assert _edge_ends(text.replace("\n", "\r\n")) == (t.n, ends)  # the line loop
    monkeypatch.setattr(trees, "_parse_uint", None)  # canonical text skips the loop
    assert _edge_ends(text) == (t.n, ends)


def parse_outcome(parse, text: str) -> object:
    """The parsed value, or the class and message of the error raised."""
    try:
        return parse(text)
    except SubtreeError as exc:
        return type(exc), str(exc)


HUGE_DEGREE = "9" * 5000  # past the int-digit limit
EDGE_TEXTS = [
    "1\n",
    "2\n0 1\n",
    "3\n007 1\n1 2\n",  # JSON refuses a leading zero; the line loop reads 7
    "03\n0 1\n1 2\n",
    "3\n00 1\n1 2\n",
    f"3\n0 1\n1 {HUGE_DEGREE}\n",
    f"{HUGE_DEGREE}\n0 1\n",
    "3\n0 1\n",  # the wrong edge count
    "3\n0 1\n1 2\n2 0\n",
    "0\n",
    "3\r\n0 1\r\n1 2\r\n",
    "3\n0 1\n1 2\n\n",
    "3\n0 1\n1 2",
    # JSON would take these tokens, but the canonical regex refuses them.
    "3\n-1 1\n1 2\n",
    "3\n1e3 1\n1 2\n",
    "3\n1.0 1\n1 2\n",
    "3\n 1 1\n1 2\n",
    "3\n0,1\n1 2\n",
    "[3]\n0 1\n1 2\n",
    # Holes for a guard that counts spaces and newlines but not their lines,
    # or does not ask for a newline at the end.
    "2\n0\n1 ",
    "3\n0 1 2\n1\n",
    "2\n 0 1\n",
    "2\n0  1\n",
    "999999999999999999\n0 1\n",
    "1\n5",
]


@st.composite
def edge_texts(draw) -> str:
    """Edge lists of up to 60 vertices, canonical or one edit away: any
    edge count, leading zeros, CRLF, a second space, a blank or missing
    last line, or the first token of an edge line moved to the end of the
    edge line before, which keeps the count of every character and token
    of a canonical text."""
    n = draw(st.integers(0, 60))
    edit = draw(st.sampled_from(["", "", "crlf", "space", "blank", "cut", "move"]))
    count = max(n - 1, 0)
    if edit != "move":
        count = draw(st.sampled_from([count, n, max(n - 2, 0), n + 1]))
    zeros = draw(st.booleans()) and draw(st.booleans())
    token = st.integers(0, 70).map(str)
    if zeros:
        token = st.tuples(st.sampled_from(["", "0", "00"]), token).map("".join)
    lines = [str(n)] + [f"{draw(token)} {draw(token)}" for _ in range(count)]
    if edit == "move" and count >= 2:
        i = draw(st.integers(2, count))
        first, rest = lines[i].split(" ")
        lines[i - 1 : i + 1] = [f"{lines[i - 1]} {first}", rest]
    text = "\n".join(lines) + "\n"
    if edit == "crlf":
        text = text.replace("\n", "\r\n")
    elif edit == "space":
        text = text.replace(" ", "  ", 1)
    elif edit == "blank":
        text += "\n"
    elif edit == "cut":
        text = text[:-1]
    return text


def assert_edge_routes_agree(text: str) -> None:
    got = parse_outcome(_edge_ends, text)
    assert got == parse_outcome(reference_edge_ends, text), text[:40]
    assert got == parse_outcome(reference_line_ends, text), text[:40]


@pytest.mark.parametrize("text", EDGE_TEXTS, ids=range(len(EDGE_TEXTS)))
def test_edge_ends_match_the_map_route_and_the_line_loop(text):
    assert_edge_routes_agree(text)


@given(edge_texts())
def test_edge_ends_match_the_map_route_and_the_line_loop_on_drawn_texts(text):
    assert_edge_routes_agree(text)


def random_degree_text(seed: int, n: int) -> str:
    """The degrees of a uniform random labeled tree, comma-separated."""
    rng = random.Random(seed)
    degrees = [1] * n
    for _ in range(n - 2):
        degrees[rng.randrange(n)] += 1
    return ",".join(map(str, sorted(degrees, reverse=True)))


DEGREE_TEXTS = [
    # Plain text, for the bulk route.
    "3,2,2,1,1,1",
    "0",
    "1,1",
    "2,2",
    "3,3,1,1",
    "03,2,1,1,1",
    f"{HUGE_DEGREE},1",
    f"1,{'1' * 4300}",
    ",".join(["9" * 4299] * 11),
    random_degree_text(1, 10**5),
    # Anything else, for the token loop.
    " 3, 2,2 ,1,1,1",
    "3,2,2,1,1,1 ",
    "+3,1,1,1",
    "3_1",
    "2,1_1",
    "\u0663,1,1,1",
    "3,1,1,1,",
    ",3,1,1,1",
    "3,,1,1,1",
    "",
    "\n3,2,2,1,1,1\n\n",
    "3,2,2,1,1,1\r\n",
    "2,1\n1,2\n",
    "-1",
    "1,-1",
    "x",
    "2.0,1,1",
    # Appended: a leading zero, and JSON numbers that the plain-text regex refuses.
    "03,1,1,1",
    "1e3",
    "1.0",
    " 1",
    "2,1E0",
    # Appended: a newline and a space, which the digits-and-commas guard
    # refuses; JSON would read the last as 1,1, where it spans two lines.
    "1,2\n",
    "1, 2",
    "1\n,1",
]


@pytest.mark.parametrize("text", DEGREE_TEXTS, ids=range(len(DEGREE_TEXTS)))
def test_parse_degree_sequence_matches_the_token_loop(text):
    got = parse_outcome(parse_degree_sequence, text)
    assert got == parse_outcome(reference_parse_degree_sequence, text)


@pytest.mark.parametrize("text", DEGREE_TEXTS, ids=range(len(DEGREE_TEXTS)))
def test_parse_degree_sequence_matches_the_map_route(text):
    got = parse_outcome(parse_degree_sequence, text)
    assert got == parse_outcome(reference_map_degree_sequence, text)


def test_parse_degree_sequence_bulk_route(monkeypatch):
    text = random_degree_text(2, 10**5)
    want = reference_parse_degree_sequence(text)
    monkeypatch.setattr(trees, "_parse_uint", None)  # plain text skips the loop
    assert parse_degree_sequence(text) == want


def test_parse_degree_sequence():
    assert parse_degree_sequence("3, 2,2 ,1,1,1\n") == (3, 2, 2, 1, 1, 1)
    with pytest.raises(ParseError):
        parse_degree_sequence("")
    with pytest.raises(ParseError):
        parse_degree_sequence("2,1\n1,2\n")
    with pytest.raises(ParseError):
        parse_degree_sequence("2,x,1")
    with pytest.raises(NotRealizable):
        parse_degree_sequence("3,3,1,1")

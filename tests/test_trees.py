"""Tree construction, validation, parsing, rooting and isomorphism."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from helpers import (
    path,
    random_trees,
    reference_code,
    reference_parse_degree_sequence,
    seeded_tree,
    spider,
    star,
)
from subtrees import trees
from subtrees.errors import InvalidVertex, NotATree, NotRealizable, ParseError, SubtreeError
from subtrees.oracle import _edges_from_prufer, prufer_sequences, realizable_sequences
from subtrees.trees import (
    _code_from_adjacency,
    _decimal,
    _edge_ends,
    canonical_code,
    degree_sequence_of,
    format_edge_list,
    is_isomorphic,
    parse_degree_sequence,
    parse_edge_list,
    path_between,
    relabel,
    root_at,
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


def test_degree_sequence_of():
    assert degree_sequence_of(star(5)) == (4, 1, 1, 1, 1)
    assert degree_sequence_of(path(4)) == (2, 2, 1, 1)
    assert degree_sequence_of(tree_from_edges(1, [])) == (0,)


def test_root_at_children_ascending():
    t = tree_from_edges(5, [(0, 3), (0, 1), (1, 4), (1, 2)])
    view = root_at(t, 1)
    assert view.root == 1
    assert view.children[1] == (0, 2, 4)
    assert view.parent[0] == 1 and view.parent[3] == 0
    assert view.height == (1, 0, 1, 2, 1)
    assert view.order[0] == 1 and sorted(view.order) == list(range(5))
    with pytest.raises(InvalidVertex):
        root_at(t, 5)


@given(random_trees(max_n=30), st.data())
def test_root_at_structure(t, data):
    r = data.draw(st.integers(0, t.n - 1))
    view = root_at(t, r)
    assert view.parent[r] is None and view.height[r] == 0 and view.order[0] == r
    assert sorted(view.order) == list(range(t.n))
    pos = {v: i for i, v in enumerate(view.order)}
    start = 1
    for v in view.order:
        kids = view.children[v]
        assert kids == tuple(w for w in t.adjacency[v] if w != view.parent[v])
        assert view.order[start : start + len(kids)] == kids
        start += len(kids)
        for c in kids:
            assert view.parent[c] == v and view.height[c] == view.height[v] + 1
            assert pos[c] > pos[v]
    assert start == t.n


def test_path_between():
    p = path(6)
    assert path_between(p, 0, 5) == (0, 1, 2, 3, 4, 5)
    assert path_between(p, 4, 1) == (4, 3, 2, 1)
    assert path_between(p, 3, 3) == (3,)
    with pytest.raises(InvalidVertex):
        path_between(p, 0, 6)


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


def test_canonical_code_matches_reference_on_every_small_tree():
    # Every labeled tree of every degree sequence up to n = 9, both through
    # the raw adjacency the enumeration dedupes on and through a Tree.
    for n in range(2, 10):
        for pi in realizable_sequences(n):
            for code in prufer_sequences(pi):
                edges = _edges_from_prufer(code, n)
                adj: list[list[int]] = [[] for _ in range(n)]
                for u, v in edges:
                    adj[u].append(v)
                    adj[v].append(u)
                expected = reference_code(n, adj)
                assert _code_from_adjacency(n, adj) == expected
                assert canonical_code(tree_from_edges(n, edges)) == expected


@given(random_trees(max_n=40))
def test_canonical_code_matches_reference_on_random_trees(t):
    assert canonical_code(t) == reference_code(t.n, t.adjacency)


@given(random_trees(max_n=10), st.randoms(use_true_random=False))
def test_relabel_preserves_isomorphism(t, rng):
    perm = list(range(t.n))
    rng.shuffle(perm)
    assert is_isomorphic(t, relabel(t, perm))


def test_relabel_rejects_non_permutation():
    with pytest.raises(InvalidVertex):
        relabel(path(3), [0, 0, 2])


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


def test_parse_edge_list_structural_errors_are_not_parse_errors():
    with pytest.raises(NotATree):
        parse_edge_list("3\n0 1\n0 1\n")


def test_edge_ends_pieces_match_the_line_loop(monkeypatch):
    # About 330 KB: the canonical route converts it in several 64 KiB pieces.
    t = seeded_tree(4, 30000)
    text = format_edge_list(t)
    ends = [x for e in t.edges for x in e]
    assert _edge_ends(text.replace("\n", "\r\n")) == (t.n, ends)  # the line loop
    monkeypatch.setattr(trees, "_parse_uint", None)  # canonical text skips the loop
    assert _edge_ends(text) == (t.n, ends)


def parse_outcome(parse, text: str) -> object:
    """The parsed sequence, or the class and message of the error raised."""
    try:
        return parse(text)
    except SubtreeError as exc:
        return type(exc), str(exc)


def random_degree_text(seed: int, n: int) -> str:
    """The degrees of a uniform random labeled tree, comma-separated."""
    rng = random.Random(seed)
    degrees = [1] * n
    for _ in range(n - 2):
        degrees[rng.randrange(n)] += 1
    return ",".join(map(str, sorted(degrees, reverse=True)))


HUGE_DEGREE = "9" * 5000
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
]


@pytest.mark.parametrize("text", DEGREE_TEXTS, ids=range(len(DEGREE_TEXTS)))
def test_parse_degree_sequence_matches_the_token_loop(text):
    got = parse_outcome(parse_degree_sequence, text)
    assert got == parse_outcome(reference_parse_degree_sequence, text)


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

"""Subtree counting: rooted counts, totals, f-vectors, joint containment."""

from __future__ import annotations

import re
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    path,
    random_trees,
    reference_argmax,
    reference_root,
    reference_rerooted_counts,
    reference_rooted_counts,
    spider,
    star,
)
from subtrees.counting import (
    _argmax,
    _rooted_counts,
    count_containing_all,
    count_subtrees,
    f_vector,
)
from subtrees.errors import InvalidVertex
from subtrees.extremal import _branch_tables, build_greedy_bfs
from subtrees.oracle import enumerate_trees, realizable_sequences
from subtrees.trees import Tree, _bfs, tree_from_edges, validate_degree_sequence


def rooted_counts(t: Tree, root: int) -> list[int]:
    """The subtree counts rooted at each vertex, with t rooted at ``root``."""
    return _rooted_counts(*_bfs(t.adjacency, root))


def test_count_rooted_small():
    p3 = path(3)
    g = rooted_counts(p3, 1)
    assert g[1] == 4 and g[0] == 1 and g[2] == 1
    k13 = star(4)
    assert rooted_counts(k13, 0)[0] == 8  # (1+1)^3


@given(random_trees(max_n=10))
def test_count_rooted_leaves_are_one(t):
    g = rooted_counts(t, 0)
    for v in range(t.n):
        if v != 0 and t.degree(v) == 1:
            assert g[v] == 1


def test_count_subtrees_examples():
    assert count_subtrees(path(4)) == 10  # C(5,2)
    assert count_subtrees(star(4)) == 11  # 2^3 + 3
    assert count_subtrees(tree_from_edges(1, [])) == 1
    assert count_subtrees(spider(1, 2, 2)) == 25


@given(random_trees(max_n=10))
def test_count_subtrees_root_independent(t):
    counts = {sum(rooted_counts(t, r)) for r in range(t.n)}
    assert counts == {count_subtrees(t)}


def test_f_vector_examples():
    fv = f_vector(path(3))
    assert fv.values == (3, 4, 3) and fv.argmax == (1,)
    edge = f_vector(path(2))
    assert edge.values == (2, 2) and edge.argmax == (0, 1)
    k13 = f_vector(star(4))
    assert k13.values == (8, 5, 5, 5) and k13.argmax == (0,)


@given(random_trees(max_n=12))
def test_f_argmax_one_or_two_adjacent(t):
    fv = f_vector(t)
    assert len(fv.argmax) in (1, 2)
    if len(fv.argmax) == 2:
        u, v = fv.argmax
        assert v in t.adjacency[u]


@pytest.mark.parametrize(
    "values",
    [
        [7],
        [3, 9, 2, 8],
        [9, 1, 1, 9],
        [0, 5, 5],
        (4, 4),
        (1, 2, 3, 10**300),
        [Decimal(2) ** 700, Decimal(3), Decimal(2) ** 700 - 1],
        (Decimal(6), Decimal(1), Decimal(6)),
    ],
)
def test_argmax_matches_reference(values):
    # One maximizer or two, ints or exact decimals, in a list or a tuple.
    assert _argmax(values) == reference_argmax(values)


@given(random_trees(max_n=12))
def test_argmax_matches_reference_on_f(t):
    values = f_vector(t).values
    assert _argmax(values) == reference_argmax(values)
    assert _argmax([Decimal(x) for x in values]) == reference_argmax(values)


@settings(max_examples=40)
@given(random_trees(max_n=10))
def test_f_equals_single_vertex_containment(t):
    fv = f_vector(t)
    for v in range(t.n):
        assert fv.values[v] == count_containing_all(t, [v])


def test_count_containing_all_examples():
    assert count_containing_all(path(2), [0, 1]) == 1
    assert count_containing_all(star(4), [1, 2]) == 2  # third leaf optional
    assert count_containing_all(path(3), [0, 2]) == 1
    assert count_containing_all(path(4), [1, 2]) == 4
    # Duplicated vertices collapse.
    assert count_containing_all(path(4), [1, 1, 2]) == 4


def test_count_containing_all_errors():
    with pytest.raises(InvalidVertex, match=re.escape("need at least one vertex")):
        count_containing_all(path(3), [])
    with pytest.raises(InvalidVertex):
        count_containing_all(path(3), [0, 3])


@settings(max_examples=40)
@given(random_trees(min_n=2, max_n=9), st.data())
def test_count_containing_all_matches_enumeration(t, data):
    from subtrees.oracle import connected_subsets

    k = data.draw(st.integers(1, min(3, t.n)))
    targets = data.draw(
        st.lists(st.integers(0, t.n - 1), min_size=k, max_size=k, unique=True)
    )
    want = sum(1 for s in connected_subsets(t) if all(v in s for v in targets))
    assert count_containing_all(t, targets) == want


@given(random_trees(max_n=12))
def test_sandwich_bound(t):
    n = t.n
    phi = count_subtrees(t)
    low, high = n * (n + 1) // 2, 2 ** (n - 1) + n - 1
    assert low <= phi <= high
    degs = sorted((t.degree(v) for v in range(t.n)), reverse=True)
    if n >= 3:
        if phi == low:
            assert degs[0] == 2  # path
        if phi == high:
            assert degs[0] == n - 1  # star


@given(random_trees(max_n=10), st.integers(0, 10 ** 6))
def test_pendant_vertex_strictly_increases_count(t, pick):
    attach = pick % t.n
    bigger = tree_from_edges(t.n + 1, list(t.edges) + [(attach, t.n)])
    assert count_subtrees(bigger) > count_subtrees(t)


# Differential tests: the run-length DP against one product per child, and
# the dividing top-down pass against the prefix/suffix up-pass.
def assert_dp_matches_reference(t: Tree) -> None:
    """The rooted counts at every root, count_subtrees, f_vector and the branch
    tables equal the reference DP and the reference rerooting."""
    f = []
    for r in range(t.n):
        parent, _, _, order = reference_root(t, r)
        want = reference_rooted_counts(parent, order)
        assert rooted_counts(t, r) == want, r
        if r == 0:
            assert count_subtrees(t) == sum(want)
        f.append(want[r])
    parent, g, above = reference_rerooted_counts(t)
    assert f_vector(t).values == tuple(f) == tuple(g[v] * (1 + above[v]) for v in range(t.n))
    side = [[(w, g[w] if parent[w] == v else above[v]) for w in t.adjacency[v]] for v in range(t.n)]
    got_f, got_side = _branch_tables(t)
    assert got_f == f and [list(row.items()) for row in got_side] == side


def test_dp_matches_reference_on_every_small_class():
    for n in range(1, 10):
        for pi in realizable_sequences(n):
            for t in enumerate_trees(pi):
                assert_dp_matches_reference(t)


@settings(max_examples=60, deadline=None)
@given(random_trees(max_n=60))
def test_dp_matches_reference_property(t):
    assert_dp_matches_reference(t)


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_dp_matches_reference_on_greedy_trees(rng):
    # Greedy trees hold long runs of equal sibling branches; a relabelled
    # copy visits the same runs in another order.
    n = rng.randint(2, 300)
    code = [rng.randrange(n) for _ in range(n - 2)]
    pi = validate_degree_sequence([1 + code.count(v) for v in range(n)])
    greedy, _ = build_greedy_bfs(pi)
    perm = list(range(n))
    rng.shuffle(perm)
    assert_dp_matches_reference(greedy)
    assert_dp_matches_reference(tree_from_edges(n, [(perm[u], perm[v]) for u, v in greedy.edges]))


@pytest.mark.parametrize("n", [2, 3, 4, 7, 50])
def test_dp_matches_reference_on_paths(n):
    # Rooted at an end, each vertex's one child run is pending right
    # before the vertex itself is read, so a late flush shows here.
    assert_dp_matches_reference(path(n))
    middle = spider(n // 2, n - 1 - n // 2)  # vertex 0 sits in the middle
    assert_dp_matches_reference(middle)
    assert count_subtrees(middle) == n * (n + 1) // 2


"""Greedy BFS construction, BFS-orderings, exchange moves, local search."""

from __future__ import annotations

import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    f_within,
    path,
    random_recursive_tree,
    random_trees,
    reference_greedy_bfs,
    reference_has_bfs_ordering,
    reference_local_search,
    reference_moves,
    reference_root,
    reference_rooted_counts,
    satisfies_bfs_ordering,
    seeded_tree,
    spider,
    star,
)
from subtrees import counting, extremal, trees
from subtrees.counting import count_containing_all, count_subtrees, f_vector
from subtrees.errors import InvalidVertex, TooLarge
from subtrees.counting import _rooted_counts
from subtrees.extremal import (
    _greedy_parents,
    _greedy_phi,
    _move_branches,
    _root_row,
    _scored_moves,
    build_greedy_bfs,
    has_bfs_ordering,
    local_search_optimize,
    swap_components,
)
from subtrees.oracle import enumerate_trees, realizable_sequences
from subtrees.trees import (
    Tree,
    canonical_code,
    degree_sequence_of,
    is_isomorphic,
    path_between,
    tree_from_edges,
)


def branch(tree: Tree, start: int, avoid: int) -> frozenset[int]:
    """Vertices of the component of ``start`` once ``avoid`` is removed."""
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for nb in tree.adjacency[w]:
            if nb != avoid and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return frozenset(seen)


def path_split(tree: Tree, u: int, v: int):
    """The u-v path x_m .. x_1 (z) y_1 .. y_m with its hanging components.

    Returns x and y innermost first (x[0] is x_1) and, per path vertex,
    the component hanging there: itself plus every branch off the path.
    The tail at x_k is the union of the components at x_k .. x_m.
    """
    p = path_between(tree, u, v)
    m = len(p) // 2
    x, y = p[:m][::-1], p[len(p) - m :]

    def hanging(w: int) -> frozenset[int]:
        return frozenset({w}).union(*(branch(tree, c, w) for c in tree.adjacency[w] if c not in p))

    return x, y, [hanging(w) for w in x], [hanging(w) for w in y]


def rewire(tree: Tree, x, y, k: int) -> Tree:
    """The path rewiring at depth k, as the ``swap_components`` docstring states it."""
    return swap_components(tree, x[k - 1], y[k - 1], (x[k],), (y[k],))


def test_greedy_small_shapes():
    t, sizes = build_greedy_bfs((2, 2, 2, 1, 1))
    assert is_isomorphic(t, path(5)) and sizes == (1, 2, 2)
    t, sizes = build_greedy_bfs((4, 1, 1, 1, 1))
    assert is_isomorphic(t, star(5)) and sizes == (1, 4)
    t, _ = build_greedy_bfs((3, 2, 2, 1, 1, 1))
    assert is_isomorphic(t, spider(1, 2, 2))
    assert count_subtrees(t) == 25


def test_greedy_edge_cases():
    t, sizes = build_greedy_bfs((0,))
    assert t.n == 1 and satisfies_bfs_ordering(t, 0, (0,)) and sizes == (1,)
    t, sizes = build_greedy_bfs((1, 1))
    assert t.edges == ((0, 1),) and sizes == (1, 1)


def test_greedy_19_vertex_layers():
    pi = (4, 4, 3, 3, 3, 3, 3, 2) + (1,) * 11
    t, sizes = build_greedy_bfs(pi)
    assert sizes == (1, 4, 9, 5)
    assert satisfies_bfs_ordering(t, 0, tuple(range(19)))
    assert count_subtrees(t) == 9608


@given(st.sampled_from(realizable_sequences(8) + realizable_sequences(9)))
def test_greedy_degree_sequence_and_labeling(pi):
    t, _ = build_greedy_bfs(pi)
    assert degree_sequence_of(t) == pi
    assert satisfies_bfs_ordering(t, 0, tuple(range(t.n)))


def assert_greedy_matches_reference(pi) -> None:
    edges, sizes = reference_greedy_bfs(pi)
    t, got_sizes = build_greedy_bfs(pi)
    assert list(t.edges) == edges and got_sizes == sizes
    assert _greedy_parents(sorted(pi, reverse=True)) == [0] + [u for u, _ in edges]


def test_greedy_matches_reference_on_every_small_sequence():
    for n in range(1, 13):
        for pi in realizable_sequences(n):
            assert_greedy_matches_reference(pi)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_greedy_matches_reference_on_random_sequences(rng):
    n = rng.randint(2, 2000)
    code = [rng.randrange(n) for _ in range(n - 2)]
    assert_greedy_matches_reference([1 + code.count(v) for v in range(n)])



def greedy_dp_phi(pi) -> int:
    """phi of the greedy tree by the rooted DP over its parent array, ids as the order."""
    parent = _greedy_parents(pi)
    return sum(_rooted_counts(parent, range(len(parent))))


def test_greedy_phi_matches_the_rooted_dp_on_every_sequence_to_18():
    for n in range(1, 19):
        for pi in realizable_sequences(n):
            assert _greedy_phi(pi) == greedy_dp_phi(pi), pi


def test_greedy_phi_matches_the_greedy_tree_count_to_10():
    for n in range(1, 11):
        for pi in realizable_sequences(n):
            assert _greedy_phi(pi) == count_subtrees(build_greedy_bfs(pi)[0]), pi


@st.composite
def greedy_sequences(draw) -> tuple[int, ...]:
    """Nonincreasing degree sequences of up to about 3,000 vertices: paths,
    stars, all 3s, many distinct degrees above a chain of 2s, random codes."""
    n = draw(st.integers(1, 3000))
    kind = draw(st.sampled_from(["path", "star", "threes", "distinct", "random"]))
    if n <= 2:
        return ((0,), (1, 1))[n - 1]
    if kind == "path":
        inner = [2] * (n - 2)
    elif kind == "star":
        inner = [n - 1]
    elif kind == "threes":
        inner = [3] * ((n - 2) // 2) + [2] * (n % 2)
    elif kind == "distinct":
        inner = sorted(draw(st.sets(st.integers(3, 80), max_size=35)), reverse=True)
        inner += [2] * draw(st.integers(0, 200))
    else:
        rng = draw(st.randoms(use_true_random=False))
        code = [rng.randrange(n) for _ in range(n - 2)]
        return tuple(sorted((1 + code.count(v) for v in range(n)), reverse=True))
    return tuple(inner) + (1,) * (2 + sum(d - 2 for d in inner))


@settings(max_examples=60, deadline=None)
@given(greedy_sequences())
@example((0,))
@example((1, 1))
@example((2,) * 2998 + (1, 1))
@example((2999,) + (1,) * 2999)
def test_greedy_phi_matches_the_rooted_dp_on_random_sequences(pi):
    assert _greedy_phi(pi) == greedy_dp_phi(pi)


def test_bfs_ordering_path_cases():
    p5 = path(5)
    ok, witness = has_bfs_ordering(p5, 0)
    assert not ok and witness is None
    # Interior but off-center root has maximum degree yet no valid order.
    ok, _ = has_bfs_ordering(p5, 1)
    assert not ok
    ok, witness = has_bfs_ordering(p5, 2)
    assert ok
    assert satisfies_bfs_ordering(p5, 2, witness)


def test_bfs_ordering_on_greedy_trees():
    for pi in [(3, 2, 2, 1, 1, 1), (4, 4, 3, 3, 3, 3, 3, 2) + (1,) * 11]:
        t, _ = build_greedy_bfs(pi)
        ok, witness = has_bfs_ordering(t, 0)
        assert ok
        assert satisfies_bfs_ordering(t, 0, witness)


def test_bfs_ordering_spider_cases():
    bad = spider(1, 1, 3)
    assert all(not has_bfs_ordering(bad, r)[0] for r in range(bad.n))
    good = spider(1, 2, 2)
    ok, witness = has_bfs_ordering(good, 0)
    assert ok and satisfies_bfs_ordering(good, 0, witness)
    # Away from the center the degree condition already fails.
    assert not has_bfs_ordering(good, 1)[0]


def test_bfs_ordering_on_deep_path():
    # 1501 layers below the middle vertex; the search must not recurse per layer.
    p = path(3001)
    ok, witness = has_bfs_ordering(p, 1500)
    assert ok and satisfies_bfs_ordering(p, 1500, witness)


def traced_peak(call) -> int:
    """The tracemalloc peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_codes_and_bfs_ordering_memory_on_a_20001_path():
    # Integer branch labels take O(n): about 6 MiB each.  Byte codes, each
    # branch's full text, peaked at 193.8 MiB and 387.7 MiB here.
    p = path(20001)
    assert traced_peak(lambda: canonical_code(p)) < 16 * 2**20
    assert traced_peak(lambda: has_bfs_ordering(p, 10000)) < 16 * 2**20


def test_bfs_ordering_on_wide_star():
    # 3000 tied leaves under the root; no search over their orders.
    s = star(3001)
    ok, witness = has_bfs_ordering(s, 0)
    assert ok and satisfies_bfs_ordering(s, 0, witness)


def test_bfs_ordering_spider_with_distinct_legs():
    # Twelve pairwise distinct legs: 12! orders of the root's children.
    assert has_bfs_ordering(spider(*range(1, 13)), 0) == (False, None)


def test_bfs_ordering_matches_reference_on_every_small_view():
    rootings = 0
    for n in range(1, 8):
        for pi in realizable_sequences(n):
            for t in enumerate_trees(pi):
                for r in range(n):
                    ok, witness = has_bfs_ordering(t, r)
                    assert ok == reference_has_bfs_ordering(t, r)
                    if ok:
                        assert satisfies_bfs_ordering(t, r, witness)
                    else:
                        assert witness is None
                    rootings += 1
    assert rootings == 142


@settings(max_examples=50)
@given(random_trees(min_n=2, max_n=40), st.data())
def test_bfs_ordering_witness_is_valid(t, data):
    root = data.draw(st.integers(0, t.n - 1))
    ok, witness = has_bfs_ordering(t, root)
    if ok:
        assert satisfies_bfs_ordering(t, root, witness)
    else:
        assert witness is None


def test_swap_components_p5_reversal():
    p5 = path(5)
    out = swap_components(p5, 1, 3, (0,), (4,))
    assert is_isomorphic(out, p5)
    assert out.edges == ((0, 3), (1, 2), (1, 4), (2, 3))


def test_swap_components_symmetric_fixed_point():
    # Spine 0-1-2-3 with one pendant each on the middle vertices.
    h = tree_from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)])
    out = swap_components(h, 1, 2, (4,), (5,))
    assert is_isomorphic(out, h)


def test_swap_components_one_sided_changes_degrees():
    p5 = path(5)
    out = swap_components(p5, 1, 3, (0,), ())
    assert out.degree(1) == 1 and out.degree(3) == 3
    assert is_isomorphic(out, spider(1, 1, 2))


def test_swap_components_rejects():
    p5 = path(5)
    with pytest.raises(InvalidVertex):
        swap_components(p5, 1, 9, (0,), ())
    with pytest.raises(InvalidVertex, match=re.escape("attachment vertices must be distinct")):
        swap_components(p5, 1, 1, (0,), ())
    with pytest.raises(InvalidVertex, match=re.escape("repeated neighbor in a detachment set")):
        swap_components(p5, 1, 3, (0, 0), ())
    with pytest.raises(InvalidVertex, match=re.escape("4 is not a neighbor of 1")):
        swap_components(p5, 1, 3, (4,), ())
    with pytest.raises(
        InvalidVertex,
        match=re.escape("the branch at 2 contains 3; detaching it disconnects the middle"),
    ):
        swap_components(p5, 1, 3, (2,), ())
    with pytest.raises(InvalidVertex, match=re.escape("0 is not a neighbor of 3")):
        swap_components(p5, 1, 3, (), (0,))
    with pytest.raises(
        InvalidVertex,
        match=re.escape("the branch at 2 contains 1; detaching it disconnects the middle"),
    ):
        swap_components(p5, 1, 3, (), (2,))


def test_swap_path_edges_p6_isomorphic():
    p6 = path(6)
    x, y, _, _ = path_split(p6, 0, 5)
    assert len(x) == 3
    out = rewire(p6, x, y, 2)
    assert is_isomorphic(out, p6)


def test_swap_path_edges_symmetric_fixed_point():
    h = tree_from_edges(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)])
    x, y, _, _ = path_split(h, 0, 3)
    out = rewire(h, x, y, 1)
    assert is_isomorphic(out, h)


@settings(max_examples=50)
@given(random_trees(min_n=4, max_n=10), st.data())
def test_swap_path_edges_preserves_degrees(t, data):
    leaves = [v for v in range(t.n) if t.degree(v) == 1]
    u = data.draw(st.sampled_from(leaves))
    v = data.draw(st.sampled_from([w for w in leaves if w != u]))
    x, y, _, _ = path_split(t, u, v)
    if len(x) < 2:
        return
    k = data.draw(st.integers(1, len(x) - 1))
    out = rewire(t, x, y, k)
    assert degree_sequence_of(out) == degree_sequence_of(t)
    xk, xk1, yk, yk1 = x[k - 1], x[k], y[k - 1], y[k]
    edges = set(t.edges) - {tuple(sorted((xk, xk1))), tuple(sorted((yk, yk1)))}
    edges |= {tuple(sorted((xk1, yk))), tuple(sorted((yk1, xk)))}
    assert set(out.edges) == edges


def test_component_swap_inequality_on_caterpillar():
    # Middle path 2-1-0 with one pendant at 1 and two pendants at 0. The
    # pendant bundle at 1 is the lighter branch sitting at the better
    # middle vertex, so swapping the bundles must strictly gain subtrees.
    t1 = tree_from_edges(6, [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5)])
    middle = frozenset({0, 1, 2})
    assert f_within(t1, middle, 1) == 4 and f_within(t1, middle, 0) == 3
    assert f_within(t1, frozenset({1, 3}), 1) == 2
    assert f_within(t1, frozenset({0, 4, 5}), 0) == 4
    t2 = swap_components(t1, 1, 0, (3,), (4, 5))
    assert count_subtrees(t1) == 28
    assert count_subtrees(t2) == 30


@settings(max_examples=120)
@given(random_trees(min_n=4, max_n=9), st.data())
def test_component_swap_inequality_property(t, data):
    x = data.draw(st.integers(0, t.n - 1))
    y = data.draw(st.sampled_from([w for w in range(t.n) if w != x]))
    p = path_between(t, x, y)
    toward_y, toward_x = p[1], p[-2]
    eligible_x = [c for c in t.adjacency[x] if c != toward_y]
    eligible_y = [d for d in t.adjacency[y] if d != toward_x]
    a = tuple(sorted(data.draw(st.sets(st.sampled_from(eligible_x))))) if eligible_x else ()
    b = tuple(sorted(data.draw(st.sets(st.sampled_from(eligible_y))))) if eligible_y else ()
    x_set = frozenset({x}).union(*[branch(t, c, x) for c in a]) if a else frozenset({x})
    y_set = frozenset({y}).union(*[branch(t, d, y) for d in b]) if b else frozenset({y})
    middle = frozenset(range(t.n)) - (x_set - {x}) - (y_set - {y})
    f_mid_x = f_within(t, middle, x)
    f_mid_y = f_within(t, middle, y)
    f_x = f_within(t, x_set, x)
    f_y = f_within(t, y_set, y)
    if not (f_mid_x >= f_mid_y and f_x <= f_y):
        return
    swapped = swap_components(t, x, y, a, b)
    before, after = count_subtrees(t), count_subtrees(swapped)
    assert after >= before
    assert (after == before) == (f_mid_x == f_mid_y or f_x == f_y)


def _path_swap_hypotheses(t: Tree, split, k: int) -> tuple[bool, bool]:
    """Whether the path-swap count hypotheses hold, and the equality clause."""
    x, y, x_parts, y_parts = split
    f_x = [f_within(t, comp, v) for comp, v in zip(x_parts, x)]
    f_y = [f_within(t, comp, v) for comp, v in zip(y_parts, y)]
    inner_ok = all(f_x[i] >= f_y[i] for i in range(k))
    tail_x = f_within(t, frozenset().union(*x_parts[k:]), x[k])
    tail_y = f_within(t, frozenset().union(*y_parts[k:]), y[k])
    holds = inner_ok and tail_x <= tail_y
    equality = tail_x == tail_y or all(f_x[i] == f_y[i] for i in range(k))
    return holds, equality


def test_path_swap_inequality_exhaustive_n7_class():
    for t in enumerate_trees((3, 2, 2, 2, 1, 1, 1)):
        before = count_subtrees(t)
        for u in range(t.n):
            for v in range(t.n):
                if u == v:
                    continue
                split = path_split(t, u, v)
                x, y, _, _ = split
                for k in range(1, len(x)):
                    holds, equality = _path_swap_hypotheses(t, split, k)
                    if not holds:
                        continue
                    after = count_subtrees(rewire(t, x, y, k))
                    assert after >= before
                    assert (after == before) == equality


@settings(max_examples=80)
@given(random_trees(min_n=4, max_n=9), st.data())
def test_path_swap_inequality_property(t, data):
    u = data.draw(st.integers(0, t.n - 1))
    v = data.draw(st.sampled_from([w for w in range(t.n) if w != u]))
    split = path_split(t, u, v)
    x, y, _, _ = split
    if len(x) < 2:
        return
    k = data.draw(st.integers(1, len(x) - 1))
    holds, equality = _path_swap_hypotheses(t, split, k)
    if not holds:
        return
    after = count_subtrees(rewire(t, x, y, k))
    before = count_subtrees(t)
    assert after >= before
    assert (after == before) == equality


def _every_class_tree(max_n: int):
    for n in range(1, max_n + 1):
        for pi in realizable_sequences(n):
            yield from enumerate_trees(pi)


@settings(max_examples=50, deadline=None)
@given(random_trees(min_n=1, max_n=30))
def test_root_rows_match_paths_and_joint_counts(t):
    for x in range(t.n):
        parent, _, _, order = reference_root(t, x)
        step, back, g, both, bfs = _root_row(t.adjacency, x)
        assert g == reference_rooted_counts(parent, order)
        assert bfs == trees._bfs(t.adjacency, x)[1]
        assert both[x] == count_containing_all(t, [x])
        for y in range(t.n):
            if y != x:
                p = path_between(t, x, y)
                assert (step[y], back[y]) == (p[1], p[-2])
                assert both[y] == count_containing_all(t, [x, y])


def _assert_scores_match_recounts(t: Tree) -> list[int]:
    phi = count_subtrees(t)
    scored = list(_scored_moves(t.adjacency))
    assert [move[1:] for move in scored] == list(reference_moves(t))
    for delta, x, y, xc, yc in scored:
        assert delta == count_subtrees(swap_components(t, x, y, xc, yc)) - phi
    return [move[0] for move in scored]


def test_scored_moves_match_recounts_on_every_small_class():
    for t in _every_class_tree(9):
        _assert_scores_match_recounts(t)


# ROADMAP item 7's random recursive tree (601 moves), which the search
# takes to the optimum, and a tree of its degrees where no move gains
# although it is short of the optimum (phi = 2,228,633 < 2,305,087), so
# the search stops there.  The second is written out, so a broken scorer
# fails the test, not the import.
_RECURSIVE_31 = random_recursive_tree(random.Random(191031), 31)
_STUCK_31 = tree_from_edges(31, [
    (0, 5), (0, 7), (0, 26), (1, 2), (1, 3), (1, 5), (1, 8), (2, 10), (2, 12), (2, 14),
    (3, 6), (3, 20), (3, 27), (4, 5), (4, 13), (5, 11), (5, 17), (5, 19), (6, 29), (8, 15),
    (8, 16), (9, 10), (11, 22), (12, 21), (14, 24), (15, 18), (17, 28), (19, 23), (20, 25), (27, 30),
])


@settings(max_examples=40, deadline=None)
@given(random_trees(min_n=1, max_n=30))
@example(_RECURSIVE_31)
@example(_STUCK_31)
def test_scored_moves_match_recounts_property(t):
    deltas = _assert_scores_match_recounts(t)
    # The search stops exactly where no recount is positive.
    assert (local_search_optimize(t) == t) == all(delta <= 0 for delta in deltas)


def test_full_scan_roots_each_inner_vertex_once(monkeypatch):
    # One BFS per row and none besides: f comes from the first row.
    rows, roots = [], []
    bfs = trees._bfs

    def counted(adjacency, x):
        rows.append(x)
        return _root_row(adjacency, x)

    def counted_bfs(adjacency, root):
        roots.append(root)
        return bfs(adjacency, root)

    monkeypatch.setattr(extremal, "_root_row", counted)
    for module in (trees, counting, extremal):
        monkeypatch.setattr(module, "_bfs", counted_bfs)
    for t in (seeded_tree(3, 200), random_recursive_tree(random.Random(2), 50), star(5), path(2)):
        rows.clear()
        roots.clear()
        list(_scored_moves(t.adjacency))
        inner = [v for v in range(t.n) if t.degree(v) > 1]
        assert rows == inner and roots == inner


def _assert_edits_match_swaps(t: Tree) -> None:
    for _, x, y, xc, yc in _scored_moves(t.adjacency):
        adj = [list(a) for a in t.adjacency]
        _move_branches(adj, x, y, xc, yc)
        assert tuple(map(tuple, adj)) == swap_components(t, x, y, xc, yc).adjacency


def test_in_place_moves_match_swap_components():
    # The search edits one adjacency in place; each scored move must leave
    # exactly the adjacency, ascending lists included, that the checked move
    # builds.
    for t in _every_class_tree(9):
        _assert_edits_match_swaps(t)
    _assert_edits_match_swaps(_RECURSIVE_31)


def test_scorer_refuses_where_f_vector_does(monkeypatch):
    # star(60)'s 59 leaves bound phi below by 2^59, 19 digits for each of
    # 60 counts: 1,140, so a cap of 1,139 refuses it before any row.
    # path(40) passes its leaf bound (40) and is refused after its first
    # row on phi = 820, 4 digits each: 160.
    rows = []

    def counted(adjacency, x):
        rows.append(x)
        return _root_row(adjacency, x)

    monkeypatch.setattr(extremal, "_root_row", counted)
    for t, cap, rooted in ((star(60), 1139, 0), (path(40), 159, 1)):
        monkeypatch.setattr(counting, "_F_DIGITS", cap)
        with pytest.raises(TooLarge) as expected:
            f_vector(t)
        rows.clear()
        with pytest.raises(TooLarge) as info:
            next(_scored_moves(t.adjacency))
        assert len(rows) == rooted and str(info.value) == str(expected.value)
        with pytest.raises(TooLarge) as info:
            local_search_optimize(t)
        assert str(info.value) == str(expected.value)
        monkeypatch.setattr(counting, "_F_DIGITS", cap + 1)
        list(_scored_moves(t.adjacency))


def test_local_search_matches_reference_on_every_small_class():
    for t in _every_class_tree(9):
        assert local_search_optimize(t) == reference_local_search(t)


@settings(max_examples=30, deadline=None)
@given(random_trees(min_n=1, max_n=20))
def test_local_search_matches_reference_property(t):
    assert local_search_optimize(t) == reference_local_search(t)


@pytest.mark.parametrize("seed", range(5))
def test_local_search_reaches_optimum_at_n_100(seed):
    t = seeded_tree(seed, 100)
    pi = degree_sequence_of(t)
    out = local_search_optimize(t)
    assert degree_sequence_of(out) == pi
    assert count_subtrees(out) == count_subtrees(build_greedy_bfs(pi)[0])


def test_local_search_reaches_optimum_on_a_random_recursive_tree():
    # Each vertex's parent is uniform among the earlier ids; the draws are
    # those of ``random.seed(191031)``.  The greedy tree has phi = 2,305,087.
    rng = random.Random(191031)
    t = tree_from_edges(31, [(rng.randrange(v), v) for v in range(1, 31)])
    pi = degree_sequence_of(t)
    assert count_subtrees(build_greedy_bfs(pi)[0]) == 2_305_087
    assert count_subtrees(local_search_optimize(t)) == 2_305_087


@pytest.mark.xfail(strict=True, reason="local search stops short, at phi = 38,207,698,398,831,761,176")
def test_local_search_reaches_optimum_on_a_larger_random_recursive_tree():
    # The greedy tree has phi = 38,207,872,227,759,128,824.
    t = random_recursive_tree(random.Random(2), 100)
    pi = degree_sequence_of(t)
    assert count_subtrees(build_greedy_bfs(pi)[0]) == 38_207_872_227_759_128_824
    assert count_subtrees(local_search_optimize(t)) == 38_207_872_227_759_128_824


def test_first_scored_move_needs_linear_memory():
    # The peak is f and the first row: f and both hold n counts of up to
    # 1,490 bits, about 0.64 MiB each, and step, back, g and the BFS order
    # about 0.1 MiB each, 1.56 MiB in all.  The bound refuses a dict of
    # branch counts per vertex, which peaks at 2.83 MiB.
    t = seeded_tree(7, 3000)
    assert traced_peak(lambda: next(_scored_moves(t.adjacency))) < 2.2 * 2**20


def test_local_search_fixed_point():
    t, _ = build_greedy_bfs((3, 2, 2, 1, 1, 1))
    assert local_search_optimize(t) == t


def test_local_search_spider_upgrade():
    worse = spider(1, 1, 3)
    assert count_subtrees(worse) == 24
    best = local_search_optimize(worse)
    assert count_subtrees(best) == 25
    assert is_isomorphic(best, spider(1, 2, 2))


def test_local_search_reaches_optimum_small_n():
    for n in (10, 11):
        for pi in realizable_sequences(n):
            target, _ = build_greedy_bfs(pi)
            for t in enumerate_trees(pi):
                out = local_search_optimize(t)
                assert degree_sequence_of(out) == pi
                assert is_isomorphic(out, target)


def _assert_no_improving_path_rewiring(t: Tree) -> None:
    phi = count_subtrees(t)
    leaves = [v for v in range(t.n) if t.degree(v) == 1]
    for i, u in enumerate(leaves):
        for v in leaves[i + 1 :]:
            x, y, _, _ = path_split(t, u, v)
            for k in range(1, len(x)):
                assert count_subtrees(rewire(t, x, y, k)) <= phi


def test_local_search_result_admits_no_improving_path_rewiring():
    # The search scans branch exchanges only; every path rewiring is one.
    for t in _every_class_tree(9):
        _assert_no_improving_path_rewiring(local_search_optimize(t))


@settings(max_examples=30, deadline=None)
@given(random_trees(min_n=2, max_n=20))
def test_local_search_result_admits_no_improving_path_rewiring_property(t):
    _assert_no_improving_path_rewiring(local_search_optimize(t))


@settings(max_examples=30)
@given(random_trees(min_n=2, max_n=10))
def test_local_search_never_decreases(t):
    out = local_search_optimize(t)
    assert count_subtrees(out) >= count_subtrees(t)
    assert degree_sequence_of(out) == degree_sequence_of(t)

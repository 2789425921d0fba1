"""Closed forms, per-class extremal answers and classical tree parameters."""

from __future__ import annotations

import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from helpers import path, random_trees, reference_root, spider, star
from subtrees.counting import count_subtrees
from subtrees.errors import InfeasibleConstraint, TooLarge
from subtrees.extremal import build_greedy_bfs
from subtrees.formulas import (
    _CLASS_LIMIT,
    bound_path_star,
    independence_extremal,
    independence_number,
    leaves_extremal,
    matching_extremal,
    matching_number,
    max_degree_extremal,
    wiener_index,
)
from subtrees.oracle import enumerate_trees, realizable_sequences
from subtrees.trees import Tree, degree_sequence_of, is_isomorphic


def best_phi_in_class(n: int, keep) -> int:
    """Largest subtree count over all trees of order n passing the filter."""
    best = 0
    for pi in realizable_sequences(n):
        for t in enumerate_trees(pi):
            if keep(t):
                best = max(best, count_subtrees(t))
    return best


@pytest.mark.parametrize(
    "make, n, k",
    [
        (max_degree_extremal, 30, 4),
        (leaves_extremal, 30, 7),
        (independence_extremal, 30, 20),
        (matching_extremal, 30, 7),
    ],
)
def test_extremal_tree_is_built_once_on_first_access(make, n, k):
    answer = make(n, k)
    assert "extremal_tree" not in vars(answer)
    tree = answer.extremal_tree
    assert tree == build_greedy_bfs(answer.extremal_pi)[0]
    assert answer.extremal_tree is tree
    assert count_subtrees(tree) == answer.phi
    # The kept tree is no field: answers with equal (kind, n, param) stay equal.
    assert answer == make(n, k) and make(n, k) == answer
    assert answer != make(n, k + 1)


def test_bound_path_star_values():
    assert bound_path_star(1) == (1, 1)
    assert bound_path_star(2) == (3, 3)
    assert bound_path_star(4) == (10, 11)
    assert bound_path_star(64) == (64 * 65 // 2, 2 ** 63 + 63)
    with pytest.raises(InfeasibleConstraint):
        bound_path_star(0)


def test_bound_path_star_cap():
    lo, hi = bound_path_star(_CLASS_LIMIT)
    assert hi.bit_length() == _CLASS_LIMIT and lo == _CLASS_LIMIT * (_CLASS_LIMIT + 1) // 2
    # Without the cap, 10^15 would evaluate 2^(10^15 - 1), a number of 125 TB.
    for n, text in ((10**15, "1" + "0" * 15), (10**5000, "1" + "0" * 5000)):
        start = time.perf_counter()
        with pytest.raises(TooLarge) as info:
            bound_path_star(n)
        assert time.perf_counter() - start < 1
        assert str(info.value) == f"class answers capped at {_CLASS_LIMIT} vertices, got {text}"


def test_bounds_are_attained_by_path_and_star():
    for n in range(1, 13):
        lo, hi = bound_path_star(n)
        assert count_subtrees(path(n)) == lo
        assert count_subtrees(star(n)) == hi


def test_max_degree_examples():
    a = max_degree_extremal(7, 3)
    assert a.extremal_pi == (3, 3, 2, 1, 1, 1, 1)
    assert a.phi == 40
    assert a.details == {"p": 1, "r": 1, "q": 1}
    assert a.printed_formula_value is None and not a.discrepancy_flag

    b = max_degree_extremal(19, 4)
    assert b.extremal_pi == (4,) * 5 + (3,) + (1,) * 13
    assert b.details == {"p": 2, "r": 0, "q": 2}

    c = max_degree_extremal(4, 3)
    assert is_isomorphic(c.extremal_tree, star(4)) and c.phi == 11
    assert c.details == {"p": 0, "r": 1, "q": 1}

    d = max_degree_extremal(6, 2)
    assert is_isomorphic(d.extremal_tree, path(6)) and d.details == {}


def test_max_degree_depth_counts_delta_entries():
    # The number of delta-entries in the winning sequence is N_{p-1} + r,
    # the previous complete-tree order plus the finished extra groups.
    for n, delta in [(4, 3), (7, 3), (10, 3), (13, 3), (16, 4), (19, 4), (5, 4), (6, 4)]:
        a = max_degree_extremal(n, delta)
        p, r = a.details["p"], a.details["r"]
        prev = (delta * (delta - 1) ** (p - 1) - 2) // (delta - 2) if p >= 1 else 0
        assert a.extremal_pi.count(delta) == prev + r


def test_max_degree_matches_enumeration():
    for n in range(4, 9):
        for delta in range(2, n):
            a = max_degree_extremal(n, delta)
            assert a.phi == best_phi_in_class(n, lambda t: degree_sequence_of(t)[0] == delta)


def test_leaves_examples_and_flag():
    a = leaves_extremal(7, 3)
    assert is_isomorphic(a.extremal_tree, spider(2, 2, 2))
    assert a.phi == 36 and a.details["closed_form"] == 36
    assert a.printed_formula_value == 244 and a.discrepancy_flag

    b = leaves_extremal(5, 4)
    assert is_isomorphic(b.extremal_tree, star(5))
    assert b.phi == 20 and b.printed_formula_value == 65 and b.discrepancy_flag


def test_leaves_closed_form_matches_count():
    for n in range(3, 13):
        for s in range(2, n):
            a = leaves_extremal(n, s)
            assert a.details["closed_form"] == a.phi
            assert a.details["q"] * s + a.details["t"] == n - 1


def test_leaves_matches_enumeration():
    for n in range(4, 9):
        for s in range(2, n):
            a = leaves_extremal(n, s)
            assert a.phi == best_phi_in_class(n, lambda t: degree_sequence_of(t).count(1) == s)


def test_independence_examples():
    a = independence_extremal(5, 3)
    assert a.extremal_pi == (3, 2, 1, 1, 1)
    assert a.phi == 17 and a.printed_formula_value == 17 and not a.discrepancy_flag


def test_independence_matches_enumeration():
    for n in range(4, 9):
        for alpha in range((n + 1) // 2, n):
            a = independence_extremal(n, alpha)
            assert not a.discrepancy_flag
            assert a.phi == best_phi_in_class(n, lambda t: independence_number(t) == alpha)


def test_matching_examples_and_flag():
    cases = [(5, 2, 13, 17), (6, 3, 19, 25), (7, 1, 68, 70)]
    for n, beta, printed, phi in cases:
        a = matching_extremal(n, beta)
        assert a.phi == phi and a.printed_formula_value == printed
        assert a.discrepancy_flag


def test_matching_printed_shortfall_is_2beta():
    for n in range(3, 11):
        for beta in range(1, n // 2 + 1):
            a = matching_extremal(n, beta)
            assert a.phi == a.printed_formula_value + 2 * beta
            assert a.discrepancy_flag


def test_matching_class_equals_independence_class():
    for n in range(3, 11):
        for beta in range(1, n // 2 + 1):
            m = matching_extremal(n, beta)
            i = independence_extremal(n, n - beta)
            assert m.extremal_pi == i.extremal_pi
            assert m.phi == i.phi


def test_matching_matches_enumeration():
    for n in range(4, 9):
        for beta in range(1, n // 2 + 1):
            a = matching_extremal(n, beta)
            assert a.phi == best_phi_in_class(n, lambda t: matching_number(t) == beta)


def test_class_feasibility_errors():
    for call in [
        lambda: max_degree_extremal(5, 1),
        lambda: max_degree_extremal(5, 5),
        lambda: leaves_extremal(5, 5),
        lambda: independence_extremal(6, 2),
        lambda: matching_extremal(6, 4),
    ]:
        with pytest.raises(InfeasibleConstraint):
            call()


def test_wiener_examples():
    assert wiener_index(path(4)) == 10
    assert wiener_index(star(4)) == 9
    assert wiener_index(path(2)) == 1
    assert wiener_index(path(1)) == 0


def all_pairs_distance_sum(t: Tree) -> int:
    """Wiener index straight from the definition, one BFS per vertex."""
    total = 0
    for s in range(t.n):
        total += sum(reference_root(t, s)[2])
    return total // 2


@settings(max_examples=40)
@given(random_trees(min_n=1, max_n=12))
def test_wiener_agrees_with_distances(t):
    assert wiener_index(t) == all_pairs_distance_sum(t)


def test_matching_number_examples():
    assert matching_number(spider(1, 1, 3)) == 2
    assert matching_number(spider(1, 2, 2)) == 3
    assert matching_number(path(6)) == 3
    assert matching_number(star(5)) == 1
    assert matching_number(path(1)) == 0


def brute_force_matching(t: Tree) -> int:
    """Largest set of pairwise disjoint edges, by direct subset search."""
    for size in range(len(t.edges), 0, -1):
        for subset in combinations(t.edges, size):
            used = [v for e in subset for v in e]
            if len(used) == len(set(used)):
                return size
    return 0


def brute_force_independence(t: Tree) -> int:
    """Largest set of pairwise nonadjacent vertices, by subset search."""
    for size in range(t.n, 0, -1):
        for subset in combinations(range(t.n), size):
            chosen = set(subset)
            if all(v not in chosen for u in subset for v in t.adjacency[u]):
                return size
    return 0


@settings(max_examples=30)
@given(random_trees(min_n=2, max_n=9))
def test_matching_number_is_optimal(t):
    assert matching_number(t) == brute_force_matching(t)


@settings(max_examples=30)
@given(random_trees(min_n=1, max_n=9))
def test_independence_number_is_optimal(t):
    assert independence_number(t) == brute_force_independence(t)
    assert independence_number(t) + matching_number(t) == t.n

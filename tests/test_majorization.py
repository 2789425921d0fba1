"""Dominance order on degree sequences and per-class extremal sequences."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from subtrees.counting import count_subtrees
from subtrees.errors import (
    InfeasibleConstraint,
    LengthMismatch,
    NotComparable,
    SumMismatch,
    TooLarge,
)
from subtrees.extremal import build_greedy_bfs
from subtrees.formulas import (
    _CLASS_LIMIT,
    independence_extremal,
    leaves_extremal,
    matching_extremal,
    max_degree_extremal,
)
from subtrees.majorization import majorization_chain, majorizes
from subtrees.oracle import realizable_sequences


def test_majorizes_tri_state():
    assert majorizes((3, 1, 1, 1), (2, 2, 1, 1)) == "greater"
    assert majorizes((2, 2, 1, 1), (3, 1, 1, 1)) == "less"
    assert majorizes((2, 2, 1, 1), (2, 2, 1, 1)) == "equal"


def test_majorizes_and_chain_sort_their_input():
    assert majorizes((1, 2), (2, 1)) == "equal"
    assert majorizes((1, 1, 3, 1), (2, 2, 1, 1)) == "greater"
    assert majorization_chain((1, 2, 3), (3, 2, 1)) == [(3, 2, 1)]
    assert majorization_chain((1, 1, 2, 2, 2), (1, 4, 1, 1, 1)) == [
        (2, 2, 2, 1, 1),
        (3, 2, 1, 1, 1),
        (4, 1, 1, 1, 1),
    ]


def test_majorizes_incomparable_pairs():
    # Graphic but not tree-realizable at n=6; prefix sums cross at index 1.
    assert majorizes((3, 3, 3, 1, 1, 1), (4, 2, 2, 2, 1, 1)) == "incomparable"
    # Smallest tree-realizable incomparable pair.
    assert majorizes((4, 4, 1, 1, 1, 1, 1, 1), (5, 2, 2, 1, 1, 1, 1, 1)) == "incomparable"


def test_majorizes_rejects():
    with pytest.raises(LengthMismatch):
        majorizes((2, 1, 1), (1, 1))
    with pytest.raises(SumMismatch):
        majorizes((2, 2, 1, 1), (2, 1, 1, 1))
    with pytest.raises(SumMismatch):
        majorizes((10**5000, 1), (1, 1))  # a sum past the int-digit limit


@given(st.sampled_from(realizable_sequences(8)), st.sampled_from(realizable_sequences(8)))
def test_majorizes_antisymmetric(a, b):
    rel = majorizes(a, b)
    back = majorizes(b, a)
    flip = {"less": "greater", "greater": "less", "equal": "equal", "incomparable": "incomparable"}
    assert back == flip[rel]
    if rel == "equal":
        assert a == b


def test_chain_endpoints_and_steps():
    chain = majorization_chain((2, 2, 2, 1, 1), (4, 1, 1, 1, 1))
    assert chain == [(2, 2, 2, 1, 1), (3, 2, 1, 1, 1), (4, 1, 1, 1, 1)]
    phis = [count_subtrees(build_greedy_bfs(pi)[0]) for pi in chain]
    assert phis == [15, 17, 20]


def test_chain_trivial_and_direction():
    assert majorization_chain((3, 1, 1, 1), (3, 1, 1, 1)) == [(3, 1, 1, 1)]
    down = majorization_chain((4, 1, 1, 1, 1), (2, 2, 2, 1, 1))
    assert down[0] == (2, 2, 2, 1, 1) and down[-1] == (4, 1, 1, 1, 1)


def test_chain_rejects_incomparable():
    with pytest.raises(NotComparable):
        majorization_chain((4, 4, 1, 1, 1, 1, 1, 1), (5, 2, 2, 1, 1, 1, 1, 1))


def test_chain_on_awkward_pair():
    # Naive "increment first, decrement last" breaks here; the prefix-deficit
    # rule must route through intermediate sequences that stay in the interval.
    lo, hi = (4, 4, 2, 2), (5, 3, 3, 1)
    chain = majorization_chain(lo, hi)
    assert chain[0] == lo and chain[-1] == hi
    for earlier, later in zip(chain, chain[1:]):
        assert majorizes(later, earlier) == "greater"
        assert sum(abs(x - y) for x, y in zip(earlier, later)) == 2


@given(st.sampled_from(realizable_sequences(9)), st.sampled_from(realizable_sequences(9)))
def test_chain_properties(a, b):
    rel = majorizes(a, b)
    if rel == "incomparable":
        with pytest.raises(NotComparable):
            majorization_chain(a, b)
        return
    chain = majorization_chain(a, b)
    lo, hi = (a, b) if rel == "less" else (b, a)
    assert chain[0] == lo and chain[-1] == hi
    for step in chain:
        assert sum(step) == sum(lo)
        assert all(step[i] >= step[i + 1] for i in range(len(step) - 1))
        assert all(d >= 1 for d in step)


def test_class_max_sequences():
    assert max_degree_extremal(7, 3).extremal_pi == (3, 3, 2, 1, 1, 1, 1)
    assert max_degree_extremal(19, 4).extremal_pi == (4,) * 5 + (3,) + (1,) * 13
    assert max_degree_extremal(4, 3).extremal_pi == (3, 1, 1, 1)
    assert leaves_extremal(7, 3).extremal_pi == (3, 2, 2, 2, 1, 1, 1)
    assert leaves_extremal(5, 4).extremal_pi == (4, 1, 1, 1, 1)
    assert independence_extremal(5, 3).extremal_pi == (3, 2, 1, 1, 1)
    assert matching_extremal(5, 2).extremal_pi == (3, 2, 1, 1, 1)
    assert matching_extremal(7, 1).extremal_pi == (6, 1, 1, 1, 1, 1, 1)


def test_class_max_sequence_infeasible():
    cases = [
        (max_degree_extremal, 5, 1, "need 2 <= delta <= n-1, got delta=1, n=5"),
        (max_degree_extremal, 5, 5, "need 2 <= delta <= n-1, got delta=5, n=5"),
        (leaves_extremal, 5, 1, "need 2 <= s <= n-1, got s=1, n=5"),
        (leaves_extremal, 5, 5, "need 2 <= s <= n-1, got s=5, n=5"),
        (independence_extremal, 6, 2, "need ceil(n/2) <= alpha <= n-1, got alpha=2, n=6"),
        (independence_extremal, 6, 6, "need ceil(n/2) <= alpha <= n-1, got alpha=6, n=6"),
        (matching_extremal, 6, 0, "need 1 <= beta <= n//2, got beta=0, n=6"),
        (matching_extremal, 6, 4, "need 1 <= beta <= n//2, got beta=4, n=6"),
    ]
    for answer, n, k, message in cases:
        with pytest.raises(InfeasibleConstraint) as info:
            answer(n, k)
        assert str(info.value) == message


def test_class_max_sequence_cap():
    assert len(max_degree_extremal(_CLASS_LIMIT, 3).extremal_pi) == _CLASS_LIMIT
    for answer, n, k in (
        (max_degree_extremal, _CLASS_LIMIT + 1, 3),
        (leaves_extremal, _CLASS_LIMIT + 1, 3),
        (independence_extremal, 10**20, 10**20 - 1),
        (matching_extremal, 10**5000, 1),  # past the int-digit limit of str
    ):
        with pytest.raises(TooLarge):
            answer(n, k)


def test_class_max_dominates_class_members():
    # The class sequence majorizes every realizable sequence in its class.
    for delta in range(2, 8):
        top = max_degree_extremal(8, delta).extremal_pi
        for pi in realizable_sequences(8):
            if pi[0] == delta:
                assert majorizes(top, pi) in ("greater", "equal")
    for s in range(2, 8):
        top = leaves_extremal(8, s).extremal_pi
        for pi in realizable_sequences(8):
            if sum(1 for d in pi if d == 1) == s:
                assert majorizes(top, pi) in ("greater", "equal")

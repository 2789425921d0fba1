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
from subtrees.majorization import (
    _CLASS_LIMIT,
    Independence,
    Leaves,
    Matching,
    MaxDegree,
    class_max_sequence,
    majorization_chain,
    majorizes,
)
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
    assert class_max_sequence(MaxDegree(n=7, delta=3)) == (3, 3, 2, 1, 1, 1, 1)
    assert class_max_sequence(MaxDegree(n=19, delta=4)) == (4,) * 5 + (3,) + (1,) * 13
    assert class_max_sequence(MaxDegree(n=4, delta=3)) == (3, 1, 1, 1)
    assert class_max_sequence(Leaves(n=7, s=3)) == (3, 2, 2, 2, 1, 1, 1)
    assert class_max_sequence(Leaves(n=5, s=4)) == (4, 1, 1, 1, 1)
    assert class_max_sequence(Independence(n=5, alpha=3)) == (3, 2, 1, 1, 1)
    assert class_max_sequence(Matching(n=5, beta=2)) == (3, 2, 1, 1, 1)
    assert class_max_sequence(Matching(n=7, beta=1)) == (6, 1, 1, 1, 1, 1, 1)


def test_class_max_sequence_infeasible():
    cases = [
        MaxDegree(n=5, delta=1),
        MaxDegree(n=5, delta=5),
        Leaves(n=5, s=1),
        Leaves(n=5, s=5),
        Independence(n=6, alpha=2),
        Independence(n=6, alpha=6),
        Matching(n=6, beta=0),
        Matching(n=6, beta=4),
    ]
    for constraint in cases:
        with pytest.raises(InfeasibleConstraint):
            class_max_sequence(constraint)


def test_class_max_sequence_cap():
    assert len(class_max_sequence(MaxDegree(n=_CLASS_LIMIT, delta=3))) == _CLASS_LIMIT
    for constraint in (
        MaxDegree(n=_CLASS_LIMIT + 1, delta=3),
        Leaves(n=_CLASS_LIMIT + 1, s=3),
        Independence(n=10**20, alpha=10**20 - 1),
        Matching(n=10**5000, beta=1),  # past the int-digit limit of str
    ):
        with pytest.raises(TooLarge):
            class_max_sequence(constraint)


def test_class_max_dominates_class_members():
    # The returned sequence majorizes every realizable sequence in its class.
    for delta in range(2, 8):
        top = class_max_sequence(MaxDegree(n=8, delta=delta))
        for pi in realizable_sequences(8):
            if pi[0] == delta:
                assert majorizes(top, pi) in ("greater", "equal")
    for s in range(2, 8):
        top = class_max_sequence(Leaves(n=8, s=s))
        for pi in realizable_sequences(8):
            if sum(1 for d in pi if d == 1) == s:
                assert majorizes(top, pi) in ("greater", "equal")

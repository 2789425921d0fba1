"""Ground-truth machinery: Pruefer codes, enumeration, brute-force counts."""

from __future__ import annotations

import itertools
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    enumerated_class,
    path,
    random_trees,
    reference_enumerate_trees,
    reference_free_trees,
    reference_grow_trees,
    reference_order_census,
    spider,
    star,
)
from subtrees.counting import count_subtrees
from subtrees.errors import InvalidVertex, NotRealizable, TooLarge
from subtrees.majorization import majorizes
from subtrees.oracle import (
    _ENUMERATION_LIMIT,
    _SEQUENCE_LIMIT,
    _free_trees,
    _order_census,
    connected_subsets,
    count_subtrees_bruteforce,
    enumerate_trees,
    labeled_tree_count,
    prufer_sequences,
    realizable_sequences,
    tree_from_prufer,
)
from subtrees.trees import (
    canonical_code,
    degree_sequence_of,
    is_isomorphic,
    tree_from_edges,
    validate_degree_sequence,
)


def test_prufer_decode_hand_traced():
    assert tree_from_prufer((0, 0), 4).edges == ((0, 1), (0, 2), (0, 3))
    assert tree_from_prufer((1, 2), 4).edges == ((0, 1), (1, 2), (2, 3))
    assert tree_from_prufer((), 2).edges == ((0, 1),)


def test_prufer_decode_matches_networkx():
    nx = pytest.importorskip("networkx")

    def check(code, n):
        # Tree edges are sorted pairs, u < v, in lexicographic order.
        theirs = sorted((min(e), max(e)) for e in nx.from_prufer_sequence(list(code)).edges)
        assert tree_from_prufer(code, n).edges == tuple(theirs)

    for n in range(2, 8):
        for code in itertools.product(range(n), repeat=n - 2):
            check(code, n)
    # Orders spread evenly on a log scale up to 2000.
    rng = random.Random(24)
    for _ in range(200):
        n = max(2, round(2000 ** rng.random()))
        check([rng.randrange(n) for _ in range(n - 2)], n)


def test_prufer_decode_rejects():
    with pytest.raises(NotRealizable):
        tree_from_prufer((0,), 4)
    with pytest.raises(NotRealizable):
        tree_from_prufer((), 1)
    with pytest.raises(InvalidVertex):
        tree_from_prufer((4, 0), 4)
    # A one-vertex sequence is valid, but it has no Pruefer sequences.
    with pytest.raises(NotRealizable, match=re.escape("Pruefer sequences need n >= 2")):
        next(prufer_sequences((0,)))


@given(st.integers(3, 9), st.data())
def test_prufer_degree_multiset(n, data):
    code = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)))
    t = tree_from_prufer(code, n)
    for v in range(n):
        assert t.degree(v) == code.count(v) + 1


def test_prufer_sequences_lexicographic():
    seqs = list(prufer_sequences((2, 2, 1, 1)))
    assert seqs == [(0, 1), (1, 0)]
    assert list(prufer_sequences((1, 1))) == [()]
    seqs5 = list(prufer_sequences((2, 2, 2, 1, 1)))
    assert seqs5 == sorted(seqs5)
    assert len(seqs5) == 6  # 3!/1


def test_enumerate_trees_examples():
    assert len(list(enumerate_trees((2, 2, 2, 1, 1)))) == 1
    assert labeled_tree_count((2, 2, 2, 1, 1)) == 6
    only = next(enumerate_trees((3, 1, 1, 1)))
    assert is_isomorphic(only, star(4))
    classes = list(enumerate_trees((3, 2, 2, 1, 1, 1)))
    assert len(classes) == 2
    codes = {canonical_code(t) for t in classes}
    assert codes == {canonical_code(spider(1, 2, 2)), canonical_code(spider(1, 1, 3))}


@given(st.sampled_from([pi for n in range(1, 13) for pi in realizable_sequences(n)]))
def test_enumerate_trees_degree_sequences(pi):
    for t in enumerate_trees(pi):
        assert degree_sequence_of(t) == pi


def test_enumerate_trees_matches_pruefer_reference():
    # Leaf-by-leaf growth against decoding and deduping every labeled tree.
    for n in range(1, 11):
        for pi in realizable_sequences(n):
            codes = [canonical_code(t) for t in enumerate_trees(pi)]
            assert len(codes) == len(set(codes))
            reference = list(reference_enumerate_trees(pi))
            assert set(codes) == {canonical_code(t) for t in reference}
            assert enumerated_class(pi).max_phi == max(map(count_subtrees, reference))


def test_enumerate_trees_matches_leaf_growth_reference():
    # The free-tree stream against growing every class leaf by leaf.
    for n in range(1, 13):
        for pi in realizable_sequences(n):
            codes = [canonical_code(t) for t in enumerate_trees(pi)]
            assert len(codes) == len(set(codes))
            assert set(codes) == {canonical_code(t) for t in reference_grow_trees(pi)}


def test_iso_class_totals_match_published_tree_counts():
    # Number of unlabeled trees per order (OEIS A000055 for n >= 1), from
    # one stream pass per order; every degree sequence has its bucket.
    known = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
    known.update({10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159})
    known.update({15: 7741, 16: 19320, 17: 48629, 18: 123867})
    assert max(known) == _ENUMERATION_LIMIT
    for n, want in known.items():
        census = _order_census(n)
        assert sum(classes for classes, _, _ in census.values()) == want
        sequences = sorted(census, reverse=True)
        assert sequences == realizable_sequences(n)
        # ``verify --all-n`` checks only the pairs where the earlier
        # sequence majorizes the later one: no later one majorizes an earlier.
        for i, a in enumerate(sequences):
            assert all(majorizes(a, b) != "less" for b in sequences[i + 1 :])


def test_free_tree_stream_is_preorder_and_distinct():
    for n in range(1, 15):
        codes = set()
        for parent, _ in _free_trees(n):
            assert parent[0] == 0 and all(parent[v] < v for v in range(1, n))
            codes.add(canonical_code(tree_from_edges(n, list(zip(parent[1:], range(1, n))))))
        assert len(codes) == sum(classes for classes, _, _ in _order_census(n).values())


def test_incremental_stream_and_census_match_the_reference():
    # The in-place stream gives the reference's parent arrays tree by tree,
    # and changes none before the index it reports; the census it feeds
    # equals the one counted from scratch for every tree.
    for n in range(1, 15):
        previous = None
        for (parent, k), want in zip(_free_trees(n), reference_free_trees(n), strict=True):
            assert parent == want
            assert 1 <= k <= n and (previous is None or previous[:k] == parent[:k])
            previous = list(parent)
        assert _order_census.__wrapped__(n) == reference_order_census(n)


def test_order_census_is_cached_read_only():
    census = _order_census(6)
    assert _order_census(6) is census
    with pytest.raises(TypeError):
        census[(5, 1, 1, 1, 1, 1)] = (0, 0, 0)
    assert census[(5, 1, 1, 1, 1, 1)] == (1, 37, 1)


def test_enumeration_cap():
    too_long = (2,) * (_ENUMERATION_LIMIT - 1) + (1, 1)
    with pytest.raises(TooLarge):
        next(enumerate_trees(too_long))
    with pytest.raises(TooLarge):
        _order_census(_ENUMERATION_LIMIT + 1)


def test_iso_classes_match_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(4, 13):
        ours = set()
        for pi in realizable_sequences(n):
            for t in enumerate_trees(pi):
                ours.add(canonical_code(t))
        theirs = set()
        for g in nx.nonisomorphic_trees(n):
            edges = [tuple(e) for e in g.edges()]
            theirs.add(canonical_code(tree_from_edges(n, edges)))
        assert ours == theirs


def test_connected_subsets_exact_on_path():
    sets = list(connected_subsets(path(3)))
    assert len(sets) == len(set(sets)) == 6
    assert frozenset({0, 1, 2}) in sets and frozenset({0, 2}) not in sets


def test_connected_subsets_grouped_by_smallest_vertex():
    t = spider(1, 2, 2)
    sets = list(connected_subsets(t))
    assert len(sets) == len(set(sets)) == count_subtrees(t)
    minima = [min(s) for s in sets]
    assert minima == sorted(minima)
    assert set(minima) == set(range(t.n))


def test_connected_subsets_on_long_path():
    # The first group, of the sets through vertex 0, is one set per prefix
    # {0..k}; a recursive grower overflows the stack here.
    sizes = []
    for s in itertools.islice(connected_subsets(path(2000)), 2000):
        assert s == frozenset(range(len(s)))
        sizes.append(len(s))
    assert sorted(sizes) == list(range(1, 2001))


def test_count_subtrees_bruteforce_examples():
    assert count_subtrees_bruteforce(path(4)) == 10
    assert count_subtrees_bruteforce(star(5)) == 20
    assert count_subtrees_bruteforce(spider(1, 1, 3)) == 24


def test_bruteforce_limit():
    assert count_subtrees_bruteforce(path(16)) == 16 * 17 // 2
    with pytest.raises(TooLarge, match="brute force capped at 16 vertices, tree has 17"):
        count_subtrees_bruteforce(path(17))


@settings(max_examples=30)
@given(random_trees(min_n=2, max_n=11))
def test_bruteforce_agrees_with_dp(t):
    assert count_subtrees_bruteforce(t) == count_subtrees(t)


def test_enumerate_trees_spider_class():
    summary = enumerated_class((3, 2, 2, 1, 1, 1))
    assert summary.max_phi == 25
    assert summary.labeled_count == 12
    assert len(summary.iso_classes) == 2
    assert len(summary.maximizers) == 1
    code, tree, phi = summary.maximizers[0]
    assert phi == 25 and is_isomorphic(tree, spider(1, 2, 2))
    assert code == canonical_code(tree)
    # Triples are sorted by canonical code.
    assert [c for c, _, _ in summary.iso_classes] == sorted(
        c for c, _, _ in summary.iso_classes
    )


def test_enumerate_trees_trivial_classes():
    p = enumerated_class((2, 2, 2, 2, 1, 1))
    assert len(p.iso_classes) == 1 and p.max_phi == 21
    s = enumerated_class((5, 1, 1, 1, 1, 1))
    assert len(s.iso_classes) == 1 and s.max_phi == 2 ** 5 + 5


def test_enumerate_trees_limit():
    with pytest.raises(TooLarge):
        enumerated_class((2,) * 17 + (1, 1))
    # The 15-vertex path, past the first cap of 14, needs no knob.
    assert enumerated_class((2,) * 13 + (1, 1)).max_phi == 15 * 16 // 2


def test_realizable_sequences():
    assert realizable_sequences(1) == [(0,)]
    assert realizable_sequences(2) == [(1, 1)]
    assert realizable_sequences(6) == [
        (5, 1, 1, 1, 1, 1),
        (4, 2, 1, 1, 1, 1),
        (3, 3, 1, 1, 1, 1),
        (3, 2, 2, 1, 1, 1),
        (2, 2, 2, 2, 1, 1),
    ]
    with pytest.raises(NotRealizable, match=re.escape("need n >= 1")):
        realizable_sequences(0)
    for n in range(2, 10):
        for pi in realizable_sequences(n):
            assert sum(pi) == 2 * (n - 1)
            assert all(pi[i] >= pi[i + 1] for i in range(n - 1))


def test_realizable_sequences_are_every_partition_once():
    # Distinct valid sequences, strictly descending, as many as the
    # partitions of n - 2: that is every sequence of order n, in order.
    partitions = [1] + [0] * (_SEQUENCE_LIMIT - 2)
    for part in range(1, _SEQUENCE_LIMIT - 1):
        for total in range(part, _SEQUENCE_LIMIT - 1):
            partitions[total] += partitions[total - part]
    assert partitions[38] == 26015
    for n in range(2, _SEQUENCE_LIMIT + 1):
        sequences = realizable_sequences(n)
        assert len(sequences) == partitions[n - 2]
        assert all(a > b for a, b in zip(sequences, sequences[1:]))
        assert all(validate_degree_sequence(pi) == pi for pi in sequences)


def test_realizable_sequences_do_not_recurse():
    script = (
        "import sys\n"
        "from subtrees.oracle import realizable_sequences\n"
        "sys.setrecursionlimit(30)\n"
        "print(len(realizable_sequences(40)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "26015\n", "")


def test_realizable_sequences_cap():
    # verify --all-n lists the sequences at the enumeration cap.
    assert _SEQUENCE_LIMIT >= _ENUMERATION_LIMIT
    assert len(realizable_sequences(_ENUMERATION_LIMIT)) == 231
    # The list grows about 1.2x per vertex, so the cap bounds the output;
    # a length above it is refused before any work, however large.
    for n in (_SEQUENCE_LIMIT + 1, 1100, 10**5000):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"^sequence listing capped at {_SEQUENCE_LIMIT} "):
            realizable_sequences(n)
        assert time.perf_counter() - start < 1


def test_labeled_count_weighted_total_is_cayley():
    from collections import Counter
    from math import factorial

    for n in range(2, 9):
        total = 0
        for pi in realizable_sequences(n):
            assignments = factorial(n)
            for mult in Counter(pi).values():
                assignments //= factorial(mult)
            total += labeled_tree_count(pi) * assignments
        assert total == n ** (n - 2)

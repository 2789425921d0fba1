"""Top-level acceptance checks.

Each criterion is one test, so `pytest -v` prints one pass/fail line per
criterion.  The exhaustive per-sequence sweeps for n <= 10 are shared
through a module-scoped fixture.
"""

from __future__ import annotations

import random
import time

import pytest

from helpers import path, star
from subtrees.counting import count_subtrees, f_vector
from subtrees.extremal import build_greedy_bfs, local_search_optimize
from subtrees.formulas import (
    independence_extremal,
    independence_number,
    leaves_extremal,
    matching_extremal,
    matching_number,
    wiener_index,
)
from subtrees.majorization import majorizes
from subtrees.oracle import (
    count_subtrees_bruteforce,
    extremal_by_enumeration,
    labeled_tree_count,
    prufer_sequences,
    realizable_sequences,
    tree_from_prufer,
)
from subtrees.trees import canonical_code, degree_sequence_of, is_isomorphic


@pytest.fixture(scope="module")
def sweep():
    """Exhaustive class summaries for every degree sequence with n <= 10."""
    return {
        n: {pi: extremal_by_enumeration(pi) for pi in realizable_sequences(n)}
        for n in range(1, 11)
    }


def test_criterion_01_path_star_closed_forms():
    start = time.monotonic()
    for n in range(1, 65):
        assert count_subtrees(path(n)) == n * (n + 1) // 2
        assert count_subtrees(star(n)) == 2 ** (n - 1) + n - 1
    assert time.monotonic() - start < 1.0


def test_criterion_02_dp_equals_bruteforce(sweep):
    start = time.monotonic()
    for classes in sweep.values():
        for summary in classes.values():
            for _, t, phi in summary.iso_classes:
                assert count_subtrees_bruteforce(t) == phi == count_subtrees(t)
    rng = random.Random(20240814)
    for _ in range(200):
        n = rng.randint(11, 14)
        code = tuple(rng.randrange(n) for _ in range(n - 2))
        t = tree_from_prufer(code, n)
        assert count_subtrees_bruteforce(t) == count_subtrees(t)
    assert time.monotonic() - start < 120


def test_criterion_03_greedy_is_unique_maximizer(sweep):
    start = time.monotonic()
    for n in range(4, 10):
        for pi, summary in sweep[n].items():
            greedy, _ = build_greedy_bfs(pi)
            assert len(summary.maximizers) == 1
            code, _, phi = summary.maximizers[0]
            assert code == canonical_code(greedy)
            assert phi == count_subtrees(greedy)
    assert time.monotonic() - start < 300


def test_criterion_04_phi_star_strictly_monotone():
    for n in range(2, 10):
        seqs = realizable_sequences(n)
        phi_star = [count_subtrees(build_greedy_bfs(pi)[0]) for pi in seqs]
        for i in range(len(seqs)):
            for j in range(i + 1, len(seqs)):
                rel = majorizes(seqs[i], seqs[j])
                if rel == "greater":
                    assert phi_star[i] > phi_star[j]
                elif rel == "less":
                    assert phi_star[i] < phi_star[j]


def test_criterion_05_f_argmax_structure(sweep):
    for n in range(1, 11):
        for summary in sweep[n].values():
            for _, t, _ in summary.iso_classes:
                fv = f_vector(t)
                assert len(fv.argmax) in (1, 2)
                if len(fv.argmax) == 2:
                    u, v = fv.argmax
                    assert v in t.adjacency[u]
    for n in range(1, 13):
        for pi in realizable_sequences(n):
            t, _ = build_greedy_bfs(pi)
            for v in f_vector(t).argmax:
                assert t.degree(v) == pi[0]


def test_criterion_06_bfs_order_monotonicity():
    for n in range(1, 13):
        for pi in realizable_sequences(n):
            t, _ = build_greedy_bfs(pi)
            fv = f_vector(t)
            for a, b in zip(range(t.n), range(1, t.n)):  # the BFS-ordering 0..n-1
                assert fv.values[a] >= fv.values[b]
                assert t.degree(a) >= t.degree(b)


def test_criterion_07_local_search_convergence(sweep):
    for n in range(1, 10):
        for pi, summary in sweep[n].items():
            target, _ = build_greedy_bfs(pi)
            for _, t, _ in summary.iso_classes:
                assert is_isomorphic(local_search_optimize(t), target)


def test_criterion_08_published_class_formulas(sweep):
    for n in range(2, 13):
        for alpha in range((n + 1) // 2, n):
            assert not independence_extremal(n, alpha).discrepancy_flag
    flagged_leaves = leaves_extremal(7, 3)
    assert flagged_leaves.printed_formula_value == 244
    assert flagged_leaves.phi == 36 and flagged_leaves.discrepancy_flag
    flagged_matching = matching_extremal(5, 2)
    assert flagged_matching.printed_formula_value == 13
    assert flagged_matching.phi == 17 and flagged_matching.discrepancy_flag
    best_leaves = max(
        phi
        for summary in sweep[7].values()
        for _, t, phi in summary.iso_classes
        if degree_sequence_of(t).count(1) == 3
    )
    assert flagged_leaves.phi == best_leaves
    best_matching = max(
        phi
        for summary in sweep[5].values()
        for _, t, phi in summary.iso_classes
        if matching_number(t) == 2
    )
    assert flagged_matching.phi == best_matching
    for n in range(4, 9):
        for alpha in range((n + 1) // 2, n):
            best_alpha = max(
                phi
                for summary in sweep[n].values()
                for _, t, phi in summary.iso_classes
                if independence_number(t) == alpha
            )
            assert independence_extremal(n, alpha).phi == best_alpha


def test_criterion_09_wiener_coincidence(sweep):
    for n in range(1, 10):
        for summary in sweep[n].values():
            phi_codes = {
                code for code, _, phi in summary.iso_classes if phi == summary.max_phi
            }
            wieners = [(wiener_index(t), code) for code, t, _ in summary.iso_classes]
            least = min(w for w, _ in wieners)
            wiener_codes = {code for w, code in wieners if w == least}
            assert phi_codes == wiener_codes


def test_criterion_10_prufer_totals_match_multinomial():
    for n in range(2, 10):
        for pi in realizable_sequences(n):
            generated = sum(1 for _ in prufer_sequences(pi))
            assert generated == labeled_tree_count(pi)

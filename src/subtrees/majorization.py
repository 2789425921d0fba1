"""Majorization order on degree sequences and unit-transfer chains.

Sequences are nonincreasing tuples of positive integers with equal sums.
``a`` majorizes ``b`` when every prefix sum of ``a`` is at least the
matching prefix sum of ``b``; trees with more concentrated degrees admit
more subtrees, so walking up the order walks toward the extremal tree.
"""

from __future__ import annotations

from typing import Sequence

from .errors import LengthMismatch, NotComparable, SumMismatch
from .trees import _decimal

__all__ = ["majorizes", "majorization_chain"]


def majorizes(a: Sequence[int], b: Sequence[int]) -> str:
    """Compare two sequences in the majorization order.

    Both are sorted nonincreasing first, so only their multisets matter.
    Returns "greater" when a majorizes b strictly, "less" for the reverse,
    "equal" for equal multisets and "incomparable" when the prefix-sum
    differences change sign.  Raises LengthMismatch or SumMismatch when the
    sequences are not comparable in principle.
    """
    a = sorted(a, reverse=True)
    b = sorted(b, reverse=True)
    if len(a) != len(b):
        raise LengthMismatch(f"lengths differ: {len(a)} vs {len(b)}")
    if sum(a) != sum(b):
        raise SumMismatch(f"sums differ: {_decimal(sum(a))} vs {_decimal(sum(b))}")
    seen_pos = seen_neg = False
    run_a = run_b = 0
    for x, y in zip(a, b):
        run_a += x
        run_b += y
        if run_a > run_b:
            seen_pos = True
        elif run_a < run_b:
            seen_neg = True
    if seen_pos and seen_neg:
        return "incomparable"
    if seen_pos:
        return "greater"
    if seen_neg:
        return "less"
    return "equal"


def _chain_step(a: list[int], b: Sequence[int]) -> tuple[int, int]:
    """One unit transfer moving a toward b, for a strictly below b.

    Let D(i) be the prefix-sum deficit of a against b.  The transfer adds 1
    at the first index j with D >= 1 and removes 1 at the first index
    k > j where the deficit returns to 0.  Then a stays nonincreasing
    (a[j] + 1 <= b[j] <= b[j-1] <= a[j-1], and a[k] - 1 >= b[k] >= b[k+1]
    >= a[k+1]), every entry stays positive (a[k] >= b[k] + 1 >= 2), and the
    deficit stays nonnegative while its total strictly drops, so the walk
    terminates at b.
    """
    deficit = 0
    j = -1
    k = -1
    for i in range(len(a)):
        deficit += b[i] - a[i]
        if j < 0 and deficit >= 1:
            j = i
        elif j >= 0 and deficit == 0:
            k = i
            break
    a[j] += 1
    a[k] -= 1
    return j, k


def majorization_chain(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, ...]]:
    """A chain of unit transfers from the smaller sequence up to the larger.

    Both sequences are sorted nonincreasing first and must be comparable
    with equal lengths and sums; the chain starts at the majorized one and
    ends at the other, each step adding 1 to an earlier entry and
    subtracting 1 from a later one.  All intermediate sequences are
    nonincreasing with positive entries, hence realizable as tree degree
    sequences whenever the endpoints are.
    Raises NotComparable for incomparable inputs.
    """
    a = tuple(sorted(a, reverse=True))
    b = tuple(sorted(b, reverse=True))
    relation = majorizes(a, b)
    if relation == "incomparable":
        raise NotComparable("sequences are incomparable in the majorization order")
    if relation == "equal":
        return [a]
    low, high = (a, b) if relation == "less" else (b, a)
    current = list(low)
    chain = [tuple(current)]
    while tuple(current) != high:
        _chain_step(current, high)
        chain.append(tuple(current))
    return chain

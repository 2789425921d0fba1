"""Majorization order on degree sequences and unit-transfer chains.

Sequences are nonincreasing tuples of positive integers with equal sums.
``a`` majorizes ``b`` when every prefix sum of ``a`` is at least the
matching prefix sum of ``b``; trees with more concentrated degrees admit
more subtrees, so walking up the order walks toward the extremal tree.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NotComparable, TooLarge
from .trees import _decimal, _ints

__all__ = ["majorizes", "majorization_chain"]

# Cap on the entries of a majorization chain, n times its length, which is
# known before the walk.  Path to star at n = 3,000 (9.0 * 10^6 entries)
# took 3.3 s and 145 MB as ``order --json`` (Python 3.11.7, 2-CPU x86-64
# VM), the output growing with the entries.
_CHAIN_LIMIT = 10**7


def majorizes(a: Sequence[int], b: Sequence[int]) -> str:
    """Compare two sequences in the majorization order.

    Both are sorted nonincreasing first, so only their multisets matter.
    Returns "greater" when a majorizes b strictly, "less" for the reverse,
    "equal" for equal multisets and "incomparable" when the prefix-sum
    differences change sign.  Raises NotComparable when the sequences are
    not comparable in principle: one is not iterable, an entry is not an
    integer, or the lengths or the sums differ.
    """
    a, b = (sorted(_ints(s, NotComparable, "sequence entry"), reverse=True) for s in (a, b))
    if len(a) != len(b):
        raise NotComparable(f"lengths differ: {len(a)} vs {len(b)}")
    if sum(a) != sum(b):
        raise NotComparable(f"sums differ: {_decimal(sum(a))} vs {_decimal(sum(b))}")
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


def _chain_step(a: list[int], b: Sequence[int]) -> None:
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


def majorization_chain(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, ...]]:
    """A chain of unit transfers from the smaller sequence up to the larger.

    Both sequences are sorted nonincreasing first and must be comparable
    with equal lengths and sums; the chain starts at the majorized one and
    ends at the other, each step adding 1 to an earlier entry and
    subtracting 1 from a later one.  All intermediate sequences are
    nonincreasing with positive entries, hence realizable as tree degree
    sequences whenever the endpoints are.
    Raises NotComparable where ``majorizes`` does and for incomparable
    inputs.  The chain has sum |a_i - b_i| / 2 steps, so its size is
    known before the walk: TooLarge when n times its length passes
    ``_CHAIN_LIMIT``.
    """
    a, b = (tuple(sorted(_ints(s, NotComparable, "sequence entry"), reverse=True)) for s in (a, b))
    relation = majorizes(a, b)
    if relation == "incomparable":
        raise NotComparable("sequences are incomparable in the majorization order")
    if relation == "equal":
        return [a]
    entries = len(a) * (sum(map(abs, map(int.__sub__, a, b))) // 2 + 1)
    if entries > _CHAIN_LIMIT:
        raise TooLarge(f"chains capped at {_CHAIN_LIMIT} entries, got {_decimal(entries)}")
    low, high = (a, b) if relation == "less" else (b, a)
    current = list(low)
    chain = [tuple(current)]
    while tuple(current) != high:
        _chain_step(current, high)
        chain.append(tuple(current))
    return chain

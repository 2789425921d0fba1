"""Majorization order on degree sequences and extremal-class sequences.

Sequences are nonincreasing tuples of positive integers with equal sums.
``a`` majorizes ``b`` when every prefix sum of ``a`` is at least the
matching prefix sum of ``b``; trees with more concentrated degrees admit
more subtrees, so walking up the order walks toward the extremal tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import InfeasibleConstraint, LengthMismatch, NotComparable, SumMismatch, TooLarge
from .trees import _decimal

__all__ = [
    "majorizes",
    "majorization_chain",
    "MaxDegree",
    "Leaves",
    "Independence",
    "Matching",
    "TreeClass",
    "class_max_sequence",
]

# Vertex cap for class answers, whose sequence, tree and output all grow
# with n.  At n = 10^6, ``class --json`` took 1.3 to 3.1 s and at most
# 175 MB; at 3 * 10^6, up to 22 s and 500 MB (alpha and beta, whose phi
# has ~n/3 digits, are the slow ones; Python 3.11.7, 2-CPU x86-64 VM).
_CLASS_LIMIT = 10**6


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


@dataclass(frozen=True)
class MaxDegree:
    """Trees on n vertices with maximum degree exactly delta."""

    n: int
    delta: int


@dataclass(frozen=True)
class Leaves:
    """Trees on n vertices with exactly s leaves."""

    n: int
    s: int


@dataclass(frozen=True)
class Independence:
    """Trees on n vertices with independence number alpha."""

    n: int
    alpha: int


@dataclass(frozen=True)
class Matching:
    """Trees on n vertices with matching number beta."""

    n: int
    beta: int


TreeClass = Union[MaxDegree, Leaves, Independence, Matching]


def class_max_sequence(constraint: TreeClass) -> tuple[int, ...]:
    """The majorization-maximal degree sequence inside the given class.

    Every tree in the class has a degree sequence majorized by the result,
    so the class's subtree-count maximizer realizes it.  Raises TooLarge
    for n above ``_CLASS_LIMIT``, before anything of size n is built, and
    InfeasibleConstraint when the class is empty.
    """
    if constraint.n > _CLASS_LIMIT:
        raise TooLarge(f"class answers capped at {_CLASS_LIMIT} vertices, got {_decimal(constraint.n)}")
    if isinstance(constraint, MaxDegree):
        n, delta = constraint.n, constraint.delta
        if not (2 <= delta <= n - 1):
            raise InfeasibleConstraint(f"need 2 <= delta <= n-1, got delta={delta}, n={n}")
        # Greedily stack entries of size delta; each costs delta - 1 of the
        # degree budget 2(n-1) - n beyond the all-ones baseline.
        m = (n - 2) // (delta - 1)
        c = (n - 1) - m * (delta - 1)
        return tuple([delta] * m + [c] + [1] * (n - m - 1))
    if isinstance(constraint, Leaves):
        n, s = constraint.n, constraint.s
        if not (2 <= s <= n - 1):
            raise InfeasibleConstraint(f"need 2 <= s <= n-1, got s={s}, n={n}")
        return (s, *[2] * (n - s - 1), *[1] * s)
    if isinstance(constraint, Independence):
        n, alpha = constraint.n, constraint.alpha
        if not ((n + 1) // 2 <= alpha <= n - 1):
            raise InfeasibleConstraint(
                f"need ceil(n/2) <= alpha <= n-1, got alpha={alpha}, n={n}"
            )
        return (alpha, *[2] * (n - alpha - 1), *[1] * alpha)
    if isinstance(constraint, Matching):
        n, beta = constraint.n, constraint.beta
        if not (1 <= beta <= n // 2):
            raise InfeasibleConstraint(f"need 1 <= beta <= n//2, got beta={beta}, n={n}")
        return (n - beta, *[2] * (beta - 1), *[1] * (n - beta))
    raise TypeError(f"unknown tree class {constraint!r}")

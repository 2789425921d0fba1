"""Closed-form subtree bounds, extremal-class answers and the Wiener index.

The class answers follow the paper's corollaries: within each class one
degree sequence majorizes every other, so the greedy tree of that
sequence is the class's subtree maximizer.  Each class operation builds
its sequence and returns a ClassAnswer bundling it, the exact subtree
count of its greedy BFS tree and, where the literature states a closed
form for that count, the published value with a discrepancy flag.
Several published expressions disagree with exact enumeration at small
sizes; the answers report the published value verbatim next to the
exact count instead of silently correcting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import InfeasibleConstraint, TooLarge
from .extremal import _greedy_phi
from .trees import Tree, _bfs, _decimal, _int, _tree

__all__ = [
    "ClassAnswer",
    "bound_path_star",
    "max_degree_extremal",
    "leaves_extremal",
    "independence_extremal",
    "matching_extremal",
    "wiener_index",
    "matching_number",
    "independence_number",
]

# Vertex cap for class answers and path-star bounds, whose sequence, tree
# and output all grow with n.  At n = 10^6, ``class --json`` took 0.3 to
# 0.7 s and at most 80 MB as a process; at 3 * 10^6, up to 1.9 s and 190 MB
# (leaves is the slow one; Python 3.11.7, 2-CPU x86-64 VM).
_CLASS_LIMIT = 10**6


@dataclass(frozen=True)
class ClassAnswer:
    """The extremal answer for one constrained class of trees.

    ``phi`` is always the exact subtree count of the greedy BFS tree of
    ``extremal_pi``, which is ``build_greedy_bfs(extremal_pi)[0]``.
    ``printed_formula_value`` holds the published closed form when one
    exists; ``discrepancy_flag`` is set exactly when that value differs
    from the exact count.
    """

    details: dict[str, int]
    extremal_pi: tuple[int, ...]
    phi: int
    printed_formula_value: int | None
    discrepancy_flag: bool


def _check_class(
    n: int, value: int, what: str, bounds: Callable[[int], tuple[int, int]], need: str
) -> tuple[int, int]:
    """n and the class parameter ``value`` (named ``what``) as ints, checked.

    Raises InfeasibleConstraint when either is not an integer, TooLarge
    for n above ``_CLASS_LIMIT``, before anything of size n is built, and
    InfeasibleConstraint unless low <= value <= high, where (low, high) =
    bounds(n).  ``need`` is that last message, formatted with ``n`` and
    ``value`` only once it is raised.
    """
    n = _int(n, InfeasibleConstraint, "n")
    value = _int(value, InfeasibleConstraint, what)
    if n > _CLASS_LIMIT:
        raise TooLarge(f"class answers capped at {_CLASS_LIMIT} vertices, got {_decimal(n)}")
    low, high = bounds(n)
    if not low <= value <= high:
        raise InfeasibleConstraint(need.format(n=_decimal(n), value=_decimal(value)))
    return n, value


def _answer(details: dict[str, int], pi: tuple[int, ...], printed: int | None) -> ClassAnswer:
    phi = _greedy_phi(pi)
    return ClassAnswer(
        details=details,
        extremal_pi=pi,
        phi=phi,
        printed_formula_value=printed,
        discrepancy_flag=printed is not None and printed != phi,
    )


def bound_path_star(n: int) -> tuple[int, int]:
    """The sharp lower and upper bounds on the subtree count at order n.

    The path attains n(n+1)/2 and the star attains 2^(n-1) + n - 1; every
    tree of order n lies in between.  Raises InfeasibleConstraint unless n
    is a positive integer, and TooLarge for n above ``_CLASS_LIMIT``.
    """
    n, _ = _check_class(n, n, "n", lambda n: (1, _CLASS_LIMIT), "need n >= 1, got {n}")
    return n * (n + 1) // 2, 2 ** (n - 1) + n - 1


def max_degree_extremal(n: int, delta: int) -> ClassAnswer:
    """The subtree maximizer among trees of order n with maximum degree delta.

    For delta >= 3 the winning sequence stacks as many delta-entries as the
    degree budget allows: with N_k the order of the complete tree whose
    internal vertices all have degree delta down to depth k, the depth p
    satisfies N_p < n <= N_{p+1} and n - N_p = (delta-1)r + q with
    0 <= q < delta - 1.  The published construction's residual entry reads
    q, which breaks the degree-sum identity whenever p >= 1 and q >= 1
    (the consistent entry is q + 1); the greedy sequence used here is
    sum-consistent in every case and agrees with the construction wherever
    that is.  delta = 2 degenerates to the path.
    """
    n, delta = _check_class(
        n, delta, "delta", lambda n: (2, n - 1), "need 2 <= delta <= n-1, got delta={value}, n={n}"
    )
    # Greedily stack entries of size delta; each costs delta - 1 of the
    # degree budget 2(n-1) - n beyond the all-ones baseline.
    m = (n - 2) // (delta - 1)
    c = (n - 1) - m * (delta - 1)
    pi = tuple([delta] * m + [c] + [1] * (n - m - 1))
    details: dict[str, int] = {}
    if delta >= 3:
        # N_k < n is equivalent to delta*(delta-1)^k < n*(delta-2)+2.
        p = 0
        while delta * (delta - 1) ** (p + 1) < n * (delta - 2) + 2:
            p += 1
        big_n = (delta * (delta - 1) ** p - 2) // (delta - 2)
        r, q = divmod(n - big_n, delta - 1)
        details = {"p": p, "r": r, "q": q}
    return _answer(details, pi, printed=None)


def leaves_extremal(n: int, s: int) -> ClassAnswer:
    """The subtree maximizer among trees of order n with exactly s leaves.

    The winner is the balanced spider: writing n - 1 = s*q + t, its legs
    are t paths of q + 1 edges and s - t paths of q edges.  Counting from
    first principles, subtrees through the center contribute
    (q+2)^t (q+1)^(s-t) and each leg contributes its own path count,
    giving t(q+1)(q+2)/2 + (s-t)q(q+1)/2 more.  The published closed form
    (q+2)^t + (q+1)^(s-t+2) does not match exact enumeration (already at
    n=7, s=3 it gives 244 against a true count of 36), so the flag is set
    whenever it disagrees.
    """
    n, s = _check_class(n, s, "s", lambda n: (2, n - 1), "need 2 <= s <= n-1, got s={value}, n={n}")
    pi = (s, *[2] * (n - s - 1), *[1] * s)
    q, t = divmod(n - 1, s)
    closed = (
        (q + 2) ** t * (q + 1) ** (s - t)
        + t * (q + 1) * (q + 2) // 2
        + (s - t) * q * (q + 1) // 2
    )
    printed = (q + 2) ** t + (q + 1) ** (s - t + 2)
    return _answer({"q": q, "t": t, "closed_form": closed}, pi, printed)


def independence_extremal(n: int, alpha: int) -> ClassAnswer:
    """The subtree maximizer among trees of order n with independence number alpha.

    The winner realizes (alpha, 2, ..., 2, 1^alpha): a star on alpha leaves
    with n - alpha - 1 of the leaves subdivided once.  The published closed
    form 2^(2*alpha-n+1) 3^(n-alpha-1) + 2n - alpha - 2 validates against
    exact counting.
    """
    n, alpha = _check_class(
        n,
        alpha,
        "alpha",
        lambda n: ((n + 1) // 2, n - 1),
        "need ceil(n/2) <= alpha <= n-1, got alpha={value}, n={n}",
    )
    pi = (alpha, *[2] * (n - alpha - 1), *[1] * alpha)
    printed = 2 ** (2 * alpha - n + 1) * 3 ** (n - alpha - 1) + 2 * n - alpha - 2
    return _answer({}, pi, printed)


def matching_extremal(n: int, beta: int) -> ClassAnswer:
    """The subtree maximizer among trees of order n with matching number beta.

    The winner realizes (n - beta, 2, ..., 2, 1^(n-beta)).  The published
    closed form 2^(n-2*beta+1) 3^(beta-1) + n - beta - 2 falls short of the
    exact count by 2*beta (already at n=5, beta=2 it gives 13 against 17;
    the matching class coincides with the independence class at
    alpha = n - beta, whose validated form ends in +n + beta - 2), so the
    flag is set whenever it disagrees.
    """
    n, beta = _check_class(
        n, beta, "beta", lambda n: (1, n // 2), "need 1 <= beta <= n//2, got beta={value}, n={n}"
    )
    pi = (n - beta, *[2] * (beta - 1), *[1] * (n - beta))
    printed = 2 ** (n - 2 * beta + 1) * 3 ** (beta - 1) + n - beta - 2
    return _answer({}, pi, printed)


def wiener_index(tree: Tree) -> int:
    """The sum of distances over all unordered vertex pairs.

    Every edge is counted once per pair it separates, so the total is the
    sum over edges of a*b where a and b are the two component orders left
    by deleting that edge: the edge from v to its parent, rooted at 0,
    splits off v's branch.  The root's term is n * 0.
    """
    n = _tree(tree).n
    parent, order = _bfs(tree.adjacency, 0)
    size = [1] * n
    for v in order[:0:-1]:
        size[parent[v]] += size[v]
    return sum(s * (n - s) for s in size)


def matching_number(tree: Tree) -> int:
    """The maximum number of pairwise disjoint edges.

    Greedy from the leaves upward is optimal in a tree: visiting vertices
    children-first, match a vertex to its parent whenever both are free
    (a leaf's only hope is its parent, so matching there never hurts).
    """
    parent, order = _bfs(_tree(tree).adjacency, 0)
    matched = bytearray(tree.n)
    count = 0
    for v in order[:0:-1]:
        p = parent[v]
        if not matched[v] and not matched[p]:
            matched[v] = matched[p] = 1
            count += 1
    return count


def independence_number(tree: Tree) -> int:
    """The maximum size of a set of pairwise nonadjacent vertices.

    Trees are bipartite, so the complement of a minimum vertex cover is a
    maximum independent set and the cover size equals the matching number.
    """
    return _tree(tree).n - matching_number(tree)

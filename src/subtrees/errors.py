"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "SubtreeError",
    "ParseError",
    "NotATree",
    "NotRealizable",
    "InvalidVertex",
    "NotComparable",
    "InfeasibleConstraint",
    "TooLarge",
]


class SubtreeError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SubtreeError):
    """Malformed textual input (edge list or degree sequence)."""


class NotATree(SubtreeError):
    """Edge set does not describe a tree on the given vertex range, or a
    value that is not a ``Tree`` where a function takes one."""


class NotRealizable(SubtreeError):
    """Degree sequence or vertex count that no tree has, non-integer
    entries and counts included."""


class InvalidVertex(SubtreeError):
    """Vertex argument that cannot serve its role: an id that is not an
    integer in the range 0..n-1, an empty vertex selection, or a vertex
    of ``swap_components`` that is repeated, not a neighbor, or whose
    branch would disconnect the tree."""


class NotComparable(SubtreeError):
    """Sequences that cannot be compared or are incomparable in the
    majorization order: an entry that is not an integer, different
    lengths or sums, or prefix sums that cross."""


class InfeasibleConstraint(SubtreeError):
    """No tree satisfies the requested class constraint, or a class
    parameter is not an integer."""


class TooLarge(SubtreeError):
    """Input exceeds a documented size cap (exhaustive work, a sequence listing,
    a class answer, a path-star bound, a majorization chain)."""

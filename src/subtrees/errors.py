"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "SubtreeError",
    "ParseError",
    "NotATree",
    "NotRealizable",
    "InvalidVertex",
    "EmptySet",
    "InvalidCut",
    "LengthMismatch",
    "SumMismatch",
    "NotComparable",
    "InfeasibleConstraint",
    "TooLarge",
]


class SubtreeError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SubtreeError):
    """Malformed textual input (edge list or degree sequence)."""


class NotATree(SubtreeError):
    """Edge set does not describe a tree on the given vertex range."""


class NotRealizable(SubtreeError):
    """Degree sequence cannot be realized by any tree."""


class InvalidVertex(SubtreeError):
    """Vertex id that is not an integer in the range 0..n-1."""


class EmptySet(SubtreeError):
    """An operation that needs at least one vertex received none."""


class InvalidCut(SubtreeError):
    """Requested component detachment does not produce a valid split."""


class LengthMismatch(SubtreeError):
    """Sequences being compared must have equal length."""


class SumMismatch(SubtreeError):
    """Sequences being compared must have equal sum."""


class NotComparable(SubtreeError):
    """Sequences are incomparable in the majorization order."""


class InfeasibleConstraint(SubtreeError):
    """No tree satisfies the requested class constraint."""


class TooLarge(SubtreeError):
    """Input exceeds a documented size cap: exhaustive work, a sequence
    listing, a class answer or a path-star bound."""

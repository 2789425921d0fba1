"""Subtree counting and extremal trees for prescribed degree sequences.

The number of subtrees of a tree (nonempty connected induced subgraphs)
is maximized, among all trees with a fixed degree sequence, by a unique
greedy breadth-first tree; the maximum grows strictly along the
majorization order on sequences.  This package computes subtree counts
exactly, builds the extremal trees, walks majorization chains, answers
extremal questions for constrained classes, and verifies all of it
against brute-force enumeration.

Each public name is declared once, in its module's ``__all__``; the
package re-exports those lists.
"""

from __future__ import annotations

from . import counting, errors, extremal, formulas, majorization, oracle, trees
from .counting import *
from .errors import *
from .extremal import *
from .formulas import *
from .majorization import *
from .oracle import *
from .trees import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += trees.__all__
__all__ += counting.__all__
__all__ += extremal.__all__
__all__ += formulas.__all__
__all__ += majorization.__all__
__all__ += oracle.__all__
__all__ += errors.__all__

"""Command-line interface for subtree counting and extremal trees.

Usage:
    subtrees count TREEFILE [--json]
    subtrees build --pi SEQ [--json]
    subtrees verify (--pi SEQ | --all-n N) [--json]
    subtrees order --a SEQ --b SEQ [--json]
    subtrees class --type {maxdeg,leaves,alpha,beta} --n N --k K [--json]

TREEFILE holds an edge list: the vertex count on the first line, then one
"u v" pair per line.  SEQ is a comma-separated nonincreasing degree
sequence such as 3,2,2,1,1,1.  An argument @FILE stands for the lines of
FILE, one argument per line, so a sequence too long for one command-line
argument can be passed as "subtrees build @FILE" with "--pi" and SEQ on
two lines.  All counts print exactly; --json swaps the human-readable
output for a stable JSON report with counts as decimal strings.

Exit codes: 0 success, 2 unreadable input file, 3 invalid values
(unrealizable sequence, malformed argument, infeasible class), 4 verified
claim violated, 5 instance too large (exhaustive verification past 18
vertices, a class answer past 10^6, an order chain of n * length past
10^7 entries).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from decimal import Decimal, localcontext
from typing import Any, Callable, Mapping, Sequence

from . import __version__
from .counting import _argmax, _phi_from_parents, _rerooted_counts, _rooted_counts
from .errors import NotRealizable, ParseError, SubtreeError, TooLarge
from .extremal import _greedy_parents, _layer_sizes
from .formulas import (
    independence_extremal,
    leaves_extremal,
    matching_extremal,
    max_degree_extremal,
)
from .majorization import majorization_chain, majorizes
from .oracle import _order_census, labeled_tree_count
from .trees import _EXACT, _decimal, _edge_ends, _peel_leaves
from .trees import parse_degree_sequence, parse_edge_list

__all__ = ["build_parser", "main"]

# ``count`` keeps counts of at most this many digits in ints.  Per value,
# str plus one top-down step took 1.50 us in ints against 1.69 us in
# decimals at 200 digits, and 2.89 against 2.66 us at 300 (Python 3.11.7,
# 2-CPU x86-64 VM).  Below 640, the least int-digit limit an interpreter
# accepts, so str of such an int never raises.
_INT_DIGITS = 200

_BLOCK = 1 << 16  # characters per written block


def _sequence_argument(text: str) -> tuple[int, ...]:
    """Parse a --pi style argument, mapping syntax errors to exit code 3."""
    try:
        return parse_degree_sequence(text)
    except ParseError as exc:
        raise NotRealizable(str(exc)) from exc


def _fmt_seq(seq: Sequence[int], sep: str = ",") -> str:
    """``sep.join(map(str, seq))``, one run of equal entries at a time: a
    degree sequence of 10^5 entries has only a few distinct values."""
    text = "".join([f"{d}{sep}" * len(list(run)) for d, run in itertools.groupby(seq)])
    return text[: len(text) - len(sep)]


def _report(command: str, inputs: dict, outputs: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "timing": None,
        "version": __version__,
    }


def _write_items(item: str, sep: str, columns: Sequence, longest: Any, head: str, tail: str) -> None:
    """Write ``head``, the items ``item % (column[i] for column in columns)``
    joined by ``sep``, and ``tail``.  One C-level ``%`` call on a flat tuple
    formats each block of about ``_BLOCK`` characters, a size ``longest`` sets."""
    k, stop = len(columns), len(columns[0])
    per_block = max(1, _BLOCK // (len(item % ((longest,) * k)) + len(sep)))
    sys.stdout.write(head)
    for i in range(0, stop, per_block):
        flat = [None] * (k * (min(i + per_block, stop) - i))
        for c, column in enumerate(columns):
            flat[c::k] = column[i : i + per_block]
        text = sep.join([item] * (len(flat) // k)) % tuple(flat)
        sys.stdout.write(sep + text if i else text)
    sys.stdout.write(tail)


def _emit(
    args: argparse.Namespace,
    report: Callable[[], dict],
    human: Callable[[], Sequence[str]],
    items: tuple[str, str, str, Sequence, Any] | None = None,
    splice: Callable[[], Mapping[str, str]] | None = None,
) -> None:
    """Print the JSON report or the human text, building only the one printed.

    The report holds None at each key that is spliced in, and its JSON is
    cut around that ``"key": null``; ``json`` escapes the quotes inside
    strings, so no string can hold that.  ``splice`` maps report keys to
    the JSON text of their values.  Without ``items``, ``human`` gives the
    lines.  ``items`` is the one long list, (report key, JSON item, human
    item, columns, longest value), and ``human`` then gives the text before
    and after it.  Its items are written in blocks: back to back in the
    human text, or joined by ", " into the report's list.
    """
    if args.json:
        text = json.dumps(report(), sort_keys=True)
        for key, value in (splice() if splice else {}).items():
            head, _, tail = text.rpartition(f'"{key}": null')
            text = f'{head}"{key}": {value}{tail}'
    if items is None:
        print(text if args.json else "\n".join(human()))
        return
    key, json_item, human_item, columns, longest = items
    if args.json:
        head, _, tail = text.rpartition(f'"{key}": null')
        _write_items(json_item, ", ", columns, longest, f'{head}"{key}": [', f"]{tail}\n")
    else:
        _write_items(human_item, "", columns, longest, *human())


def _edge_items(parent: Sequence[int]) -> tuple[str, str, str, Sequence, Any]:
    """``_emit``'s items for the edges (parent[v], v) of a parents-first array."""
    return "edges", "[%d, %d]", "%d %d\n", (parent[1:], range(1, len(parent))), len(parent)


def _parents_first(text: str) -> tuple[list[int], list[int]]:
    """Parent links and a parents-first order of the tree in an edge-list text.

    Leaves are peeled off the flat edge ends, so no ``Tree`` and no
    adjacency list is built; the peel fails only on a non-tree, whose
    exact error ``parse_edge_list``'s full check raises.
    """
    n, ends = _edge_ends(text)
    rooted = _peel_leaves(n, ends) if max(ends, default=0) < n else None
    if rooted is None:
        parse_edge_list(text)
    return rooted


def cmd_count(args: argparse.Namespace) -> int:
    """Count subtrees of the tree in a file: phi, per-vertex f, argmax.

    The root is wherever the leaf peel ends; phi, f and the argmax do not
    depend on it.  The rooted pass runs in ints.  If phi, the largest count,
    has at most ``_INT_DIGITS`` digits, the top-down pass and the text stay
    in ints, which are faster there; above it, both passes rerun in exact
    decimals, whose text is linear in their digits, where an int's is
    quadratic (1,500-digit f values of a random 10^4-vertex tree took nine
    times as long to print as ints as the DP took to find them).  phi is
    the int pass's sum either way, printed with ``_decimal``.  The f values
    are written with ``%s``, linear for a decimal, in 64 KiB blocks.
    """
    try:
        with open(args.treefile, encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {args.treefile}: {exc}") from exc
    parent, order = _parents_first(text)
    del text
    n = len(parent)
    f = _rooted_counts(parent, order)
    phi = sum(map(f.__getitem__, reversed(order)))
    if phi < 10**_INT_DIGITS:
        _rerooted_counts(parent, order, f)
    else:
        del f
        with localcontext(_EXACT):
            f = _rooted_counts(parent, order, Decimal(1))
            _rerooted_counts(parent, order, f)
    phi = _decimal(phi)
    argmax = list(_argmax(f))
    # The f texts are plain digits and need no escaping.
    outputs = {"phi": phi, "f": None, "argmax": argmax}
    _emit(
        args,
        lambda: _report("count", {"treefile": args.treefile, "n": n}, outputs),
        lambda: (f"n: {n}\nphi: {phi}\nf:", f"\nargmax: {' '.join(map(str, argmax))}\n"),
        ("f", '"%s"', " %s", (f,), phi),
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    """Build the greedy BFS tree of a degree sequence and print it.

    The greedy parent array is the tree: ids are the BFS order and each
    parent precedes its children, so no ``Tree`` is built and no BFS run;
    ``_emit`` writes its edges in blocks.
    """
    pi = _sequence_argument(args.pi)
    parent = _greedy_parents(pi)
    sizes = _layer_sizes(parent)
    phi = _decimal(_phi_from_parents(parent))
    outputs = {"edges": None, "layer_sizes": list(sizes), "phi": phi}
    _emit(
        args,
        lambda: _report("build", {"pi": None}, outputs),
        lambda: (f"{len(pi)}\n", f"layer_sizes: {_fmt_seq(sizes)}\nphi: {phi}\n"),
        _edge_items(parent),
        lambda: {"pi": f"[{_fmt_seq(pi, ', ')}]"},
    )
    return 0


def _verify_sequence(pi: tuple[int, ...], census: Mapping) -> dict:
    """Check one degree sequence against its order's census: the greedy tree
    must be the unique subtree-count maximizer among all realizations."""
    classes, max_phi, at_max = census[pi]
    return {
        "pi": list(pi),
        "iso_classes": classes,
        "labeled_count": str(labeled_tree_count(pi)),
        "max_phi": str(max_phi),
        "maximizer_count": at_max,
        "greedy_is_unique_max": at_max == 1 and max_phi == _phi_from_parents(_greedy_parents(pi)),
    }


def cmd_verify(args: argparse.Namespace) -> int:
    """Verify extremality claims by exhaustive enumeration.

    One pass over the free trees of the order gives every sequence's
    census, once per process; one sequence reads its own bucket of it, so
    further sequences of that order cost no enumeration.
    """
    if args.pi is not None:
        pi = _sequence_argument(args.pi)
        result = _verify_sequence(pi, _order_census(len(pi)))
        ok = result["greedy_is_unique_max"]
        _emit(
            args,
            lambda: _report("verify", {"pi": list(pi)}, {**result, "pass": ok}),
            lambda: [
                f"pi: {_fmt_seq(pi)}",
                f"iso_classes: {result['iso_classes']}",
                f"labeled_count: {result['labeled_count']}",
                f"max_phi: {result['max_phi']}",
                f"maximizer_count: {result['maximizer_count']}",
                "PASS" if ok else "FAIL: greedy tree is not the unique maximizer",
            ],
        )
        return 0 if ok else 4

    n = args.all_n
    if n < 1:
        raise NotRealizable(f"need n >= 1, got {n}")
    census = _order_census(n)
    sequences = sorted(census, reverse=True)  # every sequence of order n
    results = [_verify_sequence(pi, census) for pi in sequences]
    all_unique = all(r["greedy_is_unique_max"] for r in results)
    # Strict growth along the majorization order: a sequence that
    # majorizes another must have the larger extremal count.  The list
    # descends lexicographically, and a distinct sequence that majorizes
    # another is lexicographically larger, so a later b never majorizes
    # an earlier a: the comparable pairs are those where a majorizes b.
    monotonic_ok = True
    checked_pairs = 0
    for i, a in enumerate(sequences):
        for b in sequences[i + 1 :]:
            if majorizes(a, b) == "greater":
                checked_pairs += 1
                if census[a][1] <= census[b][1]:
                    monotonic_ok = False
    ok = all_unique and monotonic_ok
    _emit(
        args,
        lambda: _report(
            "verify",
            {"all_n": n},
            {
                "sequences": results,
                "comparable_pairs": checked_pairs,
                "monotonic_ok": monotonic_ok,
                "all_unique": all_unique,
                "pass": ok,
            },
        ),
        lambda: [
            *(
                f"pi={_fmt_seq(r['pi'])} classes={r['iso_classes']} "
                f"max_phi={r['max_phi']} "
                + ("ok" if r["greedy_is_unique_max"] else "VIOLATION")
                for r in results
            ),
            f"comparable_pairs: {checked_pairs}",
            f"monotonic_ok: {str(monotonic_ok).lower()}",
            "PASS" if ok else "FAIL",
        ],
    )
    return 0 if ok else 4


def cmd_order(args: argparse.Namespace) -> int:
    """Compare two degree sequences and walk the chain between them."""
    a = _sequence_argument(args.a)
    b = _sequence_argument(args.b)
    relation = majorizes(a, b)
    chain = [] if relation == "incomparable" else majorization_chain(a, b)
    phis = [_decimal(_phi_from_parents(_greedy_parents(pi))) for pi in chain]
    found = {"chain": chain, "phi_star": phis} if chain else {}
    _emit(
        args,
        lambda: _report("order", {"a": list(a), "b": list(b)}, {"relation": relation, **found}),
        lambda: [
            f"relation: {relation}",
            *([f"chain_length: {len(chain)}"] if chain else []),
            *(f"{_fmt_seq(pi)} phi={phi}" for pi, phi in zip(chain, phis)),
        ],
    )
    return 0


_CLASS_FUNCTIONS = {
    "maxdeg": max_degree_extremal,
    "leaves": leaves_extremal,
    "alpha": independence_extremal,
    "beta": matching_extremal,
}


def cmd_class(args: argparse.Namespace) -> int:
    """Extremal answer for a constrained class of trees.

    The edges print from the greedy parent array of the answer's sequence,
    so the answer's ``Tree`` is never built; ``_emit`` writes them in
    blocks.  The ``details`` values are ints, such as the leaves class's
    exact spider count, so they are spliced in as JSON numbers written by
    ``_decimal``, which has no int-digit limit.
    """
    answer = _CLASS_FUNCTIONS[args.type](args.n, args.k)
    parent = _greedy_parents(answer.extremal_pi)
    printed = answer.printed_formula_value
    _emit(
        args,
        lambda: _report(
            "class",
            {"type": args.type, "n": args.n, "k": args.k},
            {
                "pi": None,
                "edges": None,
                "phi": _decimal(answer.phi),
                "printed_formula_value": None if printed is None else _decimal(printed),
                "discrepancy_flag": answer.discrepancy_flag,
                "details": None,
            },
        ),
        lambda: (
            f"type: {args.type}\nn: {args.n}\nk: {args.k}\npi: {_fmt_seq(answer.extremal_pi)}\n",
            f"phi: {_decimal(answer.phi)}\n"
            + ("" if printed is None else f"printed_formula: {_decimal(printed)}\n")
            + f"discrepancy: {str(answer.discrepancy_flag).lower()}\n",
        ),
        _edge_items(parent),
        lambda: {
            "pi": f"[{_fmt_seq(answer.extremal_pi, ', ')}]",
            "details": "{%s}"
            % ", ".join(f'"{k}": {_decimal(answer.details[k])}' for k in sorted(answer.details)),
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line; ``main`` keeps one of its own."""
    parser = argparse.ArgumentParser(
        prog="subtrees",
        description="Exact subtree counts and extremal trees for degree sequences.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count subtrees of a tree file")
    p_count.add_argument("treefile", help="edge-list file: n, then n-1 lines 'u v'")
    p_count.add_argument("--json", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_build = sub.add_parser("build", help="build the greedy BFS tree of a sequence")
    p_build.add_argument("--pi", required=True, help="degree sequence, e.g. 3,2,2,1,1,1")
    p_build.add_argument("--json", action="store_true")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="exhaustively verify extremality")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--pi", help="verify one degree sequence")
    group.add_argument("--all-n", type=int, help="verify every sequence of length n")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_order = sub.add_parser("order", help="compare sequences in the majorization order")
    p_order.add_argument("--a", required=True, help="first degree sequence")
    p_order.add_argument("--b", required=True, help="second degree sequence")
    p_order.add_argument("--json", action="store_true")
    p_order.set_defaults(func=cmd_order)

    p_class = sub.add_parser("class", help="extremal tree for a constrained class")
    p_class.add_argument(
        "--type", required=True, choices=sorted(_CLASS_FUNCTIONS), help="class kind"
    )
    p_class.add_argument("--n", required=True, type=int, help="number of vertices")
    p_class.add_argument("--k", required=True, type=int, help="class parameter")
    p_class.add_argument("--json", action="store_true")
    p_class.set_defaults(func=cmd_class)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; the parser is built on the first call and reused."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except SubtreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

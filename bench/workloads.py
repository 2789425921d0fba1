"""The benchmark's workloads: seeded op lists and the check for each op.

An op either calls ``subtrees.cli.main`` with an argument list (its output
is what it prints) or calls a public library function through ``LIBRARY``
with JSON-able arguments (its output is the returned value).  ``check``
returns ``None`` for a correct output and a one-line reason otherwise; it
judges with ``reference`` only.

Why these workloads:

- ``small`` is every tree of at most 23 vertices the benchmark touches.
  First the exhaustive claim of the paper at n = 10, the work of
  ``verify --all-n 10``: one ``verify --pi`` call for each of the 22
  degree sequences (95,503 Pruefer decodes, 106 isomorphism classes in
  all) and the 231 majorization comparisons between them; the oracle
  layer does this work, and its input does not depend on the seed.  Then
  local search on three random trees for each n in 16..23: thousands of
  tiny ``count_subtrees`` calls on freshly validated trees, the opposite
  balance from ``large`` in the same layers.  Many small trees rather
  than one tree per n in 24..36 keep a pass short, so each op is
  repeated more often in a run, and make the total work vary less from
  seed to seed (the work of one local search varies up to threefold).
- ``large`` is the exact-count promise on big trees: ``count`` on random
  trees (n = 10^4, where output volume, not the algorithm, sets the size)
  and on a path and a spider (n = 10^5, where traversal dominates), and
  ``build``/``class`` at n = 10^5.  Six of its ten ops succeed: the other
  four print a phi of more than 4300 digits, which fails today and is
  counted as a failure rather than removed.

There are two workloads rather than three (sweep, large, search), so that
within the time allowed for all runs each run is long enough to repeat
every op several times.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

SWEEP_N = 10
LARGE_N = 10**5
RANDOM_COUNT_N = 10**4
RANDOM_COUNT_TREES = 2
SPIDER_LEGS = 5
SEARCH_SIZES = range(16, 24)
SEARCH_TREES_PER_SIZE = 3


@dataclass
class Op:
    """One unit of work: a CLI call (``argv``) or a library call (``call``,
    a ``LIBRARY`` name followed by its arguments)."""

    kind: str
    label: str
    check: Callable[[object], str | None]
    argv: list[str] | None = None
    call: tuple | None = None
    facts: dict = field(default_factory=dict)


class ExitStatus(Exception):
    """The CLI returned a nonzero exit status."""


def run_op(argv: list[str] | None, call: tuple | None, out) -> object:
    """Run one op through the current bindings (traced or not).

    CLI output goes to the text stream ``out``; a library call returns its value.
    """
    if argv is None:
        name, *args = call
        return LIBRARY[name](*args)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = sys.modules["subtrees.cli"].main(argv)
    if status != 0:
        raise ExitStatus(f"exit{status}")
    return None


def make_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    makers = {"small": small_ops, "large": large_ops}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(makers)}")
    return makers[workload](random.Random(seed), workdir)


def _report(text: str) -> dict:
    return json.loads(text)["outputs"]


# -- small -----------------------------------------------------------------


def small_ops(rng: random.Random, workdir: str) -> list[Op]:
    return sweep_ops(rng, workdir) + search_ops(rng, workdir)




def sweep_ops(rng: random.Random, workdir: str) -> list[Op]:
    sequences = ref.tree_sequences(SWEEP_N)
    ops = [
        Op(
            kind="verify",
            label=f"verify --pi {','.join(map(str, pi))}",
            argv=["verify", "--pi", ",".join(map(str, pi)), "--json"],
            check=functools.partial(check_verify, pi=pi),
        )
        for pi in sequences
    ]
    ops.append(
        Op(
            kind="majorizes",
            label=f"majorizes on all pairs of the {len(sequences)} sequences",
            call=("majorize_pairs", [list(pi) for pi in sequences]),
            check=functools.partial(check_majorize_pairs, sequences=sequences),
        )
    )
    return ops


def majorize_pairs(sequences: list[list[int]]) -> list[str]:
    majorizes = sys.modules["subtrees.majorization"].majorizes
    return [majorizes(a, b) for a, b in itertools.combinations(sequences, 2)]


def check_verify(text: str, pi: tuple[int, ...]) -> str | None:
    out = _report(text)
    if out.get("pass") is not True:
        return "verify did not pass"
    if tuple(out["pi"]) != pi:
        return f"verified {out['pi']}, asked for {list(pi)}"
    n = len(pi)
    classes = ref.free_tree_classes(n)[pi]
    if out["iso_classes"] != classes:
        return f"{out['iso_classes']} isomorphism classes, expected {classes}"
    greedy = ref.phi(n, ref.greedy_edges(list(pi)))
    if ref.decimal_to_int(out["max_phi"]) != greedy:
        return f"max_phi {out['max_phi']} != greedy phi {greedy}"
    if ref.decimal_to_int(out["labeled_count"]) != ref.labeled_count(pi):
        return "labeled_count differs from the multinomial count"
    return None


def check_majorize_pairs(relations: list[str], sequences) -> str | None:
    expected = [ref.relation(a, b) for a, b in itertools.combinations(sequences, 2)]
    if relations != expected:
        wrong = sum(a != b for a, b in zip(relations, expected))
        return f"{wrong} of {len(expected)} relations differ from the reference"
    return None


# -- large -----------------------------------------------------------------


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random composition of total into parts positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def _branchy_sequence(rng: random.Random, n: int, branches: int) -> list[int]:
    """A tree degree sequence on n vertices with the given number of 3..5s."""
    high = [rng.randint(3, 5) for _ in range(branches)]
    leaves = 2 + sum(d - 2 for d in high)
    return sorted(high, reverse=True) + [2] * (n - branches - leaves) + [1] * leaves


def large_ops(rng: random.Random, workdir: str) -> list[Op]:
    ops = []

    def count_op(label: str, n: int, edges, expected_phi: Callable[[], int]) -> Op:
        path = os.path.join(workdir, f"{label}.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(ref.edge_list_text(n, edges))
        return Op(
            kind="count",
            label=f"count {label} n={n}",
            argv=["count", path, "--json"],
            check=lambda text: check_count(text, n, edges, expected_phi()),
        )

    for i in range(RANDOM_COUNT_TREES):
        n = RANDOM_COUNT_N
        edges = ref.random_tree_edges(rng, n)
        ops.append(count_op(f"random{i}", n, edges, lambda n=n, e=edges: ref.phi(n, e)))
    n = LARGE_N
    ops.append(count_op("path", n, ref.path_edges(n), lambda: ref.path_phi(n)))
    legs = _split(rng, n - 1, SPIDER_LEGS)
    ops.append(count_op("spider", n, ref.spider_edges(legs), lambda: ref.spider_phi(legs)))

    for label, branches in (("few-branches", 10), ("many-branches", 4000)):
        pi = _branchy_sequence(rng, n, branches)
        ops.append(
            Op(
                kind="build",
                label=f"build {label} n={n}",
                argv=["build", "--pi", ",".join(map(str, pi)), "--json"],
                check=lambda text, pi=pi: check_build(text, pi),
            )
        )

    for kind, k in (
        ("maxdeg", rng.randint(3, 5)),
        ("leaves", rng.randint(2, 300)),
        ("alpha", rng.randint(n // 2 + 1, 9 * n // 10)),
        ("beta", rng.randint(10, 4 * n // 10)),
    ):
        ops.append(
            Op(
                kind="class",
                label=f"class {kind} n={n} k={k}",
                argv=["class", "--type", kind, "--n", str(n), "--k", str(k), "--json"],
                check=lambda text, kind=kind, k=k: check_class(text, kind, n, k),
            )
        )
    return ops


def check_argmax(n: int, edges, f: list[str], argmax: list[int]) -> str | None:
    """At most two maximizers of f, adjacent when two, and truly maximal."""
    if len(f) != n:
        return f"f has {len(f)} entries, expected {n}"
    if not 1 <= len(argmax) <= 2:
        return f"argmax has {len(argmax)} vertices"
    if len(argmax) == 2:
        a, b = argmax
        if (a, b) not in edges and (b, a) not in edges:
            return f"argmax vertices {a} and {b} are not adjacent"
        if f[a] != f[b]:
            return "argmax vertices have different counts"
    top = f[argmax[0]]
    if any(ref.decimal_less(top, x) for x in f):
        return "argmax is not maximal"
    return None


def check_count(text: str, n: int, edges, expected_phi: int) -> str | None:
    out = _report(text)
    if ref.decimal_to_int(out["phi"]) != expected_phi:
        return "phi differs from the reference count"
    return check_argmax(n, set(edges), out["f"], out["argmax"])


def _check_tree(edges, pi) -> str | None:
    edges = [tuple(e) for e in edges]
    n = len(pi)
    if not ref.is_tree(n, edges):
        return "output edges do not form a tree"
    if ref.degree_multiset(n, edges) != sorted(pi, reverse=True):
        return "output tree has the wrong degree sequence"
    return None


def check_build(text: str, pi: list[int]) -> str | None:
    out = _report(text)
    bad = _check_tree(out["edges"], pi)
    if bad:
        return bad
    if sum(out["layer_sizes"]) != len(pi):
        return "layer sizes do not add up to n"
    n = len(pi)
    got = ref.decimal_to_int(out["phi"])
    if got != ref.phi(n, [tuple(e) for e in out["edges"]]):
        return "phi differs from the reference count of the output tree"
    if got != ref.phi(n, ref.greedy_edges(pi)):
        return "phi differs from the reference greedy tree"
    return None


def check_class(text: str, kind: str, n: int, k: int) -> str | None:
    out = _report(text)
    bad = _check_tree(out["edges"], out["pi"])
    if bad:
        return bad
    got = ref.decimal_to_int(out["phi"])
    if got != ref.phi(n, [tuple(e) for e in out["edges"]]):
        return "phi differs from the reference count of the output tree"
    pi = out["pi"]
    measured = {
        "maxdeg": max(pi),
        "leaves": pi.count(1),
        "alpha": n - ref.matching_number(n, out["edges"]),
        "beta": ref.matching_number(n, out["edges"]),
    }[kind]
    if measured != k:
        return f"the output tree has {kind} = {measured}, expected {k}"
    if kind == "leaves":
        q, t = divmod(n - 1, k)
        if got != ref.spider_phi([q + 1] * t + [q] * (k - t)):
            return "leaves phi differs from the balanced-spider closed form"
        if got != out["details"]["closed_form"]:
            return "leaves phi differs from the answer's closed_form detail"
    return None


# -- search ----------------------------------------------------------------


def search_ops(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for n in SEARCH_SIZES:
        for i in range(SEARCH_TREES_PER_SIZE):
            edges = ref.random_tree_edges(rng, n)
            facts: dict = {}
            ops.append(
                Op(
                    kind="search",
                    label=f"local_search n={n} #{i}",
                    call=("local_search", n, [list(e) for e in edges]),
                    check=functools.partial(check_search, n=n, edges=edges, facts=facts),
                    facts=facts,
                )
            )
    return ops


def local_search(n: int, edges: list[list[int]]) -> tuple:
    tree = sys.modules["subtrees.trees"].tree_from_edges(n, edges)
    result = sys.modules["subtrees.extremal"].local_search_optimize(tree)
    return result.n, result.edges


def check_search(result, n: int, edges, facts: dict) -> str | None:
    """Degrees kept and phi(input) <= phi(result) <= phi(greedy)."""
    rn, redges = result
    pi = ref.degree_multiset(n, edges)
    if rn != n:
        return f"result has {rn} vertices, expected {n}"
    bad = _check_tree(redges, pi)
    if bad:
        return bad
    before, after = ref.phi(n, edges), ref.phi(n, redges)
    best = ref.phi(n, ref.greedy_edges(pi))
    if not before <= after <= best:
        return f"phi went {before} -> {after} with greedy optimum {best}"
    facts["optimum"] = after == best
    return None


LIBRARY = {"majorize_pairs": majorize_pairs, "local_search": local_search}

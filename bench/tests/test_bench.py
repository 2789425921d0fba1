"""Tests for the benchmark's metric arithmetic, tracer and output checks.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import metrics
import reference as ref
import run
import workloads
from tracing import Tracer, layer_times

ROOT = Path(__file__).resolve().parents[2]


def cli(*argv: str) -> str:
    from subtrees.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def tamper(text: str, edit) -> str:
    report = json.loads(text)
    edit(report["outputs"])
    return json.dumps(report)


# -- metric arithmetic -----------------------------------------------------


def test_ratios_and_wall_sums():
    assert metrics.ratio(3, 4) == 0.75
    assert metrics.ratio(3, 0) == 0.0
    walls = [[1.0, 3.0, 2.0], [5.0], [4.0, 6.0]]
    assert metrics.pass_wall(walls) == 1.0 + 5.0 + 4.0


def test_paced_wall_divides_each_repeat_by_its_pace():
    walls = [[2.0, 3.0, 8.0], [1.0]]
    paces = [[1.0, 1.5, 2.0], [0.5]]
    # per-op medians of wall / pace: median(2, 2, 4) = 2 and 2
    assert metrics.paced_wall(walls, paces, 0.25) == pytest.approx(0.25 * (2.0 + 2.0))


def test_accepted_moves_counts_strict_new_maxima():
    assert metrics.accepted_moves([]) == (0, 0)
    assert metrics.accepted_moves([5]) == (0, 0)
    assert metrics.accepted_moves([5, 3, 6, 6, 7, 2]) == (5, 2)


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_is_span_minus_direct_children():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 2.0, 5.0, 0),
        span("c", 6.0, 7.0, 0),
        span("b", 6.2, 6.5, 2),
    ]
    self_s, busy_s = layer_times(spans)
    assert self_s["a"] == pytest.approx(6.0)
    assert self_s["b"] == pytest.approx(3.3)
    assert self_s["c"] == pytest.approx(0.7)
    assert busy_s["a"] == pytest.approx(10.0)
    assert busy_s["b"] == pytest.approx(3.3)


def test_busy_time_counts_reentry_once():
    spans = [span("b", 0.0, 4.0, -1), span("b", 1.0, 2.0, 0)]
    self_s, busy_s = layer_times(spans)
    assert busy_s["b"] == pytest.approx(4.0)
    assert self_s["b"] == pytest.approx(4.0)


def test_pass_layer_metrics_shares_and_counts():
    self_s = Counter({"oracle.enumerate_trees": 3.0, "oracle.prufer_sequences": 1.0, "cli.main": 0.5})
    busy_s = Counter({"trees.tree_from_edges": 2.0})
    calls = Counter({"trees.tree_from_edges": 7})
    items = Counter({"oracle.prufer_sequences": 200, "oracle.enumerate_trees": 5})
    out = metrics.pass_layer_metrics(self_s, busy_s, calls, items, 5.0, scored=10, accepted=2)
    assert out["oracle.self_share"] == pytest.approx(0.8)
    assert out["cli.self_share"] == pytest.approx(0.1)
    assert out["counting.self_share"] == 0.0
    assert out["oracle.enumerate_trees.self_share"] == pytest.approx(0.6)
    assert out["trees.tree_from_edges.busy_share"] == pytest.approx(0.4)
    assert out["trees.tree_from_edges.calls"] == 7
    assert out["oracle.dedupe_ratio"] == pytest.approx(5 / 200)
    assert out["extremal.accept_ratio"] == pytest.approx(0.2)
    assert out["trace.pass_wall_s"] == 5.0


# -- tracer ----------------------------------------------------------------


@pytest.fixture
def fake_package():
    """A two-module package shaped like subtrees, for the tracer to wrap."""
    names = ["fakepkg", "fakepkg.trees", "fakepkg.counting", "fakepkg.oracle", "fakepkg.cli"]
    mods = {name: types.ModuleType(name) for name in names}
    exec("def root_at(x):\n    return x\n", mods["fakepkg.trees"].__dict__)
    counting = mods["fakepkg.counting"]
    counting.root_at = mods["fakepkg.trees"].root_at
    exec("def count_subtrees(x):\n    return root_at(x) + 1\n", counting.__dict__)
    exec(
        "def prufer_sequences(n):\n    yield from range(n)\n"
        "def enumerate_trees(n):\n    seen = set()\n"
        "    for code in prufer_sequences(n):\n        if code % 2 not in seen:\n"
        "            seen.add(code % 2)\n            yield code\n",
        mods["fakepkg.oracle"].__dict__,
    )
    cli_mod = mods["fakepkg.cli"]
    cli_mod.count_subtrees = mods["fakepkg.counting"].count_subtrees
    cli_mod.TABLE = {"count": mods["fakepkg.counting"].count_subtrees}
    sys.modules.update(mods)
    yield mods
    for name in names:
        del sys.modules[name]


def test_tracer_wraps_every_binding_and_restores_them(fake_package):
    counting, cli_mod = fake_package["fakepkg.counting"], fake_package["fakepkg.cli"]
    original = counting.count_subtrees
    tracer = Tracer()
    tracer.observers["counting.count_subtrees"] = []
    tracer.install("fakepkg")
    assert cli_mod.count_subtrees(1) == 2
    assert cli_mod.TABLE["count"](2) == 3
    assert tracer.observers["counting.count_subtrees"] == [2, 3]
    spans, calls, _ = tracer.take()
    assert calls == Counter({"counting.count_subtrees": 2, "trees.root_at": 2})
    names = [(s[0], s[3]) for s in spans]
    assert names == [
        ("counting.count_subtrees", -1),
        ("trees.root_at", 0),
        ("counting.count_subtrees", -1),
        ("trees.root_at", 2),
    ]
    tracer.uninstall()
    assert counting.count_subtrees is original
    assert cli_mod.count_subtrees is original
    assert cli_mod.TABLE["count"] is original


def test_tracer_times_generators_per_resumption(fake_package):
    oracle = fake_package["fakepkg.oracle"]
    tracer = Tracer()
    tracer.install("fakepkg")
    assert list(oracle.enumerate_trees(6)) == [0, 1]
    spans, calls, items = tracer.take()
    tracer.uninstall()
    assert calls == Counter({"oracle.enumerate_trees": 1, "oracle.prufer_sequences": 1})
    assert items == Counter({"oracle.prufer_sequences": 6, "oracle.enumerate_trees": 2})
    # Every prufer resumption nests inside an enumerate_trees resumption.
    for s in spans:
        if s[0] == "oracle.prufer_sequences":
            assert spans[s[3]][0] == "oracle.enumerate_trees"
    self_s, _ = layer_times(spans)
    assert all(v >= 0 for v in self_s.values())


# -- reference code --------------------------------------------------------


def test_reference_counts_match_closed_forms():
    for n in range(1, 9):
        assert ref.phi(n, ref.path_edges(n)) == ref.path_phi(n)
        star = [(0, i) for i in range(1, n)]
        assert ref.phi(n, star) == 2 ** (n - 1) + n - 1
    legs = [3, 1, 4, 1, 5]
    assert ref.phi(sum(legs) + 1, ref.spider_edges(legs)) == ref.spider_phi(legs)
    assert ref.phi(6, ref.greedy_edges([3, 2, 2, 1, 1, 1])) == 25


def test_reference_sequences_and_pairs_at_n10():
    seqs = ref.tree_sequences(10)
    assert len(seqs) == 22
    # 231 pairs are compared; 15 of them are incomparable.
    relations = Counter(ref.relation(a, b) for a, b in itertools.combinations(seqs, 2))
    assert relations == Counter({"greater": 216, "incomparable": 15})
    assert ref.relation((2, 2, 1, 1), (3, 1, 1, 1)) == "less"
    assert ref.relation((2, 2, 1, 1), (2, 2, 1, 1)) == "equal"


def test_reference_free_tree_classes():
    for n in range(1, 11):
        classes = ref.free_tree_classes(n)
        assert sum(classes.values()) == ref.FREE_TREES[n]
    classes = ref.free_tree_classes(10)
    assert sorted(classes) == sorted(ref.tree_sequences(10))
    assert classes[(2,) * 8 + (1, 1)] == 1
    assert ref.free_tree_classes(6)[(3, 3, 1, 1, 1, 1)] == 1
    assert ref.free_tree_classes(6)[(3, 2, 2, 1, 1, 1)] == 2


def test_reference_random_trees_are_trees():
    import random

    rng = random.Random(0)
    for n in range(2, 30):
        edges = ref.random_tree_edges(rng, n)
        assert ref.is_tree(n, edges)
    assert not ref.is_tree(3, [(0, 1), (1, 0)])
    assert ref.matching_number(5, ref.path_edges(5)) == 2


def test_decimal_to_int_past_the_digit_limit():
    digits = 9000
    assert ref.decimal_to_int("7" * digits) == 7 * (10**digits - 1) // 9
    assert ref.decimal_less("99", "100")
    assert not ref.decimal_less("100", "100")


# -- output checks on tiny inputs ------------------------------------------


def test_check_verify_accepts_the_cli_and_rejects_edits():
    pi = (3, 2, 2, 1, 1, 1)
    good = cli("verify", "--pi", "3,2,2,1,1,1", "--json")
    assert workloads.check_verify(good, pi) is None
    assert workloads.check_verify(good, (2, 2, 2, 2, 1, 1)) is not None

    def bump_phi(out):
        out["max_phi"] = str(int(out["max_phi"]) + 1)

    def drop_class(out):
        out["iso_classes"] -= 1

    def fail(out):
        out["pass"] = False

    for edit in (bump_phi, drop_class, fail):
        assert workloads.check_verify(tamper(good, edit), pi) is not None


def test_check_majorize_pairs():
    importlib.import_module("subtrees.majorization")
    seqs = ref.tree_sequences(6)
    relations = workloads.majorize_pairs([list(pi) for pi in seqs])
    assert workloads.check_majorize_pairs(relations, seqs) is None
    relations[0] = "incomparable" if relations[0] != "incomparable" else "greater"
    assert workloads.check_majorize_pairs(relations, seqs) is not None


def test_check_count_on_a_path(tmp_path):
    n = 6
    edges = ref.path_edges(n)
    tree_file = tmp_path / "p.txt"
    tree_file.write_text(ref.edge_list_text(n, edges))
    good = cli("count", str(tree_file), "--json")
    assert workloads.check_count(good, n, edges, ref.path_phi(n)) is None
    assert workloads.check_count(good, n, edges, ref.path_phi(n) + 1) is not None

    def far_apart(out):
        out["argmax"] = [0, 5]

    assert workloads.check_count(tamper(good, far_apart), n, edges, ref.path_phi(n)) is not None


def test_check_argmax():
    edges = {(0, 1), (1, 2)}
    assert workloads.check_argmax(3, edges, ["2", "4", "4"], [1, 2]) is None
    assert workloads.check_argmax(3, edges, ["2", "4", "4"], [1]) is None
    assert workloads.check_argmax(3, edges, ["4", "2", "4"], [0, 2]) is not None
    assert workloads.check_argmax(3, edges, ["2", "3", "4"], [1]) is not None
    assert workloads.check_argmax(3, edges, ["2", "4"], [1]) is not None


def test_check_build_and_class():
    pi = [3, 2, 2, 1, 1, 1]
    good = cli("build", "--pi", "3,2,2,1,1,1", "--json")
    assert workloads.check_build(good, pi) is None
    assert workloads.check_build(good, [2, 2, 2, 2, 1, 1]) is not None

    def wrong_phi(out):
        out["phi"] = "24"

    assert workloads.check_build(tamper(good, wrong_phi), pi) is not None

    leaves = cli("class", "--type", "leaves", "--n", "7", "--k", "3", "--json")
    assert workloads.check_class(leaves, "leaves", 7, 3) is None
    assert workloads.check_class(leaves, "leaves", 7, 4) is not None

    def wrong_closed_form(out):
        out["details"]["closed_form"] += 1

    assert workloads.check_class(tamper(leaves, wrong_closed_form), "leaves", 7, 3) is not None
    beta = cli("class", "--type", "beta", "--n", "8", "--k", "3", "--json")
    assert workloads.check_class(beta, "beta", 8, 3) is None


def test_check_search():
    from subtrees import local_search_optimize, tree_from_edges

    n = 9
    edges = ref.path_edges(n)
    result = local_search_optimize(tree_from_edges(n, edges))
    facts: dict = {}
    assert workloads.check_search((result.n, result.edges), n, edges, facts) is None
    assert facts["optimum"] is True
    star = tuple((0, i) for i in range(1, n))
    assert workloads.check_search((n, star), n, edges, {}) is not None


# -- failure accounting ----------------------------------------------------


def op(kind, check=lambda out: None, **kwargs):
    return workloads.Op(kind=kind, label=kind, check=check, **kwargs)


@pytest.fixture
def library(monkeypatch):
    """Library calls for fake ops, by name, in place of workloads.LIBRARY."""
    counter = itertools.count()

    def boom():
        raise ValueError("too many digits")

    fake = {"one": lambda: 1, "boom": boom, "flaky": lambda: next(counter)}
    monkeypatch.setattr(workloads, "LIBRARY", fake)
    return fake


def test_failures_are_counted_by_kind_and_reason(library):
    ops = [
        op("ok", call=("one",)),
        op("raises", call=("boom",)),
        op("flaky", call=("flaky",)),
        op("wrong", call=("one",), check=lambda out: "bad"),
    ]
    r = run.Run(ops)
    r.run_pass(None)
    r.run_pass(None)
    assert r.attempted == 8
    assert r.failures == Counter(
        {
            ("raises", "ValueError"): 2,
            ("flaky", "output changed between repeats"): 1,
            ("wrong", "wrong output"): 2,
        }
    )
    assert r.correct is False
    e2e = r.end_to_end([0.1, 0.3, 0.2])
    assert e2e["ok_ratio"][0] == pytest.approx(3 / 8)
    assert e2e["setup_s"][0] == pytest.approx(0.2)


def test_nonzero_exit_is_a_failure():
    importlib.import_module("subtrees.cli")
    r = run.Run([op("count", argv=["count", "/nonexistent/tree.txt", "--json"])])
    r.run_pass(None)
    assert r.failures == Counter({("count", "exit2"): 1})
    assert r.correct is True


def test_fresh_process_runs_are_judged_against_the_first_output(library):
    ops = [op("ok", call=("one",)), op("ok", call=("one",)), op("raises", call=("boom",))]
    r = run.Run(ops)
    r.run_pass(None)
    same = hashlib.sha256(b"1").hexdigest()
    r.take_peak({"outcomes": [["ok", same], ["ok", "0" * 64], ["error", "ValueError"]],
                 "peak_rss_mb": 12.5})
    assert r.attempted == 6
    assert r.failures == Counter(
        {("raises", "ValueError"): 2, ("ok", "output differs in a fresh process"): 1}
    )
    assert r.correct is False
    assert r.end_to_end([1.0])["peak_rss_mb"][0] == 12.5


def test_peak_process_hashes_outputs_as_this_process_does(tmp_path):
    n = 5
    tree_file = tmp_path / "p.txt"
    tree_file.write_text(ref.edge_list_text(n, ref.path_edges(n)))
    ops = [
        op("count", argv=["count", str(tree_file), "--json"]),
        op("count", argv=["count", str(tmp_path / "missing.txt"), "--json"]),
        op("search", call=("local_search", n, [list(e) for e in ref.path_edges(n)])),
    ]
    found = run.peak_in_fresh_process(run.start_peak_process(), ops)
    text = cli("count", str(tree_file), "--json")
    assert found["outcomes"][0] == ["ok", hashlib.sha256(text.encode()).hexdigest()]
    assert found["outcomes"][1] == ["error", "exit2"]
    assert found["outcomes"][2][0] == "ok"
    r = run.Run(ops)
    r.run_pass(None)
    r.take_peak(found)
    assert r.failures == Counter({("count", "exit2"): 2})
    assert found["peak_rss_mb"] > 1


# -- the benchmark definition ----------------------------------------------


def test_benchmark_json_matches_the_harness(library):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER
    )
    r = run.Run([op("ok", call=("one",))])
    r.run_pass(None)
    produced = r.end_to_end([1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in produced.items()
    }
    assert [w["name"] for w in spec["workloads"]] == ["small", "large"]

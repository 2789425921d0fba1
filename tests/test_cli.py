"""End-to-end command-line behavior: outputs, JSON stability, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import unittest.mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    Digest,
    comb,
    int_digit_limit,
    path,
    random_trees,
    reference_blocks,
    reference_build_output,
    reference_chain,
    reference_class_output,
    reference_decimal,
    reference_emit,
    reference_parse_edge_list,
    reference_phi_star,
    reference_relation,
    reference_tree_bfs,
    reference_verify_outputs,
    seeded_tree,
    spider,
    star,
)
from subtrees import cli, counting, extremal, trees
from subtrees.cli import main
from subtrees.counting import _rooted_counts, count_subtrees, f_vector
from subtrees.errors import InfeasibleConstraint, ParseError, SubtreeError, TooLarge
from subtrees.extremal import _greedy_parents, _layer_sizes
from subtrees.majorization import majorizes
from subtrees.oracle import _ENUMERATION_LIMIT, enumerate_trees, realizable_sequences
from subtrees.trees import Tree, _edge_ends, _peel_leaves, format_edge_list, parse_degree_sequence
from subtrees.trees import tree_from_edges


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.txt"
    f.write_text("4\n0 1\n1 2\n2 3\n")
    return str(f)


def test_count_human(capsys, p4_file):
    code, out, _ = run(capsys, "count", p4_file)
    assert code == 0
    assert "phi: 10" in out
    assert "f: 4 6 6 4" in out
    assert "argmax: 1 2" in out


def test_count_json_shape_and_stability(capsys, p4_file):
    code, out1, _ = run(capsys, "count", p4_file, "--json")
    assert code == 0
    code, out2, _ = run(capsys, "count", p4_file, "--json")
    assert out1 == out2
    report = json.loads(out1)
    assert report["command"] == "count"
    assert report["outputs"]["phi"] == "10"
    assert report["outputs"]["f"] == ["4", "6", "6", "4"]
    assert report["outputs"]["argmax"] == [1, 2]
    assert report["timing"] is None
    assert report["version"]


def test_count_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "count", str(tmp_path / "absent.txt"))
    assert code == 2 and "error" in err


def test_count_malformed_file(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("4\n0 1\nnope\n2 3\n")
    code, _, err = run(capsys, "count", str(f))
    assert code == 2 and "error" in err


def test_count_non_ascii_file(capsys, tmp_path):
    f = tmp_path / "weird.txt"
    f.write_bytes("4\n0 1\n1 2\n2 3 é\n".encode())
    code, _, _ = run(capsys, "count", str(f))
    assert code == 2


def test_count_structurally_invalid_file(capsys, tmp_path):
    f = tmp_path / "cycle.txt"
    f.write_text("4\n0 1\n1 2\n0 2\n")
    code, _, err = run(capsys, "count", str(f))
    assert code == 3 and "error" in err


def test_build_human(capsys):
    code, out, _ = run(capsys, "build", "--pi", "3,2,2,1,1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "6"
    assert "layer_sizes: 1,3,2" in out
    assert "phi: 25" in out


def test_build_json(capsys):
    code, out, _ = run(capsys, "build", "--pi", "2,2,1,1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["edges"] == [[0, 1], [0, 2], [1, 3]]
    assert report["outputs"]["phi"] == "10"


def test_build_bad_sequences(capsys):
    assert run(capsys, "build", "--pi", "2,2")[0] == 3
    assert run(capsys, "build", "--pi", "abc")[0] == 3
    assert run(capsys, "build", "--pi", "")[0] == 3


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_sequences_may_come_in_any_order(capsys, flags):
    # A sequence is sorted nonincreasing before use, so a shuffled one
    # prints the same bytes as the sorted one.
    a, shuffled_a = "3,2,2,1,1,1", "1,2,1,3,2,1"
    b, shuffled_b = "2,2,2,2,1,1", "2,1,2,2,1,2"
    for argv, shuffled in [
        (("build", "--pi", a), ("build", "--pi", shuffled_a)),
        (("verify", "--pi", a), ("verify", "--pi", shuffled_a)),
        (("order", "--a", a, "--b", b), ("order", "--a", shuffled_a, "--b", shuffled_b)),
    ]:
        want = run(capsys, *argv, *flags)
        assert want[0] == 0 and want[1]
        assert run(capsys, *shuffled, *flags) == want


def test_huge_integer_tokens_exit_cleanly(capsys, tmp_path):
    # Tokens longer than the interpreter's int-digit limit are parse errors.
    huge = "9" * 5000
    f = tmp_path / "huge.txt"
    f.write_text(f"3\n0 1\n1 {huge}\n")
    code, _, err = run(capsys, "count", str(f))
    assert code == 2 and "too large" in err
    code, _, err = run(capsys, "build", "--pi", f"{huge},1")
    assert code == 3 and "too large" in err
    # Each token parses, but their sum passes the limit.
    code, _, err = run(capsys, "build", "--pi", ",".join(["9" * 4299] * 11))
    assert code == 3 and "degree sum" in err and "Traceback" not in err


@pytest.mark.parametrize("as_json", [False, True])
def test_phi_beyond_int_digit_limit(capsys, as_json):
    # A star on 14301 vertices has phi = 2^14300 + 14300, 4305 digits.
    n = 14301
    pi = ",".join([str(n - 1)] + ["1"] * (n - 1))
    code, out, err = run(capsys, "build", "--pi", pi, *(["--json"] if as_json else []))
    assert code == 0 and err == ""
    last = out.splitlines()[-1]
    text = json.loads(out)["outputs"]["phi"] if as_json else last.removeprefix("phi: ")
    assert len(text) == 4305
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert text == str(2**14300 + 14300)
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_single_sequence(capsys):
    code, out, _ = run(capsys, "verify", "--pi", "3,2,2,1,1,1")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "--pi", "3,2,2,1,1,1", "--json")
    report = json.loads(out)
    assert report["outputs"]["pass"] is True
    assert report["outputs"]["iso_classes"] == 2
    assert report["outputs"]["maximizer_count"] == 1
    assert report["outputs"]["max_phi"] == "25"


def test_verify_detects_violation(capsys, monkeypatch):
    # Substitute a non-optimal realization's count for the greedy tree's: phi
    # of the parents-first array of spider(1, 1, 3), legs 1, 2 and 3-4-5.
    # The exhaustive check must notice and exit 4.
    spider = [0, 0, 0, 0, 3, 4]
    phi = sum(_rooted_counts(spider, range(6)))
    monkeypatch.setattr(cli, "_greedy_phi", lambda pi: phi)
    code, out, _ = run(capsys, "verify", "--pi", "3,2,2,1,1,1")
    assert code == 4 and "FAIL" in out


def test_verify_all_n(capsys):
    code, out, _ = run(capsys, "verify", "--all-n", "6")
    assert code == 0
    assert out.count("pi=") == 5
    assert "PASS" in out
    code, out, _ = run(capsys, "verify", "--all-n", "6", "--json")
    report = json.loads(out)
    assert report["outputs"]["pass"] is True
    assert report["outputs"]["monotonic_ok"] is True
    assert len(report["outputs"]["sequences"]) == 5


@pytest.mark.parametrize("change", ["swapped", "equal"])
def test_verify_all_n_detects_maxima_out_of_order(capsys, monkeypatch, change):
    # (3,2,2,1,1,1) majorizes (2,2,2,2,1,1); their maxima are 25 and 21.
    # A census with the two swapped, or equal, breaks strict growth.  The
    # cached census is read-only, so the test changes a copy.
    census = dict(cli._order_census(6))
    a, b = (3, 2, 2, 1, 1, 1), (2, 2, 2, 2, 1, 1)
    assert majorizes(a, b) == "greater" and (census[a][1], census[b][1]) == (25, 21)
    if change == "swapped":
        census[a], census[b] = census[a][:1] + census[b][1:], census[b][:1] + census[a][1:]
    else:
        census[b] = census[b][:1] + census[a][1:]
    monkeypatch.setattr(cli, "_order_census", lambda n: census)
    code, out, _ = run(capsys, "verify", "--all-n", "6")
    assert code == 4 and "monotonic_ok: false" in out and out.endswith("\nFAIL\n")
    code, out, _ = run(capsys, "verify", "--all-n", "6", "--json")
    outputs = json.loads(out)["outputs"]
    assert code == 4 and outputs["monotonic_ok"] is False and outputs["pass"] is False


def test_verify_all_n_inputs_and_no_jobs(capsys):
    code, out, _ = run(capsys, "verify", "--all-n", "6", "--json")
    assert code == 0 and json.loads(out)["inputs"] == {"all_n": 6}
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all-n", "6", "--jobs", "2"])
    assert exc.value.code == 2 and "--jobs" in capsys.readouterr().err


def test_verify_all_n_matches_per_sequence_reference(capsys):
    for n in range(1, 13):
        code, out, _ = run(capsys, "verify", "--all-n", str(n), "--json")
        assert code == 0
        assert json.loads(out)["outputs"] == reference_verify_outputs(n)


def test_verify_limits(capsys):
    assert run(capsys, "verify", "--all-n", "19")[0] == 5
    assert run(capsys, "verify", "--all-n", "0")[0] == 3
    nineteen_path = ",".join(["2"] * 17 + ["1", "1"])
    assert run(capsys, "verify", "--pi", nineteen_path)[0] == 5
    eighteen_path = ",".join(["2"] * 16 + ["1", "1"])
    assert run(capsys, "verify", "--pi", eighteen_path)[0] == 0


def test_verify_pi_matches_its_all_n_entry(capsys):
    # One sequence reads its bucket of the order's census: its outputs are
    # the --all-n entry of that sequence, byte for byte, plus "pass".
    for n in range(1, 12):
        entries = json.loads(run(capsys, "verify", "--all-n", str(n), "--json")[1])["outputs"]
        for entry in entries["sequences"]:
            pi = ",".join(map(str, entry["pi"]))
            code, out, _ = run(capsys, "verify", "--pi", pi, "--json")
            outputs = json.loads(out)["outputs"]
            assert outputs.pop("pass") is entry["greedy_is_unique_max"] is (code == 0)
            assert json.dumps(outputs, sort_keys=True) == json.dumps(entry, sort_keys=True)


def outcome(capsys, argv: list[str]) -> tuple[object, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``, argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser_without_leaking_state(capsys, monkeypatch, p4_file, tmp_path):
    commands = [
        ["verify", "--pi", "3,2,2,1,1,1"],
        ["verify", "--all-n", "6", "--json"],
        ["count", p4_file, "--json"],
        ["count", str(tmp_path / "absent.txt")],
        ["verify", "--pi", "3,1,1,1", "--all-n", "4"],
        ["--version"],
    ]
    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "_parser", cli.build_parser)
        want = [outcome(capsys, argv) for argv in commands]
    assert [code for code, _, _ in want] == [0, 0, 0, 2, 2, 0]
    cli._parser.cache_clear()
    # A parser from build_parser is the caller's own: changing it leaves main's alone.
    changed = cli.build_parser()
    changed.prog = "changed"
    for order in (commands, commands[::-1]):
        got = {tuple(argv): outcome(capsys, argv) for argv in order}
        assert [got[tuple(argv)] for argv in commands] == want


def test_order_comparable(capsys):
    code, out, _ = run(capsys, "order", "--a", "2,2,2,1,1", "--b", "4,1,1,1,1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["relation"] == "less"
    assert report["outputs"]["chain"] == [
        [2, 2, 2, 1, 1],
        [3, 2, 1, 1, 1],
        [4, 1, 1, 1, 1],
    ]
    assert report["outputs"]["phi_star"] == ["15", "17", "20"]


def test_order_incomparable(capsys):
    code, out, _ = run(
        capsys, "order", "--a", "4,4,1,1,1,1,1,1", "--b", "5,2,2,1,1,1,1,1", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["relation"] == "incomparable"
    assert "chain" not in report["outputs"]


def test_order_mismatches(capsys):
    code, _, err = run(capsys, "order", "--a", "2,1,1", "--b", "1,1")
    assert (code, err) == (3, "error: lengths differ: 3 vs 2\n")
    assert run(capsys, "order", "--a", "2,2,1,1", "--b", "2,1,1,1")[0] == 3


def test_order_past_the_chain_cap_exits_5(capsys):
    # Path to star on 3,200 vertices: 3,198 sequences of 3,200 entries.
    path_text = ",".join(["2"] * 3198 + ["1", "1"])
    star_text = ",".join(["3199"] + ["1"] * 3199)
    start = time.perf_counter()
    code, out, err = run(capsys, "order", "--a", path_text, "--b", star_text, "--json")
    assert time.perf_counter() - start < 1
    assert (code, out) == (5, "")
    assert err == "error: chains capped at 10000000 entries, got 10233600\n"


def test_class_maxdeg(capsys):
    code, out, _ = run(capsys, "class", "--type", "maxdeg", "--n", "7", "--k", "3")
    assert code == 0
    assert "phi: 40" in out
    assert "printed_formula" not in out
    assert "discrepancy: false" in out


def test_class_leaves_flags_published_value(capsys):
    code, out, _ = run(capsys, "class", "--type", "leaves", "--n", "7", "--k", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["phi"] == "36"
    assert report["outputs"]["printed_formula_value"] == "244"
    assert report["outputs"]["discrepancy_flag"] is True
    assert report["outputs"]["details"] == {"closed_form": 36, "q": 2, "t": 0}


def test_class_alpha_beta(capsys):
    code, out, _ = run(capsys, "class", "--type", "alpha", "--n", "5", "--k", "3")
    assert code == 0 and "phi: 17" in out and "discrepancy: false" in out
    code, out, _ = run(capsys, "class", "--type", "beta", "--n", "5", "--k", "2")
    assert code == 0 and "phi: 17" in out and "discrepancy: true" in out


def test_class_infeasible(capsys):
    assert run(capsys, "class", "--type", "maxdeg", "--n", "5", "--k", "1")[0] == 3
    assert run(capsys, "class", "--type", "leaves", "--n", "5", "--k", "9")[0] == 3


def test_class_unknown_type_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["class", "--type", "girth", "--n", "5", "--k", "2"])
    assert exc.value.code == 2


# Human lines and JSON fields carry the same values.
def both_outputs(capsys, *argv: str) -> tuple[str, str]:
    code, human, err = run(capsys, *argv)
    json_code, report, json_err = run(capsys, *argv, "--json")
    assert code == json_code == 0 and err == json_err == ""
    return human, report


def human_and_json(capsys, *argv: str) -> tuple[list[str], dict]:
    human, report = both_outputs(capsys, *argv)
    return human.splitlines(), json.loads(report)["outputs"]


def field(lines: list[str], key: str) -> str | None:
    return next((line[len(key) + 2 :] for line in lines if line.startswith(key + ": ")), None)


def edge_lines(lines: list[str]) -> list[list[int]]:
    return [[int(x) for x in line.split()] for line in lines if re.fullmatch(r"\d+ \d+", line)]


def test_count_human_lines_match_json(capsys, tmp_path):
    f = tmp_path / "spider.txt"
    f.write_text(format_edge_list(spider(2, 3, 4, 4)))
    lines, out = human_and_json(capsys, "count", str(f))
    assert field(lines, "n") == "14"
    assert field(lines, "phi") == out["phi"]
    assert field(lines, "f").split() == out["f"]
    assert field(lines, "argmax") == " ".join(map(str, out["argmax"]))


def test_build_human_lines_match_json(capsys):
    lines, out = human_and_json(capsys, "build", "--pi", "4,3,3,2,1,1,1,1,1,1")
    assert lines[0] == "10"
    assert edge_lines(lines[1:]) == out["edges"] and len(out["edges"]) == 9
    assert field(lines, "layer_sizes") == ",".join(map(str, out["layer_sizes"]))
    assert field(lines, "phi") == out["phi"]


@pytest.mark.parametrize(
    "kind, n, k", [("maxdeg", 30, 4), ("leaves", 7, 3), ("alpha", 30, 20), ("beta", 30, 7)]
)
def test_class_human_lines_match_json(capsys, kind, n, k):
    lines, out = human_and_json(capsys, "class", "--type", kind, "--n", str(n), "--k", str(k))
    assert field(lines, "pi") == ",".join(map(str, out["pi"]))
    assert edge_lines(lines) == out["edges"] and len(out["edges"]) == n - 1
    assert field(lines, "phi") == out["phi"]
    assert field(lines, "printed_formula") == out["printed_formula_value"]
    assert field(lines, "discrepancy") == str(out["discrepancy_flag"]).lower()


def test_order_human_lines_match_json(capsys):
    lines, out = human_and_json(capsys, "order", "--a", "2,2,2,2,1,1", "--b", "5,1,1,1,1,1")
    assert field(lines, "relation") == out["relation"]
    assert field(lines, "chain_length") == str(len(out["chain"])) and len(out["chain"]) > 2
    assert lines[2:] == [
        f"{','.join(map(str, pi))} phi={phi}" for pi, phi in zip(out["chain"], out["phi_star"])
    ]


def test_verify_human_lines_match_json(capsys):
    lines, out = human_and_json(capsys, "verify", "--pi", "3,3,2,1,1,1,1")
    for key in ("iso_classes", "labeled_count", "max_phi", "maximizer_count"):
        assert field(lines, key) == str(out[key])
    lines, out = human_and_json(capsys, "verify", "--all-n", "7")
    assert lines[: len(out["sequences"])] == [
        f"pi={','.join(map(str, r['pi']))} classes={r['iso_classes']} max_phi={r['max_phi']} ok"
        for r in out["sequences"]
    ]
    assert field(lines, "comparable_pairs") == str(out["comparable_pairs"])


def count_json_peak(tree: Tree, treefile) -> int:
    """The tracemalloc peak of ``count --json`` on the tree, in bytes."""
    treefile.write_text(format_edge_list(tree))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["count", str(treefile), "--json"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_json_memory_on_a_10k_tree(tmp_path):
    # Each f value (about 1,500 digits here) is formatted once, for the
    # JSON report only; building the human lines too peaked near 70 MB.
    assert count_json_peak(seeded_tree(1, 10**4), tmp_path / "random.txt") < 60 * 10**6


def test_count_json_memory_on_a_10e5_path(tmp_path):
    # 11.0 MB, in the parse: the 2 x 10^5 edge ends as a JSON list (7.2 MB)
    # beside the file text and its comma copy; the DP and the output stay
    # below it.  The regex guard of the edge list kept one backtracking
    # frame per line and peaked near 21.7 MB.  Margin 1 MB.
    assert count_json_peak(path(10**5), tmp_path / "path.txt") < 12 * 10**6


def test_count_refuses_an_f_list_past_the_cap_as_f_vector_does(tmp_path):
    # Both sides of the cap, in ints and in exact decimals: count exits 5
    # with f_vector's message, and prints nothing, exactly where f_vector
    # raises.
    for t in (path(30), star(700), seeded_tree(2, 300)):
        treefile = tmp_path / "tree.txt"
        treefile.write_text(format_edge_list(t))
        text = sum(len(str(x)) for x in f_vector(t).values)
        for cap in (text - 1, t.n * (len(str(count_subtrees(t))) + 1)):
            with unittest.mock.patch.object(counting, "_F_DIGITS", cap):
                try:
                    f_vector(t)
                    expected = (0, "")
                except TooLarge as exc:
                    expected = (5, f"error: {exc}\n")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["count", str(treefile)])
                assert (code, err.getvalue()) == expected
                assert (out.getvalue() == "") == (code == 5)
            assert expected[0] == (5 if cap < text else 0)


def test_count_refuses_a_2e5_star_in_bounded_memory(tmp_path):
    # phi = 2^199999 + 199999 has 60,206 digits, so the f list would hold
    # 1.2e10 digits, about 5 GB as decimals.  The refusal comes after the
    # rooted pass, in 1 GiB of address space and well inside the timeout.
    n = 2 * 10**5
    treefile = tmp_path / "star.txt"
    treefile.write_text(f"{n}\n" + "".join(f"0 {v}\n" for v in range(1, n)))
    script = 'ulimit -v 1048576 && exec "$0" -m subtrees.cli count "$1"'
    proc = subprocess.run(
        ["bash", "-c", script, sys.executable, str(treefile)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    message = "the f list of 200000 counts of up to 60207 digits passes 2500000000 digits"
    assert (proc.returncode, proc.stdout, proc.stderr) == (5, "", f"error: {message}\n")


def test_count_refuses_by_its_leaves_before_the_rooted_pass_as_f_vector_does(tmp_path, monkeypatch):
    # phi >= 2^L for L leaves, so a cap below n times the digit estimate of
    # 2^L refuses before any count is taken, with f_vector's message.
    for t in (comb(40), star(50), seeded_tree(2, 300)):
        treefile = tmp_path / "tree.txt"
        treefile.write_text(format_edge_list(t))
        leaves = sum(t.degree(v) == 1 for v in range(t.n))
        monkeypatch.setattr(counting, "_F_DIGITS", t.n * ((leaves + 1) * 30103 // 100000 + 1) - 1)
        monkeypatch.setattr(counting, "_rooted_counts", None)
        monkeypatch.setattr(cli, "_rooted_counts", None)
        with pytest.raises(TooLarge) as info:
            f_vector(t)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["count", str(treefile)])
        assert (code, out.getvalue(), err.getvalue()) == (5, "", f"error: {info.value}\n")
        monkeypatch.undo()


def test_count_refuses_a_10e6_comb_in_bounded_memory(tmp_path):
    # A spine of 500,000 vertices with one leaf on each: g grows one bit
    # per spine vertex toward the root, so the rooted pass alone would
    # hold about 8 GB (3.3 GB of RSS already at 640,000 vertices).  The
    # 500,000 leaves show phi >= 2^500000 before it, in 1 GiB of address
    # space.
    n, half = 10**6, 5 * 10**5
    treefile = tmp_path / "comb.txt"
    spine = "".join(f"{i} {i + 1}\n" for i in range(half - 1))
    treefile.write_text(f"{n}\n" + spine + "".join(f"{i} {half + i}\n" for i in range(half)))
    script = 'ulimit -v 1048576 && exec "$0" -m subtrees.cli count "$1"'
    proc = subprocess.run(
        ["bash", "-c", script, sys.executable, str(treefile)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    message = "the f list of 1000000 counts of up to 150516 digits passes 2500000000 digits"
    assert (proc.returncode, proc.stdout, proc.stderr) == (5, "", f"error: {message}\n")


# The decimal counts of ``count`` print as the int API's values do.
def expected_count_digests(tree: Tree, treefile: str) -> tuple[bytes, bytes]:
    """Digests of the human and JSON output, from the int counts and ``_decimal``."""
    phi, fv = count_subtrees(tree), f_vector(tree)
    text = {x: reference_decimal(x) for x in {phi, *fv.values}}  # a star has 3 distinct values
    f = [text[x] for x in fv.values]
    human, report = Digest(), Digest()
    human.write(f"n: {tree.n}\nphi: {text[phi]}\nf:")
    for x in f:
        human.write(" " + x)
    human.write("\nargmax: " + " ".join(map(str, fv.argmax)) + "\n")
    outputs = {"phi": text[phi], "f": f, "argmax": list(fv.argmax)}
    for chunk in json.JSONEncoder(sort_keys=True).iterencode(
        cli._report("count", {"treefile": treefile, "n": tree.n}, outputs)
    ):
        report.write(chunk)
    report.write("\n")
    return human.sha.digest(), report.sha.digest()


def count_outputs(treefile) -> tuple[int, str, tuple[bytes, bytes]]:
    """Exit code, stderr and the human and JSON stdout digests of ``count``."""
    codes, errs, digests = set(), set(), []
    for extra in ([], ["--json"]):
        out, err = Digest(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):  # type: ignore[type-var]
            codes.add(main(["count", str(treefile), *extra]))
        errs.add(err.getvalue())
        digests.append(out.sha.digest())
    assert len(codes) == len(errs) == 1
    return codes.pop(), errs.pop(), (digests[0], digests[1])


def assert_count_text_matches_ints(tree: Tree, treefile) -> None:
    treefile.write_text(format_edge_list(tree))
    assert count_outputs(treefile) == (0, "", expected_count_digests(tree, str(treefile)))


def test_count_text_matches_ints_on_every_small_class(tmp_path):
    for n in range(1, 10):
        for pi in realizable_sequences(n):
            for t in enumerate_trees(pi):
                assert_count_text_matches_ints(t, tmp_path / "tree.txt")


@settings(max_examples=60, deadline=None)
@given(random_trees(max_n=60))
def test_count_text_matches_ints_property(tmp_path_factory, t):
    assert_count_text_matches_ints(t, tmp_path_factory.getbasetemp() / "tree.txt")


@pytest.mark.parametrize(
    "make",
    [
        lambda: path(50),
        lambda: spider(2, 3, 4, 4),
        lambda: seeded_tree(1, 10**4),
        lambda: star(20000),  # phi = 2^19999 + 19999 has 6,021 digits
    ],
    ids=["path", "spider", "random-10k", "star-20k"],
)
def test_count_text_matches_ints(tmp_path, make):
    assert_count_text_matches_ints(make(), tmp_path / "tree.txt")


# ``count`` roots its tree by peeling leaves off the file's edge ends,
# with no ``Tree``; it must answer as the first, ``Tree``-building parser
# does, byte for byte, on valid and invalid files alike.
def reference_count_outputs(treefile) -> tuple[int, str, tuple[bytes, bytes]]:
    """``count_outputs`` as the first parser and the int counts give them."""
    try:
        tree = reference_parse_edge_list(treefile.read_text(encoding="ascii"))
    except SubtreeError as exc:
        silent = Digest().sha.digest()
        return 2 if isinstance(exc, ParseError) else 3, f"error: {exc}\n", (silent, silent)
    return 0, "", expected_count_digests(tree, str(treefile))


def assert_count_matches_reference(text: str, treefile) -> None:
    treefile.write_bytes(text.encode("ascii"))
    assert count_outputs(treefile) == reference_count_outputs(treefile), text[:200]


@pytest.mark.parametrize("seed", range(10))
def test_count_matches_reference_on_shuffled_edge_lines(tmp_path, seed):
    # Shuffled lines and swapped ends give a BFS order unlike the Tree's.
    rng = random.Random(seed)
    tree = seeded_tree(seed, rng.randint(2, 2000))
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in tree.edges]
    rng.shuffle(edges)
    layout = rng.choice([("\t", "\n"), (" ", "\r\n"), ("  ", " \n"), (" ", "\r")])
    for sep, end in [(" ", "\n"), layout]:
        text = f"{tree.n}{end}" + "".join(f"{u}{sep}{v}{end}" for u, v in edges)
        assert_count_matches_reference(text, tmp_path / "tree.txt")


HUGE = "9" * 5000


# Cases of tests/test_cli.py and tests/test_trees.py, then more.
COUNT_EDGE_CASES = {
    "word-token": "4\n0 1\nnope\n2 3\n",
    "triangle": "4\n0 1\n1 2\n0 2\n",
    "huge-end": f"3\n0 1\n1 {HUGE}\n",
    "empty": "",
    "word-count": "x\n0 1\n",
    "two-token-count": "2 7\n0 1\n",
    "missing-line": "3\n0 1\n",
    "three-token-line": "2\n0 1 2\n",
    "negative-end": "2\n0 -1\n",
    "trailing-edge": "2\n0 1\n1 0\n",
    "zero-count": "0\n",
    "duplicate": "3\n0 1\n0 1\n",
    "one-vertex": "1\n",
    "trailing-blanks": "2\n0 1\n\n  \n",
    # Structure: self-loops, duplicates, cycles, ends out of range.
    "self-loop": "3\n0 1\n1 1\n",
    "self-loop-then-range": "3\n1 1\n0 5\n",
    "range-then-self-loop": "3\n0 5\n1 1\n",
    "reversed-duplicate": "4\n0 1\n1 0\n2 3\n",
    "duplicate-and-isolated": "4\n0 1\n0 1\n1 2\n",
    "cycle": "4\n0 1\n1 2\n2 0\n",
    "cycle-and-edge": "5\n0 1\n1 2\n2 0\n3 4\n",
    "end-equals-n": "3\n0 1\n1 3\n",
    "end-20-digits": "3\n0 1\n1 99999999999999999999\n",
    "end-4300-digits": f"3\n0 1\n1 {'1' * 4300}\n",
    # Canonical text that the fast route must hand to the line loop.
    "huge-count": f"{HUGE}\n0 1\n",
    "huge-first-end": f"3\n{HUGE} 1\n1 2\n",
    "too-few-edges": "4\n0 1\n1 2\n",
    "too-many-edges": "3\n0 1\n1 2\n2 0\n",
    "zero-count-00": "00\n",
    # Valid trees in other layouts.
    "crlf": "4\r\n0 1\r\n1 2\r\n2 3\r\n",
    "cr": "4\r0 1\r1 2\r2 3\r",
    "tabs": "4\n0\t1\n1\t2\n2 3\n",
    "extra-spaces": " 4 \n0  1\n 1 2\n2 3 \n",
    "no-final-newline": "4\n0 1\n1 2\n2 3",
    "blank-lines-after": "4\n0 1\n1 2\n2 3\n\n\n",
    "leading-zeros": "4\n00 01\n1 0002\n2 3\n",
    "unsorted": "4\n3 2\n0 1\n2 1\n",
    # Invalid in other layouts.
    "crlf-triangle": "4\r\n0 1\r\n1 2\r\n0 2\r\n",
    "garbage-after": "4\n0 1\n1 2\n2 3\nx",
    "blank-inside": "4\n0 1\n1 2\n\n2 3\n",
    "tab-three-tokens": "4\n0 1\n1 2\n2\t3 4\n",
}


@pytest.mark.parametrize("text", COUNT_EDGE_CASES.values(), ids=COUNT_EDGE_CASES.keys())
def test_count_matches_reference_on_edge_cases(tmp_path, text):
    assert_count_matches_reference(text, tmp_path / "tree.txt")


# The leaf peel against the first rooting (adjacency lists and a BFS from
# vertex 0): phi, f and the argmax do not depend on the root, so ``count``
# must print the same bytes over either order.
def assert_count_matches_bfs_route(text: str, treefile) -> None:
    treefile.write_bytes(text.encode("ascii"))
    got = count_outputs(treefile)
    with unittest.mock.patch.object(cli, "_parents_first", reference_tree_bfs):
        assert got == count_outputs(treefile), text[:200]


def assert_rooting(n: int, edges, parent: list[int], order: list[int], leaves: int) -> None:
    """``parent`` and ``order`` root a tree with exactly these edges, parents
    first, the leaf children of each vertex form one run of ``order``, and
    ``leaves`` counts the vertices of degree below 2."""
    degree = [0] * n
    for e in edges:
        for v in e:
            degree[v] += 1
    assert leaves == sum(d < 2 for d in degree)
    position = {v: i for i, v in enumerate(order)}
    assert sorted(order) == list(range(n)) and parent[order[0]] == order[0]
    assert all(position[parent[v]] < position[v] for v in order[1:])
    assert sorted(tuple(sorted((v, parent[v]))) for v in order[1:]) == sorted(
        tuple(sorted(e)) for e in edges
    )
    inner = {parent[v] for v in order[1:]}
    runs: dict[int, list[int]] = {}
    for i, v in enumerate(order[1:], 1):
        if v not in inner:
            runs.setdefault(parent[v], []).append(i)
    assert all(run[-1] - run[0] == len(run) - 1 for run in runs.values())


def edge_text(n: int, edges) -> str:
    return f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


@st.composite
def multigraphs(draw) -> tuple[int, list[tuple[int, int]]]:
    """n - 1 edges on 0..n-1 with self-loops, duplicates and parts apart."""
    n = draw(st.integers(1, 40))
    end = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(end, end), min_size=n - 1, max_size=n - 1))


@st.composite
def shuffled_trees(draw) -> tuple[int, list[tuple[int, int]]]:
    """Random trees with shuffled ids, edge lines and edge directions."""
    t = draw(random_trees(max_n=40))
    rng = draw(st.randoms(use_true_random=False))
    perm = list(range(t.n))
    rng.shuffle(perm)
    edges = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v]) for u, v in t.edges]
    rng.shuffle(edges)
    return t.n, edges


def is_tree(n: int, edges) -> bool:
    try:
        tree_from_edges(n, edges)
    except SubtreeError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.one_of(multigraphs(), shuffled_trees()))
def test_peel_matches_bfs_route(tmp_path_factory, graph):
    n, edges = graph
    ends = [x for e in edges for x in e]
    rooted = _peel_leaves(n, list(ends))
    assert (rooted is not None) == is_tree(n, edges)
    if rooted is not None:
        assert_rooting(n, edges, *rooted)
    assert_count_matches_bfs_route(edge_text(n, edges), tmp_path_factory.getbasetemp() / "g.txt")


@pytest.mark.parametrize(
    "n, edges, rooted",
    [
        (1, [], ([0], [0], 1)),
        (2, [(0, 1)], ([0, 0], [0, 1], 2)),
        (2, [(1, 0)], ([0, 0], [0, 1], 2)),
        (2, [(0, 0)], None),
        (2, [(1, 1)], None),
    ],
)
def test_peel_on_one_and_two_vertices(tmp_path, n, edges, rooted):
    assert _peel_leaves(n, [x for e in edges for x in e]) == rooted
    assert_count_matches_bfs_route(edge_text(n, edges), tmp_path / "tree.txt")


def test_peel_roots_every_small_tree():
    for n in range(1, 10):
        for pi in realizable_sequences(n):
            for t in enumerate_trees(pi):
                ends = [x for e in t.edges for x in e]
                assert_rooting(n, t.edges, *_peel_leaves(n, ends))
                assert ends == []


def interleaved_double_star(n: int) -> list[tuple[int, int]]:
    """Centres 0 and 1 joined; leaf v hangs on centre v % 2."""
    return [(0, 1)] + [(v % 2, v) for v in range(2, n)]


def interleaved_double_spider(n: int) -> list[tuple[int, int]]:
    """Centres 0 and 1 joined; legs of two vertices hang on them in turn."""
    return [(0, 1)] + [(v % 2 if v % 4 < 2 else v - 2, v) for v in range(2, n)]


def test_peel_keeps_leaf_children_in_one_run():
    # ``_rooted_counts`` merges equal sibling factors only when the siblings
    # sit side by side in the order; BFS from 0 keeps them so, and a peel
    # in id order would alternate the two centres' leaves.
    n = 1001
    edges = interleaved_double_star(n)
    rooted = _peel_leaves(*_edge_ends(edge_text(n, edges)))
    assert_rooting(n, edges, *rooted)
    parent, order, _ = rooted
    assert sorted(order[:2]) == [0, 1]
    leaves = [parent[v] for v in order[2:]]
    assert leaves in (sorted(leaves), sorted(leaves, reverse=True))


@pytest.mark.parametrize("make", [interleaved_double_star, interleaved_double_spider])
def test_count_on_interleaved_trees_matches_bfs_route(tmp_path, make):
    n = 2000
    assert_count_matches_bfs_route(edge_text(n, make(n)), tmp_path / "tree.txt")


@pytest.mark.parametrize("ring", ["int", "decimal"])
def test_count_f_blocks_at_their_boundaries(tmp_path, monkeypatch, ring):
    # ``cli._BLOCK`` patched to hold k values a block, f written as " %s"
    # items (human) or '"%s"' items joined by ", " (JSON), on trees of 1,
    # k - 1, k and k + 1 vertices for k = 4, and around them.
    if ring == "decimal":
        monkeypatch.setattr(cli, "_INT_DIGITS", 0)
    treefile = tmp_path / "path.txt"
    for m in (1, 3, 4, 5):
        tree = path(m)
        treefile.write_text(format_edge_list(tree))
        want = expected_count_digests(tree, str(treefile))
        width = len(str(count_subtrees(tree)))
        for k in (1, 3, 4, 5):
            got = []
            for extra, item_width in (([], width + 1), (["--json"], width + 4)):
                monkeypatch.setattr(cli, "_BLOCK", k * item_width)
                out = Digest()
                with contextlib.redirect_stdout(out):  # type: ignore[type-var]
                    assert main(["count", str(treefile), *extra]) == 0
                got.append(out.sha.digest())
            assert tuple(got) == want, (m, k)


def test_count_builds_no_tree(tmp_path, monkeypatch):
    tree = seeded_tree(5, 3000)
    treefile = tmp_path / "tree.txt"
    want = (0, "", expected_count_digests(tree, str(treefile)))

    def refuse(*args):
        raise AssertionError("count reads edge ends, not a Tree")

    monkeypatch.setattr(trees, "tree_from_edges", refuse)
    for text in (format_edge_list(tree), format_edge_list(tree).replace(" ", "\t")):
        treefile.write_text(text)
        assert count_outputs(treefile) == want


def test_count_json_with_f_key_in_file_name(tmp_path):
    for name in ['"f": [].txt', 'x"f": ["1", "2"]\\"f": [].txt']:
        assert_count_matches_reference("4\n0 1\n1 2\n1 3\n", tmp_path / name)


# ``count`` keeps phi of at most ``cli._INT_DIGITS`` digits in ints and
# reruns larger trees in exact decimals.  A star with k leaves has
# phi = 2^k + k; the largest such phi below 10^_INT_DIGITS sits on the
# boundary.
INT_ROUTE_LEAVES = max(k for k in range(1, 4 * cli._INT_DIGITS) if 2**k + k < 10**cli._INT_DIGITS)


def spy_decimal(monkeypatch) -> list:
    """Record each call of ``cli.Decimal``, the one entry to the decimal route."""
    calls: list = []
    real = cli.Decimal

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "Decimal", spy)
    return calls


@pytest.mark.parametrize("limit", [None, 640])
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_count_at_the_ring_boundary(tmp_path, monkeypatch, limit, offset):
    k = INT_ROUTE_LEAVES + offset
    assert (len(str(2**k + k)) <= cli._INT_DIGITS) == (offset <= 0)
    treefile = tmp_path / "star.txt"
    treefile.write_text(format_edge_list(star(k + 1)))
    calls = spy_decimal(monkeypatch)
    with int_digit_limit(limit) if limit else contextlib.nullcontext():
        assert count_outputs(treefile) == reference_count_outputs(treefile)
    assert bool(calls) == (offset > 0)


def test_count_on_a_20k_star_at_the_least_int_digit_limit(tmp_path):
    with int_digit_limit(640):
        assert_count_text_matches_ints(star(20000), tmp_path / "star.txt")


def test_count_keeps_a_10e5_path_in_ints(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("phi of 11 digits stays in ints")

    monkeypatch.setattr(cli, "Decimal", refuse)
    assert_count_text_matches_ints(path(10**5), tmp_path / "path.txt")


def test_order_json_matches_build_and_count(capsys):
    chain_ends = [
        ("0", "0"),
        ("1,1", "1,1"),
        ("2,2,1,1", "3,1,1,1"),
        ("5,1,1,1,1,1", "2,2,2,2,1,1"),
        (",".join(["2"] * 198 + ["1", "1"]), ",".join(["199"] + ["1"] * 199)),
    ]
    sequences = [",".join(map(str, pi)) for pi in realizable_sequences(8)]
    chain_ends += [(a, b) for a in sequences for b in sequences]
    for a_text, b_text in chain_ends:
        code, out, _ = run(capsys, "order", "--a", a_text, "--b", b_text, "--json")
        a, b = parse_degree_sequence(a_text), parse_degree_sequence(b_text)
        relation = reference_relation(a, b)
        low, high = (a, b) if relation == "less" else (b, a)
        chain = [] if relation == "incomparable" else reference_chain(low, high)
        found = {"chain": chain, "phi_star": reference_phi_star(chain)} if chain else {}
        want = cli._report("order", {"a": list(a), "b": list(b)}, {"relation": relation, **found})
        assert code == 0 and out == json.dumps(want, sort_keys=True) + "\n", (a_text, b_text)


# ``build`` and ``class`` print from the greedy parent array, byte for
# byte as the greedy ``Tree`` and ``count_subtrees`` did.
def assert_class_matches_reference(capsys, kind: str, n: int, k: int) -> None:
    got = both_outputs(capsys, "class", "--type", kind, "--n", str(n), "--k", str(k))
    assert got == reference_class_output(kind, n, k), (kind, n, k)


def random_degree_sequence(seed: int, n: int) -> tuple[int, ...]:
    """The degrees of a uniform random labeled tree: one per Pruefer entry, plus one."""
    rng = random.Random(seed)
    degrees = [1] * n
    for _ in range(n - 2):
        degrees[rng.randrange(n)] += 1
    return tuple(sorted(degrees, reverse=True))


def test_build_matches_reference_on_every_small_sequence(capsys):
    for n in range(1, 10):
        for pi in realizable_sequences(n):
            got = both_outputs(capsys, "build", "--pi", ",".join(map(str, pi)))
            assert got == reference_build_output(pi), pi


def test_class_matches_reference_on_every_feasible_small_class(capsys):
    feasible = 0
    for n in range(1, 13):
        for kind in sorted(cli._CLASS_FUNCTIONS):
            for k in range(n + 1):
                argv = ("class", "--type", kind, "--n", str(n), "--k", str(k))
                try:
                    cli._CLASS_FUNCTIONS[kind](n, k)
                except InfeasibleConstraint:
                    assert run(capsys, *argv)[0] == 3
                    continue
                assert_class_matches_reference(capsys, kind, n, k)
                feasible += 1
    assert feasible > 150


def test_build_matches_reference_at_10e5(capsys):
    pi = random_degree_sequence(7, 10**5)
    got = both_outputs(capsys, "build", "--pi", ",".join(map(str, pi)))
    assert got == reference_build_output(pi)


@pytest.mark.parametrize(
    "kind, k", [("maxdeg", 3), ("leaves", 700), ("alpha", 60000), ("beta", 40000)]
)
def test_class_matches_reference_at_10e5(capsys, kind, k):
    assert_class_matches_reference(capsys, kind, 10**5, k)


# ``_emit`` writes the edges of ``build`` and ``class`` and the f values of
# ``count`` in blocks of about ``cli._BLOCK`` characters, one ``%`` call
# each; ``reference_emit``, with ``reference_blocks``, formats one item at
# a time and runs the whole report through ``json``.  A block of 20
# characters holds one to three edges, a block of 1 one item.
CI_BUILD_PI = ",".join(["5"] * 100 + ["2"] * 99598 + ["1"] * 302)


def assert_matches_reference_emit(capsys, monkeypatch, *argv: str) -> None:
    got = both_outputs(capsys, *argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_emit", reference_emit)
        patch.setattr(cli, "_blocks", reference_blocks)
        want = both_outputs(capsys, *argv)
    assert got == want, argv[:4]


def assert_count_matches_reference_emit(capsys, monkeypatch, tree: Tree, treefile) -> None:
    treefile.write_text(format_edge_list(tree))
    assert_matches_reference_emit(capsys, monkeypatch, "count", str(treefile))


def feasible_class_arguments(kind: str, n: int, k: int) -> tuple[str, ...] | None:
    try:
        cli._CLASS_FUNCTIONS[kind](n, k)
    except InfeasibleConstraint:
        return None
    return ("class", "--type", kind, "--n", str(n), "--k", str(k))


@pytest.mark.parametrize("block", [cli._BLOCK, 20, 1])
def test_edge_blocks_match_reference_emit_up_to_12_vertices(capsys, monkeypatch, tmp_path, block):
    monkeypatch.setattr(cli, "_BLOCK", block)
    treefile = tmp_path / "tree.txt"
    for n in range(1, 13):
        for pi in realizable_sequences(n):
            argv = ("build", "--pi", ",".join(map(str, pi)))
            assert_matches_reference_emit(capsys, monkeypatch, *argv)
            for tree in enumerate_trees(pi) if n <= 9 else ():
                assert_count_matches_reference_emit(capsys, monkeypatch, tree, treefile)
        for kind in sorted(cli._CLASS_FUNCTIONS):
            for k in range(n + 1):
                argv = feasible_class_arguments(kind, n, k)
                if argv is not None:
                    assert_matches_reference_emit(capsys, monkeypatch, *argv)


@pytest.mark.parametrize("block", [cli._BLOCK, 20])
def test_edge_blocks_match_reference_emit_on_random_inputs(capsys, monkeypatch, tmp_path, block):
    monkeypatch.setattr(cli, "_BLOCK", block)
    rng = random.Random(17)
    treefile = tmp_path / "tree.txt"
    for tree in (path(12), star(12), star(700)):  # star(700): phi past _INT_DIGITS
        assert_count_matches_reference_emit(capsys, monkeypatch, tree, treefile)
    for seed in range(30):
        tree = seeded_tree(seed, 2 + 67 * seed)
        assert_count_matches_reference_emit(capsys, monkeypatch, tree, treefile)
        pi = random_degree_sequence(seed, rng.randint(1, 2000))
        assert_matches_reference_emit(capsys, monkeypatch, "build", "--pi", ",".join(map(str, pi)))
        kind, n = rng.choice(sorted(cli._CLASS_FUNCTIONS)), rng.randint(1, 2000)
        argv = feasible_class_arguments(kind, n, rng.randint(0, n))
        if argv is not None:
            assert_matches_reference_emit(capsys, monkeypatch, *argv)


def test_edge_blocks_match_reference_emit_at_10e5(capsys, monkeypatch, tmp_path):
    assert_matches_reference_emit(capsys, monkeypatch, "build", "--pi", CI_BUILD_PI)
    assert_count_matches_reference_emit(capsys, monkeypatch, path(10**5), tmp_path / "path.txt")
    assert_matches_reference_emit(
        capsys, monkeypatch, "class", "--type", "beta", "--n", "100000", "--k", "16041"
    )


def test_verify_and_order_match_reference_emit(capsys, monkeypatch):
    relations = set()
    for n in range(1, 9):
        sequences = [",".join(map(str, pi)) for pi in realizable_sequences(n)]
        for text in sequences:
            assert_matches_reference_emit(capsys, monkeypatch, "verify", "--pi", text)
        if n <= 7:
            assert_matches_reference_emit(capsys, monkeypatch, "verify", "--all-n", str(n))
        for a, b in itertools.product(sequences, repeat=2):
            relations.add(majorizes(parse_degree_sequence(a), parse_degree_sequence(b)))
            assert_matches_reference_emit(capsys, monkeypatch, "order", "--a", a, "--b", b)
    assert relations == {"greater", "less", "equal", "incomparable"}


def test_emit_writes_each_raw_value_in_its_place(capsys):
    # The same key in inputs and in outputs, and raw values nested in a
    # dict, each written where the report holds it; strings that hold a
    # NUL or the text of its escape are not cut.
    report = cli._report(
        "test",
        {"pi": cli._Raw("[", iter(["1, ", "2"]), "]"), "name": "\0x"},
        {"pi": cli._Raw("[3]"), "details": {"b": cli._Raw("5"), "a": cli._Raw("4")}, "z": "\\u0000"},
    )
    cli._emit(argparse.Namespace(json=True), lambda: report, list)
    out = capsys.readouterr().out
    assert out == (
        '{"command": "test", "inputs": {"name": "\\u0000x", "pi": [1, 2]}, '
        '"outputs": {"details": {"a": 4, "b": 5}, "pi": [3], "z": "\\\\u0000"}, '
        f'"timing": null, "version": "{cli.__version__}"}}\n'
    )
    assert json.loads(out)["outputs"]["z"] == "\\u0000"


def fmt_seq_cases():
    """Every degree sequence of up to 12 vertices and its greedy layer
    sizes, which need not be monotone, the empty and one-entry sequences,
    and random sequences of up to 10^5 entries."""
    for n in range(1, 13):
        for pi in realizable_sequences(n):
            yield pi
            yield _layer_sizes(_greedy_parents(pi))
    yield from [(), (0,), (7,), (12345,)]
    rng = random.Random(23)
    for size in (2, 3, 10, 1000, 10**5):
        yield [rng.randrange(rng.choice([2, 10, 10**6])) for _ in range(size)]
        yield random_degree_sequence(size, size)


def test_fmt_seq_matches_str_join_and_json():
    for seq in fmt_seq_cases():
        assert cli._fmt_seq(seq) == ",".join(map(str, seq)), seq[:5]
        assert cli._fmt_seq(seq, ", ") == json.dumps(list(seq))[1:-1], seq[:5]


def output_peak(*argv: str) -> int:
    """The tracemalloc peak of the command, in bytes; the output goes to
    a digest, so the text is not kept."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Digest()):  # type: ignore[type-var]
            assert main(list(argv)) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_json_memory_at_10e5():
    # 6.1 MiB, in the edge blocks, with the parent array and the JSON text
    # of pi alive; the phi DP peaks at 6.0 MiB and the parse of --pi at
    # 2.3 MiB.  Rebuilding the report text once for each key written from
    # pieces peaked at 6.9 MiB, and the regex guard of --pi, which kept one
    # backtracking frame per entry, at 12.6 MiB.  Margin 0.3 MiB.
    assert output_peak("build", "--pi", CI_BUILD_PI, "--json") < 6.4 * 2**20


def test_build_human_memory_at_10e5():
    # 6.0 MiB, in the phi DP; the edge blocks peak at 5.8 MiB.  Margin 0.6 MiB.
    assert output_peak("build", "--pi", CI_BUILD_PI) < 6.6 * 2**20


CLASS_AT_10E5 = ("class", "--type", "beta", "--n", "100000", "--k", "16041")


def test_class_json_memory_at_10e5():
    # 3.6 MiB, in the edge blocks, with the parent array and the JSON text
    # of pi alive.  Rebuilding the report text once for each key written
    # from pieces peaked at 4.3 MiB, pi through ``json.dumps`` at 7.1 MiB,
    # and one text for all edges at 10.0 MiB.  Margin 0.4 MiB.
    assert output_peak(*CLASS_AT_10E5, "--json") < 4.0 * 2**20


def test_class_human_memory_at_10e5():
    # 3.5 MiB, in the edge blocks, with the parent array alive.  Margin 0.5 MiB.
    assert output_peak(*CLASS_AT_10E5) < 4.0 * 2**20


def star_to_path(n: int) -> tuple[str, ...]:
    """The ``order`` arguments from the star to the path on n vertices."""
    a, b = ",".join([str(n - 1)] + ["1"] * (n - 1)), ",".join(["2"] * (n - 2) + ["1"] * 2)
    return ("order", "--a", a, "--b", b)


def test_order_json_memory_from_star_to_path_at_1000():
    # 0.8 MiB, most of it the phi_star list and its JSON text; the walk
    # holds one sequence, written as it comes.  Holding the 998 chain
    # tuples of 1,000 entries each peaked at 8.6 MiB, and the chain through
    # ``json.dumps`` at 14.2 MiB.  Margin 1.2 MiB.
    assert output_peak(*star_to_path(1000), "--json") < 2 * 2**20


def test_order_human_memory_from_star_to_path_at_2000():
    # 0.1 MiB, as at n = 1,000: each line writes its own phi text, none is
    # kept.  Keeping the 1,998 phi texts peaked at 1.0 MiB, and holding the
    # chain of 1,998 tuples of 2,000 entries each at 40.2 MiB.  Margin 0.4 MiB.
    assert output_peak(*star_to_path(2000)) < 0.5 * 2**20


def test_count_human_memory_on_a_10e5_path(tmp_path):
    # 11.0 MB, in the parse of the edge list, as for the report; the f
    # blocks stay below 9.3 MB.  Margin 1 MB.
    treefile = tmp_path / "path.txt"
    treefile.write_text(format_edge_list(path(10**5)))
    assert output_peak("count", str(treefile)) < 12 * 10**6


def test_build_and_class_build_no_tree(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the greedy tree prints from its parent array")

    monkeypatch.setattr(extremal, "tree_from_edges", refuse)
    assert not hasattr(cli, "count_subtrees") and not hasattr(cli, "build_greedy_bfs")
    n = 2000
    both_outputs(capsys, "build", "--pi", ",".join(map(str, random_degree_sequence(3, n))))
    for kind, k in [("maxdeg", 3), ("leaves", 40), ("alpha", 1200), ("beta", 800)]:
        both_outputs(capsys, "class", "--type", kind, "--n", str(n), "--k", str(k))


def test_build_reads_arguments_from_an_args_file(tmp_path):
    # A 10^5-entry --pi is longer than Linux lets one argument be.
    seq = ",".join(map(str, random_degree_sequence(11, 10**5)))
    argfile = tmp_path / "args.txt"
    argfile.write_text(f"--pi\n{seq}\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["build", "--pi", seq, "--json"]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "subtrees.cli", "build", f"@{argfile}", "--json"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == out.getvalue()


def test_verify_far_above_the_enumeration_cap_exits_5_at_once(tmp_path):
    # The census's tables grow with n^2 digits, so the cap is checked before
    # any is built: a huge --all-n, or a --pi of 10^5 entries, exits 5 at once.
    argfile = tmp_path / "args.txt"
    argfile.write_text("--pi\n" + ",".join(["2"] * (10**5 - 2) + ["1", "1"]) + "\n")
    for argv, n in ((("--all-n", "1000000"), "1000000"), ((f"@{argfile}",), "100000")):
        proc = subprocess.run(
            [sys.executable, "-m", "subtrees.cli", "verify", *argv],
            capture_output=True,
            text=True,
            timeout=10,
        )
        message = f"exhaustive enumeration capped at {_ENUMERATION_LIMIT} vertices, got {n}"
        assert (proc.returncode, proc.stdout, proc.stderr) == (5, "", f"error: {message}\n")


def test_missing_args_file_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["build", f"@{tmp_path / 'absent.txt'}"])
    assert exc.value.code == 2 and "absent.txt" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "subtrees.cli", "build", "--pi", "2,1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "phi: 6" in proc.stdout


# Fuzzing: every exit is a documented code and no traceback reaches stderr.
EXIT_CODES = {0, 2, 3, 4, 5}
TOKENS = st.one_of(
    st.integers(-3, 15).map(str),
    st.sampled_from(["", " ", "x", "1.5", "+2", "0x3", "\u0663", "\u00e9"]),
    st.just(HUGE),
)
SEQUENCE_TEXT = st.one_of(
    st.text(max_size=40), st.lists(TOKENS, min_size=1, max_size=12).map(",".join)
)
TREE_TEXT = st.one_of(
    st.text(max_size=80),
    st.tuples(TOKENS, st.lists(st.lists(TOKENS, max_size=3).map(" ".join), max_size=14)).map(
        lambda head_lines: "\n".join([head_lines[0], *head_lines[1]])
    ),
)


def assert_clean_exit(*argv: str) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    assert code in EXIT_CODES and "Traceback" not in err.getvalue(), (argv, code)


@settings(max_examples=100, deadline=None)
@given(TREE_TEXT)
def test_fuzz_count_tree_files(tmp_path_factory, text):
    f = tmp_path_factory.getbasetemp() / "fuzz_tree.txt"
    f.write_bytes(text.encode("utf-8", "surrogatepass"))
    assert_clean_exit("count", str(f))


@settings(max_examples=100, deadline=None)
@given(SEQUENCE_TEXT, SEQUENCE_TEXT)
def test_fuzz_sequence_arguments(a, b):
    assert_clean_exit("build", f"--pi={a}")
    assert_clean_exit("verify", f"--pi={a}", "--json")
    assert_clean_exit("order", f"--a={a}", f"--b={b}")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(cli._CLASS_FUNCTIONS)), st.integers(-3, 30), st.integers(-3, 40))
def test_fuzz_class_parameters(kind, n, k):
    assert_clean_exit("class", "--type", kind, f"--n={n}", f"--k={k}")


def test_out_of_range_arguments_exit_cleanly():
    assert_clean_exit("verify", "--all-n", "0")
    assert_clean_exit("verify", "--all-n", str(_ENUMERATION_LIMIT + 1))
    assert_clean_exit("verify", "--all-n", HUGE)
    assert_clean_exit("class", "--type", "maxdeg", "--n", HUGE, "--k", "3")
    assert_clean_exit("class", "--type", "leaves", "--n", "7", "--k", HUGE)
    assert_clean_exit("order", "--a", f"{HUGE},1", "--b", "1,1")


def test_every_command_exits_cleanly_at_the_least_int_digit_limit(tmp_path):
    # Each command in a fresh interpreter under the least int-digit limit an
    # interpreter accepts, with a number past it in its arguments, its tree
    # file or its output.  The leaves report's spider count has 4,772
    # digits; json.dumps once raised ValueError on it, exit 1.
    big = "9" * 700
    treefile = tmp_path / "big.txt"
    treefile.write_text(f"2\n0 {big}\n")
    expected = {
        ("class", "--type", "leaves", "--n", "20000", "--k", "10000", "--json"): 0,
        ("class", "--type", "leaves", "--n", big, "--k", "3"): 2,
        ("verify", "--all-n", big): 2,
        ("count", str(treefile)): 2,
        ("build", "--pi", f"{big},1", "--json"): 3,
        ("verify", "--pi", f"{big},1", "--json"): 3,
        ("order", "--a", f"{big},1", "--b", "2,2"): 3,
    }
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
    procs = {
        argv: subprocess.Popen(
            [sys.executable, "-m", "subtrees.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for argv in expected
    }
    outputs = []
    for argv, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        outputs.append(out)
        assert (proc.returncode, "Traceback" in err) == (expected[argv], False), (argv, err[-300:])
    # The one count printed as a JSON number equals phi, a decimal string.
    phi = re.search(r'"phi": "([0-9]+)"', outputs[0])[1]
    assert re.search(r'"closed_form": ([0-9]+)', outputs[0])[1] == phi and len(phi) == 4772


@pytest.mark.parametrize("n", [10**15, 10**20])
@pytest.mark.parametrize("kind", ["maxdeg", "leaves", "alpha", "beta"])
def test_class_above_the_cap_exits_5_before_allocating(capsys, kind, n):
    k = {"maxdeg": 3, "leaves": 3, "alpha": n - 1, "beta": 1}[kind]
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "class", "--type", kind, "--n", str(n), "--k", str(k))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 5 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert peak < 2**20

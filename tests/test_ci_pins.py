"""The outputs that CI pins by sha256, checked in-process by the tier-1 suite.

``.github/workflows/tests.yml`` pins the bytes of several CLI outputs, of
``realizable_sequences(40)`` and of the local search.  Each test here makes
the same bytes in this process, through ``cli.main`` or the library call
that the step makes, into a hashing sink, and compares them with the
digest that CI holds.  CI still runs each step twice in fresh processes,
which checks what one in-process run cannot: that the bytes are the same
from process to process.  The last test checks that every digest of the
workflow is held here, so the two copies cannot drift apart; the digest
of the full search is held, and a subset of its trees is run.
"""

from __future__ import annotations

import contextlib
import random
import re
from pathlib import Path

import pytest

from helpers import Digest, int_digit_limit, random_recursive_tree, seeded_tree
from subtrees import local_search_optimize, realizable_sequences
from subtrees.cli import main

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# Each digest of a CLI output that CI pins, with the commands whose stdout
# it is, run in a directory that holds CI's input files.  A command with
# the prefix PYTHONINTMAXSTRDIGITS=640 runs under that int-digit limit.
CLI_PINS = {
    "4543b12769367296e18c5564f116f397c8ef0f7650e6c8da3c21154d6fbbc989": [
        "verify --all-n 18 --json",
    ],
    "96e87f6f2402c0d901d282629afb3ee94056b0d8a7b891b265f0c27b97fffa2f": [
        "verify --all-n 18",
    ],
    "7322bb311a49a733e417c6e5688986d640e16c8a3b1bc3f745995193f01d0dc2": [
        "class --type maxdeg --n 100000 --k 3 --json",
    ],
    "bd8bb3c42695fa144528292c003c40582a37608a42ce6d57090ba2d19198a6f7": [
        "class --type maxdeg --n 100000 --k 3",
    ],
    "b4a92d8664161174dc138b3517617efba6880131761cfd96313500578a00326b": [
        "build @scale-build-args.txt --json",
        "PYTHONINTMAXSTRDIGITS=640 build @scale-build-args.txt --json",
    ],
    "dea566312e86d50fcdfd85ef68d3859f3fac78de06185ff20627bdf8e4d25319": [
        "build @scale-build-args.txt",
    ],
    "209e5a939aac571cd5af20c986a18c37bdb39233a465795e5cd46d981cca9c8d": [
        "class --type alpha --n 100000 --k 76067 --json",
    ],
    "f114f66806d8ac6a88e7fd67133110faff2417a355276429998c26e6c3cbcee4": [
        "class --type beta --n 100000 --k 16041 --json",
    ],
    "96d2ea96db3989b12a05fccf159752240df4be393d6678b1fedd57dfe2af247e": [
        "order @scale-order-args.txt --json",
    ],
    "dd6a2ce34ab2948f2ad38e5f548d401ac9db015fdca3a6afc8aba6bee2767a95": [
        "order @scale-order-3000-args.txt --json",
    ],
    "7b021ac1aa7615fb6cda31b2a1064813059d2ace8af7f8cf5c44b1ba7150c1a0": [
        "class --type leaves --n 20000 --k 10000 --json",
        "PYTHONINTMAXSTRDIGITS=640 class --type leaves --n 20000 --k 10000 --json",
    ],
    "7eb1a21d687853a39a287a27e267614e27888cf445452a452ba52d4ad09640fd": [
        "class --type leaves --n 20000 --k 10000",
    ],
    "18308641c19d6ee2614cd0f90a83e9cfeacd6dbe9422d45d593749b4a764020d": [
        "count scale-path-lf.txt",
        "count scale-path-crlf.txt",
        "PYTHONINTMAXSTRDIGITS=640 count scale-path-lf.txt",
    ],
    "b490c69da0dfccbbd9d9e8dcfcd62e05d0d38060d9494c0235a7c7b389d4e719": [
        "count scale-star.txt",
        "PYTHONINTMAXSTRDIGITS=640 count scale-star.txt",
    ],
}

LISTING_DIGEST = "ae68f95ea8dd0ab8ae76f25d3e733cfd811ce22f5853fd536a94912d5429b29a"

# CI searches 30 trees, n = 50, 100 and 200 for seeds 1..5, in about 7 s
# a run, too long for this suite.  Here the ten n = 50 trees and the four
# larger ones that the search stops short on (recursive seed 2 at n = 100
# and 200, seeds 3 and 5 at 200) print the same lines under their own
# digest.
FULL_SEARCH_DIGEST = "1fada278806d156b6315dff096fb65525b57175054f574c766b6a850d3065683"
SEARCH_DIGEST = "96b7a694c3fcb77553117383b5310e0f3c0884f620318515e3a7b895b3aebd43"
SEARCH_TREES = [(kind, s, 50) for s in range(1, 6) for kind in ("seeded", "recursive")]
SEARCH_TREES += [("recursive", 2, 100), ("recursive", 2, 200), ("recursive", 3, 200), ("recursive", 5, 200)]


@pytest.fixture(scope="module")
def ci_inputs(tmp_path_factory) -> Path:
    """A directory with the input files that CI's steps write, byte for byte."""
    folder = tmp_path_factory.mktemp("ci-inputs")
    pi = ",".join(["5"] * 100 + ["2"] * 99598 + ["1"] * 302)
    (folder / "scale-build-args.txt").write_bytes(f"--pi\n{pi}\n".encode())
    for n, name in ((1000, "scale-order-args.txt"), (3000, "scale-order-3000-args.txt")):
        star_pi = ",".join([str(n - 1)] + ["1"] * (n - 1))
        path_pi = ",".join(["2"] * (n - 2) + ["1"] * 2)
        (folder / name).write_bytes(f"--a\n{star_pi}\n--b\n{path_pi}\n".encode())
    path = "100000\n" + "".join(f"{v - 1} {v}\n" for v in range(1, 10**5))
    (folder / "scale-path-lf.txt").write_bytes(path.encode())
    (folder / "scale-path-crlf.txt").write_bytes(path.replace("\n", "\r\n").encode())
    star = "20000\n" + "".join(f"0 {v}\n" for v in range(1, 20000))
    (folder / "scale-star.txt").write_bytes(star.encode())
    return folder


@pytest.mark.parametrize(
    "command, digest",
    [(command, digest) for digest, commands in CLI_PINS.items() for command in commands],
    ids=[command for commands in CLI_PINS.values() for command in commands],
)
def test_cli_output_matches_ci_digest(monkeypatch, ci_inputs, command, digest):
    monkeypatch.chdir(ci_inputs)
    argv = command.split()
    limit = contextlib.nullcontext()
    if argv[0] == "PYTHONINTMAXSTRDIGITS=640":
        limit = int_digit_limit(640)
        del argv[0]
    out = Digest()
    with limit, contextlib.redirect_stdout(out):  # type: ignore[type-var]
        assert main(argv) == 0
    assert out.sha.hexdigest() == digest


def test_sequence_listing_matches_ci_digest():
    out = Digest()
    out.write(repr(realizable_sequences(40)))
    assert out.sha.hexdigest() == LISTING_DIGEST


def test_local_search_matches_its_digest():
    out = Digest()
    for kind, s, n in SEARCH_TREES:
        t = seeded_tree(s, n) if kind == "seeded" else random_recursive_tree(random.Random(s), n)
        out.write(f"{kind} {s} {n} {local_search_optimize(t).edges}\n")
    assert out.sha.hexdigest() == SEARCH_DIGEST


def test_every_ci_digest_is_checked_here():
    pinned = set(re.findall(r"\b[0-9a-f]{64}\b", WORKFLOW.read_text()))
    held = {*CLI_PINS, LISTING_DIGEST, FULL_SEARCH_DIGEST}
    assert pinned and pinned <= held

"""Benchmark for the subtrees CLI and library, end to end and per layer.

    python3 bench/run.py --workload {small,large} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``.
A run sets up (fresh import of the package plus generating the
workload's inputs from the seed) three times before the first pass and
three times between passes, and reports the median as setup_s; spread
over the run, the set-ups sample more than one moment of a shared
machine.  It then makes closed-loop passes over the workload's op list,
one op at a time in this one process, until another pass would end more
than S seconds after the first set-ups (at least three passes, so every
op is repeated).  With --trace 0 it then runs every op once in a fresh
process (``peak.py``, started before set-up) for the peak memory.  Every
output is checked against independent reference code and compared with
the first run of the same op, in this process and in the fresh one,
which must match it byte for byte.

With --trace 0 it prints the end-to-end metrics: paced_wall_s, setup_s,
ok_ratio and peak_rss_mb.  Other tenants of a shared machine make a CPU
up to 1.6 times slower, for milliseconds to minutes at a time, so the times
are paced: a fixed pure-Python loop (``pace``) runs before and after
every op and set-up, each op or set-up time is divided by the mean of
the two loop times around it, and the result is scaled to a CPU on which
the loop takes PACE_REF_S.  paced_wall_s sums each op's median paced
repeat over the op list; setup_s is the median paced set-up.  The run
also prints the fastest-repeat sum of raw wall times.

With --trace 1 some passes run untraced and some traced.  Traced passes put a
span around every public function of every layer; the run prints the
per-layer metrics listed in metrics.PER_LAYER, including
trace_overhead_ratio (traced pass wall / untraced pass wall).

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Exit status 2 means the package or the arguments were
unusable and no result was printed.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

import metrics
import workloads
from tracing import Tracer, layer_times

SETUP_REPEATS = 3
PACE_LOOPS = 60_000
PACE_REF_S = 0.0043
MIN_PASSES = 3
PEAK_TIMEOUT_S = 150
SCORES = "counting.count_subtrees"
HERE = Path(__file__).resolve().parent


def set_up(workload: str, seed: int, workdir: str) -> list[workloads.Op]:
    """Import the package afresh and build the workload's inputs."""
    for name in [m for m in sys.modules if m == "subtrees" or m.startswith("subtrees.")]:
        del sys.modules[name]
    importlib.import_module("subtrees.cli")
    return workloads.make_ops(workload, seed, workdir)


def set_up_repeatedly(workload: str, seed: int, workdir: str, times: list[float]):
    """Set up SETUP_REPEATS times, adding each duration to ``times``,
    paced as in ``metrics.paced_wall``."""
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = pace()
        start = perf_counter()
        ops = set_up(workload, seed, workdir)
        took = perf_counter() - start
        times.append(took / ((before + pace()) / 2) * PACE_REF_S)
    return ops


def pace() -> float:
    """Seconds that a fixed pure-Python loop takes on this CPU right now."""
    start = perf_counter()
    acc = 0
    for i in range(PACE_LOOPS):
        acc += i * i % 7
    return perf_counter() - start


def start_peak_process() -> subprocess.Popen:
    """Start ``peak.py`` and wait until it is ready for its op list.

    Linux carries a process's resident set size at fork into the child's
    peak, across exec, so the child is started before set-up, while this
    process is still small.
    """
    child = subprocess.Popen(
        [sys.executable, str(HERE / "peak.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    child.stdout.readline()
    return child


def peak_in_fresh_process(child: subprocess.Popen, ops: list[workloads.Op]) -> dict:
    """Have ``child`` run every op once; its outcomes and peak RSS in MB."""
    specs = json.dumps([{"argv": op.argv, "call": op.call} for op in ops])
    out, err = child.communicate(specs, timeout=PEAK_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"peak.py exited with {child.returncode}: {err[-2000:]}")
    return json.loads(out.splitlines()[-1])


class Run:
    """Timings, failures and per-layer numbers of one benchmark run."""

    def __init__(self, ops: list[workloads.Op]) -> None:
        self.ops = ops
        self.walls: list[list[float]] = [[] for _ in ops]
        self.paces: list[list[float]] = [[] for _ in ops]
        self.traced_walls: list[list[float]] = [[] for _ in ops]
        self.verdicts: list[tuple[str, str | None] | None] = [None] * len(ops)
        self.output_bytes = [0] * len(ops)
        self.attempted = 0
        self.failures: Counter = Counter()
        self.first_error: dict[tuple[str, str], str] = {}
        self.correct = True
        self.layer_passes: list[dict[str, float]] = []
        self.pass_walls: list[float] = []
        self.peak_rss_mb = 0.0

    def record(self, i: int, reason: str | None, detail: str) -> None:
        """Count one run of op i, failed when ``reason`` is set."""
        self.attempted += 1
        if reason is not None:
            kind = self.ops[i].kind
            self.failures[(kind, reason)] += 1
            self.first_error.setdefault((kind, reason), f"{self.ops[i].label}: {detail}")

    def execute(self, i: int) -> float:
        """Run op i once, record its outcome and return its wall time."""
        op = self.ops[i]
        out = io.StringIO()
        gc.collect()
        start = perf_counter()
        try:
            result = workloads.run_op(op.argv, op.call, out)
            reason = None
        except workloads.ExitStatus as exc:
            reason, detail = str(exc), ""
        except (Exception, SystemExit) as exc:  # op boundary: record and go on
            reason, detail = type(exc).__name__, str(exc)[:120]
        wall = perf_counter() - start
        if reason is None:
            reason, detail = self._judge(i, out.getvalue() if op.argv is not None else result)
        self.record(i, reason, detail)
        return wall

    def _judge(self, i: int, output) -> tuple[str | None, str]:
        """Check the first output of an op; compare later ones with it."""
        op = self.ops[i]
        data = (output if isinstance(output, str) else repr(output)).encode()
        digest = hashlib.sha256(data).hexdigest()
        if self.verdicts[i] is None:
            self.verdicts[i] = (digest, op.check(output))
            if op.argv is not None:
                self.output_bytes[i] = len(data)
        first, problem = self.verdicts[i]
        if digest != first:
            self.correct = False
            return "output changed between repeats", "differs from the first run"
        if problem is not None:
            self.correct = False
            return "wrong output", problem
        return None, ""

    def take_peak(self, found: dict) -> None:
        """Count the runs of the fresh process, judged against this one's."""
        self.peak_rss_mb = found["peak_rss_mb"]
        for i, (status, value) in enumerate(found["outcomes"]):
            verdict = self.verdicts[i]
            if status == "error":
                self.record(i, value, "in a fresh process")
            elif verdict is None or verdict[0] != value:
                self.correct = False
                self.record(i, "output differs in a fresh process", "not as in this one")
            elif verdict[1] is not None:
                self.record(i, "wrong output", verdict[1])
            else:
                self.record(i, None, "")

    def run_pass(self, tracer: Tracer | None) -> None:
        self_s: Counter = Counter()
        busy_s: Counter = Counter()
        calls: Counter = Counter()
        items: Counter = Counter()
        scored = accepted = 0
        pass_wall = 0.0
        before = pace()
        for i, op in enumerate(self.ops):
            if tracer is None:
                self.walls[i].append(self.execute(i))
                after = pace()
                self.paces[i].append((before + after) / 2)
                before = after
                continue
            tracer.op = i
            tracer.observers[SCORES].clear()
            wall = self.execute(i)
            self.traced_walls[i].append(wall)
            pass_wall += wall
            spans, op_calls, op_items = tracer.take()
            op_self, op_busy = layer_times(spans)
            self_s.update(op_self)
            busy_s.update(op_busy)
            calls.update(op_calls)
            items.update(op_items)
            if op.kind == "search":
                s, a = metrics.accepted_moves(tracer.observers[SCORES])
                scored += s
                accepted += a
        if tracer is not None:
            self.layer_passes.append(
                metrics.pass_layer_metrics(self_s, busy_s, calls, items, pass_wall, scored, accepted)
            )

    def measure(self, deadline: float, trace: bool, set_up_again: Callable[[], object]) -> None:
        """Closed-loop passes until one more would end after ``deadline``
        (a ``perf_counter`` reading), with ``set_up_again`` between passes.

        With ``trace``, passes go untraced, traced, traced, untraced and so
        on, at least two of each, so both kinds sample the whole run.
        """
        while True:
            done = len(self.pass_walls)
            if done:
                set_up_again()
            tracer = None
            if trace and (done + done // 2) % 2 == 1:
                tracer = Tracer()
                tracer.observers[SCORES] = []
                tracer.install()
            began = perf_counter()
            try:
                self.run_pass(tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            self.pass_walls.append(perf_counter() - began)
            if (
                len(self.pass_walls) >= MIN_PASSES + trace
                and perf_counter() + self.pass_walls[-1] > deadline
            ):
                break

    def wall_by_kind(self) -> dict[str, float]:
        kinds: dict[str, list[int]] = {}
        for i, op in enumerate(self.ops):
            kinds.setdefault(op.kind, []).append(i)
        return {kind: self.paced_wall(ops) for kind, ops in kinds.items()}

    def paced_wall(self, ops) -> float:
        return metrics.paced_wall(
            [self.walls[i] for i in ops], [self.paces[i] for i in ops], PACE_REF_S
        )

    def end_to_end(self, setup_times: list[float]) -> dict[str, tuple[float, str]]:
        failed = sum(self.failures.values())
        return {
            "paced_wall_s": (self.paced_wall(range(len(self.ops))), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "ok_ratio": (1 - metrics.ratio(failed, self.attempted), "ratio"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        values = {
            name: statistics.median_low(p[name] for p in self.layer_passes)
            for name in self.layer_passes[0]
        }
        optima = [op.facts["optimum"] for op in self.ops if "optimum" in op.facts]
        values["extremal.optimum_ratio"] = metrics.ratio(sum(optima), len(optima))
        values["cli.output_bytes"] = sum(self.output_bytes)
        values["trace_overhead_ratio"] = metrics.ratio(
            metrics.pass_wall(self.traced_walls), metrics.pass_wall(self.walls)
        )
        return {name: (values[name], unit) for name, unit, _ in metrics.PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("small", "large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    src = root / "src"
    if not (src / "subtrees" / "__init__.py").is_file():
        print(f"error: no subtrees package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    child = None if args.trace else start_peak_process()
    try:
        with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=root) as workdir:
            setup_times: list[float] = []
            set_up_again = functools.partial(
                set_up_repeatedly, args.workload, args.seed, workdir, setup_times
            )
            ops = set_up_again()
            run = Run(ops)
            run.measure(perf_counter() + args.seconds, bool(args.trace), set_up_again)
            if child is not None:
                run.take_peak(peak_in_fresh_process(child, ops))
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()

    print(
        f"workload={args.workload} seed={args.seed} ops={len(ops)} "
        f"python={platform.python_version()} nproc={os.cpu_count()}"
    )
    print("  pass walls (s, with checks): " + " ".join(f"{w:.3f}" for w in run.pass_walls))
    for kind, wall in run.wall_by_kind().items():
        print(f"  paced_wall_s[{kind}] {wall:.4f} s")
    print(f"  fastest-repeat wall {metrics.pass_wall(run.walls):.4f} s")
    for (kind, reason), count in sorted(run.failures.items()):
        print(f"  failed {kind}/{reason} x{count}  first: {run.first_error[(kind, reason)]}")
    found = run.per_layer() if args.trace else run.end_to_end(setup_times)
    for name, (value, unit) in found.items():
        print(f"  {name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": run.attempted,
                "failed": sum(run.failures.values()),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in found.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

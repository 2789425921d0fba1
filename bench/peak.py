"""Peak memory of the program alone: run each op once in a fresh process.

    python3 bench/peak.py < specs.json

Prints ``ready``, then reads a JSON list of ops, each ``{"argv": [...] | null, "call": [...] | null}``
as in ``workloads.Op``, runs them in order in this process and prints one
JSON object: for each op either ``["ok", sha256 of its output]`` or
``["error", reason]``, and ``peak_rss_mb``, the peak resident set size of
this process.  Outputs are hashed as they are written and then dropped, so
the peak is that of the interpreter, the package and the ops, with no
benchmark buffers in it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
from pathlib import Path

import workloads


class HashSink:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self.hash.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def main() -> int:
    print("ready", flush=True)
    specs = json.load(sys.stdin)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    importlib.import_module("subtrees.cli")
    outcomes = []
    for spec in specs:
        sink = HashSink()
        try:
            result = workloads.run_op(spec["argv"], spec["call"], sink)
        except workloads.ExitStatus as exc:
            outcomes.append(["error", str(exc)])
            continue
        except (Exception, SystemExit) as exc:  # op boundary: record and go on
            outcomes.append(["error", type(exc).__name__])
            continue
        if spec["argv"] is None:
            sink.write(repr(result))
        outcomes.append(["ok", sink.hash.hexdigest()])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"outcomes": outcomes, "peak_rss_mb": peak}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

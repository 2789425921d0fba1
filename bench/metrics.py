"""Metric arithmetic: wall sums, ratios and per-layer shares."""

from __future__ import annotations

import statistics
from collections import Counter

# Per-layer metrics: (name, unit, better).  Shares are fractions of the
# traced wall time of one pass over the op list; a layer the workload never
# calls reads 0.  Counts are per pass and repeat exactly for a given seed.
LAYERS = ("cli", "trees", "counting", "oracle", "extremal", "majorization", "formulas")
SELF_SHARES = (
    "oracle.prufer_sequences",
    "oracle.enumerate_trees",
    "oracle.extremal_by_enumeration",
    "extremal.local_search_optimize",
)
BUSY_SHARES = (
    "trees.parse_edge_list",
    "trees.tree_from_edges",
    "trees.root_at",
    "trees.canonical_code",
    "trees.path_between",
    "counting.count_rooted",
    "counting.count_subtrees",
    "counting.f_vector",
    "extremal.build_greedy_bfs",
    "extremal.decompose_path",
    "extremal.swap_components",
    "extremal.swap_path_edges",
    "majorization.majorizes",
    "majorization.class_max_sequence",
)
CALLS = (
    "trees.tree_from_edges",
    "trees.path_between",
    "counting.count_subtrees",
    "extremal.swap_components",
    "extremal.swap_path_edges",
    "majorization.majorizes",
)
PER_LAYER = (
    [(f"{layer}.self_share", "share", "lower") for layer in LAYERS]
    + [(f"{name}.self_share", "share", "lower") for name in SELF_SHARES]
    + [(f"{name}.busy_share", "share", "lower") for name in BUSY_SHARES]
    + [(f"{name}.calls", "count", "lower") for name in CALLS]
    + [
        ("oracle.labeled_decoded", "count", "lower"),
        ("oracle.iso_classes", "count", "higher"),
        ("oracle.dedupe_ratio", "ratio", "higher"),
        ("extremal.moves_scored", "count", "lower"),
        ("extremal.moves_accepted", "count", "higher"),
        ("extremal.accept_ratio", "ratio", "higher"),
        ("extremal.optimum_ratio", "ratio", "higher"),
        ("cli.output_bytes", "bytes", "lower"),
        ("trace.pass_wall_s", "s", "lower"),
        ("trace_overhead_ratio", "ratio", "lower"),
    ]
)


def ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when there is no whole to divide by."""
    return part / whole if whole else 0.0


def pass_wall(walls: list[list[float]]) -> float:
    """Wall time of one pass: each op's fastest repeat, summed over the ops."""
    return sum(min(w) for w in walls)


def paced_wall(walls: list[list[float]], paces: list[list[float]], ref_pace: float) -> float:
    """Wall time of one pass at a fixed CPU speed, summed over the ops.

    Each repeat of an op is divided by the pace (the time of a fixed loop)
    measured around it, the median over repeats is taken per op, and the
    sum is scaled to a CPU on which the loop takes ``ref_pace`` seconds.
    """
    return ref_pace * sum(
        statistics.median(w / p for w, p in zip(op_walls, op_paces))
        for op_walls, op_paces in zip(walls, paces)
    )


def accepted_moves(scores: list[int]) -> tuple[int, int]:
    """(scored, accepted) for one local search from its phi values in order.

    The first value is the starting tree's count; every later one is a
    scored candidate, accepted when it beats every value before it.
    """
    if not scores:
        return 0, 0
    best = scores[0]
    accepted = 0
    for value in scores[1:]:
        if value > best:
            best = value
            accepted += 1
    return len(scores) - 1, accepted


def pass_layer_metrics(
    self_s: Counter,
    busy_s: Counter,
    calls: Counter,
    items: Counter,
    pass_wall: float,
    scored: int,
    accepted: int,
) -> dict[str, float]:
    """The per-layer values of one traced pass (shares of ``pass_wall``)."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        own = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.self_share"] = ratio(own, pass_wall)
    for name in SELF_SHARES:
        out[f"{name}.self_share"] = ratio(self_s[name], pass_wall)
    for name in BUSY_SHARES:
        out[f"{name}.busy_share"] = ratio(busy_s[name], pass_wall)
    for name in CALLS:
        out[f"{name}.calls"] = calls[name]
    decoded = items["oracle.prufer_sequences"]
    classes = items["oracle.enumerate_trees"]
    out["oracle.labeled_decoded"] = decoded
    out["oracle.iso_classes"] = classes
    out["oracle.dedupe_ratio"] = ratio(classes, decoded)
    out["extremal.moves_scored"] = scored
    out["extremal.moves_accepted"] = accepted
    out["extremal.accept_ratio"] = ratio(accepted, scored)
    out["trace.pass_wall_s"] = pass_wall
    return out


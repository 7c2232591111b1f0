"""Metric names, units and the summaries that produce them.

END_TO_END metrics come from untraced passes; PER_LAYER metrics from the
traced passes of a ``--trace 1`` run.  Layer times are self times (span
time minus child-span time) and every per-layer value is per traced pass.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

END_TO_END = {
    "wall_s": "s",
    "item_s.p50": "s",
    "item_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span groups from tracing.py whose self time and call count are reported
TIMED_LAYERS = (
    "eigensolve.krylov", "eigensolve.factor", "discretize.energy",
    "geometry.polarize", "geometry.predicate", "geometry.rasterize",
    "geometry.domain", "rearrange.polarize_function", "rearrange.norm",
    "discretize.triangulate", "cli.parse", "formats.emit",
)
PER_LAYER = {}
for _layer in TIMED_LAYERS:
    PER_LAYER[_layer + "_s"] = "s"
    PER_LAYER[_layer + ".calls"] = "count"
PER_LAYER.update({
    "rearrange.gridfunction.calls": "count",
    "eigensolve.self_s": "s",
    "eigensolve.solve.calls": "count",
    "eigensolve.outer_iters": "count",
    "eigensolve.converged_ratio": "ratio",
    "experiments.self_s": "s",
    "formats.bytes": "bytes",
    "trace.overhead_s": "s",
})

TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def tail(values: list[float]) -> tuple[float, str]:
    """Tail of one pass's item latencies: the highest of TAIL_PERCENTILES
    with at least TAIL_MIN_BEYOND items above it (nearest rank), or the
    slowest item when the pass has too few items for any of them (the solve
    workloads: 2 or 10 distinct scenarios).  Returns (value, label)."""
    xs = sorted(values)
    n = len(xs)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return xs[rank - 1], f"p{q:g}"
    return xs[-1], "max"


def hd_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a mean of all the order
    statistics, weighted by the Beta((n+1)/2, (n+1)/2) mass of their rank.

    A plain median of the few items of a solve workload (10 a pass, a few
    passes a run) is one or two samples and jumps with them; this one leans
    on the dozen samples nearest the middle.  With thousands of items it
    reads the same as the plain median.
    """
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=float))
    a = (len(xs) + 1) / 2.0
    edges = betainc(a, a, np.linspace(0.0, 1.0, len(xs) + 1))
    return float(np.dot(np.diff(edges), xs))


def solve_stats(items) -> dict:
    """lambda drift, residual, outer iterations and convergence of solves."""
    solves = [it for it in items if it.kind == "solve"]
    drifts = [it.drift for it in solves if it.drift is not None]
    residuals = [it.residual for it in solves if it.residual is not None]
    return {
        "solves": len(solves),
        "lambda_drift": max(drifts, default=0.0),
        "residual_max": max(residuals, default=0.0),
        "outer_iters": sum(it.outer_iters or 0 for it in solves),
        "converged": sum(bool(it.converged) for it in solves),
    }


def end_to_end(passes, rss_mb: float) -> tuple[dict, dict]:
    """(metrics without setup_s, details) from untraced (wall, items) passes."""
    walls = [wall for wall, _ in passes]
    # a pass whose items all failed before timing falls back to pass walls
    times = [it.seconds for _, items in passes for it in items
             if it.seconds is not None] or walls
    # per-pass tails, then their median: a slow spike of a few seconds on
    # this kind of shared host moves one pass's tail, not the run's
    tails = [tail([it.seconds for it in items if it.seconds is not None]
                  or [wall]) for wall, items in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "item_s.p50": hd_median(times),
        "item_s.tail": statistics.median(value for value, _ in tails),
        "peak_rss_mb": rss_mb,
    }
    stats = solve_stats([it for _, items in passes for it in items])
    stats["outer_iters"] /= len(passes)
    details = {"passes": len(walls), "pass_walls_s": walls,
               "items_timed": len(times),
               "item_tail": f"median over passes of the per-pass {tails[0][1]}",
               **stats}
    return metrics, details


def per_layer(layer_totals: dict, counts: dict, byte_counts: dict,
              traced_passes, plain_walls) -> dict:
    """Per-traced-pass layer metrics from the tracer's aggregates."""
    n = len(traced_passes)

    def total(group, key):
        return layer_totals.get(group, {}).get(key, 0.0) / n

    out = {}
    for layer in TIMED_LAYERS:
        out[layer + "_s"] = total(layer, "self_s")
        out[layer + ".calls"] = total(layer, "calls")
    stats = solve_stats([it for _, items in traced_passes for it in items])
    out.update({
        "rearrange.gridfunction.calls": counts.get("rearrange.gridfunction", 0) / n,
        "eigensolve.self_s": total("eigensolve.solve", "self_s"),
        "eigensolve.solve.calls": total("eigensolve.solve", "calls"),
        "eigensolve.outer_iters": stats["outer_iters"] / n,
        # no solves (polar_algebra) reads 0: nothing converged
        "eigensolve.converged_ratio": (stats["converged"] / stats["solves"]
                                       if stats["solves"] else 0.0),
        "experiments.self_s": total("experiments", "self_s"),
        "formats.bytes": byte_counts.get("formats.emit", 0) / n,
        "trace.overhead_s": (statistics.median(w for w, _ in traced_passes)
                             - statistics.median(plain_walls)),
    })
    return out

"""One workload in one fresh process: set up, warm up, timed passes.

Started by run.py with BLAS/OpenMP threads pinned to 1.  Prints one JSON
object on its last stdout line.  ``--setup-only`` stops after set-up and
reports only its time, for the set-up probes.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: imports and inputs

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def run_passes(workload, inputs, seconds: float, tracer=None) -> list:
    """Whole passes within `seconds`: at least one, and another only while
    it is expected to end inside the budget (the last pass's time)."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.current_pass = len(passes)
        t0 = time.perf_counter()
        items = workload.run_pass(inputs)
        now = time.perf_counter()
        passes.append((now - t0, items))
        if now - start + (now - t0) > seconds:
            return passes


def _import_workloads(root: Path):
    sys.path.insert(0, str(root / "src"))
    import polarlap
    if Path(polarlap.__file__).resolve().parent != (root / "src" / "polarlap").resolve():
        raise ImportError(f"polarlap imported from {polarlap.__file__}, "
                          f"not from {root / 'src'}")
    import workloads
    return workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()

    workloads = _import_workloads(root)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, root)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import metrics
    workload.warmup(inputs)
    # a traced run splits its time between untraced and traced passes
    budget = args.seconds / 2.0 if args.trace else args.seconds
    plain = run_passes(workload, inputs, budget)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e, details = metrics.end_to_end(plain, rss_mb)
    e2e["setup_s"] = setup_s
    all_items = [it for _, items in plain for it in items]

    layers = None
    if args.trace:
        from tracing import Tracer
        with Tracer() as tracer:
            traced = run_passes(workload, inputs, budget, tracer)
        layers = metrics.per_layer(tracer.layer_totals(), tracer.counts,
                                   tracer.bytes, traced, details["pass_walls_s"])
        all_items += [it for _, items in traced for it in items]
        trace_path = root / ".perfbench_out" / f"trace-{args.workload}.csv.gz"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
        details["trace_file"] = str(trace_path.relative_to(root))
        details["traced_passes"] = len(traced)
        details["spans"] = len(tracer.start)

    failures = [it.error for it in all_items if not it.ok]
    print(json.dumps({
        "end_to_end": e2e,
        "per_layer": layers,
        "details": details,
        "attempted": len(all_items),
        "failed": len(failures),
        "first_failures": failures[:5],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""polarlap benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_p2 --seed 1 --seconds 10 --trace 0

Runs SETUP_PROBES fresh processes that only set up (import and build the
inputs), then one fresh worker process that sets up, warms up untimed,
and measures whole passes for --seconds.  With --trace 1 the worker then
repeats the passes with span tracing on.  Every process gets BLAS/OpenMP
threads pinned to 1.  Prints a details line, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  Exits non-zero without a
result line when the checkout has no polarlap sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("sweep_p2", "solve_pnl", "polar_algebra")
SETUP_PROBES = 4          # plus the worker's own set-up: median of 5
DEADLINE_S = 170.0        # whole run, probes and worker included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker(args: list, root: Path, deadline: float) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), *args]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()),
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import importlib.metadata as md
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def measure(workload: str, seed: int, seconds: float, trace: int,
            root: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    probes = [_worker(common + ["--seconds", "0", "--setup-only"], root,
                      deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                  root, deadline)
    setups = probes + [res["end_to_end"]["setup_s"]]
    e2e = dict(res["end_to_end"], setup_s=statistics.median(setups))
    values, units = (res["per_layer"], PER_LAYER) if trace else (e2e, END_TO_END)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    details = {
        "workload": workload,
        "seed": seed if workload == "polar_algebra" else f"{seed} (unused)",
        "seconds": seconds,
        "end_to_end": e2e,
        "setup_samples_s": setups,
        "fail_frac": res["failed"] / res["attempted"],
        **res["details"],
        "first_failures": res["first_failures"],
        "environment": environment(),
    }
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "polarlap" / "__init__.py").is_file():
        print("error: run from the root of a polarlap checkout "
              "(src/polarlap not found)", file=sys.stderr)
        return 2
    try:
        result, details = measure(args.workload, args.seed, args.seconds,
                                  args.trace, root)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=2) + "\n")
    print(json.dumps({"perfbench": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

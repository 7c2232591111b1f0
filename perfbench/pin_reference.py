"""Pin the reference eigenvalues of the solve workloads.

Usage, from the root of a checkout whose outputs define the reference:

    python3 perfbench/pin_reference.py

Runs every benchmark solve scenario once through polarlap.cli.main and
writes perfbench/reference.json: per scenario the parameters and lambdas
of its result.csv.  A later correctness gate compares against these.
"""

import json
import sys
from pathlib import Path

ROOT = Path.cwd().resolve()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

LAMBDA_REL_TOL = 1e-7   # ten times the configs' outer_tol of 1e-8


def main() -> int:
    out = ROOT / ".perfbench_out" / "pin"
    scenarios = {}
    for sc in workloads.SWEEPS + workloads.NONLINEAR:
        rc, _ = workloads.run_scenario(sc, ROOT, out / sc.name)
        if rc != 0:
            print(f"error: {sc.name} exited {rc}", file=sys.stderr)
            return 1
        rows = workloads.read_result_csv(out / sc.name / "result.csv")
        scenarios[sc.name] = {"params": [r["param"] for r in rows],
                              "lambdas": [r["lambda"] for r in rows]}
    ref = {"lambda_rel_tol": LAMBDA_REL_TOL, "scenarios": scenarios}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark harness itself (no solves; a few seconds).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_child_self_times_add_up_to_parent_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_t = tracer.wrap("leaf", leaf)

    def middle():
        leaf_t()
        time.sleep(0.001)
        leaf_t()

    mid_t = tracer.wrap("middle", middle)

    def root():
        mid_t()
        leaf_t()

    tracer.wrap("root", root)()
    own = tracer.self_times()
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert list(tracer.parent) == [-1, 0, 1, 1, 0]
    assert all(x >= 0.0 for x in own)
    assert sum(own) == pytest.approx(dur[0], rel=1e-12, abs=1e-12)
    for i in range(len(dur)):
        kids = [j for j, p in enumerate(tracer.parent) if p == i]
        assert own[i] + sum(dur[j] for j in kids) == pytest.approx(dur[i], abs=1e-12)


def test_installed_tracer_nests_layer_spans_and_restores():
    import polarlap.geometry as G
    original = G.polarize_set
    inputs = workloads._algebra_setup(3, ROOT)
    H, D = inputs.pool[0], workloads._build_domains(inputs)[0]
    with Tracer() as tracer:
        assert G.polarize_set is not original
        root = tracer.wrap("root", workloads.punctured_block)
        item = root(H, D)
    assert G.polarize_set is original
    assert item.ok
    totals = tracer.layer_totals()
    assert totals["geometry.polarize"]["calls"] == 5   # 1 punctured + 4 set calls
    assert totals["geometry.domain"]["calls"] == 1     # rebuilt by polarize_punctured
    assert "eigensolve.solve" not in totals
    own_sum = sum(tracer.self_times())
    assert own_sum == pytest.approx(tracer.end[0] - tracer.start[0], abs=1e-9)


def _fake_outputs(tmp_path, sc, reference, direction):
    ref = reference["scenarios"][sc.name]
    rows = [workloads.CSV_HEADER] + [
        f"{p!r},{lam!r},true,10,1e-07" for p, lam in zip(ref["params"], ref["lambdas"])]
    (tmp_path / "result.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "verdict.json").write_text(json.dumps({"direction": direction}))


def test_gate_passes_seed_outputs_and_fails_perturbed_reference(tmp_path):
    reference = workloads.load_reference()
    sc = workloads.SWEEPS[0]
    _fake_outputs(tmp_path, sc, reference, sc.verdict)
    items = workloads.check_outputs(sc, 0, tmp_path, [0.1] * 5, reference)
    assert len(items) == 5 and all(it.ok for it in items)
    assert metrics.solve_stats(items)["lambda_drift"] == 0.0

    perturbed = json.loads(json.dumps(reference))
    lams = perturbed["scenarios"][sc.name]["lambdas"]
    lams[2] *= 1.0 + 1e-6
    items = workloads.check_outputs(sc, 0, tmp_path, [0.1] * 5, perturbed)
    assert [it.ok for it in items] == [True, True, False, True, True]
    assert "lambda drift" in items[2].error


def test_gate_fails_wrong_verdict_and_nonzero_exit(tmp_path):
    reference = workloads.load_reference()
    sc = workloads.SWEEPS[1]
    _fake_outputs(tmp_path, sc, reference, "mixed")
    assert not any(it.ok for it in workloads.check_outputs(sc, 0, tmp_path, [], reference))
    _fake_outputs(tmp_path, sc, reference, sc.verdict)
    assert not any(it.ok for it in workloads.check_outputs(sc, 3, tmp_path, [], reference))
    (tmp_path / "result.csv").unlink()
    items = workloads.check_outputs(sc, 0, tmp_path, [], reference)
    assert len(items) == 5 and not any(it.ok for it in items)


def test_algebra_inputs_follow_the_seed():
    a = workloads._algebra_setup(5, ROOT)
    b = workloads._algebra_setup(5, ROOT)
    c = workloads._algebra_setup(6, ROOT)
    assert all(x.same_cells(y) for x, y in zip(a.rasters, b.rasters))
    assert a.obstacles == b.obstacles and a.obstacles != c.obstacles
    assert not a.rasters[0].same_cells(c.rasters[0])


def test_tail_uses_percentile_with_ten_samples_beyond():
    assert metrics.tail([float(i) for i in range(1, 1001)]) == (990.0, "p99")
    assert metrics.tail([float(i) for i in range(1, 101)]) == (90.0, "p90")
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, "max")


def test_hd_median_weighs_the_middle_samples():
    assert metrics.hd_median([2.0]) == pytest.approx(2.0)
    assert metrics.hd_median([1.0, 3.0]) == pytest.approx(2.0)
    # symmetric samples: the estimate is their centre, like the median
    assert metrics.hd_median([0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]) \
        == pytest.approx(6.5)
    xs = [float(i) for i in range(1, 1002)]
    assert metrics.hd_median(xs) == pytest.approx(501.0)
    # a single outlier moves it little
    assert metrics.hd_median(xs[:-1] + [1e6]) == pytest.approx(501.0, rel=1e-3)


def test_tail_is_the_median_of_per_pass_tails():
    item = workloads.Item
    passes = [(1.0, [item("solve", s, True) for s in (0.1, 0.4)]),
              (9.0, [item("solve", s, True) for s in (0.1, 3.0)]),   # a slow spike
              (1.1, [item("solve", s, True) for s in (0.2, 0.5)])]
    e2e, details = metrics.end_to_end(passes, rss_mb=1.0)
    assert e2e["item_s.tail"] == 0.5
    assert e2e["wall_s"] == 1.1
    # the median item pools every item of every pass, the spike's too
    assert e2e["item_s.p50"] == metrics.hd_median([0.1, 0.4, 0.1, 3.0, 0.2, 0.5])


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_p2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

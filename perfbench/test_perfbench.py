"""The benchmark's own tests: schema, checks and tracing, on smoke-sized
workloads (n <= 3).  Run with `python3 -m pytest perfbench -q` from the
repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args, results, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args,
                           "--results", str(results)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _summary(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(workloads.SMOKE) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_end_to_end_metrics(name, tmp_path):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--smoke", results=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = _summary(proc)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == workloads.SMOKE[name].setup_samples
    assert set(summary["metrics"]) == set(run.END_TO_END)
    for name_, metric in summary["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name_][0]
        assert metric["value"] > 0
    record = json.loads((tmp_path / "runs.jsonl").read_text().splitlines()[-1])
    assert record["failed_share"] == 0.0
    assert set(record["provenance"]) == {"commit", "source_sha256", "nproc",
                                         "cpu_model", "python", "numpy", "scipy"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_trace_reports_every_layer_metric(name, tmp_path):
    proc = _bench("--workload", name, "--seed", "4", "--seconds", "0",
                  "--trace", "1", "--smoke", results=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = _summary(proc)
    assert summary["correct"]
    assert set(summary["metrics"]) == set(run.PER_LAYER)
    layers = {k: v["value"] for k, v in summary["metrics"].items()}
    level = workloads.SMOKE[name].levels[-1]
    assert layers["statespace.states"] >= workloads.PAPER[level][1]
    assert layers["spectral.iterations"] > 0 and layers["spectral.iter_ms"] > 0
    if name != "build-n7":
        assert layers["search.alpha_sup_calls"] >= 1
        assert 0 < layers["search.recheck_iter_share"] < layers["search.cold_iter_share"] <= 1
    spans = [json.loads(line)
             for path in (tmp_path / "spans").iterdir()
             for line in path.read_text().splitlines()]
    assert spans and all({"name", "start", "end", "parent", "workload", "run"} <= set(s)
                         for s in spans)
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)


def test_changed_exact_counts_fail_the_run(tmp_path):
    args = ("--workload", "bound-n6", "--seed", "1", "--seconds", "0", "--smoke")
    assert _bench(*args, "--trace", "0", results=tmp_path).returncode == 0
    path = tmp_path / "counts.json"
    counts = json.loads(path.read_text())
    key = next(iter(counts))
    counts[key]["spectral.iterations"] += 1
    path.write_text(json.dumps(counts))
    proc = _bench(*args, "--trace", "0", results=tmp_path)
    summary = _summary(proc)
    assert proc.returncode != 0
    assert not summary["correct"] and summary["failed"] >= 1
    assert "exact counts differ" in proc.stderr


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench("--workload", "bound-n6", "--seed", "1", "--seconds", "1",
                  "--trace", "0", results=tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_use_the_paper_pins():
    assert workloads.check_counts(6, 694, 839009) == []
    assert workloads.check_counts(6, 694, 839008)
    assert workloads.check_bound(6, 0.13659747 + 5e-7, 0.99, True) == []
    assert workloads.check_bound(6, 0.13659747 + 2e-6, 0.99, True)
    assert workloads.check_bound(6, 0.13659747, 1.0, True)
    assert workloads.check_bound(1, 0.1253, 0.99, True) == []
    assert workloads.check_table_row(4, 1.43, 0.13502855) == []
    assert workloads.check_table_row(4, 1.44, 0.13502855)
    assert workloads.check_certificate(7, 0.137, 0.9999) == []
    assert workloads.check_certificate(7, 0.137, 1.0)
    assert workloads.check_certificate(7, 0.1365, 0.9999)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},  # overlaps 2
        {"id": 4, "parent": 3, "start": 3.5, "end": 5.0},
    ]
    own = tracing.self_times(spans)
    assert own == {1: 5.0, 2: 3.0, 3: 1.5, 4: 1.5}


def test_tracer_gives_pool_threads_the_callers_span():
    from concurrent.futures import ThreadPoolExecutor

    tracer = tracing.Tracer("w", "r")
    inner = tracer.wrap("spectral.inner", lambda x: x)

    def outer(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, xs))

    assert tracer.wrap("search.outer", outer)(range(8)) == list(range(8))
    top = [s for s in tracer.spans if s["name"] == "search.outer"]
    assert len(top) == 1
    assert all(s["parent"] == top[0]["id"] for s in tracer.spans
               if s["name"] == "spectral.inner")


def test_layer_metrics_on_one_bisection():
    def solve(id_, start, end, iterations, cold):
        return {"id": id_, "name": "spectral.check_subcritical", "layer": "spectral",
                "parent": 1, "start": start, "end": end, "iterations": iterations,
                "cold": cold, "states": 100, "index_bytes": 4}

    spans = [{"id": 1, "name": "search.alpha_sup", "layer": "search", "parent": None,
              "start": 0.0, "end": 10.0, "bisection_steps": 1, "degenerate": False},
             solve(2, 1.0, 3.0, 10, True), solve(3, 4.0, 6.0, 5, False),
             solve(4, 7.0, 9.0, 8, True)]
    m = tracing.layer_metrics(spans, solve_s=20.0)
    assert m["spectral.iterations"] == 23 and m["spectral.solves"] == 3
    assert m["spectral.iter_ms"] == pytest.approx(6e3 / 23)
    assert m["spectral.bytes_per_iter"] == tracing.bytes_per_iteration(100, 4)
    assert m["search.cold_iter_share"] == pytest.approx(18 / 23)
    assert m["search.recheck_iter_share"] == pytest.approx(8 / 23)
    assert m["search.self_share"] == pytest.approx(4.0 / 20.0)
    assert m["spectral.self_s"] == pytest.approx(6.0)
    assert set(m) == set(tracing.LAYER_METRICS)

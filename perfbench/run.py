"""Benchmark entry point: run one workload in fresh worker processes and print
its metrics as one JSON line.

    python3 perfbench/run.py --workload bound-n6 --seed 1 --seconds 5 --trace 0

Run it from the root of a source checkout; it times the package under
`src/`, exits non-zero without a result when that is missing, and never
needs a build.  With `--trace 0` the result holds the end-to-end metrics
(`setup_s`, `solve_s`, `peak_rss_mb`), with `--trace 1` the per-layer
metrics of `tracing.layer_metrics` plus `trace.overhead_s`.  Every run
also appends a record with its provenance to `perfbench/results/`.

A run starts the workload's `setup_samples - 1` set-up-only workers and
one full worker, in an order drawn from `--seed`, and repeats the full
worker while less than `--seconds` of full runs have elapsed.  Each
worker is its own process, so its peak RSS is its own.  `--smoke` runs
the same workload shapes at n <= 3.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "stavskaya"
RESULTS = HERE / "results"

from tracing import LAYER_METRICS
from workloads import SMOKE, WORKLOADS

# every worker must be finished this long after run.py started
DEADLINE_S = 170.0
# name -> (unit, which way is better), as in BENCHMARK.json
END_TO_END = {"setup_s": ("s", "lower"), "solve_s": ("s", "lower"),
              "peak_rss_mb": ("MiB", "lower")}
PER_LAYER = dict(LAYER_METRICS, **{"trace.overhead_s": ("s", "lower")})
# counts that must repeat exactly from run to run of the same code
EXACT_COUNTS = ("patterns.count", "statespace.states", "statespace.edges",
                "spectral.iterations", "search.bisection_steps")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def provenance() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy")}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Run:
    """One invocation: its workers, their results and its failures."""

    def __init__(self, args, out: Path):
        self.args = args
        self.out = out
        self.started = time.monotonic()
        self.tag = f"{args.workload}{'-smoke' if args.smoke else ''}"
        self.label = f"{self.tag}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.env = worker_env()
        self.results: list[dict] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def worker(self, mode: str, trace: int) -> None:
        """Start one worker, wait for it, and keep its result if it passed."""
        self.attempted += 1
        index = self.attempted
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--mode", mode, "--trace", str(trace), "--run-id", f"{self.label}-{index}"]
        if self.args.smoke:
            cmd.append("--smoke")
        if trace:
            cmd += ["--spans", str(self.out / "spans" / f"{self.label}-{index}.jsonl")]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(started)], env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return self.fail(f"{mode} worker {index} passed the {DEADLINE_S:.0f} s deadline")
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return self.fail(f"{mode} worker {index} exited {proc.returncode} "
                             f"without a result: {proc.stderr.strip()[-2000:]}")
        result["mode"] = mode
        result["wall_s"] = time.monotonic() - started
        if result["errors"] or proc.returncode != 0:
            return self.fail(f"{mode} worker {index}: {'; '.join(result['errors'])} "
                             f"{proc.stderr.strip()[-2000:]}")
        self.results.append(result)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(message, file=sys.stderr)

    def another_full_fits(self) -> bool:
        walls = [r["wall_s"] for r in self.results if r["mode"] == "full"]
        return bool(walls) and 1.5 * max(walls) < self.remaining()

    def check_counts(self, key: str) -> None:
        """Compare every worker's exact counts with the first recorded run
        of the same code; the first run ever records them.  A worker whose
        counts differ counts as failed."""
        path = self.out / "counts.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        first = known.setdefault(key, {})
        kept = []
        for result in self.results:
            counts = {k: v for k, v in result["counts"].items() if k in EXACT_COUNTS}
            diff = {k: [first[k], v] for k, v in counts.items()
                    if k in first and first[k] != v}
            if diff:
                self.fail("exact counts differ from the first run "
                          "([first, now]): " + json.dumps(diff))
                continue
            kept.append(result)
            for k, v in counts.items():
                first.setdefault(k, v)
        self.results = kept
        path.write_text(json.dumps(known, indent=1, sort_keys=True))


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def recorded_solve_s(out: Path, tag: str, digest: str) -> list[float]:
    """solve_s of every correct untraced run of this code and workload."""
    path = out / "runs.jsonl"
    if not path.exists():
        return []
    records = [json.loads(line) for line in path.read_text().splitlines() if line]
    return [r["metrics"]["solve_s"]["value"] for r in records
            if r["tag"] == tag and r["trace"] == 0 and r["correct"]
            and r["provenance"]["source_sha256"] == digest]


def measure(run: Run, digest: str) -> dict[str, float]:
    """Start the run's workers and reduce their results to its metrics."""
    args = run.args
    baseline = recorded_solve_s(run.out, run.tag, digest) if args.trace else []
    # the seed orders the set-up samples around the first full run; the
    # workloads themselves are the paper's fixed points
    samples = (SMOKE if args.smoke else WORKLOADS)[args.workload].setup_samples
    plan = ["full"] + ([] if args.trace else ["setup"] * (samples - 1))
    random.Random(args.seed).shuffle(plan)
    if args.trace and not baseline:
        # the tracing overhead needs an untraced solve of the same code
        run.worker("full", 0)
    for mode in plan:
        if mode == "full":
            full_started = time.monotonic()
        run.worker(mode, args.trace)
    while time.monotonic() - full_started < args.seconds and run.another_full_fits():
        run.worker("full", args.trace)

    run.check_counts(f"{digest}/{run.tag}")
    untraced = [r for r in run.results if "layers" not in r]
    if not args.trace:
        full = [r for r in untraced if r["mode"] == "full"]
        if not full:
            return {}
        return {"setup_s": _median(untraced, "setup_s"),
                "solve_s": _median(full, "solve_s"),
                "peak_rss_mb": _median(full, "peak_rss_mb")}
    traced = [r for r in run.results if "layers" in r]
    baseline += [r["solve_s"] for r in untraced]
    if not traced or not baseline:
        return {}
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in LAYER_METRICS}
    metrics["trace.overhead_s"] = _median(traced, "solve_s") - statistics.median(baseline)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="the same workload shapes at n <= 3, in seconds")
    parser.add_argument("--results", type=Path, default=RESULTS,
                        help="directory for run records, counts and spans")
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package source at {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    (args.results / "spans").mkdir(parents=True, exist_ok=True)
    prov = provenance()
    run = Run(args, args.results)
    metrics = measure(run, prov["source_sha256"])
    if not metrics:
        run.fail("no metrics: the full or the untraced baseline worker failed")

    units = PER_LAYER if args.trace else END_TO_END
    correct = run.failed == 0
    summary = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
               "metrics": {name: {"value": value, "unit": units[name][0]}
                           for name, value in metrics.items()}}
    record = {"tag": run.tag, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "provenance": prov, "correct": correct, "attempted": run.attempted,
              "failed": run.failed, "failed_share": run.failed / run.attempted,
              "errors": run.errors, "metrics": summary["metrics"],
              "workers": run.results}
    with open(args.results / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

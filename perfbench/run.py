"""klcat benchmark: drive the real CLI over a workload and print its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

One closed-loop client runs each pass's jobs one after another, with no
think time, every job at ``--jobs 1``.  Every pass runs in a fresh
process (perfbench/worker.py) with a fresh cache directory under
``.perfbench/`` in the checkout and ``KLCAT_CACHE_DIR`` unset, so cold jobs
are cold and no memo outlives its pass.  Every job's output is checked.

``--trace 0`` repeats timed passes while the next one is expected to end
within ``--seconds`` (at least one), plus set-up-only processes, and
reports the medians of the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` ignores ``--seconds`` and runs three passes: an untraced
one, a traced one that gives the per-layer figures, and a second traced
one that also takes the tracemalloc peaks.  The two traced passes must
give identical counts and all three identical outputs.

The last line of stdout is the JSON result.  The lines before it give
each metric with its unit and a record of the run: Python version,
nproc, git sha, seed and the time of a fixed calibration loop, which is
reported and never used to scale a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, build_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 9
DEADLINE_S = 170  # every run must end within 180 s
CALIBRATION_LOOPS = 2_000_000


def calibrate() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return time.perf_counter() - start


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Runner:
    """Spawns worker processes for one benchmark run and collects their summaries."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k != "KLCAT_CACHE_DIR"}
        self.problems: list[str] = []
        self.lost_jobs = 0  # jobs of passes that crashed or overran

    def spawn(self, mode: str) -> dict | None:
        """One worker pass; None if it crashed or overran the run's deadline."""
        return self.finish(self.start(mode))

    def start(self, mode: str):
        cache_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=self.scratch)
        argv = [sys.executable, str(WORKER), self.workload, str(self.seed), mode, cache_dir]
        spawned = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        return mode, proc, cache_dir, spawned

    def finish(self, handle) -> dict | None:
        mode, proc, cache_dir, spawned = handle
        summary = None
        try:
            stdout, stderr = proc.communicate(timeout=max(DEADLINE_S - (time.monotonic() - self.started), 1))
            sys.stderr.write(stderr)
            summary = json.loads(stdout.splitlines()[-1])
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.problems.append(f"{mode} pass overran the {DEADLINE_S} s deadline")
        except (IndexError, json.JSONDecodeError):
            self.problems.append(f"{mode} pass exited {proc.returncode} without a summary")
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if summary is None:
            if mode != "setup":
                self.lost_jobs += len(build_jobs(self.workload, self.seed, self.scratch))
            return None
        summary["setup_s"] = summary["ready"] - spawned
        summary["elapsed_s"] = time.monotonic() - spawned
        self.problems += summary.get("problems", [])
        return summary

    def timed(self, seconds: int) -> tuple[dict, list[dict]]:
        self.spawn("setup")  # unmeasured: fills the bytecode caches
        passes: list[dict] = []
        while True:
            summary = self.spawn("plain")
            if summary is None:
                break
            passes.append(summary)
            if time.monotonic() - self.started + summary["elapsed_s"] > seconds:
                break
        setups = [p["setup_s"] for p in passes]
        while passes and len(setups) < SETUP_SAMPLES:
            summary = self.spawn("setup")
            if summary is None:
                break
            setups.append(summary["setup_s"])
        if not passes:
            return {}, passes
        values = {
            name: statistics.median(p[name] for p in passes) for name in ("wall_s", "kl_cold_s", "kl_warm_s")
        }
        values["peak_rss_mb"] = statistics.median(p["maxrss_kib"] for p in passes) / 1024
        values["setup_s"] = statistics.median(setups)
        return values, passes

    def traced(self) -> tuple[dict, list[dict]]:
        self.spawn("setup")
        # tracemalloc makes the memory pass several times slower than the
        # others, so it runs beside them on a second core.
        memory = self.start("memory")
        try:
            plain, traced = self.spawn("plain"), self.spawn("trace")
        finally:
            second = self.finish(memory)
        passes = [p for p in (plain, traced, second) if p is not None]
        if len(passes) < 3:
            return {}, passes
        if not (plain["digests"] == traced["digests"] == second["digests"]):
            self.problems.append("traced outputs differ from untraced outputs")
        counts = {k: v for k, v in traced["layers"].items() if not k.endswith("_s")}
        again = {k: v for k, v in second["layers"].items() if not k.endswith(("_s", "_kib"))}
        if counts != again:
            diff = sorted(k for k in counts.keys() | again.keys() if counts.get(k) != again.get(k))
            self.problems.append(f"counts differ between the two traced passes: {diff}")
        values = dict(traced["layers"])
        values.update((k, v) for k, v in second["layers"].items() if k.endswith("_kib"))
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return values, passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "klcat" / "cli.py").is_file():
        print(f"perfbench: no klcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "calibration_s": calibrate(),
    }
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        runner = Runner(args.workload, args.seed, scratch)
        values, passes = runner.traced() if args.trace else runner.timed(args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    values["host.calibration_s"] = record["calibration_s"]

    attempted = sum(p["attempted"] for p in passes) + runner.lost_jobs
    failed = sum(p["failed"] for p in passes) + runner.lost_jobs
    correct = not runner.problems and bool(passes)
    for problem in runner.problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"], 0 if args.trace else None)
        if value is None:
            correct = False
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<40} {value:>16.6f} {metric['unit']}")
    record.update(passes=len(passes), spans=sum(p.get("spans", 0) for p in passes))
    print("record " + json.dumps(record))
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

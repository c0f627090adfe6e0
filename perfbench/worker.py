"""One pass over a workload's job list, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE CACHE_DIR

MODE is ``setup`` (stop once the first job is ready), ``plain`` (timed,
untraced), ``trace`` (spans and counts) or ``memory`` (spans and counts,
plus tracemalloc peaks, which distort its timings).
The jobs call ``klcat.cli.main(argv, out=StringIO)`` one after another;
the last line of stdout is a JSON summary of the pass.  A fresh process
per pass keeps module-level memos and rebound names from leaking into
the next pass.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import klcat.cli  # noqa: E402

from workloads import build_jobs, check_job, observe  # noqa: E402


def run_cli(cli_main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    try:
        code = cli_main(argv, out=out)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed job, not a failed pass
        traceback.print_exc()
        code = -1
    return code, out.getvalue()


def run_pass(workload: str, seed: int, mode: str, cache_dir: Path) -> dict:
    jobs = build_jobs(workload, seed, cache_dir)
    cli_main = klcat.cli.main
    tracer = peaks = None
    if mode in ("trace", "memory"):
        import tracing

        tracer = tracing.Tracer()
        wrap = tracer.wrap
        if mode == "memory":
            peaks = tracing.PeakTracker()
            wrap = lambda fn, name: tracer.wrap(peaks.wrap(fn, name), name)  # noqa: E731
        tracing.install(wrap, tracer.count)
        cli_main = tracer.wrap(cli_main, "cli.main")
    summary = {"ready": time.monotonic()}
    if mode == "setup":
        return summary

    first = time.perf_counter()
    for job in jobs:
        start = time.perf_counter()
        code, stdout = run_cli(cli_main, job.argv)
        observe(job, code, stdout, time.perf_counter() - start)
    summary["wall_s"] = time.perf_counter() - first
    summary["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        summary["layers"] = tracer.layer_figures()
        summary["layers"]["cli.cache_bytes"] = sum(j.facts.get("cache_bytes", 0) for j in jobs)
        summary["spans"] = len(tracer.spans)
    if peaks is not None:
        summary["layers"].update(peaks.peaks)

    # Checks run after the timed jobs and after the figures are taken.
    seeded = next((j for j in jobs if j.seeded), None)
    group_report = ""
    if seeded is not None:
        group_args = seeded.argv[1 : seeded.argv.index("--cap") + 2]
        group_report = run_cli(klcat.cli.main, ["group", *group_args])[1]
    problems = []
    for i, job in enumerate(jobs):
        cold = jobs[i - 1] if job.kind == "warm" else None
        found = check_job(job, cold, group_report)
        problems += [f"{job.kind} {job.key}: {p}" for p in found]
        job.facts["failed"] = bool(found)
    summary.update(
        kl_cold_s=sum(j.facts["seconds"] for j in jobs if j.kind == "cold"),
        kl_warm_s=sum(j.facts["seconds"] for j in jobs if j.kind == "warm"),
        attempted=len(jobs),
        failed=sum(j.facts["failed"] for j in jobs),
        problems=problems,
        digests=[f"{j.kind} {j.key} {j.facts['sha256']}" for j in jobs],
    )
    return summary


def main() -> None:
    workload, seed, mode, cache_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    summary = run_pass(workload, seed, mode, cache_dir)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()

"""Job lists of the three workloads and the checks on their outputs.

A job is one ``klcat`` command line.  Every workload runs the same fixed
groups at every seed; the seed only draws the braid orders of one rank-3
triangle group, which the program sees as a ``--matrix`` JSON.  Any draw
from {3, 4, 5, 6, inf} is infinite (1/a + 1/b + 1/c <= 1), so at ``--cap
300`` its table is always length-truncated.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("tables", "verify-kl", "verify-words")

H3 = '{"rank":3,"m":[[1,5,2],[5,1,3],[2,3,1]]}'
D4 = '{"rank":4,"m":[[1,3,2,2],[3,1,3,3],[2,3,1,2],[2,3,2,1]]}'
AFFINE_A2 = '{"rank":3,"m":[[1,3,3],[3,1,3],[3,3,1]]}'
TRIANGLE_ORDERS = (3, 4, 5, 6, 0)  # 0 encodes an infinite braid order
CAP = "300"

# name -> (klcat group arguments, known order; None for a truncated table)
FIXED_GROUPS = {
    "H3": (["--matrix", H3], 120),
    "D4": (["--matrix", D4], 192),
    "A4": (["--type", "A4"], 120),
    "B4": (["--type", "B4"], 384),
    "B3": (["--type", "B3"], 48),
    "affineA2": (["--matrix", AFFINE_A2, "--cap", CAP], None),
}

# sha256 of stdout of every fixed-input job, recorded at the commit that
# added this benchmark.  Keys are Job.key.
PINNED = {
    "kl:H3": "e35665d07c4ccae9d8026cad16c06ef67415d62243cfb659275ce242704a388f",
    "kl:D4": "6cd01e693e2dd7bbd7cdd056f665a6a8e9a4101ef70e7f609b7d816d31a1ea15",
    "kl:A4": "7f12becaca0ee3c2e231ddb48a2aa0b842890e8121034519d880b4e837e81299",
    "kl:B4": "f7ec3bbd282a9c36ec1613b99781014a100af0d039ddc4fb6a0a91f1d056072c",
    "kl:affineA2": "726c2d5eb10716c15906d446d72d630445a3eae9c1f5bb53d6c12b6139fefbb6",
    "verify-kl:A4": "fb45201a188b76b9965936e1dab41eff1cbf76a0b3d28a04fd3152f82d1c540e",
    "verify-kl:H3": "90c66d696fa0e0c09070d04250f09bb2682430b57fbf987a6c5aedbeb62904eb",
    "verify-leaves:B3": "b76e68baa56963869059e3c21540dacb739e7debc39ee82957f38d792bad3c75",
    "verify-branch:B3": "f6b9fb4b61e22af173832bb446aef22408ef655390d0c2d4e004920b2b0eb2ae",
    "verify-recursion:B3": "d2ed1c7415f0b48aa9adc24162f53fb8e1fe134f19d76c86910f434c5bdeb15f",
}


def triangle_matrix(seed: int) -> str:
    """The seeded rank-3 triangle group, as ``--matrix`` JSON."""
    rng = random.Random(seed)
    a, b, c = (rng.choice(TRIANGLE_ORDERS) for _ in range(3))
    return json.dumps({"rank": 3, "m": [[1, a, b], [a, 1, c], [b, c, 1]]}, separators=(",", ":"))


@dataclass
class Job:
    """One CLI invocation and what its output must satisfy."""

    key: str
    argv: list[str]
    kind: str  # "cold", "warm" or "verify"
    order: int | None  # known group order; None for a truncated table
    seeded: bool
    cache: Path | None = None
    facts: dict = field(default_factory=dict)  # filled in by observe()


def _kl_pair(name: str, group_args: list[str], order, tmp: Path, seeded=False) -> list[Job]:
    cache = tmp / f"kl-{name}.json"
    argv = ["kl", *group_args, "--format", "csv", "--cache", str(cache)]
    return [
        Job(f"kl:{name}", argv, "cold", order, seeded, cache),
        Job(f"kl:{name}", list(argv), "warm", order, seeded, cache),
    ]


def _verify(suite: str, name: str, group_args: list[str], order, seeded=False, extra=()) -> Job:
    argv = ["verify", *group_args, "--suite", suite, "--jobs", "1", *extra]
    return Job(f"verify-{suite}:{name}", argv, "verify", order, seeded)


def build_jobs(workload: str, seed: int, tmp: Path) -> list[Job]:
    """The job list of one pass; cache files live under ``tmp``."""
    triangle = ["--matrix", triangle_matrix(seed), "--cap", CAP]
    if workload == "tables":
        jobs = []
        for name in ("H3", "D4", "A4", "B4", "affineA2"):
            jobs += _kl_pair(name, *FIXED_GROUPS[name], tmp)
        return jobs + _kl_pair("triangle", triangle, None, tmp, seeded=True)
    # The verify workloads interleave the dump pairs of the small complete
    # rungs with their suites, so that kl_cold_s and kl_warm_s exist on
    # every workload.  Spread over the pass, the short dumps sample the
    # host's speed at several moments instead of one.
    h3, d4, a4 = (_kl_pair(name, *FIXED_GROUPS[name], tmp) for name in ("H3", "D4", "A4"))
    if workload == "verify-kl":
        kl_a4, kl_h3 = (_verify("kl", name, *FIXED_GROUPS[name]) for name in ("A4", "H3"))
        return [*h3, kl_a4, *d4, kl_h3, *a4]
    if workload == "verify-words":
        leaves, branch, recursion = (
            _verify(suite, "B3", *FIXED_GROUPS["B3"]) for suite in ("leaves", "branch", "recursion")
        )
        # Length 5, not 6: at 6 the triangle job takes 1.7-6 s and 34-73 MiB
        # by seed, enough to swamp the B3 jobs in wall_s and peak_rss_mb.
        triangle_all = _verify("all", "triangle", triangle, None, True, ("--max-length", "5"))
        return [*h3, leaves, branch, *d4, recursion, triangle_all, *a4]
    raise ValueError(f"unknown workload {workload!r}")


def observe(job: Job, code: int, stdout: str, seconds: float) -> None:
    """Keep the job's time and what the checks need, not the output itself."""
    job.facts = {"code": code, "seconds": seconds, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}
    lines = stdout.splitlines()
    if job.kind == "verify":
        job.facts["head"] = lines[0] if lines else ""
        job.facts["result"] = lines[-1] if lines else ""
        job.facts["fail_records"] = sum(line.startswith("FAIL ") for line in lines)
    else:
        job.facts["order"] = len({row.split(",", 2)[1] for row in lines[1:] if "," in row})
        if job.cache.exists():
            job.facts["cache_bytes"] = job.cache.stat().st_size


def check_job(job: Job, cold: Job | None, group_report: str) -> list[str]:
    """Problems with one observed job; an empty list means it passed.

    ``cold`` is the cold job of a warm job's pair.  ``group_report`` is the
    ``klcat group`` output for a seeded job's matrix.
    """
    f = job.facts
    problems = []
    if f.get("code") != 0:
        problems.append(f"exit code {f.get('code')}")
    pinned = PINNED.get(job.key)
    if pinned is not None and f.get("sha256") != pinned:
        problems.append(f"stdout sha256 {f.get('sha256')} is not the pinned {pinned}")
    if job.seeded and "(partial" not in group_report:
        problems.append(f"seeded table does not report itself partial: {group_report!r}")
    if job.kind == "verify":
        if f.get("result") != "RESULT: PASS" or f.get("fail_records"):
            problems.append(f"verify reported {f.get('result')!r}")
        if job.order is not None and f"(order {job.order})" not in f.get("head", ""):
            problems.append(f"head {f.get('head')!r}, expected order {job.order}")
        return problems
    if job.order is not None and f.get("order") != job.order:
        problems.append(f"table has {f.get('order')} elements, expected {job.order}")
    if job.kind == "warm" and f.get("sha256") != cold.facts.get("sha256"):
        problems.append("warm stdout differs from cold stdout")
    if job.seeded:
        problems += _check_cache(job)
    return problems


def _check_cache(job: Job) -> list[str]:
    """The cache file parses and its header matches the job's matrix."""
    from klcat.coxeter import CoxeterMatrix
    from klcat.kl import CacheMismatchError, validate_cache_header

    try:
        obj = json.loads(job.cache.read_text())
        matrix = CoxeterMatrix.from_json_obj(json.loads(job.argv[job.argv.index("--matrix") + 1]))
        validate_cache_header(obj["header"], matrix, int(obj["body"]["complete_up_to"]))
    except (OSError, ValueError, KeyError, TypeError, CacheMismatchError) as exc:
        return [f"cache {job.cache.name} rejected: {exc}"]
    return []

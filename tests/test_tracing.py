"""The benchmark's tracer must still bind to the library's names.

``perfbench/tracing.py`` rebinds klcat functions by module attribute, so a
renamed or re-homed function silently drops out of its counts.  The tracer
rebinds names for the rest of the process, so it runs in a subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

from klcat.verify import run_suite

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
import klcat.cli
tracer = tracing.Tracer()
tracing.install(tracer.wrap, tracer.count)
runs = []
for suite in ("all", "kl"):
    tracer.counts.clear()
    code = klcat.cli.main(["verify", "--type", "A2", "--suite", suite], out=io.StringIO())
    runs.append({"code": code, "counts": dict(tracer.counts)})
print(json.dumps(runs))
"""


def test_tracer_binds_to_the_library(kl_a2):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
    )
    all_run, kl_run = json.loads(proc.stdout.splitlines()[-1])
    assert all_run["code"] == kl_run["code"] == 0
    # verify.records is len(report["records"]) of the text run: every record checked, not only the kept ones
    for run, suite in ((all_run, "all"), (kl_run, "kl")):
        assert run["counts"]["verify.records"] == len(run_suite(kl_a2, suite)["records"]), suite
    # leaves.paths counts the character_map walks, leaves.leaf_step.calls the final-level splits
    for name in ("coxeter.mult_gen.calls", "coxeter.descents.calls", "leaves.paths", "leaves.leaf_step.calls"):
        assert all_run["counts"].get(name, 0) > 0, name
    # the text run decides each key from the structure constants of C_s C_u and one derived
    # recursion per (s, tail top), so an intact table builds no per-key restriction map and
    # sums no per-key multiplicities
    for name in ("branch.recursion_sides", "branch.branching_sides"):
        assert all_run["counts"].get(name + ".calls", 0) > 0, name
    for name in ("branch.res_cell_class", "branch.restriction_counts"):
        assert all_run["counts"].get(name + ".calls", 0) == 0, name
    # the kl suite's text run sums and compares the recursion columns as codes; every bar
    # record there is proved from the recursion, so the bar is never walked
    assert kl_run["counts"].get("kl.recursion_columns.calls", 0) > 0
    for name in ("hecke.bar_involution", "hecke.bar_invariant"):
        assert kl_run["counts"].get(name + ".calls", 0) == 0, name

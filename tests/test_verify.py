import pytest

from klcat.verify import SUITES, run_suite


def test_unknown_suite_rejected(kl_a2):
    with pytest.raises(ValueError):
        run_suite(kl_a2, "everything")


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
def test_each_suite_passes_and_reports(kl_a2, suite):
    report = run_suite(kl_a2, suite)
    assert report["pass"] and report["records"]
    assert report["suite"] == suite
    for rec in report["records"]:
        assert {"identity", "word", "pass"} <= set(rec)
    total = sum(c["pass"] + c["fail"] for c in report["summary"].values())
    assert total == len(report["records"])


def test_all_is_the_union_of_the_suites(kl_a2):
    merged = []
    for suite in SUITES:
        if suite != "all":
            merged.extend(run_suite(kl_a2, suite)["records"])
    assert run_suite(kl_a2, "all")["records"] == merged


def test_repeated_runs_give_equal_reports(kl_a3):
    assert run_suite(kl_a3, "branch") == run_suite(kl_a3, "branch")

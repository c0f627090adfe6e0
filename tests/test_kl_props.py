"""Property tests of the ``kl`` suite on a KL table with one damaged coordinate.

The suite checks every identity on integer codes first and builds
polynomials only where the codes disagree, so a damage must reach the
same records as the per-x oracles whatever its size.  One coordinate of
an intact table is changed to a random value (exponents in [-4, 8],
coefficients up to 2^80 in absolute value, far beyond the intact table's
code width), dropped, set on the diagonal, or added outside [e, w]
(possibly above w, where it feeds the KL-basis expansion back).  The list
report must equal :func:`oracles.kl_suite_records`, and the text CLI must
print the summary and FAIL records of a sink that walks every x.  The
text runs of the ``branch`` and ``recursion`` suites, which count a key's
restriction records in bulk where the structure constants allow it, must
keep the FAIL records and summary of the list report, which builds every
key's records, or raise as it does.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcat.coxeter import CoxeterMatrix, IncompleteTableError, bruhat_interval, build_group, preset_matrix
from klcat.kl import KLTable, compute_kl
from klcat.laurent import LaurentPoly
from klcat.verify import FailRecords, run_suite

from oracles import kl_suite_records
from test_kl import _FullWalk, _cli_kl, _head
from test_verify import text_report

GROUPS = {
    "A3": (preset_matrix("A3"), 1000),
    "B3": (preset_matrix("B3"), 1000),
    "I2(5)": (preset_matrix("I2(5)"), 1000),
    "triangle4-0-3": (CoxeterMatrix.from_rows([[1, 4, 0], [4, 1, 3], [0, 3, 1]]), 100),
}
KINDS = ("value", "dropped", "diagonal", "outside")


@functools.cache
def _intact(name):
    matrix, cap = GROUPS[name]
    table = build_group(matrix, cap)
    return compute_kl(table, table.complete_length)


def _copy(kl):
    """A table with ``kl``'s stored elements, each its own dict, and no memo or code view."""
    fresh = KLTable(kl.table, kl.complete_up_to)
    fresh._kl = {w: dict(elt) for w, elt in kl._kl.items()}
    fresh._polys = list(kl._polys)
    return fresh


coefficients = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80)).filter(bool)
values = st.dictionaries(st.integers(-4, 8), coefficients, min_size=1, max_size=3).map(LaurentPoly)


def _damage(data, kl, kind):
    table = kl.table
    stored = kl.stored_elements()
    if kind == "outside":  # not the longest element, whose interval is the whole table
        stored = [w for w in stored if len(bruhat_interval(table, w)) < len(stored)]
    w = data.draw(st.sampled_from(stored), label="w")
    elt = kl._kl[w]
    if kind in ("value", "dropped"):
        x = data.draw(st.sampled_from(list(elt)), label="x")
    elif kind == "diagonal":
        x = w
    else:
        below = set(bruhat_interval(table, w))
        x = data.draw(st.sampled_from([y for y in kl.stored_elements() if y not in below]), label="x")
    if kind == "dropped":
        elt.pop(x)
    else:
        elt[x] = data.draw(values, label="value")
    kl._kl[w] = dict(sorted(elt.items()))


def _report_or_raise(run):
    try:
        return run()
    except IncompleteTableError:  # a product of the damaged coordinate leaves the table
        return IncompleteTableError


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(list(GROUPS)), kind=st.sampled_from(KINDS), data=st.data())
def test_one_damaged_coordinate_gives_the_oracle_records(name, kind, data):
    kl = _copy(_intact(name))
    _damage(data, kl, kind)
    want = _report_or_raise(lambda: kl_suite_records(kl))
    assert _report_or_raise(lambda: run_suite(kl, "kl")["records"]) == want
    with pytest.MonkeyPatch.context() as monkeypatch:
        code, text, _ = _cli_kl(monkeypatch, kl)
    if want is IncompleteTableError:
        assert (code, text) == (4, "")
        return
    full = _FullWalk()
    run_suite(kl, "kl", full)
    report = {"suite": "kl", "summary": full.summary(), "records": full.records, "pass": full.passed()}
    assert full.records == [rec for rec in want if not rec["pass"]]
    assert (code, text) == (0 if full.passed() else 1, text_report(report, _head(kl.table)))


def _outcome(run):
    try:
        return run()
    except (IncompleteTableError, ValueError) as exc:  # a damaged expansion, or a product beyond the table
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(list(GROUPS)),
    kind=st.sampled_from(KINDS),
    suite=st.sampled_from(["branch", "recursion"]),
    data=st.data(),
)
def test_one_damaged_coordinate_gives_the_word_suites_list_report(name, kind, suite, data):
    kl = _copy(_intact(name))
    _damage(data, kl, kind)

    def listed():
        report = run_suite(_copy(kl), suite)  # its own structure-constant memo
        return [rec for rec in report["records"] if not rec["pass"]], report["summary"]

    def text():
        sink = FailRecords()
        run_suite(kl, suite, sink)
        return sink.records, sink.summary()

    assert _outcome(text) == _outcome(listed)

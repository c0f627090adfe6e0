"""Property tests of the CLI's exit-code contract on generated Coxeter systems.

A system has rank 1 to 4 and each m_st drawn from 2 to 6 or infinity; a
cap of 1 to 400 elements truncates it, and ``verify`` stops at a length
bound of 0 to 6.  On every such input ``group``, ``kl --format csv`` and
``verify --suite all`` exit 0 with nothing on stderr: the table is
undamaged, and every identity ``verify`` checks holds for every Coxeter
group, positivity included (Elias-Williamson 2014), so an exit of 1 would
be a bug in klcat.  ``cells`` on a drawn word of length 0 to 6 exits 0,
or exits 4 with one ``klcat:`` line when the word is not reduced or leaves
the table.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from klcat.cli import main

ORDERS = (2, 3, 4, 5, 6, 0)  # 0 is infinity in the matrix JSON


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


@st.composite
def systems(draw):
    """``--matrix`` JSON of a rank 1 to 4 Coxeter system and a word in its generators."""
    rank = draw(st.integers(1, 4))
    m = [[1] * rank for _ in range(rank)]
    for s in range(rank):
        for t in range(s + 1, rank):
            m[s][t] = m[t][s] = draw(st.sampled_from(ORDERS))
    word = draw(st.lists(st.integers(0, rank - 1), max_size=6))
    return json.dumps({"rank": rank, "m": m}), ",".join(f"s{s + 1}" for s in word)


@settings(max_examples=120, deadline=None)
@given(system=systems(), cap=st.integers(1, 400), max_length=st.integers(0, 6))
def test_generated_systems_meet_the_exit_code_contract(system, cap, max_length):
    matrix, word = system
    group = ["--matrix", matrix, "--cap", str(cap)]
    for argv in (
        ["group", *group],
        ["kl", *group, "--format", "csv"],
        ["verify", *group, "--suite", "all", "--max-length", str(max_length)],
    ):
        code, out, err = _run(argv)
        assert (code, err) == (0, ""), argv
        assert out
    code, out, err = _run(["cells", *group, "--word", word])
    if code == 0:
        assert err == "" and json.loads(out)["pass"]
    else:
        assert code == 4 and out == "", word
        assert err.startswith("klcat: ") and err.count("\n") == 1

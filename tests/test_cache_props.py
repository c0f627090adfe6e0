"""Property tests of ``klcat kl --cache`` on mutated cache texts.

A warm run reads a cache written by a cold run and changed in one of three
ways: one integer replaced by another, a slice cut out, or the document
re-dumped with other whitespace, separators and key, entry and pair order.
Whatever the text, the run exits 0 with the cold run's stdout or exits 3
with one ``klcat: cache at`` line on stderr, and it never rewrites the file.
"""

import contextlib
import functools
import io
import json
import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from klcat.cli import main

GROUPS = {
    "A2": ["--type", "A2"],
    "A3": ["--type", "A3"],
    "B3": ["--type", "B3"],
    "triangle4-0-3": ["--matrix", '{"rank":3,"m":[[1,4,0],[4,1,3],[0,3,1]]}', "--cap", "100"],
}
FORMATS = ("csv", "json")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _cold(name, fmt):
    code, out, err = _run(["kl", *GROUPS[name], "--format", fmt])
    assert code == 0 and err == ""
    return out


def _warm(tmp_path_factory, name, fmt, text):
    """Exit code of a warm run on a cache holding ``text``, after checking the properties."""
    path = tmp_path_factory.getbasetemp() / "props-cache.json"
    path.write_text(text)
    code, out, err = _run(["kl", *GROUPS[name], "--format", fmt, "--cache", str(path)])
    assert code in (0, 3)
    if code == 0:
        assert out == _cold(name, fmt) and err == ""
    else:
        assert out == "" and err.startswith(f"klcat: cache at {path}: ") and err.count("\n") == 1
    assert path.read_text() == text  # a warm run never rewrites the cache
    return code


group_and_format = dict(name=st.sampled_from(list(GROUPS)), fmt=st.sampled_from(FORMATS))


@settings(max_examples=100, deadline=None)
@given(**group_and_format, data=st.data())
def test_a_changed_integer_exits_3(tmp_path_factory, name, fmt, data):
    text = _cold(name, "json")
    # every integer of the document, header and hash digits included, carries meaning
    m = data.draw(st.sampled_from(list(re.finditer(r"\d+", text))))
    n = data.draw(st.integers(min_value=0, max_value=10**6).filter(lambda n: n != int(m[0])))
    assert _warm(tmp_path_factory, name, fmt, text[: m.start()] + str(n) + text[m.end() :]) == 3


@settings(max_examples=100, deadline=None)
@given(**group_and_format, data=st.data())
def test_a_cut_slice_exits_0_with_the_cold_bytes_or_3(tmp_path_factory, name, fmt, data):
    text = _cold(name, "json")
    i = data.draw(st.integers(min_value=0, max_value=len(text)))
    j = data.draw(st.integers(min_value=i, max_value=min(len(text), i + 200)))
    _warm(tmp_path_factory, name, fmt, text[:i] + text[j:])


def _keys_shuffled(value, rnd):
    if isinstance(value, dict):
        items = [(k, _keys_shuffled(v, rnd)) for k, v in value.items()]
        rnd.shuffle(items)
        return dict(items)
    if isinstance(value, list):
        return [_keys_shuffled(v, rnd) for v in value]
    return value


@settings(max_examples=100, deadline=None)
@given(
    **group_and_format,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    indent=st.sampled_from([None, 0, 1, 2, "\t"]),
    separators=st.sampled_from([(",", ":"), (", ", ": "), (",", ": "), (" , ", " : ")]),
    ensure_ascii=st.booleans(),
)
def test_every_re_dump_exits_0_with_the_cold_bytes(
    tmp_path_factory, name, fmt, seed, indent, separators, ensure_ascii
):
    rnd = random.Random(seed)  # one draw; st.randoms() would make a draw per shuffle step
    obj = json.loads(_cold(name, "json"))
    for _, pairs in obj["body"]["kl"]:  # the words keep their letter order
        rnd.shuffle(pairs)
    rnd.shuffle(obj["body"]["kl"])
    obj = _keys_shuffled(obj, rnd)
    text = json.dumps(obj, indent=indent, separators=separators, ensure_ascii=ensure_ascii)
    assert _warm(tmp_path_factory, name, fmt, text) == 0

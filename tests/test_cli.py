import hashlib
import io
import json
import os

import pytest

import klcat
from klcat.cli import main
from klcat.kl import (
    CacheMismatchError,
    KLTable,
    TOOL_VERSION,
    canonical_json,
    kl_from_json_obj,
    kl_to_json_text,
    validate_cache_header,
)

from oracles import LADDER, kl_from_json_obj as walk_cache_object


def run_cli(argv, env=None, monkeypatch=None):
    if env is not None:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_version_is_the_tool_version(capsys):
    # the one version literal, also written into every cache header
    assert klcat.__version__ == TOOL_VERSION
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"klcat {TOOL_VERSION}\n"


def test_group_preset_a3():
    code, text = run_cli(["group", "--type", "A3"])
    assert code == 0
    assert "order: 24" in text
    assert "longest length: 6" in text
    assert "elements by length: 1,3,5,6,5,3,1" in text


def test_group_command_leaves_names_unbuilt(monkeypatch):
    import klcat.cli as cli_mod

    tables = []
    build = cli_mod.build_group
    monkeypatch.setattr(cli_mod, "build_group", lambda *args: tables.append(build(*args)) or tables[-1])
    code, _ = run_cli(["group", "--type", "B3"])
    assert code == 0 and len(tables) == 1
    assert "names" not in vars(tables[0])
    assert tables[0].names[-1] == "s1.s2.s1.s3.s2.s1.s3.s2.s3"


def test_group_dihedral_preset():
    code, text = run_cli(["group", "--type", "I2(7)"])
    assert code == 0 and "order: 14" in text


def test_group_infinite_matrix_truncates():
    code, text = run_cli(
        ["group", "--matrix", '{"rank":2,"m":[[1,0],[0,1]]}', "--cap", "50"]
    )
    assert code == 0
    assert "partial, complete through length 24" in text


def test_bad_spec_exits_2(capsys):
    assert main(["group", "--type", "Z9"], out=io.StringIO()) == 2
    assert main(["group", "--matrix", "{bad json"], out=io.StringIO()) == 2
    assert main(["group", "--matrix", '{"rank":2,"m":[[1,1],[1,1]]}'], out=io.StringIO()) == 2
    assert main(["kl"], out=io.StringIO()) == 2
    assert main(["group", "--type", "A2", "--cap", "0"], out=io.StringIO()) == 2
    for name in ("A\u0663", "A03", "I2(\u0663)", "I2( 3)", "I2(+3)"):
        assert main(["group", "--type", name], out=io.StringIO()) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "matrix",
    ['{"rank":1,"m":5}', '{"rank":null,"m":[[1]]}', '{"rank":2,"m":[[1,2.7],[2.7,1]]}', "[" * 100000],
    ids=["rows-not-a-list", "rank-not-an-integer", "entry-not-an-integer", "nested-too-deep"],
)
def test_bad_matrix_json_exits_2(capsys, matrix):
    assert main(["group", "--matrix", matrix], out=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith("klcat: bad matrix JSON")


@pytest.mark.parametrize(
    "extra, code",
    [(["--up-to-length", "-1"], 4), (["--cache", "{tmp}"], 3)],
    ids=["negative-bound", "cache-is-a-directory"],
)
def test_kl_bad_input_exits_without_traceback(tmp_path, capsys, extra, code):
    argv = ["kl", "--type", "A2"] + [arg.format(tmp=tmp_path) for arg in extra]
    assert main(argv, out=io.StringIO()) == code
    assert capsys.readouterr().err.startswith("klcat: ")


def test_kl_csv_a2_is_triangular_monomial():
    code, text = run_cli(["kl", "--type", "A2"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "x,w,h,P,mu"
    assert len(lines) == 1 + 19  # pairs x <= w in the 6-element group
    for line in lines[1:]:
        _, _, h, p, _ = line.split(",")
        assert "+" not in h and p == "1*q^0"


def test_kl_csv_a3_golden_row():
    code, text = run_cli(["kl", "--type", "A3"])
    assert code == 0
    assert "s2,s2.s1.s3.s2,1*v^1+1*v^3,1*q^0+1*q^1,1" in text.splitlines()


def test_kl_json_is_deterministic_and_reloadable():
    code1, text1 = run_cli(["kl", "--type", "A3", "--format", "json"])
    code2, text2 = run_cli(["kl", "--type", "A3", "--format", "json"])
    assert code1 == code2 == 0
    assert text1 == text2
    obj = json.loads(text1)
    assert obj["header"]["tool_version"]
    assert obj["body"]["complete_up_to"] == 6


def test_kl_cache_round_trip(tmp_path):
    cache = tmp_path / "a3.json"
    code1, text1 = run_cli(["kl", "--type", "A3", "--format", "json", "--cache", str(cache)])
    assert code1 == 0 and cache.exists()
    cached_bytes = cache.read_bytes()
    code2, text2 = run_cli(["kl", "--type", "A3", "--format", "json", "--cache", str(cache)])
    assert code2 == 0
    assert text1 == text2
    assert cache.read_bytes() == cached_bytes
    # the dumped table and the cache file are the same canonical document
    assert text1.encode() == cached_bytes


def test_kl_cache_mismatch_exits_3(tmp_path, capsys):
    cache = tmp_path / "kl.json"
    assert main(["kl", "--type", "A3", "--cache", str(cache)], out=io.StringIO()) == 0
    # a cache produced for a different bound must be rejected, not reused
    code = main(
        ["kl", "--type", "A3", "--up-to-length", "3", "--cache", str(cache)],
        out=io.StringIO(),
    )
    assert code == 3
    # ... and so must a tampered tool version
    obj = json.loads(cache.read_text())
    obj["header"]["tool_version"] = "0.0.0"
    cache.write_text(json.dumps(obj))
    assert main(["kl", "--type", "A3", "--cache", str(cache)], out=io.StringIO()) == 3
    capsys.readouterr()


@pytest.mark.parametrize("key, value", [("rank", 3.0), ("up_to_length", 6.0)])
def test_kl_cache_float_header_field_exits_3(tmp_path, capsys, key, value):
    # a float equal to the integer is not the integer the header records
    cache = tmp_path / "kl.json"
    assert main(["kl", "--type", "A3", "--cache", str(cache)], out=io.StringIO()) == 0
    obj = json.loads(cache.read_text())
    obj["header"][key] = value
    cache.write_text(json.dumps(obj))
    capsys.readouterr()
    for fmt in ("csv", "json"):
        argv = ["kl", "--type", "A3", "--format", fmt, "--cache", str(cache)]
        assert main(argv, out=io.StringIO()) == 3, fmt
        err = capsys.readouterr().err
        assert err.startswith(f"klcat: cache at {cache}") and "Traceback" not in err


def _set_poly(body, w, i, poly):
    """Replace the polynomial of the i-th coefficient of entry w (ids: 1 is s1, 5 has length 2)."""
    body["kl"][w][1][i][1] = poly


def _set_word(body, w, word):
    """Replace the word that opens entry w (id 2 is s2, whose word is [1])."""
    body["kl"][w][0] = word


# damage to an A3 cache body -> the id of the case
BAD_BODIES = {
    "wrong-shape": lambda body: body.update(kl=[[0, 1]]),
    "truncated": lambda body: body.update(kl=body["kl"][:2]),  # valid header, truncated body
    "float-complete-up-to": lambda body: body.update(complete_up_to=6.0),
    "dropped-coefficient": lambda body: body["kl"][5][1].pop(0),  # h_{e,w} dropped
    "x-outside-interval": lambda body: body["kl"][1][1].insert(1, [[1], {"1": 1}]),  # s2 is not below s1
    "repeated-entry": lambda body: body["kl"].append(body["kl"][5]),
    "repeated-x": lambda body: body["kl"][5][1].append(body["kl"][5][1][0]),
    "diagonal-not-1": lambda body: _set_poly(body, 5, -1, {"0": 2}),  # h_{w,w} = 2
    # h_{e,w} = 0: a stored coefficient is never zero
    "zero-coefficient": lambda body: _set_poly(body, 5, 0, {}),
    # h_{e,w} = v^2 for l(w) = 2, already decoded for the entry before
    "float-coefficient": lambda body: _set_poly(body, 5, 0, {"2": 1.0}),
    "bool-coefficient": lambda body: _set_poly(body, 5, 0, {"2": True}),
    "non-canonical-exponent": lambda body: _set_poly(body, 1, 0, {" +1 ": 1}),
    # h_{e,s1} must be v^1: v^2 breaks the parity, v^3 the degree bound, v^-1 the lower one
    "wrong-parity": lambda body: _set_poly(body, 1, 0, {"2": 1}),
    "over-degree": lambda body: _set_poly(body, 1, 0, {"3": 1}),
    "non-positive-degree": lambda body: _set_poly(body, 1, 0, {"-1": 1}),
    # h_{e,s1.s2} = 2v^2 for v^2: degree and parity stay legal, the value is wrong
    "wrong-value": lambda body: _set_poly(body, 4, 0, {"2": 2}),
    # a word names an element only as the cache writes it
    "float-word": lambda body: _set_word(body, 2, [1.0]),
    "bool-word": lambda body: _set_word(body, 2, [True]),
}


@pytest.mark.parametrize("damage", BAD_BODIES.values(), ids=list(BAD_BODIES))
def test_kl_cache_bad_body_exits_3(tmp_path, capsys, damage):
    cache = tmp_path / "kl.json"
    assert main(["kl", "--type", "A3", "--cache", str(cache)], out=io.StringIO()) == 0
    obj = json.loads(cache.read_text())
    damage(obj["body"])
    cache.write_text(json.dumps(obj))
    capsys.readouterr()
    for fmt in ("csv", "json"):
        argv = ["kl", "--type", "A3", "--format", fmt, "--cache", str(cache)]
        assert main(argv, out=io.StringIO()) == 3, fmt
        err = capsys.readouterr().err
        assert err.startswith(f"klcat: cache at {cache}") and "Traceback" not in err


def _reference_decode(table, text, bound):
    """The object walker's reading: ``json.loads``, the header, then the walk of the body."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise CacheMismatchError("cache is not a JSON object")
    validate_cache_header(obj.get("header", {}), table.matrix, bound)
    return walk_cache_object(table, obj, bound)


def _warm_check(kl, text):
    """The warm path of ``klcat kl``: the table's own document is accepted as
    it is, and any other text goes through ``json.loads`` and the check."""
    if text != kl_to_json_text(kl):
        kl_from_json_obj(kl, json.loads(text))


REFUSALS = (CacheMismatchError, ValueError, RecursionError)


def _verdict(check, *args):
    """What ``check`` returns, or the class in REFUSALS of the error it raises."""
    try:
        return check(*args)
    except REFUSALS as exc:
        return next(cls for cls in REFUSALS if isinstance(exc, cls))


def _assert_same_verdict(kl, text):
    """The walker refuses with the class production refuses with; when it
    accepts, production accepts exactly when the walker's table is ``kl``."""
    got = _verdict(_warm_check, kl, text)
    want = _verdict(_reference_decode, kl.table, text, kl.complete_up_to)
    if want in REFUSALS:
        assert got is want
    elif all(list(want.kl_element(w).items()) == list(kl.kl_element(w).items()) for w in kl.stored_elements()):
        assert got is None
    else:
        assert got is CacheMismatchError


def _a3_cache_obj(kl_a3):
    return json.loads(kl_to_json_text(kl_a3))


@pytest.mark.parametrize("name", LADDER)
def test_text_decoder_matches_the_object_walker_on_the_ladder(ladder, name):
    _, kl = ladder(name)
    text = kl_to_json_text(kl)
    for layout in (text, json.dumps(json.loads(text))):
        _assert_same_verdict(kl, layout)
        assert _verdict(_warm_check, kl, layout) is None


@pytest.mark.parametrize("case", BAD_BODIES)
def test_text_decoder_matches_the_object_walker_on_bad_bodies(a3, kl_a3, case):
    obj = _a3_cache_obj(kl_a3)
    BAD_BODIES[case](obj["body"])
    # canonical_json gives the damage the table's own layout
    for text in (json.dumps(obj), canonical_json(obj)):
        if case in ("float-word", "bool-word"):
            # the one deliberate difference: the walker reads [1.0] and [true] as [1]
            assert isinstance(_reference_decode(a3, text, 6), KLTable)
            assert _verdict(_warm_check, kl_a3, text) is CacheMismatchError
        else:
            _assert_same_verdict(kl_a3, text)


def _reversed_entries_and_pairs(obj):
    obj["body"]["kl"].reverse()
    for _, coeffs in obj["body"]["kl"]:
        coeffs.reverse()
    return canonical_json(obj)


def _non_canonical_a3_caches(kl_a3):
    """(id, text): JSON documents of the A3 table that are not byte-canonical."""
    canonical = kl_to_json_text(kl_a3)
    obj = _a3_cache_obj(kl_a3)
    body = obj["body"]
    yield "spaces", json.dumps(obj)
    yield "indent", json.dumps(obj, indent=1)
    yield "reversed", _reversed_entries_and_pairs(_a3_cache_obj(kl_a3))
    yield "body-keys-reversed", json.dumps({"header": obj["header"], "body": dict(reversed(body.items()))})
    yield "extra-key", canonical_json({**obj, "note": {"made": [1, 2]}})
    yield "extra-header-key", canonical_json({"header": {**obj["header"], "note": "x"}, "body": body})
    yield "escaped-exponent", canonical.replace('{"1":', '{"\\u0031":')
    yield "duplicate-key", canonical.replace('{"1":1}', '{"1":2,"1":1}', 1)


def test_text_decoder_matches_the_object_walker_on_non_canonical_json(kl_a3):
    canonical = kl_to_json_text(kl_a3)
    for case, text in _non_canonical_a3_caches(kl_a3):
        assert text != canonical, case
        _assert_same_verdict(kl_a3, text)
        assert _verdict(_warm_check, kl_a3, text) is None, case


def test_non_canonical_caches_give_the_cold_bytes_and_stay_unchanged(tmp_path, kl_a3):
    cold = {fmt: run_cli(["kl", "--type", "A3", "--format", fmt]) for fmt in ("csv", "json")}
    cache = tmp_path / "a3.json"
    for case, text in _non_canonical_a3_caches(kl_a3):
        cache.write_text(text)
        for fmt in ("csv", "json"):
            warm = run_cli(["kl", "--type", "A3", "--format", fmt, "--cache", str(cache)])
            assert warm == cold[fmt], (case, fmt)
            assert cache.read_text() == text, (case, fmt)  # a warm run never rewrites the cache


def test_text_decoder_refuses_text_that_is_not_json(kl_a3):
    canonical = kl_to_json_text(kl_a3)
    cut = canonical[: len(canonical) // 2]
    after_last_entry = canonical[:-4] + ",]}}\n"
    after_last_pair = canonical.replace("}]]]", "}],]]", 1)
    for text in (cut, after_last_entry, after_last_pair):
        with pytest.raises(ValueError):
            _warm_check(kl_a3, text)
        _assert_same_verdict(kl_a3, text)


def test_warm_b4_decode_reads_the_text_in_one_pass(tmp_path, monkeypatch):
    cache = tmp_path / "b4.json"
    code, cold = run_cli(["kl", "--type", "B4", "--format", "json", "--cache", str(cache)])
    assert code == 0
    sizes = []  # the length of each text json.loads reads, in klcat.kl and klcat.cli alike
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, **kwargs: sizes.append(len(s)) or loads(s, **kwargs))
    code, warm = run_cli(["kl", "--type", "B4", "--format", "json", "--cache", str(cache)])
    assert code == 0 and warm == cold
    # a byte-canonical cache is compared with the table's text, never parsed
    assert sizes == []


def test_kl_cache_in_any_entry_order_gives_the_cold_bytes(tmp_path):
    # the decoder stores each entry ids ascending, and the exporters walk that order
    cache = tmp_path / "kl.json"
    assert main(["kl", "--type", "A3", "--cache", str(cache)], out=io.StringIO()) == 0
    obj = json.loads(cache.read_text())
    for _, coeffs in obj["body"]["kl"]:
        coeffs.reverse()
    cache.write_text(json.dumps(obj))
    for fmt in ("csv", "json"):
        cold = run_cli(["kl", "--type", "A3", "--format", fmt])
        warm = run_cli(["kl", "--type", "A3", "--format", fmt, "--cache", str(cache)])
        assert cold[0] == warm[0] == 0
        assert warm[1] == cold[1], fmt


def test_cold_json_run_encodes_once(tmp_path, monkeypatch):
    import klcat.cli as cli_mod

    calls = []
    encode = cli_mod.kl_to_json_text
    monkeypatch.setattr(cli_mod, "kl_to_json_text", lambda kl: calls.append(kl) or encode(kl))
    cache = tmp_path / "a3.json"
    code, text = run_cli(["kl", "--type", "A3", "--format", "json", "--cache", str(cache)])
    assert code == 0 and len(calls) == 1
    assert text == cache.read_text() == run_cli(["kl", "--type", "A3", "--format", "json"])[1]


@pytest.mark.parametrize("where", ["whole-document", "inside-an-entry"])
def test_kl_cache_nested_too_deep_exits_3(tmp_path, capsys, where):
    # json.loads raises RecursionError on deep nesting; that cache is unusable, not an identity failure
    cache = tmp_path / "deep.json"
    if where == "whole-document":
        cache.write_text("[" * 200_000 + "]" * 200_000)
    else:  # the word of the first x of s1's entry, nested 995 deep in a valid A2 cache
        assert main(["kl", "--type", "A2", "--cache", str(cache)], out=io.StringIO()) == 0
        obj = json.loads(cache.read_text())
        obj["body"]["kl"][1][1][0][0] = "DEEP"
        cache.write_text(json.dumps(obj).replace('"DEEP"', "[" * 995 + "0" + "]" * 995))
    capsys.readouterr()
    for fmt in ("csv", "json"):
        argv = ["kl", "--type", "A2", "--format", fmt, "--cache", str(cache)]
        assert main(argv, out=io.StringIO()) == 3, fmt
        err = capsys.readouterr().err
        assert err.startswith(f"klcat: cache at {cache}") and "Traceback" not in err


def test_kl_cache_write_failure_leaves_no_file(tmp_path, monkeypatch, capsys):
    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    cache = tmp_path / "kl.json"
    assert main(["kl", "--type", "A2", "--cache", str(cache)], out=io.StringIO()) == 3
    assert list(tmp_path.iterdir()) == []
    assert "disk full" in capsys.readouterr().err


def test_kl_cache_write_is_durable(tmp_path, monkeypatch):
    # the temp file is synced, then renamed over the cache, then the directory is synced
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, str(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    cache = tmp_path / "kl.json"
    assert main(["kl", "--type", "A2", "--cache", str(cache)], out=io.StringIO()) == 0
    inode = cache.stat().st_ino
    assert events == [
        ("fsync", inode),
        ("replace", inode, str(cache)),
        ("fsync", tmp_path.stat().st_ino),
    ]


def test_kl_cache_dir_env(tmp_path, monkeypatch):
    code, text = run_cli(
        ["kl", "--type", "A2"], env={"KLCAT_CACHE_DIR": str(tmp_path)}, monkeypatch=monkeypatch
    )
    assert code == 0
    files = list(tmp_path.glob("kl-*.json"))
    assert len(files) == 1
    code2, text2 = run_cli(
        ["kl", "--type", "A2"], env={"KLCAT_CACHE_DIR": str(tmp_path)}, monkeypatch=monkeypatch
    )
    assert code2 == 0 and text2 == text


def test_cells_command():
    code, text = run_cli(["cells", "--type", "A2", "--word", "s1,s2"])
    assert code == 0
    obj = json.loads(text)
    assert obj["lambda0"] == ["s1.s2"]
    assert obj["pass"] is True


def test_cells_a3_chain_word():
    code, text = run_cli(["cells", "--type", "A3", "--word", "s2,s1,s3,s2"])
    assert code == 0
    obj = json.loads(text)
    assert obj["lambda0"] == ["s2.s1.s3.s2"]


def test_cells_non_reduced_exits_4(capsys):
    assert main(["cells", "--type", "A2", "--word", "s1,s1"], out=io.StringIO()) == 4
    assert main(["cells", "--type", "A2", "--word", "s9"], out=io.StringIO()) == 4
    for word in ("s\u0663", "s01"):  # only canonical ASCII decimals name a generator
        assert main(["cells", "--type", "A3", "--word", word], out=io.StringIO()) == 4
    capsys.readouterr()
    # s2.s2 fails inside the word, and the message names the whole word
    out = io.StringIO()
    assert main(["cells", "--type", "A3", "--word", "s1,s2,s2"], out=out) == 4
    assert capsys.readouterr().err == "klcat: word s1.s2.s2 is not reduced\n"
    assert out.getvalue() == ""


@pytest.mark.parametrize("suite", ["kl", "leaves", "branch", "recursion", "all"])
def test_verify_suites_pass_on_a2(suite):
    code, text = run_cli(["verify", "--type", "A2", "--suite", suite])
    assert code == 0
    assert text.endswith("RESULT: PASS\n")


def test_verify_deterministic_across_runs_and_jobs():
    runs = [
        run_cli(["verify", "--type", "A2", "--suite", "all", "--format", "json"]),
        run_cli(["verify", "--type", "A2", "--suite", "all", "--format", "json"]),
        run_cli(["verify", "--type", "A2", "--suite", "all", "--format", "json", "--jobs", "4"]),
    ]
    assert all(code == 0 for code, _ in runs)
    assert runs[0][1] == runs[1][1] == runs[2][1]


def test_verify_a3_json_bytes_are_pinned():
    # every record's lhs/rhs strings, including the leaf_partition ones
    code, text = run_cli(["verify", "--type", "A3", "--suite", "all", "--format", "json"])
    assert code == 0
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "42b39db09096687584e3c8bcb487dfba1fe25acec30d288b94ee88e03041e9b0"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["kl", "--type", "A3", "--format", "json"],
            "7678ce402a75d8f4f59e5b1ec9f95a129f0e8e0f95d02220c3c32e49be464960",
        ),
        (
            ["kl", "--type", "B3", "--format", "csv"],
            "5dbddae836a0d5b0b4b1287bc7d0fa453d5e65cf85a0d107ffeffb01d666dc53",
        ),
        (
            ["kl", "--type", "B4", "--format", "csv"],
            "f7ec3bbd282a9c36ec1613b99781014a100af0d039ddc4fb6a0a91f1d056072c",
        ),
        (
            ["kl", "--matrix", '{"rank":3,"m":[[1,4,0],[4,1,3],[0,3,1]]}', "--cap", "300", "--format", "csv"],
            "04426a9069ebba016d6c6b329353c1196b6783a22454d473bb9a11754c2d47b4",
        ),
        (
            ["cells", "--type", "A3", "--word", "s2,s1,s3,s2"],
            "5a98b8791ee9b48ed6ab96fd8e44e8bafaf5330c6280c163636cbc2bfd49f049",
        ),
        (
            ["group", "--type", "B3"],
            "34313c9bd94f6b49b62c4c94c7542b69da501031db4c78fcaa4a5ab8f12dfe67",
        ),
        (
            ["verify", "--type", "B3", "--suite", "kl", "--format", "json"],
            "410435f0509c1d0d077196a375c6032a12d46cfb1f19d2b8caeea01c72311a60",
        ),
        (
            [
                "verify", "--matrix", '{"rank":3,"m":[[1,4,0],[4,1,3],[0,3,1]]}', "--cap", "300",
                "--max-length", "6", "--suite", "kl", "--format", "json",
            ],
            "505a5e5cf7a0c2261250175f85dcf58faf8c9e92cda958fa699d4e305bd3f8a1",
        ),
        (
            ["verify", "--type", "B3", "--suite", "leaves", "--format", "json"],
            "941342e7081ca773b3fd12eae3ead9d96fffbc84921511d2f802ad703e7a1382",
        ),
        (
            ["verify", "--type", "B3", "--suite", "branch", "--format", "json"],
            "2ccbd7da9dacb341d7e05dba7b549515f0dadcc6de99fc87f7dd973f63b12b72",
        ),
        (
            ["verify", "--type", "B3", "--suite", "recursion", "--format", "json"],
            "89e58ac5bad07dfd755445a36a5f7e3fc44b473d3cbbfc449aa1dc0bb92aadce",
        ),
        (
            [
                "verify", "--matrix", '{"rank":3,"m":[[1,4,0],[4,1,3],[0,3,1]]}', "--cap", "300",
                "--max-length", "5", "--suite", "all", "--format", "json",
            ],
            "aa0e7a334648e541221840e97de258614437ba223b66a7a795d0cc0c1f5c4f49",
        ),
    ],
    ids=[
        "kl-A3-json", "kl-B3-csv", "kl-B4-csv", "kl-triangle-csv", "cells-A3", "group-B3",
        "verify-kl-B3-json", "verify-kl-triangle-json", "verify-leaves-B3-json",
        "verify-branch-B3-json", "verify-recursion-B3-json", "verify-all-triangle-json",
    ],
)
def test_output_bytes_are_pinned(argv, digest):
    code, text = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_verify_json_summary_shape():
    code, text = run_cli(["verify", "--type", "I2(4)", "--suite", "recursion", "--format", "json"])
    assert code == 0
    obj = json.loads(text)
    assert obj["pass"] is True
    assert set(obj["summary"]) == {"derived_recursion", "correction_index_consistency"}
    assert all(counts["fail"] == 0 for counts in obj["summary"].values())


def test_verify_dihedral_recursion_suite():
    code, text = run_cli(["verify", "--type", "I2(6)", "--suite", "recursion"])
    assert code == 0 and text.endswith("RESULT: PASS\n")


def test_verify_failure_exits_1(monkeypatch, capsys):
    # exercise the exit-code contract without corrupting real data: the
    # fake suite feeds one failing check to the sink it is given
    import klcat.cli as cli_mod

    def failing_suite(kl, suite, sink):
        sink("synthetic", "e", False, ("0", "1"), None)
        return {"suite": suite, "records": sink, "summary": sink.summary(), "pass": sink.passed()}

    monkeypatch.setattr(cli_mod, "run_suite", failing_suite)
    out = io.StringIO()
    assert main(["verify", "--type", "A2", "--suite", "kl"], out=out) == 1
    lines = out.getvalue().splitlines()
    assert lines[-2:] == ["FAIL synthetic [word=e] lhs=0 rhs=1", "RESULT: FAIL"]
    capsys.readouterr()


def test_group_presets_b3_a4():
    code, text = run_cli(["group", "--type", "B3"])
    assert code == 0 and "order: 48" in text
    code, text = run_cli(["group", "--type", "A4"])
    assert code == 0 and "order: 120" in text and "longest length: 10" in text


def test_verify_truncated_group_with_max_length():
    code, text = run_cli(
        [
            "verify",
            "--matrix",
            '{"rank":2,"m":[[1,0],[0,1]]}',
            "--cap",
            "60",
            "--max-length",
            "6",
            "--suite",
            "all",
        ]
    )
    assert code == 0 and text.endswith("RESULT: PASS\n")

"""Acceptance criteria, one test per criterion, at the stated tolerances.

Every check here is exact (integer Laurent arithmetic); the only tolerances
are the stated wall-clock budgets, measured on the computation itself.
Each test prints one PASS/FAIL line so the suite doubles as a report.
"""

import io
import time

from klcat.branch import branching_sides, derive_kl_recursion, res_cell_class, restriction_counts
from klcat.cells import build_cell_datum
from klcat.cli import main
from klcat.coxeter import (
    bruhat_interval,
    build_group,
    descents,
    evaluate_word,
    preset_matrix,
)
from klcat.hecke import bar_involution, bott_samelson_class
from klcat.kl import compute_kl, recursion_column, to_classical
from klcat.laurent import LaurentPoly, ONE, ZERO, v_power
from klcat.leaves import character_map

import oracles
from oracles import all_reduced_words, bruhat_leq, decomposition, dihedral_kl_candidate, satisfies_kl_conditions


def branching(kl, word):
    """The cell data of ``word`` and of its tail, with the restricted cell classes."""
    tail = build_cell_datum(kl, word[1:])
    datum = build_cell_datum(kl, word, tail)
    return datum, tail, res_cell_class(datum, tail)


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def groups(names):
    for name in names:
        table = build_group(preset_matrix(name), 1000)
        yield name, table, compute_kl(table, table.complete_length)


def reduced_words(table):
    for w in table.elements:
        yield from sorted(all_reduced_words(table, w))


def test_criterion_1_dihedral_kl_tables():
    t0 = time.perf_counter()
    ok = True
    for name, table, kl in groups([f"I2({m})" for m in range(3, 9)]):
        for w in table.elements:
            candidate = dihedral_kl_candidate(table, w)
            ok = ok and satisfies_kl_conditions(table, w, candidate)
            ok = ok and kl.kl_element(w) == candidate
            for x in bruhat_interval(table, w):
                ok = ok and kl.kl_poly(x, w) == v_power(table.length[w] - table.length[x])
    elapsed = time.perf_counter() - t0
    report("1 dihedral KL tables (I2(3..8), exact, <1s)", ok and elapsed < 1.0)


def test_criterion_2_a3_two_paths():
    t0 = time.perf_counter()
    table = build_group(preset_matrix("A3"), 1000)
    kl = compute_kl(table, table.complete_length)
    w = evaluate_word(table, (1, 0, 2, 1))
    x = table.elements[2]
    ok = kl.kl_poly(x, w) == LaurentPoly({1: 1, 3: 1})
    ok = ok and to_classical(kl.kl_poly(x, w), table.length[x], table.length[w]) == LaurentPoly({0: 1, 1: 1})
    pairs = len(table.elements) ** 2
    for v in table.elements:
        for s in descents(table, v, "left"):
            column = recursion_column(kl, v, s)
            for u in table.elements:
                ok = ok and column.get(u, ZERO) == kl.kl_poly(u, v)
    elapsed = time.perf_counter() - t0
    report(
        f"2 A3 value v+v^3 / 1+q, both paths agree on all {pairs} pairs (exact, <5s)",
        ok and pairs == 576 and elapsed < 5.0,
    )


def test_criterion_3_leaves_hecke_characters():
    t0 = time.perf_counter()
    ok = True
    for name, table, kl in groups(["A2", "A3"] + [f"I2({m})" for m in range(3, 7)]):
        for word in reduced_words(table):
            bs = bott_samelson_class(table, word)
            # the left-to-right walk, and the right-to-left one over the explicit paths
            for chars in (character_map(table, word), oracles.character_map(table, word, "rl")):
                for x in table.elements:
                    ok = ok and chars.get(x, ZERO) == bs.get(x, ZERO)
    elapsed = time.perf_counter() - t0
    report("3 leaf characters = Hecke coefficients (exact, <10s)", ok and elapsed < 10.0)


def test_criterion_4_branching():
    ok = True
    for name, table, kl in groups(["A2", "A3"] + [f"I2({m})" for m in range(3, 7)]):
        for word in reduced_words(table):
            if word:
                datum, tail, _ = branching(kl, word)
                sides = branching_sides(datum, tail)
                ok = ok and bool(sides) and all(lhs == rhs and got == want for _, lhs, rhs, got, want in sides)
    report("4 branching characters and leaf partitions (exact)", ok)


def test_criterion_5_restriction_lemmas():
    ok = True
    for name, table, kl in groups(["A2", "A3"] + [f"I2({m})" for m in range(3, 7)]):
        # restriction multiplicities counted two ways, per word
        for word in reduced_words(table):
            if word:
                datum, tail, images = branching(kl, word)
                counts = restriction_counts(datum, tail)
                ok = ok and all(
                    counts[z].get(u, ZERO) == images[z].get(u, ZERO)
                    for z in datum.interval
                    for u in tail.simple_gdims
                )
        # generator-times-KL-element structure constants against mu
        for u in table.elements:
            for s in range(table.rank):
                if s in descents(table, u, "left"):
                    continue
                su = evaluate_word(table, (s,) + table.words[u])
                expected = {su: ONE}
                for z in bruhat_interval(table, su):
                    if z != su and s in descents(table, z, "left"):
                        m = kl.mu(z, u)
                        if m:
                            expected[z] = LaurentPoly({0: m})
                ok = ok and kl.structure_constants(s, u) == expected
    report("5 restriction-count and mu-structure identities (exact)", ok)


def test_criterion_6_derived_recursion():
    ok = True
    for name, table, kl in groups(["A2", "A3"] + [f"I2({m})" for m in range(3, 9)]):
        for word in reduced_words(table):
            if word:
                datum, _, images = branching(kl, word)
                for x, (lhs, rhs, alt) in derive_kl_recursion(datum, images).items():
                    ok = ok and lhs == rhs == alt
    report("6 categorified recursion re-derives every KL polynomial (exact)", ok)


def test_criterion_7_structural_invariants():
    ok = True
    for name, table, kl in groups(["A2", "A3"] + [f"I2({m})" for m in range(3, 9)]):
        for w in table.elements:
            elt = kl.kl_element(w)
            ok = ok and bar_involution(table, elt) == elt
            for x, c in elt.items():
                if x != w:
                    ok = ok and c.in_positive_part()
                ok = ok and c.is_nonnegative()
                ok = ok and all((e - (table.length[w] - table.length[x])) % 2 == 0 for e in c.exponents())
        for u in table.elements:
            for s in range(table.rank):
                if s not in descents(table, u, "left"):
                    sc = kl.structure_constants(s, u)
                    ok = ok and all(c.is_nonnegative() for c in sc.values())
        # triangularity of the decomposition numbers over each canonical word
        for w in table.elements:
            datum = build_cell_datum(kl, table.words[w])
            for y in datum.simple_gdims:
                ok = ok and decomposition(datum, y, y) == ONE
                for x in datum.interval:
                    if decomposition(datum, x, y):
                        ok = ok and bruhat_leq(table, x, y)
    report("7 bar-invariance, degrees, parity, positivity, triangularity (exact)", ok)


def test_criterion_8_engineering(tmp_path):
    t0 = time.perf_counter()
    out1 = io.StringIO()
    code1 = main(["verify", "--type", "A3", "--suite", "all", "--jobs", "1"], out=out1)
    elapsed = time.perf_counter() - t0
    out2 = io.StringIO()
    code2 = main(["verify", "--type", "A3", "--suite", "all", "--jobs", "1"], out=out2)
    out4 = io.StringIO()
    code4 = main(["verify", "--type", "A3", "--suite", "all", "--jobs", "4"], out=out4)
    deterministic = out1.getvalue() == out2.getvalue() == out4.getvalue()

    cache = tmp_path / "a3.json"
    dump1 = io.StringIO()
    main(["kl", "--type", "A3", "--format", "json", "--cache", str(cache)], out=dump1)
    first_bytes = cache.read_bytes()
    dump2 = io.StringIO()
    main(["kl", "--type", "A3", "--format", "json", "--cache", str(cache)], out=dump2)
    round_trip = (
        dump1.getvalue() == dump2.getvalue()
        and cache.read_bytes() == first_bytes
        and dump1.getvalue().encode() == first_bytes
    )

    ok = code1 == code2 == code4 == 0 and elapsed < 10.0 and deterministic and round_trip
    report(
        f"8 verify A3 all in {elapsed:.2f}s (<10s), deterministic across runs/jobs, cache byte-stable",
        ok,
    )

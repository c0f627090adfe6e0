import random

import pytest

from klcat.coxeter import IncompleteTableError, build_group, evaluate_word, preset_matrix
from klcat.hecke import (
    HeckeElt,
    bar_involution,
    bott_samelson_class,
    left_mul_kl,
    left_mul_std,
    product,
    std_basis,
    unit,
)
from klcat.laurent import LaurentPoly, ONE, V

import oracles
from oracles import LADDER


def random_hecke_elt(table, rng, max_terms=4):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        w = rng.choice(table.elements)
        coeffs[w] = LaurentPoly(
            {rng.randint(-3, 3): rng.randint(-5, 5) for _ in range(rng.randint(1, 3))}
        )
    return HeckeElt(table, coeffs)


def test_std_basis_and_unit(a2):
    s = a2.elements[1]
    assert std_basis(a2, a2.identity) == unit(a2)
    assert std_basis(a2, s).items() == [(s, ONE)]


def test_left_mul_std_examples(a2):
    e, s, t = a2.identity, a2.elements[1], a2.elements[2]
    assert left_mul_std(0, unit(a2)) == std_basis(a2, s)
    # the quadratic relation: H_s H_s = (v^-1 - v) H_s + 1
    assert left_mul_std(0, std_basis(a2, s)) == HeckeElt(
        a2, {s: LaurentPoly({-1: 1, 1: -1}), e: ONE}
    )
    st = evaluate_word(a2, (0, 1))
    assert left_mul_std(0, std_basis(a2, t)) == std_basis(a2, st)


def test_left_mul_kl_examples(a2):
    e, s, t = a2.identity, a2.elements[1], a2.elements[2]
    assert left_mul_kl(0, unit(a2)) == HeckeElt(a2, {s: ONE, e: V})
    assert left_mul_kl(0, std_basis(a2, s)) == HeckeElt(a2, {e: ONE, s: LaurentPoly({-1: 1})})
    st = evaluate_word(a2, (0, 1))
    assert left_mul_kl(0, std_basis(a2, t)) == HeckeElt(a2, {st: ONE, t: V})


def test_left_mul_kl_is_std_plus_v(a2, ladder):
    rng = random.Random(1)
    cases = [(a2, [random_hecke_elt(a2, rng) for _ in range(25)])]
    for name in ("A3", "B3", "H3", "triangle4-0-3"):
        table, kl = ladder(name)
        cases.append((table, [kl.kl_element(w) for w in kl.stored_elements()]))
    for table, samples in cases:
        for h in samples:
            for s in range(table.rank):
                try:
                    want = left_mul_std(s, h) + h.scale(V)
                except IncompleteTableError:  # s times the top of h lies beyond a truncated table
                    with pytest.raises(IncompleteTableError):
                        left_mul_kl(s, h)
                    continue
                assert left_mul_kl(s, h) == want


def test_product_examples(a2):
    e, s, t = a2.identity, a2.elements[1], a2.elements[2]
    hs = std_basis(a2, s)
    assert product(hs, hs) == left_mul_std(0, hs)
    rng = random.Random(2)
    for _ in range(10):
        h = random_hecke_elt(a2, rng)
        assert product(unit(a2), h) == h
        assert product(h, unit(a2)) == h
    # (H_s + v)(H_t + v) multiplied out by hand
    st = evaluate_word(a2, (0, 1))
    lhs = product(HeckeElt(a2, {s: ONE, e: V}), HeckeElt(a2, {t: ONE, e: V}))
    assert lhs == HeckeElt(a2, {st: ONE, s: V, t: V, e: LaurentPoly({2: 1})})


def test_product_associative(a3):
    rng = random.Random(3)
    for _ in range(8):
        a, b, c = (random_hecke_elt(a3, rng, max_terms=2) for _ in range(3))
        assert product(product(a, b), c) == product(a, product(b, c))


def test_bar_examples(a2):
    e, s = a2.identity, a2.elements[1]
    assert bar_involution(unit(a2)) == unit(a2)
    # inverting the quadratic relation gives bar(H_s) = H_s + (v - v^-1)
    assert bar_involution(std_basis(a2, s)) == HeckeElt(
        a2, {s: ONE, e: LaurentPoly({1: 1, -1: -1})}
    )
    cs = HeckeElt(a2, {s: ONE, e: V})
    assert bar_involution(cs) == cs


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_bar_is_involution_and_ring_morphism(name):
    table = build_group(preset_matrix(name), 1000)
    rng = random.Random(4)
    for _ in range(10):
        h = random_hecke_elt(table, rng, max_terms=3)
        k = random_hecke_elt(table, rng, max_terms=2)
        assert bar_involution(bar_involution(h)) == h
        assert bar_involution(h + k) == bar_involution(h) + bar_involution(k)
        assert bar_involution(product(h, k)) == product(bar_involution(h), bar_involution(k))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_braid_relation_as_operators(m):
    table = build_group(preset_matrix(f"I2({m})"), 1000)
    rng = random.Random(m)
    for _ in range(5):
        h = random_hecke_elt(table, rng)
        lhs = rhs = h
        for k in range(m):
            lhs = left_mul_std(k % 2, lhs)
            rhs = left_mul_std((k + 1) % 2, rhs)
        assert lhs == rhs


def test_bott_samelson_class_examples(a2):
    e, s, t = a2.identity, a2.elements[1], a2.elements[2]
    st = evaluate_word(a2, (0, 1))
    assert bott_samelson_class(a2, ()) == unit(a2)
    assert bott_samelson_class(a2, (0,)) == HeckeElt(a2, {s: ONE, e: V})
    assert bott_samelson_class(a2, (0, 1)) == HeckeElt(
        a2, {st: ONE, s: V, t: V, e: LaurentPoly({2: 1})}
    )
    # a non-reduced word: (C_s)^2 = (v + v^-1) C_s
    sq = bott_samelson_class(a2, (0, 0))
    assert sq == HeckeElt(
        a2, {s: LaurentPoly({1: 1, -1: 1}), e: LaurentPoly({0: 1, 2: 1})}
    )


@pytest.mark.parametrize("name", LADDER)
def test_bar_matches_oracle(ladder, name):
    table, kl = ladder(name)
    rng = random.Random(name)
    # every H_w, whose image is the inverse of H_{w^-1}, and elements that are not bar-invariant
    samples = [std_basis(table, w) for w in kl.stored_elements()]
    samples += [random_hecke_elt(table, rng) for _ in range(20)]
    for h in samples:
        assert bar_involution(h) == oracles.bar_involution(h)
    # C_w is bar-invariant, so the oracle's image of it is itself (evaluating the
    # oracle on every C_w takes 22 s on B4)
    for u in kl.stored_elements():
        assert bar_involution(kl.kl_element(u)) == kl.kl_element(u)

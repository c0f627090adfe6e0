import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcat.coxeter import IncompleteTableError, build_group, evaluate_word, mult_gen, preset_matrix
from klcat.hecke import (
    bar_invariant,
    bar_involution,
    bott_samelson_class,
    left_mul_codes,
    left_mul_kl,
    left_mul_terms,
)
from klcat.kl import _digits
from klcat.laurent import LaurentPoly, ONE, V, V_INV, v_power

import oracles
from oracles import LADDER, add, left_mul_std, product, scale


def random_hecke_elt(table, rng, max_terms=4):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        w = rng.choice(table.elements)
        coeffs[w] = LaurentPoly(
            {rng.randint(-3, 3): rng.randint(-5, 5) for _ in range(rng.randint(1, 3))}
        )
    return {w: c for w, c in coeffs.items() if c}


def test_left_mul_std_examples(a2):
    e, s, t = a2.identity, a2.elements[1], a2.elements[2]
    assert left_mul_std(a2, 0, {e: ONE}) == {s: ONE}
    # the quadratic relation: H_s H_s = (v^-1 - v) H_s + 1
    assert left_mul_std(a2, 0, {s: ONE}) == {s: LaurentPoly({-1: 1, 1: -1}), e: ONE}
    st = evaluate_word(a2, (0, 1))
    assert left_mul_std(a2, 0, {t: ONE}) == {st: ONE}


def test_left_mul_kl_examples(a2):
    e, s, t = a2.identity, a2.elements[1], a2.elements[2]
    assert left_mul_kl(a2, 0, {e: ONE}) == {s: ONE, e: V}
    assert left_mul_kl(a2, 0, {s: ONE}) == {e: ONE, s: LaurentPoly({-1: 1})}
    st = evaluate_word(a2, (0, 1))
    assert left_mul_kl(a2, 0, {t: ONE}) == {st: ONE, t: V}


def test_products_drop_cancelled_coordinates(a2):
    e, s = a2.identity, a2.elements[1]
    # C_s (1 - v H_s) = H_s + v - v (H_s H_s + v H_s) = H_s + v - v (v^-1 H_s + 1) = 0
    assert left_mul_kl(a2, 0, {e: ONE, s: -V}) == {}
    # bar(H_s) = H_s + (v - v^-1) and bar(v - v^-1) = v^-1 - v, so H_s + (v - v^-1) maps to H_s
    assert bar_involution(a2, {s: ONE, e: V - V_INV}) == {s: ONE}


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
                    want = add(left_mul_std(table, s, h), scale(h, V))
                except IncompleteTableError:  # s times the top of h lies beyond a truncated table
                    with pytest.raises(IncompleteTableError):
                        left_mul_kl(table, s, h)
                    continue
                assert left_mul_kl(table, s, h) == want


def test_product_examples(a2):
    e, s, t = a2.identity, a2.elements[1], a2.elements[2]
    hs, unit = {s: ONE}, {e: ONE}
    assert product(a2, hs, hs) == left_mul_std(a2, 0, hs)
    rng = random.Random(2)
    for _ in range(10):
        h = random_hecke_elt(a2, rng)
        assert product(a2, unit, h) == h
        assert product(a2, h, unit) == h
    # (H_s + v)(H_t + v) multiplied out by hand
    st = evaluate_word(a2, (0, 1))
    lhs = product(a2, {s: ONE, e: V}, {t: ONE, e: V})
    assert lhs == {st: ONE, s: V, t: V, e: LaurentPoly({2: 1})}


def test_product_associative(a3):
    rng = random.Random(3)
    for _ in range(8):
        a, b, c = (random_hecke_elt(a3, rng, max_terms=2) for _ in range(3))
        assert product(a3, product(a3, a, b), c) == product(a3, a, product(a3, b, c))


def test_bar_examples(a2):
    e, s = a2.identity, a2.elements[1]
    assert bar_involution(a2, {e: ONE}) == {e: ONE}
    # inverting the quadratic relation gives bar(H_s) = H_s + (v - v^-1)
    assert bar_involution(a2, {s: ONE}) == {s: ONE, e: LaurentPoly({1: 1, -1: -1})}
    cs = {s: ONE, e: V}
    assert bar_involution(a2, cs) == cs


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_bar_is_involution_and_ring_morphism(name):
    table = build_group(preset_matrix(name), 1000)
    rng = random.Random(4)

    def bar(h):
        return bar_involution(table, h)

    for _ in range(10):
        h = random_hecke_elt(table, rng, max_terms=3)
        k = random_hecke_elt(table, rng, max_terms=2)
        assert bar(bar(h)) == h
        assert bar(add(h, k)) == add(bar(h), bar(k))
        assert bar(product(table, h, k)) == product(table, bar(h), bar(k))


@pytest.mark.parametrize("name", LADDER)
def test_bar_is_an_involution_on_the_ladder(ladder, name):
    # random elements mix lengths up to the top of the table, truncated ones included
    table, _ = ladder(name)
    rng = random.Random(f"involution {name}")
    for _ in range(10):
        h = random_hecke_elt(table, rng, max_terms=6)
        assert bar_involution(table, bar_involution(table, h)) == h


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_braid_relation_as_operators(m):
    table = build_group(preset_matrix(f"I2({m})"), 1000)
    rng = random.Random(m)
    for _ in range(5):
        h = random_hecke_elt(table, rng)
        lhs = rhs = h
        for k in range(m):
            lhs = left_mul_std(table, k % 2, lhs)
            rhs = left_mul_std(table, (k + 1) % 2, rhs)
        assert lhs == rhs


def test_bott_samelson_class_examples(a2):
    e, s, t = a2.identity, a2.elements[1], a2.elements[2]
    st = evaluate_word(a2, (0, 1))
    assert bott_samelson_class(a2, ()) == {e: ONE}
    assert bott_samelson_class(a2, (0,)) == {s: ONE, e: V}
    assert bott_samelson_class(a2, (0, 1)) == {st: ONE, s: V, t: V, e: LaurentPoly({2: 1})}
    # a non-reduced word: (C_s)^2 = (v + v^-1) C_s
    sq = bott_samelson_class(a2, (0, 0))
    assert sq == {s: LaurentPoly({1: 1, -1: 1}), e: LaurentPoly({0: 1, 2: 1})}


@pytest.mark.parametrize("name", LADDER)
def test_bar_matches_oracle(ladder, name):
    table, kl = ladder(name)
    rng = random.Random(name)
    # every H_w, whose image is the inverse of H_{w^-1}, and elements that are not bar-invariant
    samples = [{w: ONE} for w in kl.stored_elements()]
    samples += [random_hecke_elt(table, rng) for _ in range(20)]
    before = copy.deepcopy(vars(table))
    for h in samples:
        assert bar_involution(table, h) == oracles.bar_involution(table, h)
    assert vars(table) == before  # the bar keeps no state on the table
    # C_w is bar-invariant, so the oracle's image of it is itself (evaluating the
    # oracle on every C_w takes 22 s on B4)
    for u in kl.stored_elements():
        assert bar_involution(table, kl.kl_element(u)) == kl.kl_element(u)
        assert bar_invariant(table, kl.kl_element(u))


# coefficients up to 10^40 in absolute value, exponents in [-40, 40]
BIG = 10**40
big_polys = st.dictionaries(
    st.integers(-40, 40), st.integers(-BIG, BIG), min_size=1, max_size=4
).map(LaurentPoly).filter(bool)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["A3", "B3", "triangle4-0-3"]), data=st.data())
def test_bar_kernel_on_big_coefficients(ladder, name, data):
    # coefficients far beyond a machine word, exponents far beyond any length
    table, _ = ladder(name)
    h = data.draw(st.dictionaries(st.sampled_from(table.elements), big_polys, max_size=5))
    before = copy.deepcopy(vars(table))
    image = bar_involution(table, h)
    assert image == oracles.bar_involution(table, h)
    assert bar_involution(table, image) == h
    # the codes decide invariance as the decoded image does; h + bar(h) is invariant
    assert bar_invariant(table, h) == (image == h)
    assert bar_invariant(table, add(h, image))
    assert vars(table) == before


@pytest.mark.parametrize("n", [2**64 - 1, 2**64, BIG])
def test_bar_keeps_big_coefficients(a3, n):
    # coefficients far beyond 64 bits, one alone and three side by side with alternating signs
    e, w0 = a3.identity, max(a3.elements)
    edge = {e: v_power(-40, n)}
    assert bar_involution(a3, edge) == {e: v_power(40, n)}
    mixed = {e: LaurentPoly({-1: -n, 0: n, 1: -n}), w0: LaurentPoly({40: n})}
    image = bar_involution(a3, mixed)
    assert image == oracles.bar_involution(a3, mixed)
    assert bar_involution(a3, image) == mixed


def _code(h, shift):
    """h evaluated at v = 2^shift (h has no negative exponent)."""
    return sum(k << shift * e for e, k in h.items())


@pytest.mark.parametrize("name", LADDER)
def test_integer_step_matches_left_mul_terms(ladder, name):
    # every stored C_u times every s: the codes decode to the polynomial step's sums,
    # an sx beyond a truncated table read as longer than x
    table, kl = ladder(name)
    top = max(abs(k) for u in kl.stored_elements() for h in kl.kl_element(u).values() for _, k in h.items())
    shift = (2 * top).bit_length() + 1  # each product coefficient is at most 2 * top
    beyond = 0
    for u in kl.stored_elements():
        elt = kl.kl_element(u)
        pairs = [(x, _code(h, shift)) for x, h in elt.items()]
        for s in range(table.rank):
            try:
                mult_gen(table, u, s, "left")
            except IncompleteTableError:
                beyond += 1
                inside = [(x, h) for x, h in elt.items() if table._left[x][s] is not None]
                want = left_mul_terms(table, s, inside)
                for x, h in elt.items():
                    if table._left[x][s] is None:
                        h.add_to(want.setdefault(x, {}), 1)
                got = left_mul_codes(table, s, pairs, shift)
                assert {x: _digits(n, shift, 1) for x, n in got.items()} == {x: LaurentPoly(d) for x, d in want.items()}
                continue
            want = {x: LaurentPoly(d) for x, d in left_mul_terms(table, s, elt.items()).items()}
            assert {x: _digits(n, shift, 1) for x, n in left_mul_codes(table, s, pairs, shift).items()} == want
    assert (beyond > 0) == table.partial


@pytest.mark.parametrize("shift", [2, 8, 17, 64])
def test_codes_decode_at_the_width_boundary(shift):
    # balanced digits below 2^(shift - 1) in absolute value round-trip exactly, scaled by v;
    # 2^(shift - 1) itself is one past the width
    edge = (1 << shift - 1) - 1
    h = LaurentPoly({0: edge, 1: -edge, 2: -edge, 3: edge, 5: -edge})
    assert _digits(_code(h, shift) << shift, shift, 1) == h
    over = LaurentPoly({1: edge + 1})
    assert _digits(_code(over, shift) << shift, shift, 1) != over

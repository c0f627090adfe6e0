"""The Hecke algebra of a Coxeter system in its standard basis.

An element is a plain ``{id: LaurentPoly}`` dict of standard-basis
coordinates with no zero value, so equality is dict equality; the KL basis
elements a :class:`~klcat.kl.KLTable` stores also keep their ids
ascending.  The generator relations are

    H_s^2 = (v^-1 - v) H_s + 1,      H_s H_t H_s ... = H_t H_s H_t ...  (m_st factors)

and the degree-shifted generators C_s = H_s + v act on the standard basis by

    C_s H_x = H_sx + v H_x     if l(sx) > l(x),
    C_s H_x = H_sx + v^-1 H_x  if l(sx) < l(x).

Only left multiplication by shifted generators and the bar involution are
needed by the algorithms here (the generic product is a test oracle).
Both sum their products into one ``{x: {exponent: coefficient}}`` dict and
build each coefficient once, dropping the coordinates that cancel.
"""

from __future__ import annotations

from .coxeter import GroupTable, Word, mult_gen
from .laurent import LaurentPoly, ONE


def _to_vector(acc: dict[int, dict[int, int]]) -> dict[int, LaurentPoly]:
    """The element summed in an ``{x: {exponent: coefficient}}`` dict, cancelled coordinates dropped."""
    return {x: c for x, d in acc.items() if (c := LaurentPoly(d))}


def left_mul_kl(table: GroupTable, s: int, h: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """Left multiplication by the shifted generator C_s = H_s + v.

    C_s H_x = H_sx + v^{+-1} H_x, so each coefficient c of h is added into
    one ``{x: {exponent: coefficient}}`` dict at sx and, shifted by +-1, at
    x; each output ``LaurentPoly`` is built once.
    """
    length = table.length
    acc: dict[int, dict[int, int]] = {}
    for x, c in h.items():
        sx = mult_gen(table, x, s, "left")
        c.add_to(acc.setdefault(sx, {}))
        c.add_to(acc.setdefault(x, {}), 1 if length[sx] > length[x] else -1)
    return _to_vector(acc)


Terms = tuple[tuple[int, int], ...]  # a polynomial's nonzero (exponent, coefficient) pairs


def _inverse_of_inverse_word(table: GroupTable, w: int) -> dict[int, Terms]:
    """Standard-basis terms of the inverse of H_{w^-1}, memoized on the table.

    With s the first letter of the canonical word of w, that inverse is
    H_s^-1 times the inverse for sw, whose canonical word is the tail
    (the tail of a ShortLex word is ShortLex).  H_s^-1 = H_s + (v - v^-1)
    sends H_y to H_sy, plus (v - v^-1) H_y when l(sy) > l(y).  The chain
    w, sw, ... is walked down to the first memoized element and filled
    back up, each step accumulated in one dict of dicts.
    """
    memo, length = table._inverse_memo, table.length
    if not memo:
        memo[table.identity] = {table.identity: ((0, 1),)}
    chain = []
    u = w
    while u not in memo:
        s = table.words[u][0]
        chain.append((u, s))
        u = mult_gen(table, u, s, "left")
    for u, s in reversed(chain):
        acc: dict[int, dict[int, int]] = {}
        for y, terms in memo[mult_gen(table, u, s, "left")].items():
            sy = mult_gen(table, y, s, "left")
            _add_terms(acc.setdefault(sy, {}), terms, 0, 1)
            if length[sy] > length[y]:
                d = acc.setdefault(y, {})
                _add_terms(d, terms, 1, 1)
                _add_terms(d, terms, -1, -1)
        memo[u] = {y: t for y, d in acc.items() if (t := tuple((e, c) for e, c in d.items() if c))}
    return memo[w]


def _add_terms(acc: dict[int, int], terms: Terms, shift: int, factor: int) -> None:
    """acc += factor * v^shift * (the polynomial of ``terms``), in place."""
    get = acc.get
    for e, c in terms:
        e += shift
        acc[e] = get(e, 0) + factor * c


def bar_involution(table: GroupTable, h: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """The ring involution with v -> v^-1 and H_w -> (H_{w^-1})^-1.

    Every product of a barred coefficient with an inverse's coefficient is
    accumulated into one dict of dicts; each ``LaurentPoly`` is built once.
    """
    acc: dict[int, dict[int, int]] = {}
    for w, c in h.items():
        inverse = _inverse_of_inverse_word(table, w)
        for e, k in c.items():
            for y, terms in inverse.items():
                d = acc.get(y)
                if d is None:
                    d = acc[y] = {}
                get = d.get
                for f, j in terms:
                    f -= e
                    d[f] = get(f, 0) + k * j
    return _to_vector(acc)


def bott_samelson_class(table: GroupTable, word: Word) -> dict[int, LaurentPoly]:
    """The product C_{s_1} ... C_{s_k} for an arbitrary expression.

    This is the class of the word's chain of shifted generators in the
    standard basis; its coefficients are the graded cell characters.
    """
    acc = {table.identity: ONE}
    for s in reversed(word):
        acc = left_mul_kl(table, s, acc)
    return acc

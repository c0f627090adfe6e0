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
Both sum their products into ``{x: {exponent: coefficient}}`` dicts and
build each coefficient once, dropping the coordinates that cancel.  The
bar keeps no state: it is Horner's rule over the prefix tree of the
canonical words, since every prefix of a ShortLex-minimal word is
ShortLex-minimal.
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


def bar_involution(table: GroupTable, h: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """The ring involution with v -> v^-1 and H_x -> (H_{x^-1})^-1, by Horner's rule.

    Over the canonical word s_1 ... s_k of x, H_x maps to H_{s_1}^-1 ...
    H_{s_k}^-1.  Every prefix of a ShortLex-minimal word is ShortLex-minimal
    (Bjorner-Brenti, ch. 3), so the parent of x in the prefix tree is
    ``x*t``, t the last letter of x's word, and bar(h) = G(e) with

        G(p) = bar(c_p) + sum over children x = p*t of H_t^-1 G(x),

    filled from the largest id down, each G one ``{y: {exponent:
    coefficient}}`` dict.  H_t^-1 = H_t + (v - v^-1) sends H_y to H_ty,
    plus (v - v^-1) H_y when l(ty) > l(y).
    """
    length, words = table.length, table.words
    pending = {x: {table.identity: {-e: k for e, k in c.items()}} for x, c in h.items()}
    for x in range(max(pending, default=0), 0, -1):
        if (g := pending.pop(x, None)) is None:
            continue
        t = words[x][-1]
        acc = pending.setdefault(mult_gen(table, x, t, "right"), {})
        for y, d in g.items():
            ty = mult_gen(table, y, t, "left")
            target = acc.setdefault(ty, {})
            for e, k in d.items():
                target[e] = target.get(e, 0) + k
            if length[ty] > length[y]:
                target = acc.setdefault(y, {})
                for e, k in d.items():
                    target[e + 1] = target.get(e + 1, 0) + k
                    target[e - 1] = target.get(e - 1, 0) - k
    return _to_vector(pending.get(table.identity, {}))


def bott_samelson_class(table: GroupTable, word: Word) -> dict[int, LaurentPoly]:
    """The product C_{s_1} ... C_{s_k} for an arbitrary expression.

    This is the class of the word's chain of shifted generators in the
    standard basis; its coefficients are the graded cell characters.
    """
    acc = {table.identity: ONE}
    for s in reversed(word):
        acc = left_mul_kl(table, s, acc)
    return acc

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
:func:`left_mul_terms` is the C_s step on polynomial coordinates, shared by
:func:`left_mul_kl` and :func:`~klcat.branch.res_cell_class`;
:func:`left_mul_codes` is its integer twin, which
:func:`~klcat.kl.compute_kl` and the ``kl`` suite's checks run on
coordinates held as one integer each, their polynomials evaluated at
v = 2^K (:mod:`klcat.kl` encodes and decodes them).  Outside
:mod:`klcat.coxeter` only this module and the q-form recursion column of
:mod:`klcat.kl` read the product arrays.  The bar keeps no state: it is
Horner's rule over the prefix tree of the canonical words, since every
prefix of a ShortLex-minimal word is ShortLex-minimal.  The ``kl`` suite
walks the bar only for the C_w that its recursion does not prove
bar-invariant (see :func:`~klcat.kl.recursion_columns`): none on an
intact table.
"""

from __future__ import annotations

from .coxeter import GroupTable, Word, mult_gen
from .laurent import LaurentPoly, ONE


def _to_vector(acc: dict[int, dict[int, int]]) -> dict[int, LaurentPoly]:
    """The element summed in an ``{x: {exponent: coefficient}}`` dict, cancelled coordinates dropped."""
    return {x: c for x, d in acc.items() if (c := LaurentPoly(d))}


def left_mul_terms(table: GroupTable, s: int, pairs) -> dict[int, dict[int, int]]:
    """C_s times the sum of c H_x over the ``(x, c)`` pairs, as an ``{x: {exponent: coefficient}}`` dict.

    C_s H_x = H_sx + v^{+-1} H_x, so each c is added at sx and, shifted by
    +-1, at x.  An sx beyond a truncated table raises ``IncompleteTableError``.
    """
    length, left = table.length, table._left
    acc: dict[int, dict[int, int]] = {}
    for x, c in pairs:
        sx = left[x][s]
        if sx is None:
            mult_gen(table, x, s, "left")  # raises: sx lies beyond the table
        c.add_to(acc.setdefault(sx, {}))
        c.add_to(acc.setdefault(x, {}), 1 if length[sx] > length[x] else -1)
    return acc


def left_mul_codes(table: GroupTable, s: int, pairs, shift: int) -> dict[int, int]:
    """The integer twin of :func:`left_mul_terms`, each coordinate one integer at v = 2^shift.

    A pair ``(x, n)`` is a coordinate c whose code n is c evaluated at
    v = B = 2^shift; the product's coordinates come back evaluated at B and
    scaled by v, so C_s H_x = H_sx + v^{+-1} H_x adds ``n << shift`` at sx
    and ``n << 2 * shift`` or n at x.  The codes decode exactly only while
    every coefficient of the sums stays below 2^(shift - 1) in absolute
    value, so a caller bounds its values first: :func:`~klcat.kl.compute_kl`
    reads only values it made, and the ``kl`` suite's checks read the code
    view of :meth:`~klcat.kl.KLTable.codes`, whose width bounds every
    stored value; a caller that reads a one-shot product keeps to
    :func:`left_mul_terms`.  An sx beyond a truncated table counts as
    longer than x (the one-step recursion's reading), which adds only the
    v term at x.  :func:`~klcat.kl.compute_kl` never meets one: each x it
    steps lies in [e, sw], s a left descent of w, so sx <= w (the
    Z-property).
    """
    length, left = table.length, table._left
    twice = 2 * shift
    acc: dict[int, int] = {}
    get = acc.get
    for x, n in pairs:
        sx = left[x][s]
        if sx is not None:
            acc[sx] = get(sx, 0) + (n << shift)
        acc[x] = get(x, 0) + (n << twice if sx is None or length[sx] > length[x] else n)
    return acc


def left_mul_kl(table: GroupTable, s: int, h: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """C_s * h, the :func:`left_mul_terms` of its coordinates: each polynomial built once, none zero."""
    return _to_vector(left_mul_terms(table, s, h.items()))


def bar_involution(table: GroupTable, h: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """The ring involution with v -> v^-1 and H_x -> (H_{x^-1})^-1, by Horner's rule.

    Over the canonical word s_1 ... s_k of x, H_x maps to H_{s_1}^-1 ...
    H_{s_k}^-1.  Every prefix of a ShortLex-minimal word is ShortLex-minimal
    (Bjorner-Brenti, ch. 3), so the parent of x in the prefix tree is
    ``x*t``, t the last letter of x's word, and bar(h) = G(e) with

        G(p) = bar(c_p) + sum over children x = p*t of H_t^-1 G(x),

    filled from the largest id down, each coordinate of G(x) an
    ``{exponent: coefficient}`` row.  H_t^-1 = H_t + (v - v^-1) sends H_y
    to H_ty, plus (v - v^-1) H_y when l(ty) > l(y).  A step that leaves a
    truncated table raises ``IncompleteTableError``.
    """
    length, words, left = table.length, table.words, table._left
    pending = {x: {table.identity: {-e: k for e, k in c._coeffs.items()}} for x, c in h.items()}
    for x in range(max(pending, default=0), 0, -1):
        if (g := pending.pop(x, None)) is None:
            continue
        t = words[x][-1]
        acc = pending.setdefault(mult_gen(table, x, t, "right"), {})
        for y, row in g.items():
            ty = left[y][t]
            if ty is None:
                mult_gen(table, y, t, "left")  # raises: ty lies beyond the table
            up = acc.setdefault(ty, {})
            for e, k in row.items():
                up[e] = up.get(e, 0) + k
            if length[ty] > length[y]:
                d = acc.setdefault(y, {})
                for e, k in row.items():
                    d[e + 1] = d.get(e + 1, 0) + k
                    d[e - 1] = d.get(e - 1, 0) - k
    return _to_vector(pending.get(table.identity, {}))


def bar_invariant(table: GroupTable, h: dict[int, LaurentPoly]) -> bool:
    """``bar_involution(table, h) == h``: the slow path of the ``kl`` suite's bar records."""
    return bar_involution(table, h) == h


def bott_samelson_class(table: GroupTable, word: Word) -> dict[int, LaurentPoly]:
    """The product C_{s_1} ... C_{s_k} for an arbitrary expression.

    This is the class of the word's chain of shifted generators in the
    standard basis; its coefficients are the graded cell characters.
    """
    acc = {table.identity: ONE}
    for s in reversed(word):
        acc = left_mul_kl(table, s, acc)
    return acc

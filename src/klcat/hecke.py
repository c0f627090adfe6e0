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
v = 2^K.  Outside :mod:`klcat.coxeter` only this module and the q-form
recursion column of :mod:`klcat.kl` read the product arrays.
The bar keeps no state: it is Horner's rule over the prefix tree of the
canonical words, since every prefix of a ShortLex-minimal word is
ShortLex-minimal, with each coordinate held as one integer, its polynomial
evaluated at v = 2^K.  Left multiplication by
H_t^-1 at most triples the l1 norm of an element, which bounds every
coefficient of the image, and K is chosen above that bound, so the
integers decode exactly into their polynomials as balanced base-2^K digits.
:func:`bar_invariant` compares those integers with the element's own
codes and decodes nothing.  The ``kl`` suite walks the bar only for the
C_w that its recursion does not prove bar-invariant (see
:func:`~klcat.kl.recursion_columns`): none on an intact table.
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


def left_mul_codes(table: GroupTable, s: int, pairs, shift: int, beyond_longer: bool = False) -> dict[int, int]:
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
    :func:`left_mul_terms`.  An sx beyond a truncated table raises
    ``IncompleteTableError``, unless ``beyond_longer`` counts it as longer
    than x (the one-step recursion's reading), which adds only the v term
    at x.
    """
    length, left = table.length, table._left
    twice = 2 * shift
    acc: dict[int, int] = {}
    get = acc.get
    for x, n in pairs:
        sx = left[x][s]
        if sx is None:
            if not beyond_longer:
                mult_gen(table, x, s, "left")  # raises: sx lies beyond the table
            acc[x] = get(x, 0) + (n << twice)
            continue
        acc[sx] = get(sx, 0) + (n << shift)
        acc[x] = get(x, 0) + (n << twice if length[sx] > length[x] else n)
    return acc


def left_mul_kl(table: GroupTable, s: int, h: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """C_s * h, the :func:`left_mul_terms` of its coordinates: each polynomial built once, none zero."""
    return _to_vector(left_mul_terms(table, s, h.items()))


def bar_involution(table: GroupTable, h: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """The ring involution with v -> v^-1 and H_x -> (H_{x^-1})^-1: :func:`_bar_codes`, decoded.

    Each coordinate is decoded exactly as its balanced base-2^K digits,
    the digit of B^j being the coefficient of v^(j - m).  A product that
    leaves a truncated table raises ``IncompleteTableError``.
    """
    if not h:
        return {}
    codes, shift, m = _bar_codes(table, h)
    return {y: _digits(n, shift, m) for y, n in codes.items() if n}


def bar_invariant(table: GroupTable, h: dict[int, LaurentPoly]) -> bool:
    """``bar_involution(table, h) == h``, decided on the codes of :func:`_bar_codes`.

    h is encoded at the bar's own K and m and compared as integers, so
    nothing is decoded.  Every exponent of bar(h) is at least -m, so an h
    with an exponent below -m is not bar-invariant.  K bounds the l1 norm
    of h as well as every coefficient of bar(h), so both sides are
    balanced digit expansions and their codes are equal exactly when they
    are.  This is the slow path of the ``kl`` suite's bar records, whose
    proof from the recursion must give the same verdict.
    """
    if not h:
        return True
    codes, shift, m = _bar_codes(table, h)
    own = {}
    for x, c in h.items():
        if min(c._coeffs, default=0) < -m:
            return False
        own[x] = sum(k << shift * (m + e) for e, k in c._coeffs.items())
    return own == {y: n for y, n in codes.items() if n}


def _bar_codes(table: GroupTable, h: dict[int, LaurentPoly]) -> tuple[dict[int, int], int, int]:
    """bar(h) for a nonzero h by Horner's rule at v = 2^K: ``(codes, K, m)``.

    Over the canonical word s_1 ... s_k of x, H_x maps to H_{s_1}^-1 ...
    H_{s_k}^-1.  Every prefix of a ShortLex-minimal word is ShortLex-minimal
    (Bjorner-Brenti, ch. 3), so the parent of x in the prefix tree is
    ``x*t``, t the last letter of x's word, and bar(h) = G(e) with

        G(p) = bar(c_p) + sum over children x = p*t of H_t^-1 G(x),

    filled from the largest id down.  H_t^-1 = H_t + (v - v^-1) sends H_y
    to H_ty, plus (v - v^-1) H_y when l(ty) > l(y).

    Each coordinate of G(x) is kept as one integer, the polynomial
    evaluated at v = B = 2^K and scaled by v^(m - l(x)), where m is the
    largest l(x) + e over the terms v^e of the c_x (at least 0).  No
    exponent is then negative: a term of c_z reaches G(x) with exponents
    at least m - l(z) - e.  One step adds ``g << K`` at ty and
    g (B^2 - 1) at y.  Left multiplication by H_t^-1 at most triples the
    l1 norm, so every coefficient of bar(h) is at most N = sum of
    l1(c_x) 3^l(x) in absolute value, and K = bitlength(N) + 2.  The
    codes of bar(h) are those of G(e), a cancelled coordinate reading 0.
    """
    length, words, left = table.length, table.words, table._left
    m = max(0, max(length[x] + max(c._coeffs, default=0) for x, c in h.items()))
    bound = sum(sum(map(abs, c._coeffs.values())) * 3 ** length[x] for x, c in h.items())
    shift = bound.bit_length() + 2
    twice = 2 * shift
    pending = {
        x: {table.identity: sum(k << shift * (m - length[x] - e) for e, k in c._coeffs.items())}
        for x, c in h.items()
    }
    for x in range(max(pending), 0, -1):
        if (g := pending.pop(x, None)) is None:
            continue
        t = words[x][-1]
        acc = pending.setdefault(mult_gen(table, x, t, "right"), {})
        for y, n in g.items():
            ty = left[y][t]
            if ty is None:
                mult_gen(table, y, t, "left")  # raises: ty lies beyond the table
            acc[ty] = acc.get(ty, 0) + (n << shift)
            if length[ty] > length[y]:
                acc[y] = acc.get(y, 0) + (n << twice) - n
    return pending.get(table.identity, {}), shift, m


def _digits(n: int, shift: int, m: int) -> LaurentPoly:
    """The polynomial whose value at v = 2^shift, times v^m, is n: balanced base-2^shift digits."""
    base = 1 << shift
    mask, half = base - 1, base >> 1
    coeffs: dict[int, int] = {}
    e = -m
    while n:
        d = n & mask
        if d >= half:
            d -= base
        if d:
            coeffs[e] = d
        n = (n - d) >> shift
        e += 1
    return LaurentPoly._from_pruned(coeffs)


def bott_samelson_class(table: GroupTable, word: Word) -> dict[int, LaurentPoly]:
    """The product C_{s_1} ... C_{s_k} for an arbitrary expression.

    This is the class of the word's chain of shifted generators in the
    standard basis; its coefficients are the graded cell characters.
    """
    acc = {table.identity: ONE}
    for s in reversed(word):
        acc = left_mul_kl(table, s, acc)
    return acc

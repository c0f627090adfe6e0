"""The Hecke algebra of a Coxeter system in its standard basis.

Elements are finite maps from group element ids to Laurent polynomials in
v (standard-basis coordinates), pruned after every operation so equality is
structural.  The generator relations are

    H_s^2 = (v^-1 - v) H_s + 1,      H_s H_t H_s ... = H_t H_s H_t ...  (m_st factors)

and the degree-shifted generators C_s = H_s + v act on the standard basis by

    C_s H_x = H_sx + v H_x     if l(sx) > l(x),
    C_s H_x = H_sx + v^-1 H_x  if l(sx) < l(x).

Only left multiplication by generators is needed by the algorithms here; a
generic product is provided for tests and structure constants.  The bar
involution and left multiplication by C_s sum their products into one
``{x: {exponent: coefficient}}`` dict and build each coefficient once.
"""

from __future__ import annotations

from .coxeter import GroupTable, Word, mult_gen
from .laurent import LaurentPoly, ONE, ZERO

class HeckeElt:
    """A Hecke algebra element in standard-basis coordinates, keyed by element id."""

    __slots__ = ("table", "_coeffs")

    def __init__(self, table: GroupTable, coeffs: dict[int, LaurentPoly] | None = None):
        self.table = table
        self._coeffs: dict[int, LaurentPoly] = (
            {w: c for w, c in coeffs.items() if c} if coeffs else {}
        )

    def coeff(self, w: int) -> LaurentPoly:
        return self._coeffs.get(w, ZERO)

    def items(self) -> list[tuple[int, LaurentPoly]]:
        """Coordinates sorted by (length, ShortLex) of the basis element."""
        return sorted(self._coeffs.items())

    def support(self) -> list[int]:
        return sorted(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        acc = dict(self._coeffs)
        for w, c in other._coeffs.items():
            acc[w] = acc.get(w, ZERO) + c
        return HeckeElt(self.table, acc)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        acc = dict(self._coeffs)
        for w, c in other._coeffs.items():
            acc[w] = acc.get(w, ZERO) - c
        return HeckeElt(self.table, acc)

    def scale(self, factor: LaurentPoly | int) -> "HeckeElt":
        return HeckeElt(self.table, {w: c * factor for w, c in self._coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self.table is other.table and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((id(self.table), frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        names = self.table.names
        terms = " + ".join(f"({c})H[{names[w]}]" for w, c in self.items()) or "0"
        return f"HeckeElt({terms})"


def unit(table: GroupTable) -> HeckeElt:
    return HeckeElt(table, {table.identity: ONE})


def std_basis(table: GroupTable, w: int) -> HeckeElt:
    """The standard basis element H_w."""
    return HeckeElt(table, {w: ONE})


def left_mul_std(s: int, h: HeckeElt) -> HeckeElt:
    """Left multiplication by the generator H_s, extended linearly.

    H_s H_x = H_sx when l(sx) > l(x), and H_sx + (v^-1 - v) H_x otherwise.
    """
    table = h.table
    length = table.length
    acc: dict[int, LaurentPoly] = {}
    quad = LaurentPoly({-1: 1, 1: -1})  # v^-1 - v
    for x, c in h._coeffs.items():
        sx = mult_gen(table, x, s, "left")
        acc[sx] = acc.get(sx, ZERO) + c
        if length[sx] < length[x]:
            acc[x] = acc.get(x, ZERO) + c * quad
    return HeckeElt(table, acc)


def left_mul_kl(s: int, h: HeckeElt) -> HeckeElt:
    """Left multiplication by the shifted generator C_s = H_s + v.

    C_s H_x = H_sx + v^{+-1} H_x, so each coefficient c of h is added into
    one ``{x: {exponent: coefficient}}`` dict at sx and, shifted by +-1, at
    x; each output ``LaurentPoly`` is built once.
    """
    table = h.table
    length = table.length
    acc: dict[int, dict[int, int]] = {}
    for x, c in h._coeffs.items():
        sx = mult_gen(table, x, s, "left")
        c.add_to(acc.setdefault(sx, {}))
        c.add_to(acc.setdefault(x, {}), 1 if length[sx] > length[x] else -1)
    return HeckeElt(table, {x: LaurentPoly(d) for x, d in acc.items()})


def product(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """The bilinear product, expanding left factors along reduced words."""
    if a.table is not b.table:
        raise ValueError("factors live over different group tables")
    total = HeckeElt(a.table)
    for w, c in a.items():
        acc = b
        for s in reversed(a.table.words[w]):
            acc = left_mul_std(s, acc)
        total = total + acc.scale(c)
    return total


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


def bar_involution(h: HeckeElt) -> HeckeElt:
    """The ring involution with v -> v^-1 and H_w -> (H_{w^-1})^-1.

    Every product of a barred coefficient with an inverse's coefficient is
    accumulated into one dict of dicts; each ``LaurentPoly`` is built once.
    """
    acc: dict[int, dict[int, int]] = {}
    for w, c in h._coeffs.items():
        inverse = _inverse_of_inverse_word(h.table, w)
        for e, k in c.items():
            for y, terms in inverse.items():
                d = acc.get(y)
                if d is None:
                    d = acc[y] = {}
                get = d.get
                for f, j in terms:
                    f -= e
                    d[f] = get(f, 0) + k * j
    return HeckeElt(h.table, {y: LaurentPoly(d) for y, d in acc.items()})


def bott_samelson_class(table: GroupTable, word: Word) -> HeckeElt:
    """The product C_{s_1} ... C_{s_k} for an arbitrary expression.

    This is the class of the word's chain of shifted generators in the
    standard basis; its coefficients are the graded cell characters.
    """
    acc = unit(table)
    for s in reversed(word):
        acc = left_mul_kl(s, acc)
    return acc

"""Kazhdan-Lusztig basis, KL polynomials, mu-coefficients, and change of basis.

Two independent computation paths are provided and cross-checked by the
verification suites:

  * :func:`compute_kl` runs the defining algorithm: the KL basis element of
    ``su`` is ``C_s * C_u`` (:func:`~klcat.hecke.left_mul_codes`) minus,
    for every z in the support of that product, the constant term of the
    H_z-coefficient times the KL basis element of z.  The result is the
    unique bar-invariant element whose lower coefficients lie in vZ[v].
    Each coordinate is one integer, its polynomial at v = 2^K, decoded
    once per distinct value; this module alone encodes and decodes such
    codes.  (``compute_kl_by_subtraction`` in the test oracles runs the
    same algorithm one whole element at a time.)

  * :func:`recursion_column` evaluates the normalized one-step recursion

        h_{x,w} = v^{+-1} h_{x,sw} + h_{sx,sw} - sum mu(z,sw) h_{x,z}

    (exponent +1 when l(sx) > l(x), -1 otherwise; the sum over z with
    sz < z < sw) for every x at once, using only table entries strictly
    below w; :func:`classical_recursion_column` does the same for the
    q-form, reading mu on the classical side.  Both decode the one
    :class:`RecursionColumns` of :func:`recursion_columns`, which sums
    the two columns of (w, s) in one pass over
    :func:`~klcat.coxeter.below_with_descent`, on the integer codes of
    the table's :class:`CodeView`, and compares each with C_w without
    decoding it.  The v-form recursion is also the classical proof that
    C_w is bar-invariant (Kazhdan-Lusztig 1979), so the ``kl`` suite
    decides its bar records from the v verdict and the C_y it reads, and
    its structure records too: the column of (su, s) is C_s * C_u
    rearranged.

Classical polynomials in q are related by h_{x,w}(v) = v^(l(w)-l(x)) P_{x,w}(v^-2),
and mu(z,w) is the linear coefficient of h_{z,w}; :meth:`KLTable.classical`
converts each (polynomial, l(w) - l(x)) pair once per table.  Hecke
elements are plain ``{id: LaurentPoly}`` dicts (see :mod:`klcat.hecke`).
The ``kl`` suite computes :meth:`KLTable.structure_constants` only where
no recursion column proves them.  Sums of many products
(:meth:`KLTable.expand_in_kl_basis` and its inverse
:meth:`KLTable.combine`, the word suites' one sum of KL basis elements)
read one-shot products, so they accumulate into one
``{x: {exponent: coefficient}}`` dict and build each polynomial once.

A table is cached and dumped as one canonical JSON document.
:func:`kl_to_json_text` writes it as text, encoding each element's word
and each interned polynomial once; :func:`kl_to_json_obj` is the same
document as an object.  A cache is never decoded: the table is computed
and the cache checked against it, accepted when it is byte-equal to the
text and otherwise by :func:`kl_from_json_obj`, which compares its
``json.loads`` object with the table's whatever its layout.
:func:`kl_to_csv` formats each polynomial once per length gap.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field

from .coxeter import (
    GroupTable,
    IncompleteTableError,
    below_with_descent,
    bruhat_interval,
    descents,
    mult_gen,
)
from .hecke import left_mul_codes, left_mul_kl
from .laurent import LaurentPoly, ONE, ZERO

TOOL_VERSION = "0.1.0"


class KLTable:
    """KL basis elements, stored by element id as full standard-basis expansions.

    ``kl_element(w)`` is the bar-invariant basis element of w, the stored
    ``{x: h_{x,w}}`` dict itself: ids ascending, no zero value, and never
    mutated after it is stored, so callers iterate it in order and must
    not change it.  Its support is exactly the Bruhat interval [e, w].
    A table holds few distinct polynomials, so every stored coefficient
    is the table's single instance of its value (as in du Cloux's
    Coxeter3): equal coefficients are the same object, and the exporters
    format each one once; ``_polys`` lists the interned values, each
    once.  The q-forms (:meth:`classical`) and the structure constants
    are memoized on the table, and so is one :class:`CodeView`
    (:meth:`codes`): every stored element, damaged or not, as one integer
    per coordinate at v = 2^K, with K = ``_code_width(M, N)`` for M the
    largest stored |coefficient| (at least 1) and N the number of stored
    elements, wide enough that a recursion column decodes exactly.
    """

    def __init__(self, table: GroupTable, complete_up_to: int):
        self.table = table
        self.complete_up_to = complete_up_to
        self._kl: dict[int, dict[int, LaurentPoly]] = {}
        self._polys: list[LaurentPoly] = []  # the interned values
        self._sc_memo: dict[tuple[int, int], dict[int, LaurentPoly]] = {}
        self._q_memo: dict[tuple[int, int], tuple[LaurentPoly, LaurentPoly | None]] = {}
        self._codes: CodeView | None = None

    def stored_elements(self) -> list[int]:
        length, bound = self.table.length, self.complete_up_to
        return [w for w in self.table.elements if length[w] <= bound]

    def kl_element(self, w: int) -> dict[int, LaurentPoly]:
        try:
            return self._kl[w]
        except KeyError:
            raise ValueError(f"KL data for {self.table.names[w]} not stored (bound {self.complete_up_to})")

    def kl_poly(self, x: int, w: int) -> LaurentPoly:
        """h_{x,w}: 1 when x = w, 0 when x is not below w."""
        if x == w:
            return ONE
        return self.kl_element(w).get(x, ZERO)

    def mu(self, z: int, w: int) -> int:
        """The linear coefficient of h_{z,w}."""
        return self.kl_poly(z, w).coefficient(1)

    def classical(self, x: int, w: int) -> LaurentPoly | None:
        """:func:`to_classical` of ``kl_poly(x, w)``, or None when it is not classical.

        Memoized by (id(h), l(w) - l(x)); each entry holds h, so no id is reused.
        """
        h = self.kl_poly(x, w)
        length = self.table.length
        key = (id(h), length[w] - length[x])
        entry = self._q_memo.get(key)
        if entry is None:
            try:
                p = to_classical(h, length[x], length[w])
            except ValueError:
                p = None
            entry = self._q_memo[key] = (h, p)
        return entry[1]

    def combine(self, coeffs) -> dict[int, dict[int, int]]:
        """sum a_y C_y over the ``(y, a_y)`` pairs, each stored C_y read as it is.

        The inverse of :meth:`expand_in_kl_basis`.  The sum is an ``{x:
        {exponent: coefficient}}`` dict the caller may add to before it
        builds its polynomials.
        """
        acc: dict[int, dict[int, int]] = {}
        for y, a in coeffs:
            terms = a.items()
            for x, h in self.kl_element(y).items():
                row = acc.setdefault(x, {})
                for e, k in terms:
                    h.add_to(row, e, k)
        return acc

    def expand_in_kl_basis(self, h: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
        """Coefficients a_y with h = sum a_y C_y, by back-substitution from the top.

        The remainder lives in one ``{x: {exponent: coefficient}}`` dict: the
        largest id y left with a nonzero coefficient a is taken, and a times
        the stored C_y is subtracted in place, until nothing is left.  That
        clears y only when the stored h_{y,y} is 1 and no stored coordinate
        above y feeds y back; otherwise ValueError names y, since the
        remainder at y would never vanish.
        """
        acc = {x: dict(c._coeffs) for x, c in h.items()}
        queued = set(acc)  # every id with a nonzero remainder is queued
        heap = [-x for x in queued]
        heapq.heapify(heap)
        out: dict[int, LaurentPoly] = {}
        while heap:
            y = -heapq.heappop(heap)
            queued.discard(y)
            d = acc[y]
            if not any(d.values()):
                continue
            a = LaurentPoly(d)
            if y in out:
                raise ValueError(f"cannot clear {self.table.names[y]}: a stored coordinate above it feeds it back")
            out[y] = a
            stored = self.kl_element(y)
            diagonal = stored.get(y, ZERO)
            if diagonal != ONE:
                name = self.table.names[y]
                raise ValueError(
                    f"stored h_{{{name},{name}}} is {diagonal.render()}, not 1: "
                    f"the expansion cannot clear {name}"
                )
            for x, c in stored.items():
                d = acc.setdefault(x, {})
                for e, k in a._coeffs.items():
                    c.add_to(d, e, -k)
                if x not in queued:
                    queued.add(x)
                    heapq.heappush(heap, -x)
        return dict(sorted(out.items()))

    def structure_constants(self, s: int, u: int) -> dict[int, LaurentPoly]:
        """Coefficients of C_s * C_u in the KL basis, memoized."""
        key = (s, u)
        cached = self._sc_memo.get(key)
        if cached is None:
            cached = self.expand_in_kl_basis(left_mul_kl(self.table, s, self.kl_element(u)))
            self._sc_memo[key] = cached
        return cached

    def codes(self) -> CodeView:
        """The table's :class:`CodeView`, built from the stored values at first use."""
        if self._codes is None:
            self._codes = CodeView(self)
        return self._codes


class CodeView:
    """Every stored C_y of a :class:`KLTable` as one integer per coordinate, for checks that compare sums.

    With M = max(1, largest |coefficient| stored), N the number of stored
    elements and K = ``_code_width(M, N)``, a coordinate of a recursion
    column is at most 2M(1 + N M) in absolute value, below 2^(K - 1), so
    its code at v = 2^K holds every coefficient as one balanced digit:
    two codes are equal exactly when their polynomials are, and each
    decodes with :func:`_digits`.  The view is built from
    the stored values, damaged or not.

    ``unit[y]`` is ``{x: code}`` for the stored C_y with h_{y,y} read as 1,
    as :meth:`KLTable.kl_poly` reads it: each h at v = 2^K times v^offset,
    offset = max(0, -least stored exponent), so no exponent is negative.
    ``classical[y]`` holds the q-forms of the same coordinates
    (:meth:`KLTable.classical`) at q = 2^K, None where h is not classical.
    ``unitriangular`` holds the y whose stored h_{y,y} is 1 with no stored
    id above y.  The view is a function of the stored values alone and is
    never changed after it is built.
    """

    def __init__(self, kl: KLTable):
        values = {id(h): h for elt in kl._kl.values() for h in elt.values()}
        self.top = max([1, *(abs(c) for h in values.values() for c in h._coeffs.values())])
        self.offset = -min([0, *(e for h in values.values() for e in h._coeffs)])
        self.shift = shift = _code_width(self.top, len(kl._kl))
        code = {i: _code(h, shift, self.offset) for i, h in values.items()}
        one = 1 << shift * self.offset
        q_code: dict[int, int] = {}  # id of a q-form (held by the table's memo) -> its code
        classical = kl.classical
        self.unit: dict[int, dict[int, int]] = {}
        self.classical: dict[int, dict[int, int | None]] = {}
        self.unitriangular: set[int] = set()
        for y, elt in kl._kl.items():
            unit = self.unit[y] = {x: code[id(h)] for x, h in elt.items()}
            unit[y] = one
            qs = self.classical[y] = {}
            for x in elt:
                p = classical(x, y)
                if p is not None:
                    n = q_code.get(id(p))
                    if n is None:
                        n = q_code[id(p)] = _code(p, shift)
                    p = n
                qs[x] = p
            qs[y] = 1
            if elt.get(y) == ONE and next(reversed(elt)) == y:
                self.unitriangular.add(y)


def compute_kl(table: GroupTable, up_to_length: int, descent_choice: str = "min") -> KLTable:
    """Fill a KL table for all elements of length <= ``up_to_length``.

    Iterates in increasing length; for each w picks a left descent s
    (smallest generator index by default; the result is independent of the
    choice, which ``descent_choice='max'`` lets tests confirm), forms
    C_s * (KL element of sw), and subtracts the constant term of each lower
    coefficient times the corresponding lower KL element.  The constant
    terms are all read from the product before anything is subtracted.

    Every coordinate is one integer, its polynomial evaluated at
    v = B = 2^K (the Kronecker substitution): each interned
    h has its code h(B), memoized by id, and w is accumulated as ``{x:
    int}`` scaled by v.  C_s * C_sw is :func:`~klcat.hecke.left_mul_codes`
    of the stored C_sw; g0 is the balanced digit of v^0, and each g0 * C_z
    is subtracted as ``(g0 * n) << K`` in place.  Each final code is
    decoded once, as balanced base-B digits, through a ``{code: interned
    h}`` memo, so a ``LaurentPoly`` is built only for a value the table has
    not seen.  With M the largest |coefficient| stored so far and N the
    number of elements stored in all, each product coefficient (so each g0)
    is at most 2M and at most N elements z are subtracted, so every
    coefficient of w is at most 2M(1 + N M) in absolute value;
    K = bitlength(2M(1 + N M)) + 1 keeps every digit below 2^(K - 1).  When
    a new value raises M past that bound, K grows and both memos are
    rebuilt from the interned values.
    """
    if up_to_length < 0:
        raise ValueError("up_to_length must be nonnegative")
    if table.partial and up_to_length > table.complete_length:
        raise IncompleteTableError(
            f"table is only complete through length {table.complete_length}"
        )
    if descent_choice not in ("min", "max"):
        raise ValueError("descent_choice must be 'min' or 'max'")
    bound = min(up_to_length, table.complete_length)
    kl = KLTable(table, bound)
    stored, polys, elements = kl._kl, kl._polys, kl.stored_elements()
    pick = 0 if descent_choice == "min" else -1
    top = 1  # M, the largest |coefficient| stored so far
    count = len(elements)
    shift = _code_width(top, count)
    codes: dict[int, int] = {}  # id of an interned h -> h(B); each h is kept by polys, so no id is reused
    decoded: dict[int, LaurentPoly] = {}  # v h(B) -> the interned h
    for w in elements:
        if w == table.identity:
            acc = {w: 1 << shift}  # C_e = H_e
        else:
            s = descents(table, w, "left")[pick]
            sw = stored[mult_gen(table, w, s, "left")]
            acc = left_mul_codes(table, s, [(x, codes[id(h)]) for x, h in sw.items()], shift)
            # no term has a negative exponent, so the digit of v^-1 is 0 and v^0's is read unborrowed
            low, half, base = (1 << 2 * shift) - 1, 1 << shift - 1, 1 << shift
            lower = [(z, d) for z, n in acc.items() if z != w and (d := (n & low) >> shift)]
            for z, d in lower:
                g = (d - base if d >= half else d) << shift
                for x, h in stored[z].items():
                    acc[x] -= g * codes[id(h)]  # [e, z] lies in [e, w], the product's support
        elt = stored[w] = {}
        for x in sorted(acc):
            n = acc[x]
            if n:
                h = decoded.get(n)
                if h is None:
                    h = decoded[n] = _digits(n, shift, 1)
                    polys.append(h)
                    codes[id(h)] = n >> shift
                    top = max(top, *map(abs, h._coeffs.values()))
                elt[x] = h
        if (width := _code_width(top, count)) != shift:
            shift = width
            codes = {id(h): _code(h, shift) for h in polys}
            decoded = {codes[id(h)] << shift: h for h in polys}
    return kl


def _code_width(top: int, count: int) -> int:
    """K for :func:`compute_kl`: every coefficient of a new element stays below 2^(K-1)."""
    return (2 * top * (1 + count * top)).bit_length() + 1


def _code(h: LaurentPoly, shift: int, offset: int = 0) -> int:
    """v^offset h evaluated at v = 2^shift, for an h with no exponent below -offset."""
    return sum(c << shift * (e + offset) for e, c in h._coeffs.items())


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


def to_classical(h: LaurentPoly, lx: int, lw: int) -> LaurentPoly:
    """Rewrite h_{x,w}(v) as the classical polynomial P_{x,w}(q).

    Every exponent of h must have the parity of ``lw - lx`` and not exceed
    it; a violation signals a corrupted table upstream.
    """
    gap = lw - lx
    out: dict[int, int] = {}
    for e, c in h.items():
        if (gap - e) % 2 != 0:
            raise ValueError(f"exponent {e} breaks the parity of l(w)-l(x) = {gap}")
        j = (gap - e) // 2
        if j < 0:
            raise ValueError(f"exponent {e} exceeds l(w)-l(x) = {gap}")
        out[j] = c
    return LaurentPoly(out)


def recursion_column(kl: KLTable, w: int, s: int) -> dict[int, LaurentPoly]:
    """h_{x,w} for every x by the one-step recursion, never touching the stored element of w.

    The column is the standard-basis expansion of

        C_s C_{sw} - sum_{sz < z < sw} mu(z,sw) C_z,

    so its H_x-coefficient is v^{+-1} h_{x,sw} + h_{sx,sw} - sum mu(z,sw) h_{x,z}
    (exponent +1 when l(sx) > l(x) or sx lies beyond a truncated table,
    -1 otherwise).  z runs over the Bruhat interval [e, sw], not over the
    stored support of C_sw, and every h_{y,y} is read as 1, so a damaged
    table gives exactly the per-x values.  Requires s to be a left
    descent of w; x absent from the result has h_{x,w} = 0 by the
    recursion.  The column is :meth:`RecursionColumns.column` of
    :func:`recursion_columns`.
    """
    return recursion_columns(kl, w, s).column()


def classical_recursion_column(kl: KLTable, w: int, s: int) -> dict[int, LaurentPoly | None]:
    """P_{x,w} for every x in [e, w] by the classical q-form recursion.

    P is 1 when x = w (and 0 when x is not below w, which the result
    leaves out); otherwise, with c = 0 when l(sx) > l(x) and c = 1 when
    l(sx) < l(x),

        P_{x,w} = q^(1-c) P_{sx,sw} + q^c P_{x,sw}
                  - sum_{sz < z < sw} mu(z,sw) q^((l(w)-l(z))/2) P_{x,z},

    where mu(z,sw) reads the coefficient of q^((l(sw)-l(z)-1)/2) on the
    classical side (never the v-side linear coefficient or ``kl.mu``).
    These exponents are forced by substituting q = v^-2 into the v-form
    recursion; getting either sign backwards breaks the identity with
    :func:`to_classical`.  Each P is :meth:`KLTable.classical`.  An x
    whose ingredients include a stored h_{y,z} that is not classical
    (wrong parity, or an exponent above l(z) - l(y)) maps to None, as
    does every x below w when a mu ingredient is one.  The column is
    :meth:`RecursionColumns.classical_column` of :func:`recursion_columns`.
    """
    return recursion_columns(kl, w, s).classical_column()


@dataclass
class RecursionColumns:
    """Both recursion columns of one (w, s) on the codes of :meth:`KLTable.codes`, and their verdicts.

    ``v`` is v times the v-form column on the ``unit`` codes and ``q`` the
    q-form column on the ``classical`` codes; ``undefined`` holds the x
    whose q ingredients include a None, or is None for every x when a mu
    ingredient is one.  Only the coordinates of ``q`` in [e, w] are the
    column's.  ``v_holds`` is True exactly when ``v`` equals the stored
    C_w, h_{w,w} read as 1, and ``q_holds`` when ``q`` equals its q-forms
    with every ingredient defined.  Each is compared over all the column's
    coordinates, not only the stored x or [e, w], so False may also mean
    that every x still agrees; a caller then compares the decoded columns
    x by x.  ``reads`` lists the stored C_y the v-column reads: sw and
    each z of the correction sum with mu(z, sw) != 0.
    """

    kl: KLTable = field(repr=False)
    w: int
    v_holds: bool
    q_holds: bool
    reads: list[int]
    v: dict[int, int]
    q: dict[int, int]
    undefined: set[int] | None

    def column(self) -> dict[int, LaurentPoly]:
        """The v-form column decoded: :func:`recursion_column`."""
        view = self.kl.codes()
        return {x: _digits(n, view.shift, view.offset + 1) for x, n in self.v.items() if n}

    def classical_column(self) -> dict[int, LaurentPoly | None]:
        """The q-form column decoded over [e, w]: :func:`classical_recursion_column`."""
        shift, undefined = self.kl.codes().shift, self.undefined
        out: dict[int, LaurentPoly | None] = {}
        for x in bruhat_interval(self.kl.table, self.w):
            if x == self.w:
                out[x] = ONE
            elif undefined is None or x in undefined:
                out[x] = None
            else:
                out[x] = _digits(self.q.get(x, 0), shift, 0)
        return out


def recursion_columns(kl: KLTable, w: int, s: int) -> RecursionColumns:
    """Both recursion columns of (w, s) summed once, in one pass over {z : sz < z < sw}, and compared with C_w.

    The v-column is :func:`~klcat.hecke.left_mul_codes` of the codes of
    C_sw, h_{sw,sw} read as 1 and an sy beyond a truncated table read as
    longer, minus ``(mu << K) * code`` over the codes of each C_z with
    mu(z, sw) != 0.  The q-column is the same sum on the q-forms: C_s's
    step adds a code at y and at sy, times q when sy is shorter, and each
    C_z is subtracted with the classical mu.  Requires s to be a left
    descent of w.

    The v-form recursion is also the classical proof that C_w is
    bar-invariant (Kazhdan-Lusztig 1979): when ``v_holds`` and every C_y
    of ``reads`` is unitriangular and bar-invariant, so is C_w, as C_s
    and the integers mu are.  The column is then the true Hecke product,
    since no sy of a unitriangular C_sw or C_z leaves the table, and the
    view's K makes equal codes equal polynomials.
    """
    table = kl.table
    if s not in descents(table, w, "left"):
        raise ValueError(f"s{s + 1} is not a left descent of {table.names[w]}")
    sw = mult_gen(table, w, s, "left")
    length, left = table.length, table._left
    view = kl.codes()
    unit, classical, shift = view.unit, view.classical, view.shift
    v = left_mul_codes(table, s, unit[sw].items(), shift)
    q: dict[int, int] = {}
    vget, qget = v.get, q.get
    undefined: set[int] | None = set()
    for y, n in classical[sw].items():
        sy = left[y][s]
        if n is None:
            undefined.update((y,) if sy is None else (y, sy))
        elif sy is not None:  # an sy beyond the table puts y beyond [e, w]
            if length[sy] < length[y]:
                n <<= shift
            q[y] = qget(y, 0) + n
            q[sy] = qget(sy, 0) + n
    upper, reads = kl.kl_element(sw), [sw]
    for z in below_with_descent(table, s, sw):
        m = upper.get(z, ZERO).coefficient(1)  # mu(z, sw) on the v side
        if m:
            reads.append(z)
            g = m << shift
            for x, n in unit[z].items():
                v[x] = vget(x, 0) - g * n
        exp = length[sw] - length[z] - 1
        if undefined is None or exp % 2 != 0:
            continue
        pz = kl.classical(z, sw)
        if pz is None:
            undefined = None
            continue
        m = pz.coefficient(exp // 2)  # mu(z, sw) on the classical side
        if m:
            k = shift * ((length[w] - length[z]) // 2)
            for x, n in classical[z].items():
                if n is None:
                    undefined.add(x)
                else:
                    q[x] = qget(x, 0) - (m * n << k)
    v_holds = {x: n for x, n in v.items() if n} == {x: n << shift for x, n in unit[w].items()}
    q_holds = undefined == set() and {x: n for x, n in q.items() if n} == classical[w]
    return RecursionColumns(kl, w, v_holds, q_holds, reads, v, q, undefined)


# -- export and cache ------------------------------------------------------


_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True).encode


def canonical_json(obj) -> str:
    """Compact deterministic JSON (callers fix key order), newline-terminated."""
    return _encode(obj) + "\n"


def matrix_content_hash(matrix, up_to_length: int) -> str:
    payload = {"m": [list(r) for r in matrix.orders], "rank": matrix.rank, "up_to": up_to_length}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _cache_header(matrix, up_to_length: int) -> dict:
    return {
        "matrix_hash": matrix_content_hash(matrix, up_to_length),
        "rank": matrix.rank,
        "up_to_length": up_to_length,
        "tool_version": TOOL_VERSION,
    }


def kl_to_json_obj(kl: KLTable) -> dict:
    """The cache document of ``kl`` as an object: what :func:`kl_from_json_obj`
    compares a cache with, and the reference :func:`kl_to_json_text` is tested against."""
    words = [list(word) for word in kl.table.words]
    polys: dict[int, dict[str, int]] = {}  # id of an interned coefficient -> its JSON object
    body = []
    for w in kl.stored_elements():
        coeffs = []
        for x, c in kl.kl_element(w).items():
            obj = polys.get(id(c))
            if obj is None:
                obj = polys[id(c)] = c.to_json_obj()
            coeffs.append([words[x], obj])
        body.append([words[w], coeffs])
    return {
        "header": _cache_header(kl.table.matrix, kl.complete_up_to),
        "body": {"complete_up_to": kl.complete_up_to, "kl": body},
    }


def kl_to_json_text(kl: KLTable) -> str:
    """``canonical_json(kl_to_json_obj(kl))``, the cache document, written as text.

    Each element's word opens a pair as ``[word,`` and each interned
    polynomial's JSON text closes one with ``]``; both are made once, so an
    (x, w) pair costs one concatenation.  The header goes through
    :func:`canonical_json`'s encoder.
    """
    opening = ["[[" + ",".join(map(str, word)) + "]," for word in kl.table.words]
    polys: dict[int, str] = {}  # id of an interned coefficient -> its JSON text + "]"
    entries = []
    for w in kl.stored_elements():
        pairs = []
        for x, c in kl.kl_element(w).items():
            tail = polys.get(id(c))
            if tail is None:
                tail = polys[id(c)] = _encode(c.to_json_obj()) + "]"
            pairs.append(opening[x] + tail)
        entries.append(opening[w] + "[" + ",".join(pairs) + "]]")
    header = _encode(_cache_header(kl.table.matrix, kl.complete_up_to))
    return (
        f'{{"header":{header},"body":{{"complete_up_to":{kl.complete_up_to},'
        f'"kl":[{",".join(entries)}]}}}}\n'
    )


class CacheMismatchError(Exception):
    """A cache file exists but does not match the request or the computed table."""


def kl_from_json_obj(kl: KLTable, obj) -> None:
    """Check a cache document read by ``json.loads`` against ``kl``.

    The header must be the one this table writes (:func:`validate_cache_header`)
    and the body must hold the entries of :func:`kl_to_json_obj`'s body, in
    any order of entries, of pairs within an entry and of keys; other keys
    are ignored.  Values are compared as canonical JSON text, so ``[1.0]``,
    ``true`` and ``" +1 "`` match no ``[1]``, ``1`` or ``"1"``.  Any
    difference raises :class:`CacheMismatchError`.
    """
    if not isinstance(obj, dict):
        raise CacheMismatchError("cache is not a JSON object")
    validate_cache_header(obj.get("header", {}), kl.table.matrix, kl.complete_up_to)
    body = obj.get("body")
    if not isinstance(body, dict) or not isinstance(body.get("kl"), list):
        raise CacheMismatchError('cache body is not {"complete_up_to": n, "kl": [...]}')
    if type(body.get("complete_up_to")) is not int or body["complete_up_to"] != kl.complete_up_to:
        raise CacheMismatchError(
            f"cache body complete_up_to is {body.get('complete_up_to')!r}, expected {kl.complete_up_to!r}"
        )
    want = set(_entry_texts(kl_to_json_obj(kl)["body"]["kl"]))
    got = _entry_texts(body["kl"])
    for text in got:
        if text not in want:
            raise CacheMismatchError(f"cache entry {text:.80} differs from the computed table")
    if len(got) != len(want) or len(set(got)) != len(got):
        raise CacheMismatchError(f"cache body holds {len(got)} entries, not the table's {len(want)} once each")


_encode_sorted = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True, sort_keys=True).encode


def _entry_texts(entries: list) -> list[str]:
    """Each entry of a body as canonical JSON text, with keys and the entry's pairs sorted."""
    texts = []
    for entry in entries:
        if type(entry) is list and len(entry) == 2 and type(entry[1]) is list:
            word, pairs = entry
            texts.append(f"[{_encode_sorted(word)},[{','.join(sorted(map(_encode_sorted, pairs)))}]]")
        else:
            texts.append(_encode_sorted(entry))
    return texts


def validate_cache_header(header: dict, matrix, up_to_length: int) -> None:
    if not isinstance(header, dict):
        raise CacheMismatchError("cache header is not a JSON object")
    for key, want in _cache_header(matrix, up_to_length).items():
        got = header.get(key)
        if type(got) is not type(want) or got != want:  # so 3.0 and true are not 3 and 1
            raise CacheMismatchError(f"cache {key} is {got!r}, expected {want!r}")


def kl_to_csv(kl: KLTable) -> str:
    """Rows (x, w, h_{x,w}, P_{x,w}, mu) for all x <= w, length-then-ShortLex order.

    The rows of w walk the support of C_w, which is exactly [e, w] (the
    ``kl_support`` record of ``verify`` checks this).  The ``h,P,mu`` cell depends only on h and l(w) - l(x), so
    it is formatted once per interned polynomial and length gap, P read
    from :meth:`KLTable.classical` and mu from :meth:`KLTable.mu`.
    """
    length, names = kl.table.length, kl.table.names
    cells: dict[tuple[int, int], str] = {}  # (id of h, l(w) - l(x)) -> "h,P,mu"
    lines = ["x,w,h,P,mu"]
    for w in kl.stored_elements():
        lw, tail = length[w], f",{names[w]},"
        for x, h in kl.kl_element(w).items():
            key = (id(h), lw - length[x])
            cell = cells.get(key)
            if cell is None:
                # never None: compute_kl stores only classical h
                p = kl.classical(x, w)
                cell = cells[key] = f"{h.render('v')},{p.render('q')},{kl.mu(x, w)}"
            lines.append(names[x] + tail + cell)
    return "\n".join(lines) + "\n"


__all__ = [
    "KLTable",
    "compute_kl",
    "to_classical",
    "recursion_column",
    "classical_recursion_column",
    "recursion_columns",
    "RecursionColumns",
    "canonical_json",
    "matrix_content_hash",
    "kl_to_json_obj",
    "kl_to_json_text",
    "kl_from_json_obj",
    "kl_to_csv",
    "validate_cache_header",
    "CacheMismatchError",
    "TOOL_VERSION",
]

"""Kazhdan-Lusztig basis, KL polynomials, mu-coefficients, and change of basis.

Two independent computation paths are provided and cross-checked by the
verification suites:

  * :func:`compute_kl` runs the defining algorithm: the KL basis element of
    ``su`` is ``C_s * C_u`` (:func:`~klcat.hecke.left_mul_codes`) minus,
    for every z in the support of that product, the constant term of the
    H_z-coefficient times the KL basis element of z.  The result is the
    unique bar-invariant element whose lower coefficients lie in vZ[v].
    Each coordinate is one integer, its polynomial at v = 2^K, decoded
    once per distinct value.  (``compute_kl_by_subtraction`` in the test
    oracles runs the same algorithm one whole element at a time.)

  * :func:`recursion_column` evaluates the normalized one-step recursion

        h_{x,w} = v^{+-1} h_{x,sw} + h_{sx,sw} - sum mu(z,sw) h_{x,z}

    (exponent +1 when l(sx) > l(x), -1 otherwise; the sum over z with
    sz < z < sw) for every x at once, using only table entries strictly
    below w; :func:`classical_recursion_column` does the same for the
    q-form, reading mu on the classical side.  Both sum over
    :func:`~klcat.coxeter.below_with_descent`.

Classical polynomials in q are related by h_{x,w}(v) = v^(l(w)-l(x)) P_{x,w}(v^-2),
and mu(z,w) is the linear coefficient of h_{z,w}; :meth:`KLTable.classical`
converts each (polynomial, l(w) - l(x)) pair once per table.  Hecke
elements are plain ``{id: LaurentPoly}`` dicts (see :mod:`klcat.hecke`).
The other sums of many products (the recursions,
:meth:`KLTable.expand_in_kl_basis` and its inverse :meth:`KLTable.combine`,
the word suites' one sum of KL basis elements) read damaged tables or
one-shot products, so they accumulate into one ``{x: {exponent:
coefficient}}`` dict and build each polynomial once.

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

from .coxeter import (
    GroupTable,
    IncompleteTableError,
    below_with_descent,
    bruhat_interval,
    descents,
    mult_gen,
)
from .hecke import _digits, _to_vector, left_mul_codes, left_mul_kl
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
    are memoized on the table.
    """

    def __init__(self, table: GroupTable, complete_up_to: int):
        self.table = table
        self.complete_up_to = complete_up_to
        self._kl: dict[int, dict[int, LaurentPoly]] = {}
        self._polys: list[LaurentPoly] = []  # the interned values
        self._sc_memo: dict[tuple[int, int], dict[int, LaurentPoly]] = {}
        self._q_memo: dict[tuple[int, int], tuple[LaurentPoly, LaurentPoly | None]] = {}

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


def compute_kl(table: GroupTable, up_to_length: int, descent_choice: str = "min") -> KLTable:
    """Fill a KL table for all elements of length <= ``up_to_length``.

    Iterates in increasing length; for each w picks a left descent s
    (smallest generator index by default; the result is independent of the
    choice, which ``descent_choice='max'`` lets tests confirm), forms
    C_s * (KL element of sw), and subtracts the constant term of each lower
    coefficient times the corresponding lower KL element.  The constant
    terms are all read from the product before anything is subtracted.

    Every coordinate is one integer, its polynomial evaluated at
    v = B = 2^K (the Kronecker substitution, as in the bar): each interned
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


def _code(h: LaurentPoly, shift: int) -> int:
    """h evaluated at v = 2^shift, for an h with no negative exponent."""
    return sum(c << shift * e for e, c in h._coeffs.items())


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
    recursion.
    """
    table = kl.table
    length = table.length
    sw = _descent_neighbour(table, w, s)
    acc: dict[int, dict[int, int]] = {}
    # not left_mul_terms: h_{y,y} reads as 1, and an sy beyond a truncated table counts as longer
    for y, h in _with_unit_diagonal(kl, sw):
        try:
            sy = mult_gen(table, y, s, "left")
        except IncompleteTableError:
            # sy beyond a truncated table is longer than y
            h.add_to(acc.setdefault(y, {}), 1)
            continue
        h.add_to(acc.setdefault(sy, {}))
        h.add_to(acc.setdefault(y, {}), 1 if length[sy] > length[y] else -1)
    for z in below_with_descent(table, s, sw):
        m = kl.mu(z, sw)
        if m:
            for x, h in _with_unit_diagonal(kl, z):
                h.add_to(acc.setdefault(x, {}), 0, -m)
    return _to_vector(acc)


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
    :func:`to_classical`.  The (z, mu, shift) list depends only on (w, s)
    and is built once; each P is :meth:`KLTable.classical`.  An x whose
    ingredients include a stored h_{y,z} that is not classical (wrong
    parity, or an exponent above l(z) - l(y)) maps to None, as does every
    x below w when a mu ingredient is one.
    """
    table = kl.table
    length = table.length
    sw = _descent_neighbour(table, w, s)
    p = kl.classical
    terms: list[tuple[int, int, int]] | None = []
    for z in below_with_descent(table, s, sw):
        exp = length[sw] - length[z] - 1
        if exp % 2 != 0:
            continue
        pz = p(z, sw)
        if pz is None:
            terms = None
            break
        m = pz.coefficient(exp // 2)
        if m:
            terms.append((z, m, (length[w] - length[z]) // 2))
    column: dict[int, LaurentPoly | None] = {}
    for x in bruhat_interval(table, w):
        if x == w:
            column[x] = ONE
            continue
        column[x] = None
        if terms is None:
            continue
        sx = mult_gen(table, x, s, "left")  # x < w keeps sx within any stored bound
        c = 0 if length[sx] > length[x] else 1
        parts = [(p(sx, sw), 1 - c, 1), (p(x, sw), c, 1)]
        parts += [(p(x, z), k, -m) for z, m, k in terms]
        if all(q is not None for q, _, _ in parts):
            acc: dict[int, int] = {}
            for q, k, m in parts:
                q.add_to(acc, k, m)
            column[x] = LaurentPoly(acc)
    return column


def _descent_neighbour(table: GroupTable, w: int, s: int) -> int:
    """sw, for s a left descent of w."""
    if s not in descents(table, w, "left"):
        raise ValueError(f"s{s + 1} is not a left descent of {table.names[w]}")
    return mult_gen(table, w, s, "left")


def _with_unit_diagonal(kl: KLTable, z: int):
    """The (x, h_{x,z}) pairs of the stored C_z, with h_{z,z} read as 1 as ``kl_poly`` does."""
    yield z, ONE
    for x, h in kl.kl_element(z).items():
        if x != z:
            yield x, h


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

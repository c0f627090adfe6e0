"""Independent oracles the tests check production code against.

Nothing here calls into the code paths being verified: group tables come
from saturating braid moves on words (Tits' solution to the word problem),
the symmetric-group model uses one-line permutation arithmetic, Bruhat
comparison uses the subword characterization over brute-force word
enumeration, the dihedral KL oracle checks the defining
bar-invariance conditions directly, the KL CSV oracle walks Bruhat
intervals by pairwise comparison instead of the stored supports, the KL
table is built by subtracting whole Hecke elements, and the KL
recursions, bar involution and KL-basis expansion are evaluated one
entry at a time instead of accumulated a column at a time.  Hecke
elements are plain ``{id: LaurentPoly}`` dicts with no zero value, as in
production; the standard-basis generator action and the generic product
below are the only ones anywhere.
"""

from __future__ import annotations

import itertools
import weakref
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from klcat.coxeter import INFINITE
from klcat.laurent import LaurentPoly, ONE, ZERO

# -- braid-move saturation (independent oracle for coxeter.build_group) -------


def _adjacent_duplicate(word: tuple[int, ...]) -> int:
    """Index of the first adjacent equal pair, or -1."""
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            return i
    return -1


def _braid_neighbors(matrix, word: tuple[int, ...]):
    """Words reachable from ``word`` by one braid move."""
    n = len(word)
    orders = matrix.orders
    for i in range(n - 1):
        a, b = word[i], word[i + 1]
        if a == b:
            continue
        m = orders[a][b]
        if m == INFINITE or i + m > n:
            continue
        if all(word[i + j] == (a if j % 2 == 0 else b) for j in range(m)):
            flipped = tuple(b if j % 2 == 0 else a for j in range(m))
            yield word[:i] + flipped + word[i + m:]


def braid_closure(matrix, word: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """All words reachable from ``word`` by braid moves (including itself)."""
    seen = {word}
    queue = deque([word])
    while queue:
        for nb in _braid_neighbors(matrix, queue.popleft()):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return frozenset(seen)


def normal_form(matrix, word: tuple[int, ...], memo: Optional[dict] = None) -> tuple[bool, tuple[int, ...]]:
    """``(is_reduced, canonical_word)`` of the element that ``word`` spells.

    The canonical word is the ShortLex-minimal reduced word.  A word is
    reduced exactly when no braid-equivalent word carries an adjacent
    repeated letter (Tits); otherwise such a pair is deleted and
    normalization recurses on the shorter word.  Exponential in the
    length, so only for small groups.
    """
    if memo is None:
        memo = {}
    cached = memo.get(word)
    if cached is not None:
        return cached
    seen = {word}
    queue = deque([word])
    dup_word, dup_at = None, -1
    while queue:
        w = queue.popleft()
        at = _adjacent_duplicate(w)
        if at >= 0:
            dup_word, dup_at = w, at
            break
        for nb in _braid_neighbors(matrix, w):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if dup_word is not None:
        _, canonical = normal_form(matrix, dup_word[:dup_at] + dup_word[dup_at + 2:], memo)
        result = (False, canonical)
    else:
        result = (True, min(seen))
    for w in seen:
        memo[w] = result
    return result


def braid_saturation_tables(matrix, cap: int):
    """``(words, right, left, partial)`` of the group, by normal forms of words.

    A breadth-first search by length from the identity interns the
    canonical word of every reduced ``w + (s,)``.  A level that would take
    the table past ``cap`` elements is dropped and the table is partial;
    products outside the table are ``None``.
    """
    memo: dict = {}
    rank = matrix.rank
    words = [()]
    index = {(): 0}
    frontier = [()]
    partial = False
    while True:
        candidates = set()
        for w in frontier:
            for s in range(rank):
                reduced, canonical = normal_form(matrix, w + (s,), memo)
                if reduced and canonical not in index:
                    candidates.add(canonical)
        if not candidates:
            break
        if len(words) + len(candidates) > cap:
            partial = True
            break
        frontier = sorted(candidates)
        for w in frontier:
            index[w] = len(words)
            words.append(w)

    def resolve(word):
        return index.get(normal_form(matrix, word, memo)[1])

    right = [[resolve(w + (s,)) for s in range(rank)] for w in words]
    left = [[resolve((s,) + w) for s in range(rank)] for w in words]
    return words, right, left, partial


# -- symmetric group model (type A backend) ---------------------------------


def perm_right_mult(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    """p * s_i: swap positions i, i+1."""
    q = list(p)
    q[i], q[i + 1] = q[i + 1], q[i]
    return tuple(q)


def perm_left_mult(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s_i * p: swap the values i, i+1."""
    return tuple(i + 1 if a == i else (i if a == i + 1 else a) for a in p)


def perm_length(p: tuple[int, ...]) -> int:
    n = len(p)
    return sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])


def perm_canonical_word(p: tuple[int, ...]) -> tuple[int, ...]:
    """ShortLex-minimal reduced word: greedily peel the smallest left descent."""
    word = []
    length = perm_length(p)
    while length:
        for i in range(len(p) - 1):
            q = perm_left_mult(p, i)
            if perm_length(q) < length:
                word.append(i)
                p, length = q, length - 1
                break
    return tuple(word)


class SymmetricGroupModel:
    """All of S_n with lengths, canonical words, and generator multiplication."""

    def __init__(self, n: int):
        self.n = n
        self.perms = list(itertools.permutations(range(n)))
        self.canonical = {p: perm_canonical_word(p) for p in self.perms}
        self.words = {w: p for p, w in self.canonical.items()}

    def evaluate(self, word: tuple[int, ...]) -> tuple[int, ...]:
        p = tuple(range(self.n))
        for i in word:
            p = perm_right_mult(p, i)
        return p


# -- Bruhat subword oracle ----------------------------------------------------


def is_subsequence(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    it = iter(big)
    return all(letter in it for letter in small)


def brute_force_reduced_words(table, x) -> list[tuple[int, ...]]:
    """All length-l(x) words over the generators whose product is x."""
    from klcat.coxeter import evaluate_word

    return [
        word
        for word in itertools.product(range(table.rank), repeat=table.length[x])
        if evaluate_word(table, word) == x
    ]


def bruhat_leq_subword_oracle(table, x, w) -> bool:
    """x <= w iff some reduced word of x is a subword of the fixed canonical word of w."""
    return any(is_subsequence(r, table.words[w]) for r in brute_force_reduced_words(table, x))


# -- standard-basis Hecke arithmetic (oracle) ---------------------------------
# Whole-element sums, scalings, H_s-multiplication and products of
# ``{id: LaurentPoly}`` dicts, one LaurentPoly operation per coordinate; the
# whole-element oracles below are written in them.  Production code never
# forms the generic product: it only needs C_s-multiplication and the bar
# involution, accumulated in place.


def add(a, b):
    """a + b, cancelled coordinates dropped."""
    acc = dict(a)
    for w, c in b.items():
        acc[w] = acc.get(w, ZERO) + c
    return {w: c for w, c in acc.items() if c}


def scale(h, factor):
    """factor * h for a LaurentPoly or int factor, zero coordinates dropped."""
    return {w: p for w, c in h.items() if (p := c * factor)}


def left_mul_std(table, s, h):
    """Left multiplication by the generator H_s, extended linearly.

    H_s H_x = H_sx when l(sx) > l(x), and H_sx + (v^-1 - v) H_x otherwise.
    """
    from klcat.coxeter import mult_gen

    length = table.length
    quad = LaurentPoly({-1: 1, 1: -1})  # v^-1 - v
    acc = {}
    for x, c in h.items():
        sx = mult_gen(table, x, s, "left")
        acc[sx] = acc.get(sx, ZERO) + c
        if length[sx] < length[x]:
            acc[x] = acc.get(x, ZERO) + c * quad
    return {x: c for x, c in acc.items() if c}


def product(table, a, b):
    """The bilinear product, expanding left factors along reduced words."""
    total = {}
    for w, c in a.items():
        acc = b
        for s in reversed(table.words[w]):
            acc = left_mul_std(table, s, acc)
        total = add(total, scale(acc, c))
    return total


# -- dihedral KL oracle --------------------------------------------------------


def dihedral_kl_candidate(table, w):
    """The closed-form candidate: sum of v^(l(w)-l(x)) H_x over l(x) < l(w), plus H_w.

    In a dihedral group every shorter element is Bruhat-below every longer
    one, so no order computation is needed here.
    """
    coeffs = {
        x: LaurentPoly({table.length[w] - table.length[x]: 1})
        for x in table.elements
        if table.length[x] < table.length[w]
    }
    coeffs[w] = LaurentPoly({0: 1})
    return coeffs


def satisfies_kl_conditions(table, w, candidate) -> bool:
    """The defining conditions: bar-invariant, top coefficient 1, rest in vZ[v]."""
    from klcat.hecke import bar_involution

    if bar_involution(table, candidate) != candidate:
        return False
    if candidate.get(w) != LaurentPoly({0: 1}):
        return False
    return all(c.in_positive_part() for x, c in candidate.items() if x != w)


# -- interval-driven KL CSV (independent oracle for kl.kl_to_csv) -------------


def interval_kl_csv(kl) -> str:
    """The KL CSV dump, row by row: each x with ``bruhat_leq(x, w)``, looked up and formatted.

    This is the writer ``kl_to_csv`` replaced.  It finds [e, w] by
    comparing every id up to w, and reads h_{x,w} and mu one row at a
    time, so it trusts neither the stored supports nor the interning.
    """
    from klcat.coxeter import bruhat_leq
    from klcat.kl import to_classical

    table = kl.table
    length, names = table.length, table.names
    lines = ["x,w,h,P,mu"]
    for w in kl.stored_elements():
        for x in range(w + 1):
            if not bruhat_leq(table, x, w):
                continue
            h = kl.kl_poly(x, w)
            p = to_classical(h, length[x], length[w])
            lines.append(f"{names[x]},{names[w]},{h.render('v')},{p.render('q')},{kl.mu(x, w)}")
    return "\n".join(lines) + "\n"


# -- the group ladder the fast paths are checked on ----------------------------

# name -> (Coxeter matrix rows, element cap); the last two are length-truncated
LADDER = {
    "A3": ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], 1000),
    "B3": ([[1, 3, 2], [3, 1, 4], [2, 4, 1]], 1000),
    "H3": ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], 1000),
    "D4": ([[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]], 1000),
    "A4": ([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]], 1000),
    "B4": ([[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 4], [2, 2, 4, 1]], 1000),
    "I2(7)": ([[1, 7], [7, 1]], 1000),
    "affineA2": ([[1, 3, 3], [3, 1, 3], [3, 3, 1]], 300),
    "triangle4-0-3": ([[1, 4, 0], [4, 1, 3], [0, 3, 1]], 300),
}


def generator_products(kl):
    """C_s * C_u for every generator s and stored u with su stored too."""
    from klcat.coxeter import IncompleteTableError, mult_gen
    from klcat.hecke import left_mul_kl

    table = kl.table
    for u in kl.stored_elements():
        for s in range(table.rank):
            try:
                su = mult_gen(table, u, s, "left")
            except IncompleteTableError:
                continue
            if table.length[su] <= kl.complete_up_to:
                yield left_mul_kl(table, s, kl.kl_element(u))


# -- KL basis by whole-element subtraction -----------------------------------
# Independent oracle for kl.compute_kl: the defining algorithm one whole
# element at a time, as compute_kl ran it before it accumulated each w in
# place.  C_s * C_sw is formed as H_s * C_sw + v * C_sw, each g0 * C_z is
# subtracted as a new element, and coefficients are interned by value.


def compute_kl_by_subtraction(table, up_to_length, descent_choice="min"):
    """The table :func:`klcat.kl.compute_kl` returns, without its argument checks."""
    from klcat.coxeter import descents, mult_gen
    from klcat.kl import KLTable
    from klcat.laurent import V

    kl = KLTable(table, min(up_to_length, table.complete_length))
    interned = {ONE: ONE}
    kl._kl[table.identity] = {table.identity: ONE}
    for w in kl.stored_elements()[1:]:
        ds = descents(table, w, "left")
        s = ds[0] if descent_choice == "min" else ds[-1]
        lower = kl._kl[mult_gen(table, w, s, "left")]
        prod = add(left_mul_std(table, s, lower), scale(lower, V))
        for z, g in sorted(prod.items()):
            if z == w:
                continue
            g0 = g.coefficient(0)
            if g0:
                prod = add(prod, scale(kl._kl[z], -g0))
        kl._kl[w] = {x: interned.setdefault(c, c) for x, c in sorted(prod.items())}
    kl._polys = {tuple(c.items()): c for c in interned}
    return kl


# -- per-x KL recursions, bar involution, KL-basis expansion ------------------
# Independent oracles for kl.recursion_column, kl.classical_recursion_column,
# hecke.bar_involution and KLTable.expand_in_kl_basis: the per-entry code
# those replaced, which rebuilds a LaurentPoly or a whole element at every
# step.


def recursion_kl_poly(kl, x, w, s):
    """h_{x,w} by the one-step recursion, one x at a time, never touching the stored element of w.

    h_{x,w} = v^{+-1} h_{x,sw} + h_{sx,sw} - sum mu(z,sw) h_{x,z}, the sum
    over z in [e, sw] with sz < z < sw.
    """
    from klcat.coxeter import IncompleteTableError, bruhat_interval, descents, mult_gen

    table = kl.table
    if s not in descents(table, w, "left"):
        raise ValueError(f"s{s + 1} is not a left descent of {table.names[w]}")
    sw = mult_gen(table, w, s, "left")
    try:
        sx = mult_gen(table, x, s, "left")
        shift = 1 if table.length[sx] > table.length[x] else -1
        sx_term = kl.kl_poly(sx, sw)
    except IncompleteTableError:
        # sx beyond a truncated table is longer than x, hence not below sw
        shift, sx_term = 1, ZERO
    total = kl.kl_poly(x, sw).shift(shift) + sx_term
    upper = kl.kl_element(sw)
    for z in bruhat_interval(table, sw):
        if z == sw or s not in descents(table, z, "left"):
            continue
        m = upper.get(z, ZERO).coefficient(1)  # mu(z, sw)
        if m:
            total = total - kl.kl_poly(x, z) * m
    return total


def _classical(kl, x, w):
    from klcat.kl import to_classical

    return to_classical(kl.kl_poly(x, w), kl.table.length[x], kl.table.length[w])


def classical_recursion(kl, x, w, s):
    """P_{x,w} by the classical q-form recursion, one x at a time.

    P is 1 when x = w and 0 when x is not below w; otherwise, with c = 0
    when l(sx) > l(x) and c = 1 when l(sx) < l(x),

        P_{x,w} = q^(1-c) P_{sx,sw} + q^c P_{x,sw}
                  - sum_{sz < z < sw} mu(z,sw) q^((l(w)-l(z))/2) P_{x,z},

    where mu(z,sw) is read on the classical side.  Raises ValueError when an
    ingredient is not a classical polynomial.
    """
    from klcat.coxeter import bruhat_interval, bruhat_leq, descents, mult_gen

    table = kl.table
    length = table.length
    if s not in descents(table, w, "left"):
        raise ValueError(f"s{s + 1} is not a left descent of {table.names[w]}")
    if x == w:
        return ONE
    if not bruhat_leq(table, x, w):
        return ZERO
    sw = mult_gen(table, w, s, "left")
    sx = mult_gen(table, x, s, "left")
    c = 0 if length[sx] > length[x] else 1
    total = _classical(kl, sx, sw).shift(1 - c) + _classical(kl, x, sw).shift(c)
    for z in bruhat_interval(table, sw):
        if z == sw or s not in descents(table, z, "left"):
            continue
        exp = length[sw] - length[z] - 1
        if exp % 2 != 0:
            continue
        m = _classical(kl, z, sw).coefficient(exp // 2)
        if m:
            term = _classical(kl, x, z).shift((length[w] - length[z]) // 2) * m
            total = total - term
    return total


_INVERSES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()  # table -> {suffix word: product}


def _inverse_of_inverse_word(table, w):
    """(H_{w^-1})^-1 = H_{s_1}^-1 ... H_{s_k}^-1 over the canonical word, one generator at a time.

    The products of the word's suffixes are memoized by their words, so
    each costs one generator step beyond a shorter one.
    """
    memo = _INVERSES.setdefault(table, {(): {table.identity: ONE}})
    word = table.words[w]
    k = 0
    while word[k:] not in memo:
        k += 1
    for i in reversed(range(k)):
        acc = memo[word[i + 1:]]
        # H_s^-1 = H_s + (v - v^-1), from the quadratic relation
        memo[word[i:]] = add(left_mul_std(table, word[i], acc), scale(acc, LaurentPoly({1: 1, -1: -1})))
    return memo[word]


def bar_involution(table, h):
    """v -> v^-1 and H_w -> (H_{w^-1})^-1, summed one whole element at a time."""
    total = {}
    for w, c in sorted(h.items()):
        total = add(total, scale(_inverse_of_inverse_word(table, w), c.bar()))
    return total


def expand_in_kl_basis(kl, h):
    """Coefficients a_y with h = sum a_y C_y, subtracting one whole a_y C_y at a time from the top."""
    remaining = h
    out = {}
    while remaining:
        y = max(remaining)
        a = remaining[y]
        out[y] = a
        remaining = add(remaining, scale(kl.kl_element(y), -a))
    return dict(sorted(out.items()))


class _OracleStructureConstants:
    """A KL table whose ``structure_constants`` come from :func:`expand_in_kl_basis`."""

    def __init__(self, kl):
        self._kl = kl

    def __getattr__(self, name):
        return getattr(self._kl, name)

    def structure_constants(self, s, u):
        from klcat.hecke import left_mul_kl

        return expand_in_kl_basis(self._kl, left_mul_kl(self._kl.table, s, self._kl.kl_element(u)))


def record(identity, word, ok, lhs="", rhs="", **extra):
    """A record in ``pass``-after-``word`` key order, sides (when given) as text, then the spot keys."""
    rec = {"identity": identity, "word": word, "pass": ok}
    if lhs or rhs:
        rec["lhs"] = lhs
        rec["rhs"] = rhs
    rec.update(extra)
    return rec


def kl_suite_records(kl):
    """The ``kl`` suite's records, element by element and x by x through the oracles above.

    The per-element checks are the per-x code the column form replaced;
    the mu-structure records are shaped by ``verify`` (unchanged) from
    oracle structure constants.  A q-form side whose ingredients include a
    stored polynomial that is not classical (wrong parity or degree) is
    rendered ``undefined`` and its record fails.
    """
    from klcat import verify
    from klcat.coxeter import bruhat_leq, descents
    from klcat.kl import to_classical

    table = kl.table
    length, names = table.length, table.names
    records = []
    for w in kl.stored_elements()[1:]:
        elt = kl.kl_element(w)
        name = names[w]
        records.append(record("bar_invariance", name, bar_involution(table, elt) == elt, lhs="bar(C_w)", rhs="C_w"))
        positive = all(c.in_positive_part() for x, c in elt.items() if x != w)
        records.append(record("positive_degrees", name, positive))
        parity_ok = all(
            all((e - (length[w] - length[x])) % 2 == 0 for e in c.exponents()) for x, c in elt.items()
        )
        records.append(record("exponent_parity", name, parity_ok))
        records.append(record("positivity", name, all(c.is_nonnegative() for _, c in elt.items())))
        support_ok = elt.get(w, ZERO).coefficient(0) == 1 and all(
            bool(kl.kl_poly(x, w)) == bruhat_leq(table, x, w) for x in table.elements if length[x] <= length[w]
        )
        records.append(record("kl_support", name, support_ok))
        for s in descents(table, w, "left"):
            for x in kl.stored_elements():
                got = recursion_kl_poly(kl, x, w, s)
                want = kl.kl_poly(x, w)
                spot = {"x": names[x], "s": f"s{s + 1}"}
                records.append(
                    record("recursion_agreement", name, got == want, lhs=got.render(), rhs=want.render(), **spot)
                )
                try:
                    gotq = classical_recursion(kl, x, w, s)
                except ValueError:
                    gotq = None
                try:
                    wantq = to_classical(want, length[x], length[w]) if bruhat_leq(table, x, w) else ZERO
                except ValueError:
                    wantq = None
                records.append(
                    record(
                        "classical_recursion_agreement",
                        name,
                        gotq is not None and gotq == wantq,
                        lhs="undefined" if gotq is None else gotq.render("q"),
                        rhs="undefined" if wantq is None else wantq.render("q"),
                        **spot,
                    )
                )
    shim = _OracleStructureConstants(kl)
    shaped = verify.RecordList()
    for u in kl.stored_elements():
        verify._mu_structure_checks(shim, u, shaped)
    verify._descent_choice_check(table, kl, shaped)
    return records + shaped.records


# -- explicit light-leaf paths and the per-word suites before the count DP -----
# Independent oracles for klcat.leaves.leaf_counts and the leaves, branch and
# recursion suites: every one of the 2^n leaf paths is listed, and every
# per-word quantity (chain product, characters, simple support, restricted
# cell classes) is recomputed from the word alone at each use, as the suites
# did before they shared one cell datum per word.  Structure constants and
# the KL-basis expansion come from the KL table, as they did then.


@dataclass(frozen=True)
class LeafPath:
    bits: tuple[int, ...]  # processing order (first bit = first letter consumed); 1 = move, 0 = stay
    endpoint: int
    degree: int


@dataclass(frozen=True)
class LeafSet:
    word: tuple[int, ...]
    paths: tuple[LeafPath, ...]


def enumerate_leaves(table, word, direction="rl"):
    """All 2^n leaves of ``word`` with endpoints and degrees, in bit-lexicographic order."""
    from klcat.coxeter import mult_gen

    if direction not in ("rl", "lr"):
        raise ValueError("direction must be 'rl' or 'lr'")
    word = tuple(word)
    letters = word[::-1] if direction == "rl" else word
    side = "left" if direction == "rl" else "right"
    length = table.length
    states = [((), table.identity, 0)]
    for u in letters:
        nxt = []
        for bits, x, deg in states:
            ux = mult_gen(table, x, u, side)
            up = length[ux] > length[x]
            nxt.append((bits + (1,), ux, deg))
            nxt.append((bits + (0,), x, deg + (1 if up else -1)))
        states = nxt
    states.sort(key=lambda entry: entry[0])
    return LeafSet(word, tuple(LeafPath(*entry) for entry in states))


def leaf_counts(table, word, direction="rl"):
    """{(endpoint, degree, last bit): count} tallied over the explicit paths (the empty path has bit 0)."""
    counts = {}
    for p in enumerate_leaves(table, word, direction).paths:
        key = (p.endpoint, p.degree, p.bits[-1] if p.bits else 0)
        counts[key] = counts.get(key, 0) + 1
    return counts


def character_map(table, word, direction="rl"):
    """Sum of v^degree over the explicit leaves, grouped by endpoint."""
    acc = {}
    for path in enumerate_leaves(table, word, direction).paths:
        bucket = acc.setdefault(path.endpoint, {})
        bucket[path.degree] = bucket.get(path.degree, 0) + 1
    return {x: LaurentPoly(bucket) for x, bucket in sorted(acc.items())}


def split_top_generator(table, word):
    """The leaves at every endpoint x, split by the final level's branch into (sub, quot) sides.

    The final level consumes the leftmost letter s: the sides are (movers
    from sx, stayers at x) when l(sx) < l(x) and (stayers, movers) otherwise.
    """
    from klcat.coxeter import mult_gen

    if not word:
        raise ValueError("the empty word has no top generator")
    by_branch = {}
    for p in enumerate_leaves(table, word).paths:
        movers, stayers = by_branch.setdefault(p.endpoint, ([], []))
        (movers if p.bits[-1] == 1 else stayers).append(p)
    out = {}
    for x in sorted(by_branch):
        movers, stayers = by_branch[x]
        sx = mult_gen(table, x, word[0], "left")
        out[x] = (movers, stayers) if table.length[sx] < table.length[x] else (stayers, movers)
    return out


def leafset_to_json_obj(table, leafset):
    return {
        "word": list(leafset.word),
        "bit_convention": "processing order right-to-left; 1=move, 0=stay",
        "paths": [
            {"bits": list(p.bits), "endpoint": list(table.words[p.endpoint]), "degree": p.degree}
            for p in leafset.paths
        ],
    }


_EXPANSIONS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()  # KL table -> {word: expansion}


def _expansion(kl, word):
    """KL-basis coefficients of the word's chain product, built from the unit; memoized per table."""
    from klcat.hecke import bott_samelson_class

    memo = _EXPANSIONS.setdefault(kl, {})
    word = tuple(word)
    if word not in memo:
        memo[word] = kl.expand_in_kl_basis(bott_samelson_class(kl.table, word))
    return memo[word]


def _checked_word(kl, word):
    from klcat.coxeter import is_reduced, word_name

    word = tuple(word)
    if not word:
        raise ValueError("branching needs a word of length >= 1")
    if not is_reduced(kl.table, word):
        raise ValueError(f"word {word_name(word)} is not reduced")
    return word


def res_cell_class(kl, word, x):
    """Coordinates of Res[cell(x)] over the tail's simple support: u -> v^{-+1} h_{x,u} + h_{sx,u}."""
    from klcat.coxeter import mult_gen

    word = _checked_word(kl, word)
    s, tail = word[0], word[1:]
    sx = mult_gen(kl.table, x, s, "left")
    shift = -1 if kl.table.length[sx] < kl.table.length[x] else 1
    coords = {}
    for u in sorted(_expansion(kl, tail)):
        c = kl.kl_poly(x, u).shift(shift) + kl.kl_poly(sx, u)
        if c:
            coords[u] = c
    return coords


def derive_kl_recursion(kl, word, x):
    """(stored h_{x,w}, h_{x,w} derived through the branching pipeline) for one x."""
    from klcat.coxeter import evaluate_word, mult_gen

    word = _checked_word(kl, word)
    w = evaluate_word(kl.table, word)
    s = word[0]
    wp = mult_gen(kl.table, w, s, "left")
    sc = kl.structure_constants(s, wp)
    rhs = res_cell_class(kl, word, x).get(wp, ZERO)
    for z in sorted(_expansion(kl, word)):
        if z != w and sc.get(z):
            rhs = rhs - sc[z] * kl.kl_poly(x, z)
    return kl.kl_poly(x, w), rhs


def _vec_render(table, coords):
    return "; ".join(f"{table.names[u]}:{c.render()}" for u, c in sorted(coords.items()))


def _leaves_word_records(kl, word):
    from klcat.coxeter import bruhat_interval, bruhat_leq, evaluate_word, word_name
    from klcat.hecke import bott_samelson_class

    table = kl.table
    names = table.names
    name = word_name(word)
    records = []
    chars = character_map(table, word)
    mirrored = character_map(table, word, "lr")
    hecke_side = bott_samelson_class(table, word)
    w = evaluate_word(table, word)
    interval = bruhat_interval(table, w)
    for x in interval:
        lhs, rhs = mirrored.get(x, ZERO), hecke_side.get(x, ZERO)
        records.append(record("char_leaves_vs_hecke", name, lhs == rhs, lhs=lhs.render(), rhs=rhs.render(), x=names[x]))
    support_ok = set(mirrored) == set(interval) and all(
        hecke_side.get(x, ZERO) == mirrored.get(x, ZERO) for x in table.elements
    )
    records.append(record("char_support", name, support_ok))
    records.append(record("direction_independence", name, mirrored == chars))
    records.append(record("leaf_count", name, len(enumerate_leaves(table, word).paths) == 2 ** len(word)))
    gdims = _expansion(kl, word)
    support = sorted(gdims)
    decomp = {(x, y): kl.kl_poly(x, y) for y in support for x in interval if kl.kl_poly(x, y)}
    for x in interval:
        lhs = chars.get(x, ZERO)
        rhs = ZERO
        for y in support:
            rhs = rhs + decomp.get((x, y), ZERO) * gdims[y]
        records.append(record("decomposition_identity", name, lhs == rhs, lhs=lhs.render(), rhs=rhs.render(), x=names[x]))
    gdim_ok = all(c.bar() == c and c.is_nonnegative() for c in gdims.values()) and gdims.get(w) == ONE
    records.append(record("gdim_bar_symmetric_nonneg", name, gdim_ok))
    triangular = all(
        decomp.get((y, y)) == ONE and all(not decomp.get((x, y)) or bruhat_leq(table, x, y) for x in interval)
        for y in support
    )
    records.append(record("decomposition_triangularity", name, triangular))
    return records


def _branch_word_records(kl, word):
    from klcat.coxeter import bruhat_interval, evaluate_word, mult_gen, word_name

    table = kl.table
    length, names = table.length, table.names
    s, tail = word[0], word[1:]
    name = word_name(word)
    interval = bruhat_interval(table, evaluate_word(table, word))
    records = []
    word_chars = character_map(table, word)
    tail_chars = character_map(table, tail)
    parts = split_top_generator(table, word)
    for x in interval:
        sx = mult_gen(table, x, s, "left")
        tail_x, tail_sx = tail_chars.get(x, ZERO), tail_chars.get(sx, ZERO)
        if length[sx] < length[x]:
            want_sub, want_quot = tail_sx, tail_x.shift(-1)
        else:
            want_sub, want_quot = tail_x.shift(1), tail_sx
        lhs = word_chars.get(x, ZERO)
        rhs = want_sub + want_quot
        records.append(
            {"identity": "branching_characters", "word": name, "x": names[x],
             "lhs": lhs.render(), "rhs": rhs.render(), "pass": lhs == rhs}
        )
        part_sub, part_quot = parts.get(x, ([], []))
        got_sub = LaurentPoly.from_terms((p.degree, 1) for p in part_sub)
        got_quot = LaurentPoly.from_terms((p.degree, 1) for p in part_quot)
        records.append(
            {"identity": "leaf_partition", "word": name, "x": names[x],
             "lhs": f"sub={got_sub.items()} quot={got_quot.items()}",
             "rhs": f"sub={want_sub.items()} quot={want_quot.items()}",
             "pass": got_sub == want_sub and got_quot == want_quot}
        )
    domain = sorted(_expansion(kl, word))
    codomain = sorted(_expansion(kl, tail))
    sc = {u: kl.structure_constants(s, u) for u in codomain}
    for z in interval:
        image = res_cell_class(kl, word, z)
        for u in codomain:
            lhs = ZERO
            for x in domain:
                h = sc[u].get(x, ZERO)
                if h:
                    lhs = lhs + h * kl.kl_poly(z, x)
            rhs = image.get(u, ZERO)
            records.append(
                {"identity": "restriction_counts", "word": name, "x": names[z], "u": names[u],
                 "lhs": lhs.render(), "rhs": rhs.render(), "pass": lhs == rhs}
            )
    for x in interval:
        via_matrix = {}
        for y in domain:
            c = kl.kl_poly(x, y)
            if c:
                for u in codomain:
                    h = sc[u].get(y)
                    if h:
                        via_matrix[u] = via_matrix.get(u, ZERO) + h * c
        via_matrix = {u: c for u, c in via_matrix.items() if c}
        direct = res_cell_class(kl, word, x)
        records.append(
            record("res_linear_map", name, via_matrix == direct,
                   lhs=_vec_render(table, via_matrix), rhs=_vec_render(table, direct), x=names[x])
        )
    return records


def _recursion_word_records(kl, word):
    from klcat.coxeter import bruhat_interval, descents, evaluate_word, mult_gen, word_name

    table = kl.table
    name = word_name(word)
    w = evaluate_word(table, word)
    s = word[0]
    wp = mult_gen(table, w, s, "left")
    sc = kl.structure_constants(s, wp)
    records = []
    for x in bruhat_interval(table, w):
        lhs, rhs = derive_kl_recursion(kl, word, x)
        records.append(record("derived_recursion", name, lhs == rhs, lhs=lhs.render(), rhs=rhs.render(), x=table.names[x]))
        alt = res_cell_class(kl, word, x).get(wp, ZERO)
        for z in bruhat_interval(table, wp):
            if z != wp and s in descents(table, z, "left") and sc.get(z):
                alt = alt - sc[z] * kl.kl_poly(x, z)
        records.append(
            record("correction_index_consistency", name, alt == rhs, lhs=alt.render(), rhs=rhs.render(), x=table.names[x])
        )
    return records


def word_suite_records(kl, suite):
    """The records of one word suite (``leaves``, ``branch`` or ``recursion``), word by word from scratch."""
    from klcat.verify import reduced_words_in_order

    words = [w for w in reduced_words_in_order(kl.table) if len(w) <= kl.complete_up_to]
    per_word = {"leaves": _leaves_word_records, "branch": _branch_word_records, "recursion": _recursion_word_records}
    records = []
    for word in words:
        if word or suite == "leaves":
            records.extend(per_word[suite](kl, word))
    return records

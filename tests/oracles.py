"""Independent oracles the tests check production code against.

Nothing here calls into the code paths being verified: group tables come
from saturating braid moves on words (Tits' solution to the word problem),
the symmetric-group model uses one-line permutation arithmetic, Bruhat
comparison uses the subword characterization over brute-force word
enumeration, the dihedral KL oracle checks the defining
bar-invariance conditions directly, the KL CSV oracle walks Bruhat
intervals by pairwise comparison instead of the stored supports, and the
KL recursions, bar involution and KL-basis expansion are evaluated one
entry at a time instead of accumulated a column at a time.
"""

from __future__ import annotations

import itertools
import weakref
from collections import deque
from functools import lru_cache
from typing import Optional

from klcat.coxeter import INFINITE
from klcat.laurent import LaurentPoly

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


# -- dihedral KL oracle --------------------------------------------------------


def dihedral_kl_candidate(table, w):
    """The closed-form candidate: sum of v^(l(w)-l(x)) H_x over l(x) < l(w), plus H_w.

    In a dihedral group every shorter element is Bruhat-below every longer
    one, so no order computation is needed here.
    """
    from klcat.hecke import HeckeElt

    coeffs = {
        x: LaurentPoly({table.length[w] - table.length[x]: 1})
        for x in table.elements
        if table.length[x] < table.length[w]
    }
    coeffs[w] = LaurentPoly({0: 1})
    return HeckeElt(table, coeffs)


def satisfies_kl_conditions(table, w, candidate) -> bool:
    """The defining conditions: bar-invariant, top coefficient 1, rest in vZ[v]."""
    from klcat.hecke import bar_involution

    if bar_involution(candidate) != candidate:
        return False
    if candidate.coeff(w) != LaurentPoly({0: 1}):
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
                yield left_mul_kl(s, kl.kl_element(u))


# -- per-x KL recursions, bar involution, KL-basis expansion ------------------
# Independent oracles for kl.recursion_column, kl.classical_recursion_column,
# hecke.bar_involution and KLTable.expand_in_kl_basis: the per-entry code
# those replaced, which rebuilds a LaurentPoly or HeckeElt at every step.


def recursion_kl_poly(kl, x, w, s):
    """h_{x,w} by the one-step recursion, one x at a time, never touching the stored element of w.

    h_{x,w} = v^{+-1} h_{x,sw} + h_{sx,sw} - sum mu(z,sw) h_{x,z}, the sum
    over z in [e, sw] with sz < z < sw.
    """
    from klcat.coxeter import IncompleteTableError, bruhat_interval, descents, mult_gen
    from klcat.laurent import ZERO

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
        m = upper.coeff(z).coefficient(1)  # mu(z, sw)
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
    from klcat.laurent import ONE, ZERO

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
    from klcat.hecke import left_mul_std, unit

    memo = _INVERSES.setdefault(table, {(): unit(table)})
    word = table.words[w]
    k = 0
    while word[k:] not in memo:
        k += 1
    for i in reversed(range(k)):
        acc = memo[word[i + 1:]]
        # H_s^-1 = H_s + (v - v^-1), from the quadratic relation
        memo[word[i:]] = left_mul_std(word[i], acc) + acc.scale(LaurentPoly({1: 1, -1: -1}))
    return memo[word]


def bar_involution(h):
    """v -> v^-1 and H_w -> (H_{w^-1})^-1, summed one HeckeElt at a time."""
    from klcat.hecke import HeckeElt

    total = HeckeElt(h.table)
    for w, c in h.items():
        total = total + _inverse_of_inverse_word(h.table, w).scale(c.bar())
    return total


def expand_in_kl_basis(kl, h):
    """Coefficients a_y with h = sum a_y C_y, subtracting one whole a_y C_y at a time from the top."""
    remaining = h
    out = {}
    while remaining:
        y = max(remaining.support())
        a = remaining.coeff(y)
        out[y] = a
        remaining = remaining - kl.kl_element(y).scale(a)
    return dict(sorted(out.items()))


class _OracleStructureConstants:
    """A KL table whose ``structure_constants`` come from :func:`expand_in_kl_basis`."""

    def __init__(self, kl):
        self._kl = kl

    def __getattr__(self, name):
        return getattr(self._kl, name)

    def structure_constants(self, s, u):
        from klcat.hecke import left_mul_kl

        return expand_in_kl_basis(self._kl, left_mul_kl(s, self._kl.kl_element(u)))


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
    from klcat.laurent import ZERO

    record = verify._record
    table = kl.table
    length, names = table.length, table.names
    records = []
    for w in kl.stored_elements()[1:]:
        elt = kl.kl_element(w)
        name = names[w]
        records.append(record("bar_invariance", name, bar_involution(elt) == elt, lhs="bar(C_w)", rhs="C_w"))
        positive = all(c.in_positive_part() for x, c in elt.items() if x != w)
        records.append(record("positive_degrees", name, positive))
        parity_ok = all(
            all((e - (length[w] - length[x])) % 2 == 0 for e in c.exponents()) for x, c in elt.items()
        )
        records.append(record("exponent_parity", name, parity_ok))
        records.append(record("positivity", name, all(c.is_nonnegative() for _, c in elt.items())))
        support_ok = elt.coeff(w).coefficient(0) == 1 and all(
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
    for u in kl.stored_elements():
        records.extend(verify._mu_structure_checks(shim, u))
    records.extend(verify._descent_choice_check(table, kl))
    return records

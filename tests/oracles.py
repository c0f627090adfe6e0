"""Independent oracles the tests check production code against.

Nothing here calls into the code paths being verified: group tables come
from saturating braid moves on words (Tits' solution to the word problem),
the symmetric-group model uses one-line permutation arithmetic, Bruhat
comparison uses the subword characterization over brute-force word
enumeration, the dihedral KL oracle checks the defining
bar-invariance conditions directly, and the KL CSV oracle walks Bruhat
intervals by pairwise comparison instead of the stored supports.
"""

from __future__ import annotations

import itertools
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

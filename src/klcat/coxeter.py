"""Coxeter systems from an arbitrary Coxeter matrix.

A group element is a plain ``int`` id into a :class:`GroupTable`.  Ids
are assigned in (length, ShortLex) order of the element's canonical word,
its ShortLex-minimal reduced word; the table keeps each id's word, length
and name, which are read only to parse, print and cache.

The table is built by a breadth-first search by length over right
multiplication, using only integer lookups in the part already built.
Two products ``x*s`` and ``y*t`` of the current level with s != t are the
same element exactly when it has both s and t as right descents, which by
the rank-2 parabolic lemma means it is ``v*w0(s,t)`` with the lengths
adding (Bjorner-Brenti, *Combinatorics of Coxeter Groups*, 2.4): x walks
down from ``v*w0(s,t)*s`` to v along right descents, and y is v times the
other alternating word.  No word is ever rewritten and no element's set of
reduced words is listed: the word suites of :mod:`klcat.verify` grow the
reduced words from their tails instead.  Bruhat order is read only from
the lower intervals of :func:`bruhat_interval`, the table's only memo and
the one definition of [e, w]: each is one shared tuple per element, which
the cell data and the ``kl`` suite compare against;
:func:`below_with_descent` is the one filter of one by a left descent.

If the group does not close within the requested element cap, the table
is truncated by length: it contains all elements of length <=
``complete_length`` and nothing longer, and any product falling outside
raises :class:`IncompleteTableError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

INFINITE = 0  # JSON encoding of an infinite braid order m_st


class IncompleteTableError(Exception):
    """A product left the complete part of a length-truncated table."""


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of braid orders; diagonal 1, off-diagonal >= 2 or 0 (= infinity)."""

    rank: int
    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if len(self.orders) != self.rank:
            raise ValueError("matrix must have `rank` rows")
        for i, row in enumerate(self.orders):
            if len(row) != self.rank:
                raise ValueError("matrix must be square")
            for j, m in enumerate(row):
                if i == j:
                    if m != 1:
                        raise ValueError("diagonal entries must be 1")
                elif m != INFINITE and m < 2:
                    raise ValueError("off-diagonal entries must be >= 2 or 0 (infinity)")
                if m != self.orders[j][i]:
                    raise ValueError("matrix must be symmetric")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "CoxeterMatrix":
        orders = tuple(tuple(int(m) for m in row) for row in rows)
        return cls(len(orders), orders)

    def to_json_obj(self) -> dict:
        return {"rank": self.rank, "m": [list(row) for row in self.orders]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CoxeterMatrix":
        """Decode ``{"rank": n, "m": [[...]]}``; the rank and every entry must be JSON integers."""
        rank, rows = (obj.get("rank"), obj.get("m")) if isinstance(obj, dict) else (None, None)
        if not (
            type(rank) is int
            and isinstance(rows, list)
            and all(isinstance(row, list) and all(type(m) is int for m in row) for row in rows)
        ):
            raise ValueError('matrix JSON must be {"rank": n, "m": [[...]]} with integer entries')
        matrix = cls.from_rows(rows)
        if matrix.rank != rank:
            raise ValueError("declared rank does not match matrix size")
        return matrix


def _decimal(text: str) -> Optional[int]:
    """``int(text)`` if ``text`` is a canonical ASCII decimal (not ``"03"``, ``"+3"``, ``" 3"``), else None."""
    try:
        n = int(text)
    except ValueError:
        return None
    return n if str(n) == text else None


def preset_matrix(name: str) -> CoxeterMatrix:
    """A named standard matrix: ``An`` (chain of 3s), ``Bn`` (one 4), ``I2(m)``.

    >>> preset_matrix("A2").orders
    ((1, 3), (3, 1))
    >>> preset_matrix("I2(7)").orders
    ((1, 7), (7, 1))
    """
    name = name.strip()
    if name.startswith("I2(") and name.endswith(")"):
        m = _decimal(name[3:-1])
        if m is None or m < 2:
            raise ValueError("I2(m) needs a decimal m >= 2")
        return CoxeterMatrix.from_rows([[1, m], [m, 1]])
    if name[:1] in ("A", "B") and (n := _decimal(name[1:])) is not None:
        if n < 1 or (name[0] == "B" and n < 2):
            raise ValueError(f"unsupported preset {name!r}")
        rows = [[1 if i == j else (3 if abs(i - j) == 1 else 2) for j in range(n)] for i in range(n)]
        if name[0] == "B":
            rows[n - 2][n - 1] = rows[n - 1][n - 2] = 4
        return CoxeterMatrix.from_rows(rows)
    raise ValueError(f"unknown preset {name!r}")


Word = tuple[int, ...]


def word_name(word: Word) -> str:
    """Human name of a word: ``e`` or 1-based ``s2.s1.s3``."""
    return ".".join(f"s{i + 1}" for i in word) if word else "e"


def parse_word(text: str, rank: int) -> Word:
    """Parse ``s2,s1,s3`` (1-based generator names) into letter indices."""
    text = text.strip()
    if not text or text == "e":
        return ()
    letters = []
    for token in text.split(","):
        token = token.strip()
        n = _decimal(token[1:])
        if not token.startswith("s") or n is None:
            raise ValueError(f"bad generator token {token!r}; expected s1,s2,...")
        if not 1 <= n <= rank:
            raise ValueError(f"generator {token!r} out of range for rank {rank}")
        letters.append(n - 1)
    return tuple(letters)


# -- group tables ---------------------------------------------------------


class GroupTable:
    """The elements of one Coxeter system, as int ids, with multiplication tables.

    Ids run in (length, ShortLex) order, so the identity is 0 and sorting
    ids sorts elements canonically.  ``words[x]``, ``length[x]`` and
    ``names[x]`` are x's canonical reduced word, its length and its
    printed name (built on first use, since only output reads them); the
    build also stores each id's left and right descents.  Immutable after
    construction apart from its one memo dict, the lower Bruhat intervals
    of :func:`bruhat_interval`.
    """

    identity = 0

    def __init__(
        self,
        matrix: CoxeterMatrix,
        words: list[Word],
        right: list[list[Optional[int]]],
        left: list[list[Optional[int]]],
        right_descents: list[tuple[int, ...]],
        left_descents: list[tuple[int, ...]],
        partial: bool,
    ):
        self.matrix = matrix
        self.words = words
        self.length = [len(w) for w in words]
        self.elements = range(len(words))
        self._right = right
        self._left = left
        self._right_descents = right_descents
        self._left_descents = left_descents
        self.partial = partial
        self.complete_length = self.length[-1]
        self._interval_memo: dict[int, tuple[int, ...]] = {0: (0,)}  # id -> [e, id]

    @cached_property
    def names(self) -> list[str]:
        return [word_name(w) for w in self.words]

    @property
    def rank(self) -> int:
        return self.matrix.rank

    @property
    def order(self) -> int:
        return len(self.words)

    def counts_by_length(self) -> list[int]:
        counts = [0] * (self.complete_length + 1)
        for n in self.length:
            counts[n] += 1
        return counts


def build_group(matrix: CoxeterMatrix, cap: int) -> GroupTable:
    """Build the table level by level in length, merging up-products by rank-2 descent walks.

    The up-products of level k are the pairs (x, s) with l(x) = k and
    ``x*s`` not yet in the table.  Pairs (x, s) and (y, t), s < t with m_st
    finite, are the same element exactly when x walks down through m_st - 1
    right descents by t, s, t, ... to some v, and y is v times the
    alternating word of length m_st - 1 that ends in s; every entry the
    walks read belongs to an earlier level.  Matching pairs are merged by
    union-find, each merged class is one new element whose right descents
    are its pairs' generators and whose canonical word is the least
    ``words[x] + (s,)``, and the level is numbered in canonical-word order.
    The left table and left descents come through inverses.

    If closure is not reached within ``cap`` elements the table keeps only
    the complete length strata and is marked partial.

    >>> t = build_group(preset_matrix("A2"), 100)
    >>> t.order, t.complete_length, t.partial
    (6, 3, False)
    """
    if cap < 1:
        raise ValueError("cap must be a positive element count")
    rank = matrix.rank
    orders = matrix.orders
    words: list[Word] = [()]
    length = [0]
    right: list[list[Optional[int]]] = [[None] * rank]
    right_descents: list[tuple[int, ...]] = [()]
    level = [0]
    partial = False
    while True:
        ups = [(x, s) for x in level for s in range(rank) if right[x][s] is None]
        parent = {pair: pair for pair in ups}

        def find(pair):
            while parent[pair] != pair:
                parent[pair] = pair = parent[parent[pair]]
            return pair

        for x, s in ups:
            for t in range(s + 1, rank):
                m = orders[s][t]
                if m == INFINITE:
                    continue
                # x down by t, s, t, ... to v, then v up by the alternating word ending in s
                v, a, b = x, t, s
                for _ in range(m - 1):
                    u = right[v][a]
                    if u is None or length[u] > length[v]:
                        break
                    v, a, b = u, b, a
                else:
                    for _ in range(m - 1):
                        v, a, b = right[v][a], b, a
                    parent[find((v, t))] = find((x, s))
        classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for pair in ups:
            classes.setdefault(find(pair), []).append(pair)
        if not classes:
            break
        if len(words) + len(classes) > cap:
            partial = True
            break
        new = sorted((min(words[x] + (s,) for x, s in pairs), pairs) for pairs in classes.values())
        level = []
        for word, pairs in new:
            w = len(words)
            words.append(word)
            length.append(len(word))
            right.append([None] * rank)
            for x, s in pairs:
                right[x][s] = w
                right[w][s] = x
            right_descents.append(tuple(sorted(s for _, s in pairs)))
            level.append(w)

    inverse = []
    for word in words:
        x = 0
        for s in reversed(word):
            x = right[x][s]
        inverse.append(x)
    left = [[None if j is None else inverse[j] for j in right[inverse[w]]] for w in range(len(words))]
    left_descents = [right_descents[inverse[w]] for w in range(len(words))]
    return GroupTable(matrix, words, right, left, right_descents, left_descents, partial)


def mult_gen(table: GroupTable, w: int, s: int, side: str = "left") -> int:
    """The product ``s*w`` (left) or ``w*s`` (right); length changes by exactly 1."""
    j = (table._left if side == "left" else table._right)[w][s]
    if j is None:
        raise IncompleteTableError(
            f"product of {table.names[w]} with s{s + 1} lies beyond length {table.complete_length}"
        )
    return j


def evaluate_word(table: GroupTable, word: Word) -> int:
    """Left-to-right product of the letters; the empty word is the identity."""
    x = table.identity
    for s in word:
        x = mult_gen(table, x, s, "right")
    return x


def is_reduced(table: GroupTable, word: Word) -> bool:
    """True iff the letter count equals the length of the product."""
    return len(word) == table.length[evaluate_word(table, word)]


def descents(table: GroupTable, w: int, side: str = "left") -> tuple[int, ...]:
    """Generators s with ``l(sw) < l(w)`` (left) or ``l(ws) < l(w)`` (right), ascending."""
    return (table._left_descents if side == "left" else table._right_descents)[w]


def bruhat_interval(table: GroupTable, w: int) -> tuple[int, ...]:
    """All x <= w, in id order: the table's memoized tuple, shared by every caller.

    With s the first left descent of w, [e, w] is the union of [e, sw]
    and s*[e, sw] (Bjorner-Brenti, *Combinatorics of Coxeter Groups*,
    2.2).  The chain w, sw, ... is walked down to the first memoized
    interval and the intervals are filled back up it, so deep elements
    need no recursion.

    >>> t = build_group(preset_matrix("A2"), 100)
    >>> bruhat_interval(t, 3)
    (0, 1, 2, 3)
    """
    memo, left = table._interval_memo, table._left
    chain = []
    u = w
    while u not in memo:
        s = descents(table, u, "left")[0]
        chain.append((u, s))
        u = left[u][s]
    for u, s in reversed(chain):
        lower = memo[left[u][s]]
        memo[u] = tuple(sorted({*lower, *(left[x][s] for x in lower)}))
    return memo[w]


def below_with_descent(table: GroupTable, s: int, u: int) -> list[int]:
    """The z < u with s a left descent, in id order: the KL recursions' index set {z : sz < z < u}."""
    return [z for z in bruhat_interval(table, u) if z != u and s in descents(table, z, "left")]

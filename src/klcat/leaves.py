"""Leaf characters of an expression, by a count DP over the light-leaves tree.

For a word (s_1, ..., s_n) the tree has 2^n leaves, one per binary path.
In the native right-to-left walk, levels consume generators right to left
(level 1 handles s_n, level n handles s_1).  Walking a path keeps a state
element x, starting at the identity, and at each level with generator u
either moves to ux or stays at x.  The degree contributions per level are:

  * l(ux) > l(x): move contributes 0, stay contributes +1;
  * l(ux) < l(x): move contributes 0 (a -1 and a +1 cancel), stay -1.

Only the (endpoint, degree) data of each path is read downstream: the
morphisms behind the steps enter solely through these degrees, which is
all the graded character theory ever reads.  A path's future depends only
on its current (state, degree), so the leaves are counted, not listed,
and a level enters the next one only through its characters, the
``{x: LaurentPoly}`` sums of v^degree by endpoint.  :func:`leaf_step`
takes the characters of one level to the ``{(endpoint, degree,
last_bit): count}`` of the next (1 = move, 0 = stay), and
:func:`leaf_counts` folds it over the word, n steps over at most
2 * |[e, w]| * (2n + 1) keys instead of 2^n paths.  The counts sum to
2^n, and their last-bit split is the partition behind the branching rule
of the source paper.  The explicit path enumeration is kept as the
oracle in ``tests/oracles.py``.

The right-to-left walk is the recurrence C_s H_x = H_sx + v^{+-1} H_x of
the chain product ``C_{s_1} ... C_{s_n}``, so a word's right-to-left
characters are its chain product: :mod:`klcat.cells` keeps only those,
and the branch suite steps a word's final level from its tail's.  The
mirrored left-to-right walk (``direction='lr'``: letters from the front,
states grown by right multiplication) gives the same characters; the
suites compare it with the Hecke side, an independent path.

Words need not be reduced here; reducedness is asserted by the modules
(cells, branch) whose statements require it.
"""

from __future__ import annotations

from .coxeter import GroupTable, Word, mult_gen
from .laurent import LaurentPoly

LeafCounts = dict[tuple[int, int, int], int]  # (endpoint, degree, last bit) -> number of leaves


def leaf_counts(table: GroupTable, word: Word, direction: str = "rl") -> LeafCounts:
    """Number of leaves of ``word`` per (endpoint, degree, final-level bit).

    The final level consumes the leftmost letter in the ``'rl'`` walk and
    the rightmost in the ``'lr'`` walk.  The empty word's single leaf has
    no levels; it is counted as ``(identity, 0, 0)``.
    """
    if direction not in ("rl", "lr"):
        raise ValueError("direction must be 'rl' or 'lr'")
    word = tuple(word)
    letters = word[::-1] if direction == "rl" else word
    side = "left" if direction == "rl" else "right"
    counts = {(table.identity, 0, 0): 1}
    for u in letters:
        counts = leaf_step(table, characters(counts), u, side)
    return counts


def leaf_step(table: GroupTable, chars: dict[int, LaurentPoly], u: int, side: str = "left") -> LeafCounts:
    """The counts one level below characters ``chars``: every leaf moves to ux or stays at x.

    With ``side='left'`` this turns the right-to-left characters of a word
    into the counts of the word with ``u`` prepended; with ``'right'``,
    the left-to-right characters into those of the word with ``u``
    appended.
    """
    length = table.length
    # x -> ux and x -> x are both one-to-one, so no two new keys collide
    out: LeafCounts = {}
    for x, c in chars.items():
        ux = mult_gen(table, x, u, side)
        step = 1 if length[ux] > length[x] else -1
        for d, n in c.items():
            out[(ux, d, 1)] = n
            out[(x, d + step, 0)] = n
    return out


def characters(counts: LeafCounts) -> dict[int, LaurentPoly]:
    """Sum of v^degree over the counted leaves, by endpoint in element order."""
    acc: dict[int, dict[int, int]] = {}
    for (x, d, _), n in counts.items():
        degrees = acc.setdefault(x, {})
        degrees[d] = degrees.get(d, 0) + n
    return {x: LaurentPoly._from_pruned(acc[x]) for x in sorted(acc)}  # counts are positive


def split_by_last_bit(counts: LeafCounts) -> dict[int, tuple[LaurentPoly, LaurentPoly]]:
    """Per endpoint, the degree polynomials of its (movers, stayers) at the final level."""
    acc: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    for (x, d, bit), n in counts.items():
        acc.setdefault(x, ({}, {}))[1 - bit][d] = n
    return {x: (LaurentPoly(movers), LaurentPoly(stayers)) for x, (movers, stayers) in acc.items()}


def character_map(table: GroupTable, word: Word, direction: str = "rl") -> dict[int, LaurentPoly]:
    """Sum of v^degree over leaves, grouped by endpoint; zero entries dropped."""
    return characters(leaf_counts(table, word, direction))

"""Combinatorial shadow of the light-leaves tree of an expression.

For a word (s_1, ..., s_n) the tree has 2^n leaves, one per binary path.
Levels consume generators right to left (level 1 handles s_n, level n
handles s_1).  Walking a path keeps a state element x, starting at the
identity, and at each level with generator u either moves to ux or stays
at x.  States and endpoints are element ids; words appear only in the
JSON export.  The degree contributions per level are:

  * l(ux) > l(x): move contributes 0, stay contributes +1;
  * l(ux) < l(x): move contributes 0 (a -1 and a +1 cancel), stay -1.

Only the (endpoint, degree) data of each path is materialized; the
morphisms behind the steps enter solely through these degrees, which is
all the graded character theory downstream ever reads.

Bit convention, fixed in the JSON export: bits are listed in processing
order (first bit = rightmost letter), 1 = move, 0 = stay.  Paths are
ordered bit-lexicographically.

Words need not be reduced here; reducedness is asserted by the modules
(cells, branch) whose statements require it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import GroupTable, Word, mult_gen, word_name
from .laurent import LaurentPoly, ZERO


@dataclass(frozen=True)
class LeafPath:
    bits: tuple[int, ...]
    endpoint: int
    degree: int


@dataclass(frozen=True)
class LeafSet:
    word: Word
    paths: tuple[LeafPath, ...]


def enumerate_leaves(table: GroupTable, word: Word, direction: str = "rl") -> LeafSet:
    """All 2^n leaves of ``word`` with endpoints and degrees.

    ``direction='rl'`` is the native right-to-left walk (letters consumed
    from the end, states grown by left multiplication).  ``'lr'`` is the
    mirrored walk (letters from the front, right multiplication); the
    character map is direction-independent, which the suites check.
    """
    if direction not in ("rl", "lr"):
        raise ValueError("direction must be 'rl' or 'lr'")
    word = tuple(word)
    letters = word[::-1] if direction == "rl" else word
    side = "left" if direction == "rl" else "right"
    length = table.length
    states: list[tuple[tuple[int, ...], int, int]] = [((), table.identity, 0)]
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


def character_map(table: GroupTable, word: Word, direction: str = "rl") -> dict[int, LaurentPoly]:
    """Sum of v^degree over leaves, grouped by endpoint; zero entries dropped."""
    acc: dict[int, dict[int, int]] = {}
    for path in enumerate_leaves(table, word, direction).paths:
        bucket = acc.setdefault(path.endpoint, {})
        bucket[path.degree] = bucket.get(path.degree, 0) + 1
    out = {x: LaurentPoly(bucket) for x, bucket in acc.items()}
    return {x: p for x, p in sorted(out.items()) if p}


def cell_character(table: GroupTable, word: Word, x: int) -> LaurentPoly:
    """Graded dimension of the cell module of ``word`` at ``x``."""
    return character_map(table, word).get(x, ZERO)


def split_top_generator(
    table: GroupTable, word: Word
) -> dict[int, tuple[list[LeafPath], list[LeafPath]]]:
    """Partition the leaves at every endpoint x by the final level's branch.

    One walk of the tree serves every endpoint; keys are in element order.
    The final level consumes the leftmost letter s.  The first part
    collects the sub-module side of the branching short exact sequence,
    the second the quotient side:

      * l(sx) < l(x): (movers from sx, stayers at x),
      * l(sx) > l(x): (stayers at x, movers from sx).
    """
    if not word:
        raise ValueError("the empty word has no top generator")
    by_branch: dict[int, tuple[list[LeafPath], list[LeafPath]]] = {}
    for p in enumerate_leaves(table, word).paths:
        movers, stayers = by_branch.setdefault(p.endpoint, ([], []))
        (movers if p.bits[-1] == 1 else stayers).append(p)
    length = table.length
    out = {}
    for x in sorted(by_branch):
        movers, stayers = by_branch[x]
        sx = mult_gen(table, x, word[0], "left")
        out[x] = (movers, stayers) if length[sx] < length[x] else (stayers, movers)
    return out


def leafset_to_json_obj(table: GroupTable, leafset: LeafSet) -> dict:
    return {
        "word": list(leafset.word),
        "bit_convention": "processing order right-to-left; 1=move, 0=stay",
        "paths": [
            {"bits": list(p.bits), "endpoint": list(table.words[p.endpoint]), "degree": p.degree}
            for p in leafset.paths
        ],
    }


def character_report(table: GroupTable, word: Word) -> dict:
    """Characters of every endpoint of ``word``, JSON-ready."""
    chars = character_map(table, word)
    return {
        "word": word_name(word),
        "characters": [[table.names[x], poly.to_json_obj()] for x, poly in chars.items()],
    }

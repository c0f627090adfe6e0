"""Leaf characters of an expression, by a count DP over the light-leaves tree.

For a word (s_1, ..., s_n) the tree has 2^n leaves, one per binary path.
In the right-to-left walk, levels consume generators right to left
(level 1 handles s_n, level n handles s_1).  Walking a path keeps a state
element x, starting at the identity, and at each level with generator u
either moves to ux or stays at x.  The degree contributions per level are:

  * l(ux) > l(x): move contributes 0, stay contributes +1;
  * l(ux) < l(x): move contributes 0 (a -1 and a +1 cancel), stay -1.

Only the (endpoint, degree) data of each path is read downstream, and a
path's future depends only on its current (state, degree), so the leaves
are counted, not listed: a level enters the next one only through its
characters, the ``{x: LaurentPoly}`` sums of v^degree by endpoint.  The
explicit path enumeration is kept as the oracle in ``tests/oracles.py``.

The right-to-left walk is the recurrence C_s H_x = H_sx + v^{+-1} H_x of
the chain product ``C_{s_1} ... C_{s_n}``, which :mod:`klcat.cells`
keeps as the word's characters.  :func:`leaf_step` takes them one level
further and splits each endpoint's leaves by that level's branch into
(movers, stayers), the partition behind the branching rule of the source
paper.  :func:`character_map` is the mirrored left-to-right walk (states
grown by right multiplication), an independent path to the same
characters that the suites compare with the chain product.

Words need not be reduced here; reducedness is asserted by the modules
(cells, branch) whose statements require it.
"""

from __future__ import annotations

from .coxeter import GroupTable, Word, mult_gen
from .laurent import LaurentPoly, ZERO


def leaf_step(
    table: GroupTable, chars: dict[int, LaurentPoly], s: int
) -> dict[int, tuple[LaurentPoly, LaurentPoly]]:
    """Per endpoint, the (movers, stayers) of the word with ``s`` prepended.

    ``chars`` are the word's right-to-left characters.  The leaves at x
    move to sx with their degrees, and stay at x shifted by +1 when
    l(sx) > l(x), by -1 otherwise.
    """
    length = table.length
    # x -> sx and x -> x are both one-to-one: each endpoint gets at most one of each
    movers: dict[int, LaurentPoly] = {}
    stayers: dict[int, LaurentPoly] = {}
    for x, c in chars.items():
        sx = mult_gen(table, x, s, "left")
        movers[sx] = c
        stayers[x] = c.shift(1 if length[sx] > length[x] else -1)
    return {x: (movers.get(x, ZERO), stayers.get(x, ZERO)) for x in movers.keys() | stayers.keys()}


def character_map(table: GroupTable, word: Word) -> dict[int, LaurentPoly]:
    """Sum of v^degree over the leaves of the left-to-right walk, by endpoint in element order."""
    length = table.length
    acc: dict[int, dict[int, int]] = {table.identity: {0: 1}}
    for u in word:
        nxt: dict[int, dict[int, int]] = {}
        for x, c in acc.items():
            xu = mult_gen(table, x, u, "right")
            step = 1 if length[xu] > length[x] else -1
            moved, stayed = nxt.setdefault(xu, {}), nxt.setdefault(x, {})
            for d, n in c.items():
                moved[d] = moved.get(d, 0) + n
                stayed[d + step] = stayed.get(d + step, 0) + n
        acc = nxt
    return {x: LaurentPoly._from_pruned(acc[x]) for x in sorted(acc)}  # counts are positive

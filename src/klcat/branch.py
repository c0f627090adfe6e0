"""Branching of cell and simple module classes along the tail of a word.

Dropping the first letter s of a reduced word embeds the tail's algebra,
and restriction of modules induces a linear map of graded Grothendieck
groups, built once per word by :func:`res_cell_class`.  On cell classes
it acts by

    Res [cell(x)] = v^-1 [cell'(x)] + [cell'(sx)]   if l(sx) < l(x),
                    v    [cell'(x)] + [cell'(sx)]   if l(sx) > l(x),

and on a simple class [L(x)] its coordinates over the tail's simples are
the KL-basis structure constants of C_s * C_u read at x.  Equating the two
routes through the simple basis and isolating the coefficient of the
tail's top simple class re-derives the one-step KL recursion, with its
correction sum over the simple support or over {z : sz < z < tail top}.
:func:`recursion_sides` forms both sums, each ingredient on its own
pipeline (structure constants by KL-basis expansion, never by mu).

A vector of a graded Grothendieck group is a plain ``{id: LaurentPoly}``
dict over a simple-class basis, ids ascending and no zero coordinate, the
form :mod:`klcat.cells` stores its graded dimensions in.  The per-word
functions read the cell data of the word and of its tail (the word minus
its first letter) and the KL table they hold, so none takes a table or
recomputes a per-word quantity.  A decomposition number d_{x,y} = h_{x,y}
is read from the KL table, for y over a simple support, which is small,
and summed by :meth:`~klcat.kl.KLTable.combine`; the word's final-level
leaves, split into movers and stayers, are one
:func:`~klcat.leaves.leaf_step` from its tail's characters.  Column u of
both restriction routes is C_s C_u restricted to [e, w] once the
structure constants of C_s C_u lie inside the word's simple support, so
a run that checks them once per (s, u) reads only
:meth:`~klcat.kl.KLTable.structure_constants` and, for the derived
recursion, :func:`recursion_sides` of the tail top.  The functions
return values and sides, never records: the suites in
:mod:`klcat.verify` build those.
"""

from __future__ import annotations

from .cells import CellDatum
from .coxeter import below_with_descent, bruhat_interval, mult_gen, word_name
from .hecke import _to_vector, left_mul_terms
from .kl import KLTable
from .laurent import LaurentPoly, ZERO
from .leaves import leaf_step


def _check_tail(datum: CellDatum, tail: CellDatum) -> None:
    if not datum.word:
        raise ValueError("branching needs a word of length >= 1")
    if tail.word != datum.word[1:]:
        raise ValueError(f"{word_name(tail.word)} is not the tail of {word_name(datum.word)}")


def res_cell_class(datum: CellDatum, tail: CellDatum) -> dict[int, dict[int, LaurentPoly]]:
    """Image of the cell class of every x below the word, in the tail's simple basis.

    Expands v^{-+1} [cell'(x)] + [cell'(sx)] through the tail's
    decomposition numbers: coordinate at u is v^{-+1} h_{x,u} + h_{sx,u}.
    For each simple u of the tail, that is one :func:`~klcat.hecke.left_mul_terms`
    of the stored h_{y,u} with y below w.
    """
    _check_tail(datum, tail)
    kl, s = tail.kl, datum.word[0]
    acc: dict[int, dict[int, dict[int, int]]] = {x: {} for x in datum.interval}
    for u in tail.simple_gdims:  # the stored h_{u,u} is 1: the expansion checked it
        # s is a left descent of w, so [e, w] is s-stable and holds every sy
        stored = ((y, h) for y, h in kl.kl_element(u).items() if y in acc)
        for x, row in left_mul_terms(kl.table, s, stored).items():
            acc[x][u] = row
    return {x: _to_vector(row) for x, row in acc.items()}


def branching_sides(
    datum: CellDatum, tail: CellDatum
) -> list[tuple[int, LaurentPoly, LaurentPoly, tuple[LaurentPoly, LaurentPoly], tuple[LaurentPoly, LaurentPoly]]]:
    """(x, word character, branching sum, (got sub, got quot), (want sub, want quot)) for every x.

    (a) the cell character of the word at x must equal the branching sum,
        v^{-+1} times the tail character at x plus the tail character at sx;
    (b) the two parts of the final-level leaf partition (the word's
        movers and stayers, one step from the tail's characters) must
        realize exactly the degree multisets of the two summands (shifted
        on the sub side).

    Neither reads the KL table, so no damaged table can fail them.
    """
    _check_tail(datum, tail)
    table = datum.kl.table
    length = table.length
    s = datum.word[0]
    parts = leaf_step(table, tail.cell_chars, s)
    out = []
    for x in datum.interval:
        sx = mult_gen(table, x, s, "left")
        tail_x, tail_sx = tail.cell_chars.get(x, ZERO), tail.cell_chars.get(sx, ZERO)
        movers, stayers = parts.get(x, (ZERO, ZERO))
        if length[sx] < length[x]:
            got, want = (movers, stayers), (tail_sx, tail_x.shift(-1))
        else:
            got, want = (stayers, movers), (tail_x.shift(1), tail_sx)
        out.append((x, datum.cell_chars.get(x, ZERO), want[0] + want[1], got, want))
    return out


def restriction_counts(datum: CellDatum, tail: CellDatum) -> dict[int, dict[int, LaurentPoly]]:
    """Composition multiplicities of every restricted cell module, through structure constants.

    For z below the word's product, the coordinate at u is the sum over x
    in the word's simple support of h_{s,u}^x h_{z,x}: the H_z-coefficient
    of sum h_{s,u}^x C_x, one :meth:`~klcat.kl.KLTable.combine` per simple
    u of the tail.  A structure constant outside the word's simple support
    is never read, nor is :func:`res_cell_class`, the other side of each
    record; as there, the stored h_{x,x} is 1.
    """
    _check_tail(datum, tail)
    kl, s = datum.kl, datum.word[0]
    counts: dict[int, dict[int, LaurentPoly]] = {z: {} for z in datum.interval}
    for u in tail.simple_gdims:
        sc = kl.structure_constants(s, u).items()
        for z, row in kl.combine((x, h) for x, h in sc if x in datum.simple_gdims).items():
            if z in counts and (p := LaurentPoly(row)):
                counts[z][u] = p
    return counts


def derive_kl_recursion(
    datum: CellDatum, images: dict[int, dict[int, LaurentPoly]]
) -> dict[int, tuple[LaurentPoly, LaurentPoly, LaurentPoly]]:
    """:func:`recursion_sides` of the word: its simple support, and the images of :func:`res_cell_class`."""
    kl, s = datum.kl, datum.word[0]
    wp = mult_gen(kl.table, datum.top, s, "left")  # product of the tail
    column = {x: image[wp] for x, image in images.items() if wp in image}
    return recursion_sides(kl, s, wp, kl.structure_constants(s, wp), datum.simple_gdims, column)


def recursion_sides(
    kl: KLTable, s: int, wp: int, sc: dict[int, LaurentPoly], support, column: dict[int, LaurentPoly]
) -> dict[int, tuple[LaurentPoly, LaurentPoly, LaurentPoly]]:
    """(stored h_{x,w}, rhs, alt) for every x below w = s wp, from the branching pipeline alone.

    rhs = (coefficient of the tail-top simple class in Res[cell(x)])
          - sum over z in ``support``, z != w, of h_{s,wp}^z * h_{x,z},

    and alt is rhs with z over {z : sz < z < wp} instead, summed on its
    own.  ``sc`` holds the structure constants h_{s,wp}^z of C_s C_wp,
    from the KL-basis expansion (never from mu); ``support`` is the
    word's simple support, or sc's own; ``column`` maps x to the first
    term, column wp of :func:`res_cell_class`, or C_s C_wp itself.  Each
    sum is one :meth:`~klcat.kl.KLTable.combine`; all three must agree.
    """
    table = kl.table
    w = mult_gen(table, wp, s, "left")
    acc = kl.combine((z, -sc[z]) for z in support if z != w and z in sc)
    alt_acc = kl.combine((z, -sc[z]) for z in below_with_descent(table, s, wp) if z in sc)
    out = {}
    for x in bruhat_interval(table, w):
        first = column.get(x, ZERO)
        row, alt = acc.get(x, {}), alt_acc.get(x, {})
        first.add_to(row)
        first.add_to(alt)
        out[x] = (kl.kl_poly(x, w), LaurentPoly(row), LaurentPoly(alt))
    return out

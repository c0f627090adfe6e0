"""Branching of cell and simple module classes along the tail of a word.

Dropping the first letter s of a reduced word embeds the tail's algebra,
and restriction of modules induces a linear map of graded Grothendieck
groups.  On cell classes it acts by

    Res [cell(x)] = v^-1 [cell'(x)] + [cell'(sx)]   if l(sx) < l(x),
                    v    [cell'(x)] + [cell'(sx)]   if l(sx) > l(x),

and on a simple class [L(x)] its coordinates over the tail's simples are
the KL-basis structure constants of C_s * C_u read at x.  Equating the two
routes through the simple basis and isolating the coefficient of the
tail's top simple class re-derives the one-step KL recursion; that
derivation is executable here as :func:`derive_kl_recursion` and is kept
honest by computing each ingredient on its own pipeline (structure
constants by KL-basis expansion, never by reading mu).

A vector of a graded Grothendieck group is a plain ``{id: LaurentPoly}``
dict over a simple-class basis, ids ascending and no zero coordinate, the
form :mod:`klcat.cells` stores its graded dimensions in.  Every function
reads the cell data of the word and of its tail (the word minus its first
letter), so nothing here recomputes a per-word quantity.  A decomposition
number d_{x,y} = h_{x,y} is read from the KL table, for y over a simple
support, which is small, and summed by :meth:`~klcat.kl.KLTable.combine`;
the word's final-level leaf counts are one :func:`~klcat.leaves.leaf_step`
from its tail's characters.  The functions return values and sides,
never records: the suites in :mod:`klcat.verify` build those.
"""

from __future__ import annotations

from .cells import CellDatum
from .coxeter import mult_gen, word_name
from .hecke import _to_vector
from .kl import KLTable
from .laurent import LaurentPoly, ZERO
from .leaves import leaf_step, split_by_last_bit


def _check_tail(datum: CellDatum, tail: CellDatum) -> None:
    if not datum.word:
        raise ValueError("branching needs a word of length >= 1")
    if tail.word != datum.word[1:]:
        raise ValueError(f"{word_name(tail.word)} is not the tail of {word_name(datum.word)}")


def res_cell_class(datum: CellDatum, tail: CellDatum, x: int) -> dict[int, LaurentPoly]:
    """Image of the cell class of x in the tail's simple basis.

    Expands v^{-+1} [cell'(x)] + [cell'(sx)] through the tail's
    decomposition numbers: coordinate at u is v^{-+1} h_{x,u} + h_{sx,u}.
    """
    _check_tail(datum, tail)
    kl = tail.kl
    table = kl.table
    sx = mult_gen(table, x, datum.word[0], "left")
    shift = -1 if table.length[sx] < table.length[x] else 1
    acc: dict[int, dict[int, int]] = {}
    for u in tail.simple_support:  # the stored h_{u,u} is 1: the expansion checked it
        row = kl.kl_element(u)
        for y, k in ((x, shift), (sx, 0)):
            if (d := row.get(y)) is not None:
                d.add_to(acc.setdefault(u, {}), k)
    return _to_vector(acc)


def branching_sides(
    datum: CellDatum, tail: CellDatum
) -> list[tuple[int, LaurentPoly, LaurentPoly, tuple[LaurentPoly, LaurentPoly], tuple[LaurentPoly, LaurentPoly]]]:
    """(x, word character, branching sum, (got sub, got quot), (want sub, want quot)) for every x.

    (a) the cell character of the word at x must equal the branching sum,
        v^{-+1} times the tail character at x plus the tail character at sx;
    (b) the two parts of the final-level leaf partition (the word's leaf
        counts, one step from the tail's characters, split by their last
        bit) must realize exactly the degree multisets of the two summands
        (shifted on the sub side).
    """
    _check_tail(datum, tail)
    table = datum.kl.table
    length = table.length
    s = datum.word[0]
    parts = split_by_last_bit(leaf_step(table, tail.cell_chars, s))
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


def restriction_counts(kl: KLTable, datum: CellDatum, tail: CellDatum) -> dict[int, dict[int, LaurentPoly]]:
    """Composition multiplicities of every restricted cell module, through structure constants.

    For z below the word's product, the coordinate at u is the sum over x
    in the word's simple support of h_{s,u}^x h_{z,x}: the H_z-coefficient
    of sum h_{s,u}^x C_x, one :meth:`~klcat.kl.KLTable.combine` per simple
    u of the tail.  A structure constant outside the word's simple support
    is never read, and the stored h_{x,x} is 1, as in :func:`res_cell_class`.
    """
    _check_tail(datum, tail)
    s = datum.word[0]
    counts: dict[int, dict[int, LaurentPoly]] = {z: {} for z in datum.interval}
    for u in tail.simple_support:
        sc = kl.structure_constants(s, u).items()
        for z, row in kl.combine((x, h) for x, h in sc if x in datum.simple_gdims).items():
            if z in counts and (p := LaurentPoly(row)):
                counts[z][u] = p
    return counts


def derive_kl_recursion(
    kl: KLTable, datum: CellDatum, images: dict[int, dict[int, LaurentPoly]]
) -> dict[int, tuple[LaurentPoly, LaurentPoly]]:
    """Reproduce h_{x,w} from the branching pipeline alone, for every x below w.

    rhs = (coefficient of the tail-top simple class in Res[cell(x)])
          - sum over z in the word's simple support, z != w, of
            h_{s,tail-top}^z * h_{x,z},

    with the structure constants taken from the KL-basis expansion (never
    from mu) and the first term read off ``images[x]``, the image of
    :func:`res_cell_class`; the sum is one :meth:`~klcat.kl.KLTable.combine`.
    lhs is the stored h_{x,w}; the map sends x to (lhs, rhs), and they must agree.
    """
    w = datum.top
    s = datum.word[0]
    wp = mult_gen(kl.table, w, s, "left")  # product of the tail
    sc = kl.structure_constants(s, wp)
    acc = kl.combine((z, -sc[z]) for z in datum.simple_support if z != w and z in sc)
    out = {}
    for x in datum.interval:
        row = acc.get(x, {})
        images[x].get(wp, ZERO).add_to(row)
        out[x] = (kl.kl_poly(x, w), LaurentPoly(row))
    return out

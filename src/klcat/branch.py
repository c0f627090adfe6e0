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

Every function reads the cell data of the word and of its tail (the word
minus its first letter), so nothing here recomputes a per-word quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import CellDatum
from .coxeter import Word, mult_gen, word_name
from .kl import KLTable
from .laurent import LaurentPoly, ZERO
from .leaves import split_by_last_bit


@dataclass(frozen=True)
class GrothendieckVector:
    """Coordinates over a fixed simple-class basis (zero entries dropped, keys in id order)."""

    basis: tuple[int, ...]
    coords: dict[int, LaurentPoly]

    @classmethod
    def make(cls, basis, coords: dict[int, LaurentPoly]) -> "GrothendieckVector":
        kept = {y: c for y, c in sorted(coords.items()) if c}
        outside = kept.keys() - set(basis)
        if outside:
            raise ValueError(f"coordinates {sorted(outside)} outside the basis")
        return cls(tuple(sorted(basis)), kept)

    def coord(self, y: int) -> LaurentPoly:
        return self.coords.get(y, ZERO)


@dataclass
class ResData:
    """The restriction map in simple-class coordinates."""

    word: Word
    tail: Word
    generator: int
    domain: list[int]  # simple support of the word
    codomain: list[int]  # simple support of the tail
    columns: dict[int, GrothendieckVector]  # domain element -> image vector

    def apply(self, vector: dict[int, LaurentPoly]) -> GrothendieckVector:
        acc: dict[int, dict[int, int]] = {}
        for x, c in vector.items():
            for u, h in self.columns[x].coords.items():
                d = acc.setdefault(u, {})
                for e, k in c.items():
                    h.add_to(d, e, k)
        return GrothendieckVector.make(self.codomain, {u: LaurentPoly(d) for u, d in acc.items()})


def _check_tail(datum: CellDatum, tail: CellDatum) -> None:
    if not datum.word:
        raise ValueError("branching needs a word of length >= 1")
    if tail.word != datum.word[1:]:
        raise ValueError(f"{word_name(tail.word)} is not the tail of {word_name(datum.word)}")


def build_res(kl: KLTable, datum: CellDatum, tail: CellDatum) -> ResData:
    """Restriction matrix on simple classes: column of x is u -> h_{s,u}^x."""
    _check_tail(datum, tail)
    s = datum.word[0]
    columns: dict[int, dict[int, LaurentPoly]] = {x: {} for x in datum.simple_support}
    for u in tail.simple_support:
        for x, h in kl.structure_constants(s, u).items():
            if x not in columns:
                raise ValueError(
                    f"structure constant support {kl.table.names[x]} escapes the simple support of {word_name(datum.word)}"
                )
            columns[x][u] = h
    codomain = tail.simple_support
    return ResData(
        word=datum.word,
        tail=tail.word,
        generator=s,
        domain=datum.simple_support,
        codomain=codomain,
        columns={x: GrothendieckVector.make(codomain, col) for x, col in columns.items()},
    )


def res_cell_class(datum: CellDatum, tail: CellDatum, x: int) -> GrothendieckVector:
    """Image of the cell class of x in the tail's simple basis.

    Expands v^{-+1} [cell'(x)] + [cell'(sx)] through the tail's
    decomposition numbers: coordinate at u is v^{-+1} h_{x,u} + h_{sx,u}.
    """
    _check_tail(datum, tail)
    table = tail.table
    sx = mult_gen(table, x, datum.word[0], "left")
    shift = -1 if table.length[sx] < table.length[x] else 1
    acc: dict[int, dict[int, int]] = {}
    for y, k in ((x, shift), (sx, 0)):
        for u, d in tail.decomp.get(y, {}).items():  # u over the tail's simple support
            d.add_to(acc.setdefault(u, {}), k)
    return GrothendieckVector.make(tail.simple_support, {u: LaurentPoly(c) for u, c in acc.items()})


def verify_branching(datum: CellDatum, tail: CellDatum) -> list[dict]:
    """Character and leaf-partition checks for every x below the word's product.

    (a) the cell character of the word at x equals v^{-+1} times the tail
        character at x plus the tail character at sx;
    (b) the two parts of the final-level leaf partition (the word's leaf
        counts split by their last bit) realize exactly the degree
        multisets of the two summands (shifted on the sub side).
    """
    _check_tail(datum, tail)
    table = datum.table
    length, names = table.length, table.names
    s = datum.word[0]
    name = word_name(datum.word)
    records = []
    parts = split_by_last_bit(datum.leaves)
    for x in datum.interval:
        sx = mult_gen(table, x, s, "left")
        tail_x, tail_sx = tail.cell_chars.get(x, ZERO), tail.cell_chars.get(sx, ZERO)
        movers, stayers = parts.get(x, (ZERO, ZERO))
        if length[sx] < length[x]:
            want_sub, want_quot = tail_sx, tail_x.shift(-1)
            got_sub, got_quot = movers, stayers
        else:
            want_sub, want_quot = tail_x.shift(1), tail_sx
            got_sub, got_quot = stayers, movers
        lhs = datum.cell_chars.get(x, ZERO)
        rhs = want_sub + want_quot
        ok = lhs == rhs
        rendered = rhs.render()
        records.append(
            {
                "identity": "branching_characters",
                "word": name,
                "x": names[x],
                "lhs": rendered if ok else lhs.render(),
                "rhs": rendered,
                "pass": ok,
            }
        )
        ok = got_sub == want_sub and got_quot == want_quot
        rendered = f"sub={want_sub.items()} quot={want_quot.items()}"
        records.append(
            {
                "identity": "leaf_partition",
                "word": name,
                "x": names[x],
                "lhs": rendered if ok else f"sub={got_sub.items()} quot={got_quot.items()}",
                "rhs": rendered,
                "pass": ok,
            }
        )
    return records


def restriction_counts(res: ResData, datum: CellDatum) -> dict[int, GrothendieckVector]:
    """Composition multiplicities of every restricted cell module, through structure constants.

    For z below the word's product, the coordinate at u is the sum over x
    in the word's simple support of h_{s,u}^x h_{z,x}: the matrix of Res
    applied to the decomposition vector of z.
    """
    return {z: res.apply(datum.decomp.get(z, {})) for z in datum.interval}


def verify_restriction_counts(
    datum: CellDatum,
    tail: CellDatum,
    counts: dict[int, GrothendieckVector],
    images: dict[int, GrothendieckVector],
) -> list[dict]:
    """Composition multiplicities of a restricted cell module, two ways.

    For every z below the word's product and every u in the tail's simple
    support, the count through structure constants, ``counts[z]`` (see
    :func:`restriction_counts`), must match the coordinate at u of
    ``images[z]``, the restricted cell class.
    """
    _check_tail(datum, tail)
    names = datum.table.names
    name = word_name(datum.word)
    records = []
    for z in datum.interval:
        counted, image = counts[z].coords, images[z].coords
        for u in tail.simple_support:
            lhs, rhs = counted.get(u), image.get(u)
            if lhs is None and rhs is None:
                ok, lhs_text, rhs_text = True, "0", "0"
            else:
                lhs, rhs = lhs or ZERO, rhs or ZERO
                ok = lhs == rhs
                rhs_text = rhs.render()
                lhs_text = rhs_text if ok else lhs.render()
            records.append(
                {
                    "identity": "restriction_counts",
                    "word": name,
                    "x": names[z],
                    "u": names[u],
                    "lhs": lhs_text,
                    "rhs": rhs_text,
                    "pass": ok,
                }
            )
    return records


def derive_kl_recursion(
    kl: KLTable, datum: CellDatum, images: dict[int, GrothendieckVector]
) -> dict[int, tuple[LaurentPoly, LaurentPoly]]:
    """Reproduce h_{x,w} from the branching pipeline alone, for every x below w.

    rhs = (coefficient of the tail-top simple class in Res[cell(x)])
          - sum over z in the word's simple support, z != w, of
            h_{s,tail-top}^z * h_{x,z},

    with the structure constants taken from the KL-basis expansion (never
    from mu) and the first term read off ``images[x]``, the image of
    :func:`res_cell_class`.  lhs is the stored h_{x,w}; the map sends x to
    (lhs, rhs), and the two must agree.
    """
    w = datum.top
    s = datum.word[0]
    wp = mult_gen(kl.table, w, s, "left")  # product of the tail
    sc = kl.structure_constants(s, wp)
    out = {}
    for x in datum.interval:
        acc: dict[int, int] = {}
        images[x].coord(wp).add_to(acc)
        for z, d in datum.decomp.get(x, {}).items():  # z over the simple support
            h = sc.get(z)
            if h and z != w:
                for e, k in h.items():
                    d.add_to(acc, e, -k)
        out[x] = (kl.kl_poly(x, w), LaurentPoly(acc))
    return out

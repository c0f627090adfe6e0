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
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import Word, bruhat_interval, evaluate_word, is_reduced, mult_gen, word_name
from .kl import KLTable
from .laurent import LaurentPoly, ZERO
from .leaves import character_map, split_top_generator


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
        acc: dict[int, LaurentPoly] = {}
        for x, c in vector.items():
            for u, h in self.columns[x].coords.items():
                acc[u] = acc.get(u, ZERO) + h * c
        return GrothendieckVector.make(self.codomain, acc)


def _checked_word(kl: KLTable, word: Word) -> Word:
    """``word`` as a tuple, after checking that it is reduced and not empty."""
    word = tuple(word)
    if not word:
        raise ValueError("branching needs a word of length >= 1")
    if not is_reduced(kl.table, word):
        raise ValueError(f"word {word_name(word)} is not reduced")
    return word


def build_res(kl: KLTable, word: Word) -> ResData:
    """Restriction matrix on simple classes: column of x is u -> h_{s,u}^x."""
    word = _checked_word(kl, word)
    s, tail = word[0], word[1:]
    domain = sorted(kl.bott_samelson_expansion(word))
    codomain = sorted(kl.bott_samelson_expansion(tail))
    columns: dict[int, dict[int, LaurentPoly]] = {x: {} for x in domain}
    for u in codomain:
        for x, h in kl.structure_constants(s, u).items():
            if x not in columns:
                raise ValueError(
                    f"structure constant support {kl.table.names[x]} escapes the simple support of {word_name(word)}"
                )
            columns[x][u] = h
    return ResData(
        word=word,
        tail=tail,
        generator=s,
        domain=domain,
        codomain=codomain,
        columns={x: GrothendieckVector.make(codomain, col) for x, col in columns.items()},
    )


def res_cell_class(kl: KLTable, word: Word, x: int) -> GrothendieckVector:
    """Image of the cell class of x in the tail's simple basis.

    Expands v^{-+1} [cell'(x)] + [cell'(sx)] through the tail's
    decomposition numbers: coordinate at u is v^{-+1} h_{x,u} + h_{sx,u}.
    """
    word = _checked_word(kl, word)
    s, tail = word[0], word[1:]
    sx = mult_gen(kl.table, x, s, "left")
    shift = -1 if kl.table.length[sx] < kl.table.length[x] else 1
    codomain = sorted(kl.bott_samelson_expansion(tail))
    coords = {}
    for u in codomain:
        coords[u] = kl.kl_poly(x, u).shift(shift) + kl.kl_poly(sx, u)
    return GrothendieckVector.make(codomain, coords)


def verify_branching(kl: KLTable, word: Word) -> list[dict]:
    """Character and leaf-partition checks for every x below the word's product.

    (a) the cell character of the word at x equals v^{-+1} times the tail
        character at x plus the tail character at sx;
    (b) the two parts of the final-level leaf partition realize exactly the
        degree multisets of the two summands (shifted on the sub side).
    """
    word = _checked_word(kl, word)
    table = kl.table
    length, names = table.length, table.names
    s, tail = word[0], word[1:]
    name = word_name(word)
    records = []
    word_chars = character_map(table, word)
    tail_chars = character_map(table, tail)
    parts = split_top_generator(table, word)
    for x in bruhat_interval(table, evaluate_word(table, word)):
        sx = mult_gen(table, x, s, "left")
        tail_x, tail_sx = tail_chars.get(x, ZERO), tail_chars.get(sx, ZERO)
        if length[sx] < length[x]:
            want_sub, want_quot = tail_sx, tail_x.shift(-1)
        else:
            want_sub, want_quot = tail_x.shift(1), tail_sx
        lhs = word_chars.get(x, ZERO)
        rhs = want_sub + want_quot
        records.append(
            {
                "identity": "branching_characters",
                "word": name,
                "x": names[x],
                "lhs": lhs.render(),
                "rhs": rhs.render(),
                "pass": lhs == rhs,
            }
        )
        part_sub, part_quot = parts.get(x, ([], []))
        got_sub = LaurentPoly.from_terms((p.degree, 1) for p in part_sub)
        got_quot = LaurentPoly.from_terms((p.degree, 1) for p in part_quot)
        ok = got_sub == want_sub and got_quot == want_quot
        records.append(
            {
                "identity": "leaf_partition",
                "word": name,
                "x": names[x],
                "lhs": f"sub={got_sub.items()} quot={got_quot.items()}",
                "rhs": f"sub={want_sub.items()} quot={want_quot.items()}",
                "pass": ok,
            }
        )
    return records


def verify_restriction_counts(kl: KLTable, word: Word) -> list[dict]:
    """Composition multiplicities of a restricted cell module, two ways.

    For every z below the word's product and every u in the tail's simple
    support, the count through structure constants,
    sum over x in the word's simple support of h_{s,u}^x h_{z,x}, must
    match the coordinate of the restricted cell class at u.
    """
    word = _checked_word(kl, word)
    names = kl.table.names
    name = word_name(word)
    s = word[0]
    domain = sorted(kl.bott_samelson_expansion(word))
    codomain = sorted(kl.bott_samelson_expansion(word[1:]))
    sc = {u: kl.structure_constants(s, u) for u in codomain}
    records = []
    for z in bruhat_interval(kl.table, evaluate_word(kl.table, word)):
        image = res_cell_class(kl, word, z)
        for u in codomain:
            lhs = ZERO
            for x in domain:
                h = sc[u].get(x, ZERO)
                if h:
                    lhs = lhs + h * kl.kl_poly(z, x)
            rhs = image.coord(u)
            records.append(
                {
                    "identity": "restriction_counts",
                    "word": name,
                    "x": names[z],
                    "u": names[u],
                    "lhs": lhs.render(),
                    "rhs": rhs.render(),
                    "pass": lhs == rhs,
                }
            )
    return records


def derive_kl_recursion(kl: KLTable, word: Word, x: int) -> tuple[LaurentPoly, LaurentPoly, bool]:
    """Reproduce h_{x,w} from the branching pipeline alone.

    rhs = (coefficient of the tail-top simple class in Res[cell(x)])
          - sum over z in the word's simple support, z != w, of
            h_{s,tail-top}^z * h_{x,z},

    with the structure constants taken from the KL-basis expansion (never
    from mu) and the first term read off :func:`res_cell_class`.  lhs is
    the stored h_{x,w}; the two must agree.
    """
    word = _checked_word(kl, word)
    w = evaluate_word(kl.table, word)
    s = word[0]
    wp = mult_gen(kl.table, w, s, "left")  # product of the tail
    support = sorted(kl.bott_samelson_expansion(word))
    sc = kl.structure_constants(s, wp)
    lhs = kl.kl_poly(x, w)
    rhs = res_cell_class(kl, word, x).coord(wp)
    for z in support:
        if z == w:
            continue
        h = sc.get(z, ZERO)
        if h:
            rhs = rhs - h * kl.kl_poly(x, z)
    return lhs, rhs, lhs == rhs

"""Graded cell data attached to a reduced expression.

For a reduced word of w the cell modules are indexed by the Bruhat
interval below w.  The graded simple modules are supported on the subset
of the interval carrying a nonzero coefficient when the word's chain
product of shifted generators is expanded in the KL basis; that
coefficient is the graded dimension of the simple module, and the graded
decomposition number d_{x,y} equals the KL polynomial h_{x,y}.

There is no intrinsic (form-theoretic) computation of the simple support
here: the KL-side expansion is the adopted definition, consistent with
reading everything at the level of graded characters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coxeter import GroupTable, Word, bruhat_interval, evaluate_word, is_reduced, word_name
from .kl import KLTable
from .laurent import LaurentPoly, ZERO
from .leaves import character_map


@dataclass
class CellDatum:
    table: GroupTable = field(repr=False)
    word: Word
    top: int
    interval: list[int]
    simple_support: list[int]
    cell_chars: dict[int, LaurentPoly]
    simple_gdims: dict[int, LaurentPoly]
    decomp: dict[tuple[int, int], LaurentPoly] = field(repr=False)

    def decomposition(self, x: int, y: int) -> LaurentPoly:
        return self.decomp.get((x, y), ZERO)


def build_cell_datum(kl: KLTable, word: Word) -> CellDatum:
    """Assemble interval, simple support, graded dimensions, characters, decomposition.

    Rejects non-reduced words: the statements packaged here are only
    asserted for reduced expressions.
    """
    table = kl.table
    word = tuple(word)
    if not is_reduced(table, word):
        raise ValueError(f"word {word_name(word)} is not reduced")
    w = evaluate_word(table, word)
    if len(word) > kl.complete_up_to:
        raise ValueError(f"KL table bound {kl.complete_up_to} does not cover {table.names[w]}")
    gdims = kl.bott_samelson_expansion(word)
    support = sorted(gdims)
    interval = bruhat_interval(table, w)
    decomp = {}
    for y in support:
        for x in interval:
            d = kl.kl_poly(x, y)
            if d:
                decomp[(x, y)] = d
    return CellDatum(
        table=table,
        word=word,
        top=w,
        interval=interval,
        simple_support=support,
        cell_chars=character_map(table, word),
        simple_gdims=dict(gdims),
        decomp=decomp,
    )


def char_cell_via_hecke(kl: KLTable, word: Word, x: int) -> LaurentPoly:
    """Cell character read off the Hecke side: the H_x-coefficient of the chain product."""
    from .hecke import bott_samelson_class

    return bott_samelson_class(kl.table, tuple(word)).coeff(x)


def verify_decomposition_identity(datum: CellDatum) -> dict:
    """Check char(x) = sum over the simple support of d_{x,y} * gdim(y), per x."""
    names = datum.table.names
    checks = []
    for x in datum.interval:
        lhs = datum.cell_chars.get(x, ZERO)
        rhs = ZERO
        for y in datum.simple_support:
            rhs = rhs + datum.decomposition(x, y) * datum.simple_gdims[y]
        checks.append(
            {
                "x": names[x],
                "lhs": lhs.to_json_obj(),
                "rhs": rhs.to_json_obj(),
                "pass": lhs == rhs,
            }
        )
    return {
        "word": word_name(datum.word),
        "lambda0": [names[y] for y in datum.simple_support],
        "simple_gdims": [[names[y], datum.simple_gdims[y].to_json_obj()] for y in datum.simple_support],
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }

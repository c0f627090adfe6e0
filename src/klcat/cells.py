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

A :class:`CellDatum` is the per-word record every word suite reads: the
chain product (a standard-basis ``{id: LaurentPoly}`` dict), the
right-to-left leaf counts, the characters, the simple support with its
graded dimensions, and the decomposition numbers.  Built
from the datum of its tail (the word minus its first letter), the chain
product and the leaf counts cost one generator step each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coxeter import GroupTable, Word, bruhat_interval, evaluate_word, is_reduced, mult_gen, word_name
from .hecke import bott_samelson_class, left_mul_kl
from .kl import KLTable
from .laurent import LaurentPoly, ONE, ZERO
from .leaves import LeafCounts, characters, leaf_counts, leaf_step


@dataclass
class CellDatum:
    """The graded cell data of one reduced word, each piece computed once."""

    table: GroupTable = field(repr=False)
    word: Word
    top: int
    interval: list[int]
    simple_support: list[int]
    cell_chars: dict[int, LaurentPoly]
    simple_gdims: dict[int, LaurentPoly]
    decomp: dict[int, dict[int, LaurentPoly]] = field(repr=False)  # x -> {y: d_{x,y}}
    chain: dict[int, LaurentPoly] = field(repr=False)  # C_{s_1} ... C_{s_n} in the standard basis
    leaves: LeafCounts = field(repr=False)  # right-to-left leaf counts

    def decomposition(self, x: int, y: int) -> LaurentPoly:
        return self.decomp.get(x, {}).get(y, ZERO)


def build_cell_datum(kl: KLTable, word: Word, tail: CellDatum | None = None) -> CellDatum:
    """Assemble interval, simple support, graded dimensions, characters, decomposition.

    Rejects non-reduced words: the statements packaged here are only
    asserted for reduced expressions.  Given ``tail``, the datum of the
    word minus its first letter s, the chain product is C_s times the
    tail's, the leaf counts are one level deeper than the tail's, and the
    word is reduced exactly when s lengthens the tail's product.
    """
    table = kl.table
    word = tuple(word)
    if tail is None:
        if not is_reduced(table, word):
            raise ValueError(f"word {word_name(word)} is not reduced")
        w = evaluate_word(table, word)
        chain = bott_samelson_class(table, word)
        counts = leaf_counts(table, word)
    else:
        if not word or tail.word != word[1:]:
            raise ValueError(f"{word_name(tail.word)} is not the tail of {word_name(word)}")
        w = mult_gen(table, tail.top, word[0], "left")
        if table.length[w] != len(word):
            raise ValueError(f"word {word_name(word)} is not reduced")
        chain = left_mul_kl(table, word[0], tail.chain)
        counts = leaf_step(table, tail.leaves, word[0])
    if len(word) > kl.complete_up_to:
        raise ValueError(f"KL table bound {kl.complete_up_to} does not cover {table.names[w]}")
    gdims = kl.expand_in_kl_basis(chain)
    support = sorted(gdims)
    # d_{x,y} = h_{x,y} as stored (ids ascending), the diagonal read as 1 (as kl_poly reads it)
    decomp: dict[int, dict[int, LaurentPoly]] = {}
    for y in support:
        for x, d in kl.kl_element(y).items():
            if x != y:
                decomp.setdefault(x, {})[y] = d
        decomp.setdefault(y, {})[y] = ONE
    return CellDatum(
        table=table,
        word=word,
        top=w,
        interval=bruhat_interval(table, w),
        simple_support=support,
        cell_chars=characters(counts),
        simple_gdims=gdims,
        decomp=decomp,
        chain=chain,
        leaves=counts,
    )


def decomposition_sides(datum: CellDatum) -> list[tuple[int, LaurentPoly, LaurentPoly]]:
    """(x, char(x), sum over the simple support of d_{x,y} * gdim(y)) for every x."""
    out = []
    for x in datum.interval:
        acc: dict[int, int] = {}
        for y, d in datum.decomp.get(x, {}).items():
            for e, k in datum.simple_gdims[y].items():
                d.add_to(acc, e, k)
        out.append((x, datum.cell_chars.get(x, ZERO), LaurentPoly(acc)))
    return out


def verify_decomposition_identity(datum: CellDatum) -> dict:
    """Check char(x) = sum over the simple support of d_{x,y} * gdim(y), per x."""
    names = datum.table.names
    checks = [
        {"x": names[x], "lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj(), "pass": lhs == rhs}
        for x, lhs, rhs in decomposition_sides(datum)
    ]
    return {
        "word": word_name(datum.word),
        "lambda0": [names[y] for y in datum.simple_support],
        "simple_gdims": [[names[y], datum.simple_gdims[y].to_json_obj()] for y in datum.simple_support],
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }

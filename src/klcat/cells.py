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

A :class:`CellDatum` is the record of one reduced word that the word
suites read, built once per key (first letter, commutation class of the
tail): the interval (the tuple :func:`~klcat.coxeter.bruhat_interval`
memoizes), the characters (the chain product, a standard-basis ``{id:
LaurentPoly}`` dict), and the graded dimensions, keyed by the simple
support in ascending order.
A datum is built one way: stepped from the datum of its tail (the word
minus its first letter), its characters cost one generator step and its
reducedness one length comparison; for a word given without its tail's
datum the top element and the characters are stepped from the empty
word's through its suffixes, and the datum is built once.  The decomposition
numbers are read from the KL table, not copied, and summed against the
graded dimensions by :meth:`~klcat.kl.KLTable.combine`.  The final-level
leaf split is not kept: the branch suite steps a word's from its tail's
characters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coxeter import Word, bruhat_interval, mult_gen, word_name
from .hecke import left_mul_kl
from .kl import KLTable
from .laurent import LaurentPoly, ONE, ZERO


@dataclass
class CellDatum:
    """The graded cell data of one reduced word, each piece computed once;
    ``interval`` is the table's shared tuple [e, top], not a copy."""

    kl: KLTable = field(repr=False)
    word: Word
    top: int
    interval: tuple[int, ...]
    cell_chars: dict[int, LaurentPoly]  # C_{s_1} ... C_{s_n} in the standard basis
    simple_gdims: dict[int, LaurentPoly]  # keyed by the simple support, ids ascending


def build_cell_datum(kl: KLTable, word: Word, tail: CellDatum | None = None) -> CellDatum:
    """Assemble interval, characters and graded dimensions over the simple support.

    The datum is stepped from ``tail``, that of the word minus its first
    letter s: its characters are C_s times the tail's, and the word is
    reduced exactly when s lengthens the tail's product.  Without a tail
    the top element and the characters are stepped from the empty word's
    through the word's suffixes, with the same checks, and only the whole
    word's characters are expanded in the KL basis.  A non-reduced word is
    rejected by name, as its statements need not hold.
    """
    table = kl.table
    word = tuple(word)
    if tail is None:
        top, chars, suffixes = table.identity, {table.identity: ONE}, range(len(word) - 1, -1, -1)
    elif not word or tail.word != word[1:]:
        raise ValueError(f"{word_name(tail.word)} is not the tail of {word_name(word)}")
    else:
        top, chars, suffixes = tail.top, tail.cell_chars, (0,)
    for k in suffixes:
        s, n = word[k], len(word) - k
        top = mult_gen(table, top, s, "left")
        if table.length[top] != n:
            raise ValueError(f"word {word_name(word)} is not reduced")
        if n > kl.complete_up_to:
            raise ValueError(f"KL table bound {kl.complete_up_to} does not cover {table.names[top]}")
        chars = left_mul_kl(table, s, chars)
    return CellDatum(kl, word, top, bruhat_interval(table, top), chars, kl.expand_in_kl_basis(chars))


def decomposition_sides(datum: CellDatum) -> list[tuple[int, LaurentPoly, LaurentPoly]]:
    """(x, char(x), sum over the simple support of d_{x,y} * gdim(y)) for every x.

    The sum is sum gdim(y) C_y (:meth:`~klcat.kl.KLTable.combine`); each
    stored h_{y,y} is 1, since the KL-basis expansion checked it.
    """
    acc = datum.kl.combine(datum.simple_gdims.items())
    return [(x, datum.cell_chars.get(x, ZERO), LaurentPoly(acc.get(x))) for x in datum.interval]


def verify_decomposition_identity(datum: CellDatum) -> dict:
    """Check char(x) = sum over the simple support of d_{x,y} * gdim(y), per x."""
    names = datum.kl.table.names
    checks = [
        {"x": names[x], "lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj(), "pass": lhs == rhs}
        for x, lhs, rhs in decomposition_sides(datum)
    ]
    return {
        "word": word_name(datum.word),
        "lambda0": [names[y] for y in datum.simple_gdims],
        "simple_gdims": [[names[y], g.to_json_obj()] for y, g in datum.simple_gdims.items()],
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }

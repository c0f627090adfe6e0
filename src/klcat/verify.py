"""Exhaustive verification suites over one group table.

Each suite walks every stored element (and every reduced word, where the
checked statement is per-expression) and emits one record per identity
instance: ``{identity, word, x?, u?, lhs, rhs, pass}``.  Suites run
serially, element by element and word by word, in a fixed order.  The
records are built only here: :mod:`klcat.cells` and :mod:`klcat.branch`
return the two sides of each identity, and this module compares and
renders them.

The word suites share one pass over the reduced words in length order.
Each word gets one context, its :class:`~klcat.cells.CellDatum`, built
from its tail's (the word minus its first letter) in the previous length
layer: the chain product and the right-to-left leaf counts are one
generator step from the tail's, and reducedness is read off one length.
The restricted cell class of every (word, x) is computed once and read by
both the branch and the recursion suite.  A passing record renders its
equal sides once.

Suites:
  * ``kl``        - KL basis invariants and the two single-step recursions
                    against the defining algorithm, each recursion
                    evaluated once per (w, s) for every x;
  * ``leaves``    - leaf characters against Hecke coefficients (the
                    left-to-right walk: the right-to-left count is the
                    chain product's own recurrence), direction
                    independence, support, cell decomposition identities;
  * ``branch``    - branching characters, leaf partitions, restriction
                    multiplicities two ways, restriction as a linear map;
  * ``recursion`` - the derived one-step recursion from the branching
                    pipeline, plus the correction-index consistency check;
  * ``all``       - all of the above.
"""

from __future__ import annotations

import functools

from . import branch as branch_mod
from . import cells as cells_mod
from .cells import CellDatum
from .coxeter import (
    GroupTable,
    IncompleteTableError,
    Word,
    all_reduced_words,
    bruhat_interval,
    bruhat_leq,
    descents,
    mult_gen,
    word_name,
)
from .hecke import bar_involution
from .kl import (
    KLTable,
    classical_recursion_column,
    compute_kl,
    recursion_column,
    to_classical,
)
from .laurent import LaurentPoly, ONE, ZERO
from .leaves import character_map

SUITES = ("kl", "leaves", "branch", "recursion", "all")


def _record(identity: str, word: str, ok: bool, lhs: str = "", rhs: str = "", **extra) -> dict:
    rec = {"identity": identity, "word": word, "pass": ok}
    if lhs or rhs:
        rec["lhs"] = lhs
        rec["rhs"] = rhs
    rec.update(extra)
    return rec


def reduced_words_in_order(table: GroupTable) -> list[Word]:
    """Every reduced word of every stored element, deterministic order."""
    out: list[Word] = []
    for w in table.elements:
        out.extend(sorted(all_reduced_words(table, w)))
    return out


# -- kl suite ---------------------------------------------------------------


def _kl_element_checks(kl: KLTable, w: int) -> list[dict]:
    table = kl.table
    length, names = table.length, table.names
    elt = kl.kl_element(w)
    name = names[w]
    records = []
    records.append(
        _record(
            "bar_invariance",
            name,
            bar_involution(table, elt) == elt,
            lhs="bar(C_w)",
            rhs="C_w",
        )
    )
    positive = all(c.in_positive_part() for x, c in elt.items() if x != w)
    records.append(_record("positive_degrees", name, positive))
    parity_ok = all(
        all((e - (length[w] - length[x])) % 2 == 0 for e in c.exponents())
        for x, c in elt.items()
    )
    records.append(_record("exponent_parity", name, parity_ok))
    records.append(
        _record("positivity", name, all(c.is_nonnegative() for _, c in elt.items()))
    )
    lower = {x for x in elt if length[x] <= length[w]}
    support_ok = elt.get(w, ZERO).coefficient(0) == 1 and lower | {w} == set(bruhat_interval(table, w))
    records.append(_record("kl_support", name, support_ok))
    stored = kl.stored_elements()
    for s in descents(table, w, "left"):
        column = recursion_column(kl, w, s)
        columnq = classical_recursion_column(kl, w, s)
        label = f"s{s + 1}"
        for x in stored:
            # a passing record's two sides are equal, so they are rendered once
            got = column.get(x, ZERO)
            want = kl.kl_poly(x, w)
            ok = got == want
            rhs = want.render()
            records.append(
                _record(
                    "recursion_agreement",
                    name,
                    ok,
                    lhs=rhs if ok else got.render(),
                    rhs=rhs,
                    x=names[x],
                    s=label,
                )
            )
            gotq = columnq.get(x, ZERO)
            wantq = _classical_or_none(want, length[x], length[w]) if x in columnq else ZERO
            ok = gotq is not None and gotq == wantq
            rhs = _render_q(wantq)
            records.append(
                _record(
                    "classical_recursion_agreement",
                    name,
                    ok,
                    lhs=rhs if ok else _render_q(gotq),
                    rhs=rhs,
                    x=names[x],
                    s=label,
                )
            )
    return records


def _classical_or_none(h: LaurentPoly, lx: int, lw: int) -> LaurentPoly | None:
    """P_{x,w} of a stored h_{x,w}, or None when h is not a classical polynomial."""
    try:
        return to_classical(h, lx, lw)
    except ValueError:
        return None


def _render_q(p: LaurentPoly | None) -> str:
    return "undefined" if p is None else p.render("q")


def _mu_structure_checks(kl: KLTable, u: int) -> list[dict]:
    """C_s * C_u in the KL basis: positivity, and for ascending products the
    coefficient at su is 1 while the rest is mu(z,u) on {z : sz < z} and 0
    elsewhere (without the descent condition the identity is false: for
    instance C_s C_t = C_st although mu(e,t) = 1)."""
    table = kl.table
    length = table.length
    name = table.names[u]
    records = []
    for s in range(table.rank):
        try:
            su = mult_gen(table, u, s, "left")
        except IncompleteTableError:
            continue
        if length[su] > kl.complete_up_to:
            continue
        sc = kl.structure_constants(s, u)
        records.append(
            _record(
                "structure_positivity",
                name,
                all(c.is_nonnegative() for c in sc.values()),
                s=f"s{s + 1}",
            )
        )
        if length[su] > length[u]:
            expected: dict[int, LaurentPoly] = {su: LaurentPoly({0: 1})}
            for z in bruhat_interval(table, su):
                if z == su or s not in descents(table, z, "left"):
                    continue
                m = kl.mu(z, u)
                if m:
                    expected[z] = LaurentPoly({0: m})
            records.append(
                _record(
                    "mu_structure_constants",
                    name,
                    sc == expected,
                    lhs=_vec_render(table, sc),
                    rhs=_vec_render(table, expected),
                    s=f"s{s + 1}",
                )
            )
    return records


def _descent_choice_check(table: GroupTable, kl: KLTable) -> list[dict]:
    other = compute_kl(table, kl.complete_up_to, descent_choice="max")
    same = all(
        other.kl_element(w) == kl.kl_element(w) for w in kl.stored_elements()
    )
    return [_record("descent_choice_independence", "*", same)]


# -- word suites --------------------------------------------------------------


def _leaves_word_checks(kl: KLTable, datum: CellDatum) -> list[dict]:
    """Leaf characters against the Hecke side, support, direction, decomposition.

    The Hecke side is the chain product, which is the same recurrence as
    the right-to-left leaf count, so it is compared with the left-to-right
    walk; the two walks are compared with each other.
    """
    table = kl.table
    names = table.names
    word = datum.word
    name = word_name(word)
    records = []
    mirrored = character_map(table, word, "lr")
    chain = datum.chain
    for x in datum.interval:
        lhs = mirrored.get(x, ZERO)
        rhs = chain.get(x, ZERO)
        records.append(_record_sides("char_leaves_vs_hecke", name, lhs, rhs, x=names[x]))
    support_ok = set(mirrored) == set(datum.interval) and chain == mirrored
    records.append(_record("char_support", name, support_ok))
    records.append(_record("direction_independence", name, mirrored == datum.cell_chars))
    records.append(_record("leaf_count", name, sum(datum.leaves.values()) == 2 ** len(word)))
    for x, lhs, rhs in cells_mod.decomposition_sides(datum):
        records.append(_record_sides("decomposition_identity", name, lhs, rhs, x=names[x]))
    gdim_ok = (
        all(c.bar() == c and c.is_nonnegative() for c in datum.simple_gdims.values())
        and datum.simple_gdims.get(datum.top) == ONE
    )
    records.append(_record("gdim_bar_symmetric_nonneg", name, gdim_ok))
    interval = set(datum.interval)
    triangular = all(y in interval for y in datum.simple_support) and all(
        bruhat_leq(table, x, y) for x in datum.interval for y in datum.decomp.get(x, {})
    )
    records.append(_record("decomposition_triangularity", name, triangular))
    return records


def _sides(lhs, rhs, render) -> tuple[bool, str, str]:
    """(pass, rendered lhs, rendered rhs); a passing comparison renders its equal sides once."""
    ok = lhs == rhs
    rendered = render(rhs)
    return ok, rendered if ok else render(lhs), rendered


def _record_sides(identity: str, word: str, lhs, rhs, render=LaurentPoly.render, **extra) -> dict:
    """A record comparing two values, in :func:`_record`'s key order."""
    ok, lhs_text, rhs_text = _sides(lhs, rhs, render)
    return _record(identity, word, ok, lhs=lhs_text, rhs=rhs_text, **extra)


def _spot_record_sides(identity: str, word: str, lhs, rhs, render=LaurentPoly.render, **spot) -> dict:
    """A record comparing two values, its spot keys (x, u) before its sides and ``pass`` last."""
    ok, lhs_text, rhs_text = _sides(lhs, rhs, render)
    return {"identity": identity, "word": word, **spot, "lhs": lhs_text, "rhs": rhs_text, "pass": ok}


def _branch_word_checks(
    kl: KLTable, datum: CellDatum, tail: CellDatum, images: dict[int, dict[int, LaurentPoly]]
) -> list[dict]:
    name = word_name(datum.word)
    names = kl.table.names
    records = []
    for x, lhs, rhs, got, want in branch_mod.branching_sides(datum, tail):
        records.append(_spot_record_sides("branching_characters", name, lhs, rhs, x=names[x]))
        records.append(_spot_record_sides("leaf_partition", name, got, want, _partition_render, x=names[x]))
    # restriction multiplicities two ways: through structure constants, and
    # read off the restricted cell class
    counts = branch_mod.restriction_counts(kl, datum, tail)
    for z in datum.interval:
        counted, image = counts[z], images[z]
        for u in tail.simple_support:
            lhs, rhs = counted.get(u, ZERO), image.get(u, ZERO)
            records.append(_spot_record_sides("restriction_counts", name, lhs, rhs, x=names[z], u=names[u]))
    render = functools.partial(_vec_render, kl.table)
    for x in datum.interval:
        # Res applied to the decomposition vector of x, against the direct image
        records.append(_record_sides("res_linear_map", name, counts[x], images[x], render, x=names[x]))
    return records


def _partition_render(parts: tuple[LaurentPoly, LaurentPoly]) -> str:
    sub, quot = parts
    return f"sub={sub.items()} quot={quot.items()}"


def _vec_render(table: GroupTable, vec: dict[int, LaurentPoly]) -> str:
    """An ``{id: LaurentPoly}`` vector as ``name:poly`` pairs, ids ascending."""
    return "; ".join(f"{table.names[u]}:{c.render()}" for u, c in sorted(vec.items()))


def _recursion_word_checks(
    kl: KLTable, datum: CellDatum, images: dict[int, dict[int, LaurentPoly]]
) -> list[dict]:
    table = kl.table
    name = word_name(datum.word)
    s = datum.word[0]
    wp = mult_gen(table, datum.top, s, "left")
    sc = kl.structure_constants(s, wp)
    # the correction sum may equivalently run over {z : sz < z < product of tail}
    corrections = [
        (z, sc[z])
        for z in bruhat_interval(table, wp)
        if z != wp and z in sc and s in descents(table, z, "left")
    ]
    derived = branch_mod.derive_kl_recursion(kl, datum, images)
    records = []
    for x in datum.interval:
        lhs, rhs = derived[x]
        records.append(_record_sides("derived_recursion", name, lhs, rhs, x=table.names[x]))
        acc: dict[int, int] = {}
        images[x].get(wp, ZERO).add_to(acc)
        for z, h in corrections:
            d = kl.kl_poly(x, z)
            if d:
                for e, k in h.items():
                    d.add_to(acc, e, -k)
        alt = LaurentPoly(acc)
        records.append(_record_sides("correction_index_consistency", name, alt, rhs, x=table.names[x]))
    return records


WORD_SUITES = ("leaves", "branch", "recursion")


def _word_suite_records(kl: KLTable, words: list[Word], suites: list[str]) -> list[dict]:
    """The records of the named word suites, suite by suite, each in word order.

    One pass over the words builds each word's cell datum from its tail's
    (the word minus its first letter).  Words come in length order, so
    the tails sit in the previous length layer, the only one kept.  The
    restricted cell classes are computed once per (word, x) and read by
    both the branch and the recursion suite.
    """
    out: dict[str, list[dict]] = {name: [] for name in suites}
    restricting = "branch" in out or "recursion" in out
    previous: dict[Word, CellDatum] = {}
    current: dict[Word, CellDatum] = {}
    n = -1
    for word in words:
        if len(word) != n:
            previous, current, n = current, {}, len(word)
        tail = previous.get(word[1:]) if word else None
        datum = current[word] = cells_mod.build_cell_datum(kl, word, tail)
        if "leaves" in out:
            out["leaves"].extend(_leaves_word_checks(kl, datum))
        if not word or not restricting:
            continue
        images = {x: branch_mod.res_cell_class(datum, tail, x) for x in datum.interval}
        if "branch" in out:
            out["branch"].extend(_branch_word_checks(kl, datum, tail, images))
        if "recursion" in out:
            out["recursion"].extend(_recursion_word_checks(kl, datum, images))
    return [rec for name in suites for rec in out[name]]


# -- runner -------------------------------------------------------------------


def run_suite(kl: KLTable, suite: str) -> dict:
    """Run one named suite (or ``all``) and return the full report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    table = kl.table
    records: list[dict] = []
    if suite in ("kl", "all"):
        for w in kl.stored_elements()[1:]:
            records.extend(_kl_element_checks(kl, w))
        for u in kl.stored_elements():
            records.extend(_mu_structure_checks(kl, u))
        records.extend(_descent_choice_check(table, kl))
    word_suites = [name for name in WORD_SUITES if suite in (name, "all")]
    if word_suites:
        words = [w for w in reduced_words_in_order(table) if len(w) <= kl.complete_up_to]
        records.extend(_word_suite_records(kl, words, word_suites))
    summary: dict[str, dict[str, int]] = {}
    for rec in records:
        bucket = summary.setdefault(rec["identity"], {"pass": 0, "fail": 0})
        bucket["pass" if rec["pass"] else "fail"] += 1
    return {
        "suite": suite,
        "records": records,
        "summary": dict(sorted(summary.items())),
        "pass": all(rec["pass"] for rec in records),
    }

"""Exhaustive verification suites over one group table.

Each suite walks every stored element (and every reduced word, where the
checked statement is per-expression) and emits one record per identity
instance: ``{identity, word, x?, u?, lhs, rhs, pass}``.  Suites run
serially, element by element and word by word, in a fixed order.

Suites:
  * ``kl``        - KL basis invariants and the two single-step recursions
                    against the defining algorithm, each recursion
                    evaluated once per (w, s) for every x;
  * ``leaves``    - leaf characters against Hecke coefficients, direction
                    independence, support, cell decomposition identities;
  * ``branch``    - branching characters, leaf partitions, restriction
                    multiplicities two ways, restriction as a linear map;
  * ``recursion`` - the derived one-step recursion from the branching
                    pipeline, plus the correction-index consistency check;
  * ``all``       - all of the above.
"""

from __future__ import annotations

from . import branch as branch_mod
from . import cells as cells_mod
from .coxeter import (
    GroupTable,
    IncompleteTableError,
    Word,
    all_reduced_words,
    bruhat_interval,
    bruhat_leq,
    descents,
    evaluate_word,
    mult_gen,
    word_name,
)
from .hecke import bar_involution, bott_samelson_class
from .kl import (
    KLTable,
    classical_recursion_column,
    compute_kl,
    recursion_column,
    to_classical,
)
from .laurent import LaurentPoly, ZERO
from .leaves import character_map, enumerate_leaves

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
            bar_involution(elt) == elt,
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
    lower = {x for x in elt.support() if length[x] <= length[w]}
    support_ok = elt.coeff(w).coefficient(0) == 1 and lower | {w} == set(bruhat_interval(table, w))
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
                    lhs=_sc_render(table, sc),
                    rhs=_sc_render(table, expected),
                    s=f"s{s + 1}",
                )
            )
    return records


def _sc_render(table: GroupTable, sc: dict[int, LaurentPoly]) -> str:
    return "; ".join(f"{table.names[y]}:{c.render()}" for y, c in sorted(sc.items()))


def _descent_choice_check(table: GroupTable, kl: KLTable) -> list[dict]:
    other = compute_kl(table, kl.complete_up_to, descent_choice="max")
    same = all(
        other.kl_element(w) == kl.kl_element(w) for w in kl.stored_elements()
    )
    return [_record("descent_choice_independence", "*", same)]


# -- leaves suite -----------------------------------------------------------


def _leaves_word_checks(kl: KLTable, word: Word) -> list[dict]:
    table = kl.table
    name = word_name(word)
    records = []
    chars = character_map(table, word)
    hecke_side = bott_samelson_class(table, word)
    w = evaluate_word(table, word)
    for x in bruhat_interval(table, w):
        lhs = chars.get(x, ZERO)
        rhs = hecke_side.coeff(x)
        records.append(
            _record(
                "char_leaves_vs_hecke",
                name,
                lhs == rhs,
                lhs=lhs.render(),
                rhs=rhs.render(),
                x=table.names[x],
            )
        )
    support_ok = set(chars) == set(bruhat_interval(table, w)) and all(
        hecke_side.coeff(x) == chars.get(x, ZERO) for x in table.elements
    )
    records.append(_record("char_support", name, support_ok))
    records.append(
        _record(
            "direction_independence",
            name,
            character_map(table, word, direction="lr") == chars,
        )
    )
    records.append(
        _record(
            "leaf_count", name, len(enumerate_leaves(table, word).paths) == 2 ** len(word)
        )
    )
    datum = cells_mod.build_cell_datum(kl, word)
    report = cells_mod.verify_decomposition_identity(datum)
    for check in report["checks"]:
        records.append(
            _record(
                "decomposition_identity",
                name,
                check["pass"],
                lhs=LaurentPoly.from_json_obj(check["lhs"]).render(),
                rhs=LaurentPoly.from_json_obj(check["rhs"]).render(),
                x=check["x"],
            )
        )
    gdim_ok = (
        all(c.bar() == c and c.is_nonnegative() for c in datum.simple_gdims.values())
        and datum.simple_gdims.get(w) == LaurentPoly({0: 1})
    )
    records.append(_record("gdim_bar_symmetric_nonneg", name, gdim_ok))
    triangular = all(
        datum.decomposition(y, y) == LaurentPoly({0: 1})
        and all(
            not datum.decomposition(x, y) or bruhat_leq(table, x, y)
            for x in datum.interval
        )
        for y in datum.simple_support
    )
    records.append(_record("decomposition_triangularity", name, triangular))
    return records


# -- branch suite -----------------------------------------------------------


def _branch_word_checks(kl: KLTable, word: Word) -> list[dict]:
    records = list(branch_mod.verify_branching(kl, word))
    records.extend(branch_mod.verify_restriction_counts(kl, word))
    table = kl.table
    name = word_name(word)
    res = branch_mod.build_res(kl, word)
    w = evaluate_word(table, word)
    for x in bruhat_interval(table, w):
        vector = {y: kl.kl_poly(x, y) for y in res.domain if kl.kl_poly(x, y)}
        via_matrix = res.apply(vector)
        direct = branch_mod.res_cell_class(kl, word, x)
        records.append(
            _record(
                "res_linear_map",
                name,
                via_matrix == direct,
                lhs=_vec_render(table, via_matrix),
                rhs=_vec_render(table, direct),
                x=table.names[x],
            )
        )
    return records


def _vec_render(table: GroupTable, vec) -> str:
    return "; ".join(f"{table.names[u]}:{c.render()}" for u, c in vec.coords.items())


# -- recursion suite ---------------------------------------------------------


def _recursion_word_checks(kl: KLTable, word: Word) -> list[dict]:
    table = kl.table
    name = word_name(word)
    w = evaluate_word(table, word)
    s = word[0]
    wp = mult_gen(table, w, s, "left")
    sc = kl.structure_constants(s, wp)
    records = []
    for x in bruhat_interval(table, w):
        lhs, rhs, ok = branch_mod.derive_kl_recursion(kl, word, x)
        records.append(
            _record(
                "derived_recursion",
                name,
                ok,
                lhs=lhs.render(),
                rhs=rhs.render(),
                x=table.names[x],
            )
        )
        # the correction sum may equivalently run over {z : sz < z < product of tail}
        base = branch_mod.res_cell_class(kl, word, x).coord(wp)
        alt = base
        for z in bruhat_interval(table, wp):
            if z != wp and s in descents(table, z, "left"):
                h = sc.get(z, ZERO)
                if h:
                    alt = alt - h * kl.kl_poly(x, z)
        records.append(
            _record(
                "correction_index_consistency",
                name,
                alt == rhs,
                lhs=alt.render(),
                rhs=rhs.render(),
                x=table.names[x],
            )
        )
    return records


# -- runner -------------------------------------------------------------------


def run_suite(kl: KLTable, suite: str) -> dict:
    """Run one named suite (or ``all``) and return the full report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    table = kl.table
    words = [w for w in reduced_words_in_order(table) if len(w) <= kl.complete_up_to]
    records: list[dict] = []
    if suite in ("kl", "all"):
        for w in kl.stored_elements()[1:]:
            records.extend(_kl_element_checks(kl, w))
        for u in kl.stored_elements():
            records.extend(_mu_structure_checks(kl, u))
        records.extend(_descent_choice_check(table, kl))
    if suite in ("leaves", "all"):
        for word in words:
            records.extend(_leaves_word_checks(kl, word))
    if suite in ("branch", "all"):
        for word in words:
            if word:
                records.extend(_branch_word_checks(kl, word))
    if suite in ("recursion", "all"):
        for word in words:
            if word:
                records.extend(_recursion_word_checks(kl, word))
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

"""Exhaustive verification suites over one group table.

Each suite walks every stored element (and every reduced word, where the
checked statement is per-expression) and hands one check per identity
instance to a :class:`Sink`: the identity, the word, the ``ok`` flag, the
unrendered sides and the spot (``x``, ``u``, ``s``).  Suites run serially,
element by element and word by word, in a fixed order, and return
nothing.  The records are built only here, by :func:`build_record`, and
only when a sink keeps them: :class:`RecordList` keeps every record (the
list report of :func:`run_suite` without a sink), :class:`FailRecords`
counts every check but keeps only the FAIL records (the text report), and
:class:`JsonStream` writes each record as canonical JSON as it comes.
:mod:`klcat.cells` and :mod:`klcat.branch` return the two sides of each
identity, and this module compares them.

The word suites share one pass over the reduced words in length order.
Each length layer is grown from the previous one: every reduced word is a
letter s in front of a reduced tail (the word minus its first letter)
whose product s lengthens, so no word above the KL table's bound is ever
listed.  A word reaches every checked quantity only through its chain
product C_{s_1} ... C_{s_n}, and C_s C_t = C_t C_s when m_st = 2, so its
checks are a function of its key: its first letter s and the commutation
class of its tail.  Each key's checks are made once, on one
:class:`~klcat.cells.CellDatum` stepped from its tail class's (the
characters in one generator step, reducedness by one length), into a
:class:`RecordList` (a :class:`FailRecords` for a sink that keeps no
passes) named after the key's first word, so each record is built and
rendered once per key; each word of the key hands them to the sink
under its own name with :meth:`Sink.take`.  The branch suite steps
the key's final-level movers and stayers from the tail's characters with
:func:`~klcat.leaves.leaf_step`; decomposition numbers are read from the
KL table.
Restriction is one linear map per key, the images of every x at once,
read by both the branch and the recursion suite; a sink that keeps no
passes builds it only for a key that :func:`_bulk` cannot count in bulk:
one whose structure constants of C_s C_u, u over the tail's simples
(memoized per (s, u)), leave the word's simple support, or whose derived
recursion, decided once per (s, tail top), fails.  The per-key path is
the slow path and the oracle.  Every sum of KL basis elements is one
:meth:`~klcat.kl.KLTable.combine` and every index set {z : sz < z < u}
one :func:`~klcat.coxeter.below_with_descent`;
:func:`~klcat.branch.recursion_sides` sums the derived recursion over
both index sets.  Both sides of ``branching_characters``,
``leaf_partition``, ``decomposition_identity`` (the characters and the
``combine`` of their expansion) and the leaves suite's character records
come from the characters by two routes, a deliberate second path: they
read no KL data, so no damaged table fails them.  The first word suite
feeds the sink directly; under ``all`` the later ones are spooled and
appended after it, so the records still come suite by suite.  A passing
record renders its equal sides once.

Suites:
  * ``kl``        - KL basis invariants and the two single-step recursions
                    against the defining algorithm, both columns of each
                    (w, s) summed once for every x, in one pass, and
                    compared with C_w as integer codes
                    (:func:`~klcat.kl.recursion_columns`).  A sink that
                    keeps no passes (the text report) counts an (w, s)
                    that holds in bulk with :meth:`Sink.add_passes`;
                    otherwise, and in every sink that keeps passes, the
                    columns are decoded and walked, the text report
                    walking only the live x (those in either column or
                    the stored C_w, and w).  The bar record of a
                    unitriangular C_w is proved from its v-form recursion
                    over C_y already proved, in id order, a set the run
                    keeps, and the bar is walked only where that fails.
                    The structure records of C_s C_u are proved from the
                    same columns, (su, s) when su > u and (u, s) when
                    su < u, and the structure constants are computed by
                    back-substitution only where no proof applies.  The
                    value records are decided once per (interned value,
                    length gap);
  * ``leaves``    - leaf characters against Hecke coefficients (the
                    left-to-right walk, :func:`~klcat.leaves.character_map`,
                    against the kept characters, the chain product),
                    leaf count, direction independence, support, cell
                    decomposition identities;
  * ``branch``    - branching characters, leaf partitions, restriction
                    multiplicities two ways, restriction as a linear map;
  * ``recursion`` - the derived one-step recursion from the branching
                    pipeline over both correction index sets, against the
                    stored h_{x,w} and against each other;
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
    below_with_descent,
    bruhat_interval,
    descents,
    mult_gen,
    word_name,
)
from .hecke import bar_invariant, left_mul_kl
from .kl import (
    KLTable,
    _encode,  # canonical_json's encoder, without the newline
    compute_kl,
    recursion_columns,
)
from .laurent import LaurentPoly, ONE, ZERO
from .leaves import character_map

SUITES = ("kl", "leaves", "branch", "recursion", "all")

# Identities whose records put their spot keys before the sides and ``pass`` last.
_SPOT_FIRST = frozenset({"branching_characters", "leaf_partition", "restriction_counts"})


def build_record(identity: str, word: str, ok: bool, sides=None, render=LaurentPoly.render, spot=None) -> dict:
    """The record of one check: ``identity``, ``word``, ``pass``, ``lhs``, ``rhs``, then the spot keys.

    ``sides`` is the ``(lhs, rhs)`` pair, or None for a check without
    sides; ``render`` turns a side into text, or is None when the sides
    are text already.  A passing comparison renders its equal sides once.
    The identities in ``_SPOT_FIRST`` put the spot keys after ``word`` and
    ``pass`` last.
    """
    rec = {"identity": identity, "word": word}
    spot_first = identity in _SPOT_FIRST
    if spot_first:
        rec.update(spot)
    else:
        rec["pass"] = ok
    if sides is not None:
        lhs, rhs = sides
        if render is not None:
            rhs = render(rhs)
            lhs = rhs if ok else render(lhs)
        rec["lhs"] = lhs
        rec["rhs"] = rhs
    if spot_first:
        rec["pass"] = ok
    elif spot:
        rec.update(spot)
    return rec


class Sink:
    """Takes every check of a run, counts it per identity, and keeps the records its kind keeps.

    A check is one call ``sink(identity, word, ok, sides, render, **spot)``
    with :func:`build_record`'s arguments; the record is built, and its
    sides rendered, only when the sink keeps it.  :meth:`add_passes`
    counts passing checks without a call each, for a sink whose
    ``keeps_passes`` is False, and :meth:`take` counts and keeps another
    sink's checks under a new word.  ``len(sink)`` is the number of checks.
    """

    keeps_passes = True

    def __init__(self):
        self.counts: dict[str, list[int]] = {}  # identity -> [fails, passes]

    def __call__(self, identity: str, word: str, ok: bool, sides=None, render=LaurentPoly.render, **spot) -> None:
        counts = self.counts.get(identity)
        if counts is None:
            counts = self.counts[identity] = [0, 0]
        counts[ok] += 1
        if ok and not self.keeps_passes:
            return
        self.keep(build_record(identity, word, ok, sides, render, spot))

    def add_passes(self, identity: str, n: int) -> None:
        """Count n passing checks of ``identity`` at once, none of them kept."""
        if n:
            self.counts.setdefault(identity, [0, 0])[1] += n

    def take(self, checks: RecordList, word: str) -> None:
        """Count the checks of ``checks`` here and keep its records as the records of the word named ``word``."""
        for identity, (fails, passes) in checks.counts.items():
            counts = self.counts.setdefault(identity, [0, 0])
            counts[0] += fails
            counts[1] += passes
        for rec in checks.records:
            self.keep(rec if rec["word"] == word else {**rec, "word": word})

    def keep(self, rec: dict) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        return sum(fails + passes for fails, passes in self.counts.values())

    def summary(self) -> dict[str, dict[str, int]]:
        return {identity: {"pass": passes, "fail": fails} for identity, (fails, passes) in sorted(self.counts.items())}

    def passed(self) -> bool:
        return not any(fails for fails, _ in self.counts.values())

    def spool(self) -> Sink:
        """A sink of the same kind that counts into this one and holds its
        records until :meth:`extend` appends them here."""
        spooled = self._spooled()
        spooled.counts = self.counts
        return spooled

    def _spooled(self) -> Sink:
        raise NotImplementedError

    def extend(self, spooled: Sink) -> None:
        raise NotImplementedError


class RecordList(Sink):
    """Keeps every record, in order, in ``records``."""

    def __init__(self):
        super().__init__()
        self.records: list[dict] = []

    def keep(self, rec: dict) -> None:
        self.records.append(rec)

    def _spooled(self) -> RecordList:
        return type(self)()

    def extend(self, spooled: RecordList) -> None:
        self.records.extend(spooled.records)


class FailRecords(RecordList):
    """Counts every check and keeps only the FAIL records: all the text report prints."""

    keeps_passes = False


class JsonStream(Sink):
    """Writes the report to ``out`` as the records come: the bytes of
    ``canonical_json(run_suite(kl, suite))``.

    The constructor writes the head up to the records' ``[``, the kept
    records follow in batches of ``BATCH`` (one encoder call each), and
    :meth:`finish` writes ``summary`` and ``pass``.  A spool (no
    ``suite``) writes to an anonymous temporary file, a comma before
    every batch.
    """

    BATCH = 1024

    def __init__(self, out, suite: str | None = None):
        super().__init__()
        self.out = out
        self.sep = "," if suite is None else ""
        self.batch: list[dict] = []
        if suite is not None:
            out.write(_encode({"suite": suite})[:-1] + ',"records":[')

    def keep(self, rec: dict) -> None:
        self.batch.append(rec)
        if len(self.batch) == self.BATCH:
            self.flush()

    def flush(self) -> None:
        if self.batch:
            self.out.write(self.sep + _encode(self.batch)[1:-1])
            self.sep = ","
            self.batch = []

    def _spooled(self) -> JsonStream:
        import tempfile  # only a JSON run of ``all`` spools; the import would slow every start

        return JsonStream(tempfile.TemporaryFile("w+", encoding="ascii"))

    def extend(self, spooled: JsonStream) -> None:
        self.flush()
        spooled.flush()
        spool = spooled.out
        spool.seek(0)
        if not self.sep and spool.read(1):  # the spool opens the list: drop its first comma
            self.sep = ","
        while chunk := spool.read(1 << 16):
            self.out.write(chunk)
        spool.close()

    def finish(self) -> None:
        self.flush()
        self.out.write("]," + _encode({"summary": self.summary(), "pass": self.passed()})[1:] + "\n")


# -- kl suite ---------------------------------------------------------------


def _kl_element_checks(
    kl: KLTable, w: int, stored: list[int], proven: set[int], values: dict, sink: Sink
) -> dict[int, list[int]]:
    """The per-element invariants of C_w and both recursions at every left descent s of w.

    Both columns of each (w, s) are summed once, by
    :func:`~klcat.kl.recursion_columns`, and the bar proof, the bulk count
    and the decoded walk all read that one result.  The column of s
    *proves* when its v-column holds and C_w and every C_y it reads are
    unitriangular: the recursion then writes C_w as C_s C_sw minus
    integer multiples of the C_z it reads, as an identity of the Hecke
    algebra.  The returned ``{s: reads}`` holds the ``reads`` of every
    proving column, from which :func:`_mu_structure_checks` decides the
    structure records.  The bar record is decided by induction in id
    order: C_w passes it unwalked when some proving column reads only C_y
    in ``proven``, since C_s and the integers mu are bar-invariant.
    Otherwise :func:`~klcat.hecke.bar_invariant` walks the bar, as the
    slow path whose verdict the proof equals.  A unitriangular w that
    passes joins ``proven``.

    ``values``, which the run keeps, holds the verdicts of
    ``positive_degrees``, ``exponent_parity`` and ``positivity`` per
    (id(h), l(w) - l(x)), all that they read, each entry holding h.

    The recursion records come per stored x.  A sink that keeps no passes
    counts every record of an (w, s) whose two columns hold in bulk.
    Otherwise the columns are decoded and walked: an x in neither column
    nor the stored C_w, and not w itself (``kl_poly(w, w)`` reads 1 even
    when h_{w,w} is not stored), reads ``ZERO`` on all four sides, so it
    passes both records, and that sink walks only the other x.  The
    stored side of a q record is :meth:`~klcat.kl.KLTable.classical`,
    converted once per table.
    """
    table = kl.table
    length, names = table.length, table.names
    elt = kl.kl_element(w)
    name = names[w]
    columns = [(s, recursion_columns(kl, w, s)) for s in descents(table, w, "left")]
    tri = kl.codes().unitriangular
    proofs = {s: cols.reads for s, cols in columns if cols.v_holds and w in tri and tri.issuperset(cols.reads)}
    bar_ok = any(proven.issuperset(reads) for reads in proofs.values()) or bar_invariant(table, elt)
    if bar_ok and w in tri:
        proven.add(w)
    sink("bar_invariance", name, bar_ok, ("bar(C_w)", "C_w"), None)
    degrees_ok = parity_ok = nonneg_ok = True
    for x, c in elt.items():
        key = (id(c), length[w] - length[x])
        entry = values.get(key)
        if entry is None:
            gap = key[1]
            parity = all((e - gap) % 2 == 0 for e in c.exponents())
            entry = values[key] = (c, c.in_positive_part(), parity, c.is_nonnegative())
        degrees_ok = degrees_ok and (entry[1] or x == w)
        parity_ok = parity_ok and entry[2]
        nonneg_ok = nonneg_ok and entry[3]
    sink("positive_degrees", name, degrees_ok)
    sink("exponent_parity", name, parity_ok)
    sink("positivity", name, nonneg_ok)
    sink("kl_support", name, elt.get(w) == ONE and tuple(elt) == bruhat_interval(table, w))
    for s, cols in columns:
        if not sink.keeps_passes and cols.v_holds and cols.q_holds:
            sink.add_passes("recursion_agreement", len(stored))
            sink.add_passes("classical_recursion_agreement", len(stored))
            continue
        column = cols.column()
        columnq = cols.classical_column()
        label = f"s{s + 1}"
        walked = stored
        if not sink.keeps_passes:
            live = {w, *column, *columnq, *elt}
            walked = [x for x in stored if x in live]
        for x in walked:
            got = column.get(x, ZERO)
            want = kl.kl_poly(x, w)
            sink("recursion_agreement", name, got == want, (got, want), x=names[x], s=label)
            gotq = columnq.get(x, ZERO)
            wantq = kl.classical(x, w) if x in columnq else ZERO
            ok = gotq is not None and gotq == wantq
            sink("classical_recursion_agreement", name, ok, (gotq, wantq), _render_q, x=names[x], s=label)
        skipped = len(stored) - len(walked)
        sink.add_passes("recursion_agreement", skipped)
        sink.add_passes("classical_recursion_agreement", skipped)
    return proofs


def _render_q(p: LaurentPoly | None) -> str:
    return "undefined" if p is None else p.render("q")


def _mu_structure_checks(
    kl: KLTable, u: int, proofs: dict[int, dict[int, list[int]]], descending: list[set[int]], sink: Sink
) -> None:
    """C_s * C_u in the KL basis: positivity, and for ascending products the
    coefficient at su is 1 while the rest is mu(z,u) on {z : sz < z} and 0
    elsewhere (without the descent condition the identity is false: for
    instance C_s C_t = C_st although mu(e,t) = 1).  Where C_s * C_u has no
    KL-basis expansion, both records fail and the product renders as
    ``undefined``.

    ``proofs[w]`` is :func:`_kl_element_checks`'s ``{s: reads}`` of w.
    When su > u and the column (su, s) proves over the same z as the
    expected expansion, that column is C_s C_u = C_su + sum mu(z,u) C_z
    rearranged, a sum of unitriangular C_y, so it is the structure
    constants.  When su < u, C_s C_u = (v + v^-1) C_u follows from the
    proving column (u, s), C_s C_s = (v + v^-1) C_s and the same identity
    for each C_z it reads, so it is proved in id order and u joins
    ``descending[s]``, a set the run keeps.  Only where no proof applies
    are the structure constants computed, by back-substitution."""
    table = kl.table
    length = table.length
    name = table.names[u]
    render = functools.partial(_vec_render, table)
    for s in range(table.rank):
        try:
            su = mult_gen(table, u, s, "left")
        except IncompleteTableError:
            continue
        if length[su] > kl.complete_up_to:
            continue
        ascending = length[su] > length[u]
        if ascending:
            expected: dict[int, LaurentPoly] = {su: LaurentPoly({0: 1})}
            for z in below_with_descent(table, s, su):
                m = kl.mu(z, u)
                if m:
                    expected[z] = LaurentPoly({0: m})
            reads = proofs[su].get(s)
            proved = reads is not None and set(expected) == {su, *reads[1:]}
        else:
            expected = {u: LaurentPoly({-1: 1, 1: 1})}  # C_s C_u = (v + v^-1) C_u
            reads = proofs[u].get(s)
            proved = reads is not None and descending[s].issuperset(reads[1:])
            if proved:
                descending[s].add(u)
        if proved:
            sc = expected
        else:
            try:
                sc = kl.structure_constants(s, u)
            except ValueError:  # C_s C_u has no KL-basis expansion: a damaged table
                sc = None
        label = f"s{s + 1}"
        sink("structure_positivity", name, sc is not None and all(c.is_nonnegative() for c in sc.values()), s=label)
        if ascending:
            sink("mu_structure_constants", name, sc == expected, (sc, expected), render, s=label)


def _descent_choice_check(table: GroupTable, kl: KLTable, sink: Sink) -> None:
    other = compute_kl(table, kl.complete_up_to, descent_choice="max")
    same = all(
        other.kl_element(w) == kl.kl_element(w) for w in kl.stored_elements()
    )
    sink("descent_choice_independence", "*", same)


# -- word suites --------------------------------------------------------------


def _leaves_word_checks(datum: CellDatum, sink: Sink) -> None:
    """Leaf characters against the Hecke side, support, direction, decomposition.

    The word's characters are its chain product, which is the recurrence
    of the right-to-left leaf count, so the Hecke side is compared with
    the left-to-right walk, an independent path.
    """
    table = datum.kl.table
    names = table.names
    word = datum.word
    name = word_name(word)
    mirrored = character_map(table, word)
    chars = datum.cell_chars
    for x in datum.interval:
        lhs = mirrored.get(x, ZERO)
        rhs = chars.get(x, ZERO)
        sink("char_leaves_vs_hecke", name, lhs == rhs, (lhs, rhs), x=names[x])
    same = mirrored == chars
    sink("char_support", name, tuple(mirrored) == datum.interval and same)
    sink("direction_independence", name, same)
    # every coefficient counts leaves, so none cancels
    sink("leaf_count", name, sum(k for c in chars.values() for _, k in c.items()) == 2 ** len(word))
    for x, lhs, rhs in cells_mod.decomposition_sides(datum):
        sink("decomposition_identity", name, lhs == rhs, (lhs, rhs), x=names[x])
    gdim_ok = (
        all(c.bar() == c and c.is_nonnegative() for c in datum.simple_gdims.values())
        and datum.simple_gdims.get(datum.top) == ONE
    )
    sink("gdim_bar_symmetric_nonneg", name, gdim_ok)
    interval, support = set(datum.interval), datum.simple_gdims
    triangular = interval.issuperset(support) and not any(
        interval.intersection(datum.kl.kl_element(y)).difference(bruhat_interval(table, y)) for y in support
    )
    sink("decomposition_triangularity", name, triangular)


def _branch_word_checks(
    datum: CellDatum, tail: CellDatum, images: dict[int, dict[int, LaurentPoly]] | None, sink: Sink
) -> None:
    """The branch suite on one key; ``images`` is None when its restriction records are counted in bulk."""
    table = datum.kl.table
    name = word_name(datum.word)
    names = table.names
    for x, lhs, rhs, got, want in branch_mod.branching_sides(datum, tail):
        sink("branching_characters", name, lhs == rhs, (lhs, rhs), x=names[x])
        sink("leaf_partition", name, got == want, (got, want), _partition_render, x=names[x])
    if images is None:
        sink.add_passes("restriction_counts", len(datum.interval) * len(tail.simple_gdims))
        sink.add_passes("res_linear_map", len(datum.interval))
        return
    # restriction multiplicities two ways: through structure constants, and
    # read off the restricted cell class
    counts = branch_mod.restriction_counts(datum, tail)
    for z in datum.interval:
        counted, image = counts[z], images[z]
        for u in tail.simple_gdims:
            lhs, rhs = counted.get(u, ZERO), image.get(u, ZERO)
            sink("restriction_counts", name, lhs == rhs, (lhs, rhs), x=names[z], u=names[u])
    render = functools.partial(_vec_render, table)
    for x in datum.interval:
        # Res applied to the decomposition vector of x, against the direct image
        sink("res_linear_map", name, counts[x] == images[x], (counts[x], images[x]), render, x=names[x])


def _partition_render(parts: tuple[LaurentPoly, LaurentPoly]) -> str:
    sub, quot = parts
    return f"sub={sub.items()} quot={quot.items()}"


def _vec_render(table: GroupTable, vec: dict[int, LaurentPoly] | None) -> str:
    """An ``{id: LaurentPoly}`` vector as ``name:poly`` pairs, ids ascending; None is ``undefined``."""
    if vec is None:
        return "undefined"
    return "; ".join(f"{table.names[u]}:{c.render()}" for u, c in sorted(vec.items()))


def _recursion_word_checks(datum: CellDatum, images: dict[int, dict[int, LaurentPoly]] | None, sink: Sink) -> None:
    """The recursion suite on one key; ``images`` is None when its records are counted in bulk."""
    if images is None:
        sink.add_passes("derived_recursion", len(datum.interval))
        sink.add_passes("correction_index_consistency", len(datum.interval))
        return
    names = datum.kl.table.names
    name = word_name(datum.word)
    for x, (lhs, rhs, alt) in branch_mod.derive_kl_recursion(datum, images).items():
        sink("derived_recursion", name, lhs == rhs, (lhs, rhs), x=names[x])
        # the correction sum may equivalently run over {z : sz < z < product of tail}
        sink("correction_index_consistency", name, alt == rhs, (alt, rhs), x=names[x])


WORD_SUITES = ("leaves", "branch", "recursion")


def _bulk(datum: CellDatum, tail: CellDatum, suites, recursions: dict[tuple[int, int], bool]) -> set[str]:
    """The suites, of branch and recursion in ``suites``, whose restriction records of the key all pass.

    Column u of both restriction routes is C_s C_u restricted to [e, w],
    the second summed over the structure constants sc of C_s C_u that lie
    in the word's simple support ([e, w] is s-stable, so no filter before
    the C_s step drops anything).  When sc lies inside that support for
    every simple u of the tail, the two routes are equal, since
    :meth:`~klcat.kl.KLTable.expand_in_kl_basis` stops only at a zero
    remainder; the memoized :meth:`~klcat.kl.KLTable.structure_constants`
    decide it.  When they also lie inside it for u = tail top, the key's
    derived recursion is that of u, with sc as the support and C_s C_u as
    the first term, decided once per (s, u) into ``recursions``, a dict
    local to the run.  An expansion that raises leaves the key to the
    per-key path.
    """
    kl, s, simple = datum.kl, datum.word[0], datum.simple_gdims.keys()
    bulk = set()
    try:
        if "branch" in suites and all(kl.structure_constants(s, u).keys() <= simple for u in tail.simple_gdims):
            bulk.add("branch")
        wp = tail.top
        if "recursion" in suites and (sc := kl.structure_constants(s, wp)).keys() <= simple:
            if (s, wp) not in recursions:
                column = left_mul_kl(kl.table, s, kl.kl_element(wp))
                sides = branch_mod.recursion_sides(kl, s, wp, sc, sc, column).values()
                recursions[s, wp] = all(lhs == rhs == alt for lhs, rhs, alt in sides)
            if recursions[s, wp]:
                bulk.add("recursion")
    except (ValueError, IncompleteTableError):  # no expansion, or beyond a truncated table
        return set()
    return bulk


def _prepend_letter(form: tuple[tuple[int, ...], ...], s: int, dependent: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The normal form of the commutation class of s times a word of the class ``form``.

    ``form[t]`` lists the levels of the letter t's pieces in the heap,
    highest first.  A piece's level is 1 plus the highest level of the
    later pieces whose letters are in its ``dependent`` (the t with m_st
    != 2, s among them), or 1: the Cartier-Foata normal form read from
    the right end, so a letter put in front moves no other piece.
    """
    level = 1 + max((form[t][0] for t in dependent if form[t]), default=0)
    return form[:s] + ((level, *form[s]),) + form[s + 1:]


def _key_checks(
    datum: CellDatum, tail: CellDatum | None, sinks: dict[str, Sink], recursions: dict[tuple[int, int], bool] | None
) -> dict[str, RecordList]:
    """The checks of every suite named in ``sinks`` on ``datum``, whose tail's datum is ``tail``.

    Each suite's checks go to a :class:`FailRecords` when its target sink
    keeps no passes and to a :class:`RecordList` otherwise, the records
    named after ``datum.word``.  The restriction map is built only for a
    suite whose records :func:`_bulk` does not count as a whole; it runs
    with the run's ``recursions``, which is None when the sinks keep passes.
    """
    checks = {name: RecordList() if target.keeps_passes else FailRecords() for name, target in sinks.items()}
    if "leaves" in checks:
        _leaves_word_checks(datum, checks["leaves"])
    if tail is not None and ("branch" in checks or "recursion" in checks):
        bulk = set() if recursions is None else _bulk(datum, tail, checks, recursions)
        images = None
        if not bulk.issuperset(checks.keys() & {"branch", "recursion"}):
            images = branch_mod.res_cell_class(datum, tail)
        if "branch" in checks:
            _branch_word_checks(datum, tail, None if "branch" in bulk else images, checks["branch"])
        if "recursion" in checks:
            _recursion_word_checks(datum, None if "recursion" in bulk else images, checks["recursion"])
    return checks


def _word_suite_checks(kl: KLTable, suites: list[str], sink: Sink) -> None:
    """Feed the named word suites' checks to ``sink``, suite by suite, each in word order.

    Word order is by product id, then by word; ids run in (length,
    ShortLex) order, so the words come one length layer at a time.  The
    layer of length n is grown from the classes of layer n - 1, each one
    datum (the first its keys built) and its words: the words ``(s, *t)``
    for each word t of a class and each s that is not a left descent of
    its product, for n up to the KL table's bound.  A key's checks are
    made when its first word comes, on the datum of ``(s, *tail.word)``,
    and dropped when the product or the first letter changes, as a key's
    words share both and come together in word order.  The first suite
    feeds ``sink`` directly; the later ones feed spools of it, appended
    at the end.
    """
    table = kl.table
    orders = table.matrix.orders
    dependent = [tuple(t for t in range(table.rank) if orders[s][t] != 2) for s in range(table.rank)]
    sinks = {name: sink.spool() if i else sink for i, name in enumerate(suites)}
    recursions = None if sink.keeps_passes else {}  # (s, tail top) -> the derived recursion's verdict
    # a key is (s, normal form of the tail's class), and None for the empty word
    layer: list[tuple[int, Word, tuple | None]] = [(table.identity, (), None)]
    classes: dict[tuple, tuple[CellDatum, list[Word]]] = {}  # normal form -> (datum, words)
    while layer:
        tails, classes, head = classes, {}, None
        for top, word, key in layer:
            if (top, word[:1]) != head:
                head, made = (top, word[:1]), {}
            if key not in made:
                if key is None:
                    tail, form = None, ((),) * table.rank
                    datum = cells_mod.build_cell_datum(kl, ())
                else:
                    s, tail_form = key
                    tail = tails[tail_form][0]
                    form = _prepend_letter(tail_form, s, dependent[s])
                    datum = cells_mod.build_cell_datum(kl, (s, *tail.word), tail)
                made[key] = form, _key_checks(datum, tail, sinks, recursions)
                classes.setdefault(form, (datum, []))
            form, checks = made[key]
            classes[form][1].append(word)
            name = word_name(word)
            for suite, key_checks in checks.items():
                sinks[suite].take(key_checks, name)
        layer = []
        for form, (datum, words) in classes.items():
            if len(datum.word) < kl.complete_up_to:
                for s in range(table.rank):
                    if s not in descents(table, datum.top, "left"):
                        top = mult_gen(table, datum.top, s, "left")
                        layer.extend((top, (s, *word), (s, form)) for word in words)
        layer.sort()  # the (product, word) pairs are distinct, so no two keys are compared
    for name in suites[1:]:
        sink.extend(sinks[name])


# -- runner -------------------------------------------------------------------


def run_suite(kl: KLTable, suite: str, sink: Sink | None = None) -> dict:
    """Run one named suite (or ``all``), feeding every check to ``sink``.

    The report is ``{suite, records, summary, pass}``.  Without a sink its
    ``records`` is the list of every record; with one it is the sink
    itself, whose ``len()`` is the number of records checked.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    table = kl.table
    records = RecordList() if sink is None else sink
    if suite in ("kl", "all"):
        stored = kl.stored_elements()
        e = table.identity
        proven = {e} if kl.kl_element(e) == {e: ONE} else set()  # the C_y proved bar-invariant, in id order
        values = {}  # (id(h), l(w) - l(x)) -> (h, the verdicts of h there)
        proofs = {w: _kl_element_checks(kl, w, stored, proven, values, records) for w in stored[1:]}
        kl._codes = None  # nothing reads the code view from here on, so the second table does not share its peak
        descending = [set() for _ in range(table.rank)]  # per s, the u proved to have C_s C_u = (v + v^-1) C_u
        for u in stored:
            _mu_structure_checks(kl, u, proofs, descending, records)
        _descent_choice_check(table, kl, records)
    word_suites = [name for name in WORD_SUITES if suite in (name, "all")]
    if word_suites:
        _word_suite_checks(kl, word_suites, records)
    return {
        "suite": suite,
        "records": records.records if sink is None else sink,
        "summary": records.summary(),
        "pass": records.passed(),
    }

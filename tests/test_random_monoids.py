"""Invariants the theory guarantees, on submonoids of T3 and T4 generated by a
few random maps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cellmonoid as cm
from cellmonoid.exactalg import RATIONALS, prime_field
from cellmonoid.twist import cocycle_middles

from conftest import (assembled_order_pairs, assert_node_order_matches_reference,
                      assert_phi_r_reads_every_member, corank_twisting, edited, order_pairs,
                      reference_axiom_report, reference_trace_form, reference_twisting_witness)

SIZE_BOUND = 40  # larger monoids are counted, not analysed, to keep this fast


def test_random_submonoids():
    # Groups that are neither trivial nor symmetric (cyclic ones, mostly) are
    # unsupported; those monoids are counted, not filtered out.
    counts = {"analysed": 0, "unsupported group": 0, "over the size bound": 0}

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def check(data):
        r = data.draw(st.integers(3, 4))
        point_map = st.lists(st.integers(1, r), min_size=r, max_size=r)
        M = cm.generate_from_maps(r, data.draw(st.lists(point_map, min_size=1, max_size=3)))
        if M.size > SIZE_BOUND:
            counts["over the size bound"] += 1
            return
        try:
            datum = cm.standard_datum(M, RATIONALS)
        except cm.UnsupportedGroup:
            counts["unsupported group"] += 1
            return
        counts["analysed"] += 1
        assert_node_order_matches_reference(datum, assembled_order_pairs(datum))
        report = cm.analyze(datum)
        assert cm.verify_cell_axioms(datum).ok
        ledger = cm.cross_check(datum, report)
        assert [c for c in ledger if c["status"] == "fail"] == []
        assert (cm.trace_form_semisimple(datum.mult, datum.dim, datum.field)
                == reference_trace_form(datum.mult, datum.dim))
        trace = next(c for c in ledger if c["name"] == "trace_form_agreement")
        assert trace["status"] == "pass"
        assert (report.dim_sq_sum == M.size) == report.semisimple
        _, boxes, schutzs = cm.green_data(M)
        assert_phi_r_reads_every_member(M, boxes, schutzs)

    check()
    assert counts["analysed"] >= sum(counts.values()) // 2, counts


FAMILY_MEMBERS = [("tfull", 2), ("tfull", 3), ("tpartial", 2), ("syminv", 3), ("jones", 3),
                  ("jones", 4)]


def _coboundary(M, cls, values, field=RATIONALS):
    """pi(x, y) = f(x) f(y) / f(xy) over field for f = values[cls[x]], with
    f = 1 on the class of the identity so that pi is unital."""
    f = [1 if c == cls[M.identity] else values[c] for c in cls]
    return cm.Twisting(field, [[f[x] * f[y] * field.inv(f[M.table[x][y]]) for y in range(M.size)]
                               for x in range(M.size)], "coboundary")


def test_random_coboundary_twistings():
    # A coboundary twists an algebra isomorphic to the untwisted one.  With f
    # constant on R-, L- or D-classes it is compatible and keeps the untwisted
    # ranks and verdicts; constancy on H-classes only is not enough, and there
    # compatibility must agree with the full axiom check.
    counts = {"accepted": 0, "refused": 0}

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def check(data):
        if data.draw(st.booleans()):
            M, _ = cm.family(*data.draw(st.sampled_from(FAMILY_MEMBERS)))
        else:
            r = data.draw(st.integers(3, 4))
            point_map = st.lists(st.integers(1, r), min_size=r, max_size=r)
            M = cm.generate_from_maps(r, data.draw(st.lists(point_map, min_size=1, max_size=3)))
            if M.size > SIZE_BOUND:
                return
        try:
            base = cm.standard_datum(M, RATIONALS)
        except cm.UnsupportedGroup:
            return
        gs = base.attach.green
        kind = data.draw(st.sampled_from(["R", "L", "D", "H"]))
        cls = {"R": gs.rclass, "L": gs.lclass, "D": gs.dclass, "H": gs.hclass}[kind]
        scalar = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(3),
                                  Fraction(-1, 2)])
        pi = _coboundary(M, cls, data.draw(st.lists(scalar, min_size=max(cls) + 1,
                                                    max_size=max(cls) + 1)))
        assert cm.verify_twisting(M, pi) is None
        compat = cm.compatibility_class(M, gs, pi)
        if kind != "H":
            assert compat.level == "strong"
            twisted = cm.build_twisted_cell_datum(base, pi, compat=compat)
            report, plain = cm.analyze(twisted), cm.analyze(base)
            assert [n["gram_rank"] for n in report.nodes] == [n["gram_rank"] for n in plain.nodes]
            assert (report.semisimple, report.quasi_hereditary) == (plain.semisimple,
                                                                    plain.quasi_hereditary)
            assert [c for c in cm.cross_check(twisted, report) if c["status"] == "fail"] == []
            return
        accepted = compat.level != "incompatible"
        counts["accepted" if accepted else "refused"] += 1
        axioms = cm.verify_cell_axioms(base.twisted(pi.values))
        assert axioms.ok == accepted

    check()
    assert min(counts.values()) > 0, counts


def test_axiom_check_matches_reference_scan():
    # Sabotaged and twisted data on family members and random submonoids of
    # T3 and T4: the check, which verifies each translate of a row or column
    # once, must report the verdict and the witness of the plain scan.  The
    # untwisted data are acted on by the generators first, the unmarked
    # twisted data by every element, where the product keys are shared
    # across actors.
    # Merged blocks give units whose supports span two H-classes; zero weights
    # make actors with the same products on a unit's support differ.  A node
    # order with pairs taken out makes the check compute products it would
    # otherwise skip as landing above the node.
    # Over F_2 and F_3 a product's terms can cancel mod p.  The rescale and
    # coboundary scalars are nonzero in the field: over F_2 only 1, so a
    # rescale there leaves the basis as it is.
    counts = {"ok": 0, "failed": 0, "order failed": 0, "q": 0, "fp:2": 0, "fp:3": 0}
    rescales = {RATIONALS: [Fraction(2), Fraction(-1), Fraction(1, 3)],
                prime_field(2): [1], prime_field(3): [2]}
    cobounds = {RATIONALS: [Fraction(1), Fraction(2), Fraction(-1, 2)],
                prime_field(2): [1], prime_field(3): [1, 2]}

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def check(data):
        field = data.draw(st.sampled_from(list(rescales)))
        if data.draw(st.booleans()):
            M, _ = cm.family(*data.draw(st.sampled_from(FAMILY_MEMBERS)))
        else:
            r = data.draw(st.integers(3, 4))
            point_map = st.lists(st.integers(1, r), min_size=r, max_size=r)
            M = cm.generate_from_maps(r, data.draw(st.lists(point_map, min_size=2, max_size=3)))
            if M.size > SIZE_BOUND:
                return
        try:
            base = cm.standard_datum(M, field)
        except cm.UnsupportedGroup:
            return
        basis, blocks = dict(base.basis), list(base.blocks)
        gt = order_pairs(base)
        sabotage = data.draw(st.sampled_from(["swap", "rescale", "weights", "order"]))
        if sabotage == "swap":
            # two vectors of one block, or of two blocks of a node then merged
            b1 = data.draw(st.sampled_from(blocks))
            b2 = data.draw(st.sampled_from([b for b in blocks if b[1][0][0] == b1[1][0][0]]))
            k1, k2 = data.draw(st.sampled_from(b1[1])), data.draw(st.sampled_from(b2[1]))
            basis[k1], basis[k2] = basis[k2], basis[k1]
            if b1 != b2:
                blocks = [b for b in blocks if b not in (b1, b2)] + [(b1[0] + b2[0],
                                                                      b1[1] + b2[1])]
        elif sabotage == "rescale":
            k = data.draw(st.sampled_from(sorted(basis)))
            c = data.draw(st.sampled_from(rescales[field]))
            basis[k] = {e: field.norm(c * v) for e, v in basis[k].items()}
        elif sabotage == "order":
            # pairs taken out of the node order; a draw whose closure restores
            # one of them is skipped
            if not gt:
                return
            dropped = set(data.draw(st.lists(st.sampled_from(sorted(gt)), min_size=1,
                                              max_size=2)))
            gt = gt - dropped
        datum = cm.CellDatum(base.field, base.table, base.nodes, gt, base.lsets,
                             base.rsets, basis, blocks, base.attach)
        if sabotage == "order" and dropped & order_pairs(datum):
            return
        if sabotage == "weights":
            # a coboundary, compatible or not, with a few weights set to zero
            gs = base.attach.green
            cls = data.draw(st.sampled_from([gs.hclass, gs.rclass, gs.lclass]))
            scalar = st.sampled_from(cobounds[field])
            pi = _coboundary(M, cls, data.draw(st.lists(scalar, min_size=max(cls) + 1,
                                                        max_size=max(cls) + 1)), field)
            element = st.integers(0, M.size - 1)
            pi = edited(pi, *((x, y, 0) for x, y in
                              data.draw(st.lists(st.tuples(element, element), max_size=2))))
            datum = datum.twisted(pi.values)
        full = cm.verify_cell_axioms(datum)
        assert full == reference_axiom_report(datum)
        counts["ok" if full.ok else "failed"] += 1
        counts["order failed"] += sabotage == "order" and not full.ok
        counts[field.spec_string()] += 1

    check()
    assert min(counts.values()) > 0, counts


COCYCLE_MEMBERS = [("tfull", 2), ("tfull", 3), ("syminv", 2), ("syminv", 3), ("tpartial", 2),
                   ("jones", 3), ("jones", 4)]


COCYCLE_SCALARS = {RATIONALS: [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)],
                   prime_field(2): [1], prime_field(3): [1, 2]}


def _draw_twisting(data):
    """A drawn field, monoid and twisting: a family member or a random
    submonoid of T3 or T4 (None past SIZE_BOUND), twisted by a coboundary or
    by the loop (corank off the Jones family) twisting at delta in {0, 1, 2},
    with up to 2 entries overwritten, zeros among them."""
    field = data.draw(st.sampled_from(list(COCYCLE_SCALARS)))
    if data.draw(st.booleans()):
        kind, r = data.draw(st.sampled_from(COCYCLE_MEMBERS))
        M, loops = cm.family(kind, r)
    else:
        r, loops = data.draw(st.integers(3, 4)), None
        point_map = st.lists(st.integers(1, r), min_size=r, max_size=r)
        M = cm.generate_from_maps(r, data.draw(st.lists(point_map, min_size=1, max_size=3)))
        if M.size > SIZE_BOUND:
            return None
    if data.draw(st.booleans()):
        values = st.sampled_from(COCYCLE_SCALARS[field])
        pi = _coboundary(M, list(range(M.size)),
                         data.draw(st.lists(values, min_size=M.size, max_size=M.size)), field)
    else:
        delta = data.draw(st.sampled_from([0, 1, 2]))
        pi = (cm.make_loop_twisting(loops, delta, field) if loops is not None
              else corank_twisting(M, r, delta, field))
    element = st.integers(0, M.size - 1)
    value = st.sampled_from([0] + COCYCLE_SCALARS[field])
    pi = edited(pi, *data.draw(st.lists(st.tuples(element, element, value), max_size=2)))
    return M, pi


def test_cocycle_check_matches_exhaustive_scan():
    # Light's test over the middles, then the lexicographic rescan on a
    # failure, must give the exhaustive scan's verdict and witness on the
    # drawn twistings.  "extended" counts the draws whose middles go past
    # M.gens.
    counts = {"cocycle": 0, "not a cocycle": 0, "zero weights": 0, "extended": 0,
              "q": 0, "fp:2": 0, "fp:3": 0}

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def check(data):
        drawn = _draw_twisting(data)
        if drawn is None:
            return
        M, pi = drawn
        witness = cm.verify_twisting(M, pi)
        assert witness == reference_twisting_witness(M, pi)
        counts["cocycle" if witness is None else "not a cocycle"] += 1
        counts["zero weights"] += any(0 in row for row in pi.values)
        counts["extended"] += (cocycle_middles(M.table, pi.values, M.gens, M.identity)
                               != M.gens)
        counts[pi.field.spec_string()] += 1

    check()
    assert min(counts.values()) > 0, counts


def test_twisted_datum_is_built_exactly_for_cocycles():
    # build_twisted_cell_datum refuses the drawn twistings that verify_twisting
    # rejects, with its witness, and no other for that reason.  On a datum it
    # builds, marked lawful, the full check acts by the middles first and
    # must report what it reports on the unmarked base.twisted(pi.values),
    # where every element acts; "extended" counts the built data whose
    # middles go past M.gens.
    counts = {"not a cocycle": 0, "incompatible": 0, "built": 0, "zero weights": 0,
              "extended": 0, "q": 0, "fp:2": 0, "fp:3": 0}

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def check(data):
        drawn = _draw_twisting(data)
        if drawn is None:
            return
        M, pi = drawn
        try:
            base = cm.standard_datum(M, pi.field)
        except cm.UnsupportedGroup:
            return
        witness = cm.verify_twisting(M, pi)
        counts[pi.field.spec_string()] += 1
        try:
            built = cm.build_twisted_cell_datum(base, pi)
        except cm.NotACocycle as exc:
            assert witness is not None and exc.witness == witness
            counts["not a cocycle"] += 1
            return
        except cm.IncompatibleTwisting:
            assert witness is None
            counts["incompatible"] += 1
            return
        assert witness is None and built.lawful
        unmarked = base.twisted(pi.values)
        assert not unmarked.lawful and not built.twisted(pi.values).lawful
        assert cm.verify_cell_axioms(built) == cm.verify_cell_axioms(unmarked)
        counts["built"] += 1
        counts["zero weights"] += any(0 in row for row in pi.values)
        counts["extended"] += (cocycle_middles(M.table, pi.values, M.gens, M.identity)
                               != M.gens)

    check()
    assert min(counts.values()) > 0, counts


@pytest.mark.parametrize("kind,n", [("tfull", 2), ("tfull", 3), ("tpartial", 2),
                                    ("syminv", 3)])
def test_corank_twisting_keeps_every_dual_path(kind, n):
    # Zero sandwich scales reach every check that reads the sandwich: at
    # delta = 0 over Q, syminv3 is not semisimple though its groups are (the
    # weighted sandwich has no permutation pattern), and tfull3 is regular
    # but not quasi-hereditary (a D-class keeps no nonzero-weighted entry).
    M, _ = cm.family(kind, n)
    for field in (RATIONALS, prime_field(2), prime_field(3)):
        base = cm.standard_datum(M, field)
        for delta in (0, 2):
            pi = corank_twisting(M, n, delta, field)
            assert cm.verify_twisting(M, pi) is None
            compat = cm.compatibility_class(M, base.attach.green, pi)
            assert compat.level == ("strong" if field.norm(delta) else "compatible")
            d = cm.build_twisted_cell_datum(base, pi, compat=compat)
            assert cm.verify_cell_axioms(d).ok
            report = cm.analyze(d)
            ledger = cm.cross_check(d, report)
            assert [c for c in ledger if c["status"] == "fail"] == []
            skipped = {c["name"] for c in ledger if c["status"] == "skip"}
            assert skipped == (({"ss_inverse_iff_groups"} if not report.inverse else set())
                               | ({"trace_form_agreement"} if field.kind != "q" else set()))
            for ni in range(len(d.nodes)):
                assert cm.gram_fast(d, ni).entries == cm.gram_definition(d, ni).entries
            if field.kind == "q" and delta == 0 and (kind, n) == ("syminv", 3):
                assert not report.semisimple
                assert all(dc["group_semisimple"] for dc in report.dclasses)
                assert next(c for c in ledger if c["name"] == "ss_inverse_iff_groups") == {
                    "name": "ss_inverse_iff_groups", "status": "pass",
                    "detail": "verdict False vs all groups semisimple True, "
                              "weighted sandwich not a permutation"}
            if field.kind == "q" and delta == 0 and (kind, n) == ("tfull", 3):
                assert report.regular and not report.quasi_hereditary

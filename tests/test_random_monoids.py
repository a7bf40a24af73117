"""Invariants the theory guarantees, on submonoids of T3 and T4 generated by a
few random maps."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import cellmonoid as cm
from cellmonoid.exactalg import RATIONALS

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
        report = cm.analyze(datum)
        assert cm.verify_cell_axioms(datum, mode="full").ok
        ledger = cm.cross_check(datum, report)
        assert [c for c in ledger if c["status"] == "fail"] == []
        trace = next(c for c in ledger if c["name"] == "trace_form_agreement")
        assert trace["status"] == "pass"
        assert (report.dim_sq_sum == M.size) == report.semisimple
        greatest = cm.analyze(cm.standard_datum(M, RATIONALS, section="greatest"))
        assert greatest.to_dict() == report.to_dict()

    check()
    assert counts["analysed"] >= sum(counts.values()) // 2, counts


FAMILY_MEMBERS = [("tfull", 2), ("tfull", 3), ("tpartial", 2), ("syminv", 3), ("jones", 3),
                  ("jones", 4)]


def _coboundary(M, cls, values):
    """pi(x, y) = f(x) f(y) / f(xy) for f = values[cls[x]], with f = 1 on the
    class of the identity so that pi is unital."""
    f = [Fraction(1) if c == cls[M.identity] else values[c] for c in cls]
    return cm.Twisting(RATIONALS, [[f[x] * f[y] / f[M.table[x][y]] for y in range(M.size)]
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
        axioms = cm.verify_cell_axioms(base.twisted(pi.values, base.attach), mode="full")
        assert axioms.ok == accepted

    check()
    assert min(counts.values()) > 0, counts

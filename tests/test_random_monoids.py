"""Invariants the theory guarantees, on submonoids of T3 and T4 generated by a
few random maps."""

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

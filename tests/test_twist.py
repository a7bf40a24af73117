from fractions import Fraction

import pytest

import cellmonoid as cm
from cellmonoid.exactalg import RATIONALS, prime_field
from cellmonoid.twist import match_scales, twist_summary

from conftest import assert_checks_clean

Q = RATIONALS


def test_loop_twisting_values(store):
    M, loops = store.monoid("jones2")
    pi = cm.make_loop_twisting(loops, Fraction(2), Q)
    e1 = 1
    assert pi.value(e1, e1) == 2
    assert all(pi.value(x, M.identity) == 1 and pi.value(M.identity, x) == 1
               for x in range(M.size))
    pi0 = cm.make_loop_twisting(loops, Fraction(0), Q)
    assert pi0.value(e1, e1) == 0
    assert pi0.value(M.identity, M.identity) == 1  # 0^0 = 1 by convention


def test_verify_twisting(store):
    M, loops = store.monoid("jones3")
    pi = cm.make_loop_twisting(loops, Fraction(2), Q)
    assert cm.verify_twisting(M, pi) is None
    triv = cm.trivial_twisting(M.size, Q)
    assert cm.verify_twisting(M, triv) is None
    bad = cm.trivial_twisting(M.size, Q)
    bad.values[1][M.identity] = Fraction(2)
    w = cm.verify_twisting(M, bad)
    assert w is not None and w["law"] == "unit"
    # a coboundary f(x)f(y)/f(xy) with non-integer f is a cocycle; the integer
    # check scales the grid by the lcm of its denominators
    f = [Fraction(1), Fraction(1, 3), Fraction(5, 2), Fraction(-2, 7), Fraction(4, 9)]
    vals = [[f[x] * f[y] / f[M.table[x][y]] for y in range(5)] for x in range(5)]
    cob = cm.Twisting(Q, vals, "coboundary")
    assert cm.verify_twisting(M, cob) is None
    cob.values[2][3] *= 3
    assert cm.verify_twisting(M, cob) == {"law": "cocycle", "triple": (1, 4, 3)}


def test_cocycle_violation_witness(store):
    M, loops = store.monoid("jones3")
    pi = cm.make_loop_twisting(loops, Fraction(2), Q)
    pi.values[1][1] = Fraction(7)  # break one entry off the loop count
    assert cm.verify_twisting(M, pi) == {"law": "cocycle", "triple": (1, 1, 2)}
    F5 = prime_field(5)
    pi5 = cm.make_loop_twisting(loops, F5.from_int(2), F5)
    pi5.values[1][1] = 3
    assert cm.verify_twisting(M, pi5) == {"law": "cocycle", "triple": (1, 1, 2)}


def test_compatibility_classes(store):
    M, loops = store.monoid("jones3")
    gs, _, _ = store.green("jones3")
    c2 = cm.compatibility_class(M, gs, cm.make_loop_twisting(loops, Fraction(2), Q))
    assert c2.level == "strong"
    c0 = cm.compatibility_class(M, gs, cm.make_loop_twisting(loops, Fraction(0), Q))
    assert c0.level == "compatible"
    ct = cm.compatibility_class(M, gs, cm.trivial_twisting(M.size, Q))
    assert ct.level == "strong" and ct.lr


def test_incompatible_coboundary_on_t2(store):
    M, _ = store.monoid("tfull2")
    gs, _, _ = store.green("tfull2")
    f = [Fraction(1), Fraction(1), Fraction(2), Fraction(1)]
    vals = [[f[x] * f[y] / f[M.table[x][y]] for y in range(4)] for x in range(4)]
    pi = cm.Twisting(Q, vals, "coboundary")
    assert cm.verify_twisting(M, pi) is None
    compat = cm.compatibility_class(M, gs, pi)
    assert compat.level == "incompatible" and compat.witness is not None
    base = store.datum("tfull2")
    with pytest.raises(cm.IncompatibleTwisting):
        cm.build_twisted_cell_datum(base, pi)


def test_twisted_multiply(store):
    M, loops = store.monoid("jones2")
    pi = cm.make_loop_twisting(loops, Fraction(2), Q)
    e1 = 1
    one = Fraction(1)
    mult = cm.table_mult(M.table, Q, pi.values)
    assert mult({M.identity: one}, {e1: one}) == {e1: one}
    assert mult({e1: one}, {e1: one}) == {e1: Fraction(2)}
    pi0 = cm.make_loop_twisting(loops, Fraction(0), Q)
    assert cm.table_mult(M.table, Q, pi0.values)({e1: one}, {e1: one}) == {}
    # all-one weights give the untwisted product, keys in the same order
    plain = cm.table_mult(M.table, Q)
    ones = cm.table_mult(M.table, Q, cm.trivial_twisting(M.size, Q).values)
    x = {k: Fraction(k + 1) for k in reversed(range(M.size))}
    y = {k: Fraction(1, k + 2) for k in range(M.size)}
    assert list(ones(x, y).items()) == list(plain(x, y).items())


def test_twisted_axioms_full(store):
    for n in (2, 3, 4):
        for ds in ("2", "0"):
            d = store.twisted(f"jones{n}", ds)
            assert cm.verify_cell_axioms(d, mode="full").ok


def test_trivial_twisting_report_matches_untwisted(store):
    M, _ = store.monoid("jones3")
    base = store.datum("jones3")
    d = cm.build_twisted_cell_datum(base, cm.trivial_twisting(M.size, Q))
    assert cm.analyze(d).to_dict() == cm.analyze(base).to_dict()


def test_tl2_delta0_not_semisimple(store):
    rep = cm.analyze(store.twisted("jones2", "0"))
    assert not rep.semisimple and not rep.quasi_hereditary
    assert rep.lambda0 == ["D0:*"]
    assert_checks_clean(rep)


def test_tl3_delta2_semisimple_with_trace(store):
    d = store.twisted("jones3", "2")
    rep = cm.analyze(d)
    assert rep.semisimple and rep.dim_sq_sum == 5
    assert_checks_clean(rep)
    assert cm.trace_form_semisimple(d.mult, d.dim, d.field)


def test_tl3_delta1_verdict_matches_trace_oracle(store):
    d = store.twisted("jones3", "1")
    rep = cm.analyze(d)
    assert_checks_clean(rep)
    assert rep.semisimple == cm.trace_form_semisimple(d.mult, d.dim, d.field)


def test_scaled_bracket_identity(store):
    for n in (2, 3, 4):
        base = store.datum(f"jones{n}")
        d = store.twisted(f"jones{n}", "2")
        at = d.attach
        scales = at.twist.scales
        for ni in range(len(d.nodes)):
            tw = cm.gram_definition(d, ni)
            un = cm.gram_definition(base, ni)
            dcl = at.node_dclass[ni]
            box = at.boxes[dcl]
            gdat = at.group_data[dcl].datum
            gn = at.node_gnode[ni]
            ls, rs = len(gdat.lsets[gn]), len(gdat.rsets[gn])
            for j in range(len(box.cols)):
                for i in range(len(box.rows)):
                    c = scales.get((dcl, i, j), Fraction(0))
                    for t in range(rs):
                        for s in range(ls):
                            assert tw.entries[j * rs + t][i * ls + s] == \
                                c * un.entries[j * rs + t][i * ls + s]


def test_match_scale_constancy(store):
    # pi is constant on products of a column class by a row class
    M, loops = store.monoid("jones3")
    gs, boxes, schutzs = store.green("jones3")
    pi = cm.make_loop_twisting(loops, Fraction(2), Q)
    base = store.datum("jones3")
    scales = match_scales(M, boxes, base.attach.matched_g, pi)
    for (dcl, i, j), c in scales.items():
        box = boxes[dcl]
        for ii in range(len(box.rows)):
            for x in box.grid[ii][j]:
                for jj in range(len(box.cols)):
                    for y in box.grid[i][jj]:
                        assert pi.value(x, y) == c


def test_twisted_fp_group_implication(store):
    # over F3 the rank-3 group of I3 is not semisimple; a strongly compatible
    # (trivial) twisting must report a non-semisimple twisted algebra
    M, _ = store.monoid("syminv3")
    base = store.datum("syminv3", "fp:3")
    F3 = prime_field(3)
    d = cm.build_twisted_cell_datum(base, cm.trivial_twisting(M.size, F3))
    rep = cm.analyze(d)
    assert not rep.semisimple
    assert_checks_clean(rep)


def test_twisting_json_round_trip(tmp_path, store):
    M, loops = store.monoid("jones3")
    pi = cm.make_loop_twisting(loops, Fraction(2), Q)
    path = tmp_path / "pi.json"
    cm.save_twisting_json(pi, path)
    pi2 = cm.load_twisting_json(path, Q)
    assert pi2.values == pi.values


def test_twist_summary_shape(store):
    M, loops = store.monoid("jones2")
    gs, _, _ = store.green("jones2")
    pi = cm.make_loop_twisting(loops, Fraction(2), Q)
    summary = twist_summary(pi, cm.compatibility_class(M, gs, pi), None)
    assert summary["cocycle_ok"] and summary["compatibility"] == "strong"

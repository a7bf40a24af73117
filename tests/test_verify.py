from fractions import Fraction

import pytest

import cellmonoid as cm
from cellmonoid.exactalg import RATIONALS, prime_field
from cellmonoid.monoid import generating_set

from conftest import assert_checks_clean


def test_axioms_murphy_s3_full():
    d = cm.murphy_datum(3, RATIONALS)
    rep = cm.verify_cell_axioms(d, mode="full")
    assert rep.ok and rep.acting_count == 6


def test_axioms_t3_full(store):
    d = store.datum("tfull3")
    rep = cm.verify_cell_axioms(d, mode="full")
    assert rep.ok and rep.acting_count == 27


def test_axioms_sabotage_produces_witness(store):
    d = store.datum("tfull2")
    swapped = dict(d.basis)
    # swap a rank-1 basis vector with the top-class vector (across nodes and blocks)
    k_top = (0, 0, 0)
    k_low = next(k for k in swapped if k[0] != 0)
    swapped[k_top], swapped[k_low] = swapped[k_low], swapped[k_top]
    datum = cm.CellDatum(d.field, d.table, d.nodes, d.gt,
                         d.lsets, d.rsets, swapped, d.blocks)
    rep = cm.verify_cell_axioms(datum, mode="full")
    assert not rep.ok
    assert rep.witness == {"side": "left", "acting": 2, "node": "D0:(2)",
                           "detail": "a*C[0,0] hits (D0:(1,1),0,0)"}


def _swap_unit_labels(d):
    # swapping the first two partition labels inside the unit class keeps a
    # basis but breaks the triangularity
    k_a, k_b = (0, 0, 0), (1, 0, 0)
    assert d.basis[k_a] != d.basis[k_b]
    swapped = dict(d.basis)
    swapped[k_a], swapped[k_b] = swapped[k_b], swapped[k_a]
    return cm.CellDatum(d.field, d.table, d.nodes, d.gt,
                        d.lsets, d.rsets, swapped, d.blocks)


def test_axioms_sabotage_same_block(store):
    # the checker must notice the swap in the unit class of T2
    datum = _swap_unit_labels(store.datum("tfull2"))
    rep = cm.verify_cell_axioms(datum, mode="full")
    assert not rep.ok
    assert rep.witness["side"] in ("left", "right")


def test_generators_mode_consistent_with_full(store):
    M, _ = store.monoid("tfull3")
    d = store.datum("tfull3")
    gens = generating_set(M)
    assert len(gens) == 3
    rep = cm.verify_cell_axioms(d, acting=gens, mode="generators")
    assert rep.ok and rep.acting_count == 3
    with pytest.raises(ValueError):
        cm.verify_cell_axioms(d, mode="generators")
    # a broken basis fails by its generators exactly when it fails in full
    for key in ("tfull2", "tfull3"):
        M, _ = store.monoid(key)
        datum = _swap_unit_labels(store.datum(key))
        full = cm.verify_cell_axioms(datum, mode="full")
        by_gens = cm.verify_cell_axioms(datum, acting=generating_set(M),
                                        mode="generators")
        assert not full.ok and not by_gens.ok


def test_axiom_report_identical_untwisted_vs_trivial_twist(store):
    M, _ = store.monoid("jones3")
    base = store.datum("jones3")
    twisted = cm.build_twisted_cell_datum(base, cm.trivial_twisting(M.size, RATIONALS))
    r1 = cm.verify_cell_axioms(base, mode="full")
    r2 = cm.verify_cell_axioms(twisted, mode="full")
    assert r1.to_dict() == r2.to_dict()


def test_trace_form_examples(store):
    d2 = store.datum("tfull2")
    assert not cm.trace_form_semisimple(d2.mult, d2.dim, d2.field)
    di = store.datum("syminv2")
    assert cm.trace_form_semisimple(di.mult, di.dim, di.field)
    dt = store.datum("trivial")
    assert cm.trace_form_semisimple(dt.mult, dt.dim, dt.field)


def test_trace_form_wrong_characteristic(store):
    d = store.datum("syminv2", "fp:3")
    with pytest.raises(cm.WrongCharacteristic):
        cm.trace_form_semisimple(d.mult, d.dim, d.field)


def test_cross_check_ledgers(store):
    for key in ("syminv3", "tfull3"):
        datum = store.datum(key)
        ledger = cm.cross_check(datum, store.report(key))
        assert all(c["status"] != "fail" for c in ledger)
        trace = next(c for c in ledger if c["name"] == "trace_form_agreement")
        assert trace["status"] == "pass"
    datum5 = store.datum("syminv3", "fp:5")
    ledger5 = cm.cross_check(datum5, store.report("syminv3", "fp:5"))
    trace5 = next(c for c in ledger5 if c["name"] == "trace_form_agreement")
    assert trace5["status"] == "skip"
    assert all(c["status"] != "fail" for c in ledger5)


def test_trace_matches_rank_criterion_on_char_zero(store):
    for key in ("trivial", "null3", "tfull2", "tpartial2", "syminv2", "jones3"):
        datum = store.datum(key)
        rep = store.report(key)
        assert cm.trace_form_semisimple(datum.mult, datum.dim, datum.field) == rep.semisimple

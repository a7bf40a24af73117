import random
from fractions import Fraction

import pytest

import cellmonoid as cm
from cellmonoid.cellbasis import CellBasisError, NotABasis
from cellmonoid.exactalg import DenseMatrix, FieldSpec, RATIONALS, mat_inverse, prime_field

from conftest import assert_checks_clean


def node_by_label(d, label):
    for ni in range(len(d.nodes)):
        if d.node_label(ni) == label:
            return ni
    raise KeyError(label)


def test_build_t2(store):
    d = store.datum("tfull2")
    labels = sorted(d.node_label(ni) for ni in range(len(d.nodes)))
    assert labels == ["D0:(1,1)", "D0:(2)", "D1:*"]
    sizes = sorted(len(d.lsets[ni]) * len(d.rsets[ni]) for ni in range(len(d.nodes)))
    assert sizes == [1, 1, 2]
    assert sum(sizes) == 4


def test_build_trivial(store):
    d = store.datum("trivial")
    assert len(d.nodes) == 1 and d.dim == 1
    assert d.basis[(0, 0, 0)] == {0: Fraction(1)}


def test_build_syminv2(store):
    d = store.datum("syminv2")
    sizes = sorted(len(d.lsets[ni]) * len(d.rsets[ni]) for ni in range(len(d.nodes)))
    assert sizes == [1, 1, 1, 4]
    assert sum(sizes) == 7


def test_coordinates(store):
    d = store.datum("tfull2")
    for key, vec in d.basis.items():
        coords = d.coordinates(vec)
        assert coords == {key: Fraction(1)}
    assert d.coordinates({}) == {}
    # gamma of the rank-1 class of T2 is the constant-to-1 map, a basis vector
    coords = d.coordinates({1: Fraction(1)})
    assert list(coords.values()) == [Fraction(1)]


def _dense_coordinates(d, inverses, vec):
    """Reference: each touched block's dense inverse times the block's column."""
    f = d.field
    out = {}
    touched = []
    for e in vec:
        bi = next(i for i, (elems, _) in enumerate(d.blocks) if e in elems)
        if bi not in touched:
            touched.append(bi)
    for bi in touched:
        elems, keys = d.blocks[bi]
        col = [vec.get(e, f.zero()) for e in elems]
        for key, row in zip(keys, inverses[bi].entries):
            acc = f.zero()
            for w, y in zip(row, col):
                acc = f.add(acc, f.mul(w, y))
            if not f.is_zero(acc):
                out[key] = acc
    return out


@pytest.mark.parametrize("field", ["q", "fp:3"])
def test_coordinates_match_dense_inverse(store, field):
    fs = FieldSpec.parse(field)
    rng = random.Random(4)
    for d in (store.datum("tfull3", field), store.datum("syminv3", field),
              store.twisted("jones4", "2", field)):
        inverses = [mat_inverse(DenseMatrix.from_rows(fs, [
            [d.basis[k].get(e, fs.zero()) for k in keys] for e in elems]))
            for elems, keys in d.blocks]
        vecs = [dict(v) for v in d.basis.values()]
        for _ in range(200):
            elems = rng.sample(range(d.dim), rng.randint(1, min(3, d.dim)))
            vecs.append({e: fs.parse_scalar(f"{rng.choice((-3, -1, 1, 2, 5))}/"
                                            f"{rng.choice((1, 2, 7))}") for e in elems})
        for vec in vecs:
            got = d.coordinates(vec)
            assert list(got.items()) == list(_dense_coordinates(d, inverses, vec).items())


def test_gram_definition_examples(store):
    d = store.datum("tfull2")
    rank1 = node_by_label(d, "D1:*")
    g = cm.gram_definition(d, rank1)
    assert (g.rows, g.cols) == (2, 1)
    assert g.entries == [[Fraction(1)], [Fraction(1)]]
    top = node_by_label(d, "D0:(2)")
    assert cm.gram_definition(d, top).entries == [[Fraction(2)]]

    di = store.datum("syminv2")
    rank1 = next(ni for ni in range(len(di.nodes))
                 if len(di.lsets[ni]) == 2 and len(di.rsets[ni]) == 2)
    gi = cm.gram_definition(di, rank1)
    assert cm.mat_rank(gi) == 2
    nonzero = [(r, c) for r in range(2) for c in range(2)
               if gi.entries[r][c] != 0]
    assert len(nonzero) == 2  # one nonzero entry per matched pair


def test_gram_checked_reference_independence(store):
    for key in ("tfull2", "syminv2", "jones3", "null3"):
        d = store.datum(key)
        for ni in range(len(d.nodes)):
            a = cm.gram_definition(d, ni, check=True)
            b = cm.gram_definition(d, ni)
            assert a.entries == b.entries


def test_gram_fast_equals_definition(store):
    for key in ("tfull2", "tfull3", "tpartial2", "syminv2", "jones3", "null3"):
        for field in ("q", "fp:3"):
            d = store.datum(key, field)
            for ni in range(len(d.nodes)):
                assert cm.gram_fast(d, ni).entries == cm.gram_definition(d, ni).entries


def test_lambda0_t2_and_null(store):
    d = store.datum("tfull2")
    assert cm.gram_summary(d).lambda0 == {0, 1, 2}
    assert cm.lambda0_via_matching(d) == {0, 1, 2}
    dn = store.datum("null3")
    l0 = cm.gram_summary(dn).lambda0
    assert len(l0) == 2
    assert cm.lambda0_via_matching(dn) == l0
    labels = {dn.node_label(ni) for ni in l0}
    assert "D1:*" not in labels  # the square-zero class drops out
    dt = store.datum("trivial")
    assert cm.gram_summary(dt).lambda0 == {0}
    assert cm.lambda0_via_matching(dt) == {0}


def test_irreducible_dims(store):
    d = store.datum("tfull2")
    dims = cm.gram_summary(d).dims
    assert sorted(dims.values()) == [1, 1, 1]
    di = store.datum("syminv2")
    assert sorted(cm.gram_summary(di).dims.values()) == [1, 1, 1, 2]
    assert sum(v * v for v in cm.gram_summary(di).dims.values()) == 7


def test_quasi_hereditary(store):
    assert cm.gram_summary(store.datum("tfull3")).quasi_hereditary
    assert cm.gram_summary(store.datum("trivial")).quasi_hereditary
    qh = cm.gram_summary(store.datum("null3"))
    assert not qh.quasi_hereditary and qh.qh_failing == ["D1:*"]


def test_semisimple(store):
    assert cm.gram_summary(store.datum("syminv3")).semisimple
    res = cm.gram_summary(store.datum("tfull2"))
    assert not res.semisimple and "not square" in res.ss_certificate
    f3 = cm.gram_summary(store.datum("syminv3", "fp:3"))
    assert not f3.semisimple
    assert cm.gram_summary(store.datum("syminv3", "fp:5")).semisimple


def test_analyze_reports(store):
    rep = store.report("syminv3")
    assert rep.semisimple and rep.quasi_hereditary and rep.inverse and rep.regular
    assert rep.dim_sq_sum == 34
    assert_checks_clean(rep)
    rep = store.report("tfull3")
    assert not rep.semisimple and rep.quasi_hereditary
    assert_checks_clean(rep)
    rep = store.report("null3")
    assert not rep.regular and not rep.quasi_hereditary
    assert rep.qh_failing == ["D1:*"]
    assert_checks_clean(rep)


def test_analyze_positive_characteristic(store):
    rep3 = store.report("syminv3", "fp:3")
    assert not rep3.semisimple and not rep3.quasi_hereditary
    assert_checks_clean(rep3)
    rep5 = store.report("syminv3", "fp:5")
    assert rep5.semisimple and rep5.dim_sq_sum == 34
    assert_checks_clean(rep5)


def test_basis_count_identity(store):
    for key in ("tfull2", "tfull3", "tpartial2", "tpartial3", "syminv2", "syminv3", "jones4"):
        d = store.datum(key)
        total = sum(len(d.lsets[ni]) * len(d.rsets[ni]) for ni in range(len(d.nodes)))
        assert total == d.dim


def test_group_mismatch():
    M, _ = cm.family("tfull", 2)
    gs, boxes, schutzs = cm.green_data(M)
    gd = cm.standard_group_data(M, gs, boxes, schutzs, RATIONALS)
    d_units = gs.dclass[M.identity]
    good = gd[d_units]
    gd[d_units] = cm.GroupDatumAttachment(good.datum, list(reversed(good.iso)), good.kind)
    if gd[d_units].iso != good.iso:
        with pytest.raises(cm.GroupMismatch):
            cm.build_cell_datum(M, gs, boxes, schutzs, gd, RATIONALS)


def test_section_choice_does_not_change_results(store):
    M, _ = store.monoid("syminv2")
    base = cm.analyze(cm.standard_datum(M, RATIONALS, section="least"))
    other = cm.analyze(cm.standard_datum(M, RATIONALS, section="greatest"))
    assert base.to_dict() == other.to_dict()
    M3, _ = store.monoid("tfull3")
    b3 = cm.analyze(cm.standard_datum(M3, RATIONALS, section="least"))
    o3 = cm.analyze(cm.standard_datum(M3, RATIONALS, section="greatest"))
    assert b3.lambda0 == o3.lambda0
    assert [n["gram_rank"] for n in b3.nodes] == [n["gram_rank"] for n in o3.nodes]


def test_datum_rejects_dependent_vectors():
    M, _ = cm.family("tfull", 2)
    gs, boxes, schutzs = cm.green_data(M)
    gd = cm.standard_group_data(M, gs, boxes, schutzs, RATIONALS)
    datum = cm.build_cell_datum(M, gs, boxes, schutzs, gd, RATIONALS)
    broken = dict(datum.basis)
    k0 = sorted(broken)[0]
    broken[k0] = {}  # zero vector makes its block singular
    with pytest.raises(NotABasis):
        cm.CellDatum(datum.field, datum.table, datum.nodes, datum.gt,
                     datum.lsets, datum.rsets, broken, datum.blocks)

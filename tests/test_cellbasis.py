import json
import random
from fractions import Fraction

import pytest

import cellmonoid as cm
from cellmonoid import cellbasis
from cellmonoid.cellbasis import CellBasisError, NotABasis
from cellmonoid.cli import main
from cellmonoid.exactalg import DenseMatrix, FieldSpec, RATIONALS, mat_inverse, prime_field
from cellmonoid.groupcell import dominates

from conftest import (assembled_order_pairs, assert_checks_clean, reference_table_mult,
                      assert_node_order_matches_reference, assert_phi_r_reads_every_member,
                      order_pairs, reference_bracket)


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


def test_a_group_datum_labels_each_node_by_its_partition():
    # A two-part partition such as (2,1) is a group node, not an assembled
    # (D-class, group label) pair, so it reads (2,1), not D2:1; the Gram
    # summary's failing nodes use the same labels.
    for n in (2, 3, 4):
        d = cm.murphy_datum(n, RATIONALS)
        assert [d.node_label(ni) for ni in range(len(d.nodes))] == [
            cellbasis._lam_str(lam) for lam in d.nodes]
    assert cm.murphy_datum(3, RATIONALS).node_label(1) == "(2,1)"
    summary = cellbasis.gram_summary(cm.murphy_datum(4, prime_field(2)))
    assert summary.qh_failing == ["(4)", "(3,1)", "(2,2)"]


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
        col = [vec.get(e, 0) for e in elems]
        for key, row in zip(keys, inverses[bi].entries):
            acc = 0
            for w, y in zip(row, col):
                acc += w * y
            acc = f.norm(acc)
            if acc:
                out[key] = acc
    return out


@pytest.mark.parametrize("field", ["q", "fp:3"])
def test_coordinates_match_dense_inverse(store, field):
    fs = FieldSpec.parse(field)
    rng = random.Random(4)
    for d in (store.datum("tfull3", field), store.datum("syminv3", field),
              store.twisted("jones4", "2", field)):
        inverses = [mat_inverse(DenseMatrix.from_rows(fs, [
            [d.basis[k].get(e, 0) for k in keys] for e in elems]))
            for elems, keys in d.blocks]
        vecs = [dict(v) for v in d.basis.values()]
        for _ in range(200):
            elems = rng.sample(range(d.dim), rng.randint(1, min(3, d.dim)))
            vecs.append({e: fs.parse_scalar(f"{rng.choice((-3, -1, 1, 2, 5))}/"
                                            f"{rng.choice((1, 2, 7))}") for e in elems})
        for vec in vecs:
            got = d.coordinates(vec)
            assert list(got.items()) == list(_dense_coordinates(d, inverses, vec).items())


@pytest.mark.parametrize("field", ["q", "fp:3", "fp:5"])
def test_stored_scalars_are_canonical(store, field):
    # Sums are taken on raw products and reduced once, where they are stored:
    # every stored scalar must come out as an int in [0, p) over F_p, and as
    # an int or a Fraction over Q.
    fs = FieldSpec.parse(field)

    def canonical(x):
        if fs.kind == "q":
            return type(x) in (int, Fraction)
        return type(x) is int and 0 <= x < fs.p

    for d in (store.datum("tfull3", field), store.twisted("jones4", "2", field)):
        values = [c for vec in d.basis.values() for c in vec.values()]
        values += [w for row in d.weights or () for w in row]
        vecs = list(d.basis.values())
        for x in vecs:
            for y in vecs:
                prod = d.mult(x, y)
                values += prod.values()
                values += d.coordinates(prod).values()
        for ni in range(len(d.nodes)):
            for gram in (cm.gram_definition(d, ni), cm.gram_fast(d, ni)):
                values += [v for row in gram.entries for v in row]
        bad = [v for v in values if not canonical(v)]
        assert not bad, bad[:5]
        assert any(v != 0 for v in values)


@pytest.mark.parametrize("field", ["q", "fp:3", "fp:5"])
def test_table_mult_matches_the_norm_per_key_reference(store, field):
    # table_mult reduces each key inline; conftest.reference_table_mult calls
    # field.norm once per key.  Random sparse vectors on jones4's table, with
    # and without random weights (zeros among them), must give the same
    # items in the same key order, with the same scalar types.  Small
    # coefficients make terms cancel, over Q also between Fractions.
    fs = FieldSpec.parse(field)
    rng = random.Random(field)
    M, _ = store.monoid("jones4")
    T, n = M.table, M.size
    pool = ([1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)] if fs.kind == "q"
            else list(range(1, fs.p)))
    weights = [[rng.choice([0] + pool) for _ in range(n)] for _ in range(n)]
    pairs = [(cellbasis.table_mult(T, fs), reference_table_mult(T, fs)),
             (cellbasis.table_mult(T, fs, weights), reference_table_mult(T, fs, weights))]
    cancelled = 0
    for _ in range(400):
        x, y = ({k: rng.choice(pool) for k in rng.sample(range(n), rng.randint(0, 6))}
                for _ in range(2))
        for mult, reference in pairs:
            got, want = mult(x, y), reference(x, y)
            assert [(k, v, type(v)) for k, v in got.items()] == [
                (k, v, type(v)) for k, v in want.items()], (x, y)
        cancelled += len(got) < len({T[a][b] for a in x for b in y if weights[a][b]})
    assert cancelled > 20, cancelled


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
            a = [[reference_bracket(d, ni, r, c) for c in range(len(d.lsets[ni]))]
                 for r in range(len(d.rsets[ni]))]
            assert a == cm.gram_definition(d, ni).entries


def test_gram_fast_equals_definition(store):
    for key in ("tfull2", "tfull3", "tpartial2", "syminv2", "jones3", "null3"):
        for field in ("q", "fp:3"):
            d = store.datum(key, field)
            for ni in range(len(d.nodes)):
                assert cm.gram_fast(d, ni).entries == cm.gram_definition(d, ni).entries
    # a compatible twisting with zero scales: Temperley-Lieb at delta = 0
    for n in (2, 3, 4):
        d = store.twisted(f"jones{n}", "0")
        assert any(len(cm.weighted_sandwich(d, dcl)) < len(mm)
                   for dcl, mm in enumerate(d.attach.matched_g))
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
    gd = cm.standard_group_data(schutzs, RATIONALS)
    d_units = gs.dclass[M.identity]
    good = gd[d_units]
    gd[d_units] = cm.GroupDatumAttachment(good.datum, list(reversed(good.iso)), good.kind)
    if gd[d_units].iso != good.iso:
        with pytest.raises(cm.GroupMismatch):
            cm.build_cell_datum(M, gs, boxes, schutzs, gd, RATIONALS)


@pytest.mark.parametrize("key", ["syminv2", "tfull3", "tfull4", "tpartial3", "syminv4", "jones5"])
def test_phi_r_is_gamma_times_every_member_of_its_element(store, key):
    # so no choice of representative can change phiR, mult or the datum built on them
    M, _ = store.monoid(key)
    _, boxes, schutzs = store.green(key)
    others = assert_phi_r_reads_every_member(M, boxes, schutzs)
    assert others > 0


def test_datum_rejects_dependent_vectors():
    M, _ = cm.family("tfull", 2)
    gs, boxes, schutzs = cm.green_data(M)
    gd = cm.standard_group_data(schutzs, RATIONALS)
    datum = cm.build_cell_datum(M, gs, boxes, schutzs, gd, RATIONALS)
    broken = dict(datum.basis)
    k0 = sorted(broken)[0]
    broken[k0] = {}  # zero vector makes its block singular
    with pytest.raises(NotABasis):
        cm.CellDatum(datum.field, datum.table, datum.nodes, order_pairs(datum),
                     datum.lsets, datum.rsets, broken, datum.blocks)


def _block_grid(d, elems, keys):
    return [[d.basis[k].get(e, 0) for k in keys] for e in elems]


def _assert_per_block_inverses(d):
    """The stored inverse columns are those of mat_inverse called on every
    block, values and types alike."""
    expected = {}
    for elems, keys in d.blocks:
        inv = mat_inverse(DenseMatrix.from_rows(d.field, _block_grid(d, elems, keys)))
        for c, e in enumerate(elems):
            expected[e] = [(r, row[c]) for r, row in enumerate(inv.entries) if row[c]]
    assert d._inv_cols == expected

    def typed(cols):
        return {e: [(r, type(w)) for r, w in col] for e, col in cols.items()}

    assert typed(d._inv_cols) == typed(expected)


@pytest.mark.parametrize("key,field", [("tfull3", "q"), ("tpartial3", "q"), ("syminv4", "q"),
                                       ("jones5", "q"), ("jones4", "q"), ("tfull3", "fp:3")])
def test_shared_block_inverses_match_per_block_inverses(store, key, field):
    # Blocks with equal matrices share one inverse.
    _assert_per_block_inverses(
        store.twisted(key, "2", field) if key == "jones4" else store.datum(key, field))


def test_rescaled_blocks_keep_their_own_inverses(store):
    # Every block of the standard datum of one size has the same matrix;
    # doubling one vector in every other block gives equal-sized blocks with
    # different matrices, and inverses with entries 1/2.
    d = store.datum("tfull3")
    basis = dict(d.basis)
    for elems, keys in d.blocks[::2]:
        basis[keys[0]] = {e: 2 * c for e, c in basis[keys[0]].items()}
    rescaled = cm.CellDatum(d.field, d.table, d.nodes, order_pairs(d), d.lsets, d.rsets, basis,
                            d.blocks)
    _assert_per_block_inverses(rescaled)
    assert any(type(w) is Fraction for col in rescaled._inv_cols.values() for _, w in col)


def test_one_inverse_per_distinct_block(store, monkeypatch):
    # Each cell's block is its group datum's block with the carrier
    # relabelled, so the assembled datum inverts none of its 4 distinct
    # blocks.  The 4 inversions left are the group data's, one per group
    # datum built: the trivial one once, however many D-classes share it.
    M, _ = store.monoid("tpartial4")
    gs, boxes, schutzs = store.green("tpartial4")
    calls = []

    def counted(m):
        calls.append(m)
        return mat_inverse(m)

    monkeypatch.setattr(cellbasis, "mat_inverse", counted)
    group_data = cm.standard_group_data(schutzs, RATIONALS)
    assert sorted(m.rows for m in calls) == [1, 2, 6, 24]
    calls.clear()
    d = cm.build_cell_datum(M, gs, boxes, schutzs, group_data, RATIONALS)
    distinct = {tuple(map(tuple, _block_grid(d, elems, keys))) for elems, keys in d.blocks}
    assert len(d.blocks) == 252 and len(distinct) == 4
    assert calls == []
    _assert_per_block_inverses(d)


def test_singular_block_is_named_despite_shared_inverses(store):
    # Sabotage blocks whose healthy matrix an earlier block shares, by
    # repeating a vector: the first sabotaged block is the one named.
    d = store.datum("tfull3")
    seen, repeats = set(), []
    for bi, (elems, keys) in enumerate(d.blocks):
        grid = tuple(map(tuple, _block_grid(d, elems, keys)))
        if grid in seen and len(keys) > 1:
            repeats.append(bi)
        seen.add(grid)
    assert len(repeats) >= 2

    def sabotaged(*bis):
        basis = dict(d.basis)
        for bi in bis:
            keys = d.blocks[bi][1]
            basis[keys[1]] = dict(basis[keys[0]])
        return cm.CellDatum(d.field, d.table, d.nodes, order_pairs(d), d.lsets, d.rsets, basis,
                            d.blocks)

    for bis in ((repeats[-1],), (repeats[0], repeats[-1])):
        with pytest.raises(NotABasis, match=f"^labeled vectors of block {bis[0]} are linearly "
                                             f"dependent$"):
            sabotaged(*bis)


@pytest.mark.parametrize("key", ["tfull3", "tfull4", "tpartial3", "syminv3", "syminv4", "jones5"])
def test_node_order_matches_fixpoint_closure(store, key):
    d = store.datum(key)
    assert_node_order_matches_reference(d, assembled_order_pairs(d))


def test_murphy_order_matches_fixpoint_closure():
    d = cm.murphy_datum(4, RATIONALS)
    assert_node_order_matches_reference(d, [(a, b) for a, lam in enumerate(d.nodes)
                                            for b, mu in enumerate(d.nodes)
                                            if lam != mu and dominates(lam, mu)])


@pytest.mark.parametrize("extra", [
    [(1, 1)],          # a self-pair
    [(2, 1)],          # a 2-cycle with (1, 2)
    [(2, 0)],          # a 3-cycle through the covering pairs (0, 1), (1, 2)
    [(0, 3)],          # a node past the last one
    [(-1, 0)],         # a negative node
])
def test_datum_rejects_a_node_order_that_is_not_strict(extra):
    # murphy_datum(3) orders (3) > (2,1) > (1,1,1); given only the covering
    # pairs, the 3-cycle shows only once the order is closed
    d = cm.murphy_datum(3, RATIONALS)
    assert cm.CellDatum(d.field, d.table, d.nodes, [(0, 1), (1, 2)], d.lsets, d.rsets,
                        d.basis, d.blocks).higher == d.higher
    with pytest.raises(ValueError, match="^node order is not a strict partial order$"):
        cm.CellDatum(d.field, d.table, d.nodes, [(0, 1), (1, 2)] + extra, d.lsets, d.rsets,
                     d.basis, d.blocks)


def test_deep_d_chain_end_to_end(tmp_path, capsys):
    # {1, a, ..., a^320} with a^320 = a^321: 321 singleton D-classes in one
    # chain, one trivial-group node each, every node above those of the
    # classes over it
    n = 321
    M = cm.from_cayley_table(n, 0, [[min(i + j, n - 1) for j in range(n)] for i in range(n)])
    d = cm.standard_datum(M, FieldSpec.parse("fp:3"))
    assert [dc for dc, _ in d.nodes] == list(range(n))
    assert d.higher == [frozenset(range(ni + 1, n)) for ni in range(n)]
    path = tmp_path / "chain.json"
    cm.save_cayley_json(M, path)
    report = tmp_path / "r.json"
    assert main(["analyze", "--cayley", str(path), "--field", "fp:3",
                    "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["axioms"]["ok"]
    assert [c for c in payload["cross_checks"] if c["status"] == "fail"] == []

import math

import pytest

import cellmonoid as cm
from cellmonoid.exactalg import RATIONALS, prime_field
from cellmonoid.groupcell import (AxiomViolation, GroupCellError, _factorial_arg,
                                  dominates, murphy_datum, partitions,
                                  standard_tableaux, symmetric_group_table)

from conftest import order_pairs, reference_bracket

F2 = prime_field(2)
F3 = prime_field(3)


def test_partitions_and_dominance():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert dominates((3, 1), (2, 2)) and not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 1, 1))
    assert dominates((2, 1), (2, 1))
    with pytest.raises(ValueError):
        dominates((2,), (1, 1, 1))


def test_standard_tableaux_counts_identity():
    for n in range(1, 6):
        total = sum(len(standard_tableaux(lam)) ** 2 for lam in partitions(n))
        assert total == math.factorial(n)


def test_tableaux_order_row_reading_first():
    tabs = standard_tableaux((2, 1))
    assert tabs[0] == ((0, 1), (2,))
    assert tabs[1] == ((0, 2), (1,))


def test_trivial_group_datum():
    for field in (RATIONALS, F2):
        d = cm.trivial_group_datum(field)
        assert d.dim == 1 and len(d.nodes) == 1
        assert cm.bracket_value(d, 0, 0, 0) == 1
        rep = cm.verify_cell_axioms(d)
        assert rep.ok


def test_murphy_s2_basis():
    d = murphy_datum(2, RATIONALS)
    _, perms = symmetric_group_table(2)
    e, s = perms.index((0, 1)), perms.index((1, 0))
    assert d.basis[(0, 0, 0)] == {e: 1, s: 1}   # node (2)
    assert d.basis[(1, 0, 0)] == {e: 1}          # node (1,1)
    assert 0 in d.higher[1]  # (2) sits above (1,1)


def test_murphy_s3_counts():
    d = murphy_datum(3, RATIONALS)
    assert [len(s) for s in d.lsets] == [1, 2, 1]
    assert sum(len(l) * len(r) for l, r in zip(d.lsets, d.rsets)) == 6


def test_murphy_cap():
    with pytest.raises(GroupCellError):
        murphy_datum(6, RATIONALS)


def test_group_gram_values_s2():
    d = murphy_datum(2, RATIONALS)
    assert cm.gram_definition(d, 0).entries == [[2]]
    assert cm.gram_definition(d, 1).entries == [[1]]
    assert cm.gram_summary(d).lambda0 == {0, 1}
    assert cm.gram_summary(d).semisimple
    d2 = murphy_datum(2, F2)
    assert cm.gram_definition(d2, 0).entries == [[0]]
    assert cm.gram_summary(d2).lambda0 == {1}
    assert not cm.gram_summary(d2).semisimple


def test_group_gram_s3_rationals_vs_f3():
    dq = murphy_datum(3, RATIONALS)
    assert cm.gram_summary(dq).semisimple
    assert sum(len(l) ** 2 for l in dq.lsets) == 6
    dp = murphy_datum(3, F3)
    singular = [ni for ni in range(3)
                if cm.mat_rank(cm.gram_definition(dp, ni)) < len(dp.lsets[ni])]
    assert singular
    assert not cm.gram_summary(dp).semisimple


def test_bracket_reference_independence_small():
    for n in (2, 3):
        d = murphy_datum(n, RATIONALS)
        for ni in range(len(d.nodes)):
            for r in range(len(d.rsets[ni])):
                for c in range(len(d.lsets[ni])):
                    # raises on any disagreement
                    assert reference_bracket(d, ni, r, c) == cm.bracket_value(d, ni, r, c)


def test_murphy_axioms_full():
    for n in (2, 3):
        for field in (RATIONALS, F2):
            d = murphy_datum(n, field)
            assert cm.verify_cell_axioms(d).ok


def test_custom_datum_rejections():
    d = murphy_datum(2, RATIONALS)
    _, _, schutzs = cm.green_data(cm.from_cayley_table(2, 0, d.table))

    def with_basis(basis):
        return cm.CellDatum(RATIONALS, d.table, d.nodes, order_pairs(d), d.lsets, d.rsets, basis,
                            d.blocks)

    top, bottom = sorted(d.basis)
    assert cm.standard_group_data(schutzs, RATIONALS, custom={0: with_basis(d.basis)})[0].kind == "custom"
    # the same vector under two labels
    with pytest.raises(cm.NotABasis):
        with_basis({top: d.basis[bottom], bottom: d.basis[bottom]})
    # scrambled basis vectors that still span: axiom violation where the datum enters
    scrambled = with_basis({top: d.basis[bottom], bottom: d.basis[top]})
    with pytest.raises(AxiomViolation):
        cm.standard_group_data(schutzs, RATIONALS, custom={0: scrambled})


def test_custom_datum_over_another_field_refused(store):
    # S2's tableau datum over F2 for the unit class of T2 over Q: its axiom
    # check passes over F2, but the analysis over Q would read its Grams in
    # the wrong field, so it is refused where it enters
    _, _, schutzs = store.green("tfull2")
    with pytest.raises(cm.UnsupportedGroup,
                       match="^D-class 0: custom datum is over fp:2, not q$"):
        cm.standard_group_data(schutzs, RATIONALS, custom={0: murphy_datum(2, F2)})
    kinds = cm.standard_group_data(schutzs, F2, custom={0: murphy_datum(2, F2)})
    assert kinds[0].kind == "custom"


def test_find_symmetric_iso(store):
    gs, boxes, schutzs = store.green("tfull3")
    d_units = gs.dclass[0]
    iso = cm.find_symmetric_iso(3, schutzs[d_units])
    assert iso is not None and sorted(iso) == list(range(6))
    d_rank2 = next(i for i, c in enumerate(gs.dclasses) if len(c) == 18)
    assert cm.find_symmetric_iso(2, schutzs[d_rank2]) is not None
    assert cm.find_symmetric_iso(3, schutzs[d_rank2]) is None


def test_factorial_arg():
    assert _factorial_arg(6) == 3
    assert _factorial_arg(24) == 4
    assert _factorial_arg(7) is None


def test_standard_group_data_kinds(store):
    M, _ = store.monoid("syminv3")
    gs, boxes, schutzs = store.green("syminv3")
    gd = cm.standard_group_data(schutzs, RATIONALS)
    kinds = sorted(g.kind for g in gd.values())
    assert kinds == ["symmetric(2)", "symmetric(3)", "trivial", "trivial"]


def test_unsupported_group():
    # Z/4 as a monoid: the unit group is cyclic of order 4, not symmetric
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    M = cm.from_cayley_table(4, 0, table, ["0", "1", "2", "3"])
    gs, boxes, schutzs = cm.green_data(M)
    with pytest.raises(cm.UnsupportedGroup):
        cm.standard_group_data(schutzs, RATIONALS)


def _c4_datum(sch, vectors):
    """A custom datum over F2 on the group's own table: one block, one 1x1
    node per vector, nodes a > b > c > d."""
    basis = {(ni, 0, 0): {g: 1 for g in vec} for ni, vec in enumerate(vectors)}
    return cm.CellDatum(F2, sch.mult, list("abcd"), [(0, 1), (1, 2), (2, 3)],
                        [["0"]] * 4, [["0"]] * 4, basis, [(tuple(range(4)), tuple(sorted(basis)))])


def test_custom_datum_rescues_unsupported_group():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    M = cm.from_cayley_table(4, 0, table, ["0", "1", "2", "3"])
    gs, boxes, schutzs = cm.green_data(M)
    sch = schutzs[0]
    # a datum of the wrong dimension is refused before any axiom check
    with pytest.raises(cm.UnsupportedGroup, match="custom datum has the wrong dimension"):
        cm.standard_group_data(schutzs, F2, custom={0: cm.trivial_group_datum(F2)})
    # spans of single group elements are not ideals, so this must be refused
    bad = _c4_datum(sch, [[0], [1], [2], [3]])
    with pytest.raises(AxiomViolation):
        cm.standard_group_data(schutzs, F2, custom={0: bad})
    # over F2 the algebra of Z/4 is local and the (g+1)-power filtration is a
    # genuine cell datum: (g+1)^3 > (g+1)^2 > (g+1) > 1
    datum = _c4_datum(sch, [[0, 1, 2, 3], [0, 2], [0, 1], [0]])
    gd = cm.standard_group_data(schutzs, F2, custom={0: datum})
    assert gd[0].datum is datum and gd[0].kind == "custom"
    full = cm.build_cell_datum(M, gs, boxes, schutzs, gd, F2)
    assert cm.verify_cell_axioms(full).ok
    rep = cm.analyze(full)
    assert not rep.semisimple and not rep.quasi_hereditary

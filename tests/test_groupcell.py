import json
import math

import pytest

import cellmonoid as cm
from cellmonoid.exactalg import RATIONALS, prime_field
from cellmonoid.groupcell import (AxiomViolation, GroupCellError, _factorial_arg,
                                  dominates, murphy_datum, partitions,
                                  standard_tableaux, symmetric_group_table)

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
        rep = cm.verify_cell_axioms(d, mode="full")
        assert rep.ok


def test_murphy_s2_basis():
    d = murphy_datum(2, RATIONALS)
    _, perms = symmetric_group_table(2)
    e, s = perms.index((0, 1)), perms.index((1, 0))
    assert d.basis[(0, 0, 0)] == {e: 1, s: 1}   # node (2)
    assert d.basis[(1, 0, 0)] == {e: 1}          # node (1,1)
    assert (0, 1) in d.gt  # (2) sits above (1,1)


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
            cm.gram_definition(d, ni, check=True)  # raises on any disagreement


def test_murphy_axioms_full():
    for n in (2, 3):
        for field in (RATIONALS, F2):
            d = murphy_datum(n, field)
            assert cm.verify_cell_axioms(d, mode="full").ok


def test_custom_datum_round_trip(tmp_path):
    d = murphy_datum(2, RATIONALS)
    path = tmp_path / "s2.json"
    cm.save_custom_datum(d, path)
    loaded = cm.load_custom_datum(path, d.table, RATIONALS)
    assert loaded.basis == d.basis
    assert loaded.gt == d.gt
    assert [len(s) for s in loaded.lsets] == [len(s) for s in d.lsets]


def test_custom_datum_rejections(tmp_path):
    d = murphy_datum(2, RATIONALS)
    path = tmp_path / "s2.json"
    cm.save_custom_datum(d, path)
    data = json.loads(path.read_text())
    data["basis"]["(2)/0/0"] = data["basis"]["(1,1)/0/0"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(cm.NotABasis):
        cm.load_custom_datum(bad, d.table, RATIONALS)
    # scrambled basis vectors that still span: axiom violation
    data2 = json.loads(path.read_text())
    data2["basis"]["(2)/0/0"], data2["basis"]["(1,1)/0/0"] = (
        data2["basis"]["(1,1)/0/0"], data2["basis"]["(2)/0/0"])
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(data2))
    with pytest.raises(AxiomViolation):
        cm.load_custom_datum(bad2, d.table, RATIONALS)


CUSTOM_DATUM_FAULTS = {
    "nodes_not_a_list": lambda data: data.update(nodes="(2)"),
    "L_not_an_object": lambda data: data.update(L=5),
    "R_not_an_object": lambda data: data.update(R=["(2)", 1]),
    "size_not_an_int": lambda data: data["L"].update({"(2)": "1"}),
    "poset_pair_too_short": lambda data: data.update(poset=[["(2)"]]),
    "poset_unknown_node": lambda data: data.update(poset=[["(2)", "(3)"]]),
    "basis_not_an_object": lambda data: data.update(basis=[]),
    "basis_terms_not_a_list": lambda data: data["basis"].update({"(2)/0/0": 5}),
    "basis_term_not_a_pair": lambda data: data["basis"].update({"(2)/0/0": [[0]]}),
    "basis_index_not_an_int": lambda data: data["basis"].update({"(2)/0/0": [["0", "1"]]}),
    "basis_unknown_node": lambda data: data["basis"].update({"(3)/0/0": [[0, "1"]]}),
    "basis_index_is_a_boolean": lambda data: data["basis"].update(
        {"(2)/0/0": [[False, "1"], [True, "1"]]}),
    "basis_alias_key": lambda data: data["basis"].update({"(2)/00/0": data["basis"]["(2)/0/0"]}),
    "basis_key_malformed": lambda data: data["basis"].update({"(2)/0": [[0, "1"]]}),
}
# faults whose message must name the offending basis key
NAMED_KEYS = {"basis_alias_key": "(2)/00/0", "basis_key_malformed": "(2)/0"}


@pytest.mark.parametrize("fault", sorted(CUSTOM_DATUM_FAULTS))
def test_custom_datum_wrong_types_raise_value_error(tmp_path, fault):
    d = murphy_datum(2, RATIONALS)
    path = tmp_path / "s2.json"
    cm.save_custom_datum(d, path)
    data = json.loads(path.read_text())
    CUSTOM_DATUM_FAULTS[fault](data)
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as err:
        cm.load_custom_datum(path, d.table, RATIONALS)
    assert fault not in NAMED_KEYS or repr(NAMED_KEYS[fault]) in str(err.value)


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


def test_custom_datum_rescues_unsupported_group(tmp_path):
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    M = cm.from_cayley_table(4, 0, table, ["0", "1", "2", "3"])
    gs, boxes, schutzs = cm.green_data(M)
    sch = schutzs[0]
    # spans of single group elements are not ideals, so this must be refused
    payload = {
        "nodes": ["a", "b", "c", "d"],
        "poset": [["a", "b"], ["b", "c"], ["c", "d"]],
        "L": {"a": 1, "b": 1, "c": 1, "d": 1},
        "R": {"a": 1, "b": 1, "c": 1, "d": 1},
        "basis": {f"{lab}/0/0": [[g, "1"]] for lab, g in zip("abcd", range(4))},
    }
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(AxiomViolation):
        cm.load_custom_datum(path, sch.mult, F2)
    # over F2 the algebra of Z/4 is local and the (g+1)-power filtration is a
    # genuine cell datum: (g+1)^3 > (g+1)^2 > (g+1) > 1
    payload2 = {
        "nodes": ["a", "b", "c", "d"],
        "poset": [["a", "b"], ["b", "c"], ["c", "d"]],
        "L": {"a": 1, "b": 1, "c": 1, "d": 1},
        "R": {"a": 1, "b": 1, "c": 1, "d": 1},
        "basis": {
            "a/0/0": [[0, "1"], [1, "1"], [2, "1"], [3, "1"]],
            "b/0/0": [[0, "1"], [2, "1"]],
            "c/0/0": [[0, "1"], [1, "1"]],
            "d/0/0": [[0, "1"]],
        },
    }
    path2 = tmp_path / "c4b.json"
    path2.write_text(json.dumps(payload2))
    datum = cm.load_custom_datum(path2, sch.mult, F2)
    gd = cm.standard_group_data(schutzs, F2, custom={0: datum})
    full = cm.build_cell_datum(M, gs, boxes, schutzs, gd, F2)
    assert cm.verify_cell_axioms(full, mode="full").ok
    rep = cm.analyze(full)
    assert not rep.semisimple and not rep.quasi_hereditary

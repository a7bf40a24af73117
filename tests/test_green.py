import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import cellmonoid as cm
from cellmonoid.green import GreenError

from conftest import (check_class_preservation, check_eggbox_rectangular, check_h_stability,
                      check_matched_representative_independence)

SMALL_KEYS = ("trivial", "null3", "tfull2", "tfull3", "tpartial2", "syminv2", "jones3")


def _ideal_route(M):
    """D-classes as elements with equal two-sided ideals MxM, ids by least
    member; returns (dclass, dclasses, dideals, dless)."""
    T = M.table
    n = M.size
    ideals = [frozenset(T[z][w] for z in {T[m][x] for m in range(n)} for w in range(n))
              for x in range(n)]
    dclass, dclasses, first = [], [], {}
    for x, ideal in enumerate(ideals):
        if ideal not in first:
            first[ideal] = len(dclasses)
            dclasses.append([])
        dclass.append(first[ideal])
        dclasses[first[ideal]].append(x)
    dideals = [ideals[members[0]] for members in dclasses]
    k = len(dclasses)
    dless = frozenset((a, b) for a in range(k) for b in range(k)
                      if a != b and dideals[a] <= dideals[b])
    return dclass, dclasses, dideals, dless


def _assert_ideal_route(M):
    gs = cm.compute_green(M)
    assert (gs.dclass, gs.dclasses, gs.dideals, gs.dless) == _ideal_route(M)
    return gs


@pytest.mark.parametrize("key", SMALL_KEYS + ("tpartial3", "syminv3", "jones4"))
def test_dclasses_match_two_sided_ideals(store, key):
    _assert_ideal_route(store.monoid(key)[0])


@pytest.mark.parametrize("key", ["tfull3", "jones4"])
@settings(max_examples=15, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_dclasses_match_two_sided_ideals_relabeled(store, key, data):
    M, _ = store.monoid(key)
    sigma = data.draw(st.permutations(range(M.size)))
    assume(sigma[M.identity] != 0)
    table = [[0] * M.size for _ in range(M.size)]
    for x in range(M.size):
        for y in range(M.size):
            table[sigma[x]][sigma[y]] = sigma[M.table[x][y]]
    R = cm.from_cayley_table(M.size, sigma[M.identity], table)
    gs = _assert_ideal_route(R)
    for d, members in enumerate(gs.dclasses):
        box = cm.build_eggbox(R, gs, d)
        assert box.gamma == members[0]
        assert box.rows[0] == gs.rclass[box.gamma] and box.cols[0] == gs.lclass[box.gamma]


def test_green_t2(store):
    M, _ = store.monoid("tfull2")
    gs, _, _ = store.green("tfull2")
    assert len(gs.dclasses) == 2
    sizes = sorted(len(c) for c in gs.dclasses)
    assert sizes == [2, 2]
    # the rank-1 class {c1, c2} has one R-class and two L-classes
    rank1 = gs.dclass[1]
    rids = {gs.rclass[x] for x in gs.dclasses[rank1]}
    lids = {gs.lclass[x] for x in gs.dclasses[rank1]}
    assert len(rids) == 1 and len(lids) == 2


def test_green_t3_class_sizes(store):
    gs, _, _ = store.green("tfull3")
    sizes = sorted(len(c) for c in gs.dclasses)
    assert sizes == [3, 6, 18]
    assert sum(sizes) == 27


def test_green_trivial(store):
    gs, _, _ = store.green("trivial")
    assert len(gs.dclasses) == 1 and len(gs.hclasses) == 1


def test_dorder_is_strict(store):
    for key in SMALL_KEYS:
        gs, _, _ = store.green(key)
        for a, b in gs.dless:
            assert a != b
            assert (b, a) not in gs.dless


def test_eggbox_t2_rank1(store):
    M, _ = store.monoid("tfull2")
    gs, boxes, _ = store.green("tfull2")
    d = gs.dclass[1]  # class of the constant maps
    box = boxes[d]
    assert box.gamma == 1
    assert len(box.rows) == 1 and len(box.cols) == 2
    assert box.b[1] == 2  # the swap carries column 1 to column 2
    assert all(len(cell) == 1 for row in box.grid for cell in row)


def test_eggbox_t3_rank2(store):
    M, _ = store.monoid("tfull3")
    gs, boxes, _ = store.green("tfull3")
    d = next(i for i, c in enumerate(gs.dclasses) if len(c) == 18)
    box = boxes[d]
    assert len(box.rows) == 3 and len(box.cols) == 3
    assert all(len(cell) == 2 for row in box.grid for cell in row)


def test_eggbox_identity_class(store):
    for key in SMALL_KEYS:
        M, _ = store.monoid(key)
        gs, boxes, _ = store.green(key)
        box = boxes[gs.dclass[M.identity]]
        assert box.gamma == M.identity
        assert box.a[0] == box.b[0] == M.identity


def test_eggbox_rectangularity(store):
    for key in SMALL_KEYS:
        M, _ = store.monoid(key)
        gs, boxes, _ = store.green(key)
        check_eggbox_rectangular(M, gs, boxes)


def test_schutzenberger_groups(store):
    gs, boxes, schutzs = store.green("tfull3")
    d = next(i for i, c in enumerate(gs.dclasses) if len(c) == 18)
    assert schutzs[d].order == 2
    gs2, boxes2, schutzs2 = store.green("tfull2")
    d1 = gs2.dclass[1]
    assert schutzs2[d1].order == 1
    gst, _, schutzt = store.green("trivial")
    assert schutzt[0].order == 1


def test_schutz_group_laws(store):
    M, _ = store.monoid("tfull3")
    T = M.table
    _, _, schutzs = store.green("tfull3")
    for sch in schutzs:
        assert sch.order == len(sch.hclass)
        # representative product law r_m r_n = r_{mn}
        for m in sch.rm:
            for n in sch.rm:
                assert sch.mult[sch.rm[m]][sch.rm[n]] == sch.rm[T[m][n]]


def test_h_stability_and_class_preservation(store):
    for key in SMALL_KEYS:
        M, _ = store.monoid(key)
        gs, _, _ = store.green(key)
        check_h_stability(M, gs)
        check_class_preservation(M, gs)


def test_matched_examples(store):
    gs, boxes, schutzs = store.green("tfull2")
    d = gs.dclass[1]
    box, sch = boxes[d], schutzs[d]
    assert cm.matched(box, sch, 0, 0) == sch.identity
    assert cm.matched(box, sch, 0, 1) == sch.identity
    M, _ = store.monoid("tfull2")
    dbox = boxes[gs.dclass[M.identity]]
    dsch = schutzs[gs.dclass[M.identity]]
    assert cm.matched(dbox, dsch, 0, 0) == dsch.identity
    # null class: the square falls below
    gsn, boxesn, schutzn = store.green("null3")
    dn = gsn.dclass[1]
    assert cm.matched(boxesn[dn], schutzn[dn], 0, 0) is None


def test_matched_syminv2_pattern(store):
    gs, boxes, schutzs = store.green("syminv2")
    d = next(i for i, c in enumerate(gs.dclasses) if len(c) == 4)
    box, sch = boxes[d], schutzs[d]
    pattern = [[cm.matched(box, sch, i, j) is not None for j in range(2)] for i in range(2)]
    assert sorted(sum(row) for row in pattern) == [1, 1]
    assert sorted(sum(col) for col in zip(*pattern)) == [1, 1]
    assert cm.bijection_condition(box, sch) is not None


def test_matched_representative_independence(store):
    for key in ("tfull2", "syminv2", "jones3", "null3"):
        M, _ = store.monoid(key)
        gs, boxes, schutzs = store.green(key)
        check_matched_representative_independence(M, gs, boxes, schutzs)


def test_bijection_condition(store):
    gs, boxes, schutzs = store.green("tfull2")
    d = gs.dclass[1]
    assert cm.bijection_condition(boxes[d], schutzs[d]) is None  # 1x2 grid
    gst, boxest, schutzt = store.green("trivial")
    assert cm.bijection_condition(boxest[0], schutzt[0]) == {0: 0}
    # every class of an inverse monoid carries the pairing
    gsi, boxesi, schutzi = store.green("syminv2")
    for box, sch in zip(boxesi, schutzi):
        assert cm.bijection_condition(box, sch) is not None


def test_invalid_cell():
    M, _ = cm.family("tfull", 2)
    gs, boxes, schutzs = cm.green_data(M)
    d = gs.dclass[1]
    with pytest.raises(ValueError):
        cm.matched(boxes[d], schutzs[d], 5, 0)

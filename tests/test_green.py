import time

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import cellmonoid as cm
from cellmonoid.cli import main
from cellmonoid.green import GreenError, regular_and_inverse, strict_order
from cellmonoid.groupcell import symmetric_group_table

from conftest import (check_class_preservation, check_eggbox_rectangular, check_h_stability,
                      check_matched_representative_independence, dless, is_inverse, is_regular,
                      reference_closure)

SMALL_KEYS = ("trivial", "null3", "tfull2", "tfull3", "tpartial2", "syminv2", "jones3")


def _by_key(keys):
    """Class id per element and members per class for equal keys, ids by
    least member."""
    ids, members, first = [], [], {}
    for x, k in enumerate(keys):
        if k not in first:
            first[k] = len(members)
            members.append([])
        ids.append(first[k])
        members[first[k]].append(x)
    return ids, members


def _ideal_route(M):
    """D-classes as elements with equal two-sided ideals MxM, ids by least
    member, and D_a < D_b iff the ideal of D_a lies inside that of D_b;
    returns (dclass, dclasses, dless)."""
    T = M.table
    n = M.size
    ideals = [frozenset(T[z][w] for z in {T[m][x] for m in range(n)} for w in range(n))
              for x in range(n)]
    dclass, dclasses = _by_key(ideals)
    dideals = [ideals[members[0]] for members in dclasses]
    k = len(dclasses)
    dless = frozenset((a, b) for a in range(k) for b in range(k)
                      if a != b and dideals[a] <= dideals[b])
    return dclass, dclasses, dless


def _row_column_route(M):
    """The whole GreenStructure from the table's rows and columns as sets, and
    the strict D-order: xM is row x and Mx column x, H and D follow from L and
    R by least members, ddown is one step of M.gens on either side out of a
    D-class, and MxM is the union of zM over z in Mx."""
    T = M.table
    n = M.size
    rsets = [frozenset(row) for row in T]
    lsets = [frozenset(col) for col in zip(*T)]
    lclass, lclasses = _by_key(lsets)
    rclass, rclasses = _by_key(rsets)
    hclass, hclasses = _by_key([(lclass[x], rclass[x]) for x in range(n)])
    meets = [frozenset(rclass[y] for y in members) for members in lclasses]
    dclass, dclasses = _by_key([meets[lclass[x]] for x in range(n)])
    ddown = [sorted({dclass[z] for x in members for g in M.gens for z in (T[x][g], T[g][x])} - {d})
             for d, members in enumerate(dclasses)]
    dideals = [frozenset().union(*(rsets[z] for z in lsets[members[0]])) for members in dclasses]
    k = len(dclasses)
    less = frozenset((a, b) for a in range(k) for b in range(k)
                     if a != b and dideals[a] <= dideals[b])
    return cm.GreenStructure(lclass, rclass, hclass, dclass,
                             lclasses, rclasses, hclasses, dclasses, ddown), less


def _assert_ideal_route(M):
    gs = cm.compute_green(M)
    assert (gs.dclass, gs.dclasses, dless(gs)) == _ideal_route(M)
    return gs


def _assert_one_sided_route(M, gs):
    """L, R and H by definition: x L y iff Mx = My, x R y iff xM = yM, and
    H = L meet R, each principal ideal built element by element."""
    T = M.table
    n = M.size
    left = [frozenset(T[m][x] for m in range(n)) for x in range(n)]
    right = [frozenset(T[x][m] for m in range(n)) for x in range(n)]
    assert (gs.lclass, gs.lclasses) == _by_key(left)
    assert (gs.rclass, gs.rclasses) == _by_key(right)
    assert (gs.hclass, gs.hclasses) == _by_key(list(zip(left, right)))


@pytest.mark.parametrize("key", SMALL_KEYS + ("tpartial3", "syminv3", "jones4"))
def test_dclasses_match_two_sided_ideals(store, key):
    _assert_ideal_route(store.monoid(key)[0])


@pytest.mark.parametrize("key", SMALL_KEYS)
def test_lrh_classes_match_principal_ideals(store, key):
    M, _ = store.monoid(key)
    _assert_one_sided_route(M, cm.compute_green(M))


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
    assert (gs, dless(gs)) == _row_column_route(R)
    _assert_one_sided_route(R, gs)
    for d, members in enumerate(gs.dclasses):
        box = cm.build_eggbox(R, gs, d)
        assert box.gamma == members[0]
        assert box.rows[0] == gs.rclass[box.gamma] and box.cols[0] == gs.lclass[box.gamma]


@pytest.mark.parametrize("key", ["tfull4", "tpartial4", "syminv4", "jones6"])
def test_cayley_graphs_match_rows_and_columns(store, key):
    M, _ = store.monoid(key)
    gs = cm.compute_green(M)
    assert (gs, dless(gs)) == _row_column_route(M)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(maps=st.lists(st.lists(st.integers(1, 4), min_size=4, max_size=4), min_size=1, max_size=3))
def test_cayley_graphs_match_rows_and_columns_on_random_submonoids(maps):
    # the identity and a repeat among the generators are dropped from M.gens
    M = cm.generate_from_maps(4, maps + [[1, 2, 3, 4]] + maps[:1])
    assert M.gens == list(range(1, len(M.gens) + 1))
    gs = cm.compute_green(M)
    assert (gs, dless(gs)) == _row_column_route(M)


def test_deep_d_chain():
    # {1, a, ..., a^1100} with a^1100 = a^1101: 1,101 D-classes in one chain,
    # deeper than Python's recursion limit
    n = 1101
    M = cm.from_cayley_table(n, 0, [[min(i + j, n - 1) for j in range(n)] for i in range(n)])
    assert M.gens == [1]
    gs = cm.compute_green(M)
    assert gs.dclasses == [[x] for x in range(n)]
    assert gs.ddown == [[i + 1] for i in range(n - 1)] + [[]]
    above = strict_order(n, [(d, c) for d, below in enumerate(gs.ddown) for c in below])
    assert above == [frozenset(range(i)) for i in range(n)]


def test_strict_order_matches_fixpoint_closure():
    # random pairs on a few nodes, cycles and self-pairs among them: the
    # reachability pass refuses exactly the pairs the fixpoint refuses
    counts = {"order": 0, "refused": 0}

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def check(data):
        k = data.draw(st.integers(1, 6))
        node = st.integers(0, k - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=8))
        try:
            gt = reference_closure(pairs)
        except ValueError:
            counts["refused"] += 1
            with pytest.raises(ValueError, match="^node order is not a strict partial order$"):
                strict_order(k, pairs)
            return
        counts["order"] += 1
        assert strict_order(k, pairs) == [frozenset(a for a, b in gt if b == x) for x in range(k)]

    check()
    assert min(counts.values()) > 0, counts


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
        less = dless(gs)
        for a, b in less:
            assert a != b
            assert (b, a) not in less


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
        # the table read from representatives is composition of permutations
        for g1, p1 in enumerate(sch.perms):
            for g2, p2 in enumerate(sch.perms):
                assert sch.perms[sch.mult[g1][g2]] == tuple(p2[v] for v in p1)
        assert sch.perms[sch.identity] == tuple(range(sch.order))
        # representative product law r_m r_n = r_{mn}
        for m in sch.rm:
            for n in sch.rm:
                assert sch.mult[sch.rm[m]][sch.rm[n]] == sch.rm[T[m][n]]


@pytest.mark.parametrize("H", [[0, 1], [0, 2]])
def test_schutzenberger_refuses_a_translation_that_does_not_permute(store, H):
    # null3 is {1, a, 0}.  Posing {1, a} as the base class, a passes the one
    # read (1*a = a) but carries a to a*a = 0; posing {1, 0}, 0 carries both
    # members to 0.
    M, _ = store.monoid("null3")
    box = cm.EggBox(0, [0], [0], [[H]], [0], [0])
    with pytest.raises(GreenError, match="^right translation does not permute the base class$"):
        cm.schutzenberger(M, box)


def test_s6_cayley_input_exits_quickly(tmp_path, capsys):
    # S6 is under the size cap but above the tableau datum's point bound, so
    # the run ends with exit 1 once the group is recognised
    table, _ = symmetric_group_table(6)
    path = tmp_path / "s6.json"
    cm.save_cayley_json(cm.from_cayley_table(720, 0, table), path)
    start = time.perf_counter()
    assert main(["analyze", "--cayley", str(path)]) == 1
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().err == "error: point count 6 outside 1..5\n"


def test_h_stability_and_class_preservation(store):
    for key in SMALL_KEYS:
        M, _ = store.monoid(key)
        gs, _, _ = store.green(key)
        check_h_stability(M, gs)
        check_class_preservation(M, gs)


def test_matched_examples(store):
    M, _ = store.monoid("tfull2")
    gs, boxes, schutzs = store.green("tfull2")
    d = gs.dclass[1]
    sch = schutzs[d]
    assert cm.sandwich(M, gs, boxes[d], sch) == {(0, 0): sch.identity, (0, 1): sch.identity}
    du = gs.dclass[M.identity]
    assert cm.sandwich(M, gs, boxes[du], schutzs[du]) == {(0, 0): schutzs[du].identity}
    # null class: the square falls below
    Mn, _ = store.monoid("null3")
    gsn, boxesn, schutzn = store.green("null3")
    dn = gsn.dclass[1]
    assert cm.sandwich(Mn, gsn, boxesn[dn], schutzn[dn]) == {}


def test_matched_syminv2_pattern(store):
    M, _ = store.monoid("syminv2")
    gs, boxes, schutzs = store.green("syminv2")
    d = next(i for i, c in enumerate(gs.dclasses) if len(c) == 4)
    box = boxes[d]
    sandwich = cm.sandwich(M, gs, box, schutzs[d])
    pattern = [[(i, j) in sandwich for j in range(2)] for i in range(2)]
    assert sorted(sum(row) for row in pattern) == [1, 1]
    assert sorted(sum(col) for col in zip(*pattern)) == [1, 1]
    assert list(sandwich) == sorted(sandwich)  # row-major
    assert cm.bijection_condition(box, sandwich) is not None


def test_matched_representative_independence(store):
    for key in ("tfull2", "syminv2", "jones3", "null3"):
        M, _ = store.monoid(key)
        gs, boxes, schutzs = store.green(key)
        check_matched_representative_independence(M, gs, boxes, schutzs)


def test_bijection_condition(store):
    def pairings(key):
        M, _ = store.monoid(key)
        gs, boxes, schutzs = store.green(key)
        return [cm.bijection_condition(box, cm.sandwich(M, gs, box, sch))
                for box, sch in zip(boxes, schutzs)]

    gs, _, _ = store.green("tfull2")
    assert pairings("tfull2")[gs.dclass[1]] is None  # 1x2 grid
    assert pairings("trivial") == [{0: 0}]
    # every class of an inverse monoid carries the pairing
    assert all(p is not None for p in pairings("syminv2"))
    # a square pattern with two entries in one column is not a pairing
    box = cm.EggBox(0, [0, 1], [0, 1], [[[0], [1]], [[2], [3]]], [0, 0], [0, 0])
    assert cm.bijection_condition(box, {(0, 0): 0, (1, 1): 0}) == {0: 0, 1: 1}
    assert cm.bijection_condition(box, {(0, 0): 0, (1, 0): 0}) is None
    assert cm.bijection_condition(box, {(0, 0): 0, (0, 1): 0}) is None
    assert cm.bijection_condition(box, {(0, 0): 0, (0, 1): 0, (1, 1): 0}) is None


def _assert_regularity_routes(M):
    gs = cm.compute_green(M)
    fast = regular_and_inverse(M, gs)
    assert fast == (is_regular(M), is_inverse(M))
    return fast


def test_regularity_read_off_green_matches_definitions(store):
    # Every family at small n, plus the small fixed monoids: tfull and
    # tpartial are regular and not inverse past n = 1, syminv is inverse and
    # jones is regular, and null3 is neither.
    seen = set()
    for fam, top in (("tfull", 3), ("tpartial", 3), ("syminv", 4), ("jones", 5)):
        for n in range(1, top + 1):
            seen.add(_assert_regularity_routes(cm.family(fam, n)[0]))
    for key in ("trivial", "null3"):
        seen.add(_assert_regularity_routes(store.monoid(key)[0]))
    assert seen == {(True, True), (True, False), (False, False)}


def test_regularity_read_off_green_on_random_submonoids():
    seen = set()

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def check(data):
        r = data.draw(st.integers(2, 4))
        point_map = st.lists(st.integers(1, r), min_size=r, max_size=r)
        M = cm.generate_from_maps(r, data.draw(st.lists(point_map, min_size=1, max_size=3)))
        seen.add(_assert_regularity_routes(M))

    check()
    assert seen == {(True, True), (True, False), (False, False)}, seen

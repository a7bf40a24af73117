import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cellmonoid as cm
from cellmonoid import exactalg, verify
from cellmonoid.exactalg import RATIONALS, mat_rank, prime_field
from cellmonoid.twist import cocycle_middles, law_failure

from conftest import (assert_checks_clean, order_pairs, reference_axiom_report,
                      reference_nonsingular, reference_trace_form)


def test_axioms_murphy_s3_full():
    d = cm.murphy_datum(3, RATIONALS)
    rep = cm.verify_cell_axioms(d)
    assert rep.ok and rep.acting_count == 6


def test_axioms_t3_full(store):
    d = store.datum("tfull3")
    rep = cm.verify_cell_axioms(d)
    assert rep.ok and rep.acting_count == 27


def test_axioms_sabotage_produces_witness(store):
    d = store.datum("tfull2")
    swapped = dict(d.basis)
    # swap a rank-1 basis vector with the top-class vector (across nodes and blocks)
    k_top = (0, 0, 0)
    k_low = next(k for k in swapped if k[0] != 0)
    swapped[k_top], swapped[k_low] = swapped[k_low], swapped[k_top]
    datum = cm.CellDatum(d.field, d.table, d.nodes, order_pairs(d),
                         d.lsets, d.rsets, swapped, d.blocks)
    rep = cm.verify_cell_axioms(datum)
    assert not rep.ok
    assert rep.witness == {"side": "left", "acting": 2, "node": "D0:(2)",
                           "detail": "a*C[0,0] hits (D0:(1,1),0,0)"}


def _rebuilt(d, changes, blocks=None):
    basis = dict(d.basis)
    basis.update(changes)
    return cm.CellDatum(d.field, d.table, d.nodes, order_pairs(d),
                        d.lsets, d.rsets, basis, blocks or d.blocks, d.attach)


def _swap(d, k1, k2, blocks=None):
    return _rebuilt(d, {k1: d.basis[k2], k2: d.basis[k1]}, blocks)


def _merge_swap(d, k1, k2):
    # swap vectors of two cells and merge the cells' blocks: a unit's support
    # then spans two R-classes (or L-classes)
    b1, b2 = (next(b for b in d.blocks if k in b[1]) for k in (k1, k2))
    blocks = [b for b in d.blocks if b not in (b1, b2)] + [(b1[0] + b2[0], b1[1] + b2[1])]
    return _swap(d, k1, k2, blocks)


def _rescale(d, k, c):
    return _rebuilt(d, {k: {e: c * v for e, v in d.basis[k].items()}})


def _swap_unit_labels(d):
    # swapping the first two partition labels inside the unit class keeps a
    # basis but breaks the triangularity
    k_a, k_b = (0, 0, 0), (1, 0, 0)
    assert d.basis[k_a] != d.basis[k_b]
    return _swap(d, k_a, k_b)


def test_axioms_sabotage_same_block(store):
    # the checker must notice the swap in the unit class of T2
    datum = _swap_unit_labels(store.datum("tfull2"))
    rep = cm.verify_cell_axioms(datum)
    assert not rep.ok
    assert rep.witness["side"] in ("left", "right")


def _h_coboundary(d, h):
    # pi(x, y) = f(x) f(y) / f(xy) with f = 2 on H-class h: constant on an
    # H-class only, so the twisted basis can break the one-sided axioms
    M, gs = d.attach.monoid, d.attach.green
    f = [Fraction(2) if gs.hclass[x] == h else Fraction(1) for x in range(M.size)]
    return d.twisted([[f[x] * f[y] / f[M.table[x][y]] for y in range(M.size)]
                      for x in range(M.size)])


def _drop_order(d, pair):
    # a node order without one of its covering pairs: the products the check
    # skips are read from this order, so the missing pair must be noticed
    gt = order_pairs(d) - {pair}
    return cm.CellDatum(d.field, d.table, d.nodes, gt, d.lsets, d.rsets, d.basis, d.blocks,
                        d.attach)


def _weight(d, x, y, w):
    # all weights 1 but weights[x][y] = w: with w = 0, actors with equal
    # products on a unit's support differ in their weights, so the weights
    # belong to the skip key
    weights = [[1] * d.dim for _ in range(d.dim)]
    weights[x][y] = w
    return d.twisted(weights)


# The first failure in the order acting, node, left before right, then (t, s)
# on the left and (s, t) on the right, as the plain scan over every acting
# element reports it.  The swaps fail at several entries inside the reported
# (acting, node, side): a*C[0,1] and a*C[1,1] both leave the node on tfull3,
# and C[4,1]*a and C[4,2]*a both do on tpartial3.  The merged swaps give a
# unit whose support spans two H-classes, report a later unit than the first
# failing one, and report a hit at the same t as another unit's differing
# row, in that order.
# Without the pair D2:(1,1) > D0:(3), the D2 blocks carry a label not above
# D0:(3), so products into them are no longer skipped, though Green's order
# still puts D2 below D0.
PINNED_WITNESSES = [
    ("tfull3", lambda d: _swap(d, (1, 0, 1), (1, 1, 0)),
     {"side": "left", "acting": 7, "node": "D0:(2,1)",
      "detail": "a*C[0,1] hits (D0:(2,1),0,0)"}),
    ("tfull3", lambda d: _rescale(d, (1, 1, 1), 2),
     {"side": "left", "acting": 7, "node": "D0:(2,1)",
      "detail": "left coefficients at right index 1 differ from index 0"}),
    ("tpartial3", lambda d: _swap(d, (4, 4, 0), (5, 4, 0)),
     {"side": "right", "acting": 2, "node": "D2:(2)",
      "detail": "C[4,1]*a hits (D2:(1,1),4,0)"}),
    ("tfull3", lambda d: _h_coboundary(d, 2),
     {"side": "left", "acting": 2, "node": "D2:(2)",
      "detail": "left coefficients at right index 1 differ from index 0"}),
    ("tfull3", lambda d: _merge_swap(d, (4, 0, 0), (4, 1, 1)),
     {"side": "left", "acting": 2, "node": "D2:(2)",
      "detail": "a*C[0,0] hits (D2:(2),0,1)"}),
    ("tfull3", lambda d: _merge_swap(d, (4, 0, 2), (4, 1, 1)),
     {"side": "left", "acting": 2, "node": "D2:(2)",
      "detail": "left coefficients at right index 1 differ from index 0"}),
    ("tpartial3", lambda d: _merge_swap(d, (3, 0, 1), (3, 4, 0)),
     {"side": "left", "acting": 1, "node": "D1:*",
      "detail": "a*C[1,1] hits (D1:*,4,0)"}),
    ("tfull3", lambda d: _weight(d, 1, 1, 0),
     {"side": "left", "acting": 1, "node": "D1:*",
      "detail": "left coefficients at right index 1 differ from index 0"}),
    ("tfull3", lambda d: _drop_order(d, (5, 0)),
     {"side": "right", "acting": 2, "node": "D0:(3)",
      "detail": "C[0,0]*a hits (D2:(1,1),0,0)"}),
]


@pytest.mark.parametrize("key,sabotage,witness", PINNED_WITNESSES,
                         ids=["swap", "rescale", "swap-right", "h-coboundary", "merge-no-anchor",
                              "merge-later-unit", "merge-hit-first", "zero-weight",
                              "order"])
def test_axiom_witnesses_pinned(store, key, sabotage, witness):
    datum = sabotage(store.datum(key))
    rep = cm.verify_cell_axioms(datum)
    assert (rep.ok, rep.witness, rep.acting_count) == (False, witness, datum.dim)


@pytest.mark.parametrize("key,sabotage,witness", PINNED_WITNESSES,
                         ids=["swap", "rescale", "swap-right", "h-coboundary", "merge-no-anchor",
                              "merge-later-unit", "merge-hit-first", "zero-weight",
                              "order"])
def test_pinned_data_match_the_reference_scan(store, key, sabotage, witness):
    # the whole report, not just the witness, equals the plain scan's
    datum = sabotage(store.datum(key))
    assert cm.verify_cell_axioms(datum) == reference_axiom_report(datum)


def _coboundary_twist(d, f):
    """d's basis with each term c*e rescaled to c/f(e)*e, under the weights
    f(x) f(y) / f(xy).  The map e -> f(e)*e carries this algebra onto d's and
    the new basis onto d's, so the axioms hold exactly when they hold for d."""
    T = d.table
    basis = {k: {e: c / f[e] for e, c in v.items()} for k, v in d.basis.items()}
    datum = cm.CellDatum(d.field, T, d.nodes, order_pairs(d), d.lsets, d.rsets, basis, d.blocks,
                         d.attach)
    return datum, [[f[x] * f[y] / f[T[x][y]] for y in range(d.dim)] for x in range(d.dim)]


def test_weight_keys_follow_the_relative_vectors():
    # An identity plus the 3x2 rectangular band (i, j)(k, l) = (i, l), with
    # trivial groups: row i's left unit has the vectors (i, 0), (i, 1), and
    # rows 0 and 1 have equal patterns.  Row 1 is numbered against its
    # columns, so its support sorts as ((1, 1), (1, 0)) and row 0's as
    # ((0, 0), (0, 1)).  Twisted by the coboundary of f = 2 on (2, 1) only
    # (see _coboundary_twist), the datum passes; a = (2, 0) weights row 0 by
    # (1, 1/2), and b = (2, 1) sends row 1 to the same products (2, j) in
    # vector order.  Giving b row 0's weights in sorted order weights row 1
    # by (1/2, 1) along its vectors, so row 1 fails under b.  Weights keyed
    # in sorted order, not the support's vector order, would take row 1
    # under b for row 0 under a and skip it.
    label = {(2, 0): 1, (2, 1): 2, (0, 0): 3, (0, 1): 4, (1, 0): 6, (1, 1): 5}
    pair = {v: k for k, v in label.items()}
    table = [[y if x == 0 else x if y == 0 else label[(pair[x][0], pair[y][1])]
              for y in range(7)] for x in range(7)]
    M = cm.from_cayley_table(7, 0, table)
    f = [Fraction(1)] * 7
    f[label[(2, 1)]] = Fraction(2)
    datum, weights = _coboundary_twist(cm.standard_datum(M, RATIONALS), f)
    assert cm.verify_cell_axioms(datum.twisted(weights)).ok
    a, b = label[(2, 0)], label[(2, 1)]
    row0 = [weights[a][label[(0, j)]] for j in (0, 1)]
    assert row0 == [1, Fraction(1, 2)]
    weights[b][label[(1, 1)]], weights[b][label[(1, 0)]] = row0
    twisted = datum.twisted(weights)
    rep = cm.verify_cell_axioms(twisted)
    assert rep == reference_axiom_report(twisted)
    assert rep.witness == {"side": "left", "acting": b, "node": "D1:*",
                           "detail": "left coefficients at right index 1 differ from index 0"}


def test_random_twistings_match_the_reference_scan():
    # Random submonoids of T3 and T4 and small family members, twisted by the
    # coboundary of a random f, with the basis rescaled to match (so the
    # axioms hold) or not (so they hold only when f suits the classes), and
    # with up to three weights set to zero: the check's report must be the
    # plain scan's, unmarked and, when the laws hold, marked lawful.
    counts = {"ok": 0, "failed": 0, "zero weights": 0}
    guard = {"held": 0, "failed": 0}  # the unit and cocycle laws on S

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def check(data):
        if data.draw(st.booleans()):
            M, _ = cm.family(*data.draw(st.sampled_from([("tfull", 2), ("tfull", 3),
                                                         ("tpartial", 2), ("jones", 4)])))
        else:
            r = data.draw(st.integers(3, 4))
            point_map = st.lists(st.integers(1, r), min_size=r, max_size=r)
            M = cm.generate_from_maps(r, data.draw(st.lists(point_map, min_size=1, max_size=3)))
            if M.size > 40:
                return
        try:
            base = cm.standard_datum(M, RATIONALS)
        except cm.UnsupportedGroup:
            return
        scalar = st.sampled_from([Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 3)])
        f = data.draw(st.lists(scalar, min_size=M.size, max_size=M.size))
        datum, weights = _coboundary_twist(base, f)
        if data.draw(st.booleans()):
            datum = base
        element = st.integers(0, M.size - 1)
        for x, y in data.draw(st.lists(st.tuples(element, element), max_size=3)):
            weights[x][y] = 0
            counts["zero weights"] += 1
        twisted = datum.twisted(weights)
        full = cm.verify_cell_axioms(twisted)
        assert full == reference_axiom_report(twisted)
        counts["ok" if full.ok else "failed"] += 1
        held = law_failure(M.table, weights, M.identity, _generating_set(twisted),
                           RATIONALS.norm) is None
        guard["held" if held else "failed"] += 1
        if held:
            # the laws hold by Light's test, so the datum may be marked, and
            # the check by the middles first must report the same
            marked = copy.copy(twisted)
            marked.lawful = True
            assert cm.verify_cell_axioms(marked) == full

    check()
    assert min(counts.values()) > 5, counts
    assert min(guard.values()) > 0, guard


def test_terms_cancelling_mod_p_open_no_block():
    # Over F_2 the constant map a = [1,1,1] sends v = [1,2,1] + [1,2,2] +
    # [2,1,1] + [3,1,1] to 2*[1,1,1] + [2,2,2] + [3,3,3], whose first term
    # cancels.  [1,1,1] and [3,3,3] share a block, and every label is a node
    # of its own, unordered, v's node first.  The identity fails nowhere, so
    # a*v fails first, at the first label it hits: [2,2,2]'s, in the block
    # its first nonzero term touches.  Opening [1,1,1]'s block on the
    # cancelled term would put [3,3,3]'s label first.
    M, _ = cm.family("tfull", 3)
    at = {label: e for e, label in enumerate(M.labels)}
    support = [at[x] for x in ("[1,2,1]", "[1,2,2]", "[2,1,1]", "[3,1,1]")]
    pair = [at["[1,1,1]"], at["[3,3,3]"]]
    singles = [e for e in range(M.size) if e not in support + pair]
    others = support[1:] + pair + singles
    k = 1 + len(others)
    keys = [(ni, 0, 0) for ni in range(k)]
    basis = dict(zip(keys, [dict.fromkeys(support, 1)] + [{e: 1} for e in others]))
    blocks = ([(tuple(support), tuple(keys[:4])), (tuple(pair), tuple(keys[4:6]))]
              + [((e,), (key,)) for e, key in zip(singles, keys[6:])])
    datum = cm.CellDatum(prime_field(2), M.table, ["v"] + [M.labels[e] for e in others], [],
                         [[0]] * k, [[0]] * k, basis, blocks)
    rep = cm.verify_cell_axioms(datum)
    assert rep == reference_axiom_report(datum)
    assert rep.witness == {"side": "left", "acting": at["[1,1,1]"], "node": "v",
                           "detail": "a*C[0,0] hits ([2,2,2],0,0)"}


def _counting(datum):
    """A copy of datum whose fused product kernel counts its products, the
    coordinate lookups the products' kept terms would take and the terms
    they read, and collects the products' actors.  The kept terms come from
    the reference product: datum.mult with the terms in low dropped; the
    kernel must return coordinates() of them, in order, and nothing when
    none are kept."""
    datum, counts = copy.copy(datum), {"products": 0, "coordinates": 0, "terms": 0}
    kernel, actors = datum.product_coordinates, set()

    def counting_kernel(a, vec, left, low):
        counts["products"] += 1
        actors.add(a)
        product = datum.mult(datum.unit(a), vec) if left else datum.mult(vec, datum.unit(a))
        kept = {e: c for e, c in product.items() if e not in low}
        counts["coordinates"] += bool(kept)
        counts["terms"] += len(kept)
        coords = kernel(a, vec, left, low)
        assert list(coords.items()) == list((datum.coordinates(kept) if kept else {}).items())
        return coords

    datum.product_coordinates = counting_kernel
    return datum, counts, actors


def _generating_set(datum):
    """The full check's first acting set: the weighted walk from M.gens."""
    M = datum.attach.monoid
    return sorted(cocycle_middles(datum.table, datum.weights, M.gens, M.identity))


# (key, field, delta): untwisted data and jones5's loop datum at delta = 0,
# marked lawful by build_twisted_cell_datum
TRUSTED = [("tfull3", "q", None), ("tpartial3", "q", None), ("tfull4", "fp:3", None),
           ("jones5", "q", "0")]


def _marked_and_unmarked(store, key, field, delta):
    """The datum the build makes, untwisted or marked lawful, and the bare
    datum.twisted of the same values (all 1 when untwisted), left unmarked."""
    base = store.datum(key, field)
    marked = base if delta is None else store.twisted(key, delta, field)
    values = [[1] * base.dim for _ in range(base.dim)] if delta is None else marked.weights
    return marked, base.twisted(values)


def test_full_check_product_counts(store):
    # A passing check on trusted data acts by S = M.gens only (the walk from
    # M.gens reaches every element): 3 actors on tfull3 and tfull4, 4 on
    # tpartial3 and jones5.  Each actor makes at most one product per basis
    # vector on each side, 2*dim; each product key is verified once across
    # the units of one node and side with the same pattern, and only
    # products that can reach a node not above the unit's are made: 80 of
    # 2*3*27 = 162 on tfull3, 178 of 2*4*64 = 512 on tpartial3 and 840 of
    # 2*3*256 = 1536 on tfull4 over F_3.  jones5 twisted by delta = 0 has zero
    # weights: 82 of its 164 products of 2*4*42 = 336 vanish and take no
    # coordinates.  The unmarked data are acted on by every element, where
    # the keys are shared across actors as well as units: 126, 236, 1976 and
    # 166 products, 84 of jones5's taking coordinates.  A key kept per unit,
    # not per pattern, makes 111 products on tfull3.
    pins = [((80, 80), (126, 126)), ((178, 178), (236, 236)), ((840, 840), (1976, 1976)),
            ((164, 82), (166, 84))]
    for (key, field, delta), pinned in zip(TRUSTED, pins):
        for datum, pin in zip(_marked_and_unmarked(store, key, field, delta), pinned):
            datum, counts, _ = _counting(datum)
            rep = cm.verify_cell_axioms(datum)
            assert (rep.ok, rep.acting_count) == (True, datum.dim), key
            assert (counts["products"], counts["coordinates"]) == pin, key


def test_only_proven_laws_are_trusted(store):
    # The check acts by the middles S first only on untwisted data and on
    # data marked lawful; a bare datum.twisted of the same values, whose
    # laws hold but are not proven, is acted on by every element, and its
    # report is the marked one's.  On the marked data the actors lie in S,
    # which is M.gens here; on the unmarked ones they reach past it.
    for key, field, delta in TRUSTED:
        marked, unmarked = _marked_and_unmarked(store, key, field, delta)
        assert (marked.weights is None or marked.lawful) and not unmarked.lawful, key
        gens = set(_generating_set(marked))
        assert gens == set(marked.attach.monoid.gens), key
        reports = []
        for datum, within in ((marked, True), (unmarked, False)):
            datum, _, actors = _counting(datum)
            reports.append(cm.verify_cell_axioms(datum))
            assert (actors <= gens) == within, key
        assert reports[0] == reports[1] == reference_axiom_report(marked), key


def test_products_above_the_node_take_no_coordinates(store):
    # with two cells merged, a unit's support spans two H-classes, so the
    # unit is checked even when some of its products land only on blocks
    # labelled above its node.  S = [3, 11, 15] fails at its first actor, 3,
    # after 13 products; the scan over every element then makes 49 products
    # under actor 0, none under 1 (its keys passed), and 8 under 2, where it
    # fails: 70 products in all.  5 of them are dropped whole, and the rest
    # read 112 terms, not 122
    datum, counts, actors = _counting(_merge_swap(store.datum("tfull3"), (4, 0, 2), (4, 1, 1)))
    rep = cm.verify_cell_axioms(datum)
    assert rep.witness == {"side": "left", "acting": 2, "node": "D2:(2)",
                           "detail": "left coefficients at right index 1 differ from index 0"}
    assert counts == {"products": 70, "coordinates": 65, "terms": 112}
    assert actors == {0, 2, 3}


@pytest.mark.parametrize("x,y,w,law,witness", [
    (0, 1, 2, {"law": "unit", "x": 1},
     {"side": "left", "acting": 0, "node": "D1:*",
      "detail": "left coefficients at right index 1 differ from index 0"}),
    (1, 1, 0, {"law": "cocycle", "triple": (1, 3, 4)},
     {"side": "left", "acting": 1, "node": "D1:*",
      "detail": "left coefficients at right index 1 differ from index 0"}),
], ids=["unit", "cocycle"])
def test_broken_laws_send_the_full_check_past_the_generators(store, x, y, w, law, witness):
    # tfull3's basis under weights 1 but weights[x][y] = w, x and y outside
    # S = M.gens: every actor in S sees weights 1 and passes, but actor x
    # fails, the identity 0 scaling e_y by 2 or actor 1 sending e_y to 0.
    # The product is then not unital or not associative, so passing on S
    # proves nothing, and the laws on S say so.  A copy marked lawful
    # against its laws shows it: the check acts by S alone and passes.  The
    # datum is unmarked, so the check acts by every element, from 0 on.
    d = store.datum("tfull3")
    twisted = _weight(d, x, y, w)
    gens = _generating_set(twisted)
    assert gens == [3, 11, 15] and x not in gens and y not in gens
    assert law_failure(d.table, twisted.weights, 0, gens, RATIONALS.norm) == law
    false_mark, _, actors = _counting(twisted)
    false_mark.lawful = True
    assert cm.verify_cell_axioms(false_mark).ok and actors <= set(gens)
    datum, _, actors = _counting(twisted)
    rep = cm.verify_cell_axioms(datum)
    assert rep == reference_axiom_report(twisted)
    assert rep == cm.AxiomReport("full", False, witness, d.dim)
    assert actors == set(range(x + 1))


def test_first_failure_outside_the_generators_is_named(store):
    # the swapped basis first fails in S = [3, 11, 15] under actor 11, so 15
    # never acts, but actor 7, not in S, fails first in the scan over every
    # element, and the report names it.  Actors 1, 2 and 5 of that scan make
    # no product: their keys passed or land above the node.
    datum = _swap(store.datum("tfull3"), (1, 0, 1), (1, 1, 0))
    gens = _generating_set(datum)
    assert gens == [3, 11, 15]
    counted, _, actors = _counting(datum)
    rep = cm.verify_cell_axioms(counted)
    assert rep == reference_axiom_report(datum)
    assert rep.witness["acting"] == 7 and 7 not in gens
    assert actors == {0, 3, 4, 6, 7, 11}


def test_generators_mode_consistent_with_full(store):
    # untwisted data with a monoid attached are acted on by the generators
    # first: a passing check on tfull3 acts by its 3 generators only
    d, _, actors = _counting(store.datum("tfull3"))
    gens = set(d.attach.monoid.gens)
    assert len(gens) == 3
    rep = cm.verify_cell_axioms(d)
    assert rep.ok and actors <= gens
    # a broken basis fails by its generators exactly when it fails in full
    for key in ("tfull2", "tfull3"):
        datum = _swap_unit_labels(store.datum(key))
        rep = cm.verify_cell_axioms(datum)
        assert not rep.ok and rep == reference_axiom_report(datum), key


def test_axiom_report_identical_untwisted_vs_trivial_twist(store):
    M, _ = store.monoid("jones3")
    base = store.datum("jones3")
    twisted = cm.build_twisted_cell_datum(base, cm.trivial_twisting(M.size, RATIONALS))
    r1 = cm.verify_cell_axioms(base)
    r2 = cm.verify_cell_axioms(twisted)
    assert r1.to_dict() == r2.to_dict()


def test_trace_form_examples(store):
    d2 = store.datum("tfull2")
    assert not cm.trace_form_semisimple(d2.mult, d2.dim, d2.field)
    di = store.datum("syminv2")
    assert cm.trace_form_semisimple(di.mult, di.dim, di.field)
    dt = store.datum("trivial")
    assert cm.trace_form_semisimple(dt.mult, dt.dim, dt.field)


def _polynomial_algebra(c0, c1):
    """The product of Q[x]/(x**2 - c1*x - c0) on the basis 1, x: x*x has two
    terms when c0 and c1 are nonzero."""
    square = {k: v for k, v in ((0, Fraction(c0)), (1, Fraction(c1))) if v}

    def mult(a, b):
        out = {}
        for i, u in a.items():
            for j, v in b.items():
                for k, w in ({i + j: 1} if i + j < 2 else square).items():
                    out[k] = out.get(k, 0) + u * v * w
        return {k: v for k, v in out.items() if v}

    return mult


def test_trace_form_matches_reference_loop(store):
    # The oracle computes each unit product once, on ints; the reference is
    # the plain loop of Fraction traces and form.  Twistings with delta = 0
    # have zero weights, delta = 1/2 and -1 denominators and signs.  The
    # quadratic algebras Q[x]/(f) have products with two terms; they are
    # semisimple exactly when f has no repeated root: x**2 = x + 1 and
    # x**2 = 1/3 - x/2 are, x**2 = 2x - 1 and x**2 = 0 are not.
    cases = [store.datum(key) for key in ("tfull3", "tpartial3", "syminv3")]
    cases += [store.twisted(key, delta) for key in ("jones4", "jones5")
              for delta in ("0", "1/2", "-1", "2")]
    verdicts = []
    for d in cases:
        verdict = cm.trace_form_semisimple(d.mult, d.dim, d.field)
        assert verdict == reference_trace_form(d.mult, d.dim)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    for (c0, c1), expected in (((1, 1), True), ((-1, 2), False), ((0, 0), False),
                               ((Fraction(1, 3), Fraction(-1, 2)), True)):
        mult = _polynomial_algebra(c0, c1)
        assert cm.trace_form_semisimple(mult, 2, RATIONALS) == expected
        assert reference_trace_form(mult, 2) == expected


@pytest.mark.parametrize("modulus", [None, 2, 3])
def test_trace_form_verdicts_match_the_row_echelon_reference(store, monkeypatch, modulus):
    # The kernel's verdict on each trace form it is handed equals that of a
    # row echelon form of every column (conftest.reference_nonsingular).
    # Under the kernel's prime every verdict is exact; with the prime set to
    # 2 or 3 some certificates fail (None).
    forms = []
    monkeypatch.setattr(verify, "certified_nonsingular",
                        lambda m: forms.append(m) or exactalg.certified_nonsingular(m))
    if modulus is not None:
        monkeypatch.setattr(exactalg, "_MODULUS", modulus)
    cases = [store.datum(key) for key in ("tfull3", "tpartial3", "syminv3")]
    cases += [store.twisted(key, delta) for key in ("jones4", "jones5")
              for delta in ("0", "1/2", "-1", "2")]
    for d in cases:
        cm.trace_form_semisimple(d.mult, d.dim, d.field)
    verdicts = [exactalg.certified_nonsingular(m) for m in forms]
    assert len(forms) == 11
    assert verdicts == [reference_nonsingular(m) for m in forms]
    assert ({True, False} if modulus is None else {None}) <= set(verdicts), verdicts
    assert modulus is not None or None not in verdicts, verdicts


def test_trace_form_makes_each_unit_product_once(store, monkeypatch):
    # dim**2 products: 729 on tfull3, where the two-pass loop made 1458.  The
    # form handed to the kernel has int entries, also under a twisting with
    # denominators.
    forms = []
    monkeypatch.setattr(verify, "certified_nonsingular",
                        lambda m: forms.append(m) or exactalg.certified_nonsingular(m))
    for d in (store.datum("tfull3"), store.datum("syminv3"), store.twisted("jones4", "1/2")):
        calls = 0

        def counting(x, y):
            nonlocal calls
            calls += 1
            return d.mult(x, y)

        cm.trace_form_semisimple(counting, d.dim, d.field)
        assert calls == d.dim ** 2
        assert all(type(v) is int for row in forms[-1].entries for v in row)
    assert store.datum("tfull3").dim ** 2 == 729


def test_trace_form_exact_fallback_on_a_tiny_prime(store, monkeypatch):
    # The trace form of syminv2's semisimple algebra is singular mod 2, so
    # with the kernel's prime set to 2 the nonsingularity certificate fails
    # and the exact rank decides; the ledger says so.  Without a fallback
    # the ledger's detail is unchanged.
    d = store.datum("syminv2")
    report = store.report("syminv2")
    trace = next(c for c in cm.cross_check(d, report) if c["name"] == "trace_form_agreement")
    assert trace["detail"] == "trace oracle True vs rank criterion True"
    ranks = []
    monkeypatch.setattr(verify, "mat_rank", lambda m: ranks.append(m.rows) or mat_rank(m))
    monkeypatch.setattr(exactalg, "_MODULUS", 2)
    notes = []
    assert cm.trace_form_semisimple(d.mult, d.dim, d.field, notes)
    assert notes == ["decided by the exact rank fallback"] and ranks == [d.dim]
    trace = next(c for c in cm.cross_check(d, report) if c["name"] == "trace_form_agreement")
    assert trace == {"name": "trace_form_agreement", "status": "pass",
                     "detail": "trace oracle True vs rank criterion True; "
                               "decided by the exact rank fallback"}


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

import copy
import random
from fractions import Fraction
from itertools import product

import pytest

import cellmonoid as cm
from cellmonoid.exactalg import RATIONALS, prime_field
from cellmonoid.twist import cocycle_middles, twist_summary

from conftest import (assert_checks_clean, corank_twisting, edited, reference_axiom_report,
                      reference_compatibility, reference_twisting_witness)

Q = RATIONALS


def test_loop_twisting_values(store):
    M, loops = store.monoid("jones2")
    pi = cm.make_loop_twisting(loops, Fraction(2), Q)
    e1 = 1
    assert pi.values[e1][e1] == 2
    assert all(pi.values[x][M.identity] == 1 and pi.values[M.identity][x] == 1
               for x in range(M.size))
    pi0 = cm.make_loop_twisting(loops, Fraction(0), Q)
    assert pi0.values[e1][e1] == 0
    assert pi0.values[M.identity][M.identity] == 1  # 0^0 = 1 by convention


@pytest.mark.parametrize("key", ["jones5", "jones6"])
def test_loop_twisting_keeps_integral_values_ints(store, key):
    # at delta = 3/2 every value with no loop is the int 1, not Fraction(1, 1),
    # and every other value is a non-integral power; the same values given
    # as Fractions are stored alike, integral ones as ints, and the Grams of
    # the twisted datum keep ints too, equal entry for entry.  At delta =
    # Fraction(2) every value is an int, and the analysis is that at delta = 2.
    M, loops = store.monoid(key)
    pi = cm.make_loop_twisting(loops, Fraction(3, 2), Q)
    assert all(type(v) is int or v.denominator != 1 for row in pi.values for v in row)
    assert sum(v == 1 for row in pi.values for v in row) > M.size
    as_fractions = cm.Twisting(Q, [[Fraction(v) for v in row] for row in pi.values], "fractions")
    assert [[(v, type(v)) for v in row] for row in as_fractions.values] == [
        [(v, type(v)) for v in row] for row in pi.values]
    base = store.datum(key)
    grams, reference = (cm.gram_summary(cm.build_twisted_cell_datum(base, tw)).grams
                        for tw in (pi, as_fractions))
    assert [g.entries for g in grams] == [g.entries for g in reference]
    assert not any(type(v) is Fraction and v.denominator == 1
                   for g in grams for row in g.entries for v in row)
    pi = cm.make_loop_twisting(loops, Fraction(2), Q)
    assert all(type(v) is int for row in pi.values for v in row)
    assert cm.analyze(cm.build_twisted_cell_datum(base, pi)) == cm.analyze(store.twisted(key, "2"))


def test_verify_twisting(store):
    M, loops = store.monoid("jones3")
    pi = cm.make_loop_twisting(loops, Fraction(2), Q)
    assert cm.verify_twisting(M, pi) is None
    triv = cm.trivial_twisting(M.size, Q)
    assert cm.verify_twisting(M, triv) is None
    bad = edited(cm.trivial_twisting(M.size, Q), (1, M.identity, Fraction(2)))
    w = cm.verify_twisting(M, bad)
    assert w is not None and w["law"] == "unit"
    # a coboundary f(x)f(y)/f(xy) with non-integer f is a cocycle; the integer
    # check scales the grid by the lcm of its denominators
    f = [Fraction(1), Fraction(1, 3), Fraction(5, 2), Fraction(-2, 7), Fraction(4, 9)]
    vals = [[f[x] * f[y] / f[M.table[x][y]] for y in range(5)] for x in range(5)]
    cob = cm.Twisting(Q, vals, "coboundary")
    assert cm.verify_twisting(M, cob) is None
    cob = edited(cob, (2, 3, cob.values[2][3] * 3))
    assert cm.verify_twisting(M, cob) == {"law": "cocycle", "triple": (1, 4, 3)}


def test_cocycle_violation_witness(store):
    M, loops = store.monoid("jones3")
    # break one entry off the loop count
    pi = edited(cm.make_loop_twisting(loops, Fraction(2), Q), (1, 1, Fraction(7)))
    assert cm.verify_twisting(M, pi) == {"law": "cocycle", "triple": (1, 1, 2)}
    F5 = prime_field(5)
    pi5 = edited(cm.make_loop_twisting(loops, 2, F5), (1, 1, 3))
    assert cm.verify_twisting(M, pi5) == {"law": "cocycle", "triple": (1, 1, 2)}


def _zero_twisting(M):
    """1 on the pairs that hold the identity, 0 elsewhere: a cocycle that
    kills every step of the middles' walk."""
    return cm.Twisting(Q, [[int(M.identity in (x, y)) for y in range(M.size)]
                           for x in range(M.size)], "zero")


def _middles(M, pi):
    return cocycle_middles(M.table, pi.values, M.gens, M.identity)


def _walk(M, pi, middles):
    """What the weighted right walk along middles reaches from the identity:
    a step x -> x*s needs pi(x, s) != 0."""
    seen, todo = {M.identity}, [M.identity]
    while todo:
        x = todo.pop()
        for s in middles:
            y = M.table[x][s]
            if pi.values[x][s] and y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cocycle_middles_reach_every_element(store, n):
    # At delta = 0 the walk along reduced words forms no loop, so the
    # generators still reach everything; the zero twisting needs every
    # element but the identity.
    M, loops = store.monoid(f"jones{n}")
    zero = _zero_twisting(M)
    for pi in (cm.make_loop_twisting(loops, 0, Q), cm.make_loop_twisting(loops, 2, Q), zero):
        middles = _middles(M, pi)
        assert middles[:len(M.gens)] == M.gens and len(set(middles)) == len(middles)
        assert _walk(M, pi, middles) == set(range(M.size)), pi.provenance
        assert (middles == M.gens) == (pi is not zero)
    assert sorted(_middles(M, zero)) == [x for x in range(M.size) if x != M.identity]


@pytest.mark.parametrize("key", ["tfull3", "syminv3", "jones4"])
def test_cocycle_middles_are_the_generators_when_no_weight_is_zero(store, key):
    M, loops = store.monoid(key)
    f = [Fraction(x + 1, 2) for x in range(M.size)]
    f[M.identity] = Fraction(1)
    cob = cm.Twisting(Q, [[f[x] * f[y] / f[M.table[x][y]] for y in range(M.size)]
                          for x in range(M.size)], "coboundary")
    for pi in (cm.trivial_twisting(M.size, Q), cob,
               corank_twisting(M, 3, 2, Q) if loops is None
               else cm.make_loop_twisting(loops, 2, Q)):
        assert _middles(M, pi) == M.gens, pi.provenance


def test_generators_act_alone_under_zero_weights(store):
    # at delta = 0 products that close a loop vanish, yet the weighted walk
    # from M.gens reaches every element of jones5, since products along
    # reduced words close no loop: the middles are M.gens, four of them, and
    # they alone generate the twisted algebra, so the full check on the
    # datum marked lawful acts by them alone and passes
    M, _ = store.monoid("jones5")
    d = store.twisted("jones5", "0")
    middles = cocycle_middles(M.table, d.weights, M.gens, M.identity)
    assert middles == M.gens and len(middles) == 4
    actors = set()
    counted = copy.copy(d)
    counted.product_coordinates = lambda a, *args: actors.add(a) or d.product_coordinates(a, *args)
    assert cm.verify_cell_axioms(counted) == cm.AxiomReport("full", True, None, M.size)
    assert actors == set(middles)


def test_cocycle_check_reaches_past_the_generators(store):
    # pi is 1 on the pairs that hold the identity and on (1, 2) and (1*2, 6),
    # 0 elsewhere.  Every middle in M.gens passes, but 1*2 = 1, so
    # pi(1, 2) pi(1*2, 2) = 1 while pi(1, 2*2) pi(2, 2) = 0.  The walk from
    # the identity stops at the generators, so 2 joins the middles.
    M, _ = store.monoid("tfull3")
    assert M.gens == [11, 15, 3]
    pi = edited(_zero_twisting(M), (1, 2, 1), (M.table[1][2], 6, 1))
    T, V, R = M.table, pi.values, range(M.size)
    assert all(V[x][g] * V[T[x][g]][z] == V[x][T[g][z]] * V[g][z]
               for x in R for g in M.gens for z in R)
    assert 2 in _middles(M, pi)
    assert cm.verify_twisting(M, pi) == {"law": "cocycle", "triple": (1, 2, 2)}
    assert reference_twisting_witness(M, pi) == {"law": "cocycle", "triple": (1, 2, 2)}


def test_compatibility_classes(store):
    M, loops = store.monoid("jones3")
    gs, _, _ = store.green("jones3")
    c2 = cm.compatibility_class(M, gs, cm.make_loop_twisting(loops, Fraction(2), Q))
    assert c2.level == "strong"
    c0 = cm.compatibility_class(M, gs, cm.make_loop_twisting(loops, Fraction(0), Q))
    assert c0.level == "compatible"
    ct = cm.compatibility_class(M, gs, cm.trivial_twisting(M.size, Q))
    assert ct.level == "strong" and ct.lr


def test_compatibility_matches_the_entrywise_reference(store):
    # lr by whole rows of pi and of its transpose, and the compatibility
    # scan's columns read off that transpose, against the entrywise scan:
    # loop twistings on jones3-6 and corank twistings on tfull3 and syminv3 at
    # delta in {0, 1, 2}, then each with one entry of an L-class row or an
    # R-class column changed, and with random entries changed
    rng = random.Random(11)
    lr = {True: 0, False: 0}
    levels = {"strong": 0, "compatible": 0, "incompatible": 0}
    for key in ("jones3", "jones4", "jones5", "jones6", "tfull3", "syminv3"):
        M, loops = store.monoid(key)
        gs = store.green(key)[0]
        for delta in (0, 1, 2):
            pi = (cm.make_loop_twisting(loops, delta, Q) if loops is not None
                  else corank_twisting(M, 3, delta, Q))
            lclass = next(m for m in gs.lclasses if len(m) > 1)
            rclass = next(m for m in gs.rclasses if len(m) > 1)
            z = rng.randrange(M.size)
            perturbed = []
            for x, y in ((lclass[1], z), (z, rclass[1]),
                         *((rng.randrange(M.size), rng.randrange(M.size)) for _ in range(3))):
                values = [list(row) for row in pi.values]
                values[x][y] += 1
                perturbed.append(cm.Twisting(Q, values, "perturbed"))
            for k, tw in enumerate([pi] + perturbed):
                compat = cm.compatibility_class(M, gs, tw)
                assert compat == reference_compatibility(M, gs, tw), (key, delta, k)
                assert compat.lr or k > 0
                assert not compat.lr or k not in (1, 2)
                lr[compat.lr] += 1
                levels[compat.level] += 1
    assert min(lr.values()) > 0 and min(levels.values()) > 0, (lr, levels)


@pytest.mark.parametrize("key", ["jones2", "jones4"])
def test_unreduced_twisting_reads_as_reduced(store, key):
    # 3 ** k is 0 mod 3 for k > 0: unreduced, it is nonzero to every test
    # that compares it with 0, so the level read "strong" and the weighted
    # sandwich kept entries whose scale is 0.
    M, loops = store.monoid(key)
    gs, _, _ = store.green(key)
    F3 = prime_field(3)
    raw = cm.Twisting(F3, [[3 ** k for k in row] for row in loops.loops], "raw")
    reduced = cm.make_loop_twisting(loops, 3, F3)
    assert cm.verify_twisting(M, raw) is None
    level = cm.compatibility_class(M, gs, raw).level
    assert level == cm.compatibility_class(M, gs, reduced).level == "compatible"
    base = store.datum(key, "fp:3")
    report = cm.analyze(cm.build_twisted_cell_datum(base, raw))
    assert_checks_clean(report)
    assert report.to_dict() == cm.analyze(cm.build_twisted_cell_datum(base, reduced)).to_dict()
    assert raw.values == reduced.values


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
            assert cm.verify_cell_axioms(d).ok


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
    # at delta = 0 some scales are 0, and their blocks vanish
    for n, delta in product((2, 3, 4), ("2", "0")):
        base = store.datum(f"jones{n}")
        d = store.twisted(f"jones{n}", delta)
        at = d.attach
        weighted = [cm.weighted_sandwich(d, dcl) for dcl in range(len(at.boxes))]
        assert any(len(w) < len(mm) for w, mm in zip(weighted, at.matched_g)) == (delta == "0")
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
                    _, c = weighted[dcl].get((i, j), (None, 0))
                    for t in range(rs):
                        for s in range(ls):
                            assert tw.entries[j * rs + t][i * ls + s] == \
                                c * un.entries[j * rs + t][i * ls + s]


def _compatible_twistings(store):
    """(key, field, delta, twisting): the loop twisting on jones3-4 and the
    corank twisting on tfull3 and syminv3, at delta 0 and 2 over Q and F3."""
    for key, field, delta in product(("jones3", "jones4", "tfull3", "syminv3"), ("q", "fp:3"),
                                     (0, 2)):
        M, loops = store.monoid(key)
        fs = store.datum(key, field).field
        yield key, field, delta, (cm.make_loop_twisting(loops, delta, fs) if loops is not None
                                  else corank_twisting(M, int(key[-1]), delta, fs))


def test_match_scale_constancy(store):
    # A kept entry's scale is pi on every product of a cell of its column by
    # a cell of its row; on a dropped entry pi is 0 on all of them
    for key, field, delta, pi in _compatible_twistings(store):
        d = cm.build_twisted_cell_datum(store.datum(key, field), pi)
        at = d.attach
        dropped = False
        for dcl, box in enumerate(at.boxes):
            weighted = cm.weighted_sandwich(d, dcl)
            for (i, j), g in at.matched_g[dcl].items():
                kept, c = weighted.get((i, j), (g, 0))
                assert kept == g and (c != 0) == ((i, j) in weighted)
                dropped |= not c
                xs = [x for row in box.grid for x in row[j]]
                ys = [y for cell in box.grid[i] for y in cell]
                assert {pi.values[x][y] for x in xs for y in ys} == {c}, (key, field, delta)
        assert dropped == (delta == 0), (key, field, delta)


def test_twisted_clone_reads_its_scales_off_the_weights(store):
    # Twisting a datum directly, with no compatibility scan, analyses as the
    # datum build_twisted_cell_datum makes: the weights are the twisting's one
    # copy, and neither route rewrites the attachment.
    _, loops = store.monoid("jones3")
    tfull3, _ = store.monoid("tfull3")
    for key, pi in (("jones3", cm.make_loop_twisting(loops, 0, Q)),
                    ("tfull3", corank_twisting(tfull3, 3, 0, Q))):
        base = store.datum(key)
        direct = cm.analyze(base.twisted(pi.values))
        assert [c for c in direct.checks if c["status"] == "fail"] == [], key
        built = cm.build_twisted_cell_datum(base, pi)
        assert built.attach is base.attach
        assert direct.to_dict() == cm.analyze(built).to_dict()


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


def test_compatibility_scans_r_and_l_classes(store):
    # pi(1, .) varies on the R-class {1, 3} of the constant maps of T2, so the
    # left scan refuses it; on the opposite monoid with the transposed grid the
    # same values vary along an L-class and the right scan refuses them
    M, _ = store.monoid("tfull2")
    pi = edited(cm.trivial_twisting(M.size, Q), (1, 1, Fraction(2)))
    compat = cm.compatibility_class(M, store.green("tfull2")[0], pi)
    assert (compat.level, compat.witness) == ("incompatible",
                                              {"side": "left", "a": 1, "x": 1, "y": 3})
    op = cm.from_cayley_table(M.size, M.identity, [list(col) for col in zip(*M.table)])
    pi_op = cm.Twisting(Q, [list(col) for col in zip(*pi.values)], "transposed")
    compat = cm.compatibility_class(op, cm.compute_green(op), pi_op)
    assert (compat.level, compat.witness) == ("incompatible",
                                              {"side": "right", "a": 1, "x": 1, "y": 3})


@pytest.mark.parametrize("text,message", [
    ("{", "Expecting property name"),
    ('{"values": 3}', "twisting values must be a list of rows"),
    ('{"values": [[1, 1]]}', "twisting grid must be square"),
    ('{"values": [["x"]]}', "scalar 'x' is not n or n/d in q"),
], ids=["not_json", "not_a_list", "not_square", "bad_scalar"])
def test_twisting_file_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "pi.json"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        cm.load_twisting_json(path, Q)
    assert str(err.value).startswith(f"{path}: {message}"), err.value


def test_lawful_mark_cannot_go_stale(store):
    # The built datum shares pi.values as its weights and trusts the laws on
    # them.  An in-place edit of pi after the build used to keep the mark
    # while breaking the unit law, and the full check then passed a datum the
    # plain scan fails.  Tuple rows refuse that edit; a changed twisting is a
    # new one, which the build refuses and the unmarked check fails.
    M, _ = store.monoid("tfull3")
    base = store.datum("tfull3")
    pi = cm.trivial_twisting(M.size, Q)
    built = cm.build_twisted_cell_datum(base, pi)
    assert built.lawful and built.weights is pi.values
    with pytest.raises(TypeError):
        pi.values[0][1] = 2
    assert cm.verify_cell_axioms(built) == cm.AxiomReport("full", True, None, 27)
    bad = edited(pi, (0, 1, 2))
    with pytest.raises(cm.NotACocycle):
        cm.build_twisted_cell_datum(base, bad)
    unmarked = base.twisted(bad.values)
    report = cm.verify_cell_axioms(unmarked)
    assert report == reference_axiom_report(unmarked)
    assert (report.ok, report.witness["acting"], report.witness["node"]) == (False, 0, "D1:*")

import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import cellmonoid as cm
from cellmonoid.monoid import (BadIdentity, NotAssociative, SizeCapExceeded,
                               _compose_diagrams, _compose_maps, _left_walk,
                               generating_set)

from conftest import build_monoid


def test_from_cayley_table_trivial_and_z2():
    t = cm.from_cayley_table(1, 0, [[0]], ["1"])
    assert t.size == 1 and t.identity == 0
    # {1, 0} under multiplication
    z = cm.from_cayley_table(2, 0, [[0, 1], [1, 1]], ["1", "0"])
    assert z.mul(1, 1) == 1


def test_from_cayley_table_rejects_bad_tables():
    with pytest.raises(NotAssociative) as exc:
        cm.from_cayley_table(3, 0, [[0, 1, 2], [1, 2, 2], [2, 2, 1]])
    assert len(exc.value.witness) == 3
    with pytest.raises(BadIdentity):
        cm.from_cayley_table(2, 0, [[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        cm.from_cayley_table(2, 0, [[0, 5], [1, 1]])
    with pytest.raises(ValueError):
        cm.from_cayley_table(2, False, [[False, True], [True, False]])


def test_light_associativity_test_agrees_with_all_triples():
    # Random unital magmas on at most 4 elements, identity 0 (seeded): the
    # validator checks (x*g)*y = x*(g*y) only for g in a generating set, and
    # must refuse exactly the tables that fail on some triple, with a witness
    # that genuinely violates associativity.
    rng = random.Random(7)
    refused = 0
    for _ in range(20000):
        n = rng.randint(1, 4)
        table = [list(range(n))] + [[x] + [rng.randrange(n) for _ in range(n - 1)]
                                    for x in range(1, n)]
        associative = all(table[table[x][y]][z] == table[x][table[y][z]]
                          for x, y, z in itertools.product(range(n), repeat=3))
        try:
            cm.from_cayley_table(n, 0, table)
        except NotAssociative as exc:
            x, y, z = exc.witness
            assert table[table[x][y]][z] != table[x][table[y][z]]
            refused += 1
        else:
            assert associative
    assert 0 < refused < 20000


def test_generate_from_maps_oracles():
    t2 = cm.generate_from_maps(2, [[2, 1], [1, 1]])
    assert t2.size == 4
    t3 = cm.generate_from_maps(3, [[2, 3, 1], [2, 1, 3], [1, 1, 3]])
    assert t3.size == 27
    triv = cm.generate_from_maps(1, [])
    assert triv.size == 1
    partial = cm.generate_from_maps(2, [[None, 1]])
    assert partial.size > 1
    with pytest.raises(ValueError):
        cm.generate_from_maps(2, [[3, 1]])


def _reference_map_labels(kind, n):
    """Labels of the map families by counting in base n (total) or n + 1, the
    digit n standing for an undefined point: identity first, then
    lexicographic with "-" last."""
    base = n if kind == "tfull" else n + 1
    maps = [[k // base ** (n - 1 - p) % base for p in range(n)] for k in range(base ** n)]
    if kind == "syminv":
        maps = [m for m in maps if all(m.count(v) == 1 for v in m if v < n)]
    maps.remove(list(range(n)))
    maps.insert(0, list(range(n)))
    return ["[" + ",".join("-" if v == n else str(v + 1) for v in m) + "]" for m in maps]


def test_family_sizes():
    assert cm.family("syminv", 2)[0].size == 7
    assert cm.family("jones", 3)[0].size == 5
    assert cm.family("tpartial", 2)[0].size == 9
    for n in (1, 2, 3):
        assert cm.family("tfull", n)[0].size == n ** n
        assert cm.family("tpartial", n)[0].size == (n + 1) ** n
        assert cm.family("syminv", n)[0].size == sum(
            math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
        assert cm.family("jones", n)[0].size == math.comb(2 * n, n) // (n + 1)
        for kind in ("tfull", "tpartial", "syminv"):
            assert cm.family(kind, n)[0].labels == _reference_map_labels(kind, n)
    with pytest.raises(SizeCapExceeded):
        cm.family("tfull", 6)
    with pytest.raises(ValueError):
        cm.family("tfull", 0)


def _all_pairs_reference(kind, n, M):
    """Table (and loop table) of a family by composing every pair of its
    elements, recovered from the labels."""
    if kind == "jones":
        def point(s):
            return int(s[:-1]) - 1 + n if s.endswith("'") else int(s) - 1
        elems = [tuple(sorted(tuple(sorted((point(a), point(b))))
                              for a, b in re.findall(r"\((\S+) (\S+)\)", label)))
                 for label in M.labels]
        products = [[_compose_diagrams(n, x, y) for y in elems] for x in elems]
        index = {d: i for i, d in enumerate(elems)}
        return ([[index[z] for z, _ in row] for row in products],
                [[loops for _, loops in row] for row in products])
    elems = [tuple(_as_map(M, x)) for x in range(M.size)]
    index = {m: i for i, m in enumerate(elems)}
    return [[index[_compose_maps(x, y)] for y in elems] for x in elems], None


@pytest.mark.parametrize("kind,top", [("tfull", 4), ("tpartial", 4), ("syminv", 4), ("jones", 6)])
def test_family_tables_match_all_pairs_composition(kind, top):
    for n in range(1, top + 1):
        M, loops = cm.family(kind, n)
        table, ref_loops = _all_pairs_reference(kind, n, M)
        assert M.identity == 0 and M.table == table, (kind, n)
        assert (loops is None) == (ref_loops is None)
        assert loops is None or loops.loops == ref_loops, (kind, n)


def test_left_walk_follows_the_loop_cocycle_rule():
    # On Jones monoids a generator that removes a loop never reaches a new
    # element, so the L(g, x') term is 0 there.  A coboundary
    # L(x, y) = f(x) + f(y) - f(xy) with f(1) = 0 is a cocycle where it is not.
    M, _ = cm.family("tfull", 3)
    f = [0] + [(7 * x) % 5 + 1 for x in range(1, M.size)]
    L = [[f[x] + f[y] - f[M.table[x][y]] for y in range(M.size)] for x in range(M.size)]
    gens = generating_set(M)
    table, loops = _left_walk(M.size, [M.table[g] for g in gens], [L[g] for g in gens])
    assert table == M.table and loops == L


def test_family_tables_are_associative_monoids():
    # associativity for families at small n, via the validator
    for fam in ("tfull", "tpartial", "syminv", "jones"):
        for n in (1, 2, 3):
            M, _ = cm.family(fam, n)
            cm.from_cayley_table(M.size, M.identity, M.table, M.labels)


def test_jones_loop_table():
    M, loops = cm.family("jones", 2)
    e1 = 1  # the single non-identity diagram
    assert loops.loops[e1][e1] == 1
    for x in range(M.size):
        assert loops.loops[x][M.identity] == 0
        assert loops.loops[M.identity][x] == 0
    # hook composition on three points: stacking the two hooks gives no loop
    M3, loops3 = cm.family("jones", 3)
    assert any(v == 1 for row in loops3.loops for v in row)


def test_jones_composition_is_planar_closed():
    for n in (2, 3, 4):
        M, _ = cm.family("jones", n)
        assert M.size == math.comb(2 * n, n) // (n + 1)  # table construction asserts closure


def test_structural_predicates():
    t2, _ = cm.family("tfull", 2)
    idem = cm.idempotents(t2)
    assert t2.identity in idem and len(idem) == 3
    assert cm.is_regular(t2) and not cm.is_inverse(t2)
    i2, _ = cm.family("syminv", 2)
    assert cm.is_regular(i2) and cm.is_inverse(i2)
    triv = cm.from_cayley_table(1, 0, [[0]])
    assert cm.idempotents(triv) == [0] and cm.is_regular(triv) and cm.is_inverse(triv)


def test_inverse_implies_regular():
    for key in ("tfull2", "tpartial2", "syminv2", "jones3"):
        fam, n = key[:-1], int(key[-1])
        M, _ = cm.family(fam, n)
        if cm.is_inverse(M):
            assert cm.is_regular(M)


def test_generating_set():
    M, _ = cm.family("tfull", 3)
    gens = generating_set(M)
    got = cm.generate_from_maps(3, [[v + 1 for v in _as_map(M, g)] for g in gens])
    assert got.size == M.size
    assert len(gens) <= 3
    # partial maps: PT_3 has rank 4
    M, _ = cm.family("tpartial", 3)
    gens = generating_set(M)
    got = cm.generate_from_maps(3, [[None if v is None else v + 1 for v in _as_map(M, g)]
                                    for g in gens])
    assert got.size == M.size
    assert len(gens) <= 4
    # diagrams with a trivial group of units, and bare Cayley tables
    for key, expected in (("jones4", None), ("null3", [1]), ("trivial", [])):
        M, _ = build_monoid(key)
        gens = generating_set(M)
        assert _table_closure(M, gens) == set(range(M.size))
        assert expected is None or gens == expected


def _closure(r, gens):
    """Every composite of the generators, by repeated all-pairs composition."""
    elems = {tuple(range(r))} | set(gens)
    while True:
        more = {_compose_maps(x, y) for x in elems for y in elems} - elems
        if not more:
            return elems
        elems |= more


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_generate_from_maps_random_generators(data):
    r = data.draw(st.integers(1, 3))
    point = st.one_of(st.none(), st.integers(1, r))
    gens = data.draw(st.lists(st.lists(point, min_size=r, max_size=r), max_size=3))
    M = cm.generate_from_maps(r, gens)
    maps = [tuple(_as_map(M, x)) for x in range(M.size)]
    assert M.identity == 0 and maps[0] == tuple(range(r))
    as_tuples = [tuple(None if v is None else v - 1 for v in g) for g in gens]
    firsts = [g for g in dict.fromkeys(as_tuples) if g != maps[0]]
    assert maps[1:1 + len(firsts)] == firsts
    assert len(set(maps)) == M.size
    assert set(maps) == _closure(r, as_tuples)
    cm.from_cayley_table(M.size, M.identity, M.table, M.labels)
    for x, y in itertools.product(range(M.size), repeat=2):
        assert maps[M.table[x][y]] == _compose_maps(maps[x], maps[y])


def _as_map(M, g):
    # recover the (partial) map from its label "[a,b,c]", "-" marking undefined
    return [None if v == "-" else int(v) - 1 for v in M.labels[g][1:-1].split(",")]


def _table_closure(M, gens):
    reach = {M.identity}
    frontier = [M.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            z = M.table[x][g]
            if z not in reach:
                reach.add(z)
                frontier.append(z)
    return reach


def test_cayley_json_round_trip(tmp_path):
    M, _ = cm.family("syminv", 2)
    path = tmp_path / "m.json"
    cm.save_cayley_json(M, path)
    M2 = cm.load_cayley_json(path)
    assert (M2.size, M2.identity, M2.table, M2.labels) == (M.size, M.identity, M.table, M.labels)
    path2 = tmp_path / "m2.json"
    cm.save_cayley_json(M2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_loop_json_round_trip(tmp_path):
    _, loops = cm.family("jones", 3)
    path = tmp_path / "l.json"
    cm.save_loop_table(loops, path)
    loops2 = cm.load_loop_table(path)
    assert loops2.loops == loops.loops


@pytest.mark.parametrize("loops", [5, [1, 2], [["0"]], [[0.5]], [[-1]], [[True]]],
                         ids=["not_a_list", "row_not_a_list", "string_entry",
                              "float_entry", "negative_entry", "boolean_entry"])
def test_loop_table_wrong_types_raise_value_error(tmp_path, loops):
    path = tmp_path / "l.json"
    path.write_text(json.dumps({"loops": loops}))
    with pytest.raises(ValueError):
        cm.load_loop_table(path)

import json
import math

import pytest

import cellmonoid as cm
from cellmonoid.monoid import (BadIdentity, NotAssociative, SizeCapExceeded,
                               _compose_diagrams, generating_set)

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
    with pytest.raises(SizeCapExceeded):
        cm.family("tfull", 6)
    with pytest.raises(ValueError):
        cm.family("tfull", 0)


def test_family_tables_are_associative_monoids():
    # exhaustive associativity for families at small n, via the validator
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


@pytest.mark.parametrize("loops", [5, [1, 2], [["0"]], [[0.5]], [[-1]]],
                         ids=["not_a_list", "row_not_a_list", "string_entry",
                              "float_entry", "negative_entry"])
def test_loop_table_wrong_types_raise_value_error(tmp_path, loops):
    path = tmp_path / "l.json"
    path.write_text(json.dumps({"loops": loops}))
    with pytest.raises(ValueError):
        cm.load_loop_table(path)

import random
import time
from fractions import Fraction

import pytest

from cellmonoid.exactalg import (DenseMatrix, FieldSpec, RATIONALS, _is_prime, mat_inverse,
                                 mat_nullspace, mat_rank, prime_field, solve_linear)

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)


def M(field, rows):
    return DenseMatrix.from_rows(field, [[field.from_int(v) for v in r] for r in rows])


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec("fp", 4)
    with pytest.raises(ValueError):
        FieldSpec("fp", 1)
    with pytest.raises(ValueError):
        FieldSpec("weird")
    with pytest.raises(ValueError):
        FieldSpec("q", 3)
    assert FieldSpec.parse("fp:7") == prime_field(7)
    assert FieldSpec.parse("q") == RATIONALS
    assert prime_field(11).spec_string() == "fp:11"


def test_primality_is_exact_and_fast():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to the smallest bases, and a Carmichael number
    for n in (561, 2047, 3215031751, 3825123056546413051):
        assert not _is_prime(n)
    t0 = time.perf_counter()
    big = FieldSpec.parse("fp:2305843009213693951")  # 2**61 - 1
    assert time.perf_counter() - t0 < 1.0
    assert big == prime_field(2 ** 61 - 1)
    assert _is_prime(2 ** 64 - 59)  # the largest prime below 2**64
    with pytest.raises(ValueError):
        FieldSpec.parse(f"fp:{2 ** 64 + 13}")
    with pytest.raises(ValueError):
        FieldSpec.parse("fp:2305843009213693953")  # 2**61 + 1, divisible by 3


def test_scalar_serialization_round_trip():
    assert RATIONALS.format_scalar(Fraction(-3, 2)) == "-3/2"
    assert RATIONALS.parse_scalar("-3/2") == Fraction(-3, 2)
    assert F5.parse_scalar("7") == 2
    assert F5.parse_scalar("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert F5.format_scalar(3) == "3"
    for field in (RATIONALS, F5):
        with pytest.raises(ValueError):
            field.parse_scalar("1/0")


def test_rank_examples():
    assert mat_rank(DenseMatrix.identity(RATIONALS, 2)) == 2
    assert mat_rank(M(F2, [[2]])) == 0
    assert mat_rank(M(RATIONALS, [[1, 1], [1, 1]])) == 1
    assert mat_rank(DenseMatrix(RATIONALS, 0, 3, [])) == 0


def test_nullspace_examples():
    assert mat_nullspace(DenseMatrix.identity(RATIONALS, 3)) == []
    ns = mat_nullspace(M(RATIONALS, [[1, 1]]))
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + v[1] == 0 and v != [0, 0]
    ns3 = mat_nullspace(M(F3, [[3]]))
    assert ns3 == [[1]]


def test_solve_examples():
    ident = DenseMatrix.identity(RATIONALS, 2)
    assert solve_linear(ident, [Fraction(5), Fraction(-1)]) == [Fraction(5), Fraction(-1)]
    assert solve_linear(M(RATIONALS, [[2]]), [Fraction(1)]) == [Fraction(1, 2)]
    assert solve_linear(M(RATIONALS, [[1], [1]]), [Fraction(1), Fraction(2)]) is None


def test_rank_nullity_and_exact_solve_randomized():
    rng = random.Random(20240611)
    for field in (RATIONALS, F2, F3, F5):
        for _ in range(40):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            a = M(field, [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)])
            r = mat_rank(a)
            ns = mat_nullspace(a)
            assert r + len(ns) == nc
            for v in ns:
                prod = [sum_entries(field, row, v) for row in a.entries]
                assert all(field.is_zero(x) for x in prod)
            b = [field.from_int(rng.randint(-4, 4)) for _ in range(nr)]
            x = solve_linear(a, b)
            if x is not None:
                got = [sum_entries(field, row, x) for row in a.entries]
                assert got == list(b)


def sum_entries(field, row, v):
    acc = field.zero()
    for a, b in zip(row, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def test_inverse_round_trip():
    a = M(RATIONALS, [[2, 1], [1, 1]])
    inv = mat_inverse(a)
    prod = [[sum_entries(RATIONALS, a.entries[i], [inv.entries[k][j] for k in range(2)])
             for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]
    assert mat_inverse(M(RATIONALS, [[1, 1], [1, 1]])) is None
    assert mat_inverse(M(RATIONALS, [[1, 2]])) is None


def test_scalar_arithmetic_laws_randomized():
    rng = random.Random(7)
    for field in (RATIONALS, F3, F5):
        vals = [field.from_int(rng.randint(-9, 9)) for _ in range(60)]
        for i in range(0, 60, 3):
            a, b, c = vals[i], vals[i + 1], vals[i + 2]
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if not field.is_zero(b):
                assert field.mul(field.div(a, b), b) == a

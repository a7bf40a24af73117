import random
import time
from fractions import Fraction

import pytest

from cellmonoid import exactalg
from cellmonoid.cellbasis import gram_summary
from cellmonoid.exactalg import (DenseMatrix, FieldSpec, RATIONALS, _bareiss, _int_rows,
                                 _is_prime, _scan, certified_nonsingular, mat_inverse,
                                 mat_rank, prime_field)

from conftest import _rref, reference_nonsingular

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)


def M(field, rows):
    return DenseMatrix.from_rows(field, [[field.norm(v) for v in r] for r in rows])


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
    assert hash(FieldSpec.parse("fp:7")) == hash(prime_field(7))
    assert FieldSpec.parse("q") == RATIONALS != prime_field(7)
    assert prime_field(11).spec_string() == "fp:11"


@pytest.mark.parametrize("rows,cols,entries", [(2, 2, [[1, 2]]), (1, 2, [[1, 2, 3]]),
                                               (2, 2, [[1, 2], [3]])])
def test_dense_matrix_rejects_a_mis_shaped_grid(rows, cols, entries):
    with pytest.raises(ValueError, match="declared shape"):
        DenseMatrix(RATIONALS, rows, cols, entries)


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
    assert str(Fraction(-3, 2)) == "-3/2"
    assert RATIONALS.parse_scalar("-3/2") == Fraction(-3, 2)
    # an integral rational parses to an int, any other to a Fraction
    assert type(RATIONALS.parse_scalar("2")) is int
    assert type(RATIONALS.parse_scalar("4/2")) is int
    assert type(RATIONALS.parse_scalar("-3/2")) is Fraction
    assert F5.parse_scalar("7") == 2
    assert F5.parse_scalar("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert str(F5.parse_scalar("3")) == "3"
    for field, values in ((RATIONALS, (0, 1, -4, Fraction(-3, 2), Fraction(7, 12))),
                          (F5, range(5))):
        for x in values:
            assert field.parse_scalar(str(x)) == x
    for field in (RATIONALS, F5):
        with pytest.raises(ValueError):
            field.parse_scalar("1/0")
    # a malformed scalar is named with its field; rational decimals still parse
    assert RATIONALS.parse_scalar("1.5") == Fraction(3, 2)
    for field, s in ((RATIONALS, "abc"), (F5, "abc"), (F5, "1.5")):
        with pytest.raises(ValueError, match=f"^scalar '{s}' is not n or n/d in "
                                             f"{field.spec_string()}$"):
            field.parse_scalar(s)


SPELLINGS = ["2", "+2", "-0", " 3 ", "2_0", "٣", "１２", "4/2", "-3/2", "1.5", "2.0", "1e3",
             "abc", "1/0", "", "1/2/3", "0x10"]


def _fraction_reading(s):
    """The rational that Fraction reads from s, or None where it refuses s."""
    try:
        return exactalg._rational(*Fraction(s).as_integer_ratio())
    except (ValueError, ZeroDivisionError):
        return None


def _split_reading(field, s):
    """Over a prime field: n % p, or n/d by d's inverse, or None where refused."""
    s = s.strip()
    try:
        if "/" not in s:
            return int(s) % field.p
        num, den = (int(t) for t in s.split("/", 1))
        return num * pow(den, field.p - 2, field.p) % field.p if den % field.p else None
    except ValueError:
        return None


@pytest.mark.parametrize("s", SPELLINGS)
def test_parse_scalar_reads_integers_by_int_as_fraction_would(s):
    # over Q an int literal skips Fraction; the value, its type and every
    # refusal match the Fraction reading
    for field, expected in ((RATIONALS, _fraction_reading(s)), (F5, _split_reading(F5, s))):
        if expected is None:
            with pytest.raises(ValueError, match=f" in {field.spec_string()}$"):
                field.parse_scalar(s)
        else:
            value = field.parse_scalar(s)
            assert (value, type(value)) == (expected, type(expected)), (field, s)


def test_rank_examples():
    assert mat_rank(DenseMatrix.identity(RATIONALS, 2)) == 2
    assert mat_rank(M(F2, [[2]])) == 0
    assert mat_rank(M(RATIONALS, [[1, 1], [1, 1]])) == 1
    assert mat_rank(DenseMatrix(RATIONALS, 0, 3, [])) == 0


def nullspace(m):
    """A basis of m's kernel, one vector per free column: over a prime field
    from the coefficients _scan yields, over Q (as Fractions) from the
    reduced row echelon form _rref."""
    if m.field.kind == "q":
        red = [list(r) for r in m.entries]
        pivots = _rref(RATIONALS, red, m.cols)
        free = [(c, pivots, [-red[k][c] for k in range(len(pivots))])
                for c in range(m.cols) if c not in pivots]
        scalar = Fraction
    else:
        rows, p = _int_rows(m)
        free = [(c, pivots, [-x % p for x in column])
                for c, pivots, column in _scan(rows, m.cols, p)]
        scalar = int
    basis = []
    for c, pivots, column in free:
        v = [scalar(0)] * m.cols
        v[c] = scalar(1)
        for k, x in zip(pivots, column):
            v[k] = scalar(x)
        basis.append(v)
    return basis


def test_nullspace_examples():
    assert nullspace(DenseMatrix.identity(RATIONALS, 3)) == []
    ns = nullspace(M(RATIONALS, [[1, 1]]))
    assert len(ns) == 1
    v = ns[0]
    assert v[0] + v[1] == 0 and v != [0, 0]
    assert all(type(x) is Fraction for x in v)
    ns3 = nullspace(M(F3, [[3]]))
    assert ns3 == [[1]]
    assert nullspace(M(RATIONALS, [[2, 4], [1, 2]])) == [[-2, 1]]


def test_rank_nullity_and_exact_solve_randomized():
    # 40 small integer matrices per field, then 60 from random_matrix; the
    # rank is checked against the nullspace route, _scan's kernel vectors over
    # F_p and the RREF's over Q.
    rng = random.Random(20240611)
    for field in (RATIONALS, F2, F3, F5):
        for trial in range(100):
            if trial < 40:
                nr, nc = rng.randint(1, 5), rng.randint(1, 5)
                a = M(field, [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)])
                bound = min(nr, nc)
            else:
                a, bound = random_matrix(rng, field, rng.randint(0, 12), rng.randint(0, 12))
            r = mat_rank(a)
            assert r <= bound
            ns = nullspace(a)
            assert r + len(ns) == a.cols
            for v in ns:
                prod = [sum_entries(field, row, v) for row in a.entries]
                assert not any(prod)


def random_matrix(rng, field, nr, nc):
    """An nr x nc matrix and a bound on its rank.  Entries are rationals with
    small denominators over Q; two times in five the matrix is a product of
    nr x k and k x nc factors, so of rank at most k; some columns are zero."""
    def entry():
        if field.kind == "q":
            return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5, 12)))
        return field.norm(rng.randint(-4, 4))

    bound = min(nr, nc)
    if rng.random() < 0.4:
        bound = rng.randint(0, bound)
        left = [[entry() for _ in range(bound)] for _ in range(nr)]
        right = [[entry() for _ in range(nc)] for _ in range(bound)]
        rows = [[sum_entries(field, lr, [right[i][j] for i in range(bound)]) for j in range(nc)]
                for lr in left]
    else:
        rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    for j in range(nc):
        if rng.random() < 0.15:
            for row in rows:
                row[j] = 0
    return DenseMatrix(field, nr, nc, rows), bound


def sum_entries(field, row, v):
    acc = 0
    for a, b in zip(row, v):
        acc += a * b
    return field.norm(acc)


def test_inverse_round_trip():
    a = M(RATIONALS, [[2, 1], [1, 1]])
    inv = mat_inverse(a)
    prod = [[sum_entries(RATIONALS, a.entries[i], [inv.entries[k][j] for k in range(2)])
             for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]
    assert mat_inverse(M(RATIONALS, [[1, 1], [1, 1]])) is None
    assert mat_inverse(M(RATIONALS, [[1, 2]])) is None


def test_rational_division_is_exact():
    half = RATIONALS.inv(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    third = 2 * RATIONALS.inv(6)
    assert third == Fraction(1, 3) and type(third) is Fraction
    assert type(RATIONALS.inv(Fraction(-2, 3))) is Fraction
    with pytest.raises(ZeroDivisionError):
        RATIONALS.inv(0)


def _reference_inverse(m):
    """Inverse by reduced row echelon form over the field's own arithmetic."""
    f, n = m.field, m.rows
    rows = [list(r) + [1 if i == j else 0 for j in range(n)]
            for i, r in enumerate(m.entries)]
    if _rref(f, rows, 2 * n)[:n] != list(range(n)):
        return None
    return [r[n:] for r in rows]


def _reference_rank(m):
    """Rank by reduced row echelon form over the field's own arithmetic."""
    return len(_rref(m.field, [list(r) for r in m.entries], m.cols))


def integral_as_int(entries):
    """Every rational entry is an int exactly when its denominator is 1, and
    a Fraction otherwise."""
    return all(type(x) is (int if x.denominator == 1 else Fraction)
               for row in entries for x in row)


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * v * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, v in enumerate(rows[0]) if v)


def test_bareiss_is_a_row_echelon_form_of_int_minors():
    # On literal shapes (zero columns, wide, tall, negative determinants)
    # and random int matrices: the pivots are the RREF's over Q, the rows
    # are ints in row echelon form spanning the input's row space, the
    # input is not changed, and with a pivot in every row the last pivot is
    # +-the minor on the pivot columns (+-det for a nonsingular square).
    assert _bareiss([[2, 1], [1, -3]], 2) == ([0, 1], [[2, 1], [0, -7]])  # det -7
    assert _bareiss([[0, 1], [1, 0]], 2)[1][1][1] == 1  # det -1, after a swap
    assert _bareiss([[0, 2, 4], [0, 1, 2], [0, 3, 7]], 3)[0] == [1, 2]
    # column 1 has no pivot and keeps the divisor 2, so the last pivot is the
    # minor 21 on columns 0, 2 and 3
    assert _bareiss([[2, 0, 1, 1], [1, 0, 3, 2], [1, 0, 1, 5]], 4) == (
        [0, 2, 3], [[2, 0, 1, 1], [0, 0, 5, 3], [0, 0, 0, 21]])
    assert _bareiss([[0, 0], [0, 0]], 2) == ([], [[0, 0], [0, 0]])
    assert _bareiss([], 3) == ([], [])
    assert _bareiss([[], []], 0) == ([], [[], []])
    rng = random.Random(4409)
    shapes = [(1, 5), (2, 6), (6, 2), (7, 3), (5, 1)] + [(3, 7), (4, 8)] * 4 + [
        (n, n) for n in range(1, 6)] * 6
    signs = set()  # of the minors on the pivot columns
    for nr, nc in shapes:
        rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.3:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[-1])]  # a dependent row
        if nc > 2 and rng.random() < 0.5:
            for r in rows:
                r[1] = 0  # a zero column after the first pivot
        copy = [list(r) for r in rows]
        pivots, echelon = _bareiss(rows, nc)
        assert rows == copy
        assert pivots == _rref(RATIONALS, [list(r) for r in rows], nc)
        assert all(type(v) is int for r in echelon for v in r)
        for i, r in enumerate(echelon):
            lead = next((c for c, v in enumerate(r) if v), None)
            assert lead == (pivots[i] if i < len(pivots) else None)
        assert len(_rref(RATIONALS, rows + echelon, nc)) == len(pivots)
        if len(pivots) == nr:  # the last pivot is +-the minor on the pivot columns
            last, det = echelon[-1][pivots[-1]], _det([[r[c] for c in pivots] for r in rows])
            assert last in (det, -det)
            signs.add(det > 0)
    assert signs == {False, True}


def test_kernel_matches_reference_eliminations():
    # The mod-p kernel over F_p and Bareiss over Q against RREF in the field's
    # own arithmetic (ranks and inverses, over Q in Fractions), on
    # random_matrix's matrices: products of low rank, zero columns, singular
    # squares.  An inverse entry over Q is an int exactly when it is
    # integral, a Fraction otherwise; str() of a scalar is the same either way.
    rng = random.Random(1103)
    singular = 0
    for field in (RATIONALS, F2, F3, F5):
        for _ in range(150):
            a, _ = random_matrix(rng, field, rng.randint(0, 9), rng.randint(0, 9))
            assert mat_rank(a) == _reference_rank(a)
            n = rng.randint(0, 8)
            sq, _ = random_matrix(rng, field, n, n)
            expected = _reference_inverse(sq)
            assert certified_nonsingular(sq) is (expected is not None)
            inv = mat_inverse(sq)
            if expected is None:
                singular += 1
                assert inv is None
                continue
            assert inv.entries == expected
            if field.kind == "q":
                assert integral_as_int(inv.entries)
    assert singular > 20


def square_int_rows(rng, n, kind):
    """A random n x n int matrix (kind 0), a product of rank k < n (kind 1),
    or one whose column j is a combination of the columns before it (kind
    2), so that the first free column falls anywhere."""
    rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    if kind == 1:
        k = rng.randint(0, n - 1)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rows = [[sum(lr[i] * right[i][j] for i in range(k)) for j in range(n)]
                for lr in left]
    elif kind == 2:
        j = rng.randint(0, n - 1)
        coeffs = [rng.randint(-3, 3) for _ in range(j)]
        for row in rows:
            row[j] = sum(c * v for c, v in zip(coeffs, row))
    return rows


def test_nonsingular_verdict_matches_the_rank():
    # certified_nonsingular reduces columns only up to the first free one,
    # and back substitutes that column alone.  Its verdict must be
    # mat_rank(m) == n on square int matrices over Q and F_p (square_int_rows).
    rng = random.Random(4127)
    counts = {"nonsingular": 0, "singular": 0}
    for field in (RATIONALS, F2, F3, F5, prime_field(7)):
        for trial in range(120):
            rows = square_int_rows(rng, rng.randint(1, 9), trial % 3)
            m = M(field, rows)
            expected = mat_rank(m) == len(rows)
            assert certified_nonsingular(m) is expected, (field, rows)
            counts["nonsingular" if expected else "singular"] += 1
    assert min(counts.values()) > 100, counts


@pytest.mark.parametrize("modulus", [None, 2, 3])
def test_nonsingular_matches_the_row_echelon_reference(modulus, monkeypatch):
    # certified_nonsingular's scan against a row echelon form of every column
    # (conftest.reference_nonsingular): the same verdict on square_int_rows'
    # matrices and on random_matrix's squares (Fractions, products of low
    # rank, zero columns).  Under the kernel's prime every verdict is exact;
    # with the prime set to 2 or 3 a rank that is low mod p only fails the
    # certificate (None).
    if modulus is not None:
        monkeypatch.setattr(exactalg, "_MODULUS", modulus)
    rng = random.Random(5209)
    verdicts = set()
    for field in (RATIONALS, F2, F3, F5, prime_field(7)):
        for trial in range(160):
            if trial % 4:
                m = M(field, square_int_rows(rng, rng.randint(1, 9), trial % 4 - 1))
            else:
                m, _ = random_matrix(rng, field, *[rng.randint(0, 8)] * 2)
            expected = reference_nonsingular(m)
            assert certified_nonsingular(m) is expected, (field, m.entries)
            verdicts.add((field.kind, expected))
    assert {("fp", True), ("fp", False), ("q", True), ("q", False)} <= verdicts
    assert (("q", None) in verdicts) is (modulus is not None), verdicts


def shaped_matrix(rng, field, nr, nc, k, planted):
    """An nr x nc product L R of rank at most k.  When planted, about one
    column in ten of R is zero and one in four combines the columns before
    it, so that free columns fall between the pivot columns.  L has
    small-denominator Fractions over Q."""
    def entry(den=1):
        return field.norm(Fraction(rng.randint(-4, 4), den) if field.kind == "q"
                          else rng.randint(-4, 4))

    left = [[entry(rng.choice((1, 2, 3, 6))) for _ in range(k)] for _ in range(nr)]
    right = []  # the columns of R
    for _ in range(nc):
        kind = rng.random() if planted else 1
        if kind < 0.1:
            right.append([0] * k)
        elif kind < 0.35 and right:
            picks = rng.sample(right, min(len(right), 3))
            coeffs = [entry() for _ in picks]
            right.append([sum_entries(field, coeffs, [col[i] for col in picks]) for i in range(k)])
        else:
            right.append([entry() for _ in range(k)])
    return DenseMatrix(field, nr, nc, [[sum_entries(field, lr, col) for col in right]
                                       for lr in left])


SHAPES = [(5, 40, 5, True), (5, 40, 3, True), (40, 5, 5, True), (40, 5, 3, True),
          (12, 12, 8, True), (20, 20, 15, True), (30, 30, 24, True), (12, 12, 12, False),
          (30, 30, 30, False)]


@pytest.mark.parametrize("modulus", [None, 2, 3])
def test_kernel_matches_the_references_on_larger_shapes(modulus, store, monkeypatch):
    # mat_rank, certified_nonsingular and mat_inverse against RREF ranks,
    # reference_nonsingular and RREF inverses, on shaped_matrix's wide
    # 5 x 40, tall 40 x 5, low-rank squares up to 30 x 30 with free columns
    # between the pivots, and squares of full rank; and on the Grams of
    # jones5 twisted by delta = 3/2 and -7/3, whose denominators grow the
    # ints of the fraction-free elimination.  Under the kernel's prime every
    # verdict is exact; set to 2 or 3 it fails the certificate on rational
    # answers the prime gets wrong.
    grams = [g for delta in ("3/2", "-7/3")
             for g in gram_summary(store.twisted("jones5", delta)).grams]
    assert any(type(v) is Fraction and v.denominator > 1
               for g in grams for r in g.entries for v in r)
    if modulus is not None:
        monkeypatch.setattr(exactalg, "_MODULUS", modulus)
    rng = random.Random(3121)
    shaped = [shaped_matrix(rng, field, *shape)
              for field in (RATIONALS, F2, F3, prime_field(7)) for shape in SHAPES]
    seen, interleaved = set(), 0
    for m in shaped + grams:
        field = m.field
        assert mat_rank(m) == _reference_rank(m), (field, m.entries)
        if field.kind == "fp":
            pivots = _rref(field, [list(r) for r in m.entries], m.cols)
            interleaved += any(c not in pivots for c in range(pivots[-1])) if pivots else 0
        if m.rows != m.cols:
            continue
        verdict = certified_nonsingular(m)
        assert verdict is reference_nonsingular(m), (field, m.entries)
        expected, inv = _reference_inverse(m), mat_inverse(m)
        assert (inv and inv.entries) == expected, (field, m.entries)
        assert verdict is (expected is not None) or modulus and verdict is None
        seen.add((field.kind, verdict, expected is not None))
    assert interleaved > 10, interleaved
    assert {("fp", True, True), ("fp", False, False), ("q", False, False)} <= seen, seen
    assert ("q", True if modulus is None else None, True) in seen, seen


# The 8 x 8 rational matrix of rank 7 that random_matrix draws for
# test_nonsingular_matches_the_row_echelon_reference[None] (seed 5209): its
# first free column is column 7, and its kernel vector's entries are 7 x 7
# minors, far above the bound sqrt(p/2) of a rational reconstruction mod
# _MODULUS.
UNCERTIFIED_RANK_7 = """
    -188/15  59/15    4957/300  -134/15  -922/15   731/30    -476/75   -71/30
    218/45   -31/8    -497/120  7/3      253/18    -29/18    69/20     -511/72
    -35/12   107/40   1501/300  331/30   692/45    -8369/360 1429/150  -271/60
    13/30    -263/72  -37/60    -11/9    343/18    -179/18   23/10     -157/12
    733/360  -16/9    -91/90    14/9     1043/180  -83/120   131/36    -139/40
    1469/120 -49/3    -97/30    29/6     673/30    -13/20    601/60    -421/60
    1391/180 -293/36  -35/4     8/9      29/3      -25/4     -27/2     211/9
    -917/150 293/15   -887/90   2/3      1579/45   -98/5     619/225   -407/30
"""


def test_the_matrix_too_large_to_lift_is_proven_singular_by_one_bareiss(monkeypatch):
    # the certificate proves it singular by one _bareiss call on columns 0 to 7
    m = DenseMatrix.from_rows(RATIONALS, [[Fraction(v) for v in line.split()]
                                          for line in UNCERTIFIED_RANK_7.strip().splitlines()])
    calls = []
    monkeypatch.setattr(exactalg, "_bareiss",
                        lambda rows, ncols: calls.append(ncols) or _bareiss(rows, ncols))
    rows, p = _int_rows(m)
    assert next(_scan(rows, 8, p))[0] == 7
    assert certified_nonsingular(m) is False
    assert calls == [8]
    assert mat_rank(m) == 7
    assert calls == [8, 8]
    assert mat_inverse(m) is None
    assert calls == [8, 8, 16]


@pytest.mark.parametrize("field", [RATIONALS, F3])
def test_non_square_matrix_is_not_nonsingular(field):
    # as mat_inverse returns None for one: a 2 x 3 matrix has a pivot in
    # each row, and a 3 x 2 one has no third column to scan
    for rows in ([[1, 0, 2], [0, 1, 1]], [[1, 0], [0, 1], [1, 1]]):
        m = M(field, rows)
        assert certified_nonsingular(m) is False
        assert mat_inverse(m) is None
    assert certified_nonsingular(DenseMatrix(field, 0, 3, [])) is False


def test_nonsingular_reads_no_column_after_the_first_free_one():
    # Over F_5 the entries after the first free column are None, so reading
    # any of them would raise TypeError.  Column 2 is column 0 plus twice
    # column 1; a zero column 0 is free at once.
    col0, col1 = [1, 0, 2, 3, 1], [0, 1, 4, 1, 2]
    planted = [[a, b, (a + 2 * b) % 5, None, None] for a, b in zip(col0, col1)]
    assert certified_nonsingular(DenseMatrix(F5, 5, 5, planted)) is False
    zero_first = [[0] + [None] * 4 for _ in range(5)]
    assert certified_nonsingular(DenseMatrix(F5, 5, 5, zero_first)) is False


def test_tiny_prime_falls_back_to_exact_eliminations(monkeypatch):
    # With the kernel's prime set to 3, which divides some of these minors,
    # each rational rank and inverse is still one _bareiss call: on m.cols
    # columns for a rank, on 2n for an inverse.  The nonsingularity
    # certificate still eliminates mod 3; at the first free column c it makes
    # one _bareiss call on columns 0 to c, and fails (None) where the prime
    # is wrong.
    calls = []

    def counted(rows, ncols):
        calls.append(ncols)
        return _bareiss(rows, ncols)

    monkeypatch.setattr(exactalg, "_MODULUS", 3)
    monkeypatch.setattr(exactalg, "_bareiss", counted)
    assert mat_rank(M(RATIONALS, [[3]])) == 1
    assert mat_rank(M(RATIONALS, [[1, 2], [2, 1]])) == 2  # det -3
    assert calls == [1, 2]
    inv = mat_inverse(M(RATIONALS, [[3]]))
    assert inv.entries == [[Fraction(1, 3)]] and type(inv.entries[0][0]) is Fraction
    assert mat_inverse(M(RATIONALS, [[1, 2], [2, 1]])).entries == [
        [Fraction(-1, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(-1, 3)]]
    assert mat_inverse(M(RATIONALS, [[2]])).entries == [[Fraction(1, 2)]]
    # [[1, 2], [0, 1]] has det 1, so the last pivot is 1 and the inverse is all ints
    inv = mat_inverse(M(RATIONALS, [[1, 2], [0, 1]]))
    assert inv.entries == [[1, -2], [0, 1]]
    assert integral_as_int(inv.entries)
    assert calls == [1, 2, 2, 4, 2, 4]
    assert certified_nonsingular(M(RATIONALS, [[1, 2], [2, 1]])) is None
    assert calls == [1, 2, 2, 4, 2, 4, 2]
    # answers the prime gets right take the same one call; the certificate
    # proves a singular matrix singular by one _bareiss call on its columns
    # up to the first free one, here of its one distinct row
    assert mat_rank(M(RATIONALS, [[1, 1], [1, 1]])) == 1
    assert certified_nonsingular(M(RATIONALS, [[1, 1], [1, 1]])) is False
    assert mat_inverse(M(RATIONALS, [[1, 1], [0, 1]])).entries == [[1, -1], [0, 1]]
    assert calls == [1, 2, 2, 4, 2, 4, 2, 2, 2, 4]
    # Fractions where the inverse is not integral and ints elsewhere
    inv = mat_inverse(M(RATIONALS, [[2, 0], [0, 1]]))
    assert inv.entries == [[Fraction(1, 2), 0], [0, 1]] and integral_as_int(inv.entries)
    assert calls == [1, 2, 2, 4, 2, 4, 2, 2, 2, 4, 4]


@pytest.mark.parametrize("modulus", [None, 2, 3])
def test_rational_ranks_and_inverses_take_one_bareiss_and_no_scan(modulus, monkeypatch):
    # Over Q, mat_rank and mat_inverse make one _bareiss call and no _scan
    # call under any kernel prime, also on a 40 x 40 int square whose last
    # column is the sum of the first two: a matrix singular mod every prime
    # takes no full modular scan first.  Over F_p both make one _scan call
    # and no _bareiss call.  certified_nonsingular over Q makes one _scan
    # call, and one _bareiss call after it unless the scan finds no free
    # column; under the kernel's prime its verdict is exact.
    if modulus is not None:
        monkeypatch.setattr(exactalg, "_MODULUS", modulus)
    calls = []
    monkeypatch.setattr(exactalg, "_bareiss",
                        lambda rows, ncols: calls.append("bareiss") or _bareiss(rows, ncols))
    monkeypatch.setattr(exactalg, "_scan",
                        lambda rows, ncols, p: calls.append("scan") or _scan(rows, ncols, p))
    rng = random.Random(6007)
    rows = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
    for r in rows:
        r[-1] = r[0] + r[1]
    dependent = M(RATIONALS, rows)
    halves = M(RATIONALS, [[Fraction(v, 2) for v in r[:-1]] for r in rows[:-1]])
    cases = [(dependent, 39, False), (halves, 39, True), (M(RATIONALS, [[1, 2], [3, 4]]), 2, True),
             (M(RATIONALS, [[0, 0], [0, 0]]), 0, False)]
    for m, rank, nonsingular in cases:
        calls.clear()
        assert mat_rank(m) == rank
        assert calls == ["bareiss"]
        calls.clear()
        inv = mat_inverse(m)
        assert calls == ["bareiss"]
        assert (inv is not None) is nonsingular
        if nonsingular:  # m m^-1 = I
            assert [[sum_entries(RATIONALS, r, c) for c in zip(*inv.entries)]
                    for r in m.entries] == DenseMatrix.identity(RATIONALS, m.rows).entries
        calls.clear()
        verdict = certified_nonsingular(m)
        assert verdict is nonsingular or modulus and verdict is None
        assert calls == (["scan"] if verdict else ["scan", "bareiss"])
    for field in (F3, prime_field(7)):
        for m in (M(field, rows), M(field, [[1, 2], [3, 4]])):
            calls.clear()
            assert mat_rank(m) == _reference_rank(m)
            inv = mat_inverse(m)
            assert (inv and inv.entries) == _reference_inverse(m)
            assert calls == ["scan", "scan"]


def test_scalar_arithmetic_laws_randomized():
    # Scalars are combined by Python's operators and reduced once by norm:
    # norm is canonical and idempotent, the field laws hold on reduced
    # results, and inv is the one division.
    rng = random.Random(7)
    for field in (RATIONALS, F3, F5):
        norm = field.norm
        vals = [norm(rng.randint(-9, 9)) for _ in range(60)]
        for i in range(0, 60, 3):
            a, b, c = vals[i], vals[i + 1], vals[i + 2]
            for x in (a, a + b, a * b - c, -a):
                y = norm(x)
                assert norm(y) == y
                if field.kind == "q":
                    assert y == x
                else:
                    assert type(y) is int and 0 <= y < field.p and (x - y) % field.p == 0
            assert norm(norm(a + b) + c) == norm(a + norm(b + c))
            assert norm(norm(a * b) * c) == norm(a * norm(b * c))
            assert norm(a + b) == norm(b + a)
            assert norm(a * b) == norm(b * a)
            assert norm(a * norm(b + c)) == norm(norm(a * b) + norm(a * c))
            if b:
                assert norm(norm(a * field.inv(b)) * b) == a

"""Exact scalar arithmetic (rationals and prime fields) and dense linear algebra.

Every computation in this package is exact: scalars are `fractions.Fraction`
values over the rationals, or canonical residues (ints in ``[0, p)``) over a
prime field.  Rank decisions therefore never depend on tolerances.  Ranks over
the rationals are computed fraction-free on Python ints (Bareiss elimination);
nullspaces, solves and inverses use reduced row echelon form, which is also
the rank-nullity second route for those ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Union

Scalar = Union[Fraction, int]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 12 prime bases, exact for
    n < 3.3e24; moduli of 2**64 and above are refused rather than guessed."""
    if n >= 1 << 64:
        raise ValueError(f"prime-field modulus {n} is not below 2**64")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: ``FieldSpec("q")`` or ``FieldSpec("fp", p)`` with p prime.

    Rational scalars are `Fraction` instances (always in lowest terms with a
    positive denominator); prime-field scalars are ints reduced into [0, p).
    """

    kind: str
    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind == "q":
            if self.p is not None:
                raise ValueError("the rational field takes no modulus")
        elif self.kind == "fp":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"prime-field modulus must be prime, got {self.p!r}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def parse(spec: str) -> "FieldSpec":
        """Parse a field string: ``"q"`` or ``"fp:<p>"``."""
        if spec == "q":
            return FieldSpec("q")
        if spec.startswith("fp:"):
            try:
                p = int(spec[3:])
            except ValueError:
                raise ValueError(f"bad prime-field spec {spec!r}") from None
            return FieldSpec("fp", p)
        raise ValueError(f"bad field spec {spec!r}; expected 'q' or 'fp:<p>'")

    def spec_string(self) -> str:
        return "q" if self.kind == "q" else f"fp:{self.p}"

    # scalar construction ------------------------------------------------

    def zero(self) -> Scalar:
        return Fraction(0) if self.kind == "q" else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.kind == "q" else 1

    def from_int(self, n: int) -> Scalar:
        return Fraction(n) if self.kind == "q" else n % self.p

    # scalar arithmetic --------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.kind == "q" else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.kind == "q" else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.kind == "q" else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.kind == "q" else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "q":
            return 1 / a
        return pow(a, self.p - 2, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    # serialization ------------------------------------------------------

    def parse_scalar(self, s: str) -> Scalar:
        """Parse "n" or "n/d".  Over a prime field the value is reduced mod p."""
        s = s.strip()
        try:
            if self.kind == "q":
                return Fraction(s)
            if "/" in s:
                num, den = s.split("/", 1)
                return self.div(int(num) % self.p, int(den) % self.p)
            return int(s) % self.p
        except ZeroDivisionError:
            raise ValueError(f"scalar {s!r} divides by zero in {self.spec_string()}") from None

    def format_scalar(self, a: Scalar) -> str:
        return str(a)


RATIONALS = FieldSpec("q")


def prime_field(p: int) -> FieldSpec:
    return FieldSpec("fp", p)


@dataclass
class DenseMatrix:
    """Row-major exact matrix over a FieldSpec.  Treated as immutable."""

    field: FieldSpec
    rows: int
    cols: int
    entries: List[List[Scalar]]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence[Scalar]]) -> "DenseMatrix":
        entries = [list(r) for r in rows]
        nc = len(entries[0]) if entries else 0
        return DenseMatrix(field, len(entries), nc, entries)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "DenseMatrix":
        one, zero = field.one(), field.zero()
        return DenseMatrix(field, n, n, [[one if i == j else zero for j in range(n)] for i in range(n)])


def _rref(field: FieldSpec, rows: List[List[Scalar]], ncols: int):
    """In-place reduced row echelon form; returns pivot column list.

    Pivot choice: columns scanned left to right, within a column the first
    nonzero entry from the current row down; deterministic output.
    """
    pivots: List[int] = []
    pr = 0
    nrows = len(rows)
    for c in range(ncols):
        pv = None
        for r in range(pr, nrows):
            if not field.is_zero(rows[r][c]):
                pv = r
                break
        if pv is None:
            continue
        if pv != pr:
            rows[pr], rows[pv] = rows[pv], rows[pr]
        piv = rows[pr][c]
        if piv != field.one():
            inv = field.inv(piv)
            rows[pr] = [field.mul(inv, v) for v in rows[pr]]
        prow = rows[pr]
        for r in range(nrows):
            if r == pr:
                continue
            f0 = rows[r][c]
            if field.is_zero(f0):
                continue
            rows[r] = [field.sub(v, field.mul(f0, w)) for v, w in zip(rows[r], prow)]
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return pivots


def _bareiss_rank(rows: List[List[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination (Bareiss 1968):
    each update divides exactly by the previous pivot, so entries stay ints
    (they are minors of the input).  Eliminated rows and columns are dropped."""
    rank, prev = 0, 1
    while rows and rows[0]:
        i = next((i for i, r in enumerate(rows) if r[0]), None)
        if i is None:
            rows = [r[1:] for r in rows]
            continue
        pv = rows.pop(i)
        p, tail = pv[0], pv[1:]
        rows = [[(p * v - r[0] * w) // prev for v, w in zip(r[1:], tail)] for r in rows]
        prev = p
        rank += 1
    return rank


def clear_denominators(values: Sequence[Scalar]) -> List[int]:
    """Rationals times the lcm of their denominators: ints in the same ratios."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values]


def mat_rank(m: DenseMatrix) -> int:
    if m.field.kind == "q":  # scaling a row keeps the rank
        return _bareiss_rank([clear_denominators(row) for row in m.entries])
    rows = [list(r) for r in m.entries]
    return len(_rref(m.field, rows, m.cols))


def mat_nullspace(m: DenseMatrix) -> List[List[Scalar]]:
    """Basis of the right nullspace {v : m v = 0}; empty iff full column rank."""
    f = m.field
    rows = [list(r) for r in m.entries]
    pivots = _rref(f, rows, m.cols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(rows[r][fc])
        basis.append(v)
    return basis


def solve_linear(a: DenseMatrix, b: Sequence[Scalar]) -> Optional[List[Scalar]]:
    """Some x with a x = b, or None when b is outside the column space."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    f = a.field
    rows = [list(r) + [bv] for r, bv in zip(a.entries, b)]
    if a.rows == 0:
        return [f.zero()] * a.cols
    pivots = _rref(f, rows, a.cols + 1)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [f.zero()] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][a.cols]
    return x


def mat_inverse(m: DenseMatrix) -> Optional[DenseMatrix]:
    """Inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        return None
    f = m.field
    n = m.rows
    one, zero = f.one(), f.zero()
    rows = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(m.entries)]
    pivots = _rref(f, rows, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return DenseMatrix(f, n, n, [r[n:] for r in rows])

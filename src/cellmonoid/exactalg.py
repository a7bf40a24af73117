"""Exact scalar arithmetic (rationals and prime fields) and dense linear algebra.

Every computation in this package is exact: scalars are plain Python numbers,
ints or `fractions.Fraction` values over the rationals and canonical residues
(ints in ``[0, p)``) over a prime field.  Arithmetic uses Python's operators,
and FieldSpec.norm reduces a result to its stored form once, where it is
stored.  Rank decisions therefore never depend on tolerances.  Parsed and
inverted rationals are ints when integral, so integral data stay on ints.

Over a prime field, ranks, nonsingularity and inverses share one kernel,
_scan: a left-looking elimination on Python ints mod the field's prime p,
which reduces each column when it reaches it and yields the columns without a
pivot, each with its coefficients on the pivot columns before it.  A caller
that needs only the first such column stops there.  Over the rationals (where
ints are accepted as scalars) each row is scaled to ints by
clear_denominators, and ranks and inverses come from the one exact
elimination, _bareiss: a fraction-free row echelon form on those int rows,
whose pivots give the rank and whose back substitution gives the inverse.
The nonsingularity certificate alone eliminates them mod _MODULUS, since it
stops at the first dependent column, and takes no answer from the prime
alone: a full rank mod p is a full rank, and a first free column c is free
over the rationals when _bareiss on columns 0 to c finds no pivot in column
c, the columns before it having pivots mod p and so over the rationals.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from fractions import Fraction
Scalar = Union["Fraction", int]


def _fraction(*args) -> Fraction:
    from fractions import Fraction  # loaded only where a Fraction is made
    return Fraction(*args)


def _rational(num: int, den: int) -> Scalar:
    """num/den for den > 0: an int when den divides num, a Fraction otherwise."""
    return num // den if num % den == 0 else _fraction(num, den)


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


class FieldSpec:
    """Coefficient field: ``FieldSpec("q")`` or ``FieldSpec("fp", p)`` with p prime.

    Rational scalars are ints or `Fraction` instances; prime-field scalars
    are ints reduced into [0, p).  Both fields use the constants 0 and 1 and
    Python's + - * on scalars; norm reduces a computed value to its stored
    form, and inv (a `Fraction` over the rationals) is the one division.
    Fields of equal kind and modulus compare equal and hash alike.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: Optional[int] = None) -> None:
        if kind == "q":
            if p is not None:
                raise ValueError("the rational field takes no modulus")
        elif kind == "fp":
            if p is None or not _is_prime(p):
                raise ValueError(f"prime-field modulus must be prime, got {p!r}")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return f"FieldSpec(kind={self.kind!r}, p={self.p!r})"

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

    def norm(self, a: Scalar) -> Scalar:
        """The stored form of a scalar: a mod p over a prime field, a itself
        over the rationals."""
        return a if self.p is None else a % self.p

    def inv(self, a: Scalar) -> Scalar:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "q":
            return _fraction(1) / a
        return pow(a, self.p - 2, self.p)

    def parse_scalar(self, s: str) -> Scalar:
        """Parse "n" or "n/d": an int literal by int, any other Fraction literal
        over the rationals by Fraction, reduced mod p over a prime field.  A string
        that is not one, or divides by zero, raises a ValueError naming it and the field."""
        s = s.strip()
        try:
            try:
                return self.norm(int(s))
            except ValueError:
                if self.kind == "q":
                    return _rational(*_fraction(s).as_integer_ratio())
            num, den = s.split("/", 1)  # a ValueError without one "/"
            return int(num) * self.inv(int(den) % self.p) % self.p
        except ZeroDivisionError:
            raise ValueError(f"scalar {s!r} divides by zero in {self.spec_string()}") from None
        except ValueError:
            raise ValueError(f"scalar {s!r} is not n or n/d in {self.spec_string()}") from None


RATIONALS = FieldSpec("q")

# The prime of the rational nonsingularity certificate, the Mersenne prime
# 2**61 - 1.  Residues stay small enough for fast Python ints; a full rank
# mod this prime is a full rank, and a free column mod it is checked over the
# integers by _bareiss before the certificate calls the matrix singular.
_MODULUS = (1 << 61) - 1


def prime_field(p: int) -> FieldSpec:
    return FieldSpec("fp", p)


class DenseMatrix:
    """Row-major exact matrix over a FieldSpec.  Treated as immutable."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries: List[List[Scalar]]) -> None:
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence[Scalar]]) -> "DenseMatrix":
        entries = [list(r) for r in rows]
        nc = len(entries[0]) if entries else 0
        return DenseMatrix(field, len(entries), nc, entries)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "DenseMatrix":
        return DenseMatrix(field, n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def _bareiss(rows: Sequence[Sequence[int]], ncols: int) -> Tuple[List[int], List[List[int]]]:
    """(pivots, echelon): int rows (ncols of them) in row echelon form by
    fraction-free elimination (Bareiss 1968).  The pivot is the first row
    without one that is nonzero in the column.  Each update divides exactly by
    the previous pivot and touches only the columns right of it, so entries
    stay ints (minors of the input); a column without a pivot keeps the
    divisor.  The last pivot of a nonsingular square is +-its determinant."""
    rest = [list(r) for r in rows]  # the rows without a pivot, from column c on
    echelon, pivots, prev = [], [], 1
    for c in range(ncols):
        i = next((i for i, r in enumerate(rest) if r[0]), None)
        if i is None:
            rest = [r[1:] for r in rest]
            continue
        row = rest.pop(i)
        p, tail = row[0], row[1:]
        rest = [[(p * v - r[0] * w) // prev for v, w in zip(r[1:], tail)] for r in rest]
        echelon.append([0] * c + row)
        pivots.append(c)
        prev = p
        if not rest:
            break
    return pivots, echelon + [[0] * ncols for _ in rest]


def clear_denominators(values: Sequence[Scalar]) -> List[int]:
    """Rationals times the lcm of their denominators: ints in the same ratios."""
    if all(type(v) is int for v in values):
        return list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values]


def _int_rows(m: DenseMatrix) -> Tuple[List[List[int]], int]:
    """(int rows, p): m's rows as ints, over the rationals each scaled by
    clear_denominators, and the prime to eliminate them mod."""
    if m.field.kind == "q":
        return [clear_denominators(r) for r in m.entries], _MODULUS
    return m.entries, m.field.p


def _scan(rows: List[List[int]], ncols: int, p: int) -> Iterator[Tuple[int, List[int], List[int]]]:
    """The columns of int rows (ncols of them) without a pivot mod p, left to
    right, each as (c, pivots, x): x holds column c's coefficients on the
    pivot columns before it, so column c = sum of x[k] times column pivots[k]
    mod p.  Each column is reduced when the scan reaches it (left-looking), by
    dot products with the multipliers earlier pivots left on each row; its
    pivot is the first nonzero entry from the next pivot row down.  No column
    after the one a caller stops at is read.  Column c has a pivot exactly
    when it is not a combination of the columns before it, so neither the
    pivots nor x depend on the elimination order."""
    order = list(range(len(rows)))  # the row at each position, swapped as pivots are taken
    mults = [[] for _ in rows]  # per row: its multiplier at each pivot before it
    pivots, invs, uppers = [], [], []  # per pivot: its column, its inverse, its entries above it
    for c, col in enumerate(zip(*rows) if rows else [()] * ncols):
        r = len(pivots)
        # u: column c at the pivot rows, each reduced by those above it; 0 above
        # the first pivot row where col is not 0
        z = next((k for k, i in enumerate(order[:r]) if col[i]), r)
        u = [0] * z
        for k in range(z, r):
            i = order[k]
            u.append((col[i] - sum(map(mul, mults[i], u))) * invs[k] % p)
        rest = [(col[i] - sum(map(mul, mults[i], u))) % p for i in order[r:]]
        pv = next((k for k, v in enumerate(rest) if v), None)
        if pv is None:
            for k in range(r - 1, 0, -1):  # back substitution, reduced mod p at the end
                x = u[k] % p
                if x:
                    u[:k] = [v - w * x for v, w in zip(u, uppers[k])]
            yield c, pivots[:], [v % p for v in u]
            continue
        order[r], order[r + pv] = order[r + pv], order[r]
        rest[0], rest[pv] = rest[pv], rest[0]
        pivots.append(c)
        invs.append(pow(rest[0], -1, p))
        uppers.append(u)
        for i, v in zip(order[r + 1:], rest[1:]):
            mults[i].append(v)


def mat_rank(m: DenseMatrix) -> int:
    """Exact rank.  Over a prime field: the number of columns less the free
    ones _scan yields.  Over the rationals: the number of pivots of _bareiss
    on the int rows."""
    rows, p = _int_rows(m)
    if m.field.kind == "q":
        return len(_bareiss(rows, m.cols)[0])
    free = 0
    for _, pivots, _ in _scan(rows, m.cols, p):
        if len(pivots) == m.rows:  # a pivot in every row: every later column is free
            return m.rows
        free += 1
    return m.cols - free


def certified_nonsingular(m: DenseMatrix) -> Optional[bool]:
    """Whether m is square and nonsingular: whether _scan finds no free
    column.  It stops at the first one; over a prime field it reads no later
    column.  Over the rationals a full rank mod _MODULUS proves m nonsingular.  A first free
    column c proves it singular when _bareiss on the distinct int rows cut to
    columns 0 to c finds no pivot in column c; when it finds one, p divides a
    minor of those columns, and the answer is None, for the caller's exact
    fallback."""
    if m.cols != m.rows:
        return False
    rows, p = _int_rows(m)
    free = next(_scan(rows, m.cols, p), None)
    if free is None:
        return True
    if m.field.kind == "fp":
        return False
    c = free[0]
    prefix = list(dict.fromkeys(tuple(r[:c + 1]) for r in rows))  # a repeat adds no rank
    return False if len(_bareiss(prefix, c + 1)[0]) == c else None


def mat_inverse(m: DenseMatrix) -> Optional[DenseMatrix]:
    """Inverse of a square matrix, or None when singular.

    Both routes run over [m | I] as one matrix.  Over a prime field _scan
    finds m nonsingular exactly when the first free column is column n; then
    columns n to 2n - 1 are all free, and their coefficients on m's columns
    are the columns of m^-1.  Over the rationals the rows are scaled to ints
    [A | S] = S [m | I] (S diagonal) and go to _bareiss: m is singular unless
    columns 0 to n - 1 are its first pivots, and otherwise back substitution
    through the echelon form, with every division exact, gives d m^-1 for
    d = +-det A, its last pivot.  Integral entries are ints."""
    if m.rows != m.cols:
        return None
    f, n = m.field, m.rows
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(m.entries)]
    rows, p = _int_rows(DenseMatrix(f, n, 2 * n, aug))
    if f.kind == "fp":
        columns = []  # of m^-1
        for c, _, x in _scan(rows, 2 * n, p):
            if c < n:
                return None
            columns.append(x)
        return DenseMatrix(f, n, n, [list(r) for r in zip(*columns)])
    pivots, echelon = _bareiss(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    d, x = echelon[n - 1][n - 1] if n else 1, [None] * n
    for k in range(n - 1, -1, -1):
        u = echelon[k]
        acc = [d * v for v in u[n:]]
        for i in range(k + 1, n):
            if u[i]:
                acc = [a - u[i] * w for a, w in zip(acc, x[i])]
        x[k] = [a // u[k] for a in acc]
    sign = -1 if d < 0 else 1
    return DenseMatrix(f, n, n, [[_rational(sign * v, sign * d) for v in r] for r in x])

"""Finite monoids as Cayley tables: built-in families, generator closure, file I/O.

Composition convention, fixed globally: maps act on the right of points, so the
product ``x*y`` means "apply x, then y".  For transformation families this makes
L-equivalence correspond to equal image and R-equivalence to equal
kernel/domain partition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

DEFAULT_SIZE_CAP = 5000


class CellmonoidError(Exception):
    """Base of the package's own errors: bad input or a failed construction."""


class MonoidError(CellmonoidError):
    pass


class NotAssociative(MonoidError):
    def __init__(self, x: int, y: int, z: int):
        super().__init__(f"(x*y)*z != x*(y*z) for (x, y, z) = ({x}, {y}, {z})")
        self.witness = (x, y, z)


class BadIdentity(MonoidError):
    def __init__(self, x: int):
        super().__init__(f"identity law fails at element {x}")
        self.witness = x


class SizeCapExceeded(MonoidError):
    pass


@dataclass
class FiniteMonoid:
    """Identity-bearing Cayley table with element labels.  Treated as immutable."""

    size: int
    identity: int
    table: List[List[int]]
    labels: List[str]

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def __repr__(self) -> str:
        return f"FiniteMonoid(size={self.size}, identity={self.identity})"


@dataclass
class LoopTable:
    """loops[x][y] = closed loops removed when stacking diagram x on diagram y."""

    loops: List[List[int]]


def from_cayley_table(size: int, identity: int, table: Sequence[Sequence[int]],
                      labels: Optional[Sequence[str]] = None) -> FiniteMonoid:
    """Validated construction from a raw table.

    Identity laws and associativity are checked exhaustively; generator-closure
    and family constructors skip this because composition of maps/diagrams is
    associative by construction.
    """
    if not isinstance(size, int) or not isinstance(identity, int):
        raise ValueError("size and identity must be integers")
    if size < 1:
        raise ValueError("size must be at least 1")
    if not (0 <= identity < size):
        raise ValueError("identity index out of range")
    rows_ok = isinstance(table, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in table)
    if not rows_ok:
        raise ValueError("table must be a list of rows")
    if len(table) != size or any(len(row) != size for row in table):
        raise ValueError("table shape does not match size")
    tab = [list(row) for row in table]
    for row in tab:
        for v in row:
            if not isinstance(v, int) or not (0 <= v < size):
                raise ValueError(f"table entry {v!r} out of range")
    for x in range(size):
        if tab[identity][x] != x or tab[x][identity] != x:
            raise BadIdentity(x)
    for x in range(size):
        tx = tab[x]
        for y in range(size):
            txy = tab[tx[y]]
            ty = tab[y]
            for z in range(size):
                if txy[z] != tx[ty[z]]:
                    raise NotAssociative(x, y, z)
    if labels is None:
        labels = [str(i) for i in range(size)]
    elif not isinstance(labels, (list, tuple)):
        raise ValueError("labels must be a list")
    else:
        labels = [str(s) for s in labels]
        if len(labels) != size:
            raise ValueError("label count does not match size")
    return FiniteMonoid(size, identity, tab, labels)


# ---------------------------------------------------------------------------
# (Partial) self-maps of {1..r}.  Internal representation: tuples of length r
# over 0-based points, with None for "undefined"; composition through an
# undefined point stays undefined.
# ---------------------------------------------------------------------------

PMap = Tuple[Optional[int], ...]


def _compose_maps(x: PMap, y: PMap) -> PMap:
    # apply x, then y
    return tuple(None if xi is None else y[xi] for xi in x)


def _map_label(m: PMap) -> str:
    return "[" + ",".join("-" if v is None else str(v + 1) for v in m) + "]"


def _monoid_from_maps(r: int, elems: List[PMap]) -> FiniteMonoid:
    index = {m: i for i, m in enumerate(elems)}
    table = [[index[_compose_maps(x, y)] for y in elems] for x in elems]
    labels = [_map_label(m) for m in elems]
    return FiniteMonoid(len(elems), index[tuple(range(r))], table, labels)


def generate_from_maps(r: int, generators: Sequence[Sequence[Optional[int]]]) -> FiniteMonoid:
    """Closure of {identity} plus the given (partial) self-maps of {1..r}.

    Generators use 1-based point values, with None marking undefined points.
    Element order is deterministic: identity first, then closure insertion order.
    """
    if r < 1:
        raise ValueError("point count must be at least 1")
    gens: List[PMap] = []
    for g in generators:
        if len(g) != r:
            raise ValueError(f"generator {g!r} is not a map on {r} points")
        conv = []
        for v in g:
            if v is None:
                conv.append(None)
            elif 1 <= v <= r:
                conv.append(v - 1)
            else:
                raise ValueError(f"generator value {v!r} outside 1..{r}")
        gens.append(tuple(conv))

    ident: PMap = tuple(range(r))
    elems: List[PMap] = [ident]
    seen = {ident}
    for g in gens:
        if g not in seen:
            elems.append(g)
            seen.add(g)
    changed = True
    while changed:
        changed = False
        snapshot = list(elems)
        for x in snapshot:
            for y in snapshot:
                z = _compose_maps(x, y)
                if z not in seen:
                    elems.append(z)
                    seen.add(z)
                    changed = True
    return _monoid_from_maps(r, elems)


# ---------------------------------------------------------------------------
# Built-in families.
# ---------------------------------------------------------------------------

def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _family_size(kind: str, n: int) -> int:
    if kind == "tfull":
        return n ** n
    if kind == "tpartial":
        return (n + 1) ** n
    if kind == "syminv":
        return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
    if kind == "jones":
        return _catalan(n)
    raise ValueError(f"unknown family {kind!r}")


def _enumerate_pmaps(n: int, total_only: bool, injective_only: bool) -> List[PMap]:
    # lexicographic over per-point options, defined values before None
    options: List[Optional[int]] = list(range(n))
    if not total_only:
        options.append(None)
    out: List[PMap] = []

    def rec(prefix: List[Optional[int]]):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in options:
            if injective_only and v is not None and v in prefix:
                continue
            prefix.append(v)
            rec(prefix)
            prefix.pop()

    rec([])
    return out


def _identity_first(elems: List[PMap], ident: PMap) -> List[PMap]:
    return [ident] + [m for m in elems if m != ident]


# Temperley-Lieb style diagrams on 2n points: a planar perfect matching of the
# points 1..n (top) and 1'..n' (bottom).  Canonical form: sorted pairs over
# point ids 0..n-1 (top) and n..2n-1 (bottom).

Diagram = Tuple[Tuple[int, int], ...]


def _canon_pairs(pairs) -> Diagram:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


def _noncrossing_matchings(points: Sequence[int]) -> List[List[Tuple[int, int]]]:
    if not points:
        return [[]]
    out = []
    p0 = points[0]
    for k in range(1, len(points), 2):
        inner = points[1:k]
        outer = points[k + 1:]
        for mi in _noncrossing_matchings(inner):
            for mo in _noncrossing_matchings(outer):
                out.append([(p0, points[k])] + mi + mo)
    return out


def _planar_diagrams(n: int) -> List[Diagram]:
    # boundary order around the rectangle: top left-to-right, bottom right-to-left
    boundary = list(range(n)) + list(range(2 * n - 1, n - 1, -1))
    return [_canon_pairs(m) for m in _noncrossing_matchings(boundary)]


def _compose_diagrams(n: int, x: Diagram, y: Diagram) -> Tuple[Diagram, int]:
    """Stack x on top of y; returns (result, closed loops removed)."""
    total = 3 * n  # 0..n-1 top, n..2n-1 middle, 2n..3n-1 bottom
    parent = list(range(total))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for p, q in x:
        union(p, q)
    for p, q in y:
        union(p + n, q + n)
    comps: Dict[int, List[int]] = {}
    for v in range(total):
        comps.setdefault(find(v), []).append(v)
    pairs = []
    loops = 0
    for members in comps.values():
        ends = [v for v in members if v < n or v >= 2 * n]
        if not ends:
            loops += 1
        elif len(ends) == 2:
            a, b = ends
            pairs.append((a if a < n else a - n, b if b < n else b - n))
        else:
            raise AssertionError("diagram composition produced a malformed path")
    return _canon_pairs(pairs), loops


def _diagram_label(n: int, d: Diagram) -> str:
    def fmt(v: int) -> str:
        return str(v + 1) if v < n else f"{v - n + 1}'"

    return "".join(f"({fmt(a)} {fmt(b)})" for a, b in d)


def _jones_family(n: int) -> Tuple[FiniteMonoid, LoopTable]:
    diagrams = _planar_diagrams(n)
    ident = _canon_pairs((i, n + i) for i in range(n))
    diagrams = [ident] + [d for d in diagrams if d != ident]
    index = {d: i for i, d in enumerate(diagrams)}
    size = len(diagrams)
    table = [[0] * size for _ in range(size)]
    loops = [[0] * size for _ in range(size)]
    for i, x in enumerate(diagrams):
        for j, y in enumerate(diagrams):
            z, nl = _compose_diagrams(n, x, y)
            table[i][j] = index[z]  # planar diagrams are closed under stacking
            loops[i][j] = nl
    labels = [_diagram_label(n, d) for d in diagrams]
    return FiniteMonoid(size, 0, table, labels), LoopTable(loops)


def family(kind: str, n: int, cap: int = DEFAULT_SIZE_CAP) -> Tuple[FiniteMonoid, Optional[LoopTable]]:
    """Built-in monoid families.

    kind: "tfull" (all total maps on n points), "tpartial" (all partial maps),
    "syminv" (all partial injections), "jones" (planar diagrams under stacking;
    also returns the table of loops removed per composition).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    size = _family_size(kind, n)
    if size > cap:
        raise SizeCapExceeded(f"family {kind}({n}) has {size} elements, over the cap {cap}")
    if kind == "jones":
        return _jones_family(n)
    ident: PMap = tuple(range(n))
    if kind == "tfull":
        elems = _enumerate_pmaps(n, total_only=True, injective_only=False)
    elif kind == "tpartial":
        elems = _enumerate_pmaps(n, total_only=False, injective_only=False)
    else:
        elems = _enumerate_pmaps(n, total_only=False, injective_only=True)
    return _monoid_from_maps(n, _identity_first(elems, ident)), None


# ---------------------------------------------------------------------------
# Structural predicates.
# ---------------------------------------------------------------------------

def idempotents(M: FiniteMonoid) -> List[int]:
    return [x for x in range(M.size) if M.table[x][x] == x]


def is_regular(M: FiniteMonoid) -> bool:
    T = M.table
    for x in range(M.size):
        if not any(T[T[x][y]][x] == x for y in range(M.size)):
            return False
    return True


def is_inverse(M: FiniteMonoid) -> bool:
    """True when every element has exactly one y with xyx = x and yxy = y."""
    T = M.table
    for x in range(M.size):
        count = 0
        for y in range(M.size):
            if T[T[x][y]][x] == x and T[T[y][x]][y] == y:
                count += 1
                if count > 1:
                    return False
        if count != 1:
            return False
    return True


def generating_set(M: FiniteMonoid) -> List[int]:
    """Deterministic greedy generating set, scanned from the top of the J-order.

    Candidates are taken in decreasing order of (|xM|, |Mx|), ties broken by
    index, and each one not yet generated is added.  This order is a linear
    extension of the J-order: if x = ayb lies strictly J-below y then
    |xM| <= |yM| and |Mx| <= |My|, with equality in both only when x D y.  So
    the group of units comes first and no element is added before the higher
    elements it may be a product of.  The set is not promised to be minimal
    (jones7 gets 11 generators, though 6 would do).
    """
    T = M.table
    right = [len(set(row)) for row in T]
    left = [len({row[x] for row in T}) for x in range(M.size)]

    def close(base: set) -> set:
        out = set(base)
        frontier = list(out)
        while frontier:
            nxt = []
            for x in list(out):
                for y in frontier:
                    for z in (T[x][y], T[y][x]):
                        if z not in out:
                            out.add(z)
                            nxt.append(z)
            frontier = nxt
        return out

    gens: List[int] = []
    reach = close({M.identity})
    for x in sorted(range(M.size), key=lambda x: (-right[x], -left[x], x)):
        if x not in reach:
            gens.append(x)
            reach = close(reach | {x})
    return gens


# ---------------------------------------------------------------------------
# File I/O.  Files are written in a canonical form so that round trips are
# byte identical.
# ---------------------------------------------------------------------------

def _dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load_json_object(path, *keys: str) -> Dict:
    """The JSON object in a file; ValueError unless it has every given key."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
    return data


def save_cayley_json(M: FiniteMonoid, path) -> None:
    _dump_json({"size": M.size, "identity": M.identity, "table": M.table, "labels": M.labels}, path)


def load_cayley_json(path) -> FiniteMonoid:
    data = _load_json_object(path, "size", "identity", "table")
    return from_cayley_table(data["size"], data["identity"], data["table"], data.get("labels"))


def save_loop_table(L: LoopTable, path) -> None:
    _dump_json({"loops": L.loops}, path)


def load_loop_table(path) -> LoopTable:
    loops = _load_json_object(path, "loops")["loops"]
    if not isinstance(loops, list) or any(not isinstance(row, list) for row in loops):
        raise ValueError("loop table must be a list of rows")
    if any(not isinstance(v, int) or v < 0 for row in loops for v in row):
        raise ValueError("loop counts must be non-negative integers")
    if any(len(row) != len(loops) for row in loops):
        raise ValueError("loop table must be square")
    return LoopTable(loops)

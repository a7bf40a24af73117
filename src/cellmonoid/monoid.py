"""Finite monoids as Cayley tables with a generating set: built-in families,
generator closure, file I/O.

Composition convention, fixed globally: maps act on the right of points, so the
product ``x*y`` means "apply x, then y".  For transformation families this makes
L-equivalence correspond to equal image and R-equivalence to equal
kernel/domain partition.

Tables are never built by composing every pair of elements.  Each constructor
fixes its element order (identity first), composes each generator with each
element once, and fills the table row by row along the left Cayley graph:
row g*x is the row of g read at the entries of row x, one C-level gather per
row (see _left_walk).  Jones loop tables follow the same walk through the loop
cocycle rule.  Every table row is a tuple.  Every monoid keeps its generators'
indices, whose Cayley graphs give Green's relations.
"""

from __future__ import annotations

import itertools
import json
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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


def _is_int(v) -> bool:
    """An integer from input, refusing booleans (JSON true/false load as bool,
    a subclass of int)."""
    return isinstance(v, int) and not isinstance(v, bool)


class FiniteMonoid(NamedTuple):
    """Identity-bearing Cayley table with element labels.  Treated as immutable:
    each row is a tuple, so no row can be edited under a datum built on it.

    gens generate the monoid, without the identity or repeats: the family's
    maps (_MAP_GENERATORS) or e_1 ... e_{n-1}, generate_from_maps' maps, or
    from_cayley_table's generating_set."""

    size: int
    identity: int
    table: List[Tuple[int, ...]]
    labels: List[str]
    gens: List[int]

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def __repr__(self) -> str:
        return f"FiniteMonoid(size={self.size}, identity={self.identity})"


class LoopTable(NamedTuple):
    """loops[x][y] = closed loops removed when stacking diagram x on diagram y."""

    loops: List[List[int]]


def from_cayley_table(size: int, identity: int, table: Sequence[Sequence[int]],
                      labels: Optional[Sequence[str]] = None) -> FiniteMonoid:
    """Validated construction from a raw table.

    The identity laws are checked exhaustively, and associativity by Light's
    test: the g with (x*g)*y = x*(g*y) for all x, y are closed under products,
    so checking g over a generating set costs |gens| * n**2, not n**3.
    Generator-closure and family constructors skip this because composition of
    maps/diagrams is associative by construction.
    """
    if not _is_int(size) or not _is_int(identity):
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
    tab = [tuple(row) for row in table]
    for row in tab:
        for v in row:
            if not _is_int(v) or not (0 <= v < size):
                raise ValueError(f"table entry {v!r} out of range")
    for x in range(size):
        if tab[identity][x] != x or tab[x][identity] != x:
            raise BadIdentity(x)
    if labels is None:
        labels = [str(i) for i in range(size)]
    elif not isinstance(labels, (list, tuple)):
        raise ValueError("labels must be a list")
    else:
        labels = [str(s) for s in labels]
        if len(labels) != size:
            raise ValueError("label count does not match size")
    gens = generating_set(FiniteMonoid(size, identity, tab, labels, []))
    for g in gens:
        tg, get = tab[g], itemgetter(*tab[g])  # size >= 2, as g is not the identity
        for x in range(size):
            tx, txg = tab[x], tab[tab[x][g]]
            if get(tx) != txg:
                raise NotAssociative(x, g, next(y for y in range(size) if txg[y] != tx[tg[y]]))
    return FiniteMonoid(size, identity, tab, labels, gens)


# ---------------------------------------------------------------------------
# (Partial) self-maps of {1..r}.  Internal representation: tuples of length r
# over 0-based points, with None for "undefined"; composition through an
# undefined point stays undefined.
# ---------------------------------------------------------------------------

PMap = Tuple[Optional[int], ...]


def _compose_maps(x: PMap, y: PMap) -> PMap:
    # apply x, then y
    return tuple(None if xi is None else y[xi] for xi in x)


def _left_walk(size: int, gen_rows: Sequence[Sequence[int]],
               gen_loops: Optional[Sequence[Sequence[int]]] = None
               ) -> Tuple[List[Tuple[int, ...]], Optional[List[List[int]]]]:
    """Cayley table from the left Cayley graph of a generating set.

    The identity has index 0, and Lg = gen_rows[k] holds Lg[v] = index of
    g_k * v.  Breadth first from the identity, an element x = g * x' first
    reached from x' gets row x = (Lg[v] for v in row x'), because
    (g x') y = g (x' y): one gather of Lg, through a getter built once per
    row x' and only when that row reaches a new element: then size >= 2, so
    the getter has two indices or more and returns a tuple.  With
    gen_loops[k][v], the loops removed stacking g_k on v, loop rows follow
    from the cocycle rule L(g x', y) = L(x', y) + L(g, x' y) - L(g, x').
    Every row is written at its element's index; MonoidError when the
    generators miss an element.
    """
    table: List[Optional[Tuple[int, ...]]] = [None] * size
    loops: Optional[List[Optional[List[int]]]] = None if gen_loops is None else [None] * size
    table[0] = tuple(range(size))
    if loops is not None:
        loops[0] = [0] * size
    reached = [0]
    for x in reached:
        row, get = table[x], None
        for k, Lg in enumerate(gen_rows):
            z = Lg[x]
            if table[z] is None:
                get = get or itemgetter(*row)
                table[z] = get(Lg)
                if loops is not None:
                    lg = gen_loops[k]
                    c = lg[x]
                    loops[z] = [a + lg[v] - c for a, v in zip(loops[x], row)]
                reached.append(z)
    if len(reached) != size:
        raise MonoidError(f"generators reach {len(reached)} of {size} elements")
    return table, loops


def _monoid_from_maps(elems: List[PMap], gens: Sequence[PMap]) -> FiniteMonoid:
    """The monoid on elems, in this order and identity first, from generators
    that produce all of it; it records them without the identity or repeats.
    Maps are padded with None at point r, and padded g*m is padded m gathered
    at g's images (r where g is undefined) and at r: one getter per
    generator, never on one index, and one gather per map."""
    r = len(elems[0])
    padded = [m + (None,) for m in elems]
    index = {m: i for i, m in enumerate(padded)}
    gen_rows = [tuple(map(index.__getitem__, map(
        itemgetter(*[r if v is None else v for v in g], r), padded))) for g in gens]
    table, _ = _left_walk(len(elems), gen_rows)
    gen_ids = [i for i in dict.fromkeys(index[g + (None,)] for g in gens) if i]
    names = {v: str(v + 1) for v in range(r)} | {None: "-"}
    labels = ["[" + ",".join(map(names.__getitem__, m)) + "]" for m in elems]
    return FiniteMonoid(len(elems), 0, table, labels, gen_ids)


def generate_from_maps(r: int, generators: Sequence[Sequence[Optional[int]]]) -> FiniteMonoid:
    """Closure of {identity} plus the given (partial) self-maps of {1..r}.

    Generators use 1-based point values, with None marking undefined points.
    Element order is breadth first under right multiplication by the
    generators: the identity, then the generators as given (repeats and the
    identity skipped), then their products in the order first reached.  The
    table is built from the left Cayley graph of the same generators.
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

    elems: List[PMap] = [tuple(range(r))]
    seen = set(elems)
    for x in elems:
        for g in gens:
            z = _compose_maps(x, g)
            if z not in seen:
                seen.add(z)
                elems.append(z)
    return _monoid_from_maps(elems, gens)


# ---------------------------------------------------------------------------
# Built-in families.
# ---------------------------------------------------------------------------

def _family_size(kind: str, n: int, cap: int) -> int:
    """The size of kind(n) when it is at most cap, else some number above cap.

    Sizes are built up term by term and the count stops once it passes the
    cap, so a huge n costs a few steps (n ** n alone would not).
    """
    if kind in ("tfull", "tpartial"):  # n ** n and (n + 1) ** n
        base, size = (n if kind == "tfull" else n + 1), 1
        for _ in range(n):
            size *= base
            if size > cap:
                break
        return size
    if kind == "syminv":  # sum over ranks k of C(n, k)^2 k!
        size, term = 0, 1
        for k in range(n + 1):
            size += term
            if size > cap:
                break
            term = term * (n - k) ** 2 // (k + 1)
        return size
    if kind == "jones":  # the Catalan number C(2n, n) / (n + 1)
        size = 1
        for k in range(n):
            size = size * 2 * (2 * k + 1) // (k + 2)
            if size > cap:
                break
        return size
    raise ValueError(f"unknown family {kind!r}")


# The maps (1 2) and (1 2 ... n) generate the symmetric group.  With a rank
# n-1 idempotent they generate all total maps, with a partial identity of rank
# n-1 all partial injections, and with both all partial maps.
_MAP_GENERATORS = {"tfull": ("swap", "cycle", "collapse"),
                   "syminv": ("swap", "cycle", "restrict"),
                   "tpartial": ("swap", "cycle", "collapse", "restrict")}


def _map_generators(kind: str, n: int) -> List[PMap]:
    """The family's generators as maps, without the identity or repeats."""
    ident: PMap = tuple(range(n))
    maps = {"swap": ident[1::-1] + ident[2:],
            "cycle": ident[1:] + ident[:1],
            "collapse": tuple(0 if p == 1 else p for p in ident),
            "restrict": (None,) + ident[1:]}
    gens = [maps[name] for name in _MAP_GENERATORS[kind]]
    return [g for g in dict.fromkeys(gens) if g != ident]


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
    # e_i joins top points i, i+1 and bottom points i, i+1; e_1 ... e_{n-1}
    # generate the planar diagrams
    gen_rows, gen_loops, gens = [], [], []
    for i in range(n - 1):
        e = _canon_pairs([(i, i + 1), (n + i, n + i + 1)]
                         + [(j, n + j) for j in range(n) if j not in (i, i + 1)])
        gens.append(index[e])
        products = [_compose_diagrams(n, e, d) for d in diagrams]
        gen_rows.append([index[z] for z, _ in products])
        gen_loops.append([nl for _, nl in products])
    table, loops = _left_walk(len(diagrams), gen_rows, gen_loops)
    labels = [_diagram_label(n, d) for d in diagrams]
    return FiniteMonoid(len(diagrams), 0, table, labels, gens), LoopTable(loops)


def family(kind: str, n: int, cap: int = DEFAULT_SIZE_CAP) -> Tuple[FiniteMonoid, Optional[LoopTable]]:
    """Built-in monoid families.

    kind: "tfull" (all total maps on n points), "tpartial" (all partial maps),
    "syminv" (all partial injections), "jones" (planar diagrams under stacking;
    also returns the table of loops removed per composition).

    Element order: the identity first.  Maps then follow in lexicographic
    order of their images, an undefined point after every point; diagrams in
    the order of _planar_diagrams.  The table is built row by row from the
    left Cayley graph of a few fixed generators (_MAP_GENERATORS, or e_1 ...
    e_{n-1} for jones), one composition per generator and element.
    SizeCapExceeded, without computing the exact size, when the family has
    more than cap elements.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if _family_size(kind, n, cap) > cap:
        raise SizeCapExceeded(f"family {kind}({n}) has more elements than the cap {cap}")
    if kind == "jones":
        return _jones_family(n)
    values: List[Optional[int]] = list(range(n)) + ([] if kind == "tfull" else [None])
    elems: List[PMap] = list(itertools.product(values, repeat=n))
    if kind == "syminv":
        elems = [m for m in elems if len({v for v in m if v is not None}) == n - m.count(None)]
    ident: PMap = tuple(range(n))
    elems.remove(ident)
    return _monoid_from_maps([ident] + elems, _map_generators(kind, n)), None


# ---------------------------------------------------------------------------
# Structural predicates.
# ---------------------------------------------------------------------------

def idempotents(M: FiniteMonoid) -> List[int]:
    return [x for x in range(M.size) if M.table[x][x] == x]


def generating_set(M: FiniteMonoid) -> List[int]:
    """Deterministic greedy generating set, scanned from the top of the J-order.

    Candidates are taken in decreasing order of (|xM|, |Mx|), ties broken by
    index, and each one not yet reached is added.  This order is a linear
    extension of the J-order: if x = ayb lies strictly J-below y then
    |xM| <= |yM| and |Mx| <= |My|, with equality in both only when x D y.  So
    the group of units comes first and no element is added before the higher
    elements it may be a product of.  The set is not promised to be minimal
    (jones7 gets 11 generators, though 6 would do).  Reached means by a right
    walk x -> x*g from the identity.
    """
    T = M.table
    right = [len(set(row)) for row in T]
    left = [len(set(col)) for col in zip(*T)]

    gens: List[int] = []
    seen = {M.identity}
    for c in sorted(range(M.size), key=lambda x: (-right[x], -left[x], x)):
        if c in seen:
            continue
        gens.append(c)
        steps = [(x, c) for x in seen]
        while steps:
            x, g = steps.pop()
            z = T[x][g]
            if z not in seen:
                seen.add(z)
                steps.extend((z, h) for h in gens)
    return gens


# ---------------------------------------------------------------------------
# File I/O.  Files are written in a canonical form so that round trips are
# byte identical.
# ---------------------------------------------------------------------------

def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_json_object(path, *keys: str) -> Dict:
    """The JSON object in a file; ValueError, naming the file, unless it has
    every given key.  Nesting too deep for the decoder is a ValueError too."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
    return data


def save_cayley_json(M: FiniteMonoid, path) -> None:
    _dump_json({"size": M.size, "identity": M.identity, "table": M.table, "labels": M.labels}, path)


def load_cayley_json(path, cap: Optional[int] = None) -> FiniteMonoid:
    """The validated table in a file, or a ValueError naming it.  With a cap,
    SizeCapExceeded before any validation when the size or row count is over."""
    data = _load_json_object(path, "size", "identity", "table")
    size, table = data["size"], data["table"]
    if cap is not None and ((_is_int(size) and size > cap)
                            or (isinstance(table, list) and len(table) > cap)):
        raise SizeCapExceeded(f"table has more elements than the cap {cap}")
    try:
        return from_cayley_table(size, data["identity"], table, data.get("labels"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


"""Green's relations, egg-box coordinates with translation elements, and
Schutzenberger groups of a finite monoid.

All class ids are assigned by least member index, so every derived structure is
deterministic for a fixed Cayley table.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .monoid import CellmonoidError, FiniteMonoid, idempotents


class GreenError(CellmonoidError):
    pass


class TranslationNotFound(GreenError):
    """Raised when no translation pair exists; signals an upstream bug."""


def _classes(keys: List) -> Tuple[List[int], List[List[int]]]:
    ids: List[int] = []
    members: List[List[int]] = []
    seen: Dict = {}
    for x, k in enumerate(keys):
        if k not in seen:
            seen[k] = len(members)
            members.append([])
        i = seen[k]
        ids.append(i)
        members[i].append(x)
    return ids, members


class GreenStructure(NamedTuple):
    lclass: List[int]
    rclass: List[int]
    hclass: List[int]
    dclass: List[int]
    lclasses: List[List[int]]
    rclasses: List[List[int]]
    hclasses: List[List[int]]
    dclasses: List[List[int]]
    ddown: List[List[int]]  # the D-classes one step of M.gens below D_d: the D-order's edges


def _sccs(succ: List[List[int]]) -> List[int]:
    """Strongly connected component id per vertex of the graph x -> succ[x],
    by Tarjan's algorithm on an explicit stack, so depth costs no recursion.
    Ids are given as components complete: an edge x -> y has comp[x] >= comp[y]."""
    n = len(succ)
    index, low, comp = [0] * n, [0] * n, [-1] * n  # index 0: not yet reached
    stack: List[int] = []
    count = done = 0
    for root in range(n):
        if index[root]:
            continue
        count += 1
        index[root] = low[root] = count
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not index[w]:
                    count += 1
                    index[w] = low[w] = count
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:  # w is still on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        comp[w] = done
                    done += 1
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comp


_BITS: List[Tuple[int, ...]] = [()]  # _BITS[v]: the set bits of the byte v, lowest first
for _bit in range(8):
    _BITS += [bits + (_bit,) for bits in _BITS]


def strict_order(k: int, pairs) -> List[FrozenSet[int]]:
    """above[b]: the nodes a of range(k) that reach b along the edges a -> b
    of pairs, by one pass in _sccs order with each reach an int bitset, read a
    byte at a time.  A self-pair, a cycle or a node outside range(k) raises
    ValueError."""
    preds: List[List[int]] = [[] for _ in range(k)]
    for a, b in pairs:
        if a == b or not (0 <= a < k and 0 <= b < k):
            raise ValueError("node order is not a strict partial order")
        preds[b].append(a)
    comp = _sccs(preds)
    if len(set(comp)) != k:
        raise ValueError("node order is not a strict partial order")
    reach = [0] * k
    # each node completes as its own component, after every node above it
    for _, b in sorted(zip(comp, range(k))):
        for a in preds[b]:
            reach[b] |= reach[a] | 1 << a
    octets = (r.to_bytes((r.bit_length() + 7) // 8, "little") for r in reach)
    return [frozenset(8 * i + j for i, byte in enumerate(o) if byte for j in _BITS[byte])
            for o in octets]


def compute_green(M: FiniteMonoid) -> GreenStructure:
    """L, R, H, D partitions and the D-order's edges from the Cayley graphs of
    M.gens, reading |gens|*n table entries and holding no row or column as a set.

    xM is what x reaches along x -> x*g, so the R-classes are the strongly
    connected components of this right Cayley graph, and the L-classes those
    of x -> g*x.  x D y iff L_x meets R_y, and inside a D-class every L-class
    meets every R-class, so the R-classes an element's L-class meets name its
    D-class.  MxM is what x reaches along both graphs, so D_a < D_b iff D_b
    reaches D_a in the acyclic graph of D-classes, whose edges ddown lists;
    strict_order closes them.
    """
    n = M.size
    T = M.table
    right = [[row[g] for g in M.gens] for row in T]
    left = [[T[g][x] for g in M.gens] for x in range(n)]

    lclass, lclasses = _classes(_sccs(left))
    rclass, rclasses = _classes(_sccs(right))
    hclass, hclasses = _classes([(lclass[x], rclass[x]) for x in range(n)])
    meets = [frozenset(rclass[y] for y in members) for members in lclasses]
    dclass, dclasses = _classes([meets[lclass[x]] for x in range(n)])

    ddown = [sorted({dclass[z] for x in members for z in right[x] + left[x]} - {d})
             for d, members in enumerate(dclasses)]
    return GreenStructure(lclass, rclass, hclass, dclass,
                          lclasses, rclasses, hclasses, dclasses, ddown)


class EggBox(NamedTuple):
    """One D-class as a grid of H-classes, with row/column translations.

    Row i is reached from row 1 by left multiplication by a[i]; column j is
    reached from column 1 by right multiplication by b[j].  Row 1 and column 1
    contain the base element gamma, and a[0] = b[0] = identity.  build_eggbox
    also finds the inverse translations and checks that each pair is a
    bijection between the cells, but does not keep them.
    """

    gamma: int
    rows: List[int]
    cols: List[int]
    grid: List[List[List[int]]]
    a: List[int]
    b: List[int]


def _verify_translations(lines: List[List[List[int]]], there: List[int], back: List[int],
                         act: Callable[[int, int], int], what: str, across: str) -> None:
    """Exhaustively confirm one side's translation bijections.

    lines[k][pos] is the cell at position pos of line k (a row or a column),
    and act(c, h) multiplies h by c on the side that moves between lines.  Pair
    k must carry each cell of line 0 onto the cell of line k at the same
    position, and back, bijectively.
    """
    for k, (c, cbar) in enumerate(zip(there, back)):
        for pos, (src, cell) in enumerate(zip(lines[0], lines[k])):
            dst = set(cell)
            images = set()
            for h in src:
                z = act(c, h)
                if z not in dst or act(cbar, z) != h:
                    raise TranslationNotFound(f"{what}[{k}] fails on {across} {pos}")
                images.add(z)
            if images != dst:
                raise TranslationNotFound(f"{what}[{k}] is not onto in {across} {pos}")


def _translations(gs: GreenStructure, gamma: int, targets: List[Tuple[int, int]],
                  products: Callable[[int], List[int]], identity: int,
                  side: str) -> Tuple[List[int], List[int]]:
    """Translation pairs from gamma's cell to each target (R-class, L-class) cell.

    products(u)[c] is c*u for rows and u*c for columns.  Pair k is the first c
    whose product with gamma lands in target k, then the first c' whose
    product with that element is gamma again; pair 0 is the identity.
    """
    there, back = [identity], [identity]
    from_gamma = products(gamma)
    for k, (rid, lid) in enumerate(targets[1:], 1):
        for c, z in enumerate(from_gamma):
            if gs.rclass[z] == rid and gs.lclass[z] == lid:
                from_z = products(z)
                if gamma in from_z:
                    there.append(c)
                    back.append(from_z.index(gamma))
                    break
        else:
            raise TranslationNotFound(f"no {side} translation for {side} {k}")
    return there, back


def build_eggbox(M: FiniteMonoid, gs: GreenStructure, d: int) -> EggBox:
    """Egg-box for D-class d; the translation property is verified, not assumed."""
    members = gs.dclasses[d]
    gamma = members[0]
    T = M.table

    # Class ids follow least members and gamma is the least member of its
    # D-class, so sorting by id puts gamma's R- and L-class first.
    rows = sorted({gs.rclass[x] for x in members})
    cols = sorted({gs.lclass[x] for x in members})
    row_at = {rid: i for i, rid in enumerate(rows)}
    col_at = {lid: j for j, lid in enumerate(cols)}

    grid = [[[] for _ in cols] for _ in rows]
    for x in sorted(members):
        grid[row_at[gs.rclass[x]]][col_at[gs.lclass[x]]].append(x)
    hsize = len(grid[0][0])
    if any(len(cell) != hsize for row in grid for cell in row):
        raise GreenError("egg-box cells have unequal sizes")
    if len(members) != len(rows) * len(cols) * hsize:
        raise GreenError("egg-box is not rectangular")

    a, abar = _translations(gs, gamma, [(rid, cols[0]) for rid in rows],
                            lambda u: [row[u] for row in T], M.identity, "row")
    b, bbar = _translations(gs, gamma, [(rows[0], lid) for lid in cols],
                            lambda u: T[u], M.identity, "column")

    _verify_translations(grid, a, abar, lambda c, h: T[c][h], "row translation a", "column")
    _verify_translations([list(col) for col in zip(*grid)], b, bbar, lambda c, h: T[h][c],
                         "column translation b", "row")
    return EggBox(gamma, rows, cols, grid, a, b)


class SchutzGroup(NamedTuple):
    """Right translation group of the base H-class, as permutations of it.

    ``perms[g]`` permutes positions of the sorted base class; ``rm`` maps every
    m that stabilizes H on the right to its group element; ``phiR[g]`` is
    gamma*m for every m in g: gamma lies in H, so gamma*m is fixed by m's
    permutation of H.
    """

    hclass: List[int]
    perms: List[Tuple[int, ...]]
    mult: List[List[int]]
    identity: int
    rm: Dict[int, int]
    phiR: List[int]

    @property
    def order(self) -> int:
        return len(self.perms)


def schutzenberger(M: FiniteMonoid, box: EggBox) -> SchutzGroup:
    """Right stabilizers of the base H-class, by one table read per element;
    each group element is represented by the least m that acts as it."""
    T = M.table
    H = box.grid[0][0]
    pos = {h: i for i, h in enumerate(H)}
    gamma = box.gamma

    perms: List[Tuple[int, ...]] = []
    pindex: Dict[Tuple[int, ...], int] = {}
    reps: List[int] = []
    rm: Dict[int, int] = {}
    for m in range(M.size):
        # Green's lemma: m stabilizes H exactly when gamma*m lies in H
        if T[gamma][m] not in pos:
            continue
        perm = tuple(pos.get(T[h][m]) for h in H)
        if None in perm or len(set(perm)) != len(perm):
            raise GreenError("right translation does not permute the base class")
        if perm not in pindex:
            pindex[perm] = len(perms)
            perms.append(perm)
            reps.append(m)
        rm[m] = pindex[perm]
    if len(perms) != len(H):
        raise GreenError("translation group order differs from the base class size")

    # m1*m2 stabilizes H too, and acts as m1 then m2
    mult = [[rm[T[r1][r2]] for r2 in reps] for r1 in reps]
    identity = rm[M.identity]

    phiR = [T[gamma][reps[g]] for g in range(len(perms))]
    if len(set(phiR)) != len(H):
        raise GreenError("evaluation at the base element is not bijective")
    return SchutzGroup(H, perms, mult, identity, rm, phiR)


def sandwich(M: FiniteMonoid, gs: GreenStructure, box: EggBox,
             sch: SchutzGroup) -> Dict[Tuple[int, int], int]:
    """The sandwich matrix of a D-class: {(row i, column j): group element}
    for every column j that meets row i inside the D-class, in row-major order.

    Column j meets row i when x*y stays in the D-class for x = gamma*b[j] and
    y = a[i]*gamma; the entry is the group element of (b[j]*a[i])*gamma.
    """
    T = M.table
    gamma = box.gamma
    d = gs.dclass[gamma]
    out: Dict[Tuple[int, int], int] = {}
    for i, ai in enumerate(box.a):
        y = T[ai][gamma]
        for j, bj in enumerate(box.b):
            if gs.dclass[T[T[gamma][bj]][y]] != d:
                continue
            mij = T[T[bj][ai]][gamma]
            if mij not in sch.rm:
                raise GreenError("matched product does not stabilize the base class")
            out[(i, j)] = sch.rm[mij]
    return out


def bijection_condition(box: EggBox, sandwich: Dict[Tuple[int, int], int]
                        ) -> Optional[Dict[int, int]]:
    """Column -> row pairing when the sandwich matrix has the pattern of a
    permutation matrix: rows, columns, columns hit, entries and distinct rows
    all equal in number."""
    pairing = {j: i for i, j in sandwich}
    counts = (len(box.rows), len(box.cols), len(pairing), len(sandwich), len(set(pairing.values())))
    return pairing if len(set(counts)) == 1 else None


def regular_and_inverse(M: FiniteMonoid, gs: GreenStructure) -> Tuple[bool, bool]:
    """(M is regular, M is inverse), read off Green's structure: M is regular
    iff every D-class holds an idempotent, and then every L- and R-class
    holds one, so M is inverse iff, in addition, it has as many idempotents
    as L-classes and as R-classes.  The tests compare it with the
    definitions, scanned over all pairs."""
    idem = idempotents(M)
    regular = len({gs.dclass[e] for e in idem}) == len(gs.dclasses)
    return regular, regular and len(idem) == len(gs.lclasses) == len(gs.rclasses)

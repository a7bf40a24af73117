"""Green's relations, egg-box coordinates with translation elements, and
Schutzenberger groups of a finite monoid.

All class ids are assigned by least member index, so every derived structure is
deterministic for a fixed Cayley table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .monoid import CellmonoidError, FiniteMonoid


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


@dataclass
class GreenStructure:
    lclass: List[int]
    rclass: List[int]
    hclass: List[int]
    dclass: List[int]
    lclasses: List[List[int]]
    rclasses: List[List[int]]
    hclasses: List[List[int]]
    dclasses: List[List[int]]
    dideals: List[FrozenSet[int]]
    dless: FrozenSet[Tuple[int, int]]  # (a, b) present when D_a < D_b strictly


def compute_green(M: FiniteMonoid) -> GreenStructure:
    """L, R, H, D partitions via principal ideals, plus the strict D-order.

    xLy iff Mx = My and xRy iff xM = yM.  D comes from L and R: x D y iff L_x
    meets R_y, and inside a D-class every L-class meets every R-class, so the
    set of R-classes that an element's L-class meets names its D-class.  The
    two-sided ideal MxM, the union of zM over z in Mx, is built once per
    D-class, from its least member, and serves only the D-order.
    """
    n = M.size
    T = M.table
    lsets = [frozenset(T[m][x] for m in range(n)) for x in range(n)]
    rsets = [frozenset(T[x][m] for m in range(n)) for x in range(n)]

    lclass, lclasses = _classes(lsets)
    rclass, rclasses = _classes(rsets)
    hclass, hclasses = _classes([(lclass[x], rclass[x]) for x in range(n)])
    meets = [frozenset(rclass[y] for y in members) for members in lclasses]
    dclass, dclasses = _classes([meets[lclass[x]] for x in range(n)])
    dideals = [frozenset().union(*(rsets[z] for z in lsets[members[0]])) for members in dclasses]
    dless = frozenset(
        (a, b)
        for a in range(len(dclasses))
        for b in range(len(dclasses))
        if a != b and dideals[a] <= dideals[b]
    )
    return GreenStructure(lclass, rclass, hclass, dclass,
                          lclasses, rclasses, hclasses, dclasses, dideals, dless)


@dataclass
class EggBox:
    """One D-class as a grid of H-classes, with row/column translations.

    Row i is reached from row 1 by left multiplication by a[i] (undone by
    abar[i]); column j is reached from column 1 by right multiplication by
    b[j] (undone by bbar[j]).  Row 1 and column 1 contain the base element
    gamma, and a[0] = abar[0] = b[0] = bbar[0] = identity.
    """

    monoid: FiniteMonoid
    green: GreenStructure
    d: int
    gamma: int
    rows: List[int]
    cols: List[int]
    grid: List[List[List[int]]]
    a: List[int]
    abar: List[int]
    b: List[int]
    bbar: List[int]

    def cell(self, i: int, j: int) -> List[int]:
        if not (0 <= i < len(self.rows) and 0 <= j < len(self.cols)):
            raise ValueError(f"invalid cell ({i}, {j})")
        return self.grid[i][j]


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
    return EggBox(M, gs, d, gamma, rows, cols, grid, a, abar, b, bbar)


@dataclass
class SchutzGroup:
    """Right translation group of the base H-class, as permutations of it.

    ``perms[g]`` permutes positions of the sorted base class; ``rm`` maps every
    m that stabilizes H on the right to its group element; ``phiR[g]`` is
    gamma*m for the chosen representative m of g (see ``schutzenberger``).
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


def schutzenberger(M: FiniteMonoid, box: EggBox, section: str = "least") -> SchutzGroup:
    """Scan all of M for right stabilizers of the base H-class.

    section: "least" picks the smallest representative of each permutation,
    "greatest" the largest; analysis results must not depend on this choice.
    """
    if section not in ("least", "greatest"):
        raise ValueError("section must be 'least' or 'greatest'")
    T = M.table
    H = box.grid[0][0]
    hset = set(H)
    pos = {h: i for i, h in enumerate(H)}
    gamma = box.gamma

    perms: List[Tuple[int, ...]] = []
    pindex: Dict[Tuple[int, ...], int] = {}
    reps: List[int] = []
    rm: Dict[int, int] = {}
    for m in range(M.size):
        imgs = [T[h][m] for h in H]
        if all(v in hset for v in imgs):
            perm = tuple(pos[v] for v in imgs)
            if len(set(perm)) != len(perm):
                raise GreenError("right translation is not injective on the base class")
            if perm not in pindex:
                pindex[perm] = len(perms)
                perms.append(perm)
                reps.append(m)
            elif section == "greatest":
                reps[pindex[perm]] = m
            rm[m] = pindex[perm]
    if len(perms) != len(H):
        raise GreenError("translation group order differs from the base class size")

    k = len(H)
    mult = [[pindex[tuple(p2[v] for v in p1)] for p2 in perms] for p1 in perms]
    identity = pindex[tuple(range(k))]

    phiR = [T[gamma][reps[g]] for g in range(len(perms))]
    if len(set(phiR)) != len(H):
        raise GreenError("evaluation at the base element is not bijective")
    return SchutzGroup(H, perms, mult, identity, rm, phiR)


def matched(box: EggBox, sch: SchutzGroup, i: int, j: int) -> Optional[int]:
    """Group element induced by column j meeting row i, or None when the
    products of L_j by R_i all avoid the D-class."""
    box.cell(i, j)
    T = box.monoid.table
    x = T[box.gamma][box.b[j]]
    y = T[box.a[i]][box.gamma]
    if box.green.dclass[T[x][y]] != box.d:
        return None
    mij = T[T[box.b[j]][box.a[i]]][box.gamma]
    if mij not in sch.rm:
        raise GreenError("matched product does not stabilize the base class")
    return sch.rm[mij]


def bijection_condition(box: EggBox, sch: SchutzGroup) -> Optional[Dict[int, int]]:
    """Column -> row pairing when the matched pattern is a permutation matrix."""
    nr, nc = len(box.rows), len(box.cols)
    if nr != nc:
        return None
    pairing: Dict[int, int] = {}
    for j in range(nc):
        hits = [i for i in range(nr) if matched(box, sch, i, j) is not None]
        if len(hits) != 1:
            return None
        pairing[j] = hits[0]
    if len(set(pairing.values())) != nr:
        return None
    return pairing

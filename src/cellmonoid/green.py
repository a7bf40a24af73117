"""Green's relations, egg-box coordinates with translation elements, and
Schutzenberger groups of a finite monoid.

All class ids are assigned by least member index, so every derived structure is
deterministic for a fixed Cayley table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

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

    xLy iff Mx = My, xRy iff xM = yM, and the two-sided classes are computed
    through MxM (which coincides with the D-relation in a finite monoid).
    """
    n = M.size
    T = M.table
    lsets = [frozenset(T[m][x] for m in range(n)) for x in range(n)]
    rsets = [frozenset(T[x][m] for m in range(n)) for x in range(n)]
    jsets = []
    for x in range(n):
        acc = set()
        for z in lsets[x]:
            acc.update(T[z])
        jsets.append(frozenset(acc))

    lclass, lclasses = _classes(lsets)
    rclass, rclasses = _classes(rsets)
    hclass, hclasses = _classes([(lclass[x], rclass[x]) for x in range(n)])
    dclass, dclasses = _classes(jsets)
    dideals = [jsets[members[0]] for members in dclasses]
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
    row_of: Dict[int, int] = field(default_factory=dict)
    col_of: Dict[int, int] = field(default_factory=dict)

    def cell(self, i: int, j: int) -> List[int]:
        if not (0 <= i < len(self.rows) and 0 <= j < len(self.cols)):
            raise ValueError(f"invalid cell ({i}, {j})")
        return self.grid[i][j]


def _verify_translations(M: FiniteMonoid, box: EggBox) -> None:
    """Exhaustively confirm the translation bijections on every row/column."""
    T = M.table
    for i in range(len(box.rows)):
        ai, abari = box.a[i], box.abar[i]
        for j in range(len(box.cols)):
            src, dst = box.grid[0][j], set(box.grid[i][j])
            images = set()
            for h in src:
                z = T[ai][h]
                if z not in dst or T[abari][z] != h:
                    raise TranslationNotFound(f"row translation a[{i}] fails on column {j}")
                images.add(z)
            if images != dst:
                raise TranslationNotFound(f"row translation a[{i}] is not onto in column {j}")
    for j in range(len(box.cols)):
        bj, bbarj = box.b[j], box.bbar[j]
        for i in range(len(box.rows)):
            src, dst = box.grid[i][0], set(box.grid[i][j])
            images = set()
            for h in src:
                z = T[h][bj]
                if z not in dst or T[z][bbarj] != h:
                    raise TranslationNotFound(f"column translation b[{j}] fails on row {i}")
                images.add(z)
            if images != dst:
                raise TranslationNotFound(f"column translation b[{j}] is not onto in row {i}")


def build_eggbox(M: FiniteMonoid, gs: GreenStructure, d: int) -> EggBox:
    """Egg-box for D-class d; the translation property is verified, not assumed."""
    members = gs.dclasses[d]
    gamma = members[0]
    T = M.table
    n = M.size

    rows = sorted({gs.rclass[x] for x in members}, key=lambda rid: min(gs.rclasses[rid]))
    cols = sorted({gs.lclass[x] for x in members}, key=lambda lid: min(gs.lclasses[lid]))
    rg, cg = gs.rclass[gamma], gs.lclass[gamma]
    rows.remove(rg)
    rows.insert(0, rg)
    cols.remove(cg)
    cols.insert(0, cg)
    row_of = {rid: i for i, rid in enumerate(rows)}
    col_of = {lid: j for j, lid in enumerate(cols)}

    grid = [[[] for _ in cols] for _ in rows]
    for x in sorted(members):
        grid[row_of[gs.rclass[x]]][col_of[gs.lclass[x]]].append(x)
    hsize = len(grid[0][0])
    if any(len(cell) != hsize for row in grid for cell in row):
        raise GreenError("egg-box cells have unequal sizes")
    if len(members) != len(rows) * len(cols) * hsize:
        raise GreenError("egg-box is not rectangular")

    a = [M.identity] * len(rows)
    abar = [M.identity] * len(rows)
    for i in range(1, len(rows)):
        found = False
        for cand in range(n):
            z = T[cand][gamma]
            if gs.rclass[z] == rows[i] and gs.lclass[z] == cols[0]:
                for back in range(n):
                    if T[back][z] == gamma:
                        a[i], abar[i] = cand, back
                        found = True
                        break
            if found:
                break
        if not found:
            raise TranslationNotFound(f"no row translation for row {i}")

    b = [M.identity] * len(cols)
    bbar = [M.identity] * len(cols)
    for j in range(1, len(cols)):
        found = False
        for cand in range(n):
            z = T[gamma][cand]
            if gs.lclass[z] == cols[j] and gs.rclass[z] == rows[0]:
                for back in range(n):
                    if T[z][back] == gamma:
                        b[j], bbar[j] = cand, back
                        found = True
                        break
            if found:
                break
        if not found:
            raise TranslationNotFound(f"no column translation for column {j}")

    box = EggBox(M, gs, d, gamma, rows, cols, grid, a, abar, b, bbar, row_of, col_of)
    _verify_translations(M, box)
    return box


@dataclass
class SchutzGroup:
    """Right translation group of the base H-class, as permutations of it.

    ``perms[g]`` permutes positions of the sorted base class; ``section[g]`` is
    a chosen monoid representative m with r_m = g; ``rm`` maps every m that
    stabilizes H on the right to its group element; ``left_transfer`` maps every
    m that stabilizes H on the left to the representative mbar with
    m*gamma = gamma*mbar.
    """

    hclass: List[int]
    perms: List[Tuple[int, ...]]
    mult: List[List[int]]
    identity: int
    inv: List[int]
    section: List[int]
    rm: Dict[int, int]
    left_transfer: Dict[int, int]
    phiR: List[int]
    phiR_inv: Dict[int, int]

    @property
    def order(self) -> int:
        return len(self.perms)


def schutzenberger(M: FiniteMonoid, box: EggBox, section: str = "least") -> SchutzGroup:
    """Scan all of M for right/left stabilizers of the base H-class.

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
    inv = [0] * len(perms)
    for g1 in range(len(perms)):
        for g2 in range(len(perms)):
            if mult[g1][g2] == identity:
                inv[g1] = g2
                break

    phiR = [T[gamma][reps[g]] for g in range(len(perms))]
    if len(set(phiR)) != len(H):
        raise GreenError("evaluation at the base element is not bijective")
    phiR_inv = {h: g for g, h in enumerate(phiR)}

    left_transfer: Dict[int, int] = {}
    for m in range(M.size):
        imgs = [T[m][h] for h in H]
        if all(v in hset for v in imgs):
            g = phiR_inv[T[m][gamma]]
            left_transfer[m] = reps[g]

    return SchutzGroup(H, perms, mult, identity, inv, reps, rm, left_transfer, phiR, phiR_inv)


@dataclass(frozen=True)
class Within:
    """Action stayed inside the D-class: target row-or-column k, the conjugated
    translation element mstar, and the induced group element g."""

    k: int
    mstar: int
    g: int


def right_action(box: EggBox, sch: SchutzGroup, i: int, j: int, m: int) -> Optional[Within]:
    """Effect of right multiplication by m on cell (i, j); None when the
    product falls out of the D-class (in which case the whole cell does)."""
    cell = box.cell(i, j)
    T = box.monoid.table
    gs = box.green
    z = T[cell[0]][m]
    if gs.dclass[z] != box.d:
        return None
    if gs.rclass[z] != box.rows[i]:
        raise GreenError("right action moved the row inside the D-class")
    k = box.col_of[gs.lclass[z]]
    mstar = T[T[box.b[j]][m]][box.bbar[k]]
    if mstar not in sch.rm:
        raise GreenError("conjugated element does not stabilize the base class")
    return Within(k, mstar, sch.rm[mstar])


def left_action(box: EggBox, sch: SchutzGroup, i: int, j: int, m: int) -> Optional[Within]:
    """Dual of right_action; g is the group element of the transferred mstar."""
    cell = box.cell(i, j)
    T = box.monoid.table
    gs = box.green
    z = T[m][cell[0]]
    if gs.dclass[z] != box.d:
        return None
    if gs.lclass[z] != box.cols[j]:
        raise GreenError("left action moved the column inside the D-class")
    k = box.row_of[gs.rclass[z]]
    mstar = T[T[box.abar[k]][m]][box.a[i]]
    if mstar not in sch.left_transfer:
        raise GreenError("conjugated element does not stabilize the base class on the left")
    return Within(k, mstar, sch.rm[sch.left_transfer[mstar]])


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

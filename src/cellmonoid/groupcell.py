"""Cell data for the group algebras attached to D-classes: the tableau basis
for symmetric groups, the one-node datum for trivial groups, and data a caller
supplies from Python, verified where they enter.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

from .cellbasis import CellDatum, GroupDatumAttachment
from .exactalg import FieldSpec, Scalar
from .green import SchutzGroup
from .monoid import CellmonoidError


class GroupCellError(CellmonoidError):
    pass


class UnsupportedGroup(GroupCellError):
    """A D-class group has no built-in datum (only trivial and symmetric
    groups do) and no custom datum was passed to standard_group_data."""


class AxiomViolation(GroupCellError):
    def __init__(self, witness):
        super().__init__(f"cell condition fails: {witness}")
        self.witness = witness


def _group_datum(table: List[List[int]], field: FieldSpec, nodes, gt_pairs, lsets, rsets,
                 basis) -> CellDatum:
    """A datum on a group's Cayley table, with the whole group as one block."""
    blocks = [(tuple(range(len(table))), tuple(sorted(basis)))]
    return CellDatum(field, table, nodes, gt_pairs, lsets, rsets, basis, blocks)


# ---------------------------------------------------------------------------
# Permutations (right action on points: p maps point i to p[i], and the
# product "apply p then q" is composition through q).
# ---------------------------------------------------------------------------

Perm = Tuple[int, ...]


def _pcompose(p: Perm, q: Perm) -> Perm:
    return tuple(q[v] for v in p)


def _pinv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def symmetric_group_table(n: int) -> Tuple[List[List[int]], List[Perm]]:
    """Cayley table of all n! permutations in lexicographic order (identity
    first), and the permutations."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[_pcompose(p, q)] for q in perms] for p in perms], perms


# ---------------------------------------------------------------------------
# Partitions and standard tableaux.
# ---------------------------------------------------------------------------

Partition = Tuple[int, ...]


def partitions(n: int) -> List[Partition]:
    """Partitions of n in reverse lexicographic order ((n) first)."""
    out: List[Partition] = []

    def rec(rest: int, max_part: int, prefix: List[int]):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, max_part), 0, -1):
            prefix.append(part)
            rec(rest - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def dominates(lam: Partition, mu: Partition) -> bool:
    """Partial-sum comparison for partitions of the same number."""
    if sum(lam) != sum(mu):
        raise ValueError("partitions of different numbers are incomparable")
    total_l = total_m = 0
    for k in range(max(len(lam), len(mu))):
        total_l += lam[k] if k < len(lam) else 0
        total_m += mu[k] if k < len(mu) else 0
        if total_l < total_m:
            return False
    return True


Tableau = Tuple[Tuple[int, ...], ...]


def standard_tableaux(shape: Partition) -> List[Tableau]:
    """All standard fillings (0-based entries), ordered by row-reading word."""
    n = sum(shape)
    out: List[Tableau] = []
    counts = [0] * len(shape)
    cells: List[List[int]] = [[-1] * r for r in shape]

    def rec(k: int):
        if k == n:
            out.append(tuple(tuple(row) for row in cells))
            return
        for r in range(len(shape)):
            c = counts[r]
            if c < shape[r] and (r == 0 or counts[r - 1] > c):
                cells[r][c] = k
                counts[r] += 1
                rec(k + 1)
                counts[r] -= 1
                cells[r][c] = -1

    rec(0)
    out.sort(key=lambda t: tuple(v for row in t for v in row))
    return out


def _row_reading_tableau(shape: Partition) -> Tableau:
    rows = []
    start = 0
    for r in shape:
        rows.append(tuple(range(start, start + r)))
        start += r
    return tuple(rows)


def _tableau_perm(shape: Partition, t: Tableau, n: int) -> Perm:
    """The permutation carrying the row-reading tableau onto t, entry-wise."""
    base = _row_reading_tableau(shape)
    p = [0] * n
    for br, tr in zip(base, t):
        for src, dst in zip(br, tr):
            p[src] = dst
    return tuple(p)


def _row_stabilizer(shape: Partition, n: int) -> List[Perm]:
    rows = [list(r) for r in _row_reading_tableau(shape)]
    perms: List[Perm] = []
    for choice in itertools.product(*[list(itertools.permutations(r)) for r in rows]):
        p = list(range(n))
        for row, image in zip(rows, choice):
            for src, dst in zip(row, image):
                p[src] = dst
        perms.append(tuple(p))
    return perms


def _tableau_label(t: Tableau) -> str:
    return "/".join("".join(str(v + 1) for v in row) for row in t)


MURPHY_CAP = 5


def murphy_datum(n: int, field: FieldSpec) -> CellDatum:
    """Tableau-pair basis of the symmetric group algebra on n points.

    Nodes are partitions of n under the dominance order; left and right
    indices are the standard tableaux of the node's shape; the (s, t) vector is
    d(s)^-1 * x_lam * d(t), where x_lam sums the row stabilizer of the
    row-reading tableau and d(t) carries the row-reading tableau onto t.
    """
    if not (1 <= n <= MURPHY_CAP):
        raise GroupCellError(f"point count {n} outside 1..{MURPHY_CAP}")
    table, perms = symmetric_group_table(n)
    pindex = {p: i for i, p in enumerate(perms)}

    nodes = partitions(n)
    gt_pairs = [(a, b) for a, lam in enumerate(nodes) for b, mu in enumerate(nodes)
                if lam != mu and dominates(lam, mu)]
    lsets: List[List[str]] = []
    rsets: List[List[str]] = []
    basis: Dict[Tuple[int, int, int], Dict[int, Scalar]] = {}
    for ni, lam in enumerate(nodes):
        tabs = standard_tableaux(lam)
        labels = [_tableau_label(t) for t in tabs]
        lsets.append(labels)
        rsets.append(list(labels))
        stab = _row_stabilizer(lam, n)
        d_of = [_tableau_perm(lam, t, n) for t in tabs]
        d_inv = [_pinv(p) for p in d_of]
        for si in range(len(tabs)):
            for ti in range(len(tabs)):
                vec: Dict[int, Scalar] = {}
                for w in stab:
                    g = _pcompose(_pcompose(d_inv[si], w), d_of[ti])
                    vec[pindex[g]] = 1  # stabilizer cosets never collide
                basis[(ni, si, ti)] = vec
    return _group_datum(table, field, nodes, gt_pairs, lsets, rsets, basis)


def trivial_group_datum(field: FieldSpec) -> CellDatum:
    """Single node, single index pair, basis = the identity element."""
    return _group_datum([[0]], field, ["*"], [], [["1"]], [["1"]], {(0, 0, 0): {0: 1}})


# ---------------------------------------------------------------------------
# Matching abstract symmetric groups onto Schutzenberger groups.
# ---------------------------------------------------------------------------

def _hom_closure(perms: List[Perm], gens: List[Tuple[Perm, int]], sch: SchutzGroup,
                 identity_perm: Perm) -> Optional[List[int]]:
    """The bijective homomorphism extending the generator images, indexed like
    perms, or None.  Checking f(w*g) = f(w)*f(g) on every Cayley-graph edge
    proves f(x*y) = f(x)*f(y) by induction on the length of y."""
    known: Dict[Perm, int] = {identity_perm: sch.identity}
    frontier = [identity_perm]
    while frontier:
        w = frontier.pop()
        img_w = known[w]
        for gp, gi in gens:
            w2 = _pcompose(w, gp)
            img2 = sch.mult[img_w][gi]
            if w2 in known:
                if known[w2] != img2:
                    return None
            else:
                known[w2] = img2
                frontier.append(w2)
    if len(known) != len(perms) or len(set(known.values())) != len(perms):
        return None
    return [known[p] for p in perms]


def find_symmetric_iso(n: int, sch: SchutzGroup) -> Optional[List[int]]:
    """Isomorphism from the abstract symmetric group on n points onto the
    Schutzenberger group, as a list indexed by abstract element; None when no
    isomorphism exists.  Found by searching images of two generators; the
    first images that extend to a bijective homomorphism are returned."""
    if math.factorial(n) != sch.order:
        return None
    perms = list(itertools.permutations(range(n)))
    identity_perm = tuple(range(n))
    if n == 1:
        return [sch.identity]
    swap = tuple([1, 0] + list(range(2, n)))
    cyc = tuple((i + 1) % n for i in range(n))
    gen_perms = [swap] if n == 2 else [swap, cyc]

    def order_of(g: int) -> int:
        k, cur = 1, g
        while cur != sch.identity:
            cur = sch.mult[cur][g]
            k += 1
        return k

    cands_t = [g for g in range(sch.order) if order_of(g) == 2]
    cands_c = [g for g in range(sch.order) if order_of(g) == n]
    image_sets = [cands_t] if n == 2 else [cands_t, cands_c]
    for images in itertools.product(*image_sets):
        iso = _hom_closure(perms, list(zip(gen_perms, images)), sch, identity_perm)
        if iso is not None:
            return iso
    return None


def _factorial_arg(size: int) -> Optional[int]:
    n, f = 1, 1
    while f < size:
        n += 1
        f *= n
    return n if f == size else None


def standard_group_data(schutzs: List[SchutzGroup], field: FieldSpec,
                        custom: Optional[Dict[int, CellDatum]] = None
                        ) -> Dict[int, GroupDatumAttachment]:
    """Pick a verified group datum per D-class: a supplied custom datum (over
    the class's own translation group), the one-node datum for order-1 groups,
    or the tableau datum for symmetric groups found by isomorphism search.  A
    custom datum is verified where it enters: UnsupportedGroup when its field
    is not field or its dimension not the group's order, AxiomViolation when
    the full axiom check fails.  The built-in data are built once per order."""
    custom = custom or {}
    out: Dict[int, GroupDatumAttachment] = {}
    builtin: Dict[int, CellDatum] = {}
    for d, sch in enumerate(schutzs):
        if d in custom:
            datum = custom[d]
            if datum.field != field:
                raise UnsupportedGroup(f"D-class {d}: custom datum is over "
                                       f"{datum.field.spec_string()}, not {field.spec_string()}")
            if datum.dim != sch.order:
                raise UnsupportedGroup(f"D-class {d}: custom datum has the wrong dimension")
            from .verify import verify_cell_axioms  # loaded only for a custom datum
            report = verify_cell_axioms(datum)
            if not report.ok:
                raise AxiomViolation(report.witness)
            out[d] = GroupDatumAttachment(datum, list(range(sch.order)), "custom")
            continue
        n = _factorial_arg(sch.order)
        iso = find_symmetric_iso(n, sch) if n is not None else None
        if iso is None:
            raise UnsupportedGroup(
                f"D-class {d}: group of order {sch.order} has no built-in datum (only "
                f"trivial and symmetric groups do); pass a custom datum from Python "
                f"through standard_group_data(custom=...)")
        if n not in builtin:
            builtin[n] = trivial_group_datum(field) if n == 1 else murphy_datum(n, field)
        out[d] = GroupDatumAttachment(builtin[n], iso, "trivial" if n == 1 else f"symmetric({n})")
    return out

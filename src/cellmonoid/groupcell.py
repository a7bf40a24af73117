"""Cell data for the group algebras attached to D-classes: the tableau basis
for symmetric groups, the one-node datum for trivial groups, and user-supplied
data loaded from files.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

from . import cellbasis, verify as verify_mod
from .cellbasis import CellDatum, GroupDatumAttachment
from .exactalg import FieldSpec, Scalar
from .green import SchutzGroup
from .monoid import CellmonoidError, _dump_json, _is_int, _load_json_object


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
# Custom datum files.
#
# Format: {"nodes": [...], "poset": [[higher, lower], ...] (strict covers),
#          "L": {node: size}, "R": {node: size},
#          "basis": {"node/s/t": [[group_index, scalar_string], ...]}}
# ---------------------------------------------------------------------------

def save_custom_datum(d: CellDatum, path) -> None:
    node_labels = [cellbasis._lam_str(nd) for nd in d.nodes]
    covers = []
    for a, b in sorted(d.gt):
        # keep only covering pairs for a compact file
        if not any((a, c) in d.gt and (c, b) in d.gt for c in range(len(d.nodes))):
            covers.append([node_labels[a], node_labels[b]])
    payload = {
        "nodes": node_labels,
        "poset": covers,
        "L": {node_labels[ni]: len(d.lsets[ni]) for ni in range(len(d.nodes))},
        "R": {node_labels[ni]: len(d.rsets[ni]) for ni in range(len(d.nodes))},
        "basis": {
            f"{node_labels[ni]}/{si}/{ti}": sorted(
                [g, str(c)] for g, c in d.basis[(ni, si, ti)].items()
            )
            for (ni, si, ti) in sorted(d.basis)
        },
    }
    _dump_json(payload, path)


def load_custom_datum(path, table: List[List[int]], field: FieldSpec) -> CellDatum:
    """Load and fully validate a user-supplied datum on the group with this
    Cayley table (a SchutzGroup's mult, say).

    The labeled vectors must form a basis and the one-sided multiplication
    conditions are verified over every group element before acceptance.
    """
    data = _load_json_object(path, "nodes", "poset", "L", "R", "basis")
    if not (all(isinstance(data[k], list) for k in ("nodes", "poset"))
            and all(isinstance(data[k], dict) for k in ("L", "R", "basis"))):
        raise ValueError("nodes and poset must be lists; L, R and basis JSON objects")
    node_labels = [str(x) for x in data["nodes"]]
    if len(set(node_labels)) != len(node_labels):
        raise ValueError("duplicate node labels")
    at = {lab: i for i, lab in enumerate(node_labels)}
    if not all(isinstance(p, list) and len(p) == 2 and all(str(v) in at for v in p)
               for p in data["poset"]):
        raise ValueError("poset must list [higher, lower] pairs of declared nodes")
    gt_pairs = [(at[str(hi)], at[str(lo)]) for hi, lo in data["poset"]]
    if not all(_is_int(v) for k in ("L", "R") for v in data[k].values()):
        raise ValueError("L/R sizes must be integers")
    lsizes = {str(k): v for k, v in data["L"].items()}
    rsizes = {str(k): v for k, v in data["R"].items()}
    if set(lsizes) != set(node_labels) or set(rsizes) != set(node_labels):
        raise ValueError("L/R sizes must cover exactly the declared nodes")
    lsets = [[str(i) for i in range(lsizes[lab])] for lab in node_labels]
    rsets = [[str(i) for i in range(rsizes[lab])] for lab in node_labels]
    basis: Dict[Tuple[int, int, int], Dict[int, Scalar]] = {}
    for key, terms in data["basis"].items():
        parts = key.rsplit("/", 2)
        try:
            vkey = (at[parts[0]], int(parts[1]), int(parts[2]))
        except (KeyError, IndexError, ValueError):
            raise ValueError(f"basis key {key!r} is not 'node/s/t' with a declared node") from None
        if vkey in basis:
            raise ValueError(f"basis key {key!r} names the same vector as an earlier key")
        if not isinstance(terms, list) or not all(
                isinstance(u, list) and len(u) == 2 and _is_int(u[0]) for u in terms):
            raise ValueError(f"basis entry {key!r} is not a list of [g, c] pairs")
        vec: Dict[int, Scalar] = {}
        for g, cs in terms:
            if not (0 <= g < len(table)):
                raise ValueError(f"group index {g} out of range")
            c = field.parse_scalar(str(cs))
            if c:
                vec[g] = c
        basis[vkey] = vec
    datum = _group_datum(table, field, node_labels, gt_pairs, lsets, rsets, basis)
    report = verify_mod.verify_cell_axioms(datum, mode="full")
    if not report.ok:
        raise AxiomViolation(report.witness)
    return datum


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
    or the tableau datum for symmetric groups found by isomorphism search."""
    custom = custom or {}
    out: Dict[int, GroupDatumAttachment] = {}
    murphy_cache: Dict[int, CellDatum] = {}
    for d, sch in enumerate(schutzs):
        if d in custom:
            datum = custom[d]
            if datum.dim != sch.order:
                raise UnsupportedGroup(f"D-class {d}: custom datum has the wrong dimension")
            out[d] = GroupDatumAttachment(datum, list(range(sch.order)), "custom")
            continue
        if sch.order == 1:
            datum = trivial_group_datum(field)
            out[d] = GroupDatumAttachment(datum, [sch.identity], "trivial")
            continue
        n = _factorial_arg(sch.order)
        iso = find_symmetric_iso(n, sch) if n is not None else None
        if iso is None:
            raise UnsupportedGroup(
                f"D-class {d}: group of order {sch.order} has no built-in datum (only "
                f"trivial and symmetric groups do); pass a custom datum from Python "
                f"through standard_group_data(custom=...)")
        if n not in murphy_cache:
            murphy_cache[n] = murphy_datum(n, field)
        datum = murphy_cache[n]
        out[d] = GroupDatumAttachment(datum, iso, f"symmetric({n})")
    return out

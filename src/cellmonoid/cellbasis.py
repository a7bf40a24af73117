"""Poset-indexed cell data: assembly on monoid algebras, bilinear brackets,
Gram matrices, and the rank-based quasi-heredity / semisimplicity verdicts.

A CellDatum is carrier-agnostic: the same machinery serves group algebras,
monoid algebras, and twisted monoid algebras.  Elements of the carrier algebra
are sparse dicts {basis element index: scalar}.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from . import green as green_mod
from .exactalg import DenseMatrix, FieldSpec, Scalar, mat_inverse, mat_rank
from .green import EggBox, GreenStructure, SchutzGroup
from .monoid import CellmonoidError, FiniteMonoid, is_inverse, is_regular

SparseVec = Dict[int, Scalar]
Key = Tuple[int, int, int]  # (node index, left position, right position)


class CellBasisError(CellmonoidError):
    pass


class NotABasis(CellBasisError):
    pass


class GroupMismatch(CellBasisError):
    pass


def _transitive_closure(n: int, pairs) -> FrozenSet[Tuple[int, int]]:
    gt = {tuple(p) for p in pairs}
    changed = True
    while changed:
        changed = False
        for a, b in list(gt):
            for c, d in list(gt):
                if b == c and (a, d) not in gt:
                    gt.add((a, d))
                    changed = True
    for a, b in gt:
        if a == b or (b, a) in gt:
            raise ValueError("node order is not a strict partial order")
    return frozenset(gt)


@dataclass
class GroupDatumAttachment:
    """A group-level cell datum together with its gluing onto one D-class:
    iso maps the datum's carrier elements onto Schutzenberger group elements."""

    datum: "CellDatum"
    iso: List[int]
    kind: str


@dataclass
class MonoidAttachment:
    """Everything the assembled datum remembers about its construction."""

    monoid: FiniteMonoid
    green: GreenStructure
    boxes: List[EggBox]
    schutzs: List[SchutzGroup]
    group_data: Dict[int, GroupDatumAttachment]
    node_dclass: List[int]
    node_gnode: List[int]
    matched_g: List[Dict[Tuple[int, int], int]]
    group_summaries: List["GramSummary"]  # per D-class, of its group datum
    twist: Any = None  # set by the twisting layer


class CellDatum:
    """Basis of an algebra labeled by (node, left index, right index) triples.

    The carrier is the algebra spanned by the elements of a Cayley table, with
    its product in mult (see table_mult).  blocks partition both the carrier
    and the label set; within each block the labeled vectors must form a basis
    of the span of the block's carrier elements.  The exact inverse of each
    block is kept as sparse columns, one per carrier element, so a coordinate
    lookup touches only the nonzero terms of its vector.
    """

    def __init__(self, field: FieldSpec, table: List[List[int]],
                 nodes: List, gt_pairs, lsets: List[List], rsets: List[List],
                 basis: Dict[Key, SparseVec],
                 blocks: List[Tuple[Tuple[int, ...], Tuple[Key, ...]]],
                 attach: Optional[MonoidAttachment] = None):
        self.field = field
        self.table = table
        self.dim = dim = len(table)
        self.mult = table_mult(table, field)
        self.nodes = list(nodes)
        self.gt = _transitive_closure(len(self.nodes), gt_pairs)
        self.lsets = [list(s) for s in lsets]
        self.rsets = [list(s) for s in rsets]
        self.basis = dict(basis)
        self.blocks = [(tuple(e), tuple(k)) for e, k in blocks]
        self.attach = attach

        expected = {(ni, si, ti)
                    for ni in range(len(self.nodes))
                    for si in range(len(self.lsets[ni]))
                    for ti in range(len(self.rsets[ni]))}
        if set(self.basis) != expected:
            raise ValueError("basis keys do not match the declared index sets")
        if len(expected) != dim:
            raise NotABasis(f"{len(expected)} labeled vectors cannot span a dimension-{dim} algebra")

        self.higher: List[FrozenSet[int]] = [
            frozenset(a for a, b in self.gt if b == ni) for ni in range(len(self.nodes))
        ]

        self._block_of_elem: Dict[int, int] = {}
        self._inv_cols: Dict[int, List[Tuple[int, Scalar]]] = {}
        seen_keys: Set[Key] = set()
        for bi, (elems, keys) in enumerate(self.blocks):
            if len(elems) != len(keys):
                raise NotABasis(f"block {bi} is not square ({len(elems)} elements, {len(keys)} labels)")
            for e in elems:
                if e in self._block_of_elem:
                    raise ValueError("blocks overlap on the carrier")
                self._block_of_elem[e] = bi
            for k in keys:
                if k in seen_keys:
                    raise ValueError("blocks overlap on the labels")
                seen_keys.add(k)
                support = set(self.basis[k])
                if not support <= set(elems):
                    raise NotABasis(f"vector {k} is not supported inside its block")
            zero = field.zero()
            mat = DenseMatrix.from_rows(field, [
                [self.basis[k].get(e, zero) for k in keys] for e in elems
            ])
            inv = mat_inverse(mat)
            if inv is None:
                raise NotABasis(f"labeled vectors of block {bi} are linearly dependent")
            for c, e in enumerate(elems):
                self._inv_cols[e] = [(r, row[c]) for r, row in enumerate(inv.entries)
                                     if not field.is_zero(row[c])]
        if len(self._block_of_elem) != dim or seen_keys != expected:
            raise ValueError("blocks do not partition the carrier and label set")

    # -- basic views -----------------------------------------------------

    def node_label(self, ni: int) -> str:
        d = self.nodes[ni]
        if isinstance(d, tuple) and len(d) == 2 and isinstance(d[0], int):
            return f"D{d[0]}:{_lam_str(d[1])}"
        return _lam_str(d)

    def unit(self, e: int) -> SparseVec:
        return {e: self.field.one()}

    def twisted(self, weights: List[List[Scalar]], attach) -> "CellDatum":
        """Same labeled basis and solvers over the table's product weighted
        by weights."""
        clone = object.__new__(CellDatum)
        clone.__dict__.update(self.__dict__)
        clone.mult = table_mult(self.table, self.field, weights)
        clone.attach = attach
        return clone

    # -- coordinates -----------------------------------------------------

    def coordinates(self, vec: SparseVec) -> Dict[Key, Scalar]:
        """Exact coordinates of a carrier vector in the labeled basis: blocks
        in the order the vector first touches them, labels in block order."""
        f = self.field
        touched: Dict[int, Dict[int, Scalar]] = {}
        for e, c in vec.items():
            acc = touched.setdefault(self._block_of_elem[e], {})
            for r, w in self._inv_cols[e]:
                v = f.mul(w, c)
                acc[r] = f.add(acc[r], v) if r in acc else v
        out: Dict[Key, Scalar] = {}
        for bi, acc in touched.items():
            keys = self.blocks[bi][1]
            for r in sorted(acc):
                if not f.is_zero(acc[r]):
                    out[keys[r]] = acc[r]
        return out


def _lam_str(lam) -> str:
    if isinstance(lam, tuple):
        return "(" + ",".join(str(v) for v in lam) + ")"
    return str(lam)


def table_mult(table: List[List[int]], field: FieldSpec,
               weights: Optional[List[List[Scalar]]] = None
               ) -> Callable[[SparseVec, SparseVec], SparseVec]:
    """The product of the algebra spanned by the table's elements, on sparse
    vectors: x*y carries the coefficient of ex, ey to table[ex][ey], times
    weights[ex][ey] when weights are given (the twisted product).  Terms a
    zero weight kills are skipped, so key order follows the first nonzero
    contribution; the unweighted loop is kept free of a weight multiply."""
    if weights is None:
        def mult(x: SparseVec, y: SparseVec) -> SparseVec:
            out: Dict[int, Scalar] = {}
            for ex, cx in x.items():
                row = table[ex]
                for ey, cy in y.items():
                    k = row[ey]
                    c = field.mul(cx, cy)
                    out[k] = field.add(out[k], c) if k in out else c
            return {k: v for k, v in out.items() if not field.is_zero(v)}

        return mult

    def weighted(x: SparseVec, y: SparseVec) -> SparseVec:
        out: Dict[int, Scalar] = {}
        for ex, cx in x.items():
            row = table[ex]
            wrow = weights[ex]
            for ey, cy in y.items():
                c = field.mul(field.mul(cx, cy), wrow[ey])
                if field.is_zero(c):
                    continue
                k = row[ey]
                out[k] = field.add(out[k], c) if k in out else c
        return {k: v for k, v in out.items() if not field.is_zero(v)}

    return weighted


# ---------------------------------------------------------------------------
# Assembly of the standard datum on a monoid algebra.
# ---------------------------------------------------------------------------

def _check_iso(gd: GroupDatumAttachment, sch: SchutzGroup, d: int) -> None:
    size = gd.datum.dim
    if sorted(gd.iso) != list(range(sch.order)) or size != sch.order:
        raise GroupMismatch(f"D-class {d}: iso is not a bijection onto the translation group")
    abs_table = gd.datum.table
    for x in range(size):
        for y in range(size):
            if gd.iso[abs_table[x][y]] != sch.mult[gd.iso[x]][gd.iso[y]]:
                raise GroupMismatch(f"D-class {d}: iso is not a homomorphism at ({x}, {y})")


def build_cell_datum(M: FiniteMonoid, gs: GreenStructure, boxes: List[EggBox],
                     schutzs: List[SchutzGroup],
                     group_data: Dict[int, GroupDatumAttachment],
                     field: FieldSpec) -> CellDatum:
    """Assemble the standard labeled basis of the monoid algebra.

    Nodes are pairs (D-class, group node) ordered downward along the D-order:
    a node of a lower D-class sits strictly above every node of a higher one.
    Left labels pair rows (R-classes) with group left indices, right labels
    pair columns (L-classes) with group right indices, and the vector for
    (row i, column j) is the group vector pushed into cell (i, j) by the
    egg-box translations.
    """
    nd = len(gs.dclasses)
    if set(group_data) != set(range(nd)):
        raise ValueError("group data must cover every D-class")
    for d in range(nd):
        _check_iso(group_data[d], schutzs[d], d)

    T = M.table
    nodes: List[Tuple[int, Any]] = []
    node_dclass: List[int] = []
    node_gnode: List[int] = []
    node_at: Dict[Tuple[int, int], int] = {}
    for d in range(nd):
        gdat = group_data[d].datum
        for gn, lab in enumerate(gdat.nodes):
            node_at[(d, gn)] = len(nodes)
            nodes.append((d, lab))
            node_dclass.append(d)
            node_gnode.append(gn)

    gt_pairs = []
    for na in range(len(nodes)):
        for nb in range(len(nodes)):
            da, db = node_dclass[na], node_dclass[nb]
            if (da, db) in gs.dless:
                gt_pairs.append((na, nb))
            elif da == db and (node_gnode[na], node_gnode[nb]) in group_data[da].datum.gt:
                gt_pairs.append((na, nb))

    lsets: List[List] = []
    rsets: List[List] = []
    for ni in range(len(nodes)):
        d, gn = node_dclass[ni], node_gnode[ni]
        box = boxes[d]
        gdat = group_data[d].datum
        lsets.append([(i, s) for i in range(len(box.rows)) for s in gdat.lsets[gn]])
        rsets.append([(j, t) for j in range(len(box.cols)) for t in gdat.rsets[gn]])

    basis: Dict[Key, SparseVec] = {}
    blocks: List[Tuple[Tuple[int, ...], Tuple[Key, ...]]] = []
    for d in range(nd):
        box = boxes[d]
        sch = schutzs[d]
        gd = group_data[d]
        gdat = gd.datum
        rep = [sch.phiR[gd.iso[ga]] for ga in range(gdat.dim)]
        for i in range(len(box.rows)):
            for j in range(len(box.cols)):
                conj = {h: T[T[box.a[i]][h]][box.b[j]] for h in sch.hclass}
                keys: List[Key] = []
                for gn in range(len(gdat.nodes)):
                    ni = node_at[(d, gn)]
                    ls, rs = len(gdat.lsets[gn]), len(gdat.rsets[gn])
                    for sp in range(ls):
                        for tp in range(rs):
                            gvec = gdat.basis[(gn, sp, tp)]
                            vec = {conj[rep[ga]]: c for ga, c in gvec.items()}
                            if len(vec) != len(gvec):
                                raise CellBasisError("cell translation is not injective")
                            key = (ni, i * ls + sp, j * rs + tp)
                            basis[key] = vec
                            keys.append(key)
                blocks.append((tuple(box.grid[i][j]), tuple(keys)))

    matched_g: List[Dict[Tuple[int, int], int]] = []
    for d in range(nd):
        box, sch = boxes[d], schutzs[d]
        mm: Dict[Tuple[int, int], int] = {}
        for i in range(len(box.rows)):
            for j in range(len(box.cols)):
                g = green_mod.matched(box, sch, i, j)
                if g is not None:
                    mm[(i, j)] = g
        matched_g.append(mm)

    group_summaries = [gram_summary(group_data[d].datum) for d in range(nd)]
    attach = MonoidAttachment(M, gs, boxes, schutzs, group_data, node_dclass,
                              node_gnode, matched_g, group_summaries)
    return CellDatum(field, M.table, nodes, gt_pairs, lsets, rsets, basis, blocks, attach)


# ---------------------------------------------------------------------------
# Brackets and Gram matrices.
# ---------------------------------------------------------------------------

def bracket_value(d: CellDatum, ni: int, rpos: int, cpos: int, check: bool = False) -> Scalar:
    """Pairing of right index rpos against left index cpos at node ni.

    The scalar is the coefficient of the (ni, 0, 0) basis vector in X*Y, where
    X carries labels (0, rpos) and Y carries (cpos, 0).  With check, it is
    recomputed with every reference pair (rl, rt) in place of (0, 0), and each
    product must be pure: supported on (ni, rl, rt) and strictly higher nodes.
    """
    f = d.field
    value = None
    for rl in range(len(d.lsets[ni])) if check else (0,):
        for rt in range(len(d.rsets[ni])) if check else (0,):
            coords = d.coordinates(d.mult(d.basis[(ni, rl, rpos)], d.basis[(ni, cpos, rt)]))
            v = coords.get((ni, rl, rt), f.zero())
            for nj, sj, tj in coords if check else ():
                if nj not in d.higher[ni] and (nj != ni or (sj, tj) != (rl, rt)):
                    raise CellBasisError(
                        f"product at node {d.node_label(ni)} has a stray coefficient at "
                        f"({d.node_label(nj)}, {sj}, {tj})")
            if value is None:
                value = v
            elif value != v:
                raise CellBasisError(
                    f"bracket at node {d.node_label(ni)} depends on the reference choice")
    return value


def gram_definition(d: CellDatum, ni: int, check: bool = False) -> DenseMatrix:
    """Gram matrix from the defining products; rows are right indices
    (column, t) and columns are left indices (row, s)."""
    nr, nc = len(d.rsets[ni]), len(d.lsets[ni])
    entries = [[bracket_value(d, ni, r, c, check) for c in range(nc)] for r in range(nr)]
    return DenseMatrix(d.field, nr, nc, entries)


def _left_coefficients(gdat: CellDatum, gn: int, ga: int) -> List[List[Scalar]]:
    """Coefficients of g acting on left indices of group node gn, truncated to
    the node itself: out[s][s'] multiplies the s' label."""
    f = gdat.field
    ls = len(gdat.lsets[gn])
    out = [[f.zero()] * ls for _ in range(ls)]
    unit = gdat.unit(ga)
    for s in range(ls):
        coords = gdat.coordinates(gdat.mult(unit, gdat.basis[(gn, s, 0)]))
        for (nj, sj, tj), c in coords.items():
            if nj == gn and tj == 0:
                out[s][sj] = c
    return out


def gram_fast(d: CellDatum, ni: int) -> DenseMatrix:
    """Gram matrix via group-level brackets: zero on unmatched (row, column)
    pairs, and on matched pairs the group bracket twisted by the matched group
    element.  For a strongly compatible twisting the untwisted fast matrix is
    rescaled blockwise by the matching scale."""
    at = d.attach
    if at is None:
        raise ValueError("gram_fast needs an assembled monoid datum")
    f = d.field
    if at.twist is not None:
        tw = at.twist
        if tw.compat.level != "strong":
            raise ValueError("the scaled fast path needs a strongly compatible twisting")
        base = gram_fast(tw.base, ni)
        return _scale_blocks(d, ni, base, tw.scales)

    dcl, gn = at.node_dclass[ni], at.node_gnode[ni]
    box = at.boxes[dcl]
    gd = at.group_data[dcl]
    gdat = gd.datum
    ls, rs = len(gdat.lsets[gn]), len(gdat.rsets[gn])
    ggram = at.group_summaries[dcl].grams[gn]
    inv_map = {g: ga for ga, g in enumerate(gd.iso)}
    act_cache: Dict[int, List[List[Scalar]]] = {}

    nrow, ncol = len(d.rsets[ni]), len(d.lsets[ni])
    entries = [[f.zero()] * ncol for _ in range(nrow)]
    for j in range(len(box.cols)):
        for i in range(len(box.rows)):
            g = at.matched_g[dcl].get((i, j))
            if g is None:
                continue
            ga = inv_map[g]
            if ga not in act_cache:
                act_cache[ga] = _left_coefficients(gdat, gn, ga)
            L = act_cache[ga]
            for t in range(rs):
                grow = ggram.entries[t]
                for s in range(ls):
                    acc = f.zero()
                    for s2 in range(ls):
                        lv = L[s][s2]
                        if not f.is_zero(lv) and not f.is_zero(grow[s2]):
                            acc = f.add(acc, f.mul(lv, grow[s2]))
                    entries[j * rs + t][i * ls + s] = acc
    return DenseMatrix(f, nrow, ncol, entries)


def _scale_blocks(d: CellDatum, ni: int, base: DenseMatrix, scales) -> DenseMatrix:
    at = d.attach
    f = d.field
    dcl, gn = at.node_dclass[ni], at.node_gnode[ni]
    gdat = at.group_data[dcl].datum
    ls, rs = len(gdat.lsets[gn]), len(gdat.rsets[gn])
    entries = [[f.zero()] * base.cols for _ in range(base.rows)]
    for (dd, i, j), c in scales.items():
        if dd != dcl:
            continue
        for t in range(rs):
            for s in range(ls):
                entries[j * rs + t][i * ls + s] = f.mul(c, base.entries[j * rs + t][i * ls + s])
    return DenseMatrix(f, base.rows, base.cols, entries)


# ---------------------------------------------------------------------------
# Nonzero-bracket nodes, irreducible dimensions, verdicts.
# ---------------------------------------------------------------------------

@dataclass
class GramSummary:
    """Every Gram matrix of a datum, each built and ranked once, with the
    verdicts read off the ranks."""

    grams: List[DenseMatrix]
    ranks: List[int]
    lambda0: Set[int]  # nodes with a nonzero Gram
    dims: Dict[int, int]  # Gram rank per lambda0 node: the irreducible dimensions
    quasi_hereditary: bool
    qh_failing: List[str]  # labels of the zero-Gram nodes
    semisimple: bool
    ss_certificate: Optional[str]  # the first node whose Gram is not square or singular


def gram_summary(d: CellDatum) -> GramSummary:
    """Build and rank every Gram matrix of d once; read the verdicts off the ranks."""
    grams = [gram_definition(d, ni) for ni in range(len(d.nodes))]
    ranks = [mat_rank(g) for g in grams]
    l0 = {ni for ni, r in enumerate(ranks) if r > 0}
    failing = [d.node_label(ni) for ni, r in enumerate(ranks) if r == 0]
    certificate = None
    for ni, (g, r) in enumerate(zip(grams, ranks)):
        if g.rows != g.cols:
            certificate = f"node {d.node_label(ni)}: Gram is {g.rows}x{g.cols}, not square"
        elif r != g.rows:
            certificate = f"node {d.node_label(ni)}: Gram rank {r} < {g.rows}"
        if certificate is not None:
            break
    return GramSummary(grams, ranks, l0, {ni: ranks[ni] for ni in sorted(l0)},
                       not failing, failing, certificate is None, certificate)


def _dual_path_applicable(d: CellDatum) -> bool:
    at = d.attach
    return at is not None and (at.twist is None or at.twist.compat.level == "strong")


def lambda0_via_matching(d: CellDatum) -> Set[int]:
    """Nodes with a matched pair in their D-class and a nonzero group bracket."""
    at = d.attach
    if at is None:
        raise ValueError("matching path needs an assembled monoid datum")
    return {ni for ni, (dcl, gn) in enumerate(zip(at.node_dclass, at.node_gnode))
            if at.matched_g[dcl] and gn in at.group_summaries[dcl].lambda0}


# ---------------------------------------------------------------------------
# Full analysis with internal cross-checks.
# ---------------------------------------------------------------------------

def _entry(name: str, status: str, detail: str = "") -> Dict[str, str]:
    return {"name": name, "status": status, "detail": detail}


def _check(name: str, ok: bool, detail: str = "") -> Dict[str, str]:
    return _entry(name, "pass" if ok else "fail", detail)


@dataclass
class AnalysisReport:
    field: str
    size: int
    regular: bool
    inverse: bool
    dclasses: List[Dict]
    nodes: List[Dict]
    lambda0: List[str]
    quasi_hereditary: bool
    qh_failing: List[str]
    semisimple: bool
    ss_certificate: Optional[str]
    dim_sq_sum: int
    checks: List[Dict]

    def to_dict(self) -> Dict:
        return asdict(self)


def analyze(d: CellDatum) -> AnalysisReport:
    """Compute every verdict with its dual-path cross-checks.

    Cross-check failures are recorded in the report (status "fail"), never
    raised: a counterexample at this scale is a finding to surface.
    """
    at = d.attach
    if at is None:
        raise ValueError("analyze needs an assembled monoid datum")
    f = d.field
    M = at.monoid
    summary = gram_summary(d)
    grams, ranks, l0 = summary.grams, summary.ranks, summary.lambda0
    checks: List[Dict] = []
    dual_ok = _dual_path_applicable(d)

    # dual-route node set
    if dual_ok:
        l0b = lambda0_via_matching(d)
        checks.append(_check("lambda0_dual_path", l0 == l0b,
                             "direct nonzero-bracket nodes vs matched-pair route"))
    else:
        checks.append(_entry("lambda0_dual_path", "skip", "twisting is not strongly compatible"))

    # fast Gram route
    if dual_ok:
        bad = [d.node_label(ni) for ni in range(len(d.nodes))
               if gram_fast(d, ni).entries != grams[ni].entries]
        checks.append(_check("gram_fast_vs_definition", not bad, ";".join(bad)))
    else:
        checks.append(_entry("gram_fast_vs_definition", "skip", "twisting is not strongly compatible"))

    # unmatched blocks vanish (holds for any twisting)
    bad_blocks = []
    for ni in range(len(d.nodes)):
        dcl, gn = at.node_dclass[ni], at.node_gnode[ni]
        gdat = at.group_data[dcl].datum
        ls, rs = len(gdat.lsets[gn]), len(gdat.rsets[gn])
        mm = at.matched_g[dcl]
        g = grams[ni]
        box = at.boxes[dcl]
        for j in range(len(box.cols)):
            for i in range(len(box.rows)):
                if (i, j) in mm:
                    continue
                for t in range(rs):
                    for s in range(ls):
                        if not f.is_zero(g.entries[j * rs + t][i * ls + s]):
                            bad_blocks.append(f"{d.node_label(ni)}@({i},{j})")
    checks.append(_check("unmatched_blocks_zero", not bad_blocks, ";".join(bad_blocks[:5])))

    # label count
    total = sum(len(d.lsets[ni]) * len(d.rsets[ni]) for ni in range(len(d.nodes)))
    checks.append(_check("basis_count", total == M.size, f"{total} labels for {M.size} elements"))

    # radical inheritance: a rank-deficient group Gram forces the same
    # deficiency on the assembled Gram (both column and row versions)
    if dual_ok:
        bad_rad = []
        for ni in range(len(d.nodes)):
            dcl, gn = at.node_dclass[ni], at.node_gnode[ni]
            gg = at.group_summaries[dcl].grams[gn]
            gr = at.group_summaries[dcl].ranks[gn]
            if gr < gg.cols and ranks[ni] >= grams[ni].cols:
                bad_rad.append(f"{d.node_label(ni)} (columns)")
            if gr < gg.rows and ranks[ni] >= grams[ni].rows:
                bad_rad.append(f"{d.node_label(ni)} (rows)")
        checks.append(_check("radical_inheritance", not bad_rad, ";".join(bad_rad)))
    else:
        checks.append(_entry("radical_inheritance", "skip", "twisting is not strongly compatible"))

    ss = summary.semisimple
    dim_sq = sum(v * v for v in summary.dims.values())

    checks.append(_check("ss_dimension_identity", (dim_sq == M.size) == ss,
                         f"sum of squared dims {dim_sq} vs size {M.size}, semisimple={ss}"))

    regular = is_regular(M)
    inverse = is_inverse(M)
    bijections = {dcl: green_mod.bijection_condition(at.boxes[dcl], at.schutzs[dcl])
                  for dcl in range(len(at.boxes))}
    all_group_ss = all(gsum.semisimple for gsum in at.group_summaries)
    all_bijection = all(bij is not None for bij in bijections.values())
    all_group_l0_full = all(gsum.quasi_hereditary for gsum in at.group_summaries)

    if dual_ok:
        checks.append(_check("ss_groups_necessary", all_group_ss or not ss,
                             "a non-semisimple group algebra forbids a semisimple verdict"))
        if inverse:
            checks.append(_check("ss_inverse_iff_groups", ss == all_group_ss,
                                 f"verdict {ss} vs all groups semisimple {all_group_ss}"))
        else:
            checks.append(_entry("ss_inverse_iff_groups", "skip", "monoid is not inverse"))
        checks.append(_check("ss_bijection_sufficient",
                             ss or not (all_group_ss and all_bijection),
                             "semisimple groups plus matched pairings force semisimplicity"))
        checks.append(_check("qh_regular_sufficient",
                             summary.quasi_hereditary or not (regular and all_group_l0_full),
                             "regular monoid with full group node sets forces quasi-heredity"))
    else:
        for name in ("ss_groups_necessary", "ss_inverse_iff_groups",
                     "ss_bijection_sufficient", "qh_regular_sufficient"):
            checks.append(_entry(name, "skip", "twisting is not strongly compatible"))

    dsummaries = []
    for dcl in range(len(at.boxes)):
        box = at.boxes[dcl]
        gd = at.group_data[dcl]
        gsum = at.group_summaries[dcl]
        mm = at.matched_g[dcl]
        bij = bijections[dcl]
        dsummaries.append({
            "id": dcl,
            "size": len(at.green.dclasses[dcl]),
            "rows": len(box.rows),
            "cols": len(box.cols),
            "hsize": len(at.schutzs[dcl].hclass),
            "group_order": at.schutzs[dcl].order,
            "group_kind": gd.kind,
            "group_lambda0": [_lam_str(gd.datum.nodes[gn]) for gn in sorted(gsum.lambda0)],
            "group_semisimple": gsum.semisimple,
            "bijection": sorted([j, i] for j, i in bij.items()) if bij is not None else None,
            "matched": [[(i, j) in mm for j in range(len(box.cols))] for i in range(len(box.rows))],
        })

    node_dicts = []
    for ni in range(len(d.nodes)):
        node_dicts.append({
            "d": at.node_dclass[ni],
            "label": d.node_label(ni),
            "l_size": len(d.lsets[ni]),
            "r_size": len(d.rsets[ni]),
            "in_lambda0": ni in l0,
            "gram_rank": ranks[ni],
        })

    return AnalysisReport(
        field=f.spec_string(),
        size=M.size,
        regular=regular,
        inverse=inverse,
        dclasses=dsummaries,
        nodes=node_dicts,
        lambda0=[d.node_label(ni) for ni in sorted(l0)],
        quasi_hereditary=summary.quasi_hereditary,
        qh_failing=summary.qh_failing,
        semisimple=ss,
        ss_certificate=summary.ss_certificate,
        dim_sq_sum=dim_sq,
        checks=checks,
    )

"""Poset-indexed cell data: assembly on monoid algebras, bilinear brackets,
Gram matrices, and the rank-based quasi-heredity / semisimplicity verdicts.

A CellDatum is carrier-agnostic: the same machinery serves group algebras,
monoid algebras, and twisted monoid algebras.  Elements of the carrier algebra
are sparse dicts {basis element index: scalar}.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import green as green_mod
from .exactalg import DenseMatrix, FieldSpec, Scalar, mat_inverse, mat_rank
from .green import EggBox, GreenStructure, SchutzGroup
from .monoid import CellmonoidError, FiniteMonoid

SparseVec = Dict[int, Scalar]
Key = Tuple[int, int, int]  # (node index, left position, right position)


class CellBasisError(CellmonoidError):
    pass


class NotABasis(CellBasisError):
    pass


class GroupMismatch(CellBasisError):
    pass


class GroupDatumAttachment(NamedTuple):
    """A group-level cell datum together with its gluing onto one D-class:
    iso maps the datum's carrier elements onto Schutzenberger group elements."""

    datum: "CellDatum"
    iso: List[int]
    kind: str


class MonoidAttachment(NamedTuple):
    """Everything the assembled datum remembers about its construction."""

    monoid: FiniteMonoid
    green: GreenStructure
    boxes: List[EggBox]
    group_data: Dict[int, GroupDatumAttachment]
    node_dclass: List[int]
    node_gnode: List[int]
    matched_g: List[Dict[Tuple[int, int], int]]
    group_summaries: List["GramSummary"]  # per D-class, of its group datum


class CellDatum:
    """Basis of an algebra labeled by (node, left index, right index) triples.

    The carrier is the algebra spanned by the elements of a Cayley table, with
    its product in mult (see table_mult), weighted by weights under a twisting
    (None otherwise); lawful marks them a proven unital 2-cocycle.  blocks
    partition both the carrier and the label set; within each block the labeled
    vectors must form a basis of the span of the block's carrier elements.  The
    exact inverse of each block is kept as sparse columns, one per carrier
    element, so a coordinate lookup touches only the nonzero terms.  Given
    inv_cols, those columns are taken as they are and no block is inverted:
    build_cell_datum passes its group data's columns, relabelled.  gt_pairs may
    be any pairs (a, b), node a above node b, that generate the node order: the
    datum closes them into higher, with higher[b] the nodes above b.  A cycle,
    a self-pair or a node outside range(len(nodes)) raises ValueError.
    """

    def __init__(self, field: FieldSpec, table: List[List[int]],
                 nodes: List, gt_pairs, lsets: List[List], rsets: List[List],
                 basis: Dict[Key, SparseVec],
                 blocks: List[Tuple[Tuple[int, ...], Tuple[Key, ...]]],
                 attach: Optional[MonoidAttachment] = None,
                 inv_cols: Optional[Dict[int, List[Tuple[int, Scalar]]]] = None):
        self.field = field
        self.table = table
        self.dim = dim = len(table)
        self.weights: Optional[Sequence[Sequence[Scalar]]] = None
        self.lawful = False
        self.mult = table_mult(table, field)
        self.nodes = list(nodes)
        self.higher: List[FrozenSet[int]] = green_mod.strict_order(len(self.nodes), gt_pairs)
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

        self._block_of_elem: Dict[int, int] = {}
        self._inv_cols = {} if inv_cols is None else inv_cols
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
            if inv_cols is not None:
                continue
            grid = [[self.basis[k].get(e, 0) for k in keys] for e in elems]
            inv = mat_inverse(DenseMatrix.from_rows(field, grid))
            if inv is None:
                raise NotABasis(f"labeled vectors of block {bi} are linearly dependent")
            for c, e in enumerate(elems):
                self._inv_cols[e] = [(r, row[c]) for r, row in enumerate(inv.entries) if row[c]]
        if len(self._block_of_elem) != dim or seen_keys != expected:
            raise ValueError("blocks do not partition the carrier and label set")

    # -- basic views -----------------------------------------------------

    def node_label(self, ni: int) -> str:
        """D<d>:<label> for an assembled node, a pair (D-class d, group label)
        whose label is not an int; otherwise the node itself, as (2,1)."""
        d = self.nodes[ni]
        if isinstance(d, tuple) and len(d) == 2 and isinstance(d[0], int) and not isinstance(d[1], int):
            return f"D{d[0]}:{_lam_str(d[1])}"
        return _lam_str(d)

    def unit(self, e: int) -> SparseVec:
        return {e: 1}

    def twisted(self, weights: Sequence[Sequence[Scalar]]) -> "CellDatum":
        """Same labeled basis, solvers and attachment over the table's product
        weighted by weights, the twisting's one copy (see weighted_sandwich),
        unmarked: verify_cell_axioms acts on it by every element."""
        clone = object.__new__(CellDatum)
        clone.__dict__.update(self.__dict__)
        clone.weights, clone.lawful = weights, False
        clone.mult = table_mult(self.table, self.field, weights)
        return clone

    # -- coordinates -----------------------------------------------------

    def coordinates(self, vec: SparseVec) -> Dict[Key, Scalar]:
        """Exact coordinates of a carrier vector in the labeled basis: blocks
        in the order its nonzero terms first touch them, labels in block order."""
        return self._coordinates(vec, frozenset())

    def product_coordinates(self, a: int, vec: SparseVec, left: bool,
                            low: FrozenSet[int]) -> Dict[Key, Scalar]:
        """The coordinates of the terms outside low of mult(unit(a), vec), or
        of mult(vec, unit(a)) when not left, with no product built: the raw sums
        per product element, read off table and weights in mult's order, go
        straight to _coordinates."""
        T, W, row = self.table, self.weights, self.table[a]
        sums: Dict[int, Scalar] = {}
        for e, c in vec.items():
            if W is not None:
                c = c * (W[a][e] if left else W[e][a])
                if not c:
                    continue
            k = row[e] if left else T[e][a]
            sums[k] = sums[k] + c if k in sums else c
        return self._coordinates(sums, low)

    def _coordinates(self, sums: SparseVec, low: FrozenSet[int]) -> Dict[Key, Scalar]:
        """Coordinates of the terms of sums outside low: each term is reduced
        once and, when nonzero, goes through its inverse column into its
        block's sums, blocks in the order such terms first touch them; each
        label's sum is reduced once and kept when nonzero, in block order."""
        p, blocks, block_of, inv = self.field.p, self.blocks, self._block_of_elem, self._inv_cols
        touched: Dict[int, List[Scalar]] = {}
        for e, c in sums.items():
            c = c if p is None else c % p
            if not c or e in low:
                continue
            bi = block_of[e]
            acc = touched.get(bi)
            if acc is None:
                acc = touched[bi] = [0] * len(blocks[bi][1])
            for r, w in inv[e]:
                acc[r] += w * c
        out: Dict[Key, Scalar] = {}
        for bi, acc in touched.items():
            keys = blocks[bi][1]
            for r, v in enumerate(acc):
                v = v if p is None else v % p
                if v:
                    out[keys[r]] = v
        return out


def _lam_str(lam) -> str:
    if isinstance(lam, tuple):
        return "(" + ",".join(str(v) for v in lam) + ")"
    return str(lam)


def table_mult(table: List[List[int]], field: FieldSpec,
               weights: Optional[Sequence[Sequence[Scalar]]] = None
               ) -> Callable[[SparseVec, SparseVec], SparseVec]:
    """The product of the algebra spanned by the table's elements, on sparse
    vectors: x*y carries the coefficient of ex, ey to table[ex][ey], times
    weights[ex][ey] when weights are given (the twisted product).  Terms a
    zero weight kills are skipped, so key order follows the first nonzero
    contribution; the unweighted loop is kept free of a weight multiply.
    Sums are taken on the raw products and reduced inline once per key: mod
    p over a prime field, and zeros dropped (over the rationals the sums are
    returned as they are when none is 0).  The weighted loop may test the raw
    product for zero: a product of canonical residues mod a prime is 0 only
    when a factor is 0, so the raw product is 0 exactly when its reduction is."""
    p = field.p
    if weights is None:
        def mult(x: SparseVec, y: SparseVec) -> SparseVec:
            out: Dict[int, Scalar] = {}
            for ex, cx in x.items():
                row = table[ex]
                for ey, cy in y.items():
                    k = row[ey]
                    out[k] = out[k] + cx * cy if k in out else cx * cy
            if p is None:
                return out if all(out.values()) else {k: v for k, v in out.items() if v}
            return {k: r for k, v in out.items() if (r := v % p)}

        return mult

    def weighted(x: SparseVec, y: SparseVec) -> SparseVec:
        out: Dict[int, Scalar] = {}
        for ex, cx in x.items():
            row = table[ex]
            wrow = weights[ex]
            for ey, cy in y.items():
                c = cx * cy * wrow[ey]
                if not c:
                    continue
                k = row[ey]
                out[k] = out[k] + c if k in out else c
        if p is None:
            return out if all(out.values()) else {k: v for k, v in out.items() if v}
        return {k: r for k, v in out.items() if (r := v % p)}

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
    egg-box translations.  So each cell's block is its group datum's with
    the carrier relabelled, and its inverse columns are the group datum's.
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
    dnodes: List[List[int]] = []  # per D-class: its nodes, in group node order
    for d in range(nd):
        gdat = group_data[d].datum
        dnodes.append(list(range(len(nodes), len(nodes) + len(gdat.nodes))))
        for gn, lab in enumerate(gdat.nodes):
            nodes.append((d, lab))
            node_dclass.append(d)
            node_gnode.append(gn)

    gt_pairs = [(na, nb) for db, below in enumerate(gs.ddown) for da in below
                for na in dnodes[da] for nb in dnodes[db]]
    gt_pairs += [(dnodes[d][ga], dnodes[d][gb]) for d in range(nd)
                 for gb, above in enumerate(group_data[d].datum.higher) for ga in above]

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
    inv_cols: Dict[int, List[Tuple[int, Scalar]]] = {}
    for d in range(nd):
        box = boxes[d]
        sch = schutzs[d]
        gd = group_data[d]
        gdat = gd.datum
        rep = [sch.phiR[gd.iso[ga]] for ga in range(gdat.dim)]
        # A cell lists its keys in the sorted order of the group keys.
        pos = {k: r for r, k in enumerate(sorted(gdat.basis))}
        gcols = [[(pos[gdat.blocks[gdat._block_of_elem[ga]][1][r]], w)
                  for r, w in gdat._inv_cols[ga]] for ga in range(gdat.dim)]
        for i in range(len(box.rows)):
            for j in range(len(box.cols)):
                ai, bj = box.a[i], box.b[j]
                cell = [T[T[ai][h]][bj] for h in rep]  # carrier element of each group element
                if len(set(cell)) != len(cell):
                    raise CellBasisError("cell translation is not injective")
                inv_cols.update(zip(cell, gcols))
                keys: List[Key] = []
                for gn in range(len(gdat.nodes)):
                    ni = dnodes[d][gn]
                    ls, rs = len(gdat.lsets[gn]), len(gdat.rsets[gn])
                    for sp in range(ls):
                        for tp in range(rs):
                            gvec = gdat.basis[(gn, sp, tp)]
                            vec = {cell[ga]: c for ga, c in gvec.items()}
                            key = (ni, i * ls + sp, j * rs + tp)
                            basis[key] = vec
                            keys.append(key)
                blocks.append((tuple(box.grid[i][j]), tuple(keys)))

    matched_g = [green_mod.sandwich(M, gs, boxes[d], schutzs[d]) for d in range(nd)]
    group_summaries = [gram_summary(group_data[d].datum) for d in range(nd)]
    attach = MonoidAttachment(M, gs, boxes, group_data, node_dclass, node_gnode,
                              matched_g, group_summaries)
    return CellDatum(field, M.table, nodes, gt_pairs, lsets, rsets, basis, blocks, attach,
                     inv_cols)


# ---------------------------------------------------------------------------
# Brackets and Gram matrices.
# ---------------------------------------------------------------------------

def bracket_value(d: CellDatum, ni: int, rpos: int, cpos: int) -> Scalar:
    """Pairing of right index rpos against left index cpos at node ni: the
    coefficient of the (ni, 0, 0) basis vector in X*Y, where X carries labels
    (0, rpos) and Y carries (cpos, 0).  The one-sided conditions make it the
    same for every reference pair in place of (0, 0)."""
    product = d.mult(d.basis[(ni, 0, rpos)], d.basis[(ni, cpos, 0)])
    return d.coordinates(product).get((ni, 0, 0), 0)


def gram_definition(d: CellDatum, ni: int) -> DenseMatrix:
    """Gram matrix from the defining products; rows are right indices
    (column, t) and columns are left indices (row, s)."""
    nr, nc = len(d.rsets[ni]), len(d.lsets[ni])
    entries = [[bracket_value(d, ni, r, c) for c in range(nc)] for r in range(nr)]
    return DenseMatrix(d.field, nr, nc, entries)


def _left_coefficients(gdat: CellDatum, gn: int, ga: int) -> List[List[Scalar]]:
    """Coefficients of g acting on left indices of group node gn, truncated to
    the node itself: out[s][s'] multiplies the s' label."""
    ls = len(gdat.lsets[gn])
    out = [[0] * ls for _ in range(ls)]
    unit = gdat.unit(ga)
    for s in range(ls):
        coords = gdat.coordinates(gdat.mult(unit, gdat.basis[(gn, s, 0)]))
        for (nj, sj, tj), c in coords.items():
            if nj == gn and tj == 0:
                out[s][sj] = c
    return out


def weighted_sandwich(d: CellDatum, dcl: int) -> Dict[Tuple[int, int], Tuple[int, Scalar]]:
    """{(row i, column j): (group element, scale)} for the sandwich entries of
    D-class dcl with a nonzero scale: the datum's weight on the entry's
    representative product gamma*b[j] by a[i]*gamma, 1 untwisted.  A
    compatible twisting has that weight on every cell pair of the entry."""
    at, T, W = d.attach, d.table, d.weights
    box = at.boxes[dcl]
    scaled = {(i, j): (g, 1 if W is None else W[T[box.gamma][box.b[j]]][T[box.a[i]][box.gamma]])
              for (i, j), g in at.matched_g[dcl].items()}
    return {ij: entry for ij, entry in scaled.items() if entry[1]}


def gram_fast(d: CellDatum, ni: int) -> DenseMatrix:
    """Gram matrix via group-level brackets, read off the weighted sandwich:
    zero outside it, and on its entry (i, j) the group bracket twisted by the
    entry's group element and multiplied by the entry's scale, the twisting's
    value on the pair's representative product (1 untwisted).  A zero scale
    zeroes its block, so this holds under every compatible twisting."""
    at = d.attach
    if at is None:
        raise ValueError("gram_fast needs an assembled monoid datum")
    f = d.field
    dcl, gn = at.node_dclass[ni], at.node_gnode[ni]
    gd = at.group_data[dcl]
    gdat = gd.datum
    ls, rs = len(gdat.lsets[gn]), len(gdat.rsets[gn])
    ggram = at.group_summaries[dcl].grams[gn]
    inv_map = {g: ga for ga, g in enumerate(gd.iso)}
    act_cache: Dict[int, List[List[Scalar]]] = {}

    nrow, ncol = len(d.rsets[ni]), len(d.lsets[ni])
    entries = [[0] * ncol for _ in range(nrow)]
    for (i, j), (g, scale) in weighted_sandwich(d, dcl).items():
        ga = inv_map[g]
        if ga not in act_cache:
            act_cache[ga] = _left_coefficients(gdat, gn, ga)
        L = act_cache[ga]
        for t in range(rs):
            grow = ggram.entries[t]
            for s in range(ls):
                acc = sum(lv * gv for lv, gv in zip(L[s], grow) if lv and gv)
                entries[j * rs + t][i * ls + s] = f.norm(scale * acc)
    return DenseMatrix(f, nrow, ncol, entries)


# ---------------------------------------------------------------------------
# Nonzero-bracket nodes, irreducible dimensions, verdicts.
# ---------------------------------------------------------------------------

class GramSummary(NamedTuple):
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


def lambda0_via_matching(d: CellDatum) -> Set[int]:
    """Nodes with an entry in their D-class's weighted sandwich and a nonzero
    group bracket: the Gram's blocks are the group Gram times invertible
    actions and nonzero scales there, and zero elsewhere."""
    at = d.attach
    if at is None:
        raise ValueError("matching path needs an assembled monoid datum")
    return {ni for ni, (dcl, gn) in enumerate(zip(at.node_dclass, at.node_gnode))
            if weighted_sandwich(d, dcl) and gn in at.group_summaries[dcl].lambda0}


# ---------------------------------------------------------------------------
# Full analysis with internal cross-checks.
# ---------------------------------------------------------------------------

def _entry(name: str, status: str, detail: str = "") -> Dict[str, str]:
    return {"name": name, "status": status, "detail": detail}


def _check(name: str, ok: bool, detail: str = "") -> Dict[str, str]:
    return _entry(name, "pass" if ok else "fail", detail)


class AnalysisReport(NamedTuple):
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
        return self._asdict()


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

    # dual-route node set
    checks.append(_check("lambda0_dual_path", l0 == lambda0_via_matching(d),
                         "direct nonzero-bracket nodes vs matched-pair route"))

    # fast Gram route
    bad = [d.node_label(ni) for ni in range(len(d.nodes))
           if gram_fast(d, ni).entries != grams[ni].entries]
    checks.append(_check("gram_fast_vs_definition", not bad, ";".join(bad)))

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
                        if g.entries[j * rs + t][i * ls + s]:
                            bad_blocks.append(f"{d.node_label(ni)}@({i},{j})")
    checks.append(_check("unmatched_blocks_zero", not bad_blocks, ";".join(bad_blocks[:5])))

    # label count
    total = sum(len(d.lsets[ni]) * len(d.rsets[ni]) for ni in range(len(d.nodes)))
    checks.append(_check("basis_count", total == M.size, f"{total} labels for {M.size} elements"))

    # radical inheritance: a rank-deficient group Gram forces the same
    # deficiency on the assembled Gram (both column and row versions)
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

    ss = summary.semisimple
    dim_sq = sum(v * v for v in summary.dims.values())

    checks.append(_check("ss_dimension_identity", (dim_sq == M.size) == ss,
                         f"sum of squared dims {dim_sq} vs size {M.size}, semisimple={ss}"))

    regular, inverse = green_mod.regular_and_inverse(M, at.green)
    bijections = {dcl: green_mod.bijection_condition(at.boxes[dcl], at.matched_g[dcl])
                  for dcl in range(len(at.boxes))}
    # the sandwich checks read the weighted sandwich, which is the sandwich
    # itself when no scale is zero
    weighted = [weighted_sandwich(d, dcl) for dcl in range(len(at.boxes))]
    all_group_ss = all(gsum.semisimple for gsum in at.group_summaries)
    all_bijection = all(green_mod.bijection_condition(box, w) is not None
                        for box, w in zip(at.boxes, weighted))
    all_group_l0_full = all(gsum.quasi_hereditary for gsum in at.group_summaries)

    checks.append(_check("ss_groups_necessary", all_group_ss or not ss,
                         "a non-semisimple group algebra forbids a semisimple verdict"))
    if inverse:
        checks.append(_check("ss_inverse_iff_groups", ss == (all_group_ss and all_bijection),
                             f"verdict {ss} vs all groups semisimple {all_group_ss}"
                             + ("" if all_bijection else ", weighted sandwich not a permutation")))
    else:
        checks.append(_entry("ss_inverse_iff_groups", "skip", "monoid is not inverse"))
    checks.append(_check("ss_bijection_sufficient",
                         ss or not (all_group_ss and all_bijection),
                         "semisimple groups plus matched pairings force semisimplicity"))
    checks.append(_check("qh_regular_sufficient",
                         summary.quasi_hereditary
                         or not (regular and all_group_l0_full and all(weighted)),
                         "regular monoid with full group node sets forces quasi-heredity"))

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
            "hsize": len(box.grid[0][0]),
            "group_order": gd.datum.dim,
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

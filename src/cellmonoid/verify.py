"""Independent verification: the one-sided multiplication axiom checker for
cell data, with the walk of middles it shares with twist.verify_twisting, a
trace-form semisimplicity oracle for characteristic zero, and the dual-path
cross-check ledger.  The checker proves no twisting law: it trusts only the
laws build_twisted_cell_datum proved, and acts by every element otherwise.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence

from .exactalg import DenseMatrix, FieldSpec, Scalar, certified_nonsingular, mat_rank
from .monoid import CellmonoidError


class WrongCharacteristic(CellmonoidError):
    pass


class AxiomReport(NamedTuple):
    """verify_cell_axioms' verdict: mode is always "full", acting_count the dimension."""

    mode: str
    ok: bool
    witness: Optional[Dict]
    acting_count: int

    def to_dict(self) -> Dict:
        return self._asdict()


def verify_cell_axioms(datum) -> AxiomReport:
    """Check both one-sided multiplication conditions of the labeled basis.

    For every acting element a and node: the coordinates of a * C[s,t] must be
    supported on the node itself (same right index t, coefficients depending
    only on (s, s')) plus strictly higher nodes; dually for C[s,t] * a.  The
    report's mode is always "full" and its acting_count the dimension: the
    verdict and witness are those of the plain scan over every element.
    An untwisted datum with a monoid M attached, or one marked lawful (see
    twist.build_twisted_cell_datum), is acted on first by S =
    cocycle_middles(table, weights, M.gens, identity).  The conditions are
    linear in the actor and pass to products: a walk step gives e_x =
    weights[x'][g]**-1 (e_x' o e_g) with g in S, so (e_x' o e_g) o C = e_x' o
    (e_g o C); an actor that passes keeps the span of each node's higher nodes
    (the order is transitive), so the conditions pass to e_x by induction from
    e_1, the unit; dually on the right.  This needs the product associative
    and unital: every CellDatum table is, and so is its product under weights
    proven a unital 2-cocycle.  Any other datum, a bare CellDatum.twisted or
    one with no monoid attached, is acted on by every element.  When S finds
    a failure, every element acts again, in index order, so the witness is
    the plain scan's.

    The conditions are checked per unit: a left unit is (node, s) with all its
    right indices t, a right unit (node, t) with all its left indices s.  Let
    U list the union of a unit's supports in vector order, and let its
    pattern be its vectors with each term c_e*e written as the pair (position
    of e in U, c_e).  Under actor a the unit's products are the sums of
    c_e*w_e*p_e with p_e = table[a][e] and w_e = weights[a][e] (1 untwisted);
    on the right p_e = table[e][a] and w_e = weights[e][a].  So units of one
    node and side with equal patterns make equal product vectors for equal
    keys (the p_e, then the w_e, in U's order), hence equal coordinates; a
    unit's fixed index enters only the failure text.  Such units share one
    set of passed keys: an actor whose key already passed is skipped,
    exactly, and a key not yet passed is checked on the unit itself, so a
    failure is computed on, and names, that unit.  Row and column translates
    of a unit have its pattern, so they share its keys.

    Coordinates on strictly higher nodes are ignored, so the check skips the
    products that can only land there.  Let low[ni] be the carrier elements
    of the blocks whose labels all belong to nodes in datum.higher[ni].
    Coordinates are block-local: a carrier element's coordinates lie on the
    labels of its own block, so the terms of a product in low[ni] have
    coordinates only on higher nodes.  A key whose p_e all lie in low[ni]
    passes without a product.  Otherwise datum.product_coordinates sums each
    product's raw coefficients per element off the table and the weights,
    with no product vector built, and returns exactly the coordinates of its
    terms outside low[ni], in coordinates' order.  Both skips drop only coordinates the
    check would ignore, and dropping whole blocks keeps the order of the
    rest, so verdicts and witnesses are exact.
    low is read from datum.higher, never from Green's order, so a datum with
    a wrong node order still fails.  In the standard datum a block is one
    H-class, labelled by nodes of its own D-class, and those nodes sit above
    every node of a D-class over it: a product that drops to a lower D-class
    lands in low[ni].

    The first failure is reported in the order acting, node, left before
    right, then (t, s) on the left and (s, t) on the right.
    """
    T, W = datum.table, datum.weights
    low = []  # per node: the carrier elements of blocks labelled only above it
    groups = []  # per node and side: (node, side, left, units)
    labelled = [frozenset(k[0] for k in keys) for _, keys in datum.blocks]  # per block: nodes
    for ni in range(len(datum.nodes)):
        ls, rs = len(datum.lsets[ni]), len(datum.rsets[ni])
        low.append(frozenset(e for (elems, _), ns in zip(datum.blocks, labelled)
                             if ns <= datum.higher[ni] for e in elems))
        for side, units in (("left", [(s, [datum.basis[(ni, s, t)] for t in range(rs)])
                                      for s in range(ls)]),
                            ("right", [(t, [datum.basis[(ni, s, t)] for s in range(ls)])
                                       for t in range(rs)])):
            shared: Dict = {}  # per pattern: the passed keys
            keyed = []  # per unit: (fixed, vectors, U, passed keys)
            for fixed, vectors in units:
                support = list(dict.fromkeys(e for vec in vectors for e in vec))
                position = {e: i for i, e in enumerate(support)}
                pattern = tuple(tuple((position[e], c) for e, c in vec.items()) for vec in vectors)
                keyed.append((fixed, vectors, support, shared.setdefault(pattern, set())))
            if keyed:
                groups.append((ni, side, side == "left", keyed))

    def scan(actors) -> Optional[Dict]:
        for a in actors:
            lines = T[a], [row[a] for row in T]
            wlines = (None, None) if W is None else (W[a], [row[a] for row in W])
            for ni, side, left, units in groups:
                line, wline = lines[not left], wlines[not left]
                failures = []
                for fixed, vectors, support, passed in units:
                    key = tuple(map(line.__getitem__, support))
                    if low[ni].issuperset(key):
                        continue
                    if W is not None:
                        key = key, tuple(map(wline.__getitem__, support))
                    if key in passed:
                        continue
                    failure = _unit_failure(datum, a, ni, left, fixed, vectors, low[ni])
                    if failure is None:
                        passed.add(key)
                    else:
                        failures.append(failure)
                if failures:
                    return {"side": side, "acting": a, "node": datum.node_label(ni),
                            "detail": min(failures)[-1]}
        return None

    at, dim = datum.attach, datum.dim
    first = (sorted(cocycle_middles(T, W, at.monoid.gens, at.monoid.identity))
             if at is not None and (W is None or datum.lawful) else range(dim))
    witness = scan(first)
    if witness and len(first) < dim:
        witness = scan(range(dim))
    return AxiomReport("full", witness is None, witness, dim)


def cocycle_middles(table: List[List[int]], weights, seeds: Sequence[int],
                    identity: int) -> List[int]:
    """seeds, then, in index order, each element that the weighted right walk
    has not reached: the walk starts at identity, at each seed and at each
    element added, and its step x -> x*g, for g in seeds, needs weights[x][g]
    != 0 (any step when weights is None).  Its two callers walk from M.gens:
    twist.verify_twisting takes its middles here, verify_cell_axioms the set
    it acts by first.  With weights nowhere zero this is M.gens;
    with every step killed, all of M but the identity."""
    middles, seen = list(seeds), {identity, *seeds}
    todo = list(seen)
    for m in range(len(table)):
        while todo:
            x = todo.pop()
            row, wx = table[x], None if weights is None else weights[x]
            for g in seeds:
                y = row[g]
                if y not in seen and (wx is None or wx[g]):
                    seen.add(y)
                    todo.append(y)
        if m not in seen:
            middles.append(m)
            seen.add(m)
            todo.append(m)
    return middles


def _unit_failure(datum, a: int, ni: int, left: bool, fixed: int, vectors: List[Dict], low):
    """First failure of one unit, given as its vectors, under the acting
    element a, as (position, kind, fixed index, detail), or None.  Positions
    run over t for a left unit and s for a right one; at one position a
    product leaving the node (kind 0) precedes coefficients that differ from
    position 0 (kind 1), as in a scan of each position over all units.  A
    product's terms in low, whose coordinates all lie on higher nodes, are
    dropped before its coordinates are taken."""
    higher = datum.higher[ni]
    ref = None
    for pos, vec in enumerate(vectors):
        s, t = (fixed, pos) if left else (pos, fixed)
        row = {}
        for (nj, sj, tj), c in datum.product_coordinates(a, vec, left, low).items():
            if nj in higher:
                continue
            if nj != ni or (tj if left else sj) != pos:
                product = f"a*C[{s},{t}]" if left else f"C[{s},{t}]*a"
                return pos, 0, fixed, f"{product} hits ({datum.node_label(nj)},{sj},{tj})"
            row[sj if left else tj] = c
        if ref is None:
            ref = row
        elif row != ref:
            detail = (f"left coefficients at right index {t} differ from index 0" if left
                      else f"right coefficients at left index {s} differ from index 0")
            return pos, 1, fixed, detail
    return None


def trace_form_semisimple(mult, dim: int, field: FieldSpec,
                          notes: Optional[List[str]] = None) -> bool:
    """Nonsingularity of the trace form B(x, y) = trace of left multiplication
    by x*y on the regular representation; equivalent to semisimplicity over
    the rationals.  Positive characteristic is refused (the criterion is
    unreliable there).

    The unit vectors, with the int 1 as coefficient, are built once, and
    each unit product e_i*e_j is computed once (dim**2 calls of mult); its
    terms are kept in three flat lists per row, not as dicts.  The traces
    tr(e_k) are read off the same products.  With D the lcm of the
    coefficients' denominators, D*coefficients and D*traces are ints, and
    the form built is D**2 * B, nonsingular exactly when B is.
    certified_nonsingular decides it; when its prime divides a minor up to
    the first free column, the exact rank does, and a line saying so is
    appended to notes when given."""
    if field.kind != "q":
        raise WrongCharacteristic("the trace-form oracle needs characteristic zero")
    products = []  # per i: j, k and c of each term c*e_k of e_i*e_j
    traces: List[Scalar] = []
    den = 1
    units = [{i: 1} for i in range(dim)]
    for ui in units:
        js, ks, cs = [], [], []
        for j, uj in enumerate(units):
            for k, c in mult(ui, uj).items():
                js.append(j)
                ks.append(k)
                cs.append(c)
        den = lcm(den, *(c.denominator for c in cs))
        products.append((js, ks, cs))
        traces.append(sum(c for j, k, c in zip(js, ks, cs) if j == k))

    def scaled(v: Scalar) -> int:
        return v.numerator * (den // v.denominator)

    traces = [scaled(t) for t in traces]
    form = []
    for js, ks, cs in products:
        if den != 1 or any(type(c) is not int for c in cs):
            cs = [scaled(c) for c in cs]
        row = [0] * dim
        for j, k, c in zip(js, ks, cs):
            row[j] += c * traces[k]
        form.append(row)
    matrix = DenseMatrix(field, dim, dim, form)
    verdict = certified_nonsingular(matrix)
    if verdict is None:
        if notes is not None:
            notes.append("decided by the exact rank fallback")
        verdict = mat_rank(matrix) == dim
    return verdict


def cross_check(datum, report) -> List[Dict]:
    """Every dual-path assertion as a pass/fail/skip ledger: the analysis
    report's cross-checks plus trace-form agreement over the rationals."""
    ledger = list(report.checks)
    if datum.field.kind == "q":
        notes: List[str] = []
        oracle = trace_form_semisimple(datum.mult, datum.dim, datum.field, notes)
        ok = oracle == report.semisimple
        detail = f"trace oracle {oracle} vs rank criterion {report.semisimple}"
        ledger.append({"name": "trace_form_agreement",
                       "status": "pass" if ok else "fail",
                       "detail": "; ".join([detail, *notes])})
    else:
        ledger.append({"name": "trace_form_agreement", "status": "skip",
                       "detail": "positive characteristic"})
    return ledger

"""Independent verification: the one-sided multiplication axiom checker for
cell data, a trace-form semisimplicity oracle for characteristic zero, and the
dual-path cross-check ledger.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import lcm
from typing import Dict, FrozenSet, List, Optional, Sequence

from .exactalg import DenseMatrix, FieldSpec, Scalar, certified_nonsingular, mat_rank
from .monoid import CellmonoidError


class WrongCharacteristic(CellmonoidError):
    pass


@dataclass
class AxiomReport:
    mode: str
    ok: bool
    witness: Optional[Dict]
    acting_count: int

    def to_dict(self) -> Dict:
        return asdict(self)


def verify_cell_axioms(datum, acting: Optional[Sequence[int]] = None,
                       mode: str = "full") -> AxiomReport:
    """Check both one-sided multiplication conditions of the labeled basis.

    For every acting element a and node: the coordinates of a * C[s,t] must be
    supported on the node itself (same right index t, coefficients depending
    only on (s, s')) plus strictly higher nodes; dually for C[s,t] * a.  In
    "full" mode the acting set is every carrier element; "generators" mode
    checks a supplied acting set, which suffices when that set generates the
    algebra under datum.mult, because the coefficient matrices compose under
    products and the higher span is an ideal.  Under a twisting with zero
    weights, take monoid.generating_set with the twisting's values, as the CLI
    does: the untwisted set can miss elements (18 of 42 on jones5, delta = 0).

    The conditions are checked per unit: a left unit is (node, s) with all its
    right indices t, a right unit (node, t) with all its left indices s.  Let
    U be the union of a unit's supports and x0 an element of U with U inside
    x0*M (M*x0 for a right unit), found from the table.  Every e in U is then
    x0*u, so a*e = (a*x0)*u, and the unit's products under a depend only on
    table[a][x0] (and on the weights weights[a][e], e in U, under a
    twisting).  A unit is checked once per distinct such key; an actor whose
    key already passed is skipped, exactly, since its products are the same
    vectors.  The skip relies on the table being associative, as every
    CellDatum table is.  A unit with no such x0 is checked under every actor.

    Coordinates on strictly higher nodes are ignored, so the check skips the
    products that can only land there.  Let low[ni] be the carrier elements
    of the blocks whose labels all belong to nodes in datum.higher[ni].
    Coordinates are block-local: a carrier element's coordinates lie on the
    labels of its own block, so the terms of a product in low[ni] have
    coordinates only on higher nodes.  A unit whose every support element e
    has table[a][e] (table[e][a] on the right) in low[ni] passes without a
    product; otherwise each product loses its terms in low[ni] before its
    coordinates are taken, and none are taken when nothing is left.  Both
    skips drop only coordinates the check would ignore, and dropping whole
    blocks keeps the order of the rest, so verdicts and witnesses are exact.
    low is read from datum.higher, never from Green's order, so a datum with
    a wrong node order still fails.  In the standard datum a block is one
    H-class, labelled by nodes of its own D-class, and those nodes sit above
    every node of a D-class over it: a product that drops to a lower D-class
    lands in low[ni].

    The first failure is reported in the order acting, node, left before
    right, then (t, s) on the left and (s, t) on the right.
    """
    if mode == "full":
        acting = list(range(datum.dim))
    elif mode == "generators":
        if acting is None:
            raise ValueError("generators mode needs an acting set")
        acting = list(acting)
        for a in acting:
            if a not in range(datum.dim):
                raise ValueError(f"acting index {a} is outside 0..{datum.dim - 1}")
    else:
        raise ValueError(f"unknown mode {mode!r}")

    T, W = datum.table, datum.weights
    low = []  # per node: the carrier elements of blocks labelled only above it
    units = []  # per node and side: (fixed index, anchor, support, passed keys)
    for ni in range(len(datum.nodes)):
        ls, rs = len(datum.lsets[ni]), len(datum.rsets[ni])
        low.append(frozenset(e for elems, keys in datum.blocks
                             if all(k[0] in datum.higher[ni] for k in keys) for e in elems))
        units.append((
            [(s, *_anchor(T, [datum.basis[(ni, s, t)] for t in range(rs)], True), set())
             for s in range(ls)],
            [(t, *_anchor(T, [datum.basis[(ni, s, t)] for s in range(ls)], False), set())
             for t in range(rs)],
        ))

    for a in acting:
        ua = datum.unit(a)
        for ni, sides in enumerate(units):
            for side, side_units in zip(("left", "right"), sides):
                left = side == "left"
                failures = []
                for fixed, x0, support, passed in side_units:
                    if x0 is None:
                        key = a
                    elif left:
                        key = T[a][x0] if W is None else (
                            T[a][x0], tuple(W[a][e] for e in support))
                    else:
                        key = T[x0][a] if W is None else (
                            T[x0][a], tuple(W[e][a] for e in support))
                    if key in passed:
                        continue
                    if all((T[a][e] if left else T[e][a]) in low[ni] for e in support):
                        passed.add(key)
                        continue
                    failure = _unit_failure(datum, ua, ni, left, fixed, low[ni])
                    if failure is None:
                        passed.add(key)
                    else:
                        failures.append(failure)
                if failures:
                    witness = {"side": side, "acting": a, "node": datum.node_label(ni),
                               "detail": min(failures)[-1]}
                    return AxiomReport(mode, False, witness, len(acting))

    return AxiomReport(mode, True, None, len(acting))


def _anchor(table: List[List[int]], vectors: List[Dict], left: bool):
    """(x0, U): U the sorted union of the vectors' supports and x0 the first
    element of U with U inside x0*M (left) or M*x0 (right), else None."""
    support = tuple(sorted(set().union(*vectors)))
    for x0 in support:
        reach = set(table[x0]) if left else {row[x0] for row in table}
        if reach.issuperset(support):
            return x0, support
    return None, support


def _unit_failure(datum, ua: Dict, ni: int, left: bool, fixed: int, low: FrozenSet[int]):
    """First failure of one unit under the acting vector ua, as (position,
    kind, fixed index, detail), or None.  Positions run over t for a left unit
    and s for a right one; at one position a product leaving the node (kind 0)
    precedes coefficients that differ from position 0 (kind 1), as in a scan
    of each position over all units.  A product's terms in low, whose
    coordinates all lie on higher nodes, are dropped before its coordinates
    are taken."""
    higher = datum.higher[ni]
    ref = None
    for pos in range(len(datum.rsets[ni] if left else datum.lsets[ni])):
        s, t = (fixed, pos) if left else (pos, fixed)
        vec = datum.basis[(ni, s, t)]
        kept = {e: c for e, c in (datum.mult(ua, vec) if left else datum.mult(vec, ua)).items()
                if e not in low}
        row = {}
        for (nj, sj, tj), c in (datum.coordinates(kept) if kept else {}).items():
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

    Each unit product e_i*e_j is computed once, with the int 1 as its
    coefficient, and its terms are kept in three flat lists per row, not as
    dicts.  The traces tr(e_k) are read off the same products.  With D the
    lcm of the coefficients' denominators, D*coefficients and D*traces are
    ints, and the form built is D**2 * B, nonsingular exactly when B is.
    certified_nonsingular decides it; when its certificate fails, the exact
    rank does, and a line saying so is appended to notes when given."""
    if field.kind != "q":
        raise WrongCharacteristic("the trace-form oracle needs characteristic zero")
    products = []  # per i: j, k and c of each term c*e_k of e_i*e_j
    traces: List[Scalar] = []
    den = 1
    for i in range(dim):
        ui = {i: 1}
        js, ks, cs = [], [], []
        for j in range(dim):
            for k, c in mult(ui, {j: 1}).items():
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

"""Independent verification: the one-sided multiplication axiom checker for
cell data, a trace-form semisimplicity oracle for characteristic zero, and the
dual-path cross-check ledger.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from .exactalg import DenseMatrix, FieldSpec, Scalar, mat_rank
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
    """
    if mode == "full":
        acting = list(range(datum.dim))
    elif mode == "generators":
        if acting is None:
            raise ValueError("generators mode needs an acting set")
        acting = list(acting)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    mult = datum.mult
    zero = datum.field.zero()
    nnodes = len(datum.nodes)

    def fail(side: str, a: int, ni: int, detail: str) -> AxiomReport:
        witness = {"side": side, "acting": a, "node": datum.node_label(ni), "detail": detail}
        return AxiomReport(mode, False, witness, len(acting))

    for a in acting:
        ua = datum.unit(a)
        for ni in range(nnodes):
            ls = len(datum.lsets[ni])
            rs = len(datum.rsets[ni])
            higher = datum.higher[ni]

            ref = None
            for t in range(rs):
                mat = [[zero] * ls for _ in range(ls)]
                for s in range(ls):
                    coords = datum.coordinates(mult(ua, datum.basis[(ni, s, t)]))
                    for (nj, sj, tj), c in coords.items():
                        if nj in higher:
                            continue
                        if nj != ni or tj != t:
                            return fail("left", a, ni,
                                        f"a*C[{s},{t}] hits ({datum.node_label(nj)},{sj},{tj})")
                        mat[s][sj] = c
                if ref is None:
                    ref = mat
                elif mat != ref:
                    return fail("left", a, ni,
                                f"left coefficients at right index {t} differ from index 0")

            ref = None
            for s in range(ls):
                mat = [[zero] * rs for _ in range(rs)]
                for t in range(rs):
                    coords = datum.coordinates(mult(datum.basis[(ni, s, t)], ua))
                    for (nj, sj, tj), c in coords.items():
                        if nj in higher:
                            continue
                        if nj != ni or sj != s:
                            return fail("right", a, ni,
                                        f"C[{s},{t}]*a hits ({datum.node_label(nj)},{sj},{tj})")
                        mat[t][tj] = c
                if ref is None:
                    ref = mat
                elif mat != ref:
                    return fail("right", a, ni,
                                f"right coefficients at left index {s} differ from index 0")

    return AxiomReport(mode, True, None, len(acting))


def trace_form_semisimple(mult, dim: int, field: FieldSpec) -> bool:
    """Nonsingularity of (x, y) -> trace of left multiplication by x*y on the
    regular representation; equivalent to semisimplicity over the rationals.
    Positive characteristic is refused (the criterion is unreliable there)."""
    if field.kind != "q":
        raise WrongCharacteristic("the trace-form oracle needs characteristic zero")
    one = field.one()
    traces: List[Scalar] = []
    for m in range(dim):
        um = {m: one}
        acc = field.zero()
        for x in range(dim):
            acc = field.add(acc, mult(um, {x: one}).get(x, field.zero()))
        traces.append(acc)
    entries = []
    for i in range(dim):
        ui = {i: one}
        row = []
        for j in range(dim):
            prod = mult(ui, {j: one})
            acc = field.zero()
            for k, c in prod.items():
                acc = field.add(acc, field.mul(c, traces[k]))
            row.append(acc)
        entries.append(row)
    form = DenseMatrix(field, dim, dim, entries)
    return mat_rank(form) == dim


def cross_check(datum, report) -> List[Dict]:
    """Every dual-path assertion as a pass/fail/skip ledger: the analysis
    report's cross-checks plus trace-form agreement over the rationals."""
    ledger = list(report.checks)
    if datum.field.kind == "q":
        oracle = trace_form_semisimple(datum.mult, datum.dim, datum.field)
        ok = oracle == report.semisimple
        ledger.append({"name": "trace_form_agreement",
                       "status": "pass" if ok else "fail",
                       "detail": f"trace oracle {oracle} vs rank criterion {report.semisimple}"})
    else:
        ledger.append({"name": "trace_form_agreement", "status": "skip",
                       "detail": "positive characteristic"})
    return ledger

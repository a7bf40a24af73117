"""Twistings (unital 2-cocycles) on a finite monoid, their compatibility
classification, and the cell datum of the twisted monoid algebra.

The twisted product is x o y = pi(x, y) * (x y), extended bilinearly.  A
compatible twisting yields the same labeled basis as the untwisted algebra;
when the twisting is also nowhere zero on class-preserving products, the
twisted brackets are blockwise rescalings of the untwisted ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .cellbasis import CellDatum
from .exactalg import FieldSpec, Scalar, clear_denominators
from .green import GreenStructure
from .monoid import (CellmonoidError, FiniteMonoid, LoopTable, _dump_json,
                     _load_json_object)


class TwistError(CellmonoidError):
    pass


class IncompatibleTwisting(TwistError):
    def __init__(self, witness):
        super().__init__(f"twisting is incompatible: {witness}")
        self.witness = witness


@dataclass
class Twisting:
    field: FieldSpec
    values: List[List[Scalar]]
    provenance: str

    def value(self, x: int, y: int) -> Scalar:
        return self.values[x][y]


def trivial_twisting(size: int, field: FieldSpec) -> Twisting:
    one = field.one()
    return Twisting(field, [[one] * size for _ in range(size)], "trivial")


def make_loop_twisting(loops: LoopTable, delta: Scalar, field: FieldSpec) -> Twisting:
    """pi(x, y) = delta ** loops[x][y], with delta ** 0 = 1 even for delta = 0."""
    one = field.one()

    def power(k: int) -> Scalar:
        acc = one
        for _ in range(k):
            acc = field.mul(acc, delta)
        return acc

    maxloops = max((v for row in loops.loops for v in row), default=0)
    powers = [power(k) for k in range(maxloops + 1)]
    values = [[powers[v] for v in row] for row in loops.loops]
    return Twisting(field, values, f"loop:{field.format_scalar(delta)}")


def save_twisting_json(pi: Twisting, path) -> None:
    payload = {"values": [[pi.field.format_scalar(v) for v in row] for row in pi.values]}
    _dump_json(payload, path)


def load_twisting_json(path, field: FieldSpec) -> Twisting:
    grid = _load_json_object(path, "values")["values"]
    if not isinstance(grid, list) or any(not isinstance(row, list) for row in grid):
        raise ValueError("twisting values must be a list of rows")
    values = [[field.parse_scalar(str(v)) for v in row] for row in grid]
    if any(len(row) != len(values) for row in values):
        raise ValueError("twisting grid must be square")
    return Twisting(field, values, "file")


def verify_twisting(M: FiniteMonoid, pi: Twisting) -> Optional[Dict]:
    """Exhaustive unit and cocycle check; None when both laws hold, otherwise
    a witness naming the first violation.  Over the rationals the grid is
    scaled by the lcm D of its denominators; both sides of the cocycle law have
    degree 2 in pi, so both scale by D**2 and the check runs on ints."""
    if len(pi.values) != M.size:
        return {"law": "shape", "detail": f"{len(pi.values)} rows for {M.size} elements"}
    f = pi.field
    one = f.one()
    e = M.identity
    for x in range(M.size):
        if pi.values[x][e] != one or pi.values[e][x] != one:
            return {"law": "unit", "x": x}
    T, n, p = M.table, M.size, f.p
    W = pi.values
    if p is None:
        flat = clear_denominators([v for row in W for v in row])
        W = [flat[x * n:(x + 1) * n] for x in range(n)]
    for x in range(n):
        Wx, Tx = W[x], T[x]
        for y in range(n):
            wxy, Wxy, Wy, Ty = Wx[y], W[Tx[y]], W[y], T[y]
            for z in range(n):
                diff = wxy * Wxy[z] - Wx[Ty[z]] * Wy[z]
                if diff and (p is None or diff % p):
                    return {"law": "cocycle", "triple": (x, y, z)}
    return None


@dataclass
class Compatibility:
    """level is "strong", "compatible", or "incompatible"; lr is the separate
    left/right-class constancy flag."""

    level: str
    witness: Optional[Dict]
    lr: bool


def compatibility_class(M: FiniteMonoid, gs: GreenStructure, pi: Twisting) -> Compatibility:
    """Scan all D-class-preserving products for constancy of pi across the
    fixed factor's H-class ("compatible"), additionally nonzero ("strong")."""
    f = pi.field
    T = M.table
    V = pi.values
    strong = True
    for a in range(M.size):
        for members in gs.hclasses:
            x0 = members[0]
            if gs.dclass[T[a][x0]] == gs.dclass[x0]:
                v = V[a][x0]
                for y in members[1:]:
                    if V[a][y] != v:
                        return Compatibility("incompatible",
                                             {"side": "left", "a": a, "x": x0, "y": y},
                                             _is_lr(M, gs, pi))
                if f.is_zero(v):
                    strong = False
            if gs.dclass[T[x0][a]] == gs.dclass[x0]:
                v = V[x0][a]
                for y in members[1:]:
                    if V[y][a] != v:
                        return Compatibility("incompatible",
                                             {"side": "right", "a": a, "x": x0, "y": y},
                                             _is_lr(M, gs, pi))
                if f.is_zero(v):
                    strong = False
    return Compatibility("strong" if strong else "compatible", None, _is_lr(M, gs, pi))


def _is_lr(M: FiniteMonoid, gs: GreenStructure, pi: Twisting) -> bool:
    V = pi.values
    for members in gs.lclasses:
        x0 = members[0]
        for y in members[1:]:
            if any(V[x0][z] != V[y][z] for z in range(M.size)):
                return False
    for members in gs.rclasses:
        y0 = members[0]
        for z in members[1:]:
            if any(V[x][y0] != V[x][z] for x in range(M.size)):
                return False
    return True


@dataclass
class TwistInfo:
    pi: Twisting
    compat: Compatibility
    base: CellDatum
    scales: Dict[Tuple[int, int, int], Scalar]


def match_scales(M: FiniteMonoid, boxes, matched_g, pi: Twisting) -> Dict[Tuple[int, int, int], Scalar]:
    """Per D-class map (d, row i, column j) -> pi on the representative product
    of column j against row i; constant across the classes when compatible."""
    T = M.table
    scales: Dict[Tuple[int, int, int], Scalar] = {}
    for d, mm in enumerate(matched_g):
        box = boxes[d]
        for (i, j) in mm:
            x = T[box.gamma][box.b[j]]
            y = T[box.a[i]][box.gamma]
            scales[(d, i, j)] = pi.value(x, y)
    return scales


def build_twisted_cell_datum(base: CellDatum, pi: Twisting,
                             compat: Optional[Compatibility] = None) -> CellDatum:
    """Same labels and basis vectors over the twisted product.  Refuses an
    incompatible twisting (the labeled basis would not satisfy the one-sided
    conditions)."""
    at = base.attach
    if at is None:
        raise ValueError("twisting applies to an assembled monoid datum")
    if at.twist is not None:
        raise ValueError("datum is already twisted")
    if pi.field != base.field:
        raise ValueError("twisting and datum fields differ")
    if compat is None:
        compat = compatibility_class(at.monoid, at.green, pi)
    if compat.level == "incompatible":
        raise IncompatibleTwisting(compat.witness)
    scales = match_scales(at.monoid, at.boxes, at.matched_g, pi)
    info = TwistInfo(pi, compat, base, scales)
    new_attach = replace(at, twist=info)
    return base.twisted(pi.values, new_attach)


def twist_summary(pi: Twisting, compat: Compatibility, cocycle_witness: Optional[Dict]) -> Dict:
    return {
        "provenance": pi.provenance,
        "cocycle_ok": cocycle_witness is None,
        "cocycle_witness": cocycle_witness,
        "compatibility": compat.level,
        "compatibility_witness": compat.witness,
        "lr": compat.lr,
    }

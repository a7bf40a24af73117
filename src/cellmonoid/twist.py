"""Twistings (unital 2-cocycles) on a finite monoid, their compatibility
classification, and the cell datum of the twisted monoid algebra.

The twisted product is x o y = pi(x, y) * (x y), extended bilinearly.  A
compatible twisting, one whose values on D-class-preserving products a*x
are constant as x runs over an R-class (and on x*a as x runs over an
L-class), yields the same labeled basis as the untwisted algebra, and its
brackets are blockwise rescalings of the untwisted ones: a sandwich-matrix
entry's block is scaled by pi on the entry's representative product.  The
twisted datum keeps pi's values as its weights, their one copy, and
cellbasis.weighted_sandwich reads each scale from them.  A scale may be 0 (a
compatible twisting that is not strong); it then zeroes its block, and the
entries with a nonzero scale form the weighted sandwich the analysis reads.
The unit and cocycle laws are proven here only, by law_failure.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from .cellbasis import CellDatum
from .exactalg import FieldSpec, Scalar, clear_denominators
from .green import GreenStructure
from .monoid import (CellmonoidError, FiniteMonoid, LoopTable, _dump_json,
                     _load_json_object)
from .verify import cocycle_middles


class TwistError(CellmonoidError):
    refusal = "refused"

    def __init__(self, witness):
        super().__init__(f"twisting is {self.refusal}: {witness}")
        self.witness = witness


class IncompatibleTwisting(TwistError):
    refusal = "incompatible"


class NotACocycle(TwistError):
    refusal = "not a unital 2-cocycle"


class Twisting:
    """values[x][y] = pi(x, y) over field, in tuple rows reduced by field.norm
    when made, with integral rationals as ints: every reader compares and
    zero-tests canonical residues, and a datum that shares them as its
    weights keeps its lawful mark true (see build_twisted_cell_datum).
    provenance names the twisting's source."""

    __slots__ = ("field", "values", "provenance")

    def __init__(self, field: FieldSpec, values: Sequence[Sequence[Scalar]],
                 provenance: str) -> None:
        self.field = field
        norm = field.norm if field.p else lambda v: v if type(v) is int or v.denominator != 1 else v.numerator
        self.values = tuple(tuple(map(norm, row)) for row in values)
        self.provenance = provenance


def trivial_twisting(size: int, field: FieldSpec) -> Twisting:
    return Twisting(field, [[1] * size for _ in range(size)], "trivial")


def make_loop_twisting(loops: LoopTable, delta: Scalar, field: FieldSpec) -> Twisting:
    """pi(x, y) = delta ** loops[x][y], with delta ** 0 = 1 also for delta = 0."""
    maxloops = max((v for row in loops.loops for v in row), default=0)
    powers = [delta ** k for k in range(maxloops + 1)]
    values = [[powers[v] for v in row] for row in loops.loops]
    return Twisting(field, values, f"loop:{delta}")


def save_twisting_json(pi: Twisting, path) -> None:
    payload = {"values": [[str(v) for v in row] for row in pi.values]}
    _dump_json(payload, path)


def load_twisting_json(path, field: FieldSpec) -> Twisting:
    grid = _load_json_object(path, "values")["values"]
    if not isinstance(grid, list) or any(not isinstance(row, list) for row in grid):
        raise ValueError(f"{path}: twisting values must be a list of rows")
    try:
        values = [[field.parse_scalar(str(v)) for v in row] for row in grid]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if any(len(row) != len(values) for row in values):
        raise ValueError(f"{path}: twisting grid must be square")
    return Twisting(field, values, "file")


def law_failure(T: List[List[int]], values, e: int, middles, norm) -> Optional[Dict]:
    """The first violation of the unit law at identity e, or else of the
    cocycle law on the triples (x, s, z) with s in middles, x outer and z
    inner; None when none.  Over the rationals the grid is scaled by the lcm D
    of its denominators (D = 1 over a prime field); both sides of the law have
    degree 2 in pi, so both scale by D**2 and the check runs on ints."""
    n = len(T)
    for x in range(n):
        if values[x][e] != 1 or values[e][x] != 1:
            return {"law": "unit", "x": x}
    flat = clear_denominators([v for row in values for v in row])
    W = [flat[x * n:(x + 1) * n] for x in range(n)]
    for x in range(n):
        Wx, Tx = W[x], T[x]
        for y in middles:
            wxy, Wxy, Wy, Ty = Wx[y], W[Tx[y]], W[y], T[y]
            for z in range(n):
                diff = wxy * Wxy[z] - Wx[Ty[z]] * Wy[z]
                if diff and norm(diff):
                    return {"law": "cocycle", "triple": (x, y, z)}
    return None


def verify_twisting(M: FiniteMonoid, pi: Twisting) -> Optional[Dict]:
    """Unit and cocycle check by law_failure; None when both laws hold,
    otherwise a witness naming the first violation in lexicographic order.
    The unit law is checked on all of M.  The cocycle law says that the
    twisted product o is associative, so Light's test applies: it is checked
    on the triples (x, s, z) with s in verify.cocycle_middles from M.gens,
    |S| * n**2 of them, not n**3.  The m with (u o m) o w = u o (m o w) for
    all u, w form a subspace closed under o that holds e_1 (unit law) and each
    e_s (the check), so it holds the subalgebra they generate; each step
    x -> xg of the middles' walk gives e_xg = pi(x, g)**-1 (e_x o e_g), so
    that is the whole algebra.  This relies on M.table being associative, as
    every FiniteMonoid's is.  On a failure all n**3 triples are scanned again,
    so the witness is the first."""
    if len(pi.values) != M.size:
        return {"law": "shape", "detail": f"{len(pi.values)} rows for {M.size} elements"}
    T, V, e, norm = M.table, pi.values, M.identity, pi.field.norm
    # a failure among the middles sends the check back over every middle
    return (law_failure(T, V, e, sorted(cocycle_middles(T, V, M.gens, e)), norm)
            and law_failure(T, V, e, range(M.size), norm))


class Compatibility(NamedTuple):
    """level is "strong", "compatible", or "incompatible" (see
    compatibility_class; the witness names the side, a, and two x, y that
    disagree); lr is the separate flag for pi(x, .) constant over each L-class
    of x and pi(., y) over each R-class of y.  A compatible twisting keeps
    the labeled basis and the whole analysis, with each sandwich entry's
    scale read off pi by cellbasis.weighted_sandwich; "strong" adds that pi
    is nowhere zero on those products, so no scale is zero and the weighted
    sandwich is the whole sandwich."""

    level: str
    witness: Optional[Dict]
    lr: bool


def compatibility_class(M: FiniteMonoid, gs: GreenStructure, pi: Twisting) -> Compatibility:
    """Scan every D-class-preserving product a*x for pi(a, x) constant as x
    runs over its R-class, and every x*a for pi(x, a) constant over the
    L-class of x ("compatible"), additionally nonzero ("strong").  The left
    coefficients of a must not depend on the right index, which runs along an
    R-class; dually on the right.  a*x stays in D_x for all x of an R-class
    or for none."""
    T, V = M.table, pi.values
    TT, VT = list(zip(*T)), list(zip(*V))  # TT[a][x] = x*a, VT[a][x] = pi(x, a)
    lr = (all(V[y] == V[m[0]] for m in gs.lclasses for y in m[1:])
          and all(VT[z] == VT[m[0]] for m in gs.rclasses for z in m[1:]))
    strong = True
    for a in range(M.size):
        for side, classes, prods, weights in (
                ("left", gs.rclasses, T[a], V[a]),
                ("right", gs.lclasses, TT[a], VT[a])):
            for members in classes:
                x0 = members[0]
                if gs.dclass[prods[x0]] != gs.dclass[x0]:
                    continue
                v = weights[x0]
                for y in members[1:]:
                    if weights[y] != v:
                        return Compatibility("incompatible",
                                             {"side": side, "a": a, "x": x0, "y": y}, lr)
                if not v:
                    strong = False
    return Compatibility("strong" if strong else "compatible", None, lr)


def build_twisted_cell_datum(base: CellDatum, pi: Twisting,
                             compat: Optional[Compatibility] = None) -> CellDatum:
    """Same labels, basis vectors and attachment over the twisted product,
    with the twisting's values as the datum's weights; the sandwich scales are
    read from those weights.  NotACocycle, with verify_twisting's witness,
    refuses a pi that breaks the unit law pi(1, x) = pi(x, 1) = 1 or the
    cocycle law pi(x, y) pi(xy, z) = pi(x, yz) pi(y, z); IncompatibleTwisting
    then refuses one whose labeled basis would fail the one-sided conditions.
    The datum is marked lawful: verify_cell_axioms trusts the laws, and acts
    first by the middles, while its weights, pi.values itself, are left
    unchanged."""
    at = base.attach
    if at is None:
        raise ValueError("twisting applies to an assembled monoid datum")
    if base.weights is not None:
        raise ValueError("datum is already twisted")
    if pi.field != base.field:
        raise ValueError("twisting and datum fields differ")
    witness = verify_twisting(at.monoid, pi)
    if witness is not None:
        raise NotACocycle(witness)
    if compat is None:
        compat = compatibility_class(at.monoid, at.green, pi)
    if compat.level == "incompatible":
        raise IncompatibleTwisting(compat.witness)
    datum = base.twisted(pi.values)
    datum.lawful = True
    return datum


def twist_summary(pi: Twisting, compat: Compatibility, cocycle_witness: Optional[Dict]) -> Dict:
    return {
        "provenance": pi.provenance,
        "cocycle_ok": cocycle_witness is None,
        "cocycle_witness": cocycle_witness,
        "compatibility": compat.level,
        "compatibility_witness": compat.witness,
        "lr": compat.lr,
    }

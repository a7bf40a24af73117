"""Shared fixtures: cached monoids, Green data, and assembled datums."""

from __future__ import annotations

from typing import List

import pytest

import cellmonoid as cm
from cellmonoid import exactalg
from cellmonoid.exactalg import FieldSpec, Scalar, _bareiss, clear_denominators
from cellmonoid.groupcell import dominates


def build_monoid(key: str):
    """Monoid plus optional loop table for a short key like "tfull3"."""
    if key == "trivial":
        return cm.from_cayley_table(1, 0, [[0]], ["1"]), None
    if key == "null3":
        # {1, a, 0} with a*a = 0
        return cm.from_cayley_table(3, 0, [[0, 1, 2], [1, 2, 2], [2, 2, 2]], ["1", "a", "0"]), None
    for fam in ("tfull", "tpartial", "syminv", "jones"):
        if key.startswith(fam):
            return cm.family(fam, int(key[len(fam):]))
    raise KeyError(key)


def corank_twisting(M, n, delta, field):
    """pi(x, y) = delta ** (n - rk x - rk y + rk xy), with rk x the image size
    read off the family label and delta ** 0 = 1.  The exponent is the
    coboundary of n - rk, so pi is a cocycle for every delta; at delta = 0
    it kills products that stay in a D-class, so it is compatible, not strong."""
    rk = [len(set(label.strip("[]").split(",")) - {"-"}) for label in M.labels]
    T = M.table
    return cm.Twisting(field, [[delta ** (n - rk[x] - rk[y] + rk[T[x][y]]) for y in range(M.size)]
                               for x in range(M.size)], "corank")


def edited(pi, *edits):
    """A new Twisting with pi's field, values and provenance, and value v at
    (x, y) for each (x, y, v) in edits: Twisting.values are tuples, so a
    twisting is changed by making another."""
    grid = [list(row) for row in pi.values]
    for x, y, v in edits:
        grid[x][y] = v
    return cm.Twisting(pi.field, grid, pi.provenance)


def assert_phi_r_reads_every_member(M, boxes, schutzs):
    """phiR[g] is gamma*m for every m in rm that acts as g, not only for the
    representative schutzenberger picks: gamma lies in H, so gamma*m is fixed
    by m's permutation of H.  Likewise mult[g][h] is the element of m*m' for
    every m acting as g and m' as h.  Returns how many m are not
    representatives."""
    T = M.table
    others = 0
    for box, sch in zip(boxes, schutzs):
        rm = sch.rm
        assert {m: T[box.gamma][m] for m in rm} == {m: sch.phiR[g] for m, g in rm.items()}
        assert all(rm[T[m][m2]] == sch.mult[g][h] for m, g in rm.items() for m2, h in rm.items())
        others += len(rm) - sch.order
    return others


def is_regular(M):
    """Every x has a y with xyx = x: the definition, over all n**2 pairs."""
    T = M.table
    for x in range(M.size):
        if not any(T[T[x][y]][x] == x for y in range(M.size)):
            return False
    return True


def is_inverse(M):
    """True when every element has exactly one y with xyx = x and yxy = y."""
    T = M.table
    for x in range(M.size):
        count = 0
        for y in range(M.size):
            if T[T[x][y]][x] == x and T[T[y][x]][y] == y:
                count += 1
                if count > 1:
                    return False
        if count != 1:
            return False
    return True


class Store:
    """Session-wide cache keyed by monoid key and field string."""

    def __init__(self):
        self._monoids = {}
        self._green = {}
        self._datums = {}
        self._twisted = {}
        self._reports = {}

    def monoid(self, key):
        if key not in self._monoids:
            self._monoids[key] = build_monoid(key)
        return self._monoids[key]

    def green(self, key):
        if key not in self._green:
            M, _ = self.monoid(key)
            self._green[key] = cm.green_data(M)
        return self._green[key]

    def datum(self, key, field="q"):
        k = (key, field)
        if k not in self._datums:
            M, _ = self.monoid(key)
            fs = FieldSpec.parse(field)
            gs, boxes, schutzs = self.green(key)
            group_data = cm.standard_group_data(schutzs, fs)
            self._datums[k] = cm.build_cell_datum(M, gs, boxes, schutzs, group_data, fs)
        return self._datums[k]

    def twisted(self, key, delta, field="q"):
        k = (key, delta, field)
        if k not in self._twisted:
            M, loops = self.monoid(key)
            assert loops is not None
            fs = FieldSpec.parse(field)
            pi = cm.make_loop_twisting(loops, fs.parse_scalar(delta), fs)
            self._twisted[k] = cm.build_twisted_cell_datum(self.datum(key, field), pi)
        return self._twisted[k]

    def report(self, key, field="q"):
        k = (key, field)
        if k not in self._reports:
            self._reports[k] = cm.analyze(self.datum(key, field))
        return self._reports[k]


@pytest.fixture(scope="session")
def store():
    return Store()


def reference_trace_form(mult, dim):
    """The trace-form verdict over the rationals by the plain loop the oracle
    must agree with: dim**2 products for the traces, dim**2 more for the form,
    exact rational arithmetic, and the rank by Bareiss elimination (the
    oracle itself eliminates mod a prime)."""
    traces = []
    for m in range(dim):
        acc = 0
        for x in range(dim):
            acc += mult({m: 1}, {x: 1}).get(x, 0)
        traces.append(acc)
    entries = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = 0
            for k, c in mult({i: 1}, {j: 1}).items():
                acc += c * traces[k]
            row.append(acc)
        entries.append(clear_denominators(row))
    return len(_bareiss(entries, dim)[0]) == dim


def _rref(field: FieldSpec, rows: List[List[Scalar]], ncols: int):
    """In-place reduced row echelon form; returns pivot column list.

    Pivot choice: columns scanned left to right, within a column the first
    nonzero entry from the current row down; deterministic output.
    """
    norm = field.norm
    pivots: List[int] = []
    pr = 0
    nrows = len(rows)
    for c in range(ncols):
        pv = None
        for r in range(pr, nrows):
            if rows[r][c]:
                pv = r
                break
        if pv is None:
            continue
        if pv != pr:
            rows[pr], rows[pv] = rows[pv], rows[pr]
        piv = rows[pr][c]
        if piv != 1:
            inv = field.inv(piv)
            rows[pr] = [norm(inv * v) for v in rows[pr]]
        prow = rows[pr]
        for r in range(nrows):
            if r == pr:
                continue
            f0 = rows[r][c]
            if not f0:
                continue
            rows[r] = [norm(v - f0 * w) for v, w in zip(rows[r], prow)]
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return pivots


def reference_entry_check(size, table):
    """from_cayley_table's entry validation by the per-entry scan: the first
    entry in row-major order that is not an int in 0..size-1 (bools refused,
    other int subclasses accepted) raises the ValueError naming it."""
    for row in table:
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < size:
                raise ValueError(f"table entry {v!r} out of range")


def reference_nonsingular(m):
    """certified_nonsingular by a row echelon form of every column: rows
    scaled to ints over the rationals, residues mod exactalg._MODULUS (read
    at call time, so a test may change it) or the field's prime, pivots 1
    and the entries below each cleared, up to the first free column.  Over
    the rationals a Fraction RREF (_rref) of columns 0 to that column then
    decides: False when it has no pivot there, None when it has one (the
    prime divides a minor).  m must be square."""
    if m.field.kind == "q":
        p, rows = exactalg._MODULUS, [clear_denominators(r) for r in m.entries]
    else:
        p, rows = m.field.p, m.entries
    red = [[v % p for v in r] for r in rows]
    n = len(red)
    free = 0  # the pivots so far; the pivot of column c sits at row c
    while free < n:
        pv = next((r for r in range(free, n) if red[r][free]), None)
        if pv is None:
            break
        red[free], red[pv] = red[pv], red[free]
        inv = pow(red[free][free], -1, p)
        prow = red[free] = [v * inv % p for v in red[free]]
        for r in range(free + 1, n):
            f0 = red[r][free]
            if f0:
                red[r] = [(v - f0 * w) % p for v, w in zip(red[r], prow)]
        free += 1
    if free == n:
        return True
    if m.field.kind == "fp":
        return False
    pivots = _rref(m.field, [list(r[:free + 1]) for r in m.entries], free + 1)
    return False if free not in pivots else None


def reference_table_mult(table, field, weights=None):
    """table_mult's product by the loop that reduced each key's sum by
    field.norm: raw sums per key in the order of the first nonzero
    contribution, then one norm call per key and the zeros dropped."""
    norm = field.norm

    def mult(x, y):
        out = {}
        for ex, cx in x.items():
            for ey, cy in y.items():
                c = cx * cy if weights is None else cx * cy * weights[ex][ey]
                if weights is not None and not c:
                    continue
                k = table[ex][ey]
                out[k] = out[k] + c if k in out else c
        return {k: v for k, v in zip(out, map(norm, out.values())) if v}

    return mult


def reference_witness(datum):
    """The plain scan the axiom check must agree with: every acting element,
    node and basis vector, left side by (t, s), right side by (s, t)."""
    for a in range(datum.dim):
        ua = datum.unit(a)
        for ni in range(len(datum.nodes)):
            ls, rs = len(datum.lsets[ni]), len(datum.rsets[ni])
            higher = datum.higher[ni]

            def fail(side, detail):
                return {"side": side, "acting": a, "node": datum.node_label(ni), "detail": detail}

            ref = None
            for t in range(rs):
                mat = [[0] * ls for _ in range(ls)]
                for s in range(ls):
                    coords = datum.coordinates(datum.mult(ua, datum.basis[(ni, s, t)]))
                    for (nj, sj, tj), c in coords.items():
                        if nj in higher:
                            continue
                        if nj != ni or tj != t:
                            return fail("left", f"a*C[{s},{t}] hits "
                                                f"({datum.node_label(nj)},{sj},{tj})")
                        mat[s][sj] = c
                if ref is None:
                    ref = mat
                elif mat != ref:
                    return fail("left", f"left coefficients at right index {t} "
                                        "differ from index 0")
            ref = None
            for s in range(ls):
                mat = [[0] * rs for _ in range(rs)]
                for t in range(rs):
                    coords = datum.coordinates(datum.mult(datum.basis[(ni, s, t)], ua))
                    for (nj, sj, tj), c in coords.items():
                        if nj in higher:
                            continue
                        if nj != ni or sj != s:
                            return fail("right", f"C[{s},{t}]*a hits "
                                                 f"({datum.node_label(nj)},{sj},{tj})")
                        mat[t][tj] = c
                if ref is None:
                    ref = mat
                elif mat != ref:
                    return fail("right", f"right coefficients at left index {s} "
                                         "differ from index 0")
    return None


def reference_axiom_report(datum):
    """The AxiomReport of the plain scan: every element acting on every unit,
    nothing skipped."""
    witness = reference_witness(datum)
    return cm.AxiomReport("full", witness is None, witness, datum.dim)


def reference_bracket(d, ni, rpos, cpos):
    """cellbasis.bracket_value recomputed with every reference pair (rl, rt)
    in place of (0, 0): each product C[rl, rpos] * C[cpos, rt] must be pure,
    supported on (ni, rl, rt) and strictly higher nodes, and its coefficient
    at (ni, rl, rt) must not depend on the pair.  Returns that coefficient."""
    values = set()
    for rl in range(len(d.lsets[ni])):
        for rt in range(len(d.rsets[ni])):
            coords = d.coordinates(d.mult(d.basis[(ni, rl, rpos)], d.basis[(ni, cpos, rt)]))
            stray = [k for k in coords if k[0] not in d.higher[ni] and k != (ni, rl, rt)]
            assert not stray, (d.node_label(ni), rl, rt, stray)
            values.add(coords.get((ni, rl, rt), 0))
    assert len(values) == 1, (d.node_label(ni), rpos, cpos, values)
    return values.pop()


def reference_twisting_witness(M, pi):
    """verify_twisting's verdict by the exhaustive scan: the unit law on all of
    M, then the cocycle law on all n**3 triples in lexicographic order, in
    the field's own arithmetic."""
    n, T, V, norm = M.size, M.table, pi.values, pi.field.norm
    for x in range(n):
        if V[x][M.identity] != 1 or V[M.identity][x] != 1:
            return {"law": "unit", "x": x}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if norm(V[x][y] * V[T[x][y]][z] - V[x][T[y][z]] * V[y][z]):
                    return {"law": "cocycle", "triple": (x, y, z)}
    return None


def reference_is_lr(M, gs, pi):
    """pi(x, .) constant over each L-class of x and pi(., y) over each R-class
    of y, compared entry by entry."""
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


def reference_compatibility(M, gs, pi):
    """compatibility_class's reference: the same scan with each column of the
    table and of pi built per acting element, and reference_is_lr."""
    T, V = M.table, pi.values
    strong = True
    for a in range(M.size):
        for side, classes, prods, weights in (
                ("left", gs.rclasses, T[a], V[a]),
                ("right", gs.lclasses, [row[a] for row in T], [row[a] for row in V])):
            for members in classes:
                x0 = members[0]
                if gs.dclass[prods[x0]] != gs.dclass[x0]:
                    continue
                for y in members[1:]:
                    if weights[y] != weights[x0]:
                        return cm.Compatibility("incompatible",
                                                {"side": side, "a": a, "x": x0, "y": y},
                                                reference_is_lr(M, gs, pi))
                strong = strong and bool(weights[x0])
    return cm.Compatibility("strong" if strong else "compatible", None,
                            reference_is_lr(M, gs, pi))


def reference_closure(pairs):
    """The transitive closure of pairs (a, b) by a fixpoint over all pairs of
    pairs, refusing a closure that holds a self-pair or a 2-cycle: the node
    order's reference for green.strict_order."""
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


def dless(gs):
    """The strict D-order as the pairs (a, b) with D_a < D_b: the reference
    closure of the edges gs.ddown."""
    edges = [(d, c) for d, below in enumerate(gs.ddown) for c in below]
    return frozenset((c, d) for d, c in reference_closure(edges))


def assembled_order_pairs(datum):
    """The assembled datum's node order by its definition: node a sits above
    node b when a's D-class lies strictly below b's, or when both share a
    D-class and a's partition strictly dominates b's."""
    less = dless(datum.attach.green)
    return [(a, b) for a, (da, lam) in enumerate(datum.nodes)
            for b, (db, mu) in enumerate(datum.nodes)
            if (da, db) in less or (da == db and lam != mu and dominates(lam, mu))]


def order_pairs(datum):
    """The datum's node order as the pairs (a, b), node a above node b, read
    off datum.higher."""
    return frozenset((a, b) for b, above in enumerate(datum.higher) for a in above)


def assert_node_order_matches_reference(datum, pairs):
    """datum.higher is the reference closure of pairs, and a datum given only
    the covering pairs of that order closes them back."""
    gt = reference_closure(pairs)
    k = len(datum.nodes)
    assert datum.higher == [frozenset(a for a, b in gt if b == ni) for ni in range(k)]
    covers = [(a, b) for a, b in gt if not any((a, c) in gt and (c, b) in gt for c in range(k))]
    again = cm.CellDatum(datum.field, datum.table, datum.nodes, covers, datum.lsets,
                         datum.rsets, datum.basis, datum.blocks, inv_cols=datum._inv_cols)
    assert again.higher == datum.higher


def assert_checks_clean(report):
    bad = [c for c in report.checks if c["status"] == "fail"]
    assert not bad, bad


# -- structural invariant helpers (used by unit and acceptance tests) --------

def check_eggbox_rectangular(M, gs, boxes):
    for d, box in enumerate(boxes):
        h = len(box.grid[0][0])
        assert all(len(cell) == h for row in box.grid for cell in row)
        assert len(gs.dclasses[d]) == len(box.rows) * len(box.cols) * h


def check_h_stability(M, gs):
    """If one product of an H-class member lands back in the class, right
    translation by that element permutes the whole class (and dually)."""
    T = M.table
    for members in gs.hclasses:
        hset = set(members)
        for m in range(M.size):
            right_in = [T[h][m] in hset for h in members]
            assert all(right_in) or not any(right_in)
            if all(right_in):
                assert len({T[h][m] for h in members}) == len(members)
            left_in = [T[m][h] in hset for h in members]
            assert all(left_in) or not any(left_in)
            if all(left_in):
                assert len({T[m][h] for h in members}) == len(members)


def check_class_preservation(M, gs):
    """A D-class-preserving right product preserves the R-class; dually."""
    T = M.table
    for a in range(M.size):
        for m in range(M.size):
            am = T[a][m]
            if gs.dclass[am] == gs.dclass[a]:
                assert gs.rclass[am] == gs.rclass[a]
            ma = T[m][a]
            if gs.dclass[ma] == gs.dclass[a]:
                assert gs.lclass[ma] == gs.lclass[a]


def check_matched_representative_independence(M, gs, boxes, schutzs):
    """Whether a column meets a row inside the D-class does not depend on the
    chosen representatives."""
    T = M.table
    for d, box in enumerate(boxes):
        sandwich = cm.sandwich(M, gs, box, schutzs[d])
        for i in range(len(box.rows)):
            for j in range(len(box.cols)):
                verdict = (i, j) in sandwich
                for ii in range(len(box.rows)):
                    for x in box.grid[ii][j]:
                        for jj in range(len(box.cols)):
                            for y in box.grid[i][jj]:
                                assert (gs.dclass[T[x][y]] == d) == verdict

"""Shared fixtures: cached monoids, Green data, and assembled datums."""

from __future__ import annotations

import pytest

import cellmonoid as cm
from cellmonoid.exactalg import FieldSpec


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
            group_data = cm.standard_group_data(M, gs, boxes, schutzs, fs)
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
        sch = schutzs[d]
        for i in range(len(box.rows)):
            for j in range(len(box.cols)):
                verdict = cm.matched(box, sch, i, j) is not None
                for ii in range(len(box.rows)):
                    for x in box.grid[ii][j]:
                        for jj in range(len(box.cols)):
                            for y in box.grid[i][jj]:
                                assert (gs.dclass[T[x][y]] == d) == verdict

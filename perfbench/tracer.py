"""Out-of-package tracing for the benchmark's traced run.

`install` wraps every public function of every `cellmonoid` module in a
span recorder and rebinds each module global that refers to a wrapped
function, so aliases such as `cellbasis.mat_rank` and `verify.mat_rank`
record under the defining module. It also counts calls to
`CellDatum.coordinates` and to each datum's product closure. Nothing inside
the package changes; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from typing import Callable, Dict, List, Optional

# Product kernels run once per product; they are counted through the datum's
# product closure ("kernel.products") rather than timed, so that the self time
# of their callers includes products the same way on every workload.
UNTIMED = frozenset({"twist.twisted_multiply"})


class Tracer:
    """Per-function call counts, inclusive time and self time, plus counters.

    A module is a layer. A call's self time is its duration minus the time
    spent beneath it in wrapped functions of other modules; calls to the
    same module's wrapped functions stay in it. Inclusive and self time
    count only a function's outermost active call, so recursion is not
    counted twice.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: Dict[str, int] = {}
        self.missing: Dict[str, str] = {}
        self._stack: List[List] = []  # per active call: [module, foreign_s]
        self._active: Dict[str, int] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        module = name.split(".")[0]
        stack = self._stack
        active = self._active
        active[name] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [module, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                stats[0] += 1
                if active[name] == 0:
                    stats[1] += dt
                    stats[2] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt if parent[0] != module else frame[1]

        return span

    def count(self, key: str, fn: Callable, weight: Optional[Callable] = None) -> Callable:
        counters = self.counters
        counters.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1 if weight is None else weight(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    def to_dict(self) -> Dict:
        return {
            "spans": {k: {"calls": int(v[0]), "incl_s": v[1], "self_s": v[2]}
                      for k, v in self.spans.items()},
            "counters": dict(self.counters),
            "missing": dict(self.missing),
        }


def package_modules() -> Dict[str, object]:
    """cellmonoid and each of its submodules, imported, by short name."""
    pkg = importlib.import_module("cellmonoid")
    mods = {"": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"cellmonoid.{info.name}")
    return mods


def install(tracer: Tracer) -> None:
    """Wrap cellmonoid's public functions and count the hot entry points."""
    mods = package_modules()
    wrapped: Dict[int, Callable] = {}
    for short, mod in mods.items():
        if not short:
            continue
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or id(obj) in wrapped
                    or f"{short}.{attr}" in UNTIMED):
                continue
            wrapped[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    _rebind(mods, wrapped)
    _count_rank_cells(tracer, mods)
    _count_datum_calls(tracer, mods)


def _rebind(mods: Dict[str, object], replacements: Dict[int, Callable]) -> None:
    """Point every module global that names a replaced function, aliases included,
    at its replacement (keyed by the id of the function it replaces)."""
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in replacements:
                setattr(mod, attr, replacements[id(obj)])


def _count_rank_cells(tracer: Tracer, mods: Dict[str, object]) -> None:
    exactalg = mods.get("exactalg")
    rank = getattr(exactalg, "mat_rank", None)
    if rank is None:
        tracer.missing["exactalg.mat_rank_cells"] = "cellmonoid.exactalg has no mat_rank"
        return

    def cells(m, *args, **kwargs) -> int:
        return m.rows * m.cols

    _rebind(mods, {id(rank): tracer.count("exactalg.mat_rank_cells", rank, weight=cells)})


def _count_datum_calls(tracer: Tracer, mods: Dict[str, object]) -> None:
    cls = getattr(mods.get("cellbasis"), "CellDatum", None)
    if cls is None:
        reason = "cellmonoid.cellbasis has no CellDatum"
        tracer.missing["cellbasis.coordinates_calls"] = reason
        tracer.missing["kernel.products"] = reason
        return
    if inspect.isfunction(getattr(cls, "coordinates", None)):
        cls.coordinates = tracer.count("cellbasis.coordinates_calls", cls.coordinates)
    else:
        tracer.missing["cellbasis.coordinates_calls"] = "CellDatum has no coordinates method"

    # Every datum stores its product closure as `mult`; a class-level property
    # takes precedence over the instance attribute and counts each call.
    tracer.counters.setdefault("kernel.products", 0)
    counters = tracer.counters

    def get_mult(self):
        return self.__dict__["_perfbench_mult"]

    def set_mult(self, fn):
        def product(x, y):
            counters["kernel.products"] += 1
            return fn(x, y)

        self.__dict__["_perfbench_mult"] = product

    cls.mult = property(get_mult, set_mult)

"""One-call builders wiring a monoid through Green data and group data to an
assembled cell datum."""

from __future__ import annotations

from typing import List, Tuple

from . import green as green_mod, groupcell
from .cellbasis import CellDatum, build_cell_datum
from .exactalg import FieldSpec
from .green import EggBox, GreenStructure, SchutzGroup
from .monoid import FiniteMonoid


def green_data(M: FiniteMonoid) -> Tuple[GreenStructure, List[EggBox], List[SchutzGroup]]:
    gs = green_mod.compute_green(M)
    boxes = [green_mod.build_eggbox(M, gs, d) for d in range(len(gs.dclasses))]
    schutzs = [green_mod.schutzenberger(M, box) for box in boxes]
    return gs, boxes, schutzs


def standard_datum(M: FiniteMonoid, field: FieldSpec) -> CellDatum:
    """The assembled cell datum of the monoid algebra over the given field."""
    gs, boxes, schutzs = green_data(M)
    group_data = groupcell.standard_group_data(schutzs, field)
    return build_cell_datum(M, gs, boxes, schutzs, group_data, field)


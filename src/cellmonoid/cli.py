"""Command-line interface: analyze / twist / verify with byte-stable reports.

Exit codes: 0 success, 1 usage or input error, 2 a mathematical check failed
(the report is still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from . import cellbasis, monoid as monoid_mod, pipeline, verify as verify_mod
from .exactalg import FieldSpec
from .monoid import CellmonoidError, FiniteMonoid, LoopTable

if TYPE_CHECKING:
    from .twist import Twisting

FAMILIES = ("tfull", "tpartial", "syminv", "jones")


def report_schema() -> Dict:
    from importlib import resources  # the CLI's own runs never read the schema

    text = resources.files("cellmonoid").joinpath("report_schema.json").read_text(encoding="utf-8")
    return json.loads(text)


class RunConfig(NamedTuple):
    command: str
    family: Optional[str]
    n: Optional[int]
    cayley: Optional[str]
    field: FieldSpec
    delta: Optional[str]
    twist_file: Optional[str]
    verify_mode: str
    report: Optional[str]
    cap: int

    def to_dict(self) -> Dict:
        """The report's config: each field but report, verify_mode as verify."""
        out = {**self._asdict(), "field": self.field.spec_string(), "verify": self.verify_mode}
        del out["verify_mode"], out["report"]
        return out


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellmonoid",
        description="Cell-structure analysis of finite monoid algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("analyze", "analyze the monoid algebra"),
                      ("twist", "analyze a twisted monoid algebra"),
                      ("verify", "run the basis axiom checker only")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--family", choices=FAMILIES)
        p.add_argument("--n", type=int)
        p.add_argument("--cayley", metavar="PATH")
        p.add_argument("--field", default="q", metavar="q|fp:P")
        p.add_argument("--verify", default="full", choices=("full", "off"), dest="verify_mode")
        p.add_argument("--report", metavar="PATH")
        p.add_argument("--cap", type=int, default=monoid_mod.DEFAULT_SIZE_CAP)
        if name in ("twist", "verify"):
            p.add_argument("--delta", metavar="SCALAR")
            p.add_argument("--twist-file", metavar="PATH", dest="twist_file")
    return parser


def _config_from_args(args) -> RunConfig:
    if (args.family is None) == (args.cayley is None):
        raise UsageError("exactly one monoid source: --family with --n, or --cayley")
    if args.family is not None and args.n is None:
        raise UsageError("--family needs --n")
    if args.family is None and args.n is not None:
        raise UsageError("--n needs --family")
    try:
        field = FieldSpec.parse(args.field)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    delta = getattr(args, "delta", None)
    twist_file = getattr(args, "twist_file", None)
    if delta is not None and twist_file is not None:
        raise UsageError("--delta and --twist-file are mutually exclusive")
    if delta is not None and args.family != "jones":
        raise UsageError("--delta needs a loop-table-bearing source (--family jones)")
    if args.command == "twist" and delta is None and twist_file is None:
        raise UsageError("twist needs --delta or --twist-file")
    if args.command == "verify" and args.verify_mode == "off":
        raise UsageError("verify needs --verify full")
    if args.report and not Path(args.report).parent.is_dir():
        raise UsageError(f"--report: {Path(args.report).parent} is not a directory")
    if args.report and Path(args.report).is_dir():
        raise UsageError(f"--report: {args.report} is a directory")
    return RunConfig(args.command, args.family, args.n, args.cayley, field,
                     delta, twist_file, args.verify_mode, args.report, args.cap)


def _build_monoid(cfg: RunConfig) -> Tuple[FiniteMonoid, Optional[LoopTable]]:
    if cfg.family is not None:
        return monoid_mod.family(cfg.family, cfg.n, cap=cfg.cap)
    return monoid_mod.load_cayley_json(cfg.cayley, cap=cfg.cap), None


def _build_twisting(cfg: RunConfig, M: FiniteMonoid,
                    loops: Optional[LoopTable]) -> Twisting:
    from . import twist as twist_mod  # untwisted runs never load the twisting code
    if cfg.delta is not None:
        delta = cfg.field.parse_scalar(cfg.delta)
        return twist_mod.make_loop_twisting(loops, delta, cfg.field)
    pi = twist_mod.load_twisting_json(cfg.twist_file, cfg.field)
    if len(pi.values) != M.size:
        raise UsageError(f"twisting grid has {len(pi.values)} rows for {M.size} elements")
    return pi


def _render_text(payload: Dict) -> str:
    lines = []
    cfg = payload["config"]
    lines.append(f"cellmonoid {payload['command']}  field={cfg['field']}  "
                 f"source={cfg['family'] or cfg['cayley']}"
                 + (f" n={cfg['n']}" if cfg["n"] is not None else ""))
    ana = payload.get("analysis")
    if ana:
        lines.append(f"monoid: size={ana['size']} regular={ana['regular']} inverse={ana['inverse']}")
        lines.append("D-classes (id, size, rows x cols, |H|, group):")
        for dc in ana["dclasses"]:
            bij = "bijection" if dc["bijection"] is not None else "no bijection"
            lines.append(f"  D{dc['id']}: size={dc['size']} grid={dc['rows']}x{dc['cols']} "
                         f"|H|={dc['hsize']} group={dc['group_kind']} ({bij})")
            lines.append("    matched: " + " ".join(
                "".join("X" if v else "." for v in row) for row in dc["matched"]))
        lines.append("nodes (label, |L|, |R|, rank, nonzero):")
        for nd in ana["nodes"]:
            mark = "*" if nd["in_lambda0"] else " "
            lines.append(f"  {mark} {nd['label']}: {nd['l_size']}x{nd['r_size']} rank={nd['gram_rank']}")
        lines.append(f"quasi-hereditary: {ana['quasi_hereditary']}"
                     + (f" (failing: {', '.join(ana['qh_failing'])})" if ana["qh_failing"] else ""))
        lines.append(f"semisimple: {ana['semisimple']}"
                     + (f" ({ana['ss_certificate']})" if ana["ss_certificate"] else
                        f" (sum of squared dims = {ana['dim_sq_sum']} of {ana['size']})"))
    tw = payload.get("twisting")
    if tw:
        lines.append(f"twisting: {tw['provenance']} cocycle_ok={tw['cocycle_ok']} "
                     f"compatibility={tw['compatibility']} lr={tw['lr']}")
    ax = payload.get("axioms")
    if ax:
        lines.append(f"axiom check ({ax['mode']}, {ax['acting_count']} acting): "
                     + ("ok" if ax["ok"] else f"FAIL {ax['witness']}"))
    checks = payload.get("cross_checks")
    if checks is not None:
        failed = [c for c in checks if c["status"] == "fail"]
        skipped = sum(c["status"] == "skip" for c in checks)
        lines.append(f"cross-checks: {len(checks) - skipped} run, {skipped} skipped, "
                     f"{len(failed)} failed")
        for c in failed:
            lines.append(f"  FAIL {c['name']}: {c['detail']}")
    return "\n".join(lines) + "\n"


def _emit(payload: Dict, cfg: RunConfig) -> None:
    sys.stdout.write(_render_text(payload))
    if cfg.report:
        monoid_mod._dump_json(payload, cfg.report)


def _payload(cfg: RunConfig, analysis=None, twisting=None, axioms=None, cross=None) -> Dict:
    return {
        "tool": "cellmonoid",
        "schema_version": 1,
        "command": cfg.command,
        "config": cfg.to_dict(),
        "analysis": analysis,
        "twisting": twisting,
        "axioms": axioms,
        "cross_checks": cross,
    }


def run(cfg: RunConfig) -> int:
    """Build the monoid and its datum, twist it when a twisting is given, then
    analyze it (not under verify) and check the basis axioms (unless --verify
    off).  A twisting that build_twisted_cell_datum refuses, as not a cocycle
    or as incompatible, ends the run with a twisting-only report."""
    M, loops = _build_monoid(cfg)
    pi = summary = None
    if cfg.delta is not None or cfg.twist_file is not None:
        pi = _build_twisting(cfg, M, loops)
    datum = pipeline.standard_datum(M, cfg.field)
    if pi is not None:
        from . import twist as twist_mod
        compat = twist_mod.compatibility_class(M, datum.attach.green, pi)
        try:
            datum = twist_mod.build_twisted_cell_datum(datum, pi, compat=compat)
        except twist_mod.TwistError as exc:
            witness = exc.witness if isinstance(exc, twist_mod.NotACocycle) else None
            _emit(_payload(cfg, twisting=twist_mod.twist_summary(pi, compat, witness)), cfg)
            return 2
        summary = twist_mod.twist_summary(pi, compat, None)
    analysis = ledger = axioms = None
    if cfg.command != "verify":
        report = cellbasis.analyze(datum)
        analysis = report.to_dict()
        ledger = verify_mod.cross_check(datum, report)
    if cfg.verify_mode != "off":
        axioms = verify_mod.verify_cell_axioms(datum).to_dict()
    _emit(_payload(cfg, analysis=analysis, twisting=summary, axioms=axioms, cross=ledger), cfg)
    bad = (any(c["status"] == "fail" for c in ledger or ())
           or (axioms is not None and not axioms["ok"]))
    return 2 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return run(_config_from_args(args))
    except (UsageError, CellmonoidError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

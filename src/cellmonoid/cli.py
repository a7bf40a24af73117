"""Command-line interface: analyze / twist / verify with byte-stable reports.

Grammar: ``cellmonoid COMMAND [--option VALUE | --option=VALUE]...``, COMMAND
one of ``analyze``, ``twist``, ``verify`` and each option from its table in
``_OPTIONS``.  A unique prefix names an option (``--fam``), the last repeat
wins, and a separate VALUE may begin with ``-`` but not ``--`` (``--delta -1/2``).
``-h`` or ``--help`` anywhere prints the usage; any other refusal is one ``error:`` line.

Exit codes: 0 success, 1 usage or input error, 2 a mathematical check failed
(the report is still written).
"""

from __future__ import annotations

import json
import os
import sys
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


USAGE = f"""usage: cellmonoid analyze|twist|verify [--option VALUE | --option=VALUE]...
analyze the monoid algebra, a twisted one (twist), or check its basis axioms (verify)
  --family {'|'.join(FAMILIES)} --n N, or --cayley PATH
  --field q|fp:P (q)  --verify full|off (full)  --report PATH  --cap N ({monoid_mod.DEFAULT_SIZE_CAP})
  twist and verify only: --delta SCALAR, or --twist-file PATH
"""

# Each command's options: name -> (RunConfig field, int, str or the choices, default).
_COMMON = {"--family": ("family", FAMILIES, None), "--n": ("n", int, None),
           "--cayley": ("cayley", str, None), "--field": ("field", str, "q"),
           "--verify": ("verify_mode", ("full", "off"), "full"), "--report": ("report", str, None),
           "--cap": ("cap", int, monoid_mod.DEFAULT_SIZE_CAP)}
_TWISTED = {**_COMMON, "--delta": ("delta", str, None), "--twist-file": ("twist_file", str, None)}
_OPTIONS = {"analyze": _COMMON, "twist": _TWISTED, "verify": _TWISTED}


def _config_from_args(argv: List[str]) -> RunConfig:
    if not argv or argv[0] not in _OPTIONS:
        raise UsageError(f"the first word must be a command: {', '.join(_OPTIONS)}")
    table = _OPTIONS[argv[0]]
    args = {"command": argv[0], **{dest: dflt for dest, _, dflt in _TWISTED.values()}}
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=")
        names = [name] if name in table else [
            o for o in table if o.startswith(name) and name.startswith("--")]
        if len(names) != 1:
            raise UsageError(f"{'ambiguous' if names else 'unrecognized'} option {name!r} for {argv[0]}")
        if not eq:
            value = next(words, "--")
            if value.startswith("--"):
                raise UsageError(f"argument {names[0]}: expected one value")
        dest, kind, _ = table[names[0]]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"argument {names[0]}: invalid int value: {value!r}") from None
        elif kind is not str and value not in kind:
            raise UsageError(f"argument {names[0]}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, kind))})")
        args[dest] = value
    family, delta, twist_file, report = map(args.get, ("family", "delta", "twist_file", "report"))
    if (family is None) == (args["cayley"] is None):
        raise UsageError("exactly one monoid source: --family with --n, or --cayley")
    if (family is None) != (args["n"] is None):
        raise UsageError("--n needs --family" if family is None else "--family needs --n")
    try:
        field = FieldSpec.parse(args["field"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if delta is not None and twist_file is not None:
        raise UsageError("--delta and --twist-file are mutually exclusive")
    if delta is not None and family != "jones":
        raise UsageError("--delta needs a loop-table-bearing source (--family jones)")
    if args["command"] == "twist" and delta is None and twist_file is None:
        raise UsageError("twist needs --delta or --twist-file")
    if args["command"] == "verify" and args["verify_mode"] == "off":
        raise UsageError("verify needs --verify full")
    if report == "":
        raise UsageError("--report: the path is empty")
    if report and not os.path.isdir(parent := os.path.dirname(report) or "."):
        raise UsageError(f"--report: {parent} is not a directory")
    if report and os.path.isdir(report):
        raise UsageError(f"--report: {report} is a directory")
    return RunConfig(**{**args, "field": field})


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
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return 0
    try:
        return run(_config_from_args(argv))
    except (UsageError, CellmonoidError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

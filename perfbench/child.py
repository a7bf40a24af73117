"""One benchmark child process: a CLI command or the library path, optionally traced.

    python3 perfbench/child.py [--trace OUT] cli <cellmonoid CLI arguments...>
    python3 perfbench/child.py [--trace OUT] library KIND N --report PATH

`cli` runs `cellmonoid.cli.main` on the arguments, as the console script
does. `library` builds `family(KIND, N)`, runs `pipeline.standard_datum`
over the rationals and `cellbasis.analyze`, and writes the analysis report
as `json.dumps(report.to_dict(), sort_keys=True, indent=2)`. With `--trace`,
every public `cellmonoid` function is wrapped first and the span and counter
totals are written to OUT as JSON when the work ends.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def run_library(kind: str, n: int, report_path: str) -> int:
    from cellmonoid import cellbasis, monoid, pipeline
    from cellmonoid.exactalg import RATIONALS

    M, _ = monoid.family(kind, n)
    datum = pipeline.standard_datum(M, RATIONALS)
    report = cellbasis.analyze(datum)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    Path(report_path).write_text(text, encoding="utf-8")
    return 0


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out is not None:
        import tracer as tracing  # kept out of the plain child's start-up

        tracer = tracing.Tracer()
        tracing.install(tracer)
    mode, args = argv[0], argv[1:]
    if mode == "cli":
        from cellmonoid import cli
        code = cli.main(args)
    elif mode == "library" and len(args) == 4 and args[2] == "--report":
        code = run_library(args[0], int(args[1]), args[3])
    else:
        sys.stderr.write(f"child.py: bad arguments {argv!r}\n")
        return 2
    if tracer is not None:
        Path(trace_out).write_text(json.dumps(tracer.to_dict()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

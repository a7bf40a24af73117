"""Start-up: a run loads only the modules it executes.  The package exports
its public names lazily (PEP 562), untwisted runs load neither the twisting
code nor fractions, no run loads an argument parser or pathlib, and each path
that makes a Fraction loads fractions itself.  Each check runs in a fresh
interpreter, started with -S so that site hooks load nothing on their own
behalf."""

import ast
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cellmonoid as cm

SRC = Path(cm.__file__).resolve().parent.parent

PARSER = {"argparse", "gettext", "locale", "shutil"}  # argparse and what it loads
WATCHED = ("sorted(m for m in sys.modules if m.startswith('cellmonoid.')"
           f" or m in {('fractions', 'decimal', *sorted(PARSER))})")

# The package's exports when it imported every submodule, by defining module.
EXPORTS = {
    "exactalg": ["DenseMatrix", "FieldSpec", "RATIONALS", "Scalar", "mat_rank", "prime_field"],
    "monoid": ["BadIdentity", "CellmonoidError", "FiniteMonoid", "LoopTable", "MonoidError",
               "NotAssociative", "SizeCapExceeded", "family", "from_cayley_table",
               "generate_from_maps", "generating_set", "idempotents", "load_cayley_json",
               "save_cayley_json"],
    "green": ["EggBox", "GreenStructure", "SchutzGroup", "bijection_condition", "build_eggbox",
              "compute_green", "sandwich", "schutzenberger"],
    "groupcell": ["AxiomViolation", "UnsupportedGroup", "find_symmetric_iso", "murphy_datum",
                  "partitions", "standard_group_data", "standard_tableaux",
                  "trivial_group_datum"],
    "cellbasis": ["AnalysisReport", "CellDatum", "GramSummary", "GroupDatumAttachment",
                  "MonoidAttachment", "NotABasis", "GroupMismatch", "analyze", "bracket_value",
                  "build_cell_datum", "gram_definition", "gram_fast", "gram_summary",
                  "lambda0_via_matching", "table_mult", "weighted_sandwich"],
    "twist": ["Compatibility", "IncompatibleTwisting", "Twisting", "build_twisted_cell_datum",
              "compatibility_class", "make_loop_twisting", "trivial_twisting", "verify_twisting",
              "load_twisting_json", "NotACocycle", "save_twisting_json"],
    "verify": ["AxiomReport", "WrongCharacteristic", "cross_check", "trace_form_semisimple",
               "verify_cell_axioms"],
    "pipeline": ["green_data", "standard_datum"],
}


def fresh(code):
    """The last line that code prints in a fresh interpreter importing from src."""
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
    return out.splitlines()[-1]


def loaded(code):
    """The cellmonoid submodules, fractions, decimal and PARSER held after code runs."""
    return set(ast.literal_eval(fresh(f"import sys\n{code}\nprint({WATCHED})")))


def test_package_import_loads_no_submodule():
    assert loaded("import cellmonoid") == set()


@pytest.mark.parametrize("code", [
    "import cellmonoid.cli",
    "from cellmonoid import cli; cli.main(['analyze', '--family', 'tfull', '--n', '3'])",
])
def test_untwisted_cli_loads_no_twisting_code(code):
    mods = loaded(code)
    assert "cellmonoid.cli" in mods
    assert not mods & {"cellmonoid.twist", "fractions", "decimal"}


def test_library_datum_loads_no_checks():
    mods = loaded("from cellmonoid import cellbasis, monoid, pipeline\n"
                  "from cellmonoid.exactalg import RATIONALS\n"
                  "M, _ = monoid.family('tpartial', 3)\n"
                  "cellbasis.analyze(pipeline.standard_datum(M, RATIONALS))")
    assert "cellmonoid.cellbasis" in mods
    assert not mods & {"cellmonoid.verify", "cellmonoid.twist", "cellmonoid.cli"}


def cli_run(*args):
    return f"from cellmonoid import cli\ncli.main({list(args)!r})"


def test_twist_run_loads_twist():
    mods = loaded(cli_run("twist", "--family", "jones", "--n", "3", "--delta", "2"))
    assert "cellmonoid.twist" in mods
    assert not mods & {"fractions", "decimal"}  # an integral delta is read by int


def test_non_integral_delta_loads_fractions():
    mods = loaded(cli_run("twist", "--family", "jones", "--n", "3", "--delta", "1/2"))
    assert "fractions" in mods


@pytest.mark.parametrize("code", [
    "import cellmonoid.cli",
    cli_run("analyze", "--family", "tfull", "--n", "3"),
    cli_run("twist", "--family", "jones", "--n", "3", "--delta", "2"),
    cli_run("verify", "--family", "tfull", "--n", "2"),
], ids=["import", "analyze", "twist", "verify"])
def test_cli_loads_no_argument_parser(code):
    assert not loaded(code) & PARSER


def test_exports_are_the_defining_modules_objects():
    exported = [name for names in EXPORTS.values() for name in names]
    assert sorted(cm.__all__) == sorted(set(exported)) and len(exported) == 70
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"cellmonoid.{module}")
        for name in names:
            assert getattr(cm, name) is getattr(home, name), name
    assert set(exported) | set(EXPORTS) <= set(dir(cm))


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "law_failure"):  # law_failure is not exported
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(cm, name)
    with pytest.raises(ImportError):
        from cellmonoid import no_such_name  # noqa: F401


def test_submodule_attribute_imports_the_submodule():
    # the twisting laws live in twist, by their one caller, and verify
    # proves none of them
    assert fresh("import cellmonoid as cm\n"
                 "print(callable(cm.twist.law_failure), hasattr(cm.verify, 'law_failure'))"
                 ) == "True False"


@pytest.mark.parametrize("call, value", [
    ("RATIONALS.parse_scalar('1/2')", Fraction(1, 2)),
    ("RATIONALS.inv(3)", Fraction(1, 3)),
    ("mat_inverse(DenseMatrix.from_rows(RATIONALS, [[2]])).entries[0][0]", Fraction(1, 2)),
    # det 1, but its inverse's entries are too large to lift from one prime,
    # so it ends in the exact route, whose last pivot 1 keeps them ints
    ("mat_inverse(DenseMatrix.from_rows(RATIONALS, [[2, 2**41 + 1], [1, 2**40 + 1]]))"
     ".entries[0][0]", 2**40 + 1),
    ("_rational(4, 2)", 2),
    ("RATIONALS.parse_scalar('2')", 2),
])
def test_fraction_paths_load_fractions_themselves(call, value):
    # each call is the process's first use of exact rationals
    out = fresh("import sys\n"
                "from cellmonoid.exactalg import DenseMatrix, RATIONALS, _rational, mat_inverse\n"
                "before = 'fractions' in sys.modules\n"
                f"v = {call}\n"
                "print(repr((before, type(v).__name__, str(v), 'fractions' in sys.modules)))")
    before, kind, text, after = ast.literal_eval(out)
    assert (before, kind, text) == (False, type(value).__name__, str(value))
    assert after == (kind == "Fraction")


def test_cli_file_paths_load_no_pathlib(tmp_path):
    # pathlib, with the urllib.parse and ipaddress it loads, costs a run
    # milliseconds of imports: the --report checks use os.path, and the JSON
    # files are read and written by open.
    table, report = str(tmp_path / "c.json"), str(tmp_path / "r.json")
    out = fresh("import sys\n"
                "from cellmonoid import cli, monoid\n"
                f"monoid.save_cayley_json(monoid.family('tfull', 2)[0], {table!r})\n"
                f"cli.main(['analyze', '--cayley', {table!r}, '--report', {report!r}])\n"
                "print('pathlib' in sys.modules)")
    assert out == "False"
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["analysis"]["size"] == 4

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cellmonoid as cm
from cellmonoid.cli import main, report_schema

from conftest import edited

jsonschema = pytest.importorskip("jsonschema")


def run(args, tmp_path, name="r.json"):
    report = tmp_path / name
    code = main(args + ["--report", str(report)])
    payload = json.loads(report.read_text()) if report.exists() else None
    return code, payload, report


def test_analyze_syminv3(tmp_path, capsys):
    code, payload, _ = run(["analyze", "--family", "syminv", "--n", "3", "--field", "q"], tmp_path)
    assert code == 0
    ana = payload["analysis"]
    assert ana["semisimple"] and ana["quasi_hereditary"] and ana["dim_sq_sum"] == 34
    assert payload["axioms"]["ok"]
    jsonschema.validate(payload, report_schema())
    out = capsys.readouterr().out
    assert "semisimple: True" in out


def test_analyze_tfull3(tmp_path):
    code, payload, _ = run(["analyze", "--family", "tfull", "--n", "3", "--field", "q",
                            "--verify", "full"], tmp_path)
    assert code == 0
    ana = payload["analysis"]
    assert ana["quasi_hereditary"] and not ana["semisimple"]
    assert payload["axioms"]["mode"] == "full"
    assert payload["axioms"]["acting_count"] == 27
    jsonschema.validate(payload, report_schema())


def test_analyze_cayley_file_fp3(tmp_path):
    M, _ = cm.family("syminv", 3)
    table = tmp_path / "i3.json"
    cm.save_cayley_json(M, table)
    code, payload, _ = run(["analyze", "--cayley", str(table), "--field", "fp:3",
                            "--verify", "off"], tmp_path)
    assert code == 0
    assert payload["analysis"]["semisimple"] is False
    assert payload["axioms"] is None
    jsonschema.validate(payload, report_schema())


def test_twist_jones3_delta2(tmp_path):
    code, payload, _ = run(["twist", "--family", "jones", "--n", "3",
                            "--delta", "2", "--field", "q"], tmp_path)
    assert code == 0
    assert payload["twisting"]["compatibility"] == "strong"
    assert payload["analysis"]["semisimple"]
    jsonschema.validate(payload, report_schema())


def test_twist_jones2_delta0(tmp_path):
    code, payload, _ = run(["twist", "--family", "jones", "--n", "2",
                            "--delta", "0", "--field", "q"], tmp_path)
    assert code == 0
    assert payload["twisting"]["compatibility"] == "compatible"
    assert payload["analysis"]["semisimple"] is False
    jsonschema.validate(payload, report_schema())


def test_twist_file_source(tmp_path):
    M, _ = cm.family("tfull", 2)
    table = tmp_path / "t2.json"
    cm.save_cayley_json(M, table)
    pi = cm.trivial_twisting(M.size, cm.RATIONALS)
    tw = tmp_path / "pi.json"
    cm.save_twisting_json(pi, tw)
    code, payload, _ = run(["twist", "--cayley", str(table), "--twist-file", str(tw),
                            "--field", "q"], tmp_path)
    assert code == 0
    assert payload["twisting"]["compatibility"] == "strong"
    assert payload["twisting"]["lr"] is True


def test_verify_commands(tmp_path):
    code, payload, _ = run(["verify", "--family", "tpartial", "--n", "2", "--field", "q"], tmp_path)
    assert code == 0 and payload["axioms"]["ok"]
    code, payload, _ = run(["verify", "--family", "jones", "--n", "4", "--delta", "2",
                            "--field", "q"], tmp_path)
    assert code == 0 and payload["axioms"]["ok"]
    jsonschema.validate(payload, report_schema())


def test_verify_accepts_only_full_and_off(capsys):
    # the generators mode is gone: the parser refuses it as an invalid choice,
    # and verify with the check off names the one mode left
    assert main(["verify", "--family", "tfull", "--n", "2", "--verify", "generators"]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'generators' (choose from 'full', 'off')" in err
    assert "Traceback" not in err
    assert main(["verify", "--family", "tfull", "--n", "2", "--verify", "off"]) == 1
    assert capsys.readouterr().err == "error: verify needs --verify full\n"


def test_twist_run_proves_the_laws_once(tmp_path, monkeypatch, capsys):
    # build_twisted_cell_datum proves the unit and cocycle laws and marks its
    # datum, so the full axiom check does not prove them again.  bad_pi.json
    # of the golden runs fails on the middles, and the rescan over every
    # middle names the witness: two calls there, and no axiom check.
    calls = []
    law_failure = cm.twist.law_failure

    def counted(*args):
        calls.append(sorted(args[3]))
        return law_failure(*args)

    monkeypatch.setattr(cm.twist, "law_failure", counted)
    code, payload, _ = run(["twist", "--family", "jones", "--n", "4", "--delta", "2"], tmp_path)
    assert code == 0 and payload["axioms"]["ok"] and payload["axioms"]["mode"] == "full"
    assert len(calls) == 1
    monkeypatch.chdir(tmp_path)
    M, _ = cm.family("tfull", 2)
    cm.save_cayley_json(M, "t2.json")
    pi = edited(cm.trivial_twisting(M.size, cm.RATIONALS), (1, 1, Fraction(2)))
    cm.save_twisting_json(pi, "bad_pi.json")
    calls.clear()
    code, payload, _ = run(["twist", "--cayley", "t2.json", "--twist-file", "bad_pi.json"],
                           tmp_path)
    assert code == 2 and payload["axioms"] is None
    assert payload["twisting"]["cocycle_witness"] == {"law": "cocycle", "triple": [1, 1, 2]}
    assert calls == [sorted(M.gens), list(range(M.size))]


def test_usage_errors(tmp_path):
    assert main(["analyze", "--field", "q"]) == 1                      # no source
    assert main(["analyze", "--family", "tfull", "--field", "q"]) == 1  # no n
    assert main(["analyze", "--family", "tfull", "--n", "2", "--field", "fp:4"]) == 1
    assert main(["twist", "--family", "jones", "--n", "2", "--field", "q"]) == 1
    assert main(["twist", "--family", "tfull", "--n", "2", "--delta", "2",
                 "--field", "q"]) == 1                                  # no loop table
    assert main(["analyze", "--family", "tfull", "--n", "6", "--field", "q"]) == 1  # cap
    assert main(["analyze", "--cayley", str(tmp_path / "missing.json"), "--field", "q"]) == 1


# Each refusal of the command line: its arguments and a part of its message.
REFUSALS = {
    "no_command": ([], "the first word must be a command: analyze, twist, verify"),
    "unknown_command": (["frob", "--family", "tfull", "--n", "2"], "a command"),
    "unknown_option": (["analyze", "--family", "tfull", "--n", "2", "--frob", "1"],
                       "unrecognized option '--frob' for analyze"),
    "option_of_another_command": (["analyze", "--family", "jones", "--n", "3", "--delta", "2"],
                                  "unrecognized option '--delta' for analyze"),
    "single_dash_option": (["analyze", "-n", "2"], "unrecognized option '-n'"),
    "missing_value": (["analyze", "--family", "tfull", "--n"], "--n: expected one value"),
    "value_starts_with_dashes": (["analyze", "--family", "--n", "2"],
                                 "--family: expected one value"),
    "n_not_an_int": (["analyze", "--family", "tfull", "--n", "x"], "invalid int value: 'x'"),
    "unknown_family": (["analyze", "--family", "foo", "--n", "2"], "invalid choice: 'foo'"),
    "verify_generators": (["verify", "--family", "tfull", "--n", "2", "--verify", "generators"],
                          "invalid choice: 'generators' (choose from 'full', 'off')"),
    "ambiguous_prefix": (["analyze", "--family", "tfull", "--n", "2", "--ca", "3"],
                         "ambiguous option '--ca' for analyze"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_usage_refusal_is_one_line(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args, message = REFUSALS[case]
    assert main(args[:1] + ["--report", "r.json"] + args[1:]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err
    assert list(tmp_path.iterdir()) == []  # no report


def test_usage_refusal_exits_1_from_the_module():
    src = Path(cm.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "cellmonoid.cli", "analyze", "--n", "x"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: argument --n: invalid int value: 'x'\n"


def _report_bytes(args, tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(args + ["--report", str(report)]) == 0, args
    return report.read_bytes(), capsys.readouterr().out


def test_option_spellings_give_the_same_report(tmp_path, capsys):
    # --delta -1/2 is a value (a separate value may start with one dash), a
    # unique prefix names its option, and the last repeated option wins
    plain = ["twist", "--family", "jones", "--n", "3", "--delta", "-1/2"]
    expected = _report_bytes(plain, tmp_path, capsys)
    assert b'"delta": "-1/2"' in expected[0]
    for args in (["twist", "--family=jones", "--n=3", "--delta=-1/2"],
                 ["twist", "--fam", "jones", "--n", "3", "--del", "-1/2"],
                 ["twist", "--family", "tfull", "--n", "2", "--delta", "5", *plain[1:]]):
        assert _report_bytes(args, tmp_path, capsys) == expected, args
    tfull = ["analyze", "--family", "tfull", "--n", "2", "--field", "fp:3"]
    assert (_report_bytes(["analyze", "--fam", "tfull", "--n=2", "--fi=fp:3"], tmp_path, capsys)
            == _report_bytes(tfull, tmp_path, capsys))


@pytest.mark.parametrize("args", [["--help"], ["twist", "-h"],
                                  ["analyze", "--family", "foo", "--help"]])
def test_help_names_every_command_and_option(args, capsys):
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: cellmonoid ")
    for word in ("analyze", "twist", "verify", "--family", "--n", "--cayley", "--field",
                 "--verify", "--report", "--cap", "--delta", "--twist-file"):
        assert word in out, word


def test_report_determinism(tmp_path):
    configs = [
        ["analyze", "--family", "syminv", "--n", "2", "--field", "q"],
        ["twist", "--family", "jones", "--n", "3", "--delta", "2", "--field", "q"],
        ["verify", "--family", "tfull", "--n", "2", "--field", "fp:5"],
    ]
    for k, cfg in enumerate(configs):
        _, _, p1 = run(cfg, tmp_path, name=f"a{k}.json")
        _, _, p2 = run(cfg, tmp_path, name=f"b{k}.json")
        assert p1.read_bytes() == p2.read_bytes()


def test_unsupported_group_exit(tmp_path):
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    M = cm.from_cayley_table(4, 0, table, ["0", "1", "2", "3"])
    path = tmp_path / "c4.json"
    cm.save_cayley_json(M, path)
    assert main(["analyze", "--cayley", str(path), "--field", "q"]) == 1


# Each run: arguments, exit code, sha256 of the --report bytes and of stdout.
GOLDEN = [
    (["analyze", "--family", "tfull", "--n", "3", "--verify", "full"], 0,
     "a6582379c1d64d6ea7e5076f271e32f7eb5360f1c80a6d8389aa24e9e342cbb6",
     "f1cf533d681f31dab94f8972aa6e1c08ac34dbdba39b8abe9c34c0e5dd26eb33"),
    (["analyze", "--family", "syminv", "--n", "3", "--field", "fp:2"], 0,
     "d6c6857d3c85c8c4f5d7c8dd7ae019bfc53a2d7f219f5f640631eedfa8ac9d60",
     "0525778d8336a983e9230b29fe0731866d6c5fc14f65b9b82233b4ee898bca95"),
    (["twist", "--family", "jones", "--n", "4", "--delta", "0"], 0,
     "e24c6d46b26dd9da31b5c7c9c601baca2815224449f5c403a4966efec4e3ad36",
     "9316e0f1e6b046cf4487affabe6a0bbbf9e01716bb816a542407eaa07ec13c9f"),
    (["verify", "--family", "jones", "--n", "4", "--delta", "2"], 0,
     "6f33d4a5a88aea3ff6961db001bffd4e4e8c588e0242f0607d9952c905e48a60",
     "4acb3ce45fa5384f7ec7826cbdb27d5608e50c5b3c3c4d5bbd6f08858c16e45d"),
    (["verify", "--family", "tfull", "--n", "3", "--verify", "full"], 0,
     "423ad0496189ddb6650ea3692debf472ca7277fe4864ea59416287aec19994ee",
     "df5df5a0623b31fd9f759c556adb9656925da58b6442c7c0b567fe2149e2dc21"),
    # a twisting file that breaks the cocycle law (and is incompatible: pi(1, .)
    # varies on the R-class {1, 3}): exit 2 with a twisting-only report
    (["twist", "--cayley", "t2.json", "--twist-file", "bad_pi.json"], 2,
     "ffb77db7acdea81f36a6e3083be00d03a338e5b362cf5bb3944f9235374e0aa3",
     "5869dabb3ac977668a468e8ddc4b53dc92a61d8fd32af1bb516cd206dfa4a641"),
    (["verify", "--cayley", "t2.json", "--twist-file", "bad_pi.json"], 2,
     "09ecbf4edcdf4ee964c1f6a9b992686e824a5a7ed891cb492e0ed06fe01b79ef",
     "d6155a433d3f80f4fc71c87f225470d3b0cb9aadbe63e3c2bc91372ffce2b803"),
    (["twist", "--family", "jones", "--n", "3", "--delta", "2", "--verify", "off"], 0,
     "4e300e76066e45347ed68452b5ebb382dfd188514c80c58ea162d2090d56d470",
     "f2867542d71911799b66ea1b3e20cfb0529806233511bf2020991cdbb3483ed7"),
    # a non-integral delta: the loop twisting's values are Fractions
    (["twist", "--family", "jones", "--n", "3", "--delta", "1/2"], 0,
     "a69d18f5ecd56796e53c74837dcdb203e81820a7ed7436e5f1fc9d6c08aa176a",
     "71ed3d0592af529a2a398dff0e76da5195733df2b004a3d5b8de7fc8db78d91b"),
]


def test_reports_are_byte_stable(tmp_path, monkeypatch, capsys):
    # file sources are named relative to the working directory, so neither the
    # report's config nor the text output carries a temporary path
    monkeypatch.chdir(tmp_path)
    M, _ = cm.family("tfull", 2)
    cm.save_cayley_json(M, "t2.json")
    pi = edited(cm.trivial_twisting(M.size, cm.RATIONALS), (1, 1, Fraction(2)))
    cm.save_twisting_json(pi, "bad_pi.json")
    for k, (args, code, report_sha, stdout_sha) in enumerate(GOLDEN):
        report = tmp_path / f"golden{k}.json"
        assert main(args + ["--report", str(report)]) == code, args
        out = capsys.readouterr().out
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha, args
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha, args


def _text_file(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _json_file(path, obj):
    return _text_file(path, json.dumps(obj))


T2_TABLE = {"size": 2, "identity": 0, "table": [[0, 1], [1, 1]]}  # {1, z} with z absorbing
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder recurses

INPUT_FAULTS = {
    "twist_file_wrong_size": lambda p: [
        "twist", "--cayley", _json_file(p / "c.json", T2_TABLE),
        "--twist-file", _json_file(p / "pi.json", {"values": [["1"]]})],
    "delta_divides_by_zero_q": lambda p: [
        "twist", "--family", "jones", "--n", "2", "--delta", "1/0"],
    "delta_divides_by_zero_fp": lambda p: [
        "twist", "--family", "jones", "--n", "2", "--delta", "1/3", "--field", "fp:3"],
    "cayley_missing_table": lambda p: [
        "analyze", "--cayley", _json_file(p / "c.json", {"size": 2, "identity": 0})],
    "twist_file_missing_values": lambda p: [
        "twist", "--cayley", _json_file(p / "c.json", T2_TABLE),
        "--twist-file", _json_file(p / "pi.json", {"grid": []})],
    "table_not_a_list": lambda p: [
        "analyze", "--cayley", _json_file(p / "c.json", dict(T2_TABLE, table=5))],
    "size_not_an_int": lambda p: [
        "analyze", "--cayley", _json_file(p / "c.json", dict(T2_TABLE, size="2"))],
    "cayley_top_level_list": lambda p: [
        "analyze", "--cayley", _json_file(p / "c.json", T2_TABLE["table"])],
    "values_not_a_list": lambda p: [
        "twist", "--cayley", _json_file(p / "c.json", T2_TABLE),
        "--twist-file", _json_file(p / "pi.json", {"values": 3})],
    "cayley_is_a_directory": lambda p: ["analyze", "--cayley", str(p)],
    "cayley_nested_too_deep": lambda p: [
        "analyze", "--cayley", _text_file(p / "c.json", DEEP_ARRAY)],
    "twist_file_nested_too_deep": lambda p: [
        "twist", "--cayley", _json_file(p / "c.json", T2_TABLE),
        "--twist-file", _text_file(p / "pi.json", f'{{"values": {DEEP_ARRAY}}}')],
    "report_is_a_directory": lambda p: [
        "analyze", "--family", "tfull", "--n", "2", "--report", str(p)],
    "cayley_booleans": lambda p: [
        "analyze", "--cayley", _json_file(p / "c.json", {
            "size": 2, "identity": False, "table": [[False, True], [True, True]]})],
    "n_without_family": lambda p: [
        "verify", "--cayley", _json_file(p / "c.json", T2_TABLE), "--n", "7"],
    "over_cap_tfull_2000": lambda p: ["analyze", "--family", "tfull", "--n", "2000"],
    "over_cap_tfull_1e9": lambda p: ["analyze", "--family", "tfull", "--n", str(10 ** 9)],
    "over_cap_jones_3000": lambda p: ["analyze", "--family", "jones", "--n", "3000"],
}


@pytest.mark.parametrize("fault", sorted(INPUT_FAULTS))
def test_input_fault_exits_1_with_one_line(fault, tmp_path, capsys):
    assert main(INPUT_FAULTS[fault](tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("fault", sorted(f for f in INPUT_FAULTS if f.startswith("over_cap")))
def test_over_cap_family_is_refused_at_once(fault, tmp_path, capsys):
    start = time.perf_counter()
    assert main(INPUT_FAULTS[fault](tmp_path)) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "cap 5000" in err and len(err) < 200, err


def test_cap_applies_before_table_validation(tmp_path, capsys):
    # not associative, so validating it first would end in NotAssociative
    bad = {"size": 3, "identity": 0, "table": [[0, 1, 2], [1, 2, 2], [2, 2, 1]]}
    assert main(["analyze", "--cayley", _json_file(tmp_path / "c.json", bad), "--cap", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: table has more elements than the cap 2\n"


def test_unsupported_group_names_the_library_route(tmp_path, capsys):
    # the cyclic group of order 3 has no built-in datum, and no CLI flag
    # takes a custom one
    c3 = {"size": 3, "identity": 0, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    assert main(["analyze", "--cayley", _json_file(tmp_path / "c3.json", c3)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert "only trivial and symmetric groups" in err
    assert "standard_group_data(custom=...)" in err


@pytest.mark.parametrize("source", ["family", "cayley"])
def test_delta_needs_the_jones_family(tmp_path, capsys, source):
    # only family("jones", n) carries a loop table, so any other source is
    # refused before the monoid is built
    args = (["--family", "tfull", "--n", "2"] if source == "family"
            else ["--cayley", _json_file(tmp_path / "c.json", T2_TABLE)])
    assert main(["twist", *args, "--delta", "2", "--field", "q"]) == 1
    err = capsys.readouterr().err
    assert err == "error: --delta needs a loop-table-bearing source (--family jones)\n"


@pytest.mark.parametrize("field,delta", [("q", "abc"), ("q", "1/2/3"), ("fp:3", "abc"),
                                         ("fp:3", "1.5")])
def test_bad_delta_names_the_scalar_and_the_field(field, delta, capsys):
    assert main(["twist", "--family", "jones", "--n", "2", "--delta", delta,
                 "--field", field]) == 1
    err = capsys.readouterr().err
    assert err == f"error: scalar {delta!r} is not n or n/d in {field}\n"


def test_non_json_input_names_the_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("not json", encoding="utf-8")
    assert main(["analyze", "--cayley", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: Expecting value: line 1 column 1 (char 0)\n"


@pytest.mark.parametrize("parent", ["missing", "file.txt"])
def test_report_outside_a_directory_fails_before_the_work(parent, tmp_path, capsys):
    (tmp_path / "file.txt").write_text("", encoding="utf-8")
    report = tmp_path / parent / "r.json"
    assert main(["analyze", "--family", "tfull", "--n", "2", "--report", str(report)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --report: {report.parent} is not a directory\n"
    assert not report.exists()


def test_report_naming_a_directory_fails_before_the_work(tmp_path, capsys):
    assert main(["analyze", "--family", "tfull", "--n", "2", "--report", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --report: {tmp_path} is a directory\n"


@pytest.mark.parametrize("spelling", [["--report", ""], ["--report="]])
def test_an_empty_report_path_fails_before_the_work(spelling, tmp_path, monkeypatch, capsys):
    # an empty path names no file, so no report could be written
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--family", "tfull", "--n", "2", *spelling]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --report: the path is empty\n"
    assert list(tmp_path.iterdir()) == []


HEAVY = ("dataclasses", "argparse")  # no module in src imports these


def test_cli_import_loads_no_record_machinery():
    # Each CLI run is a fresh process that pays for every module it imports:
    # dataclasses alone pulls in inspect, ast, dis and tokenize, and argparse
    # gettext, locale and shutil.  -S keeps site hooks from loading them on
    # their own behalf.
    src = Path(cm.__file__).resolve().parent.parent
    probe = ("import sys, cellmonoid.cli; "
             "print(sorted({'dataclasses', 'inspect', 'argparse'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    assert out == "[]\n"
    importers = [path.name for path in sorted((src / "cellmonoid").glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.ImportFrom) and node.module in HEAVY
                 or isinstance(node, ast.Import) and any(a.name in HEAVY for a in node.names)]
    assert importers == []

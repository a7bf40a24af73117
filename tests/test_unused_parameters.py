"""Source checks: every function parameter in the package is read by its
body, and every record field is read as an attribute by the package, or is
named as one only the tests read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cellmonoid"
TESTS = Path(__file__).resolve().parent

# Serialized whole by NamedTuple._asdict, so each field is read by name.
SERIALIZED_WHOLE = {"AnalysisReport", "AxiomReport"}

# Fields no package code reads, kept as the structure the tests inspect.
TESTS_ONLY = {"GreenStructure.hclass", "GreenStructure.hclasses", "SchutzGroup.hclass"}


def _unread_parameters(tree):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for a in params:
            if a.arg not in read and a.arg not in ("self", "cls"):
                yield getattr(node, "name", "<lambda>"), node.lineno, a.arg


def test_every_parameter_is_read():
    unread = [f"{path.name}:{line} {func}({name})"
              for path in sorted(SRC.glob("*.py"))
              for func, line, name in _unread_parameters(ast.parse(path.read_text(), str(path)))]
    assert unread == []


def _slots(cls):
    """(line, name) for each name in the class's __slots__ tuple, if any."""
    for stmt in cls.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)):
            return [(stmt.lineno, e.value) for e in stmt.value.elts]
    return []


def _is_dataclass(cls):
    """A record: a dataclass, a NamedTuple, or a class with __slots__."""
    return (any(isinstance(d, ast.Name) and d.id == "dataclass"
                or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                for d in cls.decorator_list)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases)
            or bool(_slots(cls)))


def _dataclass_fields(tree):
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield cls.name, stmt.lineno, stmt.target.id
            for line, name in _slots(cls):
                yield cls.name, line, name


def _attributes_read(tree):
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    # Reads count in the package only, so a field that only the tests read
    # fails unless it is named in TESTS_ONLY; each name there must still be
    # unread by the package and read by the tests.
    sources = sorted(SRC.glob("*.py"))
    read = set()
    for path in sources:
        read |= _attributes_read(ast.parse(path.read_text(), str(path)))
    tests_read = set()
    for path in sorted(TESTS.glob("*.py")):
        tests_read |= _attributes_read(ast.parse(path.read_text(), str(path)))
    unread = [f"{path.name}:{line} {cls}.{name}"
              for path in sources
              for cls, line, name in _dataclass_fields(ast.parse(path.read_text(), str(path)))
              if cls not in SERIALIZED_WHOLE and name not in read
              and f"{cls}.{name}" not in TESTS_ONLY]
    assert unread == []
    assert sorted(f for f in TESTS_ONLY
                  if f.split(".")[1] in read or f.split(".")[1] not in tests_read) == []

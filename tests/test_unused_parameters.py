"""Source checks: every function parameter in the package is read by its
body, every parameter with a default is overridden by some package call or
named as a knob that stays, every record field is read as an attribute by
the package, or is named as one only the tests read, and every private
function and class is referenced by package code outside its definition."""

import ast
from collections import Counter
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


# Parameters with a default that no package call overrides, each kept for
# the reason given; any other such parameter is a knob only the tests turn.
KNOBS = {
    # the console script reads sys.argv; a caller passes its own arguments
    "cli.main.argv",
    # a caller's own group datum for a group with no built-in one
    "groupcell.standard_group_data.custom",
}


def _defaulted_parameters(tree, module):
    """(qualified name, name a call uses, position at that call or None,
    parameter) for each parameter with a default.  A method is called through
    its instance, one position before its place in the signature, and
    __init__ through its class's name."""
    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                pos = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                shift = 1 if cls and not static else 0
                called = cls if node.name == "__init__" else node.name
                first = len(pos) - len(args.defaults)
                for i, a in enumerate(pos[first:], first):
                    yield f"{prefix}{node.name}.{a.arg}", called, i - shift, a.arg
                for a, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{prefix}{node.name}.{a.arg}", called, None, a.arg
                yield from visit(node.body, f"{prefix}{node.name}.", None)
    yield from visit(tree.body, f"{module}.", None)


def _overrides(call, index, param):
    """Whether call passes param: by keyword, by **, at its position, or by
    a * at or before it."""
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    return index is not None and any(
        i == index or isinstance(a, ast.Starred) and i <= index for i, a in enumerate(call.args))


def test_every_default_is_overridden_by_the_package():
    # Calls are matched by name only, so a call of another function with the
    # same name also counts: the check can miss a knob, never invent one.
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    calls = [(getattr(c.func, "id", None) or getattr(c.func, "attr", None), c)
             for tree in trees.values() for c in ast.walk(tree) if isinstance(c, ast.Call)]
    unturned = {name for module, tree in trees.items()
                for name, called, index, param in _defaulted_parameters(tree, module)
                if not any(f == called and _overrides(c, index, param) for f, c in calls)}
    assert sorted(unturned - KNOBS) == []
    assert sorted(KNOBS - unturned) == []


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


def _references(tree):
    """The names read in tree, as names and as attributes, with repeats."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_private_helper_is_used_by_the_package():
    # A private function or class (one _ in front, not a dunder) must be named
    # somewhere in the package outside its own definition; a helper that only
    # the tests call fails here.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    named = Counter(name for tree in trees.values() for name in _references(tree))
    private = [(module, node) for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    unused = [f"{module}:{node.lineno} {node.name}" for module, node in private
              if named[node.name] == sum(name == node.name for name in _references(node))]
    assert unused == []
    assert len(private) > 40

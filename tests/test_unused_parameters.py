"""Source check: every function parameter in the package is read by its body."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cellmonoid"


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

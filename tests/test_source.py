"""Checks on the source text of the package itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "epifront"


def unread_parameters(source: str) -> list[str]:
    """``function(param)`` for every parameter, other than self/cls, that
    the function's body (nested functions included) never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}({name})" for name in params
                  if name not in ("self", "cls") and name not in read]
    return found


def test_scan_flags_unread_parameter():
    source = "def f(a, b, *rest, c=1, **kw):\n    def g(x):\n        return a + x\n    return g\n"
    assert unread_parameters(source) == ["f(b)", "f(c)", "f(rest)", "f(kw)"]


def test_no_unread_parameters():
    dead = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
            for name in unread_parameters(path.read_text(encoding="utf-8"))]
    assert dead == []

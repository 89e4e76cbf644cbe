"""Every parameter of every function in orbitflow is read in its body: a
parameter that nothing reads silently ignores the value a caller passes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitflow"


def unread_parameters(src=SRC):
    """module.function(parameter) for each parameter its function never loads;
    a read in a nested function or lambda counts."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [f"{path.stem}.{getattr(node, 'name', '<lambda>')}({p})" for p in params if p not in read]
    return out


def test_every_parameter_is_read():
    assert unread_parameters() == []

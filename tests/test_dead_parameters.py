"""Every parameter of every function in the package is read by its body.

A parameter that no body reads is an argument that every caller passes for
nothing.  Dunder protocol methods are exempt, since the protocol fixes their
signatures, and so are ``self`` and ``cls``: a method such as
``IntegerGroup.op`` shares its signature with the finite groups' own.  A
read inside a nested function or lambda counts.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gradedprime"


def unread_parameters(tree: ast.AST):
    """(line, function, parameter) for each parameter that its function's
    body never loads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for param in params:
            if param.arg not in loaded and param.arg not in ("self", "cls"):
                yield node.lineno, name, param.arg


def test_the_scan_names_what_no_body_reads():
    tree = ast.parse(
        "def f(a, b, *rest, c=1, **more):\n    return a + c\n"
        "class K:\n    def __exit__(self, *exc):\n        pass\n    def g(self, x):\n        return lambda y: x\n"
    )
    assert sorted(unread_parameters(tree)) == [(1, "f", "b"), (1, "f", "more"), (1, "f", "rest"), (7, "<lambda>", "y")]


def test_every_parameter_in_the_package_is_read():
    assert (SRC / "finring.py").is_file()
    unread = [
        f"{path.name}:{line} {function}({param})"
        for path in sorted(SRC.glob("*.py"))
        for line, function, param in unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unread == []

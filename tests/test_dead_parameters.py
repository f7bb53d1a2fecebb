"""Every parameter of every function in the package is read by its body,
and every name a module imports is read by that module.

A parameter that no body reads is an argument that every caller passes for
nothing.  Dunder protocol methods are exempt, since the protocol fixes their
signatures, and so are ``self`` and ``cls``: a method such as
``IntegerGroup.op`` shares its signature with the finite groups' own.  A
read inside a nested function or lambda counts.

An import that its module never reads is a dependency kept only as a
re-export.  ``__init__.py``, whose imports are the package's public names,
and ``from __future__`` imports are exempt.

A private module-level name (a function, class or assignment whose name
starts with one underscore) that no module of the package reads, as a name
or as an attribute, is code that only its definition keeps alive.

A public name, one that ``__init__._EXPORTS`` lists or a module-level
function or class whose name has no leading underscore, is read by a module
of the package other than ``__init__`` (as a name, an attribute or a string
constant, the way ``specio`` reaches its constructors through ``getattr``),
or named by the README's library example, or kept by an entry of
``SURFACE`` below that says why.  Any other public name is surface that only
its own tests read.

The same holds below the module level.  Every public method, property and
``NamedTuple`` field of a class of the package is read by a module of the
package as an attribute, and every option and positional of the command
line's grammar (``cli._COMMON`` and ``cli._COMMANDS``) is read as
``args.<dest>`` (the cap options through ``Caps._fields`` in ``cli._caps``),
or ``SURFACE`` says why it is kept.  ``SURFACE`` lists nothing that is read.
"""

import ast
import contextlib
import io
import re
from pathlib import Path
from types import SimpleNamespace

import gradedprime
from gradedprime import cli
from gradedprime import finring as fr

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gradedprime"


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


def unread_imports(tree: ast.AST):
    """(line, name) for each name an import binds that the module never loads."""
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    yield node.lineno, name


def test_the_import_scan_names_what_no_line_reads():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path, re\nfrom .finring import _family, bits as b\n"
        "def f():\n    import sys\n    return os.sep, b\n"
    )
    assert sorted(unread_imports(tree)) == [(2, "re"), (3, "_family"), (5, "sys")]


def test_every_import_in_the_package_is_read():
    unread = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unread == []


def unread_private_names(modules: dict):
    """(module, line, name) for each private name that a module of modules
    (name -> tree) binds at its top level and no module loads."""
    loaded = set()
    for tree in modules.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                loaded.add(n.attr)
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__") and name not in loaded:
                    yield module, node.lineno, name


def test_the_private_name_scan_names_what_no_module_reads():
    modules = {
        "a": ast.parse("_A = 1\n_B, c = 2, 3\ndef _f():\n    return _A\nclass _K:\n    pass\n__all__ = []\n"),
        "b": ast.parse("from a import _g\nx = a._K\n_h: int = 0\ndef _g():\n    _B = 1\n"),
    }
    assert sorted(unread_private_names(modules)) == [("a", 2, "_B"), ("a", 3, "_f"), ("b", 3, "_h"), ("b", 4, "_g")]


def test_every_private_name_in_the_package_is_read():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert "specio.py" in modules
    unread = [f"{module}:{line} {name}" for module, line, name in unread_private_names(modules)]
    assert unread == []


# The surface that nothing in the package reads, each with the reason it is
# kept: module-level names as they are, class members as "Class.member" and
# command-line options as "command --flag".
SURFACE = {
    "is_g_prime_base": "the paper's G-primeness of S_e: ideally symmetric S is prime iff S_e is G-prime",
    "is_identity_generated": "the paper's identity-generated graded ideals, what the S_e correspondence lifts to",
    "is_leavitt_prime": "the paper's Leavitt criterion: prime coefficients plus MT-3",
    "reachability": "the README documents it, and the orthogonality gate's tests compare it with the oracle",
    "trivial_grading": "the grading under which graded prime is prime",
    "ideal_product": "the bench's tracer reads its cache counters",
    "normal_form_monomials": "the normal-form monomials of the Leavitt engine, which the bench's tracer pins",
    "Report.render": "the README's library example prints a report with it",
    "LeavittContext.vertex": "the Leavitt engine's generators, kept with the engine whose product the bench times",
    "LeavittContext.edge": "the Leavitt engine's generators, kept with the engine whose product the bench times",
    "LeavittContext.ghost": "the Leavitt engine's generators, kept with the engine whose product the bench times",
    "LpaElement.scale": "the Leavitt engine's coefficient action, kept with the engine whose product the bench times",
    "filter --bound": "the bench's cli_small job passes --bound 8",
}


def readme_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^## Library example\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)


def public_names(modules: dict) -> set:
    """The module-level functions and classes of modules (name -> tree)
    whose names have no leading underscore."""
    return {
        node.name
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def unread_public_names(exports, modules: dict, example: ast.AST):
    """Each name of exports or public_names(modules) that no module of
    modules (name -> tree) reads and the example does not name, sorted."""
    read = set()
    for tree in modules.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    read |= {n.id for n in ast.walk(example) if isinstance(n, ast.Name)}
    return sorted((set(exports) | public_names(modules)) - read)


def test_the_surface_scan_names_what_only_tests_read():
    modules = {
        "a": ast.parse("def f():\n    return g(b.h, getattr(b, 'k'))\nm = 1\n"),
        "b": ast.parse(
            "def h():\n    pass\ndef k():\n    pass\ndef n():\n    pass\nclass T:\n    pass\n"
            "def _u():\n    pass\n"
        ),
    }
    example = ast.parse("from pkg import *\nprint(m)\n")
    exports = "f g h k m n p".split()
    # T is exported nowhere and only a test reads it; _u is private
    assert unread_public_names(exports, modules, example) == ["T", "f", "n", "p"]


def unread_members(modules: dict):
    """The public methods, properties and NamedTuple fields of the classes
    of modules (name -> tree) that no module reads as an attribute, each as
    "Class.member", sorted."""
    read = {n.attr for tree in modules.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unread = set()
    for tree in modules.values():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            record = any(ast.unparse(base).endswith("NamedTuple") for base in cls.bases)
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif record and isinstance(node, ast.AnnAssign):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_") and name not in read:
                    unread.add(f"{cls.name}.{name}")
    return sorted(unread)


def unread_options(common, commands: dict, modules: dict, through=()):
    """The options and positionals of a grammar table laid out as cli's
    (the options every command takes; each command's handler, help,
    positional, its help, then its options) whose dest no module of modules
    reads as ``args.<dest>`` and through does not list, each as "command
    --flag" or "command positional", sorted."""
    read = {
        n.attr
        for tree in modules.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
    }
    read |= set(through)
    unread = []
    for command, (_, _, positional, _, *options) in commands.items():
        flags = [flag for flag, _ in [*common, *options]]
        for word in [positional, *flags]:
            if word.lstrip("-").replace("-", "_") not in read:
                unread.append(f"{command} {word}")
    return sorted(unread)


def test_the_member_and_option_scans_name_what_nothing_reads():
    modules = {
        "a": ast.parse(
            "import typing\n"
            "class R(typing.NamedTuple):\n    kept: int\n    planted_field: int = 0\n"
            "    def read(self):\n        return self.kept\n    def planted_method(self):\n        pass\n"
            "    def _private(self):\n        pass\n    def __len__(self):\n        return 0\n"
            "class K:\n    field: int\n"
        ),
        "b": ast.parse("def main(args):\n    return a.R(1).read(), args.seed, args.ring, args.max_depth\n"),
    }
    # a plain class's annotations are no fields; private and dunder members are exempt
    assert unread_members(modules) == ["R.planted_field", "R.planted_method"]
    common = [("--porcelain", {}), ("--max-depth", {}), ("--max-width", {})]
    commands = {"run": (None, "", "ring", "", ("--seed", {}), ("--planted-option", {}))}
    assert unread_options(common, commands, modules, through=["porcelain"]) == [
        "run --max-width", "run --planted-option"
    ]


def test_the_cap_options_are_read_through_the_caps_fields():
    values = range(1, len(fr.Caps._fields) + 1)
    assert cli._caps(SimpleNamespace(**dict(zip(fr.Caps._fields, values)))) == fr.Caps(*values)


def test_every_public_name_is_read_or_kept_for_a_reason():
    """Every public module-level name, class member and command-line option
    is read by the package or named by the README's example, or SURFACE
    says why it is kept; and SURFACE keeps nothing that is read."""
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert "specio.py" in modules and "cli.py" in modules and len(SURFACE) <= 13
    unread = [
        *unread_public_names(gradedprime._HOME, modules, ast.parse(readme_example())),
        *unread_members(modules),
        *unread_options(cli._COMMON, cli._COMMANDS, modules, through=fr.Caps._fields),
    ]
    assert sorted(unread) == sorted(SURFACE)


def test_the_readme_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(readme_example(), {})
    assert out.getvalue().startswith("check lift_is_graded: PASS")


def defaulted_parameters(tree: ast.AST):
    """{name: [(line, qualified name, {parameter: positional index or None})]}
    for each function and method of tree with a defaulted parameter other
    than caps (every layer takes the cap overrides), keyed by the name that
    a call uses: a method's own name, a constructor's class name.  The
    positional index counts from the first argument that a call writes, so
    a method's self is not counted; a keyword-only parameter has None."""
    out = {}

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [*args.posonlyargs, *args.args]
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                defaulted = {p.arg: i - bound for i, p in enumerate(positional) if i >= len(positional) - len(args.defaults)}
                defaulted |= {p.arg: None for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
                defaulted.pop("caps", None)
                if child.name == "__init__" and cls is not None:
                    key, shown = cls.name, f"{cls.name}.__init__"
                elif child.name.startswith("__"):
                    continue
                else:
                    key, shown = child.name, child.name if cls is None else f"{cls.name}.{child.name}"
                if defaulted:
                    out.setdefault(key, []).append((child.lineno, shown, defaulted))
                visit(child)
            else:
                visit(child, cls)

    visit(tree)
    return out


def calls_by_name(trees):
    """(called name, positional argument count, keywords, open) for each call
    in trees, a ``partial(f, ...)`` counted as a call of f; open is whether
    the call unpacks *args or **kwargs, which may pass anything."""
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func, args = call.func, call.args
            if isinstance(func, ast.Name) and func.id == "partial" and args:
                func, args = args[0], args[1:]
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            keywords = {k.arg for k in call.keywords}
            open_ = None in keywords or any(isinstance(a, ast.Starred) for a in args)
            yield name, len(args), keywords, open_


def unpassed_defaults(modules: dict, callers):
    """"module:line function(parameter)" for each defaulted parameter of a
    function of modules (name -> tree) that no call in callers (trees)
    passes, by keyword or by position, sorted."""
    passed = {}
    for name, count, keywords, open_ in calls_by_name(callers):
        passed.setdefault(name, []).append((count, keywords, open_))
    unpassed = []
    for module, tree in modules.items():
        for key, definitions in defaulted_parameters(tree).items():
            for line, shown, defaulted in definitions:
                for param, index in defaulted.items():
                    if not any(
                        open_ or param in keywords or (index is not None and index < count)
                        for count, keywords, open_ in passed.get(key, ())
                    ):
                        unpassed.append(f"{module}:{line} {shown}({param})")
    return sorted(unpassed)


def test_the_default_scan_names_what_no_call_passes():
    modules = {
        "a": ast.parse(
            "def f(a, b=1, *, c=2, caps=None):\n    return a\n"
            "class K:\n    def __init__(self, x, y=0, z=0):\n        pass\n"
            "    def m(self, p, q=0, r=0):\n        return p\n"
            "    @staticmethod\n    def s(u, v=0):\n        return u\n"
        ),
    }
    callers = [
        *modules.values(),
        ast.parse("f(1, c=3)\nK(1, 2).m(0, 1)\nK.s(0)\npartial(K, 1, z=2)\ng(*rest)\nh(**opts)\n"),
    ]
    assert unpassed_defaults(modules, callers) == ["a:1 f(b)", "a:6 K.m(r)", "a:9 K.s(v)"]
    callers.append(ast.parse("f(0, *more)\nK.s(**opts)\n"))
    assert unpassed_defaults(modules, callers) == ["a:6 K.m(r)"]


def test_every_default_is_passed_by_some_call():
    """A defaulted parameter that no call in the package, the bench or the
    README's example passes is a choice that only tests make.  A function
    that SURFACE keeps is kept whole, its signature too."""
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert "grfilter.py" in modules and bench
    unpassed = unpassed_defaults(modules, [*modules.values(), *bench, ast.parse(readme_example())])
    assert [u for u in unpassed if u.split()[1].split("(")[0] not in SURFACE] == []

"""Mutation analysis: which one-operator changes of a module tier-1 catches.

The module is parsed with ``ast`` and changed at one place at a time by one
of these operators:

- a comparison swapped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``in`` and ``not in``, ``is`` and ``is not``;
- ``and`` and ``or`` swapped;
- a ``not`` dropped;
- ``True`` and ``False`` flipped;
- an augmented operator swapped: ``+=`` and ``-=``, ``|=`` and ``&=``,
  ``^=`` to ``|=``, ``*=`` and ``//=``, ``<<=`` and ``>>=``.

The mutants are listed by line, column and operator, so two runs over one
module list them in the same order and their kill lists compare line by
line.  The checkout is copied once to a scratch directory, each mutant is
written there as ``ast.unparse`` gives it, and tier-1 runs in that copy
with ``-x``; the checkout itself is never written.  A mutant is killed when
the run fails and survives when it passes.  With tier-1 as the command, a
mutant first runs the test files that import the module by name
(``importers``), and tier-1 only if it survives them: most mutants are
killed there in seconds, and the kill list is the one of tier-1 alone.
The file that killed the last mutant runs first, since neighbouring
mutants tend to fail the same tests.
``ast.unparse`` drops comments and redoes the layout, so before it counts
anything the tool runs tier-1 once on the unparsed, unmutated module and
stops with an error if that run fails.

    python tests/mutants.py src/gradedprime/grading.py [--checkout DIR] [-- COMMAND...]

prints one ``<module> <line> <operator> killed|survived <s>`` line per
mutant, ``<s>`` being the seconds its runs took.  The checkout defaults to
the one holding this file, and the command to tier-1 with ``-x``.  Mutants
named in the checkout's ``tests/equivalent_mutants.txt`` are skipped: no
input can tell them from the module.  Each entry is one ``<module> <line>
<operator> | <text>`` line, the text being the module's line stripped, and
a line starting with ``#`` is a comment.  An entry for the module whose
text or operator is no longer on its line is an error, so that an entry
never skips whatever mutant moves onto its line.  A killed mutant costs a few
seconds and a survivor a whole tier-1 run, so a module of a few dozen
mutants takes minutes.  Each run is limited to 2 GiB of address space.

A mutant that loops forever is stopped by a time limit on each test: every
run loads a pytest plugin, written into the scratch directory and named in
``PYTEST_PLUGINS``, that arms ``faulthandler.dump_traceback_later(limit,
exit=True)`` around each module's collection and each test's set-up, call
and tear-down.  The limit is three times the clean run's slowest such step,
and at least ``LIMIT_FLOOR`` seconds.  A command that is not pytest loads
no plugin, and for every command a run past three times the clean run's
time, plus a minute, counts as killed; the first runs of tier-1 have their
own clean time.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

CHECKOUT = Path(__file__).resolve().parents[1]
EQUIVALENT = "tests/equivalent_mutants.txt"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TESTPATHS = ("tests", "perfbench/tests")  # tier-1's, in pyproject.toml
MEMORY = 2 << 30
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work")
LIMIT_FLOOR = 30.0  # seconds a test may always take

# The per-test limit, loaded by pytest from PYTEST_PLUGINS: it arms
# MUTANTS_LIMIT seconds (0: none), writes the slowest step to MUTANTS_SLOWEST
# and the file of the first failing test to MUTANTS_FAILED.
PLUGIN = """\
import contextlib, faulthandler, os, sys, time
import pytest

LIMIT = float(os.environ["MUTANTS_LIMIT"])
slowest = 0.0


@contextlib.contextmanager
def limited():
    global slowest
    if LIMIT:
        faulthandler.dump_traceback_later(LIMIT, exit=True, file=sys.__stderr__)
    start = time.perf_counter()
    try:
        yield
    finally:
        slowest = max(slowest, time.perf_counter() - start)
        if LIMIT:
            faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    if not isinstance(collector, pytest.Module):
        return (yield)
    with limited():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    with limited():
        return (yield)


def pytest_runtest_logreport(report):
    if report.failed and not os.path.exists(os.environ["MUTANTS_FAILED"]):
        with open(os.environ["MUTANTS_FAILED"], "w") as out:
            out.write(report.nodeid.split("::")[0])


def pytest_unconfigure(config):
    with open(os.environ["MUTANTS_SLOWEST"], "w") as out:
        out.write(repr(slowest))
"""

COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
AUGMENTED = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr,
    ast.BitXor: ast.BitOr, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}


def _name(op) -> str:
    return op.__name__


def sites(tree: ast.AST) -> list[tuple[int, int, str, int, int]]:
    """Every place an operator applies: (line, column, operator, node
    number in ast.walk order, slot within the node), sorted by line, column
    and operator, with ``:2``, ``:3``, ... on a repeated line and operator."""
    found = []
    for number, node in enumerate(ast.walk(tree)):
        where = getattr(node, "lineno", 0), getattr(node, "col_offset", 0)
        if isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                if type(op) in COMPARE:
                    found.append((*where, f"{_name(type(op))}->{_name(COMPARE[type(op)])}", number, slot))
        elif isinstance(node, ast.BoolOp):
            found.append((*where, f"{_name(type(node.op))}->{_name(BOOLEAN[type(node.op)])}", number, 0))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((*where, "drop-Not", number, 0))
        elif isinstance(node, ast.Constant) and isinstance(node.value, bool):
            found.append((*where, f"{node.value}->{not node.value}", number, 0))
        elif isinstance(node, ast.AugAssign) and type(node.op) in AUGMENTED:
            old, new = type(node.op), AUGMENTED[type(node.op)]
            found.append((*where, f"Aug{_name(old)}->Aug{_name(new)}", number, 0))
    found.sort(key=lambda site: site[:3])
    seen: dict = {}
    out = []
    for line, col, label, number, slot in found:
        seen[line, label] = seen.get((line, label), 0) + 1
        count = seen[line, label]
        out.append((line, col, label if count == 1 else f"{label}:{count}", number, slot))
    return out


def _replace(tree: ast.AST, target: ast.AST, new: ast.AST) -> None:
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            if value is target:
                setattr(parent, field, new)
                return
            if isinstance(value, list) and any(item is target for item in value):
                value[[id(item) for item in value].index(id(target))] = new
                return


def mutate(source: str, number: int, slot: int) -> str:
    """The source with the operator at node number (ast.walk order) and
    slot applied, as ast.unparse writes it."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[number]
    if isinstance(node, ast.Compare):
        node.ops[slot] = COMPARE[type(node.ops[slot])]()
    elif isinstance(node, ast.BoolOp):
        node.op = BOOLEAN[type(node.op)]()
    elif isinstance(node, ast.UnaryOp):
        _replace(tree, node, node.operand)
    elif isinstance(node, ast.Constant):
        node.value = not node.value
    else:
        node.op = AUGMENTED[type(node.op)]()
    return ast.unparse(tree) + "\n"


def read_equivalent(path: Path) -> dict[tuple[str, int, str], str]:
    """The entries of an equivalent-mutant list: (module, line, operator)
    -> the stripped text of the line."""
    out = {}
    if path.exists():
        for raw in path.read_text().splitlines():
            if raw.strip() and not raw.lstrip().startswith("#"):
                key, text = raw.split(" | ", 1)
                module, line, label = key.split()
                out[module, int(line), label] = text.strip()
    return out


def importers(checkout: Path, module: str) -> list[str]:
    """The test files of TESTPATHS in the checkout that import the module
    by its name (src/pkg/mod.py is pkg.mod): ``import pkg.mod``,
    ``from pkg import mod`` or ``from pkg.mod import ...``; those whose
    name holds the module's come first, as the likeliest to fail."""
    name = ".".join(Path(module).relative_to("src").with_suffix("").parts)
    paths = sorted(p for root in TESTPATHS for p in (checkout / root).glob("test_*.py"))
    found = []
    for path in sorted(paths, key=lambda p: Path(module).stem not in p.stem):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                named = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                named = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if name in named:
                found.append(path.relative_to(checkout).as_posix())
                break
    return found


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run(copy: Path, command: list[str], timeout: Optional[float], limit: float = 0.0) -> tuple[bool, float]:
    """Whether the test command passes in the copy, and its seconds; a run
    past the timeout, or a pytest step past the limit (0: none), is stopped,
    with every process it started, and fails."""
    plugin = copy.parent / "plugin"
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(copy / "src"), str(plugin)]), PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1", PYTEST_PLUGINS="mutant_limit", MUTANTS_LIMIT=repr(limit),
        MUTANTS_SLOWEST=str(plugin / "slowest"), MUTANTS_FAILED=str(plugin / "failed"),
    )
    (plugin / "failed").unlink(missing_ok=True)
    start = time.perf_counter()
    child = subprocess.Popen(
        command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=_limit, start_new_session=True,
    )
    try:
        passed = child.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        passed = False
    return passed, time.perf_counter() - start


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("module", help="path of the module, relative to the checkout")
    parser.add_argument("--checkout", type=Path, default=CHECKOUT)
    args = parser.parse_args(argv[:split])
    command = argv[split + 1 :] or TIER1
    module = Path(args.module).as_posix()
    source = (args.checkout / module).read_text()
    mutants = sites(ast.parse(source))
    labels = {(line, label) for line, _, label, _, _ in mutants}
    lines = source.splitlines()
    equivalent = read_equivalent(args.checkout / EQUIVALENT).items()
    skip = {(line, label): text for (name, line, label), text in equivalent if name == module}
    for (line, label), text in skip.items():
        if (line, label) not in labels or lines[line - 1].strip() != text:
            print(f"error: {module} {line} {label} on the equivalent list no longer matches its line", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(args.checkout, copy, ignore=IGNORE)
        plugin = copy.parent / "plugin"  # beside the copy, where run() puts it on the path
        plugin.mkdir()
        (plugin / "mutant_limit.py").write_text(PLUGIN)
        target = copy / module
        target.write_text(ast.unparse(ast.parse(source)) + "\n")
        files = importers(copy, module) if command is TIER1 else []
        stages = [TIER1 + files, command] if files else [command]
        timeouts = []
        for stage in stages:  # the last, the command itself, sets the per-test limit
            passed, seconds = run(copy, stage, None)
            if not passed:
                print(f"error: the tests fail on the unparsed, unmutated {module}", file=sys.stderr)
                return 2
            timeouts.append(3 * seconds + 60)
        slowest = plugin / "slowest"  # written by the plugin, when the command is pytest
        limit = max(LIMIT_FLOOR, 3 * float(slowest.read_text())) if slowest.exists() else 0.0
        for line, _, label, number, slot in mutants:
            if (line, label) in skip:
                continue
            target.write_text(mutate(source, number, slot))
            passed, seconds = True, 0.0
            for stage, timeout in zip(stages, timeouts):
                passed, took = run(copy, stage, timeout, limit)
                seconds += took
                if not passed:
                    break
            print(f"{module} {line} {label} {'survived' if passed else 'killed'} {seconds:.1f}", flush=True)
            killer = plugin / "failed"
            if not passed and killer.exists() and killer.read_text() in files:  # first for the next mutant
                files.insert(0, files.pop(files.index(killer.read_text())))
                stages[0] = TIER1 + files
    return 0


if __name__ == "__main__":
    sys.exit(main())

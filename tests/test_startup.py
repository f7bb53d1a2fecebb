"""What a CLI call loads: each subcommand imports the layers it uses and no
others, nothing imports dataclasses (which pulls in inspect, ast, dis and
tokenize), a plain argv loads no argparse (nor gettext and locale with
it), json is loaded for a tables{} spec only, a plain call compiles one
regular expression, specio's token pattern, and the package's public
names resolve lazily."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gradedprime

DATA = Path(__file__).parent / "data"
SRC = str(Path(gradedprime.__file__).resolve().parent.parent)

# Run in a fresh interpreter; the last stdout line lists the modules loaded
# by cli.main beyond those the bare interpreter had already loaded.  json,
# which prints that line, is imported after the snapshot.
PROBE = """
import sys
before = set(sys.modules)
from gradedprime import cli
try:
    status = cli.main(sys.argv[1:])
except SystemExit as stop:
    status = stop.code
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps([status, loaded]))
"""
ARGPARSE = {"argparse", "gettext", "locale"}

BASE = {"gradedprime", "gradedprime.cli", "gradedprime.errors", "gradedprime.frozen",
        "gradedprime.groups", "gradedprime.finring", "gradedprime.specio"}
CALLS = {
    "ideals": (["ideals", "tri2.ring"], set()),
    "prime": (["prime", "zmod4.ring", "--ideal", "[2]"], set()),
    "classify": (["classify", "tri2_std.graded"], {"grading"}),
    "graded-prime": (["graded-prime", "mat2_z.graded"], {"grading"}),
    "correspondence": (["correspondence", "grpalg_c2.graded"], {"grading", "correspondence"}),
    "leavitt": (["leavitt", "two_isolated.graph", "--coeff", "gf2.ring", "--orthogonality-depth", "3"],
                {"leavitt"}),
    "filter": (["filter", "z_half_tri2.filter", "--witness", "--trials", "3"], {"grfilter", "grading"}),
}


def loaded_by(argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [str(DATA / a) if (DATA / a).is_file() else a for a in argv]
    result = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    status, modules = json.loads(result.stdout.splitlines()[-1])
    assert status == 0
    return set(modules)


@pytest.mark.parametrize("command", sorted(CALLS))
def test_a_subcommand_loads_its_own_layers(command):
    argv, layers = CALLS[command]
    loaded = loaded_by(argv)
    assert not {"dataclasses", "inspect", "json"} & loaded
    assert not ARGPARSE & loaded
    ours = {m for m in loaded if m.split(".")[0] == "gradedprime"}
    assert ours == BASE | {f"gradedprime.{layer}" for layer in layers}


@pytest.mark.parametrize("argv", [["prime", "zero_mult.ring"], ["classify", "col2_trivial.graded", "--porcelain"]])
def test_a_tables_spec_loads_json(argv):
    loaded = loaded_by(argv)
    assert "json" in loaded and not ARGPARSE & loaded


# Lists the patterns that re compiles from the import of cli to the end of
# the call, each once, in the order first compiled.
COMPILES = """
import re, sys
compiled = []
compile_ = re._compile
def logged(pattern, flags):
    if (pattern, flags) not in compiled:
        compiled.append((pattern, flags))
    return compile_(pattern, flags)
re._compile = logged
from gradedprime import cli
status = cli.main(sys.argv[1:])
re._compile = compile_
import json
print(json.dumps([status, [pattern for pattern, _ in compiled]]))
"""


@pytest.mark.parametrize("argv", [["prime", "gf2.ring"], ["classify", "tri2_std.graded", "--porcelain"]])
def test_a_plain_call_compiles_the_token_pattern_only(argv):
    from gradedprime import specio

    argv = [str(DATA / a) if (DATA / a).is_file() else a for a in argv]
    result = subprocess.run([sys.executable, "-c", COMPILES, *argv], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert result.returncode == 0, result.stderr
    status, compiled = json.loads(result.stdout.splitlines()[-1])
    assert status == 0 and compiled == [specio._NEXT.pattern]


def test_a_character_outside_the_tokens_compiles_the_check_that_names_it():
    """The first character that starts no token is named by _BAD, which a
    text of tokens alone never compiles."""
    from gradedprime import specio
    from gradedprime.errors import SpecError

    with pytest.raises(SpecError, match="unexpected character '@'"):
        specio.parse_ring_spec("gf(2) @")
    assert specio._SAFE == bytes(c for c in range(128) if not re.search(specio._BAD, chr(c)))


@pytest.mark.parametrize("argv", [["--help"], ["filter", "--help"], ["prime", "gf2.ring", "--porc"]])
def test_an_argv_the_plain_reader_leaves_loads_argparse(argv):
    assert ARGPARSE <= loaded_by(argv)


# The public surface, exactly: the layer modules and every name they export.
# make_finite_filter, make_z_filter and validate_filter left it: GFilter is
# the one constructor of a filter, and GFilter.valid its validity.
PUBLIC = """
    CapError Caps DEFAULT_CAPS DirectedGraph FiniteGroup FiniteRing GFilter
    GradedRing GradingClassification Ideal IntegerGroup LeavittContext LpaElement Report
    SpecError Witness Z ZRule all_graded_ideals all_ideals attach_grading classify_filter
    classify_grading correspondence cyclic errors finring generate_ideal gf grading
    graph grfilter groups grpalg ideal_product is_fully_idempotent is_g_invariant
    is_g_prime_base is_g_prime_ideal is_graded_ideal is_graded_m_system is_graded_prime_ideal
    is_graded_prime_ring is_identity_generated is_leavitt_prime is_prime_ideal is_prime_ring
    is_s_unital_module leavitt lpa_degree make_ring mat
    parse_filter_file parse_graded_file parse_graph_file parse_group_spec parse_ring_spec
    product random_element reachability satisfies_mt3 specio subring symmetric_group tri trivial_grading
    verify_bijection_ideally_symmetric verify_bijection_identity_generated
    verify_corner_orthogonality witness_search zmod
""".split()


def test_public_names_are_unchanged_and_resolve():
    assert sorted(gradedprime.__all__) == sorted(PUBLIC)
    for name in gradedprime.__all__:
        value = getattr(gradedprime, name)
        module = getattr(value, "__module__", None) or value.__name__
        assert module.startswith("gradedprime"), name
    with pytest.raises(AttributeError):
        gradedprime.no_such_name  # noqa: B018


def test_star_import_and_a_bare_import():
    code = (
        "import sys\n"
        "import gradedprime\n"
        "bare = sorted(m for m in sys.modules if m.startswith('gradedprime'))\n"
        "from gradedprime import *\n"
        "print(bare, callable(verify_corner_orthogonality), Caps().max_ring_order, Z)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['gradedprime'] True 256 Z\n"

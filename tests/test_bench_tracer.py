"""The bench's tracer runs every subcommand on the current package.

``perfbench/tracer.py`` wraps the public layer functions by name, reads the
cache counters of ``finring.all_ideals`` and ``finring.ideal_product`` and
wraps ``LpaElement.__mul__``; a package that drops one of them breaks every
traced bench run.  These tests run the tracer as the bench does, one
``tests/data`` input per subcommand, and read it without changing it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedprime

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = str(Path(gradedprime.__file__).resolve().parent.parent)

CALLS = {
    "ideals": ["tri2.ring"],
    "prime": ["zmod4.ring", "--ideal", "[2]"],
    "classify": ["tri2_std.graded"],
    "graded-prime": ["grpalg_c2.graded"],
    "correspondence": ["grpalg_c2.graded"],
    "leavitt": ["two_isolated.graph", "--coeff", "gf2.ring", "--orthogonality-depth", "4"],
    "filter": ["c2_row.filter"],
}


def cached_names() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CACHED


@pytest.mark.parametrize("command", sorted(CALLS))
def test_the_tracer_runs_each_subcommand(command, tmp_path):
    argv = [str(DATA / a) if (DATA / a).is_file() else a for a in CALLS[command]]
    out = tmp_path / "trace.json"
    result = subprocess.run([sys.executable, str(TRACER), str(out), command, *argv], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert result.returncode == 0, result.stderr
    trace = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(trace["caches"]) == sorted(cached_names())
    assert all(len(counts) == 2 for counts in trace["caches"].values())
    assert "leavitt.LpaElement.__mul__" in trace["names"]

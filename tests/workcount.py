"""Executed bytecodes per bench job: a work figure that wall time cannot give.

Each job of ``perfbench/workloads.py`` runs in this process through
``cli.main`` on the inputs that ``workloads.write_inputs`` writes, once to
warm up (imports, the ``re`` cache, first-call set-up), then once more under
``sys.settrace`` with ``f_trace_opcodes`` set on every frame, counting
opcode events of its ``cli.main`` call.  Every ``lru_cache`` of the
imported package modules is cleared before each run, so the counted run
builds its lattices and families itself.  The cyclic garbage collector is
paused for the counted run: a collection there would run the Python
``gc.callbacks`` of other modules (hypothesis installs one), counted as the
job's, at points set by the allocations made before the run.  Only Python
bytecode is counted: work done inside C calls (``bytes.translate``,
``int.bit_count``) is not.
The count does not depend on the host, its load or ``PYTHONHASHSEED``;
tracing makes a run about ten times slower.  After the counted run the job
runs ``RUNS`` more times untraced, each on cold caches, and the fastest
``cli.main`` call gives its in-process wall time, which does depend on the
host and its load.

    PYTHONPATH=src python tests/workcount.py

prints one ``<workload> <job> <opcodes> <ms>`` line for every job, on the
inputs of seed 1.  It reads ``perfbench/`` and writes its inputs to a
temporary directory.

The in-process time leaves out what a fresh process pays: the package's
import and every first call's set-up.  ``--cold N`` measures that instead:

    python tests/workcount.py --cold 21

runs each job in N fresh children of this checkout's ``src``, alternated
with N children that only start, and prints one ``<workload> <job> <ms>
<past_start_ms>`` line of medians.  A job's child does what ``python -m
gradedprime`` does, ``cli.main`` and then ``os._exit``, and reports the time
from its ``import gradedprime.cli`` to its last byte: ``<ms>``, the cold
in-process cost.  ``<past_start_ms>`` is the job children's wall time,
spawn to reap, minus that of the children that only start (``import os;
os._exit(0)``, which skip the interpreter's teardown as the job's do).
The children get the environment the bench gives them (no ``PYTHON*``
variable but the path and a byte-code cache, warmed by one untimed child).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gradedprime import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads as wl  # noqa: E402

SEED = 1
RUNS = 5


def clear_caches() -> None:
    """Empty every cache that a gradedprime module defines at its top level."""
    for name, module in list(sys.modules.items()):
        if name.startswith("gradedprime"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and value.__module__ == name:
                    value.cache_clear()


def _run(argv: list[str], trace=None) -> float:
    """One cli.main run on cold caches, traced by trace from its first
    call with the garbage collector paused; its wall time in seconds."""
    clear_caches()
    collecting = gc.isenabled()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if trace is not None:
            gc.disable()
        start = time.perf_counter()
        sys.settrace(trace)
        try:
            cli.main(argv)
        finally:
            sys.settrace(None)
            elapsed = time.perf_counter() - start
            if collecting:
                gc.enable()
    return elapsed


def opcodes(job: wl.Job, inputs: Path) -> int:
    """The opcodes one cli.main run of job executes, after a warm-up run."""
    argv = job.resolve(inputs, SEED)
    _run(argv)
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            count += 1
        return trace

    _run(argv, trace)
    return count


def line(workload: str, job: wl.Job, inputs: Path) -> str:
    """The job's ``<workload> <job> <opcodes> <ms>`` line: the counted run,
    then the best of RUNS untraced runs in milliseconds."""
    count = opcodes(job, inputs)
    argv = job.resolve(inputs, SEED)
    ms = 1000 * min(_run(argv) for _ in range(RUNS))
    return f"{workload} {job.name} {count} {ms:.1f}"


# A job's child: cli.main, as python -m gradedprime runs it, timed from the
# import of cli; the seconds go to stderr, past stdout's last byte.
COLD_CHILD = """\
import os, sys, time
start = time.perf_counter()
from gradedprime import cli
status = cli.main(sys.argv[1:])
sys.stderr.write(repr(time.perf_counter() - start))
sys.stderr.flush()
os._exit(status)
"""
STARTS_ONLY = "import os; os._exit(0)"


def spawned(code: str, args: list[str], env: dict) -> tuple[float, bytes]:
    """One child python running code with args: its wall time in seconds,
    spawn to reap, and its stderr; a child that fails is an error."""
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", code, *args], env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, check=True)
    return time.perf_counter() - start, child.stderr


def cold_line(workload: str, job: wl.Job, inputs: Path, runs: int, env: dict) -> str:
    """The job's ``<workload> <job> <ms> <past_start_ms>`` line over runs
    fresh children of each kind, alternated."""
    args = job.resolve(inputs, SEED)
    spawned(COLD_CHILD, args, env)  # writes the byte-code cache
    walls, inside, starts = [], [], []
    for _ in range(runs):
        wall, err = spawned(COLD_CHILD, args, env)
        walls.append(wall)
        inside.append(float(err))
        starts.append(spawned(STARTS_ONLY, [], env)[0])
    ms = 1000 * statistics.median(inside)
    past_start = 1000 * (statistics.median(walls) - statistics.median(starts))
    return f"{workload} {job.name} {ms:.1f} {past_start:.1f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--cold", type=int, metavar="N", help="time N fresh processes per job instead")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        wl.write_inputs(inputs, SEED)
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(inputs / "pycache"))
        for workload, jobs in wl.WORKLOADS.items():
            for job in jobs:
                if args.cold is None:
                    print(line(workload, job, inputs), flush=True)
                else:
                    print(cold_line(workload, job, inputs, args.cold, env), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

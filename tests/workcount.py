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
"""

from __future__ import annotations

import contextlib
import gc
import io
import sys
import tempfile
import time
from pathlib import Path

from gradedprime import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        wl.write_inputs(inputs, SEED)
        for workload, jobs in wl.WORKLOADS.items():
            for job in jobs:
                print(line(workload, job, inputs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

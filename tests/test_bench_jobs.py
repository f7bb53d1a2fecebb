"""Every job of the bench's three workloads, judged by the bench's own check.

``perfbench/run.py`` fails a job on a nonzero exit, a traceback on stderr, a
missing verdict line or, for a pinned job, stdout bytes other than those in
``perfbench/golden``.  These tests write the bench's inputs with
``workloads.write_inputs``, run each job once as ``python -m gradedprime``
on the current package and pass the result to ``run.check``, so a change
that breaks a bench job fails here.  They read ``perfbench/`` and write
nothing there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedprime

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(gradedprime.__file__).resolve().parent.parent)
SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402
import workloads as wl  # noqa: E402

JOBS = [(workload, job) for workload, jobs in wl.WORKLOADS.items() for job in jobs]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench_inputs")
    wl.write_inputs(directory, SEED)
    return directory


@pytest.mark.parametrize("workload,job", JOBS, ids=[f"{w}-{job.name}" for w, job in JOBS])
def test_the_bench_job_passes_its_check(inputs, workload, job):
    cmd = [sys.executable, "-m", "gradedprime", *job.resolve(inputs, SEED)]
    result = subprocess.run(cmd, capture_output=True, stdin=subprocess.DEVNULL, cwd=inputs,
                            env={**os.environ, "PYTHONPATH": SRC}, timeout=run.JOB_TIMEOUT_S)
    failure = run.check(job, result.returncode, result.stdout, result.stderr, run.golden_of(job))
    assert failure is None, result.stderr.decode(errors="replace")[-2000:]

"""The opcode count of ``tests/workcount.py`` is a deterministic work figure:
two in-process runs of one bench job execute the same number of opcodes.
No count or time is pinned, so a change to the program's work does not fail
here; the wall-time column is only checked to be a positive number."""

import gc

import pytest

import workcount

JOBS = {job.name: job for jobs in workcount.wl.WORKLOADS.values() for job in jobs}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench_inputs")
    workcount.wl.write_inputs(directory, workcount.SEED)
    return directory


@pytest.mark.parametrize("name", ["corr-grpalg-c2", "leavitt-two-cycles"])
def test_two_runs_of_a_job_execute_equal_opcodes(inputs, name):
    first, second = (workcount.opcodes(JOBS[name], inputs) for _ in range(2))
    assert first == second > 0


def test_collections_in_the_counted_run_are_not_counted(inputs):
    """A gc callback of another module, run by a collection in the traced
    run, would add its opcodes to the job's."""
    job = JOBS["leavitt-two-cycles"]
    plain = workcount.opcodes(job, inputs)
    threshold = gc.get_threshold()

    def callback(phase, info):
        return None

    gc.callbacks.append(callback)
    gc.set_threshold(1)  # a collection after every allocation
    try:
        busy = workcount.opcodes(job, inputs)
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(callback)
    assert busy == plain


def test_a_line_ends_with_a_positive_wall_time(inputs):
    workload, job, count, ms = workcount.line("cli_small", JOBS["leavitt-two-cycles"], inputs).split(" ")
    assert (workload, job) == ("cli_small", "leavitt-two-cycles")
    assert int(count) > 0 and float(ms) > 0


def test_a_cold_line_holds_the_in_process_and_past_start_up_times(inputs):
    env = {**workcount.os.environ, "PYTHONPATH": str(workcount.ROOT / "src")}
    workload, job, ms, past_start = workcount.cold_line("cli_small", JOBS["prime-gf2"], inputs, 3, env).split(" ")
    assert (workload, job) == ("cli_small", "prime-gf2")
    assert float(ms) > 0
    float(past_start)  # a difference of two medians, which noise may make negative

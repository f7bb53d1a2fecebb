"""Tests of the benchmark's own arithmetic, inputs and checks.

    python3 -m pytest perfbench/tests
"""

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402


# --- the tail percentile ----------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 18, 19, 24, 57, 95, 100, 1000])
def test_tail_leaves_ten_samples_beyond_and_no_higher_percentile_does(n):
    samples = [float(i) for i in range(n)]
    value, p, count = stats.tail(list(reversed(samples)))
    assert count == n
    assert sum(s > value for s in samples) >= 10
    # nearest rank of the next percentile would leave fewer than ten beyond
    rank = -(-(p + 1) * n // 100)
    assert n - rank < 10


def test_tail_known_values():
    assert stats.tail([float(i) for i in range(100)]) == (89.0, 90, 100)
    assert stats.tail([float(i) for i in range(12)]) == (1.0, 16, 12)
    assert stats.tail([5.0] * 11 + [1.0]) == (5.0, 16, 12)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_spread_is_quartile_distance_over_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert stats.spread([2.0] * 10) == 0.0


# --- self time --------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("finring.all_ideals", 1.0, 4.0, 0),
        ("finring.subgroup_closure", 2.0, 3.0, 1),
        ("finring.subgroup_closure", 5.0, 9.0, 0),
        ("finring.subgroup_closure", 6.0, 6.5, 3),  # recursive call under itself
    ]
    got = stats.self_times(spans)
    assert got["cli.main"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert got["finring.all_ideals"] == pytest.approx(3.0 - 1.0)
    assert got["finring.subgroup_closure"] == pytest.approx(1.0 + 3.5 + 0.5)
    assert sum(got.values()) == pytest.approx(10.0)


# --- the relabelled order-256 ring ------------------------------------------


def _tables_from_file(text: str):
    body = re.sub(r"#.*", "", text)
    add_text = body[body.index("add=") : body.index("mul=")]
    mul_text = body[body.index("mul=") :]
    nums = lambda t: [int(v) for v in re.findall(r"\d+", t)]  # noqa: E731
    add, mul = nums(add_text), nums(mul_text)
    n = wl.Z16SQ_ORDER
    assert len(add) == len(mul) == n * n
    return [add[i * n : (i + 1) * n] for i in range(n)], [mul[i * n : (i + 1) * n] for i in range(n)]


@pytest.mark.parametrize("seed", [0, 7])
def test_relabelled_ring_is_z16_squared_through_its_permutation(tmp_path, seed):
    wl.write_inputs(tmp_path, seed)
    add, mul = _tables_from_file((tmp_path / wl.RELABELLED).read_text())
    perm = wl.z16sq_permutation(seed)
    assert sorted(perm) == list(range(256))
    for a1 in range(16):
        for b1 in range(16):
            x = perm[16 * a1 + b1]
            for a2 in range(16):
                for b2 in range(16):
                    y = perm[16 * a2 + b2]
                    assert add[x][y] == perm[16 * ((a1 + a2) % 16) + (b1 + b2) % 16]
                    assert mul[x][y] == perm[16 * (a1 * a2 % 16) + b1 * b2 % 16]


def test_inputs_depend_on_the_seed_only(tmp_path):
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        wl.write_inputs(tmp_path / sub, seed)
    same = (tmp_path / "a" / wl.RELABELLED).read_bytes()
    assert (tmp_path / "b" / wl.RELABELLED).read_bytes() == same
    assert (tmp_path / "c" / wl.RELABELLED).read_bytes() != same
    assert wl.z16sq_permutation(3) != list(range(256))


# --- the job check ----------------------------------------------------------

JOB = wl.Job("j", ("prime", "@gf2.ring"), (("prime: YES", wl.FIELD_PRIME),))
GOOD = b"prime: YES\n"


def test_check_accepts_the_pinned_bytes():
    assert run.check(JOB, 0, GOOD, b"", GOOD) is None


def test_a_changed_stdout_byte_is_a_failure():
    changed = GOOD.replace(b"YES", b"YEs")
    assert "missing" in run.check(JOB, 0, changed, b"", GOOD)
    trailing = GOOD + b" "
    assert "offset 11" in run.check(JOB, 0, trailing, b"", GOOD)
    loose = wl.Job("j", JOB.argv, ())
    assert "offset 7" in run.check(loose, 0, b"prime: NES\n", b"", GOOD)


def test_exit_status_traceback_and_missing_pin_are_failures():
    assert run.check(JOB, 2, GOOD, b"", GOOD) == "exit status 2"
    assert run.check(JOB, 0, GOOD, b"Traceback (most recent call last):", GOOD)
    assert run.check(JOB, 0, GOOD, b"", None) == "no pinned stdout"
    unpinned = wl.Job("j", JOB.argv, JOB.expect, pinned=False)
    assert run.check(unpinned, 0, GOOD, b"", None) is None


def test_every_pinned_job_has_golden_bytes_and_every_job_known_verdicts():
    for jobs in wl.WORKLOADS.values():
        for job in jobs:
            assert job.expect, job.name
            if job.pinned:
                assert run.golden_of(job) is not None, job.name


# --- the two-set comparison -------------------------------------------------


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert compare.verdict(base, [1.00, 1.01, 0.99, 1.0, 1.0], 0.1, "lower")[0] == "within"
    assert compare.verdict(base, [1.3, 1.31, 1.29, 1.3, 1.3], 0.1, "lower")[0] == "worse"
    assert compare.verdict(base, [0.7, 0.71, 0.69, 0.7, 0.7], 0.1, "lower")[0] == "better"
    noisy = [0.5, 1.0, 1.5, 2.0, 0.7]
    assert compare.verdict(base, noisy, 0.1, "lower")[0] == "unresolved"
    assert compare.verdict(noisy, [0.1, 0.2, 0.3, 0.4, 0.35], 0.1, "lower")[0] == "better"

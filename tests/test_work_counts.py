"""Exact work counts of the lattice kernel: how many times a lattice calls
the coset extension ``finring._extend``, the ideal generator
``_ideal_span`` (through finring's name and correspondence's) and the join
closure ``_join_closure``, next to the lattice itself checked against
oracle.py.

The counts are pinned as equalities, so any change to the kernel's work,
cheaper or dearer, fails here.  A change that alters a count re-pins it
and gives the reason in CHANGES.md.  Each case runs on a fresh copy of its
ring, so no memo on the ring object (its additive generators) is warm, and
with the lattice, family, correspondence and classification caches
cleared: the counts do not depend on which tests ran before.
"""

import sys
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest

from gradedprime import correspondence as co
from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import specio
from gradedprime.finring import DEFAULT_CAPS
from gradedprime.groups import cyclic

import oracle
from corpus import corpus_rings, graded_corpus
from test_cli import f2_zero_multiplication

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

CACHES = (fr._lattice, fr._principal_ideals, co._maps, gr.classify_grading)


def fresh(ring: fr.FiniteRing) -> fr.FiniteRing:
    return fr.FiniteRing(*(getattr(ring, name) for name in ring._fields))


def fresh_graded(graded: gr.GradedRing) -> gr.GradedRing:
    return gr.GradedRing(fresh(graded.ring), graded.group, graded.components, graded.support)


def work(run):
    """(calls of _extend, of _ideal_span, of _join_closure) made by run(),
    and its result."""
    for cached in CACHES:
        cached.cache_clear()
    with ExitStack() as stack:
        extend, span, join = (
            stack.enter_context(mock.patch.object(fr, name, wraps=getattr(fr, name)))
            for name in ("_extend", "_ideal_span", "_join_closure")
        )
        stack.enter_context(mock.patch.object(co, "_ideal_span", span))
        out = run()
    return (extend.call_count, span.call_count, join.call_count), out


@pytest.fixture(scope="module")
def f2_6():
    """The zero-multiplication F_2^6 and its 2,825 ideals, every additive
    subgroup, from the oracle's join closure."""
    ring = specio.parse_ring_spec(f2_zero_multiplication(6))
    return ring, oracle._join_closure(ring, (ring.full_mask,), DEFAULT_CAPS)


def test_every_ideal_of_f2_6(f2_6):
    ring, lattice = f2_6
    counts, ideals = work(lambda: fr.all_ideals(fresh(ring)))
    assert ideals == lattice and len(ideals) == 2825
    assert counts == (70_684, 64, 1)


def test_the_report_on_trivially_graded_f2_6(f2_6):
    """Each of the 2,825 invariant ideals is lifted by one _ideal_span call
    in correspondence, on top of the 64 principal ideals."""
    ring, lattice = f2_6
    graded = gr.trivial_grading(fresh(ring), cyclic(2))
    counts, report = work(lambda: co.verify_bijection_identity_generated(graded))
    assert all(check.passed for check in report.checks)
    assert co._maps(graded, DEFAULT_CAPS)[1] == lattice
    assert counts == (81_984, 2_889, 1)


RING_WORK = {
    "gf2": (12, 2, 1), "gf3": (14, 3, 1), "gf4": (16, 4, 1), "zmod4": (19, 4, 1),
    "zmod6": (27, 6, 1), "prod22": (22, 4, 1), "mat2": (40, 16, 1), "tri2": (34, 8, 1),
    "tri3": (178, 64, 1), "grpalg2": (19, 4, 1), "grpalg3": (32, 9, 1), "even8": (19, 4, 1),
}


@pytest.mark.parametrize("name,ring", corpus_rings())
def test_the_lattice_of_each_corpus_ring(name, ring):
    counts, ideals = work(lambda: fr.all_ideals(fresh(ring)))
    assert ideals == oracle._join_closure(ring, (ring.full_mask,), DEFAULT_CAPS)
    assert counts == RING_WORK[name]


GRADED_WORK = {
    "trivial_gf2": (13, 2, 1), "trivial_gf3": (15, 3, 1), "trivial_gf4": (17, 4, 1),
    "trivial_zmod4": (20, 4, 1), "trivial_zmod6": (28, 6, 1), "trivial_prod22": (23, 4, 1),
    "trivial_mat2": (41, 16, 1), "trivial_tri2": (35, 8, 1), "trivial_tri3": (179, 64, 1),
    "trivial_grpalg2": (20, 4, 1), "trivial_grpalg3": (33, 9, 1), "trivial_even8": (20, 4, 1),
    "tri2_std": (48, 10, 2), "tri3_std": (106, 22, 2), "mat2_z": (44, 12, 2),
    "zero_mult_z": (18, 3, 2), "grpalg2_canonical": (28, 6, 2), "grpalg3_canonical": (34, 9, 2),
    "filter_full_gf2_c2": (28, 6, 2), "filter_zero_gf2_c2": (13, 2, 1), "filter_prod_c3": (52, 12, 2),
    "filter_prod_c2": (47, 10, 2), "filter_tri2_row_c2": (75, 20, 2),
}


@pytest.mark.parametrize("name,graded", graded_corpus())
def test_the_graded_and_invariant_lattices_of_each_grading(name, graded):
    copy = fresh_graded(graded)
    counts, (ideals, invariant) = work(lambda: (gr.all_graded_ideals(copy), co.invariant_base_ideals(copy)))
    assert ideals == oracle.all_graded_ideals(graded)
    assert invariant == oracle.invariant_base_ideals(graded)
    assert counts == GRADED_WORK[name]


def both_reports(graded: gr.GradedRing):
    return co.verify_bijection_identity_generated(graded), co.verify_bijection_ideally_symmetric(graded)


def trivial_prod2x7() -> gr.GradedRing:
    return gr.trivial_grading(fr.product(*[fr.gf(2)] * 7), cyclic(2))


def bench_grpalg_gf2_s3() -> gr.GradedRing:
    return specio.parse_graded_file(workloads.FIXED_FILES["grpalg_gf2_s3.graded"])


@pytest.mark.parametrize(
    "build,expected",
    [(trivial_prod2x7, (1_957, 256, 1)), (bench_grpalg_gf2_s3, (308, 28, 2))],
    ids=["trivial_prod2x7", "grpalg_gf2_s3"],
)
def test_both_reports(build, expected):
    graded = fresh_graded(build())
    counts, reports = work(lambda: both_reports(graded))
    assert all(check.passed for report in reports for check in report.checks)
    assert counts == expected


def test_a_trivial_grading_builds_one_family_and_one_lattice():
    """Under a trivial grading the invariant ideals of S_e = S are the
    ideals of S, so S's family and lattice serve every caller."""
    graded = fresh_graded(trivial_prod2x7())
    ring = graded.ring
    counts, _ = work(
        lambda: (fr.all_ideals(ring), co.invariant_base_ideals(graded), co.is_g_prime_base(graded), both_reports(graded))
    )
    assert fr._principal_ideals.cache_info().misses == 1
    assert counts[2] == 1

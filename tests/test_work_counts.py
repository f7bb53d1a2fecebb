"""Exact work counts of the lattice kernel: how many times a lattice calls
the coset extension ``finring._extend``, the ideal generator
``_ideal_span`` (through finring's name and correspondence's) and the join
closure ``_join_closure``, next to the lattice itself checked against
oracle.py.

The counts are pinned as equalities, so any change to the kernel's work,
cheaper or dearer, fails here.  A change that alters a count re-pins it
and gives the reason in CHANGES.md.  Each case runs on a fresh copy of its
ring, so no memo on the ring object (its additive generators) is warm, and
with every cache of the package cleared (``workcount.clear_caches``): the
counts do not depend on which tests ran before.
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
from gradedprime.errors import CapError
from gradedprime.finring import DEFAULT_CAPS
from gradedprime.groups import cyclic

import oracle
from corpus import corpus_rings, graded_corpus, mat_standard, member_masks, zero_mult_graded
from test_cli import f2_zero_multiplication
from test_lattice_kernel import zero_mult_line
from workcount import clear_caches

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def fresh(ring: fr.FiniteRing) -> fr.FiniteRing:
    return fr.FiniteRing(*(getattr(ring, name) for name in ring._fields))


def fresh_graded(graded: gr.GradedRing) -> gr.GradedRing:
    return gr.GradedRing(fresh(graded.ring), graded.group, graded.components, graded.support)


def work(run):
    """(calls of _extend, of _ideal_span, of _join_closure) made by run(),
    and its result."""
    clear_caches()
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
    return ring, member_masks(oracle._join_closure(ring, (ring.full_mask,), DEFAULT_CAPS))


def test_every_ideal_of_f2_6(f2_6):
    ring, lattice = f2_6
    counts, ideals = work(lambda: fr.all_ideals(fresh(ring)))
    assert ideals == lattice and len(ideals) == 2825
    assert counts == (67_859, 64, 1)


def test_the_report_on_trivially_graded_f2_6(f2_6):
    """Each of the 2,825 invariant ideals is lifted by one _ideal_span call
    in correspondence, on top of the 64 principal ideals."""
    ring, lattice = f2_6
    graded = gr.trivial_grading(fresh(ring), cyclic(2))
    counts, report = work(lambda: co.verify_bijection_identity_generated(graded))
    assert all(check.passed for check in report.checks)
    assert co._maps(graded, DEFAULT_CAPS)[1] == lattice
    assert counts == (79_159, 2_889, 1)


def test_the_floor_refuses_f2_6_times_z3_before_enumerating():
    """The zero-multiplication F_2^6 x Z/3 has 2,825 x 2 = 5,650 ideals,
    every additive subgroup; its floor multiplies the count of each prime."""
    ring = fr.product(specio.parse_ring_spec(f2_zero_multiplication(6)), zero_mult_line(3))
    floor = fr._ideal_count_floor(ring, (ring.full_mask,))

    def refused():
        with pytest.raises(CapError, match="^ideal lattice exceeds cap 5000$"):
            fr.all_ideals(fresh(ring), fr.Caps(max_ideals=5000))

    counts, _ = work(refused)
    assert counts[2] == 0
    assert floor == len(fr.all_ideals(ring)) == 5650


RING_WORK = {
    "gf2": (10, 2, 1), "gf3": (12, 3, 1), "gf4": (14, 4, 1), "zmod4": (16, 4, 1),
    "zmod6": (23, 6, 1), "prod22": (18, 4, 1), "mat2": (38, 16, 1), "tri2": (29, 8, 1),
    "tri3": (164, 64, 1), "grpalg2": (16, 4, 1), "grpalg3": (28, 9, 1), "even8": (16, 4, 1),
}


@pytest.mark.parametrize("name,ring", corpus_rings())
def test_the_lattice_of_each_corpus_ring(name, ring):
    counts, ideals = work(lambda: fr.all_ideals(fresh(ring)))
    assert ideals == member_masks(oracle._join_closure(ring, (ring.full_mask,), DEFAULT_CAPS))
    assert counts == RING_WORK[name]


GRADED_WORK = {
    "trivial_gf2": (11, 2, 1), "trivial_gf3": (13, 3, 1), "trivial_gf4": (15, 4, 1),
    "trivial_zmod4": (17, 4, 1), "trivial_zmod6": (24, 6, 1), "trivial_prod22": (19, 4, 1),
    "trivial_mat2": (39, 16, 1), "trivial_tri2": (30, 8, 1), "trivial_tri3": (165, 64, 1),
    "trivial_grpalg2": (17, 4, 1), "trivial_grpalg3": (29, 9, 1), "trivial_even8": (17, 4, 1),
    "tri2_std": (43, 10, 2), "tri3_std": (92, 22, 2), "mat2_z": (42, 12, 2),
    "zero_mult_z": (16, 3, 2), "grpalg2_canonical": (26, 6, 2), "grpalg3_canonical": (32, 9, 2),
    "filter_full_gf2_c2": (26, 6, 2), "filter_zero_gf2_c2": (11, 2, 1), "filter_prod_c3": (48, 12, 2),
    "filter_prod_c2": (43, 10, 2), "filter_tri2_row_c2": (70, 20, 2),
}


@pytest.mark.parametrize("name,graded", graded_corpus())
def test_the_graded_and_invariant_lattices_of_each_grading(name, graded):
    copy = fresh_graded(graded)
    counts, (ideals, invariant) = work(lambda: (gr.all_graded_ideals(copy), co.invariant_base_ideals(copy)))
    assert ideals == member_masks(oracle.all_graded_ideals(graded))
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
    [(trivial_prod2x7, (1_829, 256, 1)), (bench_grpalg_gf2_s3, (306, 28, 2))],
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


def test_a_g_prime_verdict_checks_its_argument_once():
    """With every cache warm, is_g_prime_base checks that the zero ideal of
    S_e is an ideal once (is_base_ideal, whose subgroup test is one
    _extend, with S_e's cached generators acting) and invariant once (one
    _extend for its generators, one for its invariant closure)."""
    graded = bench_grpalg_gf2_s3()
    co.is_g_prime_base(graded)
    with ExitStack() as stack:
        extend, base = (
            stack.enter_context(mock.patch.object(module, name, wraps=getattr(module, name)))
            for module, name in ((fr, "_extend"), (co, "is_base_ideal"))
        )
        assert co.is_g_prime_base(graded)
    assert (extend.call_count, base.call_count) == (3, 1)


def test_the_s_e_predicates_refuse_with_their_texts():
    """mat(gf(2), 2) with its standard Z-grading: S_e is the diagonal
    {0, E22, E11, I} (masks of the indices 0, 1, 8, 9)."""
    g = mat_standard(2, 2)
    e11 = fr.mask_of([0, 8])  # an ideal of S_e, but E21 E11 E12 = E22
    not_ideals = (
        fr.mask_of([0, 9]),  # a subgroup of S_e, but E11 I = E11
        fr.mask_of([0, 1, 8]),  # inside S_e, not a subgroup
        fr.mask_of([0, 2]),  # E21, outside S_e
    )
    proper = "^subset is not a proper invariant ideal of the identity component$"
    for qmask in (g.e_mask, e11, *not_ideals):
        with pytest.raises(ValueError, match=proper):
            co.is_g_prime_ideal(g, qmask)
    for jmask in not_ideals:
        with pytest.raises(ValueError, match="^subset is not an ideal of the identity component$"):
            co.is_g_invariant(g, jmask)
    assert not co.is_g_invariant(g, e11) and co.is_g_invariant(g, g.e_mask)
    with pytest.raises(ValueError, match=proper):
        co.is_g_prime_base(zero_mult_graded())  # S_e is zero

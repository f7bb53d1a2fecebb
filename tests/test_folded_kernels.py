"""The elementwise prime criterion, s-unitality and the generating family of
the identity component as calls into the kernels they used to copy (the
m-system test, one s-unital scan, the principal ideals of the ambient ring),
against the loops and the subring path they replaced, kept in oracle.py."""

import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradedprime import correspondence as co
from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import specio
from gradedprime.groups import Z, cyclic, symmetric_group

import oracle
from corpus import corpus_rings, graded_corpus, group_algebra_grading, ideals_of
from test_lattice_kernel import SETTINGS, assembled_filter_rings, zero_mult_gradings
from test_subgroup_kernel import small_rings

DATA = Path(__file__).parent / "data"

DATA_RINGS = [(p.name, specio.parse_ring_spec(p.read_text())) for p in sorted(DATA.glob("*.ring"))]
DATA_GRADED = [(p.name, specio.parse_graded_file(p.read_text())) for p in sorted(DATA.glob("*.graded"))]
GRADED = (
    list(graded_corpus())
    + DATA_GRADED
    + [(f"trivial_{name}", gr.trivial_grading(ring, cyclic(2))) for name, ring in corpus_rings()]
    + [(f"filter_{k}", graded) for k, graded in enumerate(assembled_filter_rings())]
)
IDS = [name for name, _ in GRADED]


# ---------------------------------------------------------------------------
# the elementwise criterion is the m-system test on the complement


def m_system_criterion(ring, p, candidates=None):
    """The element criterion as the m-system test on the complement of P,
    with the ring's additive generators as middle factors."""
    return fr.is_m_system(ring, ring.full_mask & ~p.members, candidates, fr.mask_of(ring.additive_generators))


def element_verdicts(ring, lattice, candidates=(None,)):
    """The pair loop kept in the oracle on every proper ideal of a lattice
    listing and every candidate mask, asserting that the m-system test
    agrees with it, and with every element a candidate, that primeness does."""
    verdicts = []
    for p in ideals_of(ring, lattice):
        if p.is_proper:
            for hom in candidates:
                verdict = oracle.prime_element_criterion(ring, p, hom)
                assert verdict == m_system_criterion(ring, p, hom), (p, hom)
                if hom is None:
                    assert verdict == fr.is_prime_ideal(ring, p), p
                verdicts.append(verdict)
    return verdicts


def test_element_criterion_on_the_corpus_and_the_data_rings():
    verdicts = []
    for name, ring in list(corpus_rings()) + DATA_RINGS:
        verdicts += element_verdicts(ring, fr.all_ideals(ring))
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name,graded", GRADED, ids=IDS)
def test_element_criterion_with_and_without_homogeneous_candidates(name, graded):
    """Over the graded ideals: every element as a candidate, and the
    homogeneous ones, which is the graded criterion: graded primeness, the
    graded m-system test, gives its verdict."""
    hom = graded.homogeneous_mask
    element_verdicts(graded.ring, gr.all_graded_ideals(graded), (None, hom))
    for p in ideals_of(graded.ring, gr.all_graded_ideals(graded)):
        if p.is_proper:
            expected = oracle.prime_element_criterion(graded.ring, p, hom)
            assert gr.is_graded_prime_ideal(graded, p) == expected


def test_element_criterion_refuses_what_the_loop_refused():
    ring = fr.gf(2)
    for p in (fr.Ideal(ring, ring.full_mask), fr.Ideal(fr.gf(3), 1)):
        for criterion in (fr.is_prime_ideal, oracle.prime_element_criterion):
            with pytest.raises(ValueError):
                criterion(ring, p)


@SETTINGS
@given(ring=small_rings())
def test_element_criterion_on_drawn_rings(ring):
    element_verdicts(ring, fr.all_ideals(ring))


@SETTINGS
@given(
    base=st.sampled_from([fr.gf(2), fr.gf(3), fr.zmod(4)]),
    group=st.sampled_from([cyclic(1), cyclic(2), cyclic(3), symmetric_group(3)]),
)
def test_element_criterion_on_drawn_group_algebras(base, group):
    if base.order**group.order > 64:
        return
    graded = group_algebra_grading(base, group)
    element_verdicts(graded.ring, fr.all_ideals(graded.ring), (None, graded.homogeneous_mask))


# ---------------------------------------------------------------------------
# one s-unital kernel


def masks_of(ring, rng):
    """The ideals of the ring, random subsets (not subgroups, as a rule),
    and the empty mask."""
    masks = list(fr.all_ideals(ring)[:40])
    return masks + [rng.getrandbits(ring.order) for _ in range(6)] + [0]


@pytest.mark.parametrize("name,ring", list(corpus_rings()) + DATA_RINGS)
def test_s_unital_scan_matches_a_product_per_element(name, ring):
    rng = random.Random(name)
    masks = masks_of(ring, rng)
    for acting in masks:
        for acted in rng.sample(masks, min(len(masks), 12)):
            for side in ("left", "right"):
                assert fr.is_s_unital_module(ring, acting, acted, side) == oracle.is_s_unital_module(
                    ring, acting, acted, side
                ), (acting, acted, side)


def test_s_unital_kernel_refuses_an_unknown_side():
    ring = fr.gf(2)
    for kernel in (fr.is_s_unital_module, oracle.is_s_unital_module):
        with pytest.raises(ValueError, match="^side must be 'left' or 'right'$"):
            kernel(ring, ring.full_mask, ring.full_mask, "both")


def nearly_epsilon(graded):
    """The library's verdict, once it agrees with the element scan kept in
    the oracle and with the classifier's flag."""
    verdict = gr._pair_classes(graded.ring, gr._component_pairs(graded))[1]
    assert verdict == oracle._is_nearly_epsilon_strongly_graded(graded)
    assert verdict == gr.classify_grading(graded).nearly_epsilon_strongly
    return verdict


def test_nearly_epsilon_scan_against_the_classifier():
    verdicts = [nearly_epsilon(graded) for _, graded in GRADED]
    assert True in verdicts and False in verdicts


@SETTINGS
@given(drawn=zero_mult_gradings())
def test_nearly_epsilon_scan_on_drawn_gradings(drawn):
    graded, _ = drawn
    assert not nearly_epsilon(graded)  # no element of a nonzero S_x is fixed by S_x S_x^-1 = 0


@SETTINGS
@given(ring=small_rings(), group=st.sampled_from([cyclic(1), cyclic(2), Z]))
def test_nearly_epsilon_scan_on_drawn_trivial_gradings(ring, group):
    nearly_epsilon(gr.trivial_grading(ring, group))


# ---------------------------------------------------------------------------
# the generating family of S_e, taken in the ambient ring


@pytest.mark.parametrize("name,graded", GRADED, ids=IDS)
def test_identity_family_matches_the_subring_path(name, graded):
    """The same masks and generator lists, in the same order."""
    family = list(fr._principal_ideals(*co._invariant_key(graded)).items())
    assert family == list(oracle._invariant_principals(graded).items())


@SETTINGS
@given(drawn=zero_mult_gradings())
def test_identity_family_matches_the_subring_path_on_drawn_gradings(drawn):
    graded, _ = drawn
    family = fr._principal_ideals(*co._invariant_key(graded))
    assert list(family.items()) == list(oracle._invariant_principals(graded).items())


PROPER_E = [(name, g) for name, g in GRADED if g.e_mask != g.ring.full_mask]


@pytest.mark.parametrize("name,graded", PROPER_E, ids=[name for name, _ in PROPER_E])
def test_correspondence_builds_no_ring_for_an_identity_component(name, graded):
    """A fresh copy of the grading, so that no cached family or lattice
    stands in for the work; no subring and no table is built."""
    fresh = gr.attach_grading(graded.ring, graded.group, graded.components)
    invariant = oracle.invariant_base_ideals(graded)  # through the subring
    refuse = mock.Mock(side_effect=AssertionError("a ring was built"))
    with mock.patch.object(fr, "subring", refuse), mock.patch.object(fr, "make_ring", refuse):
        assert co.invariant_base_ideals(fresh) == invariant
        if fresh.e_mask != fresh.ring.zero_mask:
            co.is_g_prime_base(fresh)
        assert all(c.passed for c in co.verify_bijection_identity_generated(fresh).checks)
        if gr.classify_grading(fresh).ideally_symmetrically:
            assert all(c.passed for c in co.verify_bijection_ideally_symmetric(fresh).checks)
    assert not refuse.called

"""Ideal symmetry decided on principal graded ideals, against the walk over
the whole graded lattice and the enumeration of ideal families kept in
oracle.py."""

from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import grfilter as gfl
from gradedprime import specio
from gradedprime.finring import DEFAULT_CAPS
from gradedprime.groups import Z, cyclic, symmetric_group

import oracle
from corpus import all_candidate_filters, corpus_rings, graded_corpus, group_algebra_grading, ring_by_name
from test_lattice_kernel import SETTINGS, zero_mult_gradings

DATA = Path(__file__).parent / "data"


def assert_agrees(graded):
    new = gr._pair_classes(graded.ring, gr._component_pairs(graded))[2]
    assert new == oracle._ideally_symmetric_graded(graded, DEFAULT_CAPS)


@pytest.mark.parametrize("name,graded", graded_corpus())
def test_graded_corpus(name, graded):
    assert_agrees(graded)


@pytest.mark.parametrize("group", [cyclic(2), cyclic(3), Z], ids=["cyclic2", "cyclic3", "Z"])
@pytest.mark.parametrize("name,ring", corpus_rings())
def test_trivial_gradings_of_the_corpus(name, ring, group):
    assert_agrees(gr.trivial_grading(ring, group))


@pytest.mark.parametrize("path", sorted(p.name for p in DATA.glob("*.graded")))
def test_graded_data_files(path):
    assert_agrees(specio.parse_graded_file((DATA / path).read_text()))


@pytest.mark.parametrize("path", ["row2_trivial.graded", "col2_trivial.graded"])
def test_symmetric_but_not_ideally_symmetric(path):
    # Only the principal ideal of F shows the failure, on the right in the
    # row ring and on the left in its opposite; the ring's additive
    # generators E and E+F each generate the whole ring.
    graded = specio.parse_graded_file((DATA / path).read_text())
    assert graded.ring.additive_generators == (1, 2)
    c = gr.classify_grading(graded)
    assert (c.symmetrically, c.ideally_symmetrically) == (True, False)


@SETTINGS
@given(drawn=zero_mult_gradings())
def test_drawn_zero_multiplication_gradings(drawn):
    assert_agrees(drawn[0])


@SETTINGS
@given(
    base=st.sampled_from([fr.gf(2), fr.gf(3), fr.zmod(4)]),
    group=st.sampled_from([cyclic(1), cyclic(2), cyclic(3), symmetric_group(3)]),
)
def test_drawn_group_algebras(base, group):
    if base.order**group.order > 64:
        return
    assert_agrees(group_algebra_grading(base, group))


# ---------------------------------------------------------------------------
# filters

CORPUS_FILTER_RINGS = ("gf2", "prod22", "tri2", "zmod4", "even8", "grpalg2", "tri3")
# Rings whose additive generators generate the whole ring as an ideal, while
# the ideal {0, F} fails one identity.
ROW_RINGS = ("row2", "col2")
FILTER_GROUPS = {"cyclic2": cyclic(2), "cyclic3": cyclic(3), "cyclic4": cyclic(4), "sym3": symmetric_group(3)}
MAX_CANDIDATES = 3000


def filter_ring(name: str) -> fr.FiniteRing:
    if name in ROW_RINGS:
        return specio.parse_graded_file((DATA / f"{name}_trivial.graded").read_text()).ring
    return ring_by_name(name)


@lru_cache(maxsize=None)
def valid_candidate_filters(ring_name: str, group_name: str) -> tuple:
    ring, group = filter_ring(ring_name), FILTER_GROUPS[group_name]
    if len(fr.all_ideals(ring)) ** (group.order - 1) > MAX_CANDIDATES:
        return ()
    return tuple(f for f in all_candidate_filters(ring, group) if f.valid)


# The family enumeration forms the same few products over and over, and
# closed_product is a pure function of its arguments, so the oracle is run
# on a memoised copy, which makes tri3 over cyclic(4) about twenty times
# faster.
memoised_product = lru_cache(maxsize=4096)(fr.closed_product)


@pytest.mark.parametrize("group", FILTER_GROUPS)
@pytest.mark.parametrize("ring", CORPUS_FILTER_RINGS + ROW_RINGS)
def test_every_small_candidate_filter(ring, group):
    with mock.patch.object(oracle, "closed_product", memoised_product):
        for f in valid_candidate_filters(ring, group):
            new = gr._pair_classes(f.ring, gfl._inverse_pairs(f))[2]
            assert new == oracle._ideally_symmetric_finite(f, DEFAULT_CAPS)


def test_the_candidate_filters_cover_both_verdicts():
    verdicts = [
        gr._pair_classes(f.ring, gfl._inverse_pairs(f))[2]
        for ring in CORPUS_FILTER_RINGS
        for group in FILTER_GROUPS
        for f in valid_candidate_filters(ring, group)
    ]
    assert (len(verdicts), sum(verdicts)) == (633, 106)

"""Graded primeness and G-primeness decided on principal ideals, against the
quantifications over whole graded and invariant lattices kept in oracle.py,
and the per-graded-ring caches and invariance sites they rest on."""

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
from corpus import corpus_rings, graded_corpus, group_algebra_grading, ideals_of, mat_standard, tri_standard
from test_lattice_kernel import SETTINGS, assembled_filter_rings, zero_mult_gradings

DATA = Path(__file__).parent / "data"


def verdicts(graded):
    """(graded prime, G-prime) verdict lists over every proper graded ideal
    and every proper invariant ideal of the identity component, asserting
    that each agrees with the oracle."""
    graded_prime, g_prime = [], []
    for p in ideals_of(graded.ring, gr.all_graded_ideals(graded)):
        if p.is_proper:
            verdict = fr.is_prime_among(graded.ring, p.members, fr._family(graded.ring, graded.component_masks))
            assert verdict == oracle.graded_prime_pair_test(graded, p), p
            assert verdict == gr.is_graded_prime_ideal(graded, p)
            graded_prime.append(verdict)
    for q in co.invariant_base_ideals(graded):
        if q != graded.e_mask:
            verdict = co.is_g_prime_ideal(graded, q)
            assert verdict == oracle.is_g_prime_ideal(graded, q), q
            g_prime.append(verdict)
    return graded_prime, g_prime


@pytest.mark.parametrize("name,graded", graded_corpus())
def test_graded_corpus(name, graded):
    verdicts(graded)


@pytest.mark.parametrize("group", [cyclic(2), cyclic(3), Z], ids=["cyclic2", "cyclic3", "Z"])
@pytest.mark.parametrize("name,ring", corpus_rings())
def test_trivial_gradings_of_the_corpus(name, ring, group):
    verdicts(gr.trivial_grading(ring, group))


@pytest.mark.parametrize("path", sorted(p.name for p in DATA.glob("*.graded")))
def test_graded_data_files(path):
    verdicts(specio.parse_graded_file((DATA / path).read_text()))


def test_assembled_filter_rings():
    for graded in assembled_filter_rings():
        verdicts(graded)


@SETTINGS
@given(drawn=zero_mult_gradings())
def test_drawn_zero_multiplication_gradings(drawn):
    verdicts(drawn[0])


@SETTINGS
@given(
    base=st.sampled_from([fr.gf(2), fr.gf(3), fr.zmod(4)]),
    group=st.sampled_from([cyclic(1), cyclic(2), cyclic(3), symmetric_group(3)]),
)
def test_drawn_group_algebras(base, group):
    if base.order**group.order > 64:
        return
    verdicts(group_algebra_grading(base, group))


def test_the_corpus_covers_both_verdicts():
    graded_prime, g_prime = [], []
    for _, graded in graded_corpus():
        a, b = verdicts(graded)
        graded_prime += a
        g_prime += b
    assert (len(graded_prime), sum(graded_prime)) == (69, 33)
    assert (len(g_prime), sum(g_prime)) == (61, 33)


# ---------------------------------------------------------------------------
# invariance


@pytest.mark.parametrize(
    "graded,sites",
    [
        (tri_standard(2, 2), []),  # S_{-1} = 0
        (mat_standard(2, 2), [-1, 1]),
        (gr.trivial_grading(fr.gf(2), cyclic(200)), []),
        (group_algebra_grading(fr.gf(2), cyclic(2)), [1]),
        (specio.parse_graded_file((DATA / "zero_mult_f2_7_z.graded").read_text()), []),
    ],
    ids=["tri2_std", "mat2_z", "gf2_trivial_c200", "grpalg2_canonical", "zero_mult_f2_7_z"],
)
def test_invariance_is_checked_where_both_components_are_nonzero(graded, sites):
    """The ideal test reads S_e's generators once, then the closure reads
    the generators of S_{x^-1} and S_x once per site x other than e, where
    S_e J S_e lies in J already, and spans its products once."""
    read, spans = [], []

    class Recording(dict):
        def __getitem__(self, x):
            read.append(x)
            return super().__getitem__(x)

    def closure(*args):
        with mock.patch.object(fr, "_span", wraps=fr._span) as span:
            result = fr._invariant_span(*args)
        spans.append(span.call_count)
        return result

    graded.__dict__["component_generators"] = Recording(graded.component_generators)
    try:
        with mock.patch.object(co, "_invariant_span", closure):
            co.is_g_invariant(graded, graded.ring.zero_mask)
    finally:
        del graded.__dict__["component_generators"]
    assert read == [graded.e, *(y for x in sites for y in (graded.group.inverse(x), x))]
    assert spans == [1]


@pytest.mark.parametrize("name,graded", graded_corpus())
def test_invariant_closures_are_the_least_invariant_ideals_over_them(name, graded):
    invariant = oracle.invariant_base_ideals(graded)
    conjugators = co._conjugators(graded)
    for j in oracle.base_ideals(graded):
        closure = fr._invariant_span(graded.ring, j, fr._gens(graded.ring, j), conjugators)[0]
        assert closure == min((k for k in invariant if k | j == k), key=int.bit_count)
        assert oracle.is_g_invariant(graded, j) == (closure == j) == co.is_g_invariant(graded, j)


def test_g_primeness_refuses_anything_but_a_proper_invariant_ideal():
    g = mat_standard(2, 2)
    e11 = fr.mask_of([0, 8])  # an ideal of S_e, but E21 E11 E12 = E22
    not_ideal = fr.mask_of([0, 2])  # E21, outside S_e
    for qmask in (e11, not_ideal, g.e_mask):
        with pytest.raises(ValueError, match="^subset is not a proper invariant ideal of the identity component$"):
            co.is_g_prime_ideal(g, qmask)


# ---------------------------------------------------------------------------
# caches


def test_per_graded_ring_caches_are_bounded():
    caches = (fr._principal_ideals, gr.classify_grading)
    assert None not in [c.cache_info().maxsize for c in caches]
    for n in range(2, max(c.cache_info().maxsize for c in caches) + 7):
        graded = gr.trivial_grading(fr.zmod(n), cyclic(2))  # a new key each time, a new ring too
        gr.is_graded_prime_ring(graded)
        co.is_g_prime_base(graded)
        gr.classify_grading(graded)
    assert all(c.cache_info().currsize <= c.cache_info().maxsize for c in caches)


def test_a_correspondence_run_classifies_once():
    graded = group_algebra_grading(fr.gf(2), cyclic(2))
    with mock.patch.object(gr, "_is_strongly_graded", wraps=gr._is_strongly_graded) as calls:
        assert gr.classify_grading(graded).ideally_symmetrically
        assert all(c.passed for c in co.verify_bijection_ideally_symmetric(graded).checks)
    assert calls.call_count == 1


# ---------------------------------------------------------------------------
# m-systems


@pytest.mark.parametrize(
    "name,graded",
    [(f"trivial_{name}", gr.trivial_grading(ring)) for name, ring in corpus_rings()]
    + list(graded_corpus())
    + [("trivial_gf256", gr.trivial_grading(fr.gf(256))), ("trivial_mat_gf4_2", gr.trivial_grading(fr.mat(fr.gf(4), 2)))],
)
def test_screened_m_system_test_agrees_with_the_pair_loop(name, graded):
    """The complement of every proper ideal, with the masks that the prime
    and graded-prime tests pass: none, and the homogeneous elements."""
    ring, hom = graded.ring, graded.homogeneous_mask
    for p in fr.all_ideals(ring):
        if p != ring.full_mask:
            tmask = ring.full_mask & ~p
            assert fr.is_m_system(ring, tmask) == oracle.is_m_system(ring, tmask), p
            assert fr.is_m_system(ring, tmask, hom, hom) == oracle.is_m_system(ring, tmask, hom, hom), p

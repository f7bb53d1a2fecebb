"""Gradings: attachment, graded ideals, graded primeness, classification."""

from functools import reduce
from pathlib import Path
from unittest import mock

import pytest

from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import specio
from gradedprime.cli import main
from gradedprime.errors import SpecError
from gradedprime.groups import Z, cyclic

import oracle
from corpus import (
    corpus_rings,
    graded_corpus,
    group_algebra_grading,
    ideals_of,
    relabelled,
    tri_standard,
    z_graded_corpus,
    zero_mult_graded,
)
from test_lattice_kernel import assembled_filter_rings

DATA = Path(__file__).parent / "data"
E11, E12, E22 = 4, 2, 1  # tri(gf(2),2) element indices

# the graded corpus, every graded data file and the rings of the valid
# candidate filters of four small rings: where the agreements of the
# criteria and the implications between the grading classes are checked
THEOREM_RINGS = [
    *graded_corpus(),
    *((p.name, specio.parse_graded_file(p.read_text())) for p in sorted(DATA.glob("*.graded"))),
    *((f"assembled_{k}", graded) for k, graded in enumerate(assembled_filter_rings())),
]
THEOREM_IDS = [name for name, _ in THEOREM_RINGS]


@pytest.fixture(scope="module")
def tri2():
    return fr.tri(fr.gf(2), 2)


@pytest.fixture(scope="module")
def tri2_std():
    return tri_standard(2, 2)


class TestAttach:
    def test_standard_triangular_grading_is_accepted(self, tri2_std):
        assert tri2_std.support == (0, 1)
        assert tri2_std.component(1) == fr.mask_of([0, E12])

    def test_trivial_grading_is_accepted(self):
        for name, ring in corpus_rings():
            g = gr.trivial_grading(ring)
            assert g.e_mask == ring.full_mask

    def test_overlapping_components_are_rejected(self, tri2):
        with pytest.raises(SpecError):
            gr.attach_grading(tri2, Z, {0: tri2.full_mask, 1: tri2.full_mask})

    def test_size_mismatch_is_rejected(self, tri2):
        with pytest.raises(SpecError):
            gr.attach_grading(tri2, Z, {0: [0, 1, 4, 5]})

    def test_nonmultiplicative_splitting_of_gf4_is_rejected(self):
        r = fr.gf(4)
        # additively fine ({0,1} + {0,a} spans), but a*a = a+1 escapes
        with pytest.raises(SpecError):
            gr.attach_grading(r, cyclic(2), {0: [0, 1], 1: [0, 2]})

    def test_non_subgroup_component_is_rejected(self, tri2):
        with pytest.raises(SpecError):
            gr.attach_grading(tri2, Z, {0: [0, 1, 4], 1: [0, E12]})

    @pytest.mark.parametrize("x", [2, -1, "1"])
    def test_a_degree_off_a_finite_group_is_refused(self, x):
        with pytest.raises(SpecError, match=f"^{x!r} is not a group element index$"):
            gr.attach_grading(fr.gf(2), cyclic(2), {0: [0, 1], x: [0]})

    def test_grading_with_zero_identity_component(self):
        g = zero_mult_graded()
        assert g.e_mask == g.ring.zero_mask
        assert g.support == (1,)


class TestDecomposition:
    """The component masks form a direct sum: the oracle's decomposition of
    every element, built from them, puts each part in its component."""

    def test_zero_decomposes_to_nothing(self, tri2_std):
        assert oracle.decomposition(tri2_std)[tri2_std.ring.zero] == {}

    def test_homogeneous_elements_have_one_part(self, tri2_std):
        assert oracle.decomposition(tri2_std)[E12] == {1: E12}
        decomp = oracle.decomposition(tri2_std)
        for s in fr.bits(tri2_std.homogeneous_mask & ~tri2_std.ring.zero_mask):
            ((x, part),) = decomp[s].items()
            assert part == s and tri2_std.component(x) >> s & 1

    def test_mixed_element_splits(self, tri2_std):
        assert oracle.decomposition(tri2_std)[E11 + E12] == {0: E11, 1: E12}
        assert not tri2_std.homogeneous_mask >> (E11 + E12) & 1

    @pytest.mark.parametrize("name,graded", graded_corpus())
    def test_parts_sum_back(self, name, graded):
        ring, decomp = graded.ring, oracle.decomposition(graded)
        for s in ring.elements():
            assert reduce(ring.add, decomp[s].values(), ring.zero) == s
            assert all(graded.component(x) >> part & 1 for x, part in decomp[s].items())
            assert (len(decomp[s]) <= 1) == bool(graded.homogeneous_mask >> s & 1)


class TestGradedIdeals:
    def test_zero_and_whole_are_graded(self, tri2_std):
        ring = tri2_std.ring
        assert gr.is_graded_ideal(tri2_std, fr.Ideal(ring, ring.zero_mask))
        assert gr.is_graded_ideal(tri2_std, fr.Ideal(ring, ring.full_mask))

    def test_all_five_triangular_ideals_are_graded(self, tri2_std):
        assert len(gr.all_graded_ideals(tri2_std)) == 5

    def test_group_algebra_has_ungraded_ideals(self):
        g = group_algebra_grading(fr.gf(2), cyclic(2))
        assert len(fr.all_ideals(g.ring)) == 3
        assert len(gr.all_graded_ideals(g)) == 2

    def test_generate_by_strict_upper_unit(self, tri2_std):
        ideal = fr.generate_ideal(tri2_std.ring, [E12])
        assert sorted(ideal.elements()) == [0, E12]
        assert gr.is_graded_ideal(tri2_std, ideal)

    def test_generate_by_diagonal_unit(self, tri2_std):
        ideal = fr.generate_ideal(tri2_std.ring, [E11])
        assert sorted(ideal.elements()) == [0, E12, E11, E11 + E12]
        assert gr.is_graded_ideal(tri2_std, ideal)

    def test_generate_by_nothing(self, tri2_std):
        assert fr.generate_ideal(tri2_std.ring, []).members == tri2_std.ring.zero_mask

    @pytest.mark.parametrize("ring", [fr.zmod(16), fr.zmod(8)], ids=["larger", "same_order"])
    def test_another_rings_ideal_is_rejected(self, tri2_std, ring):
        """Z/16's <8> has a member outside tri(F_2, 2); Z/8's <4> does not."""
        with pytest.raises(ValueError, match="^ideal belongs to a different ring$"):
            gr.is_graded_ideal(tri2_std, fr.generate_ideal(ring, [ring.order // 2]))

    @pytest.mark.parametrize("name,graded", graded_corpus())
    def test_homogeneously_generated_ideals_are_graded(self, name, graded):
        hom = list(fr.bits(graded.homogeneous_mask))
        for a in hom:
            ideal = fr.generate_ideal(graded.ring, [a])
            assert gr.is_graded_ideal(graded, ideal)
        for a in hom:
            for b in hom:
                ideal = fr.generate_ideal(graded.ring, [a, b])
                assert gr.is_graded_ideal(graded, ideal)


class TestGradedMSystems:
    def test_complement_of_graded_prime_is_graded_m_system(self, tri2_std):
        ring = tri2_std.ring
        row = fr.generate_ideal(ring, [E11])
        assert gr.is_graded_prime_ideal(tri2_std, row)
        assert gr.is_graded_m_system(tri2_std, ring.full_mask & ~row.members)

    def test_nonzero_elements_of_a_field(self):
        g = gr.trivial_grading(fr.gf(3))
        assert gr.is_graded_m_system(g, fr.mask_of([1, 2]))

    def test_complement_of_the_nilpotent_ideal_is_not(self, tri2_std):
        ring = tri2_std.ring
        n = fr.mask_of([0, E12])
        assert not gr.is_graded_m_system(tri2_std, ring.full_mask & ~n)


class TestGradedPrimeness:
    def test_row_ideal_is_graded_prime(self, tri2_std):
        row = fr.generate_ideal(tri2_std.ring, [E11])
        assert gr.is_graded_prime_ideal(tri2_std, row)

    def test_zero_is_not_graded_prime_in_triangular(self, tri2_std):
        assert not gr.is_graded_prime_ring(tri2_std)

    def test_fields_are_graded_prime(self):
        assert gr.is_graded_prime_ring(gr.trivial_grading(fr.gf(5)))

    def test_group_algebra_is_graded_prime_but_not_prime(self):
        # the grading group is not ordered, so the two notions may differ
        g = group_algebra_grading(fr.gf(2), cyclic(2))
        assert gr.is_graded_prime_ring(g)
        assert not fr.is_prime_ring(g.ring)

    def test_ungraded_ideal_is_rejected(self):
        g = group_algebra_grading(fr.gf(2), cyclic(2))
        ungraded = fr.generate_ideal(g.ring, [3])  # 1 + g
        with pytest.raises(ValueError):
            gr.is_graded_prime_ideal(g, ungraded)

    @pytest.mark.parametrize("name,graded", THEOREM_RINGS, ids=THEOREM_IDS)
    def test_three_graded_prime_criteria_agree(self, name, graded):
        """Graded primeness (the graded m-system test) against the oracle's
        pair test over graded ideals and over the principal ideals of
        homogeneous elements, and the library's pair test over the principal
        ideals of homogeneous elements."""
        ring = graded.ring
        family = fr._family(ring, graded.component_masks)
        graded_ideals = oracle.all_graded_ideals(graded)
        for ideal in ideals_of(ring, gr.all_graded_ideals(graded)):
            if not ideal.is_proper:
                continue
            verdicts = {
                gr.is_graded_prime_ideal(graded, ideal),
                oracle.is_prime_among(ring, ideal.members, graded_ideals),
                oracle.is_prime_among(ring, ideal.members, oracle.principal_ideals(ring, graded.homogeneous_mask)),
                fr.is_prime_among(ring, ideal.members, family),
            }
            assert len(verdicts) == 1, f"criteria disagree on {ideal} of {name}"

    @pytest.mark.parametrize("name,graded", graded_corpus())
    def test_graded_primeness_does_not_depend_on_the_labels(self, name, graded):
        """Renaming the elements is an isomorphism.  Each element in turn
        takes the top index, the last middle factor a scan reaches, so a
        scan that stops one short misses it wherever it is the only one."""
        ring, top = graded.ring, graded.ring.order - 1
        proper = [p for p in ideals_of(ring, gr.all_graded_ideals(graded)) if p.is_proper]
        verdicts = [(p.members, gr.is_graded_prime_ideal(graded, p)) for p in proper]
        for x in ring.elements():
            perm = list(range(ring.order))
            perm[x], perm[top] = top, x
            components = {g: [perm[i] for i in fr.bits(m)] for g, m in graded.components.items()}
            moved = gr.attach_grading(relabelled(ring, perm), graded.group, components)
            for members, verdict in verdicts:
                p = fr.Ideal(moved.ring, fr.mask_of(perm[i] for i in fr.bits(members)))
                assert gr.is_graded_prime_ideal(moved, p) == verdict, (x, members)

    @pytest.mark.parametrize("name,graded", z_graded_corpus())
    def test_ordered_gradings_transfer_primeness(self, name, graded):
        ring = graded.ring
        if ring.order > 1:
            assert fr.is_prime_ring(ring) == gr.is_graded_prime_ring(graded)
        for ideal in ideals_of(ring, gr.all_graded_ideals(graded)):
            if ideal.is_proper:
                assert fr.is_prime_ideal(ring, ideal) == gr.is_graded_prime_ideal(
                    graded, ideal
                ), f"{name}: {ideal}"


def test_graded_primeness_runs_no_pair_test(capsys):
    with mock.patch("gradedprime.grading.is_prime_among", side_effect=AssertionError("a pair test ran"), create=True):
        assert main(["graded-prime", str(DATA / "grpalg_c2.graded")]) == 0
    assert capsys.readouterr() == ("graded prime: YES\n", "")


class TestClassification:
    def test_trivial_group_grading_on_a_field_is_everything(self):
        c = gr.classify_grading(gr.trivial_grading(fr.gf(2), cyclic(1)))
        assert c == gr.GradingClassification(True, True, True, True)

    def test_trivial_integer_grading_is_not_strong(self):
        # a nonzero integer-graded ring with finite support never has full
        # support, so strength fails even though all local-unit classes hold
        c = gr.classify_grading(gr.trivial_grading(fr.gf(2)))
        assert c == gr.GradingClassification(False, True, True, True)

    def test_standard_triangular_grading_is_nothing(self, tri2_std):
        c = gr.classify_grading(tri2_std)
        assert c == gr.GradingClassification(False, False, False, False)

    def test_group_algebra_grading_is_everything(self):
        c = gr.classify_grading(group_algebra_grading(fr.gf(2), cyclic(2)))
        assert c == gr.GradingClassification(True, True, True, True)

    def test_matrix_diagonal_grading(self):
        from corpus import mat_standard

        c = gr.classify_grading(mat_standard(2, 2))
        assert not c.strongly  # finite support over the integers
        assert c.symmetrically and c.ideally_symmetrically and c.nearly_epsilon_strongly

    @pytest.mark.parametrize(
        "graded",
        [gr.trivial_grading(fr.gf(2), cyclic(200)), specio.parse_graded_file((DATA / "gf2_trivial.graded").read_text())],
        ids=["cyclic200", "gf2_trivial_file"],
    )
    def test_a_missing_component_decides_strength_without_a_product(self, graded):
        # some S_z = 0 forces every S_w = S_z S_{z^-1 w} = 0
        with mock.patch.object(gr, "_product_span", wraps=gr._product_span) as products:
            assert gr._is_strongly_graded(graded) is False
        assert products.call_count == 0

    @pytest.mark.parametrize("group", [cyclic(3), Z], ids=["cyclic3", "Z"])
    def test_the_zero_ring_is_strongly_graded(self, group):
        assert gr._is_strongly_graded(gr.trivial_grading(fr.zmod(1), group)) is True

    def test_trivial_grading_on_a_nonidempotent_ring(self):
        from corpus import ring_by_name

        c = gr.classify_grading(gr.trivial_grading(ring_by_name("even8")))
        assert c == gr.GradingClassification(False, False, False, False)

    @pytest.mark.parametrize("name,graded", THEOREM_RINGS, ids=THEOREM_IDS)
    def test_implication_chain(self, name, graded):
        c = gr.classify_grading(graded)
        if c.nearly_epsilon_strongly:
            assert c.ideally_symmetrically
        if c.ideally_symmetrically:
            assert c.symmetrically
        if c.strongly and graded.ring.unit is not None:
            assert c.nearly_epsilon_strongly

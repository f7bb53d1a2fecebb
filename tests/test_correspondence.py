"""Identity-component correspondence: invariant ideals, lifts, reports."""

from pathlib import Path

import pytest

from gradedprime import correspondence as co
from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import specio
from gradedprime.groups import cyclic

import oracle
from corpus import (
    corpus_rings,
    graded_corpus,
    group_algebra_grading,
    mat_standard,
    tri_standard,
    z_graded_corpus,
    zero_mult_graded,
)

E11, E12, E22 = 4, 2, 1
DATA = Path(__file__).parent / "data"
GRADED = list(graded_corpus()) + [
    (p.name, specio.parse_graded_file(p.read_text())) for p in sorted(DATA.glob("*.graded"))
]


@pytest.fixture(scope="module")
def tri2_std():
    return tri_standard(2, 2)


def projection(graded):
    """The reports' map I -> I_e on the graded ideals, keyed by mask."""
    return co._maps(graded, fr.DEFAULT_CAPS)[3]


class TestProjection:
    """The reports project a graded ideal by masking with S_e; the oracle
    projects it part by part through the decomposition of each member."""

    def test_zero_projects_to_zero(self, tri2_std):
        zero = tri2_std.ring.zero_mask
        assert projection(tri2_std)[zero] == zero == oracle.e_component(tri2_std, zero)

    def test_projection_is_onto(self, tri2_std):
        full = tri2_std.ring.full_mask
        assert projection(tri2_std)[full] == tri2_std.e_mask == oracle.e_component(tri2_std, full)

    def test_mixed_element_projects_to_its_diagonal(self, tri2_std):
        assert oracle.e_component(tri2_std, fr.mask_of([E11 + E12])) == fr.mask_of([E11])
        ideal = fr.generate_ideal(tri2_std.ring, [E11 + E12])
        assert ideal.members == fr.mask_of([0, E11, E12, E11 + E12])
        assert projection(tri2_std)[ideal.members] == fr.mask_of([0, E11])

    @pytest.mark.parametrize("name,graded", GRADED, ids=[name for name, _ in GRADED])
    def test_a_graded_ideal_projects_onto_its_meet_with_the_identity_component(self, name, graded):
        proj = projection(graded)
        assert set(proj) == set(gr.all_graded_ideals(graded))
        for members, image in proj.items():
            assert image == members & graded.e_mask == oracle.e_component(graded, members)


class TestInvariance:
    def test_zero_and_whole_base_are_invariant(self, tri2_std):
        assert co.is_g_invariant(tri2_std, tri2_std.ring.zero_mask)
        assert co.is_g_invariant(tri2_std, tri2_std.e_mask)

    def test_corner_ideal_is_invariant_when_conjugates_vanish(self, tri2_std):
        # the negative component is zero, so all conjugates collapse to zero
        assert co.is_g_invariant(tri2_std, fr.mask_of([0, E11]))

    def test_matrix_corner_is_not_invariant(self):
        g = mat_standard(2, 2)
        assert not co.is_g_invariant(g, fr.mask_of([0, 8]))  # F2*E11

    def test_non_ideal_subset_is_rejected(self, tri2_std):
        with pytest.raises(ValueError):
            co.is_g_invariant(tri2_std, fr.mask_of([0, E12]))  # outside S_e

    @pytest.mark.parametrize("name,graded", graded_corpus())
    def test_invariance_matches_lift_and_restrict(self, name, graded):
        for j in oracle.base_ideals(graded):
            lifted = fr.generate_ideal(graded.ring, fr.bits(j))
            assert co.is_g_invariant(graded, j) == (lifted.members & graded.e_mask == j)

    @pytest.mark.parametrize("name,graded", graded_corpus())
    def test_projections_of_graded_ideals_are_invariant(self, name, graded):
        for m in gr.all_graded_ideals(graded):
            assert co.is_g_invariant(graded, m & graded.e_mask)


class TestGPrime:
    def test_field_base(self):
        g = gr.trivial_grading(fr.gf(3))
        assert co.is_g_prime_base(g)

    def test_group_algebra_base_is_g_prime(self):
        g = group_algebra_grading(fr.gf(2), cyclic(2))
        assert co.is_g_prime_base(g)

    def test_triangular_base_is_not(self, tri2_std):
        # both diagonal corners are invariant and annihilate each other
        assert not co.is_g_prime_base(tri2_std)

    def test_zero_base_is_rejected(self):
        with pytest.raises(ValueError):
            co.is_g_prime_base(zero_mult_graded())

    def test_improper_base_ideal_is_rejected(self, tri2_std):
        with pytest.raises(ValueError):
            co.is_g_prime_ideal(tri2_std, tri2_std.e_mask)

    @pytest.mark.parametrize("name,graded", z_graded_corpus())
    def test_base_primeness_matches_ring_primeness_when_ideally_symmetric(
        self, name, graded
    ):
        if graded.ring.order == 1 or graded.e_mask == graded.ring.zero_mask:
            return
        if not gr.classify_grading(graded).ideally_symmetrically:
            return
        assert fr.is_prime_ring(graded.ring) == co.is_g_prime_base(graded), name


class TestIdentityGenerated:
    def test_zero_is_identity_generated(self, tri2_std):
        assert co.is_identity_generated(tri2_std, fr.Ideal(tri2_std.ring, tri2_std.ring.zero_mask))

    def test_whole_triangular_ring_is_identity_generated(self, tri2_std):
        assert co.is_identity_generated(tri2_std, fr.Ideal(tri2_std.ring, tri2_std.ring.full_mask))

    def test_nilpotent_ideal_is_not(self, tri2_std):
        n = fr.Ideal(tri2_std.ring, fr.mask_of([0, E12]))
        assert not co.is_identity_generated(tri2_std, n)

    def test_ungraded_ideal_is_rejected(self):
        g = group_algebra_grading(fr.gf(2), cyclic(2))
        with pytest.raises(ValueError):
            co.is_identity_generated(g, fr.generate_ideal(g.ring, [3]))

    @pytest.mark.parametrize("ring", [fr.zmod(16), fr.zmod(8)], ids=["larger", "same_order"])
    def test_another_rings_ideal_is_rejected(self, tri2_std, ring):
        with pytest.raises(ValueError, match="^ideal belongs to a different ring$"):
            co.is_identity_generated(tri2_std, fr.generate_ideal(ring, [ring.order // 2]))


class TestReports:
    @pytest.mark.parametrize("name,graded", graded_corpus())
    def test_identity_generated_report_passes_everywhere(self, name, graded):
        report = co.verify_bijection_identity_generated(graded)
        assert all(c.passed for c in report.checks), report.render()

    @pytest.mark.parametrize("name,graded", graded_corpus())
    def test_ideally_symmetric_report_passes_on_its_domain(self, name, graded):
        if gr.classify_grading(graded).ideally_symmetrically:
            report = co.verify_bijection_ideally_symmetric(graded)
            assert all(c.passed for c in report.checks), report.render()
        else:
            with pytest.raises(ValueError):
                co.verify_bijection_ideally_symmetric(graded)

    def test_reports_serialize_stably(self, tri2_std):
        report = co.verify_bijection_identity_generated(tri2_std)
        lines = report.lines()
        assert lines == co.verify_bijection_identity_generated(tri2_std).lines()
        assert all(line.startswith("check ") for line in lines)
        assert any(": PASS" in line for line in lines)

    def test_trivial_grading_report_is_the_identity_on_the_lattice(self):
        for name, ring in corpus_rings()[:4]:
            graded = gr.trivial_grading(ring)
            report = co.verify_bijection_identity_generated(graded)
            assert all(c.passed for c in report.checks)

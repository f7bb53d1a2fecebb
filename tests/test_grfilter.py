"""Filter subrings of group rings: validation, building, classification,
witness search."""

import hashlib
import random
import time
from pathlib import Path
from unittest import mock

import pytest

from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import grfilter as gfl
from gradedprime import specio
from gradedprime.cli import main
from gradedprime.errors import CapError, SpecError
from gradedprime.groups import Z, cyclic, symmetric_group

import oracle
from corpus import (
    all_candidate_filters,
    corpus_rings,
    finite_filter_corpus,
    ring_by_name,
    row_ideal_tri2,
)

GF2 = fr.gf(2)
DATA = Path(__file__).parent / "data"


def f2_c2_full():
    return gfl.make_finite_filter(GF2, cyclic(2), {0: GF2.full_mask, 1: GF2.full_mask})


class TestValidation:
    def test_the_full_group_ring_is_a_filter(self):
        assert gfl.validate_filter(f2_c2_full())

    def test_matching_corner_ideals_are_accepted(self):
        assert gfl.validate_filter(dict(finite_filter_corpus())["prod_c3"])

    def test_crossed_corner_ideals_are_rejected(self):
        p22 = fr.product(GF2, GF2)
        f20 = fr.generate_ideal(p22, [2]).members
        f02 = fr.generate_ideal(p22, [1]).members
        bad = gfl.make_finite_filter(
            p22, cyclic(3), {0: p22.full_mask, 1: f20, 2: f02}
        )
        assert not gfl.validate_filter(bad)

    def test_identity_component_must_be_everything(self):
        with pytest.raises(SpecError):
            gfl.make_finite_filter(GF2, cyclic(2), {0: GF2.zero_mask, 1: GF2.zero_mask})

    def test_partial_assignment_rejected(self):
        with pytest.raises(SpecError):
            gfl.GFilter(GF2, cyclic(2), assignment=((0, GF2.full_mask),))

    def test_z_subgroup_patterns_validate(self):
        filt = gfl.make_z_filter(GF2, gfl.ZRule("subgroup", 2))
        assert gfl.validate_filter(filt)

    def test_z_constant_patterns_validate(self):
        t2 = fr.tri(GF2, 2)
        filt = gfl.make_z_filter(t2, gfl.ZRule("constant", off=row_ideal_tri2()))
        assert gfl.validate_filter(filt)

    def test_z_override_must_respect_the_law(self):
        # forcing the whole ring at degree 1 breaks I_1*I_1 inside I_2 = 0
        filt = gfl.make_z_filter(GF2, gfl.ZRule("subgroup", 3), {1: GF2.full_mask})
        assert not gfl.validate_filter(filt)

    def test_z_override_can_be_consistent(self):
        # a nilpotent constant ideal can be shrunk pointwise to zero
        z4 = fr.zmod(4)
        j = fr.generate_ideal(z4, [2]).members
        filt = gfl.make_z_filter(z4, gfl.ZRule("constant", off=j), {3: z4.zero_mask})
        assert gfl.validate_filter(filt)

    def test_z_override_shrinking_a_full_pattern_is_caught(self):
        z4 = fr.zmod(4)
        j = fr.generate_ideal(z4, [2]).members
        filt = gfl.make_z_filter(z4, gfl.ZRule("subgroup", 1), {5: j, -5: j})
        assert not gfl.validate_filter(filt)

    def test_the_window_is_capped_by_the_group_cap(self):
        """2w + 1 sites, w = 2 * 5 + 3 * 2 + 2 for period 2 and an override
        at 5: 37 degrees."""
        rule, over = gfl.ZRule("subgroup", 2), {5: GF2.zero_mask}
        filt = gfl.make_z_filter(GF2, rule, over, fr.Caps(max_group_order=37))
        assert gfl.filter_sites(filt) == list(range(-18, 19))
        with pytest.raises(CapError, match="^filter window of 37 degrees exceeds cap 36$"):
            gfl.make_z_filter(GF2, rule, over, fr.Caps(max_group_order=36))

    @pytest.mark.parametrize(
        "n,degrees", [(10**20, 400000000000000000005), (3000, 12005)], ids=["period_1e20", "period_3000"]
    )
    def test_a_filter_built_directly_is_capped(self, n, degrees):
        """GFilter itself refuses the window, so no path reaches the laws'
        scan of its pairs uncapped."""
        start = time.perf_counter()
        with pytest.raises(CapError, match=f"^filter window of {degrees} degrees exceeds cap 256$"):
            gfl.validate_filter(gfl.GFilter(GF2, Z, zrule=gfl.ZRule("subgroup", n, 1)))
        assert time.perf_counter() - start < 1.0

    def test_a_filter_built_directly_takes_the_group_cap(self):
        rule = gfl.ZRule("subgroup", 3000, 1)
        filt = gfl.GFilter(GF2, Z, zrule=rule, caps=fr.Caps(max_group_order=12005))
        assert len(gfl.filter_sites(filt)) == 12005


class TestBuild:
    def test_full_filter_builds_the_group_algebra(self):
        filt = f2_c2_full()
        assert gfl.validate_filter(filt)
        built = gfl.assemble_filter_ring(filt)
        assert built.ring.order == 4
        assert gr.classify_grading(built).strongly

    def test_component_counting(self):
        filt = dict(finite_filter_corpus())["prod_c3"]
        assert gfl.validate_filter(filt)
        assert gfl.assemble_filter_ring(filt).ring.order == 16

    def test_invalid_filters_do_not_build(self):
        p22 = fr.product(GF2, GF2)
        f20 = fr.generate_ideal(p22, [2]).members
        f02 = fr.generate_ideal(p22, [1]).members
        bad = gfl.make_finite_filter(p22, cyclic(3), {0: p22.full_mask, 1: f20, 2: f02})
        assert not gfl.validate_filter(bad)
        with pytest.raises(SpecError):
            gfl.assemble_filter_ring(bad)

    def test_z_filters_multiply_term_tuples(self):
        filt = gfl.make_z_filter(GF2, gfl.ZRule("subgroup", 1))
        assert gfl.validate_filter(filt)
        u = GF2.unit
        assert gfl._product(GF2, ((1, u),), ((2, u),)) == ((3, u),)
        assert oracle.term(filt, 1, u) * oracle.term(filt, 2, u) == oracle.term(filt, 3, u)

    def test_validation_agrees_with_organic_assembly(self):
        # the assembler has no validation of its own: it succeeds exactly
        # when products and sums stay inside the chosen components
        p22 = fr.product(GF2, GF2)
        for filt in all_candidate_filters(p22, cyclic(3)):
            expected = gfl.validate_filter(filt)
            try:
                gfl.assemble_filter_ring(filt)
                built = True
            except SpecError:
                built = False
            assert built == expected

    @pytest.mark.parametrize(
        "name,expected", [("c3_prod", "e545fc68018eab4b"), ("c2_row", "854fc227dd84ed94")]
    )
    def test_assembled_tables_are_pinned(self, name, expected):
        filt = specio.parse_filter_file((DATA / f"{name}.filter").read_text())
        built = gfl.assemble_filter_ring(filt)
        r = built.ring
        parts = (r.add_table, r.mul_table, r.names, sorted(built.components.items()))
        assert hashlib.sha256(repr(parts).encode()).hexdigest()[:16] == expected

    @pytest.mark.parametrize(
        "base,group",
        [(GF2, symmetric_group(3)), (fr.gf(3), cyclic(2)), (fr.zmod(4), cyclic(3))],
        ids=["gf2_sym3", "gf3_c2", "zmod4_c3"],
    )
    def test_full_filter_ring_is_the_group_algebra(self, base, group):
        full = {x: base.full_mask for x in group.elements()}
        built = gfl.assemble_filter_ring(gfl.make_finite_filter(base, group, full)).ring
        algebra = fr.grpalg(base, group)
        assert built.add_table == algebra.add_table
        assert built.mul_table == algebra.mul_table
        assert built.names == algebra.names


@pytest.fixture(scope="module")
def z4():
    return gfl.make_z_filter(fr.zmod(4), gfl.ZRule("subgroup", 1))


class TestElements:

    def test_membership_is_enforced(self):
        t2 = fr.tri(GF2, 2)
        filt = gfl.make_z_filter(t2, gfl.ZRule("subgroup", 2, off=row_ideal_tri2()))
        oracle.element(filt, {1: 4})  # E11 lies in the row ideal
        with pytest.raises(SpecError, match="^coefficient .* is outside the degree-1 component$"):
            oracle.element(filt, {1: 1})  # E22 does not

    def test_zero_coefficients_are_dropped(self, z4):
        assert oracle.element(z4, {0: 0, 2: 1}).support() == [2]

    def test_arithmetic(self, z4):
        a = oracle.element(z4, {0: 1, 1: 2})
        b = oracle.element(z4, {-1: 3})
        assert (a + (-a)) == oracle.zero(z4)
        prod = a * b
        assert prod.support() == [-1, 0]
        assert dict(prod.coeffs) == {-1: 3, 0: 2}  # 1*3 and 2*3 mod 4
        assert a.width() == 2 and b.width() == 1

    def test_convolution_is_associative(self, z4):
        rng = random.Random(5)
        for _ in range(40):
            a, b, c = (oracle.FilterElement(z4, gfl.random_element(z4, rng)) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert (a + b) * c == a * c + b * c

    def test_the_product_and_the_text_are_the_references(self):
        """grfilter._product, the witness search's convolution, and
        grfilter.show, the transcripts' text, against the reference
        arithmetic's product and repr, on elements wider than the trials
        draw."""
        for name in ("z_full_gf2", "z_full_mat2", "z_half_tri2"):
            filt = specio.parse_filter_file((DATA / f"{name}.filter").read_text())
            ring, rng = filt.ring, random.Random(3)
            assert gfl.show(ring, ()) == repr(oracle.zero(filt)) == "0"
            for _ in range(200):
                a, b = oracle.random_element(filt, rng, 4, 5), oracle.random_element(filt, rng, 4, 5)
                ea, eb = oracle.FilterElement(filt, a), oracle.FilterElement(filt, b)
                assert gfl._product(ring, a, b) == (ea * eb).coeffs
                assert gfl.show(ring, a) == repr(ea)


def random_z_filters(count: int, seed: int = 0) -> list:
    """count valid integer filters, drawn with both rule kinds and up to two
    overrides over small corpus rings, whose ideals make many filters
    invalid."""
    rng = random.Random(seed)
    rings = [ring_by_name(name) for name in ("zmod4", "tri2", "prod22", "even8", "zmod6")]
    out = []
    while len(out) < count:
        ring = rng.choice(rings)
        ideals = fr.all_ideals(ring)
        kind = rng.choice(("subgroup", "constant"))
        rule = gfl.ZRule(kind, rng.randint(1, 4) if kind == "subgroup" else 1, rng.choice(ideals))
        overrides = {rng.randint(-6, 6): rng.choice(ideals) for _ in range(rng.randint(0, 2))}
        try:
            filt = gfl.make_z_filter(ring, rule, overrides)
        except SpecError:  # an override of degree 0 that is not the whole ring
            continue
        if gfl.validate_filter(filt):
            out.append(filt)
    return out


def data_z_filters() -> list:
    filters = [specio.parse_filter_file(p.read_text()) for p in sorted(DATA.glob("*.filter"))]
    return [f for f in filters if not f.group.is_finite]


class TestTheFilterLawKeepsProductsInside:
    """The witness trials multiply elements with no membership check: a
    valid filter's law, decided on its window, must keep every product
    inside.  The reference arithmetic's element() holds the check."""

    FILTERS = data_z_filters() + random_z_filters(100)

    def test_the_filters_are_varied(self):
        assert len(data_z_filters()) == 3
        assert {f.zrule.kind for f in self.FILTERS} == {"subgroup", "constant"}
        assert {len(f.overrides) for f in self.FILTERS} == {0, 1, 2}
        assert any(f.zrule.off != f.ring.full_mask for f in self.FILTERS)

    @pytest.mark.parametrize("index", range(len(FILTERS)))
    def test_the_law_holds_far_beyond_the_window(self, index):
        f = self.FILTERS[index]
        at = f.ideal_at
        for x in range(-30, 31):
            for y in range(-30, 31):
                target = at(x + y)
                assert f.product(at(x), at(y)) | target == target, (x, y)

    @pytest.mark.parametrize("index", range(len(FILTERS)))
    def test_drawn_products_and_the_searched_products_stay_inside(self, index):
        f = self.FILTERS[index]
        ring, rng = f.ring, random.Random(index)
        for _ in range(10):
            a, b = gfl.random_element(f, rng), oracle.random_element(f, rng, 4, 5)
            products = [gfl._product(ring, a, b), gfl._product(ring, b, a)]
            products += [gfl._product(ring, gfl._product(ring, a, ((0, c),)), b) for c in ring.elements()]
            for terms in products:
                assert oracle.element(f, dict(terms)).coeffs == terms


# tri(gf(2), 2) over cyclic(3) builds a ring of up to 8^3 elements
BUILD_CAPS = fr.Caps(max_ring_order=512)


def assert_flags_match_the_built_grading(filt):
    """A finite filter's flags: symmetric, ideally symmetric and nearly
    epsilon-strong are the built ring's grading classes, and over a fully
    idempotent R symmetry is inverse-equality and ideal symmetry."""
    c = gfl.classify_filter(filt)
    cg = gr.classify_grading(gfl.assemble_filter_ring(filt, BUILD_CAPS))
    assert (c.symmetric, c.ideally_symmetric, c.nearly_eps) == (
        cg.symmetrically,
        cg.ideally_symmetrically,
        cg.nearly_epsilon_strongly,
    ), filt
    if c.R_fully_idempotent:
        assert c.symmetric == c.inverse_equal, filt
        assert c.symmetric == c.ideally_symmetric, filt
    return c


class TestClassification:
    def test_full_group_ring_over_a_unital_ring(self):
        c = gfl.classify_filter(f2_c2_full())
        assert c == gfl.FilterClassification(True, True, True, True, True, True)

    def test_matching_corner_filter(self):
        c = gfl.classify_filter(dict(finite_filter_corpus())["prod_c3"])
        assert c.symmetric and c.inverse_equal and c.ideally_symmetric and c.nearly_eps
        assert c.R_fully_idempotent

    def test_row_ideal_filter_is_symmetric_but_nothing_more(self):
        c = gfl.classify_filter(dict(finite_filter_corpus())["tri2_row_c2"])
        assert c.symmetric and c.inverse_equal
        assert c.ideally_symmetric is False
        assert not c.nearly_eps
        assert not c.R_fully_idempotent

    def test_non_idempotent_corner_is_not_symmetric(self):
        z4 = fr.zmod(4)
        j = fr.generate_ideal(z4, [2]).members
        c = gfl.classify_filter(
            gfl.make_finite_filter(z4, cyclic(2), {0: z4.full_mask, 1: j})
        )
        assert not c.symmetric and c.ideally_symmetric is False and not c.nearly_eps

    def test_z_subgroup_pattern_with_zero_off_ideal(self):
        c = gfl.classify_filter(gfl.make_z_filter(GF2, gfl.ZRule("subgroup", 2)))
        assert c.symmetric and c.ideally_symmetric and c.nearly_eps

    def test_z_row_ideal_pattern_is_undecided_for_ideal_symmetry(self):
        t2 = fr.tri(GF2, 2)
        c = gfl.classify_filter(
            gfl.make_z_filter(t2, gfl.ZRule("subgroup", 2, off=row_ideal_tri2()))
        )
        assert c.symmetric and c.ideally_symmetric is None and not c.nearly_eps

    @pytest.mark.parametrize("name,filt", finite_filter_corpus())
    def test_filter_flags_match_the_built_grading(self, name, filt):
        assert gfl.validate_filter(filt)
        assert_flags_match_the_built_grading(filt)

    def test_exhaustive_candidates_crosscheck(self):
        checked = fully = 0
        for ring in (fr.product(GF2, GF2), fr.tri(GF2, 2), fr.zmod(4)):
            for group in (cyclic(2), cyclic(3)):
                for filt in all_candidate_filters(ring, group):
                    if gfl.validate_filter(filt):
                        fully += assert_flags_match_the_built_grading(filt).R_fully_idempotent
                        checked += 1
        assert 0 < fully < checked

    def test_no_ring_is_built_to_classify_a_filter(self):
        expected = {name: oracle.classify_filter(filt) for name, filt in finite_filter_corpus()}
        with mock.patch.object(gfl, "_group_ring", side_effect=AssertionError("a ring was built")):
            for name, filt in finite_filter_corpus():
                assert gfl.classify_filter(filt) == expected[name], name


class TestSUnital:
    def test_unital_ring_acts_unitally(self):
        r = fr.zmod(6)
        assert fr.is_s_unital_module(r, r.full_mask, r.full_mask, "left")

    def test_nilpotents_do_not(self):
        z4 = fr.zmod(4)
        j = fr.generate_ideal(z4, [2]).members
        assert not fr.is_s_unital_module(z4, j, j, "left")

    def test_idempotent_corner_acts_as_local_unit(self):
        p22 = fr.product(GF2, GF2)
        f20 = fr.generate_ideal(p22, [2]).members
        assert fr.is_s_unital_module(p22, f20, f20, "left")
        assert fr.is_s_unital_module(p22, f20, f20, "right")

    def test_row_ideal_fails_on_the_right_only(self):
        t2 = fr.tri(GF2, 2)
        row = row_ideal_tri2()
        assert fr.is_s_unital_module(t2, row, row, "left")
        assert not fr.is_s_unital_module(t2, row, row, "right")


class TestSubgroupPatternAnalogue:
    """Corner patterns I_x in {R, L} on a subgroup; symmetric always, with
    local units exactly when the subgroup is everything.  The L here is the
    row ideal, whose one-sided s-unitality failure drives the equivalence;
    a zero off-ideal is vacuously s-unital so it is excluded on purpose."""

    def test_c2_row_pattern(self):
        t2 = fr.tri(GF2, 2)
        partial = gfl.make_finite_filter(t2, cyclic(2), {0: t2.full_mask, 1: row_ideal_tri2()})
        full = gfl.make_finite_filter(t2, cyclic(2), {0: t2.full_mask, 1: t2.full_mask})
        cp = gfl.classify_filter(partial)
        cf = gfl.classify_filter(full)
        assert cp.symmetric and cf.symmetric
        assert not cp.nearly_eps and cf.nearly_eps

    def test_c4_row_pattern_on_the_even_subgroup(self):
        t2 = fr.tri(GF2, 2)
        row = row_ideal_tri2()
        filt = gfl.make_finite_filter(
            t2, cyclic(4), {0: t2.full_mask, 1: row, 2: t2.full_mask, 3: row}
        )
        assert gfl.validate_filter(filt)
        c = gfl.classify_filter(filt)
        assert c.symmetric and not c.nearly_eps

    def test_z_row_pattern(self):
        t2 = fr.tri(GF2, 2)
        partial = gfl.make_z_filter(t2, gfl.ZRule("subgroup", 2, off=row_ideal_tri2()))
        full = gfl.make_z_filter(t2, gfl.ZRule("subgroup", 1))
        assert gfl.classify_filter(partial).symmetric
        assert not gfl.classify_filter(partial).nearly_eps
        assert gfl.classify_filter(full).nearly_eps

    def test_zero_pattern_keeps_local_units_vacuously(self):
        filt = gfl.make_z_filter(GF2, gfl.ZRule("subgroup", 2))
        assert gfl.classify_filter(filt).nearly_eps


class TestSUnitalityFailureBlocksLocalUnitsFiniteAnalogue:
    """Finite stand-in for the domain-coefficient obstruction: a proper
    corner ideal without one-sided local units forces the local-unit flag
    off.  Finite fully idempotent unital prime rings are simple, so the
    domain hypothesis itself is vacuous at this scale; the scan asserts
    that emptiness too."""

    def test_domain_like_hypothesis_is_vacuous_on_the_corpus(self):
        for name, ring in corpus_rings():
            if ring.unit is None or not fr.is_fully_idempotent(ring):
                continue
            if not fr.is_prime_ring(ring):
                continue
            proper_nonzero = [m for m in fr.all_ideals(ring) if m not in (ring.full_mask, ring.zero_mask)]
            assert proper_nonzero == [], name

    def test_the_mechanism_on_a_product_style_ring(self):
        z4 = fr.zmod(4)
        j = fr.generate_ideal(z4, [2]).members
        filt = gfl.make_finite_filter(z4, cyclic(2), {0: z4.full_mask, 1: j})
        assert not gfl.classify_filter(filt).nearly_eps
        assert not fr.is_s_unital_module(z4, fr.closed_product(z4, j, j), j, "left")


class TestWitnessSearch:
    def test_direct_products_need_no_middle_factor(self):
        witness = gfl.witness_search(GF2, ((0, 1), (1, 1)), ((-1, 1),))
        assert witness == gfl.Witness(None, None)

    def test_matrix_corners_need_a_connecting_unit(self):
        m2 = fr.mat(GF2, 2)
        filt = gfl.make_z_filter(m2, gfl.ZRule("subgroup", 1))
        a = ((0, 8),)   # E11
        b = ((0, 1),)   # E22
        witness = gfl.witness_search(m2, a, b)
        assert witness == gfl.Witness(0, 4)  # E12 at degree zero
        s = oracle.term(filt, witness.degree, witness.coeff)
        assert (oracle.FilterElement(filt, a) * s) * oracle.FilterElement(filt, b)

    def test_a_witness_below_the_top_terms(self):
        # over T_2(F_2), a = E11 + E12 x and b = E22 + E12 x have ab = 0 and
        # E12 c E12 = 0 for every c, yet a E22 b = E12 x
        tri2 = fr.tri(GF2, 2)
        filt = gfl.make_z_filter(tri2, gfl.ZRule("subgroup", 1))
        a = ((0, 4), (1, 2))
        b = ((0, 1), (1, 2))
        assert gfl.witness_search(tri2, a, b) == gfl.Witness(0, 1)
        assert oracle.witness_search(filt, a, b, 2) == gfl.Witness(0, 1)

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            gfl.witness_search(GF2, (), ((0, 1),))

    def test_search_respects_the_bound(self):
        # away from the distinguished degrees everything is zero, so only
        # middle factors on the even subgroup can connect; degree 0 sees them
        filt = gfl.make_z_filter(GF2, gfl.ZRule("subgroup", 2))
        assert gfl.witness_search(GF2, ((0, 1),), ((0, 1),)) == gfl.Witness(None, None)
        assert oracle.witness_search(filt, ((0, 1),), ((0, 1),), 4) == gfl.Witness(None, None)

    def test_witnesses_are_deterministic(self):
        m2 = fr.mat(GF2, 2)
        filt = gfl.make_z_filter(m2, gfl.ZRule("subgroup", 1))
        rng = random.Random(11)
        pairs = [(gfl.random_element(filt, rng), gfl.random_element(filt, rng)) for _ in range(25)]
        first = [gfl.witness_search(m2, a, b) for a, b in pairs]
        second = [gfl.witness_search(m2, a, b) for a, b in pairs]
        assert first == second
        assert all(w is not None for w in first)

    def test_search_matches_the_candidate_by_candidate_search(self):
        tri2 = fr.tri(GF2, 2)
        corner = fr.generate_ideal(tri2, [2]).members  # nilpotent, so many searches fail
        filters = [
            specio.parse_filter_file((DATA / f"{name}.filter").read_text())
            for name in ("z_full_gf2", "z_full_mat2", "z_half_tri2")
        ] + [gfl.make_z_filter(tri2, gfl.ZRule("constant", off=corner))]
        rng = random.Random(5)
        kinds = set()
        for filt in filters:
            for _ in range(400):
                a = oracle.random_element(filt, rng, rng.randint(1, 4), rng.randint(0, 5))
                b = oracle.random_element(filt, rng, rng.randint(1, 4), rng.randint(0, 5))
                bound = rng.randint(0, 6)
                witness = gfl.witness_search(filt.ring, a, b)
                assert witness == oracle.witness_search(filt, a, b, bound)
                kinds.add(None if witness is None else witness.degree is None)
        assert kinds == {None, True, False}

    def test_draws_match_the_draws_that_sorted_every_degree(self):
        """GFilter.members is a memo per degree: the elements drawn, and the
        generator's state after them, are those of the version that sorted
        the degree's members on every draw, at its default width and shift,
        which the library fixes."""
        tri2 = fr.tri(GF2, 2)
        corner = fr.generate_ideal(tri2, [2]).members
        filters = [
            specio.parse_filter_file((DATA / f"{name}.filter").read_text())
            for name in ("z_full_gf2", "z_full_mat2", "z_half_tri2")
        ] + [gfl.make_z_filter(tri2, gfl.ZRule("constant", off=corner))]
        for filt in filters:
            for d in range(-9, 10):
                assert list(filt.members(d)) == oracle.members_of_degree(filt, d)
            for seed in range(200):
                new, old = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    assert gfl.random_element(filt, new) == oracle.random_element(filt, old)
                assert new.getstate() == old.getstate()


@pytest.mark.parametrize(
    "argv",
    [
        ["c3_prod.filter"],
        ["z_half_tri2.filter", "--porcelain"],
        ["z_half_tri2.filter", "--witness", "--trials", "5"],
        ["z_full_mat2.filter", "--witness", "--trials", "5", "--porcelain"],
    ],
    ids=["finite-classify", "integer-classify", "witness", "witness-porcelain"],
)
def test_a_cli_call_validates_its_filter_once(monkeypatch, capsys, argv):
    """Each validation walks the filter's sites once, and so does each
    _inverse_pairs call; the walks less the inverse-pair calls are the
    validations."""
    calls = []
    sites, pairs = gfl.filter_sites, gfl._inverse_pairs

    def counted_sites(f):
        calls.append("sites")
        return sites(f)

    def counted_pairs(f):
        calls.append("pairs")
        return pairs(f)

    monkeypatch.setattr(gfl, "filter_sites", counted_sites)
    monkeypatch.setattr(gfl, "_inverse_pairs", counted_pairs)
    assert main(["filter", str(DATA / argv[0]), *argv[1:]]) == 0
    assert "valid" in capsys.readouterr().out
    assert calls.count("sites") - calls.count("pairs") == 1


# ---------------------------------------------------------------------------
# each distinct value checked once, against the degree-by-degree checks


def z_filters(ring):
    """Integer filters over the ring, valid or not: every rule with every off
    ideal, alone and with one override at degree 1, which can make I_1 and
    I_{-1} differ."""
    lattice = fr.all_ideals(ring)
    rules = [gfl.ZRule("subgroup", n, off) for n in (1, 2, 3) for off in lattice]
    rules += [gfl.ZRule("constant", 1, off) for off in lattice]
    return [gfl.make_z_filter(ring, rule, over) for rule in rules for over in [{}] + [{1: k} for k in lattice]]


def zero_mult_z4():
    return fr.make_ring([[(a + b) % 4 for b in range(4)] for a in range(4)], [[0] * 4] * 4)


@pytest.mark.parametrize("name", ["gf2", "prod22", "tri2", "zmod4", "even8", "zero_mult_z4"])
def test_filter_checks_agree_with_the_degree_by_degree_checks(name):
    ring = zero_mult_z4() if name == "zero_mult_z4" else dict(corpus_rings())[name]
    n_ideals = len(fr.all_ideals(ring))
    filters = z_filters(ring)
    for group in (cyclic(2), cyclic(3), cyclic(4)):
        if n_ideals ** (group.order - 1) <= 100:
            filters += all_candidate_filters(ring, group)
    # every subset holding zero at degree 1, ideal or not
    filters += [
        gfl.make_finite_filter(ring, cyclic(2), {0: ring.full_mask, 1: m})
        for m in range(1 << ring.order)
        if m & ring.zero_mask
    ]
    valid = 0
    for f in filters:
        assert gfl.validate_filter(f) == oracle.validate_filter(f)
        if gfl.validate_filter(f):
            valid += 1
            assert gfl.classify_filter(f) == oracle.classify_filter(f)
    assert 0 < valid < len(filters)

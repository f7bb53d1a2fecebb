"""Filter subrings of group rings: validation, building, classification,
witness search."""

import hashlib
import random
from pathlib import Path

import pytest

from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import grfilter as gfl
from gradedprime import specio
from gradedprime.cli import main
from gradedprime.errors import SpecError
from gradedprime.groups import cyclic, symmetric_group

import oracle
from corpus import (
    all_candidate_filters,
    corpus_rings,
    finite_filter_corpus,
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


class TestBuild:
    def test_full_filter_builds_the_group_algebra(self):
        built = gfl.build_filter_subring(f2_c2_full())
        assert built.ring.order == 4
        assert gr.classify_grading(built).strongly

    def test_component_counting(self):
        built = gfl.build_filter_subring(dict(finite_filter_corpus())["prod_c3"])
        assert built.ring.order == 16

    def test_invalid_filters_do_not_build(self):
        p22 = fr.product(GF2, GF2)
        f20 = fr.generate_ideal(p22, [2]).members
        f02 = fr.generate_ideal(p22, [1]).members
        bad = gfl.make_finite_filter(p22, cyclic(3), {0: p22.full_mask, 1: f20, 2: f02})
        with pytest.raises(SpecError):
            gfl.build_filter_subring(bad)

    def test_z_filters_build_an_arithmetic_handle(self):
        handle = gfl.build_filter_subring(gfl.make_z_filter(GF2, gfl.ZRule("subgroup", 1)))
        assert isinstance(handle, gfl.FilterRing)

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
def handle():
    return gfl.FilterRing(gfl.make_z_filter(fr.zmod(4), gfl.ZRule("subgroup", 1)))


class TestElements:

    def test_membership_is_enforced(self):
        t2 = fr.tri(GF2, 2)
        handle = gfl.FilterRing(gfl.make_z_filter(t2, gfl.ZRule("subgroup", 2, off=row_ideal_tri2())))
        handle.element({1: 4})  # E11 lies in the row ideal
        with pytest.raises(SpecError):
            handle.element({1: 1})  # E22 does not

    def test_zero_coefficients_are_dropped(self, handle):
        assert handle.element({0: 0, 2: 1}).support() == [2]

    def test_arithmetic(self, handle):
        a = handle.element({0: 1, 1: 2})
        b = handle.element({-1: 3})
        assert (a + (-a)) == handle.zero()
        prod = a * b
        assert prod.support() == [-1, 0]
        assert dict(prod.coeffs) == {-1: 3, 0: 2}  # 1*3 and 2*3 mod 4
        assert a.width() == 2 and b.width() == 1

    def test_convolution_is_associative(self, handle):
        rng = random.Random(5)
        for _ in range(40):
            a = handle.random_element(rng)
            b = handle.random_element(rng)
            c = handle.random_element(rng)
            assert (a * b) * c == a * (b * c)
            assert (a + b) * c == a * c + b * c


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
        c = gfl.classify_filter(filt)
        built = gfl.build_filter_subring(filt)
        cg = gr.classify_grading(built)
        assert c.symmetric == cg.symmetrically
        assert c.ideally_symmetric == cg.ideally_symmetrically
        assert c.nearly_eps == cg.nearly_epsilon_strongly

    def test_exhaustive_candidates_crosscheck(self):
        ring = fr.product(GF2, GF2)
        for group in (cyclic(2), cyclic(3)):
            for filt in all_candidate_filters(ring, group):
                if gfl.validate_filter(filt):
                    gfl.classify_filter(filt)  # raises on any level mismatch


class TestSUnital:
    def test_unital_ring_acts_unitally(self):
        r = fr.zmod(6)
        assert gfl.is_s_unital_module(r, r.full_mask, r.full_mask, "left")

    def test_nilpotents_do_not(self):
        z4 = fr.zmod(4)
        j = fr.generate_ideal(z4, [2]).members
        assert not gfl.is_s_unital_module(z4, j, j, "left")

    def test_idempotent_corner_acts_as_local_unit(self):
        p22 = fr.product(GF2, GF2)
        f20 = fr.generate_ideal(p22, [2]).members
        assert gfl.is_s_unital_module(p22, f20, f20, "left")
        assert gfl.is_s_unital_module(p22, f20, f20, "right")

    def test_row_ideal_fails_on_the_right_only(self):
        t2 = fr.tri(GF2, 2)
        row = row_ideal_tri2()
        assert gfl.is_s_unital_module(t2, row, row, "left")
        assert not gfl.is_s_unital_module(t2, row, row, "right")


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
            proper_nonzero = [
                i for i in fr.all_ideals(ring) if i.is_proper and not i.is_zero
            ]
            assert proper_nonzero == [], name

    def test_the_mechanism_on_a_product_style_ring(self):
        z4 = fr.zmod(4)
        j = fr.generate_ideal(z4, [2]).members
        filt = gfl.make_finite_filter(z4, cyclic(2), {0: z4.full_mask, 1: j})
        assert not gfl.classify_filter(filt).nearly_eps
        assert not gfl.is_s_unital_module(z4, fr.closed_product(z4, j, j), j, "left")


class TestWitnessSearch:
    def test_direct_products_need_no_middle_factor(self):
        handle = gfl.FilterRing(gfl.make_z_filter(GF2, gfl.ZRule("subgroup", 1)))
        a = handle.element({0: 1, 1: 1})
        b = handle.element({-1: 1})
        witness = gfl.witness_search(handle, a, b)
        assert witness == gfl.Witness(None, None)

    def test_matrix_corners_need_a_connecting_unit(self):
        m2 = fr.mat(GF2, 2)
        handle = gfl.FilterRing(gfl.make_z_filter(m2, gfl.ZRule("subgroup", 1)))
        a = handle.element({0: 8})   # E11
        b = handle.element({0: 1})   # E22
        witness = gfl.witness_search(handle, a, b)
        assert witness == gfl.Witness(0, 4)  # E12 at degree zero
        s = handle.term(witness.degree, witness.coeff)
        assert (a * s) * b

    def test_a_witness_below_the_top_terms(self):
        # over T_2(F_2), a = E11 + E12 x and b = E22 + E12 x have ab = 0 and
        # E12 c E12 = 0 for every c, yet a E22 b = E12 x
        tri2 = fr.tri(GF2, 2)
        handle = gfl.FilterRing(gfl.make_z_filter(tri2, gfl.ZRule("subgroup", 1)))
        a = handle.element({0: 4, 1: 2})
        b = handle.element({0: 1, 1: 2})
        assert gfl.witness_search(handle, a, b) == gfl.Witness(0, 1)
        assert oracle.witness_search(handle, a, b, 2) == gfl.Witness(0, 1)

    def test_zero_inputs_rejected(self):
        handle = gfl.FilterRing(gfl.make_z_filter(GF2, gfl.ZRule("subgroup", 1)))
        with pytest.raises(ValueError):
            gfl.witness_search(handle, handle.zero(), handle.element({0: 1}))

    def test_search_respects_the_bound(self):
        # away from the distinguished degrees everything is zero, so only
        # middle factors on the even subgroup can connect; degree 0 sees them
        handle = gfl.FilterRing(gfl.make_z_filter(GF2, gfl.ZRule("subgroup", 2)))
        a = handle.element({0: 1})
        b = handle.element({0: 1})
        assert gfl.witness_search(handle, a, b) == gfl.Witness(None, None)

    def test_witnesses_are_deterministic(self):
        m2 = fr.mat(GF2, 2)
        handle = gfl.FilterRing(gfl.make_z_filter(m2, gfl.ZRule("subgroup", 1)))
        rng = random.Random(11)
        pairs = [(handle.random_element(rng), handle.random_element(rng)) for _ in range(25)]
        first = [gfl.witness_search(handle, a, b) for a, b in pairs]
        second = [gfl.witness_search(handle, a, b) for a, b in pairs]
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
            handle = gfl.FilterRing(filt)
            for _ in range(400):
                a = handle.random_element(rng, rng.randint(1, 4), rng.randint(0, 5))
                b = handle.random_element(rng, rng.randint(1, 4), rng.randint(0, 5))
                bound = rng.randint(0, 6)
                witness = gfl.witness_search(handle, a, b)
                assert witness == oracle.witness_search(handle, a, b, bound)
                kinds.add(None if witness is None else witness.degree is None)
        assert kinds == {None, True, False}

    def test_draws_match_the_draws_that_sorted_every_degree(self):
        """members_of_degree reads a memo keyed by the ideal mask: the
        elements drawn, and the generator's state after them, are those of
        the version that sorted the degree's members on every draw."""
        tri2 = fr.tri(GF2, 2)
        corner = fr.generate_ideal(tri2, [2]).members
        filters = [
            specio.parse_filter_file((DATA / f"{name}.filter").read_text())
            for name in ("z_full_gf2", "z_full_mat2", "z_half_tri2")
        ] + [gfl.make_z_filter(tri2, gfl.ZRule("constant", off=corner))]
        for filt in filters:
            handle = gfl.FilterRing(filt)
            for d in range(-9, 10):
                assert list(handle.members_of_degree(d)) == oracle.members_of_degree(handle, d)
            for seed in range(200):
                new, old = random.Random(seed), random.Random(seed)
                for width, shift in ((3, 3), (1, 0), (4, 5)):
                    assert handle.random_element(new, width, shift) == oracle.random_element(
                        handle, old, width, shift)
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
    lattice = [i.members for i in fr.all_ideals(ring)]
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

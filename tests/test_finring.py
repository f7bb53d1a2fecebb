"""Finite ring kernel: construction, ideals, primeness."""

import hashlib
from unittest import mock

import pytest

from gradedprime import finring as fr
from gradedprime.errors import CapError, SpecError

import oracle
from corpus import corpus_rings, ideals_of, ring_by_name, zero_mult_ring
from gradedprime.groups import cyclic, symmetric_group


def members(ideal):
    return sorted(ideal.elements())


def center(ring):
    """Elements commuting with the whole ring, ascending."""
    return tuple(
        z
        for z in ring.elements()
        if all(ring.mul(z, r) == ring.mul(r, z) for r in ring.elements())
    )


def is_von_neumann_regular(ring, elements=None):
    """Whether every a in the subset (default: the ring) has x there with axa = a."""
    elems = list(ring.elements()) if elements is None else sorted(set(elements))
    return all(any(ring.mul3(a, x, a) == a for x in elems) for a in elems)


class TestConstruction:
    def test_gf2_is_the_prime_field(self):
        r = fr.gf(2)
        assert r.order == 2
        assert r.unit == 1
        assert r.mul(1, 1) == 1

    def test_gf4_has_a_generator_with_square_a_plus_one(self):
        r = fr.gf(4)
        assert r.names == ("0", "1", "a", "a+1")
        assert r.mul(2, 2) == 3  # a^2 = a + 1
        assert r.mul(2, 3) == 1  # a * (a+1) = a^2 + a = 1

    def test_zmod4_square_of_two_vanishes(self):
        r = fr.zmod(4)
        assert r.mul(2, 2) == 0
        assert r.add(3, 2) == 1

    def test_product_of_two_fields(self):
        r = fr.product(fr.gf(2), fr.gf(2))
        assert r.order == 4
        assert r.name(r.unit) == "(1,1)"

    def test_triangular_unit(self):
        r = fr.tri(fr.gf(2), 2)
        assert r.order == 8
        assert r.name(r.unit) == "[[1,0],[0,1]]"

    def test_nonunital_subring_of_zmod8(self):
        r = fr.subring(fr.zmod(8), [0, 2, 4, 6])
        assert r.order == 4
        assert r.unit is None
        assert r.names == ("0", "2", "4", "6")

    def test_subring_rejects_unclosed_selection(self):
        with pytest.raises(SpecError):
            fr.subring(fr.zmod(8), [0, 2, 4])  # 2+4 = 6 escapes

    def test_raw_tables_must_satisfy_the_axioms(self):
        with pytest.raises(SpecError):
            fr.make_ring([[0, 1], [1, 0]], [[0, 0], [0, 1]][::-1])
        with pytest.raises(SpecError):
            fr.make_ring([[0, 0], [0, 0]], [[0, 0], [0, 0]])  # no additive identity

    def test_order_cap_is_a_clean_error(self):
        with pytest.raises(CapError):
            fr.mat(fr.gf(2), 3, caps=fr.Caps(max_ring_order=256))
        fr.zmod(7, caps=fr.Caps(max_ring_order=7))
        with pytest.raises(CapError):
            fr.zmod(8, caps=fr.Caps(max_ring_order=7))

    @pytest.mark.parametrize(
        "build,shown",
        [
            (lambda: fr.mat(fr.gf(2), 4), "65536"),
            (lambda: fr.tri(fr.zmod(3), 3), "729"),
            (lambda: fr.mat(fr.gf(2), 84), str(2**7056)),
            (lambda: fr.mat(fr.gf(2), 200), "2^40000"),
            (lambda: fr.tri(fr.gf(2), 300), "2^45150"),
            (lambda: fr.mat(fr.gf(4), 10**6), "4^1000000000000"),
            (lambda: fr.product(*[fr.gf(2)] * 20000, fr.gf(3)), "2^20000*3"),
        ],
        ids=["mat4", "tri3", "mat84", "mat200", "tri300", "mat1e6", "product"],
    )
    def test_order_cap_is_checked_before_the_tables(self, build, shown):
        # orders Python prints keep their decimal text; longer ones are powers
        with pytest.raises(CapError) as info:
            build()
        assert str(info.value) == f"ring order {shown} exceeds cap 256"

    def test_zmod_checks_the_cap_before_building_its_tables(self):
        with pytest.raises(CapError, match="ring order 1000000000 exceeds cap 256"):
            fr.zmod(10**9)

    def test_not_a_prime_power(self):
        with pytest.raises(SpecError):
            fr.gf(6)

    def test_fields_equal_the_entrywise_builder(self):
        built = 0
        for q in range(2, 257):
            try:
                new = fr.gf(q)
            except SpecError:  # not a prime power
                continue
            assert new == oracle.gf(q), q
            built += 1
        assert built == 70  # the prime powers up to 256

    def test_field_cap_errors_equal_the_entrywise_builder(self):
        caps = fr.Caps(max_ring_order=8)
        capped = 0
        for q in range(9, 257):  # every field of order at most 8 is within the cap
            errors = []
            for build in (fr.gf, oracle.gf):
                with pytest.raises((CapError, SpecError)) as info:
                    build(q, caps)
                errors.append((info.type, str(info.value)))
            assert errors[0] == errors[1], q
            capped += errors[0] == (CapError, f"ring order {q} exceeds cap 8")
        assert capped == 70 - 6  # the prime powers from 9 to 256

    def test_residue_rings_equal_the_entrywise_builder(self):
        for n in range(1, 65):
            assert fr.zmod(n) == oracle.zmod(n), n

    @pytest.mark.parametrize("name,ring", corpus_rings())
    def test_corpus_units_are_genuine(self, name, ring):
        if ring.unit is None:
            for u in ring.elements():
                assert any(ring.mul(u, x) != x or ring.mul(x, u) != x for x in ring.elements())
        else:
            u = ring.unit
            assert all(ring.mul(u, x) == x == ring.mul(x, u) for x in ring.elements())


def table_digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# gf(q) tables and names for every prime power q <= 256, as computed by
# polynomial arithmetic per pair before the bilinearity recurrence replaced it
GF_DIGESTS = {
    2: "c59788681f6e3f01", 3: "383832522074606d", 4: "f35311903f5d5b86", 5: "9c784ee1782bb557",
    7: "656d3cf1db254054", 8: "82528d43bfd6ba71", 9: "14deb087241d109d", 11: "1a82d61b8091b6e1",
    13: "a250e320bc2868b7", 16: "51b0db3fdc2cb1f5", 17: "405875a09af83579", 19: "e90408413e231b4f",
    23: "d4d89588f918098e", 25: "99135f2543a1a032", 27: "d43388c20ad67c23", 29: "c554955b45e20e3b",
    31: "1f997960a7efb392", 32: "066e6d6cc704d5cc", 37: "d1e680526f950be7", 41: "14d321a737c7f77c",
    43: "164cb2eb2654e4fc", 47: "ae833422c4de61f8", 49: "8e398497cdae88bc", 53: "755f692f3353fa6b",
    59: "224a677f10247158", 61: "4c470407d1564c81", 64: "5876976436194e08", 67: "3a90f37519726524",
    71: "b1a3a86e1a59e5a6", 73: "ab13743c513fe99e", 79: "5633e76f5511ec34", 81: "a9a0a3776b005beb",
    83: "d88c997a293f8b59", 89: "bba3a1e487fc559b", 97: "8657739381eb29a5", 101: "7da06cbe27126bfe",
    103: "7e2ee6d9ecac944c", 107: "c92ddbbcdf3ca953", 109: "f30741df9e69c766", 113: "962ecdf6d41e690b",
    121: "17326d33b116c91a", 125: "f9b55303876c84c1", 127: "311b6482f2e93477", 128: "9d77361c9621f4e9",
    131: "4dbf22bf2b789edb", 137: "8687d506006cacb1", 139: "1809424f8379c7bb", 149: "216bcb1c508089ef",
    151: "f9b1613df12a4950", 157: "1de16cb866e47f6a", 163: "ec9cb5b205d211d5", 167: "a26af62f47c6bc65",
    169: "90216d2a0e82480e", 173: "da4774b399ebf5f2", 179: "684c7534f417ba1b", 181: "49d2d6c00410ecb9",
    191: "9c31e2c9a1367462", 193: "54ac176d3f77c81d", 197: "0628d18cae82ecae", 199: "f6e1137e0d030781",
    211: "2ab9bd29bc431b5a", 223: "ce3f58af61170ff6", 227: "b7aa306d8f40a24a", 229: "852777b7126d6f06",
    233: "90d29d5fab0dbe75", 239: "bbe7bc1be82bd398", 241: "cea098d19d6c417d", 243: "fac44a1baf875fbc",
    251: "10483fab32fcdb83", 256: "8e471202f9f09c11",
}


class TestConstructorTables:
    """The element order, tables and names of the tuple-ring constructors
    and of gf are a public contract; these digests pin them exactly."""

    @pytest.mark.parametrize(
        "build,expected",
        [
            (lambda: fr.product(fr.gf(2), fr.gf(3)), "2d82f0e704864936"),
            (lambda: fr.product(*[fr.gf(2)] * 8), "c3fb3d2b3ebb9c02"),
            (lambda: fr.mat(fr.gf(2), 2), "10a715b6159abfab"),
            (lambda: fr.mat(fr.gf(3), 2), "372212f8e93dcd31"),
            (lambda: fr.tri(fr.gf(2), 3), "a15b2fc9b9e5a6ec"),
            (lambda: fr.grpalg(fr.gf(2), symmetric_group(3)), "d80e6bf1a50f1c39"),
            (lambda: fr.grpalg(fr.gf(3), cyclic(2)), "eb392ac7ea16d3b7"),
        ]
        + [(lambda q=q: fr.gf(q), digest) for q, digest in GF_DIGESTS.items()],
        ids=[
            "product_gf2_gf3",
            "product_gf2_x8",
            "mat_gf2_2",
            "mat_gf3_2",
            "tri_gf2_3",
            "grpalg_gf2_sym3",
            "grpalg_gf3_cyclic2",
        ]
        + [f"gf{q}" for q in GF_DIGESTS],
    )
    def test_table_digest(self, build, expected):
        r = build()
        assert table_digest(r.add_table, r.mul_table, r.names) == expected


class TestIdealGeneration:
    def test_principal_ideal_in_a_product(self):
        r = fr.product(fr.gf(2), fr.gf(2))
        ideal = fr.generate_ideal(r, [2])  # (1,0)
        assert members(ideal) == [0, 2]

    def test_empty_generators_give_the_zero_ideal(self):
        r = fr.zmod(6)
        assert fr.generate_ideal(r, []).members == r.zero_mask

    def test_two_generates_its_additive_orbit_in_zmod4(self):
        assert members(fr.generate_ideal(fr.zmod(4), [2])) == [0, 2]

    def test_nonunital_generation_keeps_the_generator(self):
        # in 2Z/8Z the element 2 is not a ring multiple of itself
        r = ring_by_name("even8")
        ideal = fr.generate_ideal(r, [1])  # the element named "2"
        assert 1 in ideal

    @pytest.mark.parametrize("name,ring", corpus_rings())
    def test_generation_is_monotone_idempotent_and_fixes_ideals(self, name, ring):
        singles = [fr.generate_ideal(ring, [a]) for a in ring.elements()]
        for a in ring.elements():
            for b in ring.elements():
                joint = fr.generate_ideal(ring, [a, b])
                assert singles[a].members | joint.members == joint.members
        for ideal in ideals_of(ring, fr.all_ideals(ring)):
            assert fr.generate_ideal(ring, ideal.elements()) == ideal


class TestIdealValidation:
    # mat(gf(2), 2): element weights (0,0) 8, (0,1) 4, (1,0) 2, (1,1) 1
    E11, E12 = 8, 4

    @pytest.mark.parametrize(
        "members",
        [1 | 1 << E11 | 1 << E12, 1 | 1 << E11],
        ids=["not a subgroup", "a subgroup that does not absorb"],
    )
    def test_a_non_ideal_is_refused(self, members):
        with pytest.raises(SpecError, match="^subset is not a two-sided ideal$"):
            fr.Ideal(fr.mat(fr.gf(2), 2), members)


class TestIdealLattice:
    def test_product_lattice_is_the_four_obvious_ideals(self):
        r = fr.product(fr.gf(2), fr.gf(2))
        assert [sorted(fr.bits(m)) for m in fr.all_ideals(r)] == [
            [0],
            [0, 1],
            [0, 2],
            [0, 1, 2, 3],
        ]

    def test_fields_have_two_ideals(self):
        assert len(fr.all_ideals(fr.gf(3))) == 2

    def test_triangular_two_by_two_has_five(self):
        assert len(fr.all_ideals(fr.tri(fr.gf(2), 2))) == 5

    def test_lattice_cap(self):
        with pytest.raises(CapError):
            fr.all_ideals(fr.zmod(6), fr.Caps(max_ideals=2))

    def test_lattice_cap_is_exact(self):
        # a product of five fields has 2^5 = 32 ideals: the cap admits a
        # lattice of exactly its size and rejects a larger one
        ring = fr.product(*[fr.gf(2)] * 5)
        assert len(fr.all_ideals(ring, fr.Caps(max_ideals=32))) == 32
        with pytest.raises(CapError):
            fr.all_ideals(ring, fr.Caps(max_ideals=31))

    @pytest.mark.parametrize("p,k,count", [(2, 3, 16), (2, 5, 374), (3, 3, 28)])
    def test_count_floor_is_exact_with_zero_multiplication(self, p, k, count):
        # every additive subgroup of F_p^k is an ideal when all products are 0
        line = fr.make_ring(
            [[(a + b) % p for b in range(p)] for a in range(p)], [[0] * p for _ in range(p)]
        )
        ring = fr.product(*[line] * k)
        assert fr._ideal_count_floor(ring, (ring.full_mask,)) == len(fr.all_ideals(ring)) == count
        with mock.patch.object(fr, "_ideal_span", side_effect=AssertionError("enumerated")):
            with pytest.raises(CapError, match=f"^ideal lattice exceeds cap {count - 1}$"):
                fr.all_ideals(ring, fr.Caps(max_ideals=count - 1))

    @pytest.mark.parametrize("name,ring", corpus_rings())
    def test_count_floor_is_a_lower_bound(self, name, ring):
        assert fr._ideal_count_floor(ring, (ring.full_mask,)) <= len(fr.all_ideals(ring))

    @pytest.mark.parametrize(
        "name", ["gf2", "gf3", "gf4", "zmod4", "zmod6", "prod22", "tri2", "grpalg2", "even8", "mat2"]
    )
    def test_lattice_matches_exhaustive_subset_enumeration(self, name):
        # independent oracle: try all 2^order subsets
        ring = ring_by_name(name)
        brute = sorted(
            mask for mask in range(1 << ring.order) if fr.is_ideal_mask(ring, mask)
        )
        assert list(fr.all_ideals(ring)) == brute

    def test_generation_matches_exhaustive_minimum(self):
        # independent oracle: the meet of all brute-force ideals containing
        # the generators
        for name in ("zmod6", "prod22", "tri2", "even8"):
            ring = ring_by_name(name)
            ideals = [
                mask for mask in range(1 << ring.order) if fr.is_ideal_mask(ring, mask)
            ]
            for gens_mask in range(1 << ring.order):
                expected = ring.full_mask
                for mask in ideals:
                    if gens_mask & ~mask == 0:
                        expected &= mask
                gens = list(fr.bits(gens_mask))
                assert fr.generate_ideal(ring, gens).members == expected

    @pytest.mark.parametrize("name,ring", corpus_rings())
    def test_lattice_closed_under_product_meet_and_join(self, name, ring):
        lattice = ideals_of(ring, fr.all_ideals(ring))
        masks = {i.members for i in lattice}
        for a in lattice:
            for b in lattice:
                assert fr.ideal_product(a, b).members in masks
                assert a.members & b.members in masks
                assert fr.subgroup_closure(ring, a.members | b.members) in masks


class TestIdealProduct:
    def test_orthogonal_factors_annihilate(self):
        r = fr.product(fr.gf(2), fr.gf(2))
        a = fr.generate_ideal(r, [2])
        b = fr.generate_ideal(r, [1])
        assert fr.ideal_product(a, b).members == r.zero_mask

    def test_nilpotent_ideal_in_zmod4(self):
        a = fr.generate_ideal(fr.zmod(4), [2])
        assert fr.ideal_product(a, a).members == a.ring.zero_mask

    def test_unital_absorption(self):
        r = fr.zmod(6)
        full = fr.Ideal(r, r.full_mask)
        for ideal in ideals_of(r, fr.all_ideals(r)):
            assert fr.ideal_product(ideal, full) == ideal

    def test_mismatched_rings_rejected(self):
        with pytest.raises(ValueError):
            fr.ideal_product(fr.Ideal(fr.gf(2), 1), fr.Ideal(fr.gf(3), 1))

    @pytest.mark.parametrize("name,ring", corpus_rings())
    def test_product_below_intersection(self, name, ring):
        lattice = ideals_of(ring, fr.all_ideals(ring))
        for a in lattice:
            for b in lattice:
                prod = fr.ideal_product(a, b).members
                assert prod & ~(a.members & b.members) == 0


class TestPrimeness:
    def test_fields_are_prime(self):
        assert fr.is_prime_ideal(fr.gf(2), fr.Ideal(fr.gf(2), 1))

    def test_products_are_not(self):
        r = fr.product(fr.gf(2), fr.gf(2))
        assert not fr.is_prime_ideal(r, fr.Ideal(r, r.zero_mask))

    def test_maximal_ideal_of_zmod4(self):
        r = fr.zmod(4)
        assert fr.is_prime_ideal(r, fr.generate_ideal(r, [2]))

    def test_matrix_rings_are_prime(self):
        assert fr.is_prime_ring(fr.mat(fr.gf(2), 2))

    def test_triangular_rings_are_not(self):
        assert not fr.is_prime_ring(fr.tri(fr.gf(2), 2))

    def test_zero_multiplication_ring_is_not_prime(self):
        assert not fr.is_prime_ring(zero_mult_ring())

    def test_improper_ideal_is_rejected(self):
        r = fr.gf(2)
        with pytest.raises(ValueError):
            fr.is_prime_ideal(r, fr.Ideal(r, r.full_mask))

    def test_zero_ring_is_rejected(self):
        with pytest.raises(ValueError):
            fr.is_prime_ring(fr.zmod(1))

    @pytest.mark.parametrize("name,ring", corpus_rings())
    def test_three_prime_criteria_agree(self, name, ring):
        for ideal in ideals_of(ring, fr.all_ideals(ring)):
            if not ideal.is_proper:
                continue
            verdicts = {
                fr.is_prime_ideal(ring, ideal),
                oracle.prime_element_criterion(ring, ideal),
                oracle.is_prime_ideal_by_pairs(ring, ideal),
            }
            assert len(verdicts) == 1, f"criteria disagree on {ideal} of {name}"


class TestFullyIdempotentAndRegularity:
    def test_products_of_fields_are_fully_idempotent(self):
        assert fr.is_fully_idempotent(fr.product(fr.gf(2), fr.gf(2)))

    def test_zmod4_is_not(self):
        assert not fr.is_fully_idempotent(fr.zmod(4))

    def test_simple_unital_rings_are(self):
        assert fr.is_fully_idempotent(fr.mat(fr.gf(3), 2))

    @pytest.mark.parametrize("name,ring", corpus_rings())
    def test_fully_idempotent_iff_product_is_intersection(self, name, ring):
        lattice = ideals_of(ring, fr.all_ideals(ring))
        pairwise = all(
            fr.ideal_product(a, b).members == a.members & b.members
            for a in lattice
            for b in lattice
        )
        assert fr.is_fully_idempotent(ring) == pairwise

    def test_center_of_a_matrix_ring_is_scalar(self):
        r = fr.mat(fr.gf(2), 2)
        assert center(r) == (r.zero, r.unit)

    def test_fields_are_von_neumann_regular(self):
        assert is_von_neumann_regular(fr.gf(5))

    def test_zmod4_is_not_von_neumann_regular(self):
        assert not is_von_neumann_regular(fr.zmod(4))

    @pytest.mark.parametrize("name,ring", corpus_rings())
    def test_centers_of_fully_idempotent_rings_are_regular(self, name, ring):
        if fr.is_fully_idempotent(ring):
            assert is_von_neumann_regular(ring, center(ring))

"""The generating family of principal ideals and everything that quantifies
over it (the three lattices, full idempotency, the correspondence reports)
against the references in oracle.py, over every principal ideal and every
ideal; the graded-ideal count against the scan of every member's
decomposition; and the grading validator's multiplicativity check on
generators against the check on every pair of elements."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given

from gradedprime import correspondence as co
from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import specio
from gradedprime.errors import SpecError
from gradedprime.groups import Z, cyclic

import oracle
from corpus import corpus_rings, graded_corpus, ideals_of
from test_lattice_kernel import BIG, SETTINGS, assembled_filter_rings, zero_mult_gradings
from test_subgroup_kernel import small_rings

DATA = Path(__file__).parent / "data"


def zero_mult_f2(k):
    """F_2^k with all products zero: every additive subgroup is an ideal."""
    return fr.product(*[fr.subring(fr.zmod(4), [0, 2])] * k)


def trivially_graded():
    """Trivial cyclic(2) gradings of rings with many ideals."""
    rings = [(f"f2_{k}", zero_mult_f2(k)) for k in (5, 6)]
    rings += [(f"prod2x{k}", fr.product(*[fr.gf(2)] * k)) for k in range(1, 7)]
    return [(name, gr.trivial_grading(ring, cyclic(2))) for name, ring in rings]


def data_graded():
    paths = sorted(p for p in DATA.glob("*.graded") if p.name != BIG)
    return [(p.name, specio.parse_graded_file(p.read_text())) for p in paths]


GRADED = list(graded_corpus()) + data_graded() + trivially_graded()


def components(graded):
    return tuple(graded.component(x) for x in graded.support)


def assert_family_generates(ring, comps):
    """The family is part of the principal ideals, each member spanned by
    its generators, every principal ideal is the sum of the members inside
    it, and no member is the sum of the principal ideals strictly inside it."""
    principals = {oracle.generate_ideal(ring, [a]) for comp in comps for a in fr.bits(comp)}
    family = fr._family(ring, comps)
    assert family.keys() <= principals
    assert all(oracle.subgroup_closure(ring, fr.mask_of(gens)) == mask for mask, gens in family.items())
    for pmask in principals:
        inside = [f for f in family if f | pmask == pmask]
        below = [q for q in principals if q != pmask and q | pmask == pmask]
        assert fr.subgroup_closure(ring, fr.mask_of(itertools.chain(*map(fr.bits, inside)))) == pmask
        if pmask in family:
            assert fr.subgroup_closure(ring, fr.mask_of(itertools.chain(*map(fr.bits, below)))) != pmask


@pytest.mark.parametrize("name,ring", corpus_rings())
def test_ring_family_and_lattice(name, ring):
    assert_family_generates(ring, (ring.full_mask,))
    assert fr.all_ideals(ring) == oracle.all_ideals(ring)
    assert fr.is_fully_idempotent(ring) == oracle.is_fully_idempotent(ring)


@SETTINGS
@given(ring=small_rings())
def test_full_idempotency_is_the_pairwise_criterion_on_drawn_rings(ring):
    """Full idempotency, decided on the squares of the family, against
    IJ = I & J over every pair of ideals, which it implies and which takes
    in the squares as I = J."""
    lattice = ideals_of(ring, fr.all_ideals(ring))
    pairwise = all(fr.ideal_product(a, b).members == a.members & b.members for a in lattice for b in lattice)
    assert fr.is_fully_idempotent(ring) == pairwise


def assert_graded_agrees(graded):
    ring = graded.ring
    assert_family_generates(ring, components(graded))
    assert gr.all_graded_ideals(graded) == oracle.all_graded_ideals(graded)
    assert co.invariant_base_ideals(graded) == oracle.invariant_base_ideals(graded)
    assert fr.is_fully_idempotent(ring) == oracle.is_fully_idempotent(ring)
    assert co.verify_bijection_identity_generated(graded) == oracle.verify_bijection_identity_generated(graded)
    if gr.classify_grading(graded).ideally_symmetrically:
        assert co.verify_bijection_ideally_symmetric(graded) == oracle.verify_bijection_ideally_symmetric(graded)


@pytest.mark.parametrize("name,graded", GRADED, ids=[name for name, _ in GRADED])
def test_graded_rings(name, graded):
    assert_graded_agrees(graded)


def test_the_graded_ideal_count_agrees_with_the_decomposition_scan():
    """On every ideal, graded or not, of every ring of order up to 128 here,
    of the data file left out above (128 of its 29,212 ideals are graded) and
    of the trivial cyclic(2) gradings of the corpus: the library's count of
    the I & S_x against the oracle's check of every member's parts."""
    big = specio.parse_graded_file((DATA / BIG).read_text())
    trivial = [(name, gr.trivial_grading(ring, cyclic(2))) for name, ring in corpus_rings()]
    seen = set()
    for name, graded in [*GRADED, (BIG, big), *trivial]:
        if graded.ring.order <= 128:
            for ideal in ideals_of(graded.ring, fr.all_ideals(graded.ring)):
                verdict = oracle.is_graded_ideal(graded, ideal.members)
                assert gr.is_graded_ideal(graded, ideal) == verdict, (name, ideal.members)
                seen.add(verdict)
    assert seen == {True, False}


def test_assembled_filter_rings():
    for graded in assembled_filter_rings():
        assert_graded_agrees(graded)


@SETTINGS
@given(drawn=zero_mult_gradings())
def test_drawn_zero_multiplication_gradings(drawn):
    assert_graded_agrees(drawn[0])


def test_a_non_minimal_principal_ideal_stays_in_the_family():
    # Z/4: <2> = {0, 2} lies inside <1> = Z/4, which is not a sum of smaller ones
    ring = fr.zmod(4)
    assert sorted(fr._family(ring, (ring.full_mask,))) == [0b0101, 0b1111]
    # F_2 x F_2: the whole ring is the sum of the two factors
    ring = fr.product(fr.gf(2), fr.gf(2))
    assert sorted(fr._family(ring, (ring.full_mask,))) == [0b0011, 0b0101]


# ---------------------------------------------------------------------------
# the inclusion check


@pytest.mark.parametrize("name,graded", GRADED[:20], ids=[name for name, _ in GRADED[:20]])
def test_the_inclusion_check_implies_monotone_maps(name, graded):
    """On the lift map and on perturbed copies of it (one image replaced by
    the zero ideal, the identity component, the whole ring or another
    image), a pass of the check implies monotonicity; the true map passes."""
    ring, family = graded.ring, fr._principal_ideals(*co._invariant_key(graded))
    invariant, _, lift, *_ = co._maps(graded, fr.DEFAULT_CAPS)
    assert co._preserves_inclusion(ring, invariant, lift, family)
    rng = random.Random(name)
    for a in invariant:
        for wrong in (ring.zero_mask, graded.e_mask, ring.full_mask, lift[rng.choice(invariant)]):
            image = {**lift, a: wrong}
            if co._preserves_inclusion(ring, invariant, image, family):
                assert oracle._monotone(invariant, image)


def test_the_inclusion_check_needs_the_span():
    # F_2^4 as a product of fields, trivially graded, with atoms a, b, c, d:
    # mapping a + b onto a + b + c keeps the image of every member inside
    # the image of every ideal over it, but a + b lies in a + b + d
    graded = gr.trivial_grading(fr.product(*[fr.gf(2)] * 4), cyclic(2))
    ring, family = graded.ring, fr._principal_ideals(*co._invariant_key(graded))
    invariant, _, lift, *_ = co._maps(graded, fr.DEFAULT_CAPS)
    a, b, c, d = sorted(family)
    image = {**lift, fr.subgroup_closure(ring, a | b): fr.subgroup_closure(ring, a | b | c)}
    assert all(image[p] | image[m] == image[m] for m in invariant for p in family if p | m == m)
    assert not oracle._monotone(invariant, image)
    assert not co._preserves_inclusion(ring, invariant, image, family)


# ---------------------------------------------------------------------------
# multiplicativity of a grading, on additive generators


def attach(attach_grading, ring, group, comps):
    try:
        graded = attach_grading(ring, group, comps)
    except SpecError as exc:
        return str(exc)
    return graded.components, graded.support


def assert_attach_agrees(ring, group, comps):
    got = attach(gr.attach_grading, ring, group, comps)
    assert got == attach(oracle.attach_grading, ring, group, comps)
    return got


def mutations(graded):
    """Component maps near a valid grading: a component moved to another
    degree, two components swapped, and a component traded for a subgroup
    of the same size."""
    comps, group = dict(graded.components), graded.group
    degrees = list(graded.group.elements()) if group.is_finite else range(-2, 3)
    for x in graded.support:
        for y in degrees:
            if y != x and comps.get(y, graded.ring.zero_mask) == graded.ring.zero_mask:
                moved = {k: v for k, v in comps.items() if k != x}
                yield {**moved, y: comps[x]}
            elif y != x:
                yield {**comps, x: comps[y], y: comps[x]}
    ring = graded.ring
    for x in graded.support:
        size = comps[x].bit_count()
        for s in ring.elements():
            other = fr.subgroup_closure(ring, 1 << s)
            if other.bit_count() == size and other != comps[x]:
                yield {**comps, x: other}


@pytest.mark.parametrize("name,graded", GRADED[:30], ids=[name for name, _ in GRADED[:30]])
def test_multiplicativity_on_generators_agrees_on_mutated_components(name, graded):
    assert not isinstance(assert_attach_agrees(graded.ring, graded.group, graded.components), str)
    rejected = 0
    for comps in itertools.islice(mutations(graded), 200):
        rejected += isinstance(assert_attach_agrees(graded.ring, graded.group, comps), str)
    assert rejected or graded.ring.order <= 2 or len(graded.support) == 1


@pytest.mark.parametrize("name,ring", [(n, r) for n, r in corpus_rings() if r.order <= 16])
def test_multiplicativity_on_generators_agrees_on_two_part_splits(name, ring):
    """Every split of the additive group into two subgroups, in degrees 0
    and 1 of cyclic(2) and of Z: most of them fail multiplicativity.  Two
    subgroups whose sizes multiply to the order but that meet outside zero
    are refused as a sum collision."""
    subgroups = {ring.full_mask}
    for picks in itertools.combinations_with_replacement(ring.elements(), 3):
        subgroups.add(fr.subgroup_closure(ring, fr.mask_of(picks)))
    verdicts = []
    collisions = set()
    for a, b in itertools.product(sorted(subgroups), repeat=2):
        if a.bit_count() * b.bit_count() == ring.order:
            for group in (cyclic(2), Z):
                got = assert_attach_agrees(ring, group, {0: a, 1: b})
                if a & b == ring.zero_mask:
                    verdicts.append(isinstance(got, str))
                else:
                    collisions.add(got)
    assert False in verdicts
    assert True in verdicts or ring.order == 2
    assert collisions <= {"components do not form a direct sum (sum collision)"}

"""The generator-based subgroup kernel against the pairwise reference in
oracle.py: closure, the subgroup and ideal tests, ideal generation, the
lattice and the generator-only products, on the corpus and on
hypothesis-drawn rings; and the bounded caches."""

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradedprime import finring as fr

import oracle
from corpus import corpus_rings, ring_by_name


def ring_closure(ring, seeds):
    """The subring generated by seeds, by plain closure under the tables."""
    members = {ring.zero, *seeds}
    while True:
        grown = members | {
            op[x][y] for op in (ring.add_table, ring.mul_table) for x in members for y in members
        }
        if grown == members:
            return sorted(members)
        members = grown


def strict_tri3():
    """Strictly upper-triangular 3x3 matrices over GF(2), spanned by e12, e23
    and e13 (indices 16, 2 and 8 of tri(gf(2), 3)): nonunital and
    noncommutative, and e12 R = {0, e13} while R e12 R = 0, so the ideal
    generated by e12 needs its right products."""
    tri3 = fr.tri(fr.gf(2), 3)
    return fr.subring(tri3, ring_closure(tri3, [16, 2]))


SMALL = [(name, ring) for name, ring in corpus_rings() if ring.order <= 9]
SMALL.append(("strict_tri3", strict_tri3()))


def subgroup_masks(ring):
    return [m for m in range(1 << ring.order) if oracle.subgroup_closure(ring, m) == m]


def reference_product(ring, *masks):
    out = masks[0]
    for m in masks[1:]:
        out = oracle.set_product(ring, out, m)
    return oracle.subgroup_closure(ring, out)


def assert_kernel_agrees(ring, mask, actings=()):
    assert fr.subgroup_closure(ring, mask) == oracle.subgroup_closure(ring, mask)
    assert (fr._span(ring, mask)[0] == mask) == (oracle.subgroup_closure(ring, mask) == mask)
    assert fr.is_ideal_mask(ring, mask) == oracle.is_ideal_mask(ring, mask)
    for acting in actings:
        assert (fr._ideal_gens(ring, mask, fr._gens(ring, acting)) is not None) == oracle.is_ideal_mask(ring, mask, acting)
    gens = list(fr.bits(mask))
    assert fr.generate_ideal(ring, gens).members == oracle.generate_ideal(ring, gens)


@pytest.mark.parametrize("name,ring", SMALL)
def test_every_mask_of_small_corpus_rings(name, ring):
    rng = random.Random(name)
    actings = subgroup_masks(ring) + [rng.getrandbits(ring.order) for _ in range(4)]
    for mask in range(1 << ring.order):
        assert_kernel_agrees(ring, mask, actings)


def sampled_masks(ring, rng, count):
    """Random masks of every density, their spans and the ideals they
    generate, and those ideals with one element toggled."""
    out = []
    for _ in range(count):
        sparse = fr.mask_of(rng.sample(range(ring.order), rng.randint(1, 3)))
        ideal = oracle.generate_ideal(ring, fr.bits(sparse))
        toggled = ideal ^ 1 << rng.randrange(ring.order)
        dense = rng.getrandbits(ring.order)
        out += [sparse, oracle.subgroup_closure(ring, sparse), ideal, toggled, dense]
    return out


@pytest.mark.parametrize("name", ["mat2", "tri3"])
def test_sampled_masks_of_larger_corpus_rings(name):
    ring = ring_by_name(name)
    rng = random.Random(name)
    masks = sampled_masks(ring, rng, 60)
    actings = [rng.getrandbits(ring.order) for _ in range(3)] + masks[1:10:5]
    for mask in masks:
        assert_kernel_agrees(ring, mask, actings)


@pytest.mark.parametrize("name,ring", corpus_rings())
def test_lattices_of_the_corpus(name, ring):
    assert fr.all_ideals(ring) == oracle.all_ideals(ring)


@pytest.mark.parametrize("name,ring", corpus_rings())
def test_generator_products_match_pairwise_products(name, ring):
    rng = random.Random(name)
    masks = list(fr.all_ideals(ring))
    masks += [rng.getrandbits(ring.order) for _ in range(4)] + [0]
    for a in masks:
        for b in masks:
            assert fr.closed_product(ring, a, b) == reference_product(ring, a, b)
    for a, b, c in (rng.sample(masks, 3) for _ in range(20)):
        assert oracle.triple_product(ring, a, b, c) == reference_product(ring, a, b, c)


# ---------------------------------------------------------------------------
# hypothesis-drawn rings

FACTORS = {"gf2": (fr.gf, 2), "gf3": (fr.gf, 3), "gf4": (fr.gf, 4), "zmod4": (fr.zmod, 4)}
MAX_ORDER = 32
SUBRING_BASES = [fr.zmod(16), fr.tri(fr.gf(2), 2), fr.tri(fr.gf(2), 3), fr.mat(fr.gf(2), 2)]


@st.composite
def small_rings(draw):
    kind = draw(st.sampled_from(["zmod", "product", "tri", "mat", "subring"]))
    if kind == "zmod":
        return fr.zmod(draw(st.integers(1, MAX_ORDER)))
    if kind == "product":
        names = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=3))
        factors = [make(q) for make, q in (FACTORS[n] for n in names)]
        order = 1
        for f in factors:
            order *= f.order
        if order > MAX_ORDER:
            factors = factors[:1]
        return fr.product(*factors)
    if kind == "tri":
        q, n = draw(st.sampled_from([(2, 2), (3, 2), (2, 3)]))
        return fr.tri(fr.gf(q), n)
    if kind == "mat":
        return fr.mat(fr.gf(2), 2)
    base = draw(st.sampled_from(SUBRING_BASES))
    seeds = draw(st.lists(st.integers(0, base.order - 1), min_size=1, max_size=2))
    return fr.subring(base, ring_closure(base, seeds))


@settings(
    max_examples=40,
    deadline=10000,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ring=small_rings(), data=st.data())
def test_drawn_rings_agree_with_the_reference(ring, data):
    assert fr.all_ideals(ring) == oracle.all_ideals(ring)
    masks = data.draw(st.lists(st.integers(0, ring.full_mask), min_size=1, max_size=6))
    for mask in masks:
        assert_kernel_agrees(ring, mask, masks)
    for a in masks:
        for b in masks:
            assert fr.closed_product(ring, a, b) == reference_product(ring, a, b)


# ---------------------------------------------------------------------------
# caches


def test_lattice_cache_is_bounded():
    cap = fr.all_ideals.cache_info().maxsize
    assert cap is not None
    for n in range(1, cap + 6):
        fr.all_ideals(fr.zmod(n))
    assert fr.all_ideals.cache_info().currsize <= cap


def test_omitting_the_caps_and_passing_the_defaults_share_one_lattice():
    ring = fr.product(fr.gf(2), fr.gf(3), fr.gf(2))
    fr.all_ideals.cache_clear()
    with mock.patch.object(fr, "_join_closure", wraps=fr._join_closure) as calls:
        lattice = fr.all_ideals(ring)
        assert fr.all_ideals(ring, fr.DEFAULT_CAPS) == lattice
        assert fr.all_ideals(ring, caps=fr.Caps()) == lattice
    assert calls.call_count == 1
    info = fr.all_ideals.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def test_product_cache_is_bounded():
    cap = fr.ideal_product.cache_info().maxsize
    assert cap is not None
    ring = fr.product(*[fr.gf(2)] * 6)
    assert len(fr.all_ideals(ring)) ** 2 > cap
    assert fr.is_fully_idempotent(ring)
    assert fr.ideal_product.cache_info().currsize <= cap


def test_full_idempotency_leaves_the_product_cache_alone():
    ring = fr.product(*[fr.gf(2)] * 4)
    fr.all_ideals(ring)
    fr.ideal_product.cache_clear()
    assert fr.is_fully_idempotent(ring)
    info = fr.ideal_product.cache_info()
    assert info.currsize == 0
    assert info.hits + info.misses == 0

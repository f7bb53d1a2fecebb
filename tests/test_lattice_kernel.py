"""The graded and invariant lattices of the join-closure kernel against the
filters of whole lattices in oracle.py, the per-component count floor, and
the caches that hold each lattice once per ring and components."""

import itertools
from functools import reduce
from operator import or_
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradedprime import correspondence as co
from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import grfilter as gfl
from gradedprime import specio
from gradedprime.errors import CapError, SpecError
from gradedprime.finring import DEFAULT_CAPS
from gradedprime.groups import Z, cyclic, symmetric_group

import oracle
from corpus import all_candidate_filters, corpus_rings, graded_corpus, group_algebra_grading, ideals_of, member_masks

DATA = Path(__file__).parent / "data"
# Its whole ring has 29,212 ideals, too many for the oracle's filter; its
# graded lattice is checked against the exact floor instead.
BIG = "zero_mult_f2_7_z.graded"


def floor_of(graded):
    return fr._ideal_count_floor(graded.ring, [graded.component(x) for x in graded.support])


def assert_lattices_agree(graded):
    lattice = gr.all_graded_ideals(graded)
    assert lattice == member_masks(oracle.all_graded_ideals(graded))
    invariant = co.invariant_base_ideals(graded)
    assert invariant == oracle.invariant_base_ideals(graded)
    assert fr._ideal_count_floor(graded.ring, (graded.e_mask,)) <= len(invariant)
    floor = floor_of(graded)
    assert floor <= len(lattice)
    assert floor <= oracle._ideal_count_floor(graded.ring)
    if graded.support == (graded.e,) and graded.e_mask == graded.ring.full_mask:
        assert floor == oracle._ideal_count_floor(graded.ring)


@pytest.mark.parametrize("name,graded", graded_corpus())
def test_graded_corpus(name, graded):
    assert_lattices_agree(graded)


@pytest.mark.parametrize("path", sorted(p.name for p in DATA.glob("*.graded") if p.name != BIG))
def test_graded_data_files(path):
    assert_lattices_agree(specio.parse_graded_file((DATA / path).read_text()))


def test_zero_multiplication_f2_7_lattice_is_every_sum_of_components():
    graded = specio.parse_graded_file((DATA / BIG).read_text())
    lattice = gr.all_graded_ideals(graded)
    comps = [graded.component(x) for x in graded.support]
    sums = sorted(
        fr.subgroup_closure(graded.ring, reduce(or_, itertools.compress(comps, pick), 0))
        for pick in itertools.product((0, 1), repeat=len(comps))
    )
    assert list(lattice) == sums
    assert floor_of(graded) == len(lattice) == 2**7


# The three listings hand out the lattices' masks without validating them.
# That every mask is an ideal of its class, and that the floor stays below
# the count, is checked against validating oracles on the corpus rings
# (test_subgroup_kernel.py::test_lattices_of_the_corpus, whose oracle builds
# an Ideal per member, and test_finring.py::TestIdealLattice::
# test_count_floor_is_a_lower_bound), the graded corpus and the graded data
# files other than BIG (assert_lattices_agree, whose oracles filter those
# Ideals by is_graded_ideal and is_g_invariant); the two tests below take
# the data rings and BIG.


@pytest.mark.parametrize("path", sorted(p.name for p in DATA.glob("*.ring")))
def test_every_mask_listed_for_a_data_ring_is_an_ideal(path):
    ring = specio.parse_ring_spec((DATA / path).read_text())
    lattice = fr.all_ideals(ring)
    assert lattice == tuple(sorted(set(lattice)))
    assert all(fr.is_ideal_mask(ring, m) for m in lattice)
    assert fr._ideal_count_floor(ring, (ring.full_mask,)) <= len(lattice)


def test_every_mask_listed_for_big_is_of_its_class():
    graded = specio.parse_graded_file((DATA / BIG).read_text())
    lattice, invariant = gr.all_graded_ideals(graded), co.invariant_base_ideals(graded)
    assert all(gr.is_graded_ideal(graded, fr.Ideal(graded.ring, m)) for m in lattice)
    assert invariant == (graded.ring.zero_mask,) and co.is_g_invariant(graded, graded.ring.zero_mask)
    assert fr._ideal_count_floor(graded.ring, (graded.e_mask,)) <= len(invariant)


@pytest.mark.parametrize("group", [cyclic(2), Z], ids=["cyclic2", "Z"])
@pytest.mark.parametrize("name,ring", corpus_rings())
def test_trivial_gradings_of_the_corpus(name, ring, group):
    assert_lattices_agree(gr.trivial_grading(ring, group))


def assembled_filter_rings():
    r2 = fr.gf(2)
    p22 = fr.product(r2, r2)
    t2 = fr.tri(r2, 2)
    out = []
    for ring, group in ((p22, cyclic(2)), (p22, cyclic(3)), (r2, cyclic(2)), (t2, cyclic(2))):
        for filt in all_candidate_filters(ring, group):
            try:
                out.append(gfl.assemble_filter_ring(filt))
            except SpecError:  # not a filter
                pass
    return out


def test_assembled_filter_rings():
    rings = assembled_filter_rings()
    assert len(rings) > 10
    for graded in rings:
        assert_lattices_agree(graded)


# ---------------------------------------------------------------------------
# hypothesis-drawn gradings


def zero_mult_line(p):
    add = [[(a + b) % p for b in range(p)] for a in range(p)]
    return fr.make_ring(add, [[0] * p for _ in range(p)])


@st.composite
def zero_mult_gradings(draw):
    """F_p^k with all products zero, each basis vector in a drawn degree;
    returns the graded ring and whether the degrees are distinct."""
    p = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 4 if p == 2 else 3))
    if draw(st.booleans()):
        group = cyclic(draw(st.integers(1, 4)))
        degrees = draw(st.lists(st.integers(0, group.order - 1), min_size=k, max_size=k))
    else:
        group = Z
        degrees = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    ring = fr.product(*[zero_mult_line(p)] * k)
    comps = {}
    for t, d in enumerate(degrees):  # basis vector t is element p^(k-1-t)
        comps[d] = comps.get(d, 0) | 1 << p ** (k - 1 - t)
    comps = {d: fr.subgroup_closure(ring, m) for d, m in comps.items()}
    return gr.attach_grading(ring, group, comps), len(set(degrees)) == k


SETTINGS = settings(
    max_examples=60,
    deadline=10000,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(drawn=zero_mult_gradings())
def test_drawn_zero_multiplication_gradings(drawn):
    graded, distinct = drawn
    assert_lattices_agree(graded)
    # every graded subgroup is an ideal here, so the floor is exact
    assert floor_of(graded) == len(gr.all_graded_ideals(graded))
    if distinct:
        assert floor_of(graded) == 2 ** len(graded.support)


@SETTINGS
@given(
    base=st.sampled_from([fr.gf(2), fr.gf(3), fr.zmod(4)]),
    group=st.sampled_from([cyclic(1), cyclic(2), cyclic(3), symmetric_group(3)]),
)
def test_drawn_group_algebras(base, group):
    if base.order**group.order > 64:
        return
    assert_lattices_agree(group_algebra_grading(base, group))


# ---------------------------------------------------------------------------
# caches


def test_graded_and_invariant_caches_are_bounded():
    caches = (fr._lattice, co._maps)
    caps = [c.cache_info().maxsize for c in caches]
    assert None not in caps
    for n in range(2, max(caps) + 7):
        graded = gr.trivial_grading(fr.zmod(n), cyclic(2))  # a new key each time, a new ring too
        gr.all_graded_ideals(graded)
        co.invariant_base_ideals(graded)
        co.verify_bijection_identity_generated(graded)
    for cache, cap in zip(caches, caps):
        assert cache.cache_info().currsize <= cap


@pytest.mark.parametrize("graded", [gr.trivial_grading(fr.product(*[fr.gf(2)] * 4), cyclic(2)),
                                    group_algebra_grading(fr.gf(3), cyclic(2))], ids=["prod2x4", "grpalg3"])
def test_the_reports_decide_no_invariance(graded):
    # the reports read invariance from the lattice, and the G-prime verdicts
    # run the pair test on its masks without validating them again
    with mock.patch.object(co, "is_g_invariant", wraps=co.is_g_invariant) as calls:
        assert all(c.passed for c in co.verify_bijection_identity_generated(graded).checks)
        assert all(c.passed for c in co.verify_bijection_ideally_symmetric(graded).checks)
    assert calls.call_count == 0


def test_a_scan_of_pair_primeness_spans_no_ideal_again():
    # the pair test reads the cached lattice with its generators, so testing
    # every ideal spans nothing once the lattice is built
    ring = fr.product(*[fr.gf(2)] * 4)
    ideals = [p for p in ideals_of(ring, fr.all_ideals(ring)) if p.is_proper]
    oracle.is_prime_ideal_by_pairs(ring, ideals[0])
    with mock.patch.object(fr, "_span", wraps=fr._span) as spans:
        verdicts = [oracle.is_prime_ideal_by_pairs(ring, p) for p in ideals]
    assert spans.call_count == 0
    assert verdicts == [fr.is_prime_ideal(ring, p) for p in ideals]
    assert sum(verdicts) == 4


def test_a_call_without_caps_shares_the_entry_of_default_caps():
    graded = group_algebra_grading(fr.gf(3), cyclic(2))
    fr._lattice.cache_clear()
    with mock.patch.object(fr, "_join_closure", wraps=fr._join_closure) as calls:
        assert gr.all_graded_ideals(graded) == gr.all_graded_ideals(graded, DEFAULT_CAPS)
    assert calls.call_count == 1


def test_two_parses_of_one_graded_ring_share_one_lattice():
    text = (DATA / "tri3_std.graded").read_text()
    first, second = specio.parse_graded_file(text), specio.parse_graded_file(text)
    assert first is not second
    fr._lattice.cache_clear()
    with mock.patch.object(fr, "_join_closure", wraps=fr._join_closure) as calls:
        assert gr.all_graded_ideals(first) == gr.all_graded_ideals(second)
    assert calls.call_count == 1


def test_two_parses_of_one_graded_ring_share_one_invariant_lattice():
    text = (DATA / "tri3_std.graded").read_text()
    first, second = specio.parse_graded_file(text), specio.parse_graded_file(text)
    fr._lattice.cache_clear()
    with mock.patch.object(fr, "_join_closure", wraps=fr._join_closure) as calls:
        assert co.invariant_base_ideals(first) == co.invariant_base_ideals(second)
    assert calls.call_count == 1


def test_the_floor_refuses_an_invariant_lattice_before_enumerating_it():
    # BIG has S_e = 0, one invariant ideal, over a cap of 0.  Regraded by
    # cyclic(4) with four basis vectors in degree 0 and one in each other
    # degree, S_1 and S_3 conjugate S_e, all 67 subgroups of S_e = F_2^4 are
    # invariant ideals, and the floor counts every one of them.
    big = specio.parse_graded_file((DATA / BIG).read_text())
    ring = big.ring
    comps = {0: fr.subgroup_closure(ring, fr.mask_of([1, 2, 4, 8])), 1: 1 | 1 << 16, 2: 1 | 1 << 32, 3: 1 | 1 << 64}
    regraded = gr.attach_grading(ring, cyclic(4), comps)
    assert len(co.invariant_base_ideals(regraded)) == fr._ideal_count_floor(ring, (regraded.e_mask,)) == 67
    refuse = mock.Mock(side_effect=AssertionError("the lattice was enumerated"))
    with mock.patch.object(fr, "_join_closure", refuse):
        for graded, cap in ((big, 0), (regraded, 66)):
            with pytest.raises(CapError, match=f"^ideal lattice exceeds cap {cap}$"):
                co.invariant_base_ideals(graded, fr.Caps(max_ideals=cap))
    assert not refuse.called


def test_a_trivial_grading_enumerates_one_lattice():
    # every ideal is graded, and the identity component is the whole ring
    graded = gr.trivial_grading(fr.product(*[fr.gf(2)] * 5), cyclic(2))
    for cached in (fr._lattice, co._maps):
        cached.cache_clear()
    with mock.patch.object(fr, "_join_closure", wraps=fr._join_closure) as calls:
        assert all(c.passed for c in co.verify_bijection_identity_generated(graded).checks)
        assert all(c.passed for c in co.verify_bijection_ideally_symmetric(graded).checks)
    assert calls.call_count == 1

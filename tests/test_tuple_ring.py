"""The tuple-ring builder, which fills its tables from monomial products,
against the pairwise builder in oracle.py: product, mat, tri and grpalg
over the corpus rings and over factors whose zero is not element 0, the
filter subrings of tests/data and of every candidate filter (some not
closed under multiplication), coefficient sets not closed under addition,
and hypothesis-drawn cases; and how often the builder calls mul_vec.
Subrings, which the builder makes as tuple rings of one coordinate, against
the pairwise builder's tuple ring of one coordinate on every subset of the
small corpus rings."""

from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedprime import finring as fr
from gradedprime import grfilter as gfl
from gradedprime import specio
from gradedprime.errors import CapError, SpecError
from gradedprime.groups import cyclic, symmetric_group

import oracle
from corpus import all_candidate_filters, corpus_rings, finite_filter_corpus, relabelled, zero_mult_ring

DATA = Path(__file__).parent / "data"
BUILDER = fr._tuple_ring


def outcome(builder, build):
    """What build() gives with builder as the tuple-ring builder: the tables,
    names, zero, unit and index of the last tuple ring built, or the error."""
    built = []

    def recording(*args):
        built.append(builder(*args))
        return built[-1]

    with mock.patch.object(fr, "_tuple_ring", recording):
        try:
            build()
        except (SpecError, CapError) as exc:
            return type(exc).__name__, str(exc)
    ring, index = built[-1]
    return ring.add_table, ring.mul_table, ring.names, ring.zero, ring.unit, index


def assert_same(build):
    new = outcome(BUILDER, build)
    assert new == outcome(oracle._tuple_ring, build)
    return new


# Factor rings whose zero is not element 0: the builder must split tuples at
# each factor's zero, wherever it sits.
MOVED = (
    ("zmod4_moved", relabelled(fr.zmod(4), [2, 0, 3, 1])),
    ("gf4_moved", relabelled(fr.gf(4), [3, 1, 0, 2])),
    ("tri2_moved", relabelled(fr.tri(fr.gf(2), 2), [7, 6, 5, 4, 3, 2, 1, 0])),
    ("zero_mult_moved", relabelled(zero_mult_ring(), [1, 0])),
)
FACTORS = (*corpus_rings(), *MOVED)


def test_moved_factors_have_their_zero_away_from_index_0():
    assert all(ring.zero != 0 for _, ring in MOVED)


def constructor_cases(limit=64):
    """(id, build) for product, mat, tri and grpalg over the factor rings,
    up to the given order."""
    cases = []
    for (a, r), (b, s) in ((x, y) for x in FACTORS for y in FACTORS):
        if r.order * s.order <= limit:
            cases.append((f"product_{a}_{b}", lambda r=r, s=s: fr.product(r, s)))
    for name, r in FACTORS:
        for n, build in ((2, fr.mat), (2, fr.tri), (3, fr.tri)):
            size = n * n if build is fr.mat else n * (n + 1) // 2
            if r.order**size <= limit:
                cases.append((f"{build.__name__}{n}_{name}", lambda r=r, n=n, b=build: b(r, n)))
        for group in (cyclic(2), cyclic(3), symmetric_group(3)):
            if r.order**group.order <= limit:
                cases.append(
                    (f"grpalg_{name}_{group.order}", lambda r=r, g=group: fr.grpalg(r, g))
                )
    return cases


CASES = constructor_cases()


@pytest.mark.parametrize("build", [b for _, b in CASES], ids=[i for i, _ in CASES])
def test_constructors_agree_with_the_pairwise_builder(build):
    assert_same(build)


@pytest.mark.parametrize(
    "build",
    [
        lambda: fr.product(fr.gf(2), MOVED[0][1], fr.gf(3)),
        lambda: fr.mat(fr.gf(4), 2),
        lambda: fr.grpalg(MOVED[0][1], cyclic(4)),
        lambda: fr.mat(fr.gf(3), 2, caps=fr.Caps(max_ring_order=80)),
    ],
    ids=["product_three_factors", "mat_gf4_2", "grpalg_zmod4_moved_cyclic4", "over_the_cap"],
)
def test_larger_rings_and_the_cap_agree(build):
    assert_same(build)


def finite_filters():
    filters = [f for _, f in finite_filter_corpus()]
    for path in sorted(DATA.glob("*.filter")):
        f = specio.parse_filter_file(path.read_text())
        if f.group.is_finite:
            filters.append(f)
    return filters


def test_filter_subrings_agree():
    filters = finite_filters()
    assert len(filters) == 7
    for f in filters:
        built = assert_same(lambda: gfl.assemble_filter_ring(f))
        assert len(built) == 6


@pytest.mark.parametrize(
    "ring,group,failures",
    [
        (fr.tri(fr.gf(2), 2), cyclic(2), 0),
        (MOVED[2][1], cyclic(2), 0),
        (fr.product(fr.gf(2), fr.gf(2)), cyclic(3), 12),
        (MOVED[0][1], cyclic(3), 4),
        (MOVED[1][1], cyclic(3), 2),
        (fr.gf(2), cyclic(4), 5),
    ],
    ids=["tri2_c2", "tri2_moved_c2", "prod22_c3", "zmod4_moved_c3", "gf4_moved_c3", "gf2_c4"],
)
def test_every_candidate_filter_agrees(ring, group, failures):
    """With a cyclic group of order 2 every candidate is a filter; with
    larger groups some candidates are not closed under multiplication."""
    outcomes = [assert_same(lambda: gfl.assemble_filter_ring(f)) for f in all_candidate_filters(ring, group)]
    unclosed = ("SpecError", "coefficient sets are not closed under multiplication")
    assert outcomes.count(unclosed) == failures
    assert all(len(o) == 6 for o in outcomes if o != unclosed)


@pytest.mark.parametrize(
    "base,members,error",
    [
        (fr.zmod(4), [[0, 1], [0, 1, 2, 3]], "coefficient sets are not closed under addition"),
        (fr.zmod(4), [[0, 2], [0, 1, 2, 3]], "coefficient sets are not closed under multiplication"),
        (MOVED[0][1], [[1, 2], [3, 0, 2, 1]], "coefficient sets are not closed under addition"),
        (MOVED[0][1], [[3, 2], [1, 3, 2, 0]], "coefficient sets are not closed under multiplication"),
        (MOVED[0][1], [[1, 3, 2, 0], [3, 2]], None),
        (fr.zmod(4), [[0, 1, 2, 3], []], "ring must contain at least a zero element"),
    ],
)
def test_coefficient_sets_in_any_order(base, members, error):
    built = assert_same(lambda: fr._group_ring(base, cyclic(2), members, fr.DEFAULT_CAPS))
    if error is None:
        assert len(built) == 6
    else:
        assert built == ("SpecError", error)


def test_an_empty_filter_value_is_a_spec_error():
    ring = fr.zmod(4)
    f = gfl.GFilter(ring, cyclic(2), {0: ring.full_mask, 1: 0})
    assert assert_same(lambda: gfl.assemble_filter_ring(f)) == (
        "SpecError",
        "ring must contain at least a zero element",
    )


def componentwise(factors):
    """mul_vec and name_vec of the direct product of the factors."""

    def mul_vec(x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(factors, x, y))

    def name_vec(v):
        return ",".join(f.name(c) for f, c in zip(factors, v))

    return mul_vec, name_vec


POOL = [ring for _, ring in FACTORS if ring.order <= 9]
SUBGROUPS = {
    ring: [sorted(fr.bits(m)) for m in range(1, 1 << ring.order) if oracle.subgroup_closure(ring, m) == m]
    for ring in POOL
}


@st.composite
def coefficient_sets(draw, ring):
    """An additive subgroup of ring, or any nonempty subset, in any order."""
    if draw(st.booleans()):
        chosen = draw(st.sampled_from(SUBGROUPS[ring]))
    else:
        chosen = draw(st.lists(st.sampled_from(range(ring.order)), min_size=1, unique=True))
    return draw(st.permutations(chosen))


@st.composite
def tuple_ring_cases(draw):
    """A build of a product-style or group-ring tuple ring of order
    at most 64; a coordinate that would pass 64 gets the zero subgroup."""
    if draw(st.booleans()):
        factors = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4))
        group = None
    else:
        group = draw(st.sampled_from([cyclic(1), cyclic(2), cyclic(3), symmetric_group(3)]))
        factors = [draw(st.sampled_from(POOL))] * group.order
    members, order = [], 1
    for ring in factors:
        chosen = draw(coefficient_sets(ring))
        if order * len(chosen) > 64:
            chosen = [ring.zero]
        members.append(chosen)
        order *= len(chosen)
    if group is None:
        mul_vec, name_vec = componentwise(factors)
        return lambda: fr._tuple_ring(factors, members, mul_vec, name_vec, fr.DEFAULT_CAPS)
    return lambda: fr._group_ring(factors[0], group, members, fr.DEFAULT_CAPS)


DRAWS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@DRAWS
@given(tuple_ring_cases())
def test_drawn_tuple_rings_agree(build):
    assert_same(build)


@pytest.mark.parametrize(
    "build",
    [
        lambda: fr.mat(fr.gf(4), 2),
        lambda: fr.tri(fr.gf(2), 3),
        lambda: fr.product(*[fr.gf(2)] * 8),
        lambda: fr.grpalg(MOVED[0][1], cyclic(4)),
        lambda: gfl.assemble_filter_ring(finite_filter_corpus()[2][1]),
    ],
    ids=["mat_gf4_2", "tri_gf2_3", "product_gf2_x8", "grpalg_zmod4_moved_cyclic4", "filter_prod_c3"],
)
def test_mul_vec_is_called_on_monomial_pairs_only(build):
    counts = []

    def counting(factors, members, mul_vec, name_vec, caps):
        calls = []

        def counted(x, y):
            calls.append(None)
            return mul_vec(x, y)

        built = BUILDER(factors, members, counted, name_vec, caps)
        counts.append((len(calls), sum(map(len, members)) ** 2))
        return built

    with mock.patch.object(fr, "_tuple_ring", counting):
        build()
    assert counts and all(calls <= bound for calls, bound in counts)


def tuple_subring(ring, elems):
    """The subring on elems through the oracle's pairwise tuple-ring
    builder: one coordinate, whose coefficient set is the selection."""
    mul_vec, name_vec = componentwise([ring])
    sub, _ = oracle._tuple_ring([ring], [elems], mul_vec, name_vec, fr.DEFAULT_CAPS)
    return sub, tuple(elems)


def subring_outcome(build, ring, elems):
    """What the subring builder build makes of elems: the tables, names and
    old indices, or SpecError with either builder's text."""
    try:
        sub, old = build(ring, elems)
    except SpecError:
        return "SpecError"
    return sub.add_table, sub.mul_table, sub.names, old


@pytest.mark.parametrize(
    "ring", [r for _, r in corpus_rings() if r.order <= 8], ids=[n for n, r in corpus_rings() if r.order <= 8]
)
def test_subrings_agree_with_the_pairwise_builder(ring):
    """Every subset of the ring, whether or not it is a subring."""
    outcomes = [
        subring_outcome(lambda r, e: (fr.subring(r, e), tuple(e)), ring, list(fr.bits(m))) for m in range(1 << ring.order)
    ]
    assert outcomes == [subring_outcome(tuple_subring, ring, list(fr.bits(m))) for m in range(1 << ring.order)]
    assert outcomes[0] == "SpecError" and outcomes[ring.zero_mask] != "SpecError"


@pytest.mark.parametrize(
    "spec,error",
    [
        ("subring(zmod(8), [0, 3])", "coefficient sets are not closed under addition"),
        ("subring(zmod(8), [0, 2, 4])", "coefficient sets are not closed under addition"),
        ("subring(mat(gf(2), 2), [0, 2, 4, 6])", "coefficient sets are not closed under multiplication"),
    ],
)
def test_an_unclosed_selection_gets_the_builders_text(spec, error):
    with pytest.raises(SpecError, match=f"^{error}$"):
        specio.parse_ring_spec(spec)

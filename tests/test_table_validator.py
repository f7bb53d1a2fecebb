"""The generator-based table validator against the exhaustive validators in
oracle.py: every single-entry mutation of small corpus ring and group
tables, seeded samples of those of order 256 and above, and
hypothesis-drawn tables, must be accepted or rejected alike, and an
accepted table must give the same ring or group.

The validator reads tables of order up to 256 as rows of bytes and larger
ones as rows of tuples.  Every comparison runs it both ways, the tuple rows
forced by lowering that bound, and the two must build the same value or
raise the same error text."""

import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedprime import finring as fr
from gradedprime import groups
from gradedprime.errors import SpecError
from gradedprime.groups import check_group_table, cyclic, group_from_table, read_table, symmetric_group

import oracle
from corpus import corpus_rings


def outcome(build, *tables, **kwargs):
    """What a validator makes of the tables: the value built, or None."""
    try:
        return build(*tables, **kwargs)
    except SpecError:
        return None


def on_both_row_paths(build, *tables, **kwargs):
    """What the library's validator makes of the tables, the same on rows of
    bytes and on rows of tuples: the value built, or None."""
    results = []
    for byte_rows in (256, 0):
        with mock.patch.object(groups, "_BYTE_ROWS", byte_rows):
            try:
                results.append(build(*tables, **kwargs))
            except SpecError as e:
                results.append(str(e))
    assert results[0] == results[1]  # the same value, or the same error text
    return None if isinstance(results[0], str) else results[0]


def assert_same_ring(add, mul, caps=fr.DEFAULT_CAPS):
    new = on_both_row_paths(fr.make_ring, add, mul, caps=caps)
    assert new == outcome(oracle.make_ring, add, mul, caps=caps)  # on accept: same zero, negation table and unit
    return new is not None


def assert_same_group(op):
    new, old = on_both_row_paths(group_from_table, op), outcome(oracle.group_from_table, op)
    assert new == old  # on accept: same identity and inverses
    return new is not None


def mutations(table):
    """Every table that differs from table in exactly one entry."""
    n = len(table)
    for i, j in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v != table[i][j]:
                rows = [list(row) for row in table]
                rows[i][j] = v
                yield rows


SMALL = [(name, ring) for name, ring in corpus_rings() if ring.order <= 8]


@pytest.mark.parametrize("name,ring", SMALL)
def test_every_single_entry_mutation_of_small_corpus_rings(name, ring):
    assert assert_same_ring(ring.add_table, ring.mul_table)
    for add in mutations(ring.add_table):
        assert_same_ring(add, ring.mul_table)
    for mul in mutations(ring.mul_table):
        assert_same_ring(ring.add_table, mul)


@pytest.mark.parametrize("group", [cyclic(4), symmetric_group(3)], ids=["cyclic4", "sym3"])
def test_every_single_entry_mutation_of_small_groups(group):
    assert assert_same_group(group.op_table)
    for op in mutations(group.op_table):
        assert_same_group(op)


def additive_multiples(ring, h):
    """The cyclic additive subgroup generated by h."""
    out, x = [ring.zero], h
    while x != ring.zero:
        out.append(x)
        x = ring.add(x, h)
    return out


@pytest.mark.parametrize(
    "ring", [fr.gf(9), fr.product(fr.zmod(4), fr.gf(2))], ids=["gf9", "zmod4_x_gf2"]
)
def test_products_shifted_on_one_block_of_cosets(ring):
    """Add d to every product xy with x in a coset C1 and y in a coset C2
    of a cyclic additive subgroup H.  Rows and columns stay additive along
    H but in general along nothing else, so only a distributivity check
    along every additive generator rejects such a table."""
    subgroups = {frozenset(additive_multiples(ring, h)) for h in ring.elements()}
    for subgroup in subgroups:
        cosets = {frozenset(ring.add(y, k) for k in subgroup) for y in ring.elements()}
        for c1, c2 in itertools.product(cosets, repeat=2):
            for d in ring.elements():
                if d == ring.zero:
                    continue
                mul = [list(row) for row in ring.mul_table]
                for x, y in itertools.product(c1, c2):
                    mul[x][y] = ring.add(mul[x][y], d)
                assert_same_ring(ring.add_table, mul)


def relabel(table, perm):
    """The table with element x renamed perm[x]."""
    out = [[0] * len(table) for _ in table]
    for x, row in enumerate(table):
        for y, z in enumerate(row):
            out[perm[x]][perm[y]] = perm[z]
    return out


def bilinear_table(k, constants):
    """The product on F_2^k (elements as bit vectors) with e_i e_j equal to
    constants[i][j]: distributive by construction, associative or not."""
    n = 1 << k
    table = [[0] * n for _ in range(n)]
    for x, y in itertools.product(range(n), repeat=2):
        for i, j in itertools.product(range(k), repeat=2):
            if x >> i & 1 and y >> j & 1:
                table[x][y] ^= constants[i][j]
    return table


def apply_mutations(tables, changes):
    for t, i, j, v in changes:
        size = len(tables[t])
        tables[t][i % size][j % size] = v % size
    return tables


def table_of(draw, n):
    return [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]


CHANGES = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)), max_size=2)


@st.composite
def ring_tables(draw):
    """Relabelled Z/n with product c*x*y, F_2^k with random structure
    constants, sym(3) as addition with the zero product, or random tables;
    then up to two entries changed."""
    kind = draw(st.sampled_from(["zmod", "bilinear", "sym3", "random"]))
    if kind == "zmod":
        n = draw(st.integers(1, 6))
        c = draw(st.integers(0, n - 1))
        add = [[(x + y) % n for y in range(n)] for x in range(n)]
        mul = [[c * x * y % n for y in range(n)] for x in range(n)]
    elif kind == "bilinear":
        k = draw(st.integers(1, 3))
        n = 1 << k
        add = [[x ^ y for y in range(n)] for x in range(n)]
        mul = bilinear_table(k, [[draw(st.integers(0, n - 1)) for _ in range(k)] for _ in range(k)])
    elif kind == "sym3":  # every axiom but commutativity of addition
        n = 6
        add, mul = symmetric_group(3).op_table, [[0] * n for _ in range(n)]
    else:
        n = draw(st.integers(1, 3))
        add, mul = table_of(draw, n), table_of(draw, n)
    perm = draw(st.permutations(range(n)))
    return apply_mutations([relabel(add, perm), relabel(mul, perm)], draw(CHANGES))


@st.composite
def group_tables(draw):
    """A relabelled cyclic group, Klein four-group or sym(3), a random
    table, or cyclic(2) x T for a random table T with identity 0; then up to
    two entries changed.

    The last is not relabelled, so its first generator is central and a
    nonassociative T is seen only by Light's test on later generators.
    """
    kind = draw(st.sampled_from(["cyclic", "klein", "sym3", "random", "product"]))
    if kind == "product":
        m = draw(st.integers(2, 3))
        t = [list(range(m))] + [[x] + draw(st.lists(st.integers(0, m - 1), min_size=m - 1, max_size=m - 1))
                                for x in range(1, m)]
        op = [[t[x // 2][y // 2] * 2 + (x + y) % 2 for y in range(2 * m)] for x in range(2 * m)]
        return apply_mutations([op], [(0, i, j, v) for _, i, j, v in draw(CHANGES)])[0]
    if kind == "cyclic":
        op = [list(row) for row in cyclic(draw(st.integers(1, 8))).op_table]
    elif kind == "klein":
        op = [[x ^ y for y in range(4)] for x in range(4)]
    elif kind == "sym3":
        op = [list(row) for row in symmetric_group(3).op_table]
    else:
        op = table_of(draw, draw(st.integers(1, 4)))
    op = relabel(op, draw(st.permutations(range(len(op)))))
    return apply_mutations([op], [(0, i, j, v) for _, i, j, v in draw(CHANGES)])[0]


DRAWS = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@DRAWS
@given(tables=ring_tables())
def test_drawn_ring_tables_agree_with_the_reference(tables):
    assert_same_ring(*tables)


@DRAWS
@given(op=group_tables())
def test_drawn_group_tables_agree_with_the_reference(op):
    assert_same_group(op)


@pytest.mark.parametrize(
    "table",
    [
        fr.product(*[fr.gf(2)] * 8).add_table,
        fr.zmod(256).add_table,
        symmetric_group(5).op_table,
        cyclic(200).op_table,
    ],
    ids=["gf2_x8_additive", "zmod256_additive", "sym5", "cyclic200"],
)
def test_at_most_log2_order_generators(table):
    _, _, gens = check_group_table(read_table(table), ("", "", ""))
    assert 1 <= len(gens) <= math.log2(len(table))


def sampled_mutations(table, count, seed, diagonal=False):
    """count seeded single-entry mutations of table, on its diagonal if asked."""
    rng = random.Random(seed)
    n = len(table)
    for _ in range(count):
        i = rng.randrange(n)
        j = i if diagonal else rng.randrange(n)
        rows = [list(row) for row in table]
        rows[i][j] = (rows[i][j] + rng.randrange(1, n)) % n
        yield rows


@pytest.mark.parametrize("build", [lambda: fr.gf(256), lambda: fr.zmod(256)], ids=["gf256", "zmod256"])
def test_sampled_mutations_of_order_256_rings(build):
    """A sum changed off the diagonal fails commutativity alone, so the add
    table is changed on the diagonal, where the inverses or Light's test
    see it."""
    ring = build()
    for add in sampled_mutations(ring.add_table, 2, 256, diagonal=True):
        assert not assert_same_ring(add, ring.mul_table)
    for mul in sampled_mutations(ring.mul_table, 2, 257):
        assert not assert_same_ring(ring.add_table, mul)


def test_additive_rows_over_columns_that_are_not_at_order_256():
    """xy = y for x = 1 and 0 otherwise: every row is additive, no column
    but the zero column is, so right distributivity is the check that fails."""
    ring = fr.gf(256)
    mul = [list(range(256)) if x == 1 else [0] * 256 for x in range(256)]
    assert not assert_same_ring(ring.add_table, mul)
    with pytest.raises(SpecError, match="right distributivity fails"):
        fr.make_ring(ring.add_table, mul)


def test_sampled_mutations_above_order_256_on_tuple_rows():
    caps = fr.Caps(max_ring_order=300)
    ring = fr.zmod(257, caps=caps)
    assert ring == oracle.zmod(257, caps=caps)
    for add in sampled_mutations(ring.add_table, 1, 300, diagonal=True):
        assert not assert_same_ring(add, ring.mul_table, caps)
    for mul in sampled_mutations(ring.mul_table, 2, 301):
        assert not assert_same_ring(ring.add_table, mul, caps)
    group = cyclic(300)
    for op in sampled_mutations(group.op_table, 6, 302):
        assert not assert_same_group(op)


@pytest.mark.parametrize("byte_rows", [256, 0], ids=["bytes", "tuples"])
@pytest.mark.parametrize(
    "entry,error",
    [
        (1.0, "table entries must be element indices"),
        ("1", "table entries must be element indices"),
        (2, None),
        (-1, None),
    ],
    ids=["float", "numeric_string", "too_large", "negative"],
)
def test_an_entry_must_be_an_element_index(byte_rows, entry, error):
    """A float or a numeric string is refused, not converted; an integer
    out of range is refused with the text of a table that is not square
    over 0..n-1."""
    add, mul = [[0, 1], [1, entry]], [[0, 0], [0, 1]]
    with mock.patch.object(groups, "_BYTE_ROWS", byte_rows):
        with pytest.raises(SpecError) as ring_error:
            fr.make_ring(add, mul)
        with pytest.raises(SpecError) as mul_error:
            fr.make_ring(mul, add)
        with pytest.raises(SpecError) as group_error:
            group_from_table(add)
    assert str(ring_error.value) == str(mul_error.value) == "table entries must be element indices"
    assert str(group_error.value) == (error or "group table is not square over 0..order-1")


def test_a_table_of_non_integers_that_int_would_read_is_refused():
    with pytest.raises(SpecError, match="table entries must be element indices"):
        fr.make_ring([[0, 1.7], [1.2, 0]], [[0, 0], [0, "1"]])
    with pytest.raises(SpecError, match="table entries must be element indices"):
        group_from_table([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("row", [5, None, 1.5], ids=["int", "none", "float"])
def test_a_row_without_a_length_is_not_square(row):
    """A row that has no length, in either table, gets the text of a table
    that is not square, not a TypeError."""
    with pytest.raises(SpecError, match="^tables must be square and of equal size$"):
        fr.make_ring([[0, 1], row], [[0, 0], [0, 0]])
    with pytest.raises(SpecError, match="^tables must be square and of equal size$"):
        fr.make_ring([[0, 1], [1, 0]], [[0, 0], row])
    with pytest.raises(SpecError, match="^group table is not square over 0..order-1$"):
        group_from_table([[0, 1], row])
    assert read_table([[0, 1], row]) is None


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_group_table_matches_the_coordinatewise_builder(n):
    """Rows built with one itemgetter per permutation, n = 1 included, where
    itemgetter(0) returns a scalar rather than a tuple."""
    assert symmetric_group(n) == oracle.symmetric_group(n)


def test_symmetric_group_of_degree_zero_is_refused():
    for build in (symmetric_group, oracle.symmetric_group):
        with pytest.raises(SpecError, match="symmetric group degree must be positive"):
            build(0)

"""The generator-based table validator against the exhaustive validators in
oracle.py: every single-entry mutation of small corpus ring and group
tables, and hypothesis-drawn tables, must be accepted or rejected alike,
and an accepted table must give the same ring or group."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedprime import finring as fr
from gradedprime.errors import SpecError
from gradedprime.groups import check_group_table, cyclic, group_from_table, square_table, symmetric_group

import oracle
from corpus import corpus_rings


def outcome(build, *tables):
    """What a validator makes of the tables: the value built, or None."""
    try:
        return build(*tables)
    except SpecError:
        return None


def assert_same_ring(add, mul):
    new, old = outcome(fr.make_ring, add, mul), outcome(oracle.make_ring, add, mul)
    assert new == old  # on accept: same zero, negation table and unit
    return new is not None


def assert_same_group(op):
    new, old = outcome(group_from_table, op), outcome(oracle.group_from_table, op)
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
    _, _, gens = check_group_table(square_table(table), ("", "", ""))
    assert 1 <= len(gens) <= math.log2(len(table))

"""The builders that compose their rows in C (groups.left_rows, the
rotations of zmod and cyclic, the tuple ring's translations) against
entry-by-entry tables, on both row forms: bytes up to order 256 and tuples
above, where the cap is raised (zmod up to 300 is in test_finring.py and
symmetric_group in test_table_validator.py); and
the one stored form of a table, so a ring or group given as tuple rows
equals and hashes as the same one given as rows of bytes."""

import itertools

import pytest

from gradedprime import finring as fr
from gradedprime.groups import FiniteGroup, cyclic, group_from_table, left_rows, symmetric_group

import oracle
from test_tuple_ring import assert_same

WIDE = fr.Caps(max_ring_order=512)


def test_cyclic_groups_up_to_300_are_addition_modulo_n():
    for n in range(1, 301):
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        group = cyclic(n)
        assert group == group_from_table(table, group.names), n
        assert [list(row) for row in group.op_table] == table


@pytest.mark.parametrize(
    "build",
    [lambda: fr.product(*[fr.gf(2)] * 8), lambda: fr.gf(256), lambda: fr.mat(fr.gf(4), 2)],
    ids=["product_gf2_x8", "gf256", "mat_gf4_2"],
)
def test_order_256_tuple_rings_equal_the_pairwise_builder(build):
    add, mul, *_ = assert_same(build)
    assert {type(row) for row in (*add, *mul)} == {bytes}


def test_a_tuple_ring_of_order_512_has_tuple_rows_entry_by_entry():
    """F_2^9 at a raised cap: element x has the bits of x as coordinates,
    the last the lowest, so the sum is x ^ y and the product x & y.  The
    pairwise builder's numpy validator would need n^3 cells here."""
    ring = fr.product(*[fr.gf(2)] * 9, caps=WIDE)
    assert {type(row) for row in (*ring.add_table, *ring.mul_table)} == {tuple}
    assert ring.add_table == tuple(tuple(x ^ y for y in range(512)) for x in range(512))
    assert ring.mul_table == tuple(tuple(x & y for y in range(512)) for x in range(512))
    assert ring.names[5] == "(0,0,0,0,0,0,1,0,1)" and ring.unit == 511


def test_a_zero_multiplication_builds_every_row_but_zeros_directly():
    """The first row built reaches zero's; after that no row built reaches a
    row not yet known, so no other generator is used."""
    built = []
    rows = left_rows(8, lambda x: built.append(x) or bytes(8))
    assert rows == [bytes(8)] * 8 and built == list(range(7, 0, -1))


def test_left_rows_compose_the_rows_of_generators():
    """Z/12 under multiplication: 11 = -1 first, then 10 and 9, whose
    products reach no unit but 1 and 11, then the unit 7; every other row
    is a product of theirs."""
    built = []

    def row_of(g):
        built.append(g)
        return bytes(g * y % 12 for y in range(12))

    assert left_rows(12, row_of) == [bytes(x * y % 12 for y in range(12)) for x in range(12)]
    assert built == [11, 10, 9, 7]


@pytest.mark.parametrize("ring", [fr.tri(fr.gf(2), 2), fr.gf(256)], ids=["tri2", "gf256"])
def test_tuple_rows_and_byte_rows_give_one_ring(ring):
    as_tuples = oracle.tuple_rows(ring.add_table), oracle.tuple_rows(ring.mul_table)
    from_tuples = fr.make_ring(*as_tuples, names=ring.names)
    direct = fr.FiniteRing(ring.order, *as_tuples, ring.zero, ring.neg_table, ring.unit, ring.names)
    for other in (from_tuples, direct):
        assert other == ring and hash(other) == hash(ring)
        assert other.add_table == ring.add_table and type(other.add_table[0]) is bytes


def test_tuple_rows_and_byte_rows_give_one_group():
    group = symmetric_group(4)
    table = oracle.tuple_rows(group.op_table)
    direct = FiniteGroup(group.order, table, group.identity, group.inv_table, group.names)
    for other in (group_from_table(table, group.names), direct):
        assert other == group and hash(other) == hash(group)
    assert [list(row) for row in group.op_table] == [
        [group.op(x, y) for y in group.elements()] for x in group.elements()
    ]


def test_rows_past_order_256_are_tuples():
    ring = fr.zmod(257, fr.Caps(max_ring_order=257))
    assert all(type(row) is tuple for row in itertools.chain(ring.add_table, ring.mul_table))
    assert ring == fr.make_ring(ring.add_table, ring.mul_table, caps=fr.Caps(max_ring_order=257))

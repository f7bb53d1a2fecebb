"""The immutable values that replaced frozen dataclasses: no attribute can
be set or deleted, equal fields give equal values and hashes, and the reprs
are those of the dataclasses.  A graded ring is immutable too, but compares
by identity."""

import pytest

from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import grfilter as gfl
from gradedprime import leavitt as lv
from gradedprime.groups import Z, cyclic

GF2 = fr.gf(2)
TRI2 = fr.tri(GF2, 2)


def values():
    """(value, an equal value built apart, a different value) per class."""
    return [
        (fr.tri(GF2, 2), TRI2, fr.mat(GF2, 2)),
        (fr.Ideal(TRI2, 1), fr.generate_ideal(TRI2, []), fr.generate_ideal(TRI2, [2])),
        (cyclic(3), cyclic(3), cyclic(4)),
        (lv.graph(["v"], [("e", "v", "v")]), lv.graph(["v"], [("e", "v", "v")]), lv.graph(["v"], [])),
        (gfl.ZRule(2, 5), gfl.ZRule(2, 5), gfl.ZRule(3, 5)),
        (
            gfl.GFilter(TRI2, Z, {}, gfl.ZRule(2)),
            gfl.GFilter(TRI2, Z, {}, gfl.ZRule(2, TRI2.zero_mask)),
            gfl.GFilter(TRI2, Z, {}, gfl.ZRule(0)),
        ),
    ]


def assert_frozen(value):
    for name in ("order", "members", "edges", "kind", "ring", "components", "anything_new"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        if hasattr(value, name):
            with pytest.raises(AttributeError):
                delattr(value, name)


@pytest.mark.parametrize("value,same,other", values(), ids=lambda v: type(v).__name__)
def test_values_are_frozen_and_compare_by_fields(value, same, other):
    assert value is not same and value == same and hash(value) == hash(same)
    assert value != other and value != object()
    assert_frozen(value)


def test_graded_rings_are_frozen_and_compare_by_identity():
    """The classification and correspondence caches key on a graded ring,
    whose components dict cannot be hashed."""
    value = gr.attach_grading(TRI2, cyclic(2), {0: 0b110011, 1: 0b101})
    same = gr.attach_grading(TRI2, cyclic(2), {0: 0b110011, 1: 0b101})
    assert value == value and value != same and hash(value) == object.__hash__(value)
    assert_frozen(value)


def test_reprs_are_those_of_the_dataclasses():
    shown = [
        gfl.ZRule(2, 5),
        gfl.GFilter(TRI2, Z, {}, gfl.ZRule(2)),
        gfl.GFilter(GF2, cyclic(2), {0: 3, 1: 1}),
        lv.graph(["v", "w"], [("e", "v", "w")]),
        fr.Caps(),
        lv.satisfies_mt3(lv.graph(["v"], [])),
        gfl.Witness(0, 1),
    ]
    assert [repr(v) for v in shown] == [
        "ZRule(n=2, off=5)",
        "GFilter(ring=FiniteRing(order=8, unital), group=Z, table=(), zrule=ZRule(n=2, off=1))",
        "GFilter(ring=FiniteRing(order=2, unital), group=FiniteGroup(order=2), "
        "table=((0, 3), (1, 1)), zrule=None)",
        "DirectedGraph(vertices=('v', 'w'), edges=(Edge(name='e', src='v', dst='w'),))",
        "Caps(max_ring_order=256, max_ideals=65536, max_group_order=256)",
        "MT3Result(holds=True, sinks={('v', 'v'): 'v'}, violation=None)",
        "Witness(degree=0, coeff=1)",
    ]

"""The reachability sweep and the corner-orthogonality check against the
versions they replaced, kept in ``oracle``: the same reachability pairs, the
same MT-3 sinks or violation, and the same orthogonality verdict or error
on every vertex pair and every depth.  Under its requirement the check lists
no path and makes no engine product."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gradedprime import finring as fr
from gradedprime import leavitt as lv
from gradedprime import specio
from gradedprime.errors import SpecError

from corpus import named_graphs

DATA = Path(__file__).parent / "data"
GF2 = fr.gf(2)
DEPTHS = range(6)


def rose_pair(petals: int) -> lv.DirectedGraph:
    """Two disjoint roses, at v and w, as in the benchmark's roses.graph."""
    return lv.graph(
        ["v", "w"],
        [(f"{x}{k}", y, y) for x, y in (("a", "v"), ("b", "w")) for k in range(1, petals + 1)],
    )


def outcome(scan, *args):
    try:
        return scan(*args)
    except (ValueError, SpecError) as exc:
        return type(exc), str(exc)


def assert_agree(g, coeff=GF2, depths=DEPTHS):
    for v in g.vertices:
        for w in g.vertices:
            for depth in depths:
                new = outcome(lv.verify_corner_orthogonality, g, coeff, v, w)
                assert new == outcome(oracle.verify_corner_orthogonality, g, coeff, v, w, depth), (
                    v, w, depth)


GRAPHS = (
    [(f"data_{p.stem}", specio.parse_graph_file(p.read_text())) for p in sorted(DATA.glob("*.graph"))]
    + list(named_graphs())
    + [("roses2", rose_pair(2)), ("roses3", rose_pair(3))]
)


def assert_reach_agrees(g):
    assert lv.reachability(g) == oracle.reachability(g)
    assert lv.satisfies_mt3(g) == oracle.satisfies_mt3(g)
    for v in g.vertices:
        for depth in DEPTHS:
            ranges = {p.dst for p in lv.paths_up_to(g, depth, source=v)}
            assert lv._reach(g, 1 << g.vertex_index[v], depth) == fr.mask_of(
                g.vertex_index[u] for u in ranges), (v, depth)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_agrees_with_the_per_path_scan(name, g):
    assert_agree(g)


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_reachability_and_mt3_agree_with_the_fixpoint(name, g):
    """Also: the sweep within a depth reaches the ranges of the paths of at
    most that length."""
    assert_reach_agrees(g)


def test_the_empty_graph():
    g = lv.graph([], [])
    assert lv.reachability(g) == oracle.reachability(g) == frozenset()
    for mt3 in (lv.satisfies_mt3, oracle.satisfies_mt3):
        with pytest.raises(SpecError, match="^empty graph$"):
            mt3(g)


def test_agrees_over_other_coefficients_and_on_errors():
    g = dict(GRAPHS)["data_two_cycles"]
    assert_agree(g, fr.mat(GF2, 2), range(3))
    assert_agree(g, fr.zmod(4), range(3))
    even8 = fr.subring(fr.zmod(8), [0, 2, 4, 6])  # no unit: the same SpecError
    assert_agree(g, even8, range(2))
    for v, w in (("a", "zz"), ("zz", "a")):  # an unknown vertex: the same SpecError
        assert outcome(lv.verify_corner_orthogonality, g, GF2, v, w) == outcome(
            oracle.verify_corner_orthogonality, g, GF2, v, w, 2)


def test_the_error_texts():
    g = dict(GRAPHS)["converging"]
    assert outcome(lv.verify_corner_orthogonality, g, GF2, "v", "w") == (
        ValueError, "(v,w) has a common reachable vertex")


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 4))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(ends, max_size=6))
    named = [(f"e{k}", f"v{s}", f"v{t}") for k, (s, t) in enumerate(edges)]
    return lv.graph([f"v{i}" for i in range(n)], named)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(multigraphs(), st.integers(0, 5))
def test_agrees_on_drawn_multigraphs(g, depth):
    assert_agree(g, depths=(depth,))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(multigraphs())
def test_reachability_and_mt3_agree_on_drawn_multigraphs(g):
    assert_reach_agrees(g)


def counting_products(monkeypatch) -> list:
    products = []
    mul = lv.LpaElement.__mul__

    def counting(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(lv.LpaElement, "__mul__", counting)
    return products


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
def test_lists_no_path_when_the_precondition_holds(monkeypatch, name, g):
    """Every pair with no common reachable vertex: no call to paths_up_to
    and no engine product; the scan takes no depth."""
    reach = oracle.reachability(g)
    pairs = [
        (v, w)
        for v in g.vertices
        for w in g.vertices
        if not {y for x, y in reach if x == v} & {y for x, y in reach if x == w}
    ]
    listed = []
    products = counting_products(monkeypatch)
    monkeypatch.setattr(lv, "paths_up_to", lambda *args, **kwargs: listed.append(args))
    for pair in pairs:
        assert lv.verify_corner_orthogonality(g, GF2, *pair)
    assert listed == [] and products == []


def test_no_engine_product_for_the_roses(monkeypatch):
    """At depth 12 the roses have 16,382 paths; the per-path scan made
    24,573 engine products to gate them, and none is needed at any depth."""
    products = counting_products(monkeypatch)
    assert lv.verify_corner_orthogonality(rose_pair(2), GF2, "v", "w")
    assert products == []

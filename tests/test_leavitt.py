"""Leavitt path rings: graphs, rewriting engine, primeness."""

import itertools
import random
from functools import reduce

import pytest

from gradedprime import finring as fr
from gradedprime import leavitt as lv
from gradedprime.errors import SpecError

import oracle
from corpus import named_graphs, small_graph_classes


GF2 = fr.gf(2)
GF3 = fr.gf(3)


def graph_by_name(name):
    return dict(named_graphs())[name]


class TestGraphs:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(SpecError):
            lv.graph(["v", "v"], [])

    def test_dangling_edge_rejected(self):
        with pytest.raises(SpecError):
            lv.graph(["v"], [("e", "v", "w")])

    def test_edge_vertex_name_clash_rejected(self):
        with pytest.raises(SpecError):
            lv.graph(["v"], [("v", "v", "v")])


class TestReachability:
    def test_single_vertex(self):
        g = graph_by_name("single_vertex")
        assert lv.reachability(g) == {("v", "v")}

    def test_one_edge(self):
        g = graph_by_name("one_edge")
        assert lv.reachability(g) == {("v", "v"), ("w", "w"), ("v", "w")}

    def test_cycle_reaches_everything(self):
        g = graph_by_name("two_cycle")
        assert lv.reachability(g) == {
            ("v", "v"),
            ("v", "w"),
            ("w", "v"),
            ("w", "w"),
        }

    def test_closure_matches_a_search_from_each_vertex(self):
        for g in (*(g for _, g in named_graphs()), *small_graph_classes(3, 4)):
            pairs = set()
            for u in g.vertices:
                seen, todo = {u}, [u]
                while todo:
                    x = todo.pop()
                    for e in g.edges:
                        if e.src == x and e.dst not in seen:
                            seen.add(e.dst)
                            todo.append(e.dst)
                pairs |= {(u, w) for w in seen}
            assert lv.reachability(g) == pairs


def adjacency_graph(n: int, pattern: int):
    """The graph on v0..v{n-1} with an edge i -> j, loops too, for each bit
    i * n + j of pattern."""
    slots = [(i, j) for i in range(n) for j in range(n) if pattern >> (i * n + j) & 1]
    return lv.graph([f"v{i}" for i in range(n)], [(f"e{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(slots)])


def closures_meet(g) -> bool:
    """Whether the hereditary saturated closures of every two vertices meet."""
    closures = [oracle.hs_closure(g, 1 << i) for i in range(len(g.vertices))]
    return all(a & b for a in closures for b in closures)


def hs_sets_meet(g) -> bool:
    """Whether every two nonempty hereditary saturated vertex sets meet."""
    sets = [h for h in range(1, 1 << len(g.vertices)) if oracle.hs_closure(g, h) == h]
    return all(a & b for a in sets for b in sets)


# every adjacency pattern, loops allowed, on 1 to 3 vertices, and a seeded
# sample of the 65,536 on 4
SMALL_PATTERNS = [(n, p) for n in (1, 2, 3) for p in range(1 << (n * n))]
PATTERNS = SMALL_PATTERNS + [(4, p) for p in random.Random(0).sample(range(1 << 16), 2000)]


class TestMT3IsTheMeetingOfHereditarySaturatedClosures:
    """MT-3 through the graded ideals of a Leavitt path algebra (Tomforde,
    J. Algebra 318, 2007): the graded ideals are I(H) for the hereditary
    saturated vertex sets H, and I(H) I(H') = I(H ∩ H'), so the zero ideal is
    graded prime exactly when every two nonempty such sets meet."""

    def test_on_the_small_graph_classes(self):
        for g in small_graph_classes():
            assert lv.satisfies_mt3(g).holds == closures_meet(g), g

    def test_on_adjacency_patterns(self):
        verdicts = set()
        for n, pattern in PATTERNS:
            g = adjacency_graph(n, pattern)
            holds = lv.satisfies_mt3(g).holds
            assert holds == closures_meet(g), (n, pattern)
            if n <= 3:
                assert holds == hs_sets_meet(g), (n, pattern)
            verdicts.add((n, holds))
        assert verdicts == {(1, True), *((n, h) for n in (2, 3, 4) for h in (False, True))}

    def test_an_acyclic_graph_has_a_set_for_each_set_of_sinks(self):
        """Its Leavitt algebra over a field is a product of matrix rings, one
        per sink, so it has 2^(sinks) ideals, all graded: saturation, not
        heredity alone, gives that count."""
        acyclic = 0
        for n, pattern in SMALL_PATTERNS:
            g = adjacency_graph(n, pattern)
            reach = oracle.reachability(g)
            if any((e.dst, e.src) in reach for e in g.edges):
                continue
            sinks = sum(not g.out_edges[v] for v in g.vertices)
            assert sum(oracle.hs_closure(g, h) == h for h in range(1 << n)) == 2**sinks, (n, pattern)
            acyclic += 1
        assert acyclic == 29


class TestMT3:
    def test_two_isolated_vertices_fail(self):
        result = lv.satisfies_mt3(graph_by_name("two_isolated"))
        assert not result.holds
        assert result.violation == ("v", "w")

    def test_loop_satisfies(self):
        result = lv.satisfies_mt3(graph_by_name("single_loop"))
        assert result.holds

    def test_converging_pair_has_common_image(self):
        result = lv.satisfies_mt3(graph_by_name("converging"))
        assert result.holds
        assert result.sinks[("v", "w")] == "u"

    def test_empty_graph_rejected(self):
        with pytest.raises(SpecError):
            lv.satisfies_mt3(lv.graph([], []))

    @pytest.mark.parametrize("name,g", named_graphs())
    def test_sinks_are_reachable_from_both(self, name, g):
        result = lv.satisfies_mt3(g)
        if result.holds:
            reach = lv.reachability(g)
            for (u, v), w in result.sinks.items():
                assert (u, w) in reach and (v, w) in reach


class TestRelations:
    def test_ghost_edge_contracts_to_range(self):
        ctx = lv.LeavittContext(graph_by_name("parallel"), GF2)
        assert ctx.ghost("e") * ctx.edge("e") == ctx.vertex("w")

    def test_distinct_edges_annihilate(self):
        ctx = lv.LeavittContext(graph_by_name("parallel"), GF2)
        assert not ctx.ghost("e") * ctx.edge("f")

    def test_single_edge_range_relation(self):
        ctx = lv.LeavittContext(graph_by_name("single_loop"), GF2)
        assert ctx.edge("e") * ctx.ghost("e") == ctx.vertex("v")

    def test_vertex_relations(self):
        ctx = lv.LeavittContext(graph_by_name("one_edge"), GF2)
        assert ctx.vertex("v") * ctx.vertex("v") == ctx.vertex("v")
        assert not ctx.vertex("v") * ctx.vertex("w")
        assert ctx.vertex("v") * ctx.edge("e") == ctx.edge("e")
        assert ctx.edge("e") * ctx.vertex("w") == ctx.edge("e")
        assert not ctx.edge("e") * ctx.vertex("v")

    @pytest.mark.parametrize("name,g", named_graphs())
    def test_range_contraction_on_all_edge_pairs(self, name, g):
        ctx = lv.LeavittContext(g, GF2)
        for e in g.edges:
            for f in g.edges:
                got = ctx.ghost(e.name) * ctx.edge(f.name)
                if e.name == f.name:
                    assert got == ctx.vertex(e.dst)
                else:
                    assert not got

    @pytest.mark.parametrize("name,g", named_graphs())
    def test_vertex_resolves_into_its_edges(self, name, g):
        ctx = lv.LeavittContext(g, GF3)
        for v in g.vertices:
            if not g.out_edges[v]:
                continue
            acc = ctx.zero()
            for f in g.out_edges[v]:
                acc = acc + ctx.edge(f) * ctx.ghost(f)
            assert acc == ctx.vertex(v)

    def test_over_the_zero_ring_every_element_is_zero(self):
        ctx = lv.LeavittContext(graph_by_name("one_edge"), fr.zmod(1))
        v, w, e = ctx.vertex("v"), ctx.vertex("w"), ctx.edge("e")
        for x in (v, w, e, ctx.ghost("e")):
            assert not x and x.terms == {} and x == ctx.zero()
        assert v * v == v
        assert e * w == e
        with pytest.raises(SpecError, match="^unknown vertex u$"):
            ctx.vertex("u")
        for make in (ctx.edge, ctx.ghost):
            with pytest.raises(SpecError, match="^unknown edge f$"):
                make("f")

    def test_nonunital_coefficients_rejected(self):
        even = fr.subring(fr.zmod(8), [0, 2, 4, 6])
        with pytest.raises(SpecError):
            lv.LeavittContext(graph_by_name("single_loop"), even)


class TestNormalForm:
    @pytest.mark.parametrize("name,g", named_graphs())
    def test_basis_monomials_are_distinct_and_nonzero(self, name, g):
        ctx = lv.LeavittContext(g, GF2)
        keys = lv.normal_form_monomials(ctx, 3)
        elements = [ctx.monomial(GF2.unit, a, b, vertex=v) for a, b, v in keys]
        for key, elem in zip(keys, elements):
            assert elem.terms == {key: GF2.unit}
        assert len(set(elements)) == len(keys)

    @pytest.mark.parametrize("name,g", named_graphs())
    def test_degree_is_additive_on_homogeneous_products(self, name, g):
        ctx = lv.LeavittContext(g, GF2)
        keys = lv.normal_form_monomials(ctx, 2)
        elems = [ctx.monomial(GF2.unit, a, b, vertex=v) for a, b, v in keys]
        for x in elems:
            for y in elems:
                product = x * y
                if product:
                    assert product.degree() == x.degree() + y.degree()

    def test_monomial_degrees(self):
        g = graph_by_name("line3")
        assert lv.lpa_degree((("e",), (), "b")) == 1
        assert lv.lpa_degree(((), ("e",), "b")) == -1
        assert lv.lpa_degree((("e", "f"), ("f",), "c")) == 1
        ctx = lv.LeavittContext(g, GF2)
        assert ctx.vertex("a").degree() == 0

    def test_incomposable_paths_rejected(self):
        ctx = lv.LeavittContext(graph_by_name("line3"), GF2)
        with pytest.raises(SpecError):
            ctx.monomial(GF2.unit, ("f", "e"), ())
        with pytest.raises(SpecError):
            ctx.monomial(GF2.unit, ("e",), ("f",))  # ranges differ

    @pytest.mark.parametrize("name", ["single_loop", "rose2", "parallel", "line3", "two_cycle"])
    def test_multiplication_is_associative_and_bilinear(self, name):
        g = graph_by_name(name)
        ctx = lv.LeavittContext(g, GF3)
        keys = lv.normal_form_monomials(ctx, 3)
        basis = [ctx.monomial(GF3.unit, a, b, vertex=v) for a, b, v in keys]
        rng = random.Random(20240813)
        triples = (
            list(itertools.product(basis[:6], repeat=3))
            + [tuple(rng.choice(basis) for _ in range(3)) for _ in range(120)]
        )
        for x, y, z in triples:
            assert (x * y) * z == x * (y * z)
            assert (x + y) * z == x * z + y * z
            assert x * (y + z) == x * y + x * z


class TestIndependentModels:
    """The engine against rings built by entirely separate code paths."""

    @pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3)])
    def test_line_graph_ring_is_a_matrix_ring(self, n, q):
        # paths in a line graph act like matrix units: a monomial whose real
        # part starts at v_i and ghost part starts at v_j behaves as E_ij
        base = fr.gf(q)
        g = lv.graph(
            [f"v{i}" for i in range(n)],
            [(f"e{i}", f"v{i}", f"v{i+1}") for i in range(n - 1)],
        )
        ctx = lv.LeavittContext(g, base)

        def to_mat(elem):
            entries = [[base.zero] * n for _ in range(n)]
            for (alpha, beta, v), c in elem.terms.items():
                i = g.vertex_index[g.source(alpha[0]) if alpha else v]
                j = g.vertex_index[g.source(beta[0]) if beta else v]
                entries[i][j] = base.add(entries[i][j], c)
            return tuple(tuple(row) for row in entries)

        def matmul(x, y):
            return tuple(
                tuple(
                    reduce(base.add, (base.mul(x[i][k], y[k][j]) for k in range(n)), base.zero)
                    for j in range(n)
                )
                for i in range(n)
            )

        def matadd(x, y):
            return tuple(
                tuple(base.add(x[i][j], y[i][j]) for j in range(n)) for i in range(n)
            )

        keys = lv.normal_form_monomials(ctx, n)
        basis = [ctx.monomial(base.unit, a, b, vertex=v) for a, b, v in keys]
        assert len(basis) == n * n
        assert len({to_mat(x) for x in basis}) == n * n
        for x in basis:
            for y in basis:
                assert to_mat(x * y) == matmul(to_mat(x), to_mat(y))
                assert to_mat(x + y) == matadd(to_mat(x), to_mat(y))
        rng = random.Random(9)
        for _ in range(25):
            parts = rng.sample(basis, rng.randint(1, len(basis)))
            x = ctx.zero()
            for m in parts:
                x = x + m.scale(rng.randrange(1, base.order))
            y = rng.choice(basis).scale(rng.randrange(1, base.order))
            assert to_mat(x * y) == matmul(to_mat(x), to_mat(y))

    def test_loop_ring_is_laurent_arithmetic(self):
        # a single loop builds the Laurent ring, which the element arithmetic
        # over a filter's terms (the witness tests' reference) builds by a
        # completely different route
        from gradedprime import grfilter as gfl
        from gradedprime.groups import Z
        from oracle import element, term, zero

        base = fr.gf(3)
        g = graph_by_name("single_loop")
        ctx = lv.LeavittContext(g, base)
        filt = gfl.GFilter(base, Z, {}, gfl.ZRule(1))

        def lpa_power(k):
            if k >= 0:
                return ctx.monomial(base.unit, ("e",) * k, (), vertex="v")
            return ctx.monomial(base.unit, (), ("e",) * (-k), vertex="v")

        def to_laurent(elem):
            return element(filt, {len(a) - len(b): c for (a, b, v), c in elem.terms.items()})

        rng = random.Random(31)
        for _ in range(40):
            xl = zero(filt)
            x = ctx.zero()
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(-3, 3)
                c = rng.randrange(1, base.order)
                xl = xl + term(filt, k, c)
                x = x + lpa_power(k).scale(c)
            yl = term(filt, rng.randint(-3, 3), rng.randrange(1, base.order))
            y = lpa_power(yl.coeffs[0][0]).scale(yl.coeffs[0][1])
            assert to_laurent(x) == xl and to_laurent(y) == yl
            assert to_laurent(x * y) == xl * yl
            assert to_laurent(x + y) == xl + yl


class TestOrthogonality:
    def test_isolated_vertices_are_orthogonal(self):
        g = graph_by_name("two_isolated")
        assert lv.verify_corner_orthogonality(g, GF2, "v", "w")

    def test_precondition_requires_a_violating_pair(self):
        g = graph_by_name("converging")
        with pytest.raises(ValueError):
            lv.verify_corner_orthogonality(g, GF2, "v", "w")

    def test_disjoint_cycles_are_orthogonal(self):
        g = graph_by_name("disjoint_cycles")
        assert lv.verify_corner_orthogonality(g, GF2, "a", "c")


class TestPrimeness:
    def test_loop_over_a_field_is_prime(self):
        assert lv.is_leavitt_prime(graph_by_name("single_loop"), GF2)

    def test_isolated_vertices_are_not(self):
        assert not lv.is_leavitt_prime(graph_by_name("two_isolated"), GF2)

    def test_nonprime_coefficients_spoil_it(self):
        r = fr.product(GF2, GF2)
        assert not lv.is_leavitt_prime(graph_by_name("single_vertex"), r)

    def test_zero_coefficients_rejected(self):
        with pytest.raises(SpecError):
            lv.is_leavitt_prime(graph_by_name("single_vertex"), fr.zmod(1))

    def test_nonunital_coefficients_rejected(self):
        even = fr.subring(fr.zmod(8), [0, 2, 4, 6])
        with pytest.raises(SpecError):
            lv.is_leavitt_prime(graph_by_name("single_vertex"), even)

    @pytest.mark.parametrize("name,g", named_graphs())
    def test_matches_the_two_sided_criterion(self, name, g):
        for ring in (GF2, fr.product(GF2, GF2), fr.mat(GF2, 2)):
            expected = fr.is_prime_ring(ring) and lv.satisfies_mt3(g).holds
            assert lv.is_leavitt_prime(g, ring) == expected

"""Shared corpus builders for the test suite.

The ring corpus is the fixed dozen small rings every exhaustive property is
run against; graded and filter corpora derive from it.  Everything here is
deterministic, and the heavier enumerations are cached per session.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import grfilter as gfl
from gradedprime import leavitt as lv
from gradedprime.groups import Z, cyclic


@lru_cache(maxsize=None)
def corpus_rings() -> tuple:
    """The named ring corpus as (name, ring) pairs."""
    r2 = fr.gf(2)
    return (
        ("gf2", r2),
        ("gf3", fr.gf(3)),
        ("gf4", fr.gf(4)),
        ("zmod4", fr.zmod(4)),
        ("zmod6", fr.zmod(6)),
        ("prod22", fr.product(r2, r2)),
        ("mat2", fr.mat(r2, 2)),
        ("tri2", fr.tri(r2, 2)),
        ("tri3", fr.tri(r2, 3)),
        ("grpalg2", fr.grpalg(r2, cyclic(2))),
        ("grpalg3", fr.grpalg(fr.gf(3), cyclic(2))),
        ("even8", fr.subring(fr.zmod(8), [0, 2, 4, 6])),
    )


def ring_by_name(name: str) -> fr.FiniteRing:
    return dict(corpus_rings())[name]


def zero_mult_ring() -> fr.FiniteRing:
    return fr.make_ring([[0, 1], [1, 0]], [[0, 0], [0, 0]])


def relabelled(ring: fr.FiniteRing, perm) -> fr.FiniteRing:
    """The same ring with element x renamed perm[x] (names move with it)."""
    n = ring.order
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    names = [""] * n
    for x in range(n):
        names[perm[x]] = ring.name(x)
        for y in range(n):
            add[perm[x]][perm[y]] = perm[ring.add(x, y)]
            mul[perm[x]][perm[y]] = perm[ring.mul(x, y)]
    return fr.make_ring(add, mul, names)


# ---------------------------------------------------------------------------
# gradings


def diagonal_grading(base_order: int, n: int, positions, ring) -> gr.GradedRing:
    """Grade a (triangular or full) matrix ring by diagonal offset j - i."""
    vectors = list(itertools.product(range(base_order), repeat=len(positions)))
    comps: dict = {}
    for idx, vec in enumerate(vectors):
        support = {j - i for (i, j), d in zip(positions, vec) if d}
        for k in range(-(n - 1), n):
            if support <= {k}:
                comps.setdefault(k, []).append(idx)
    return gr.attach_grading(ring, Z, comps)


def tri_standard(q: int, n: int) -> gr.GradedRing:
    return diagonal_grading(q, n, fr.tri_positions(n), fr.tri(fr.gf(q), n))


def mat_standard(q: int, n: int) -> gr.GradedRing:
    return diagonal_grading(q, n, fr.mat_positions(n), fr.mat(fr.gf(q), n))


def group_algebra_grading(base: fr.FiniteRing, group) -> gr.GradedRing:
    ring = fr.grpalg(base, group)
    comps = {
        h: [c * base.order ** (group.order - 1 - h) for c in base.elements()]
        for h in group.elements()
    }
    return gr.attach_grading(ring, group, comps)


def zero_mult_graded() -> gr.GradedRing:
    ring = zero_mult_ring()
    return gr.attach_grading(ring, Z, {1: [0, 1]})


@lru_cache(maxsize=None)
def z_graded_corpus() -> tuple:
    """Integer-graded corpus members as (name, GradedRing) pairs."""
    members = [(f"trivial_{name}", gr.trivial_grading(ring)) for name, ring in corpus_rings()]
    members.append(("tri2_std", tri_standard(2, 2)))
    members.append(("tri3_std", tri_standard(2, 3)))
    members.append(("mat2_z", mat_standard(2, 2)))
    members.append(("zero_mult_z", zero_mult_graded()))
    return tuple(members)


@lru_cache(maxsize=None)
def graded_corpus() -> tuple:
    """All graded corpus members, integer and finite-group alike."""
    members = list(z_graded_corpus())
    members.append(("grpalg2_canonical", group_algebra_grading(fr.gf(2), cyclic(2))))
    members.append(("grpalg3_canonical", group_algebra_grading(fr.gf(3), cyclic(2))))
    for name, filt in finite_filter_corpus():
        assert gfl.validate_filter(filt), name
        members.append((f"filter_{name}", gfl.assemble_filter_ring(filt)))
    return tuple(members)


# ---------------------------------------------------------------------------
# filters


def row_ideal_tri2() -> int:
    return fr.generate_ideal(fr.tri(fr.gf(2), 2), [4]).members


@lru_cache(maxsize=None)
def finite_filter_corpus() -> tuple:
    """Valid finite-group filters as (name, GFilter) pairs."""
    r2 = fr.gf(2)
    p22 = fr.product(r2, r2)
    t2 = fr.tri(r2, 2)
    f20 = fr.generate_ideal(p22, [2]).members
    out = [
        ("full_gf2_c2", gfl.make_finite_filter(r2, cyclic(2), {0: r2.full_mask, 1: r2.full_mask})),
        ("zero_gf2_c2", gfl.make_finite_filter(r2, cyclic(2), {0: r2.full_mask, 1: r2.zero_mask})),
        ("prod_c3", gfl.make_finite_filter(p22, cyclic(3), {0: p22.full_mask, 1: f20, 2: f20})),
        ("prod_c2", gfl.make_finite_filter(p22, cyclic(2), {0: p22.full_mask, 1: f20})),
        ("tri2_row_c2", gfl.make_finite_filter(t2, cyclic(2), {0: t2.full_mask, 1: row_ideal_tri2()})),
    ]
    return tuple(out)


def ideals_of(ring: fr.FiniteRing, masks) -> list:
    """The validated Ideal of each mask of a lattice listing."""
    return [fr.Ideal(ring, m) for m in masks]


def member_masks(ideals) -> tuple:
    """The masks of a tuple of Ideals, such as an oracle's lattice."""
    return tuple(i.members for i in ideals)


def all_candidate_filters(ring: fr.FiniteRing, group) -> list:
    """Every assignment of ideals to non-identity elements, valid or not."""
    lattice = fr.all_ideals(ring)
    others = [x for x in group.elements() if x != group.identity]
    out = []
    for combo in itertools.product(lattice, repeat=len(others)):
        table = {group.identity: ring.full_mask}
        table.update(zip(others, combo))
        out.append(gfl.make_finite_filter(ring, group, table))
    return out


# ---------------------------------------------------------------------------
# graphs


@lru_cache(maxsize=None)
def named_graphs() -> tuple:
    g = lv.graph
    return (
        ("single_vertex", g(["v"], [])),
        ("single_loop", g(["v"], [("e", "v", "v")])),
        ("two_isolated", g(["v", "w"], [])),
        ("one_edge", g(["v", "w"], [("e", "v", "w")])),
        ("converging", g(["v", "w", "u"], [("a", "v", "u"), ("b", "w", "u")])),
        ("two_cycle", g(["v", "w"], [("e", "v", "w"), ("f", "w", "v")])),
        (
            "disjoint_cycles",
            g(
                ["a", "b", "c", "d"],
                [("e1", "a", "b"), ("e2", "b", "a"), ("e3", "c", "d"), ("e4", "d", "c")],
            ),
        ),
        ("rose2", g(["v"], [("e", "v", "v"), ("f", "v", "v")])),
        ("line3", g(["a", "b", "c"], [("e", "a", "b"), ("f", "b", "c")])),
        ("parallel", g(["v", "w"], [("e", "v", "w"), ("f", "v", "w")])),
        ("loop_plus_isolated", g(["v", "w"], [("e", "v", "v")])),
    )


@lru_cache(maxsize=None)
def small_graph_classes(max_vertices: int = 4, max_edges: int = 5) -> tuple:
    """Isomorphism-distinct directed multigraphs, up to the given sizes.

    Loops and parallel edges are allowed and isolated vertices count, since
    they matter for the common-sink condition.
    """
    graphs = []
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(n)]
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for k in range(0, max_edges + 1):
            for combo in itertools.combinations_with_replacement(range(len(slots)), k):
                edges = [slots[c] for c in combo]
                canon = min(
                    tuple(sorted((p[s], p[t]) for (s, t) in edges)) for p in perms
                )
                if canon in seen:
                    continue
                seen.add(canon)
                graphs.append(
                    lv.graph(
                        [f"v{i}" for i in range(n)],
                        [
                            (f"e{m}", f"v{s}", f"v{t}")
                            for m, (s, t) in enumerate(canon)
                        ],
                    )
                )
    return tuple(graphs)

"""Leavitt path rings over finite unital coefficient rings.

Elements are coefficient combinations of monomials ``alpha * beta-star``
where alpha and beta are paths with the same range vertex.  A monomial is
stored as ``(alpha, beta, v)`` with the paths as edge-name tuples and v the
common range; an empty path stands for the vertex v itself.

Normal form: for every vertex with outgoing edges, its last declared edge f
is "special" and any monomial whose real and ghost parts both end in f is
rewritten through f f* = v - sum of g g* over the earlier edges g out of v.
Reduction strictly shrinks the special-ended part, so it terminates, and the
surviving monomials are the standard linear basis of the ring.

Multiplication resolves the ghost-real boundary by cancelling the common
prefix of the inner paths (ghost edge times matching edge collapses to the
range vertex) and then reduces the surviving monomial to normal form.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .errors import SpecError
from .finring import FiniteRing, bits, is_prime_ring
from .frozen import Frozen


class Edge(NamedTuple):
    name: str
    src: str
    dst: str


class DirectedGraph(Frozen):
    _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        if len(set(vertices)) != len(vertices):
            raise SpecError("duplicate vertex names")
        enames = [e.name for e in edges]
        if len(set(enames)) != len(enames):
            raise SpecError("duplicate edge names")
        if set(enames) & set(vertices):
            raise SpecError("an edge shares its name with a vertex")
        vset = set(vertices)
        for e in edges:
            if e.src not in vset or e.dst not in vset:
                raise SpecError(f"edge {e.name} has an unknown endpoint")
        vars(self).update(vertices=vertices, edges=edges)

    @cached_property
    def vertex_index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_index(self) -> dict:
        return {e.name: i for i, e in enumerate(self.edges)}

    @cached_property
    def successor_masks(self) -> list[int]:
        idx = self.vertex_index
        return [sum(1 << i for i in {idx[self.target(f)] for f in self.out_edges[v]}) for v in self.vertices]

    @cached_property
    def edge_map(self) -> dict:
        return {e.name: e for e in self.edges}

    @cached_property
    def out_edges(self) -> dict:
        out = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e.name)
        return {v: tuple(names) for v, names in out.items()}

    def source(self, edge_name: str) -> str:
        return self.edge_map[edge_name].src

    def target(self, edge_name: str) -> str:
        return self.edge_map[edge_name].dst


def graph(vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]) -> DirectedGraph:
    return DirectedGraph(tuple(vertices), tuple(Edge(*e) for e in edges))


# ---------------------------------------------------------------------------
# reachability and condition MT-3


def _reach(g: DirectedGraph, sources: int) -> int:
    """The vertices that paths lead to from a mask of sources, as a mask: a
    sweep of frontiers."""
    succ = g.successor_masks
    seen = frontier = sources
    while frontier:
        step = 0
        for i in bits(frontier):
            step |= succ[i]
        frontier = step & ~seen
        seen |= frontier
    return seen


def reachability(g: DirectedGraph) -> frozenset[tuple[str, str]]:
    """Reflexive-transitive closure of the edge relation, as vertex pairs."""
    return frozenset((u, g.vertices[j]) for i, u in enumerate(g.vertices) for j in bits(_reach(g, 1 << i)))


class MT3Result(NamedTuple):
    holds: bool
    sinks: Optional[dict]
    violation: Optional[tuple[str, str]]

    def __bool__(self) -> bool:
        return self.holds


def satisfies_mt3(g: DirectedGraph) -> MT3Result:
    """Whether every vertex pair flows to a common vertex.

    On success returns the first common vertex (in declared order) for every
    ordered pair; on failure returns the first violating pair.
    """
    if not g.vertices:
        raise SpecError("empty graph")
    vertices = g.vertices
    reach = [_reach(g, 1 << i) for i in range(len(vertices))]
    sinks = {}
    for u, ru in zip(vertices, reach):
        for v, rv in zip(vertices, reach):
            common = ru & rv
            if not common:
                return MT3Result(False, None, (u, v))
            sinks[(u, v)] = vertices[(common & -common).bit_length() - 1]
    return MT3Result(True, sinks, None)


# ---------------------------------------------------------------------------
# path enumeration


class Path(NamedTuple):
    edges: tuple[str, ...]
    src: str
    dst: str


def paths_up_to(g: DirectedGraph, max_len: int) -> list[Path]:
    """All paths of length <= max_len in shortlex order over declared edges.

    Length-zero paths are the vertices themselves, in declared order.
    """
    layer = [Path((), v, v) for v in g.vertices]
    out = list(layer)
    for _ in range(max_len):
        nxt = []
        for p in layer:
            for name in g.out_edges[p.dst]:
                nxt.append(Path(p.edges + (name,), p.src, g.target(name)))
        out.extend(nxt)
        layer = nxt
        if not layer:
            break
    return out


# ---------------------------------------------------------------------------
# ring elements


class LeavittContext:
    """A directed graph together with a unital coefficient ring."""

    def __init__(self, g: DirectedGraph, coeff: FiniteRing):
        if not g.vertices:
            raise SpecError("empty graph")
        if coeff.unit is None:
            raise SpecError("coefficient ring must be unital")
        self.graph = g
        self.coeff = coeff
        self.special = {v: g.out_edges[v][-1] for v in g.vertices if g.out_edges[v]}

    # -- construction -----------------------------------------------------

    def zero(self) -> "LpaElement":
        return LpaElement(self, {})

    def vertex(self, v: str) -> "LpaElement":
        return self.monomial(self.coeff.unit, vertex=v)

    def edge(self, f: str) -> "LpaElement":
        return self.monomial(self.coeff.unit, (f,))

    def ghost(self, f: str) -> "LpaElement":
        return self.monomial(self.coeff.unit, (), (f,))

    def _path_range(self, edges: tuple[str, ...]) -> str:
        g = self.graph
        prev = None
        for name in edges:
            e = g.edge_map.get(name)
            if e is None:
                raise SpecError(f"unknown edge {name}")
            if prev is not None and e.src != prev:
                raise SpecError("edges do not compose into a path")
            prev = e.dst
        return prev

    def monomial(
        self,
        coeff: int,
        alpha: Iterable[str] = (),
        beta: Iterable[str] = (),
        vertex: Optional[str] = None,
    ) -> "LpaElement":
        """The element coeff * alpha * beta-star, reduced to normal form.

        The common range vertex is derived from the paths; it must be given
        explicitly only when both paths are empty.
        """
        alpha = tuple(alpha)
        beta = tuple(beta)
        ra = self._path_range(alpha) if alpha else None
        rb = self._path_range(beta) if beta else None
        if ra is not None and rb is not None and ra != rb:
            raise SpecError("real and ghost paths must share their range vertex")
        v = ra if ra is not None else rb
        if v is None:
            if vertex is None:
                raise SpecError("a vertex monomial needs an explicit vertex")
            v = vertex
        if v not in self.graph.vertex_index:
            raise SpecError(f"unknown vertex {v}")
        if vertex is not None and vertex != v:
            raise SpecError("anchor vertex disagrees with the paths")
        if coeff == self.coeff.zero:
            return self.zero()
        acc: dict = {}
        self._reduce_into(acc, alpha, beta, v, coeff)
        return LpaElement(self, {k: c for k, c in acc.items() if c != self.coeff.zero})

    # -- rewriting core ----------------------------------------------------

    def _reducible(self, a: tuple, b: tuple) -> bool:
        """Whether a b-star is not in normal form: both paths end in the
        special edge of its source."""
        return bool(a and b and a[-1] == b[-1] and self.special.get(self.graph.source(a[-1])) == a[-1])

    def _reduce_into(self, acc: dict, alpha, beta, v, coeff) -> None:
        g = self.graph
        coeff_ring = self.coeff
        stack = [(alpha, beta, v, coeff)]
        while stack:
            a, b, vv, c = stack.pop()
            if self._reducible(a, b):
                u = g.source(a[-1])
                a0, b0 = a[:-1], b[:-1]
                stack.append((a0, b0, u, c))
                nc = coeff_ring.neg(c)
                for other in g.out_edges[u][:-1]:
                    key = (a0 + (other,), b0 + (other,), g.target(other))
                    acc[key] = coeff_ring.add(acc.get(key, coeff_ring.zero), nc)
                continue
            key = (a, b, vv)
            acc[key] = coeff_ring.add(acc.get(key, coeff_ring.zero), c)

    def _junction(self, m1, m2):
        """Resolve beta1-star times alpha2; None means the product is zero."""
        a1, b1, v1 = m1
        a2, b2, v2 = m2
        p, q = b1, a2
        n = min(len(p), len(q))
        if p[:n] != q[:n]:
            return None
        g = self.graph
        if len(p) == len(q):
            if not p and v1 != v2:
                return None
            return (a1, b2, v2)
        if len(q) > len(p):
            if n == 0 and g.source(q[0]) != v1:
                return None
            return (a1 + q[n:], b2, v2)
        if n == 0 and g.source(p[0]) != v2:
            return None
        return (a1, b2 + p[n:], v1)


class LpaElement:
    """An immutable normal-form element of a Leavitt path ring."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: LeavittContext, terms: dict):
        self.ctx = ctx
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LpaElement)
            and self.ctx is other.ctx
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def _require_same_context(self, other):
        if not isinstance(other, LpaElement) or other.ctx is not self.ctx:
            raise ValueError("elements belong to different Leavitt path rings")

    def __add__(self, other) -> "LpaElement":
        self._require_same_context(other)
        ring = self.ctx.coeff
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = ring.add(out.get(key, ring.zero), c)
            if s == ring.zero:
                out.pop(key, None)
            else:
                out[key] = s
        return LpaElement(self.ctx, out)

    def __neg__(self) -> "LpaElement":
        ring = self.ctx.coeff
        return LpaElement(self.ctx, {k: ring.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other) -> "LpaElement":
        return self + (-other)

    def __mul__(self, other) -> "LpaElement":
        self._require_same_context(other)
        ctx = self.ctx
        ring = ctx.coeff
        acc: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                c = ring.mul(c1, c2)
                if c == ring.zero:
                    continue
                joined = ctx._junction(k1, k2)
                if joined is None:
                    continue
                ctx._reduce_into(acc, *joined, c)
        return LpaElement(ctx, {k: c for k, c in acc.items() if c != ring.zero})

    def scale(self, r: int) -> "LpaElement":
        """Left multiplication by a central coefficient."""
        ring = self.ctx.coeff
        out = {}
        for key, c in self.terms.items():
            rc = ring.mul(r, c)
            if rc != ring.zero:
                out[key] = rc
        return LpaElement(self.ctx, out)

    def sorted_terms(self) -> list:
        eidx = self.ctx.graph.edge_index
        vidx = self.ctx.graph.vertex_index

        def keyfn(item):
            (alpha, beta, v), _ = item
            return (
                len(alpha),
                tuple(eidx[f] for f in alpha),
                len(beta),
                tuple(eidx[f] for f in beta),
                vidx[v],
            )

        return sorted(self.terms.items(), key=keyfn)

    def degree(self) -> Optional[int]:
        """The common degree of all monomials, None for zero or mixed."""
        degs = {lpa_degree(k) for k in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (alpha, beta, v), c in self.sorted_terms():
            astr = ".".join(alpha) if alpha else v
            bstr = f"({'.'.join(beta)})*" if beta else ""
            bits.append(f"{self.ctx.coeff.name(c)}·{astr}{bstr}")
        return " + ".join(bits)


def lpa_degree(monomial) -> int:
    """Degree of a monomial key: real length minus ghost length."""
    alpha, beta, _ = monomial
    return len(alpha) - len(beta)


def normal_form_monomials(ctx: LeavittContext, max_len: int) -> list:
    """All normal-form monomial keys with both path lengths <= max_len."""
    by_range: dict = {}
    for p in paths_up_to(ctx.graph, max_len):
        by_range.setdefault(p.dst, []).append(p)
    out = []
    for v in ctx.graph.vertices:
        group = by_range.get(v, [])
        for pa in group:
            for pb in group:
                if not ctx._reducible(pa.edges, pb.edges):
                    out.append((pa.edges, pb.edges, v))
    return out


# ---------------------------------------------------------------------------
# corner orthogonality


def verify_corner_orthogonality(g: DirectedGraph, coeff: FiniteRing, v: str, w: str) -> bool:
    """Check v * (alpha beta-star) * w = 0 for every monomial.

    Requires that (v, w) has no common reachable vertex, and then holds at
    every path length without a product: the product factors as
    (v*alpha)*(beta-star*w), and v*alpha = (v*s(alpha))*alpha is nonzero
    only when s(alpha) = v, since distinct vertices are orthogonal
    idempotents; likewise beta-star*w only when s(beta) = w.  A nonzero
    product then needs alpha and beta to share their range, a vertex that
    both v and w reach, and under the requirement there is none.  The
    engine's errors (empty graph, nonunital coefficients, unknown vertex)
    are raised with its texts, in its order, without building an element.
    """
    idx = g.vertex_index
    if _reach(g, 1 << idx[v] if v in idx else 0) & _reach(g, 1 << idx[w] if w in idx else 0):
        raise ValueError(f"({v},{w}) has a common reachable vertex")
    if not g.vertices:
        raise SpecError("empty graph")
    if coeff.unit is None:
        raise SpecError("coefficient ring must be unital")
    for u in (v, w):
        if u not in idx:
            raise SpecError(f"unknown vertex {u}")
    return True


def _primeness_parts(g: DirectedGraph, coeff: FiniteRing) -> tuple[bool, MT3Result]:
    """(coefficients prime, MT-3), once the graph is nonempty and the
    coefficient ring nonzero and unital, refused in that order."""
    if not g.vertices:
        raise SpecError("empty graph")
    if coeff.order == 1:
        raise SpecError("coefficient ring must be nonzero")
    if coeff.unit is None:
        raise SpecError("coefficient ring must be unital")
    return is_prime_ring(coeff), satisfies_mt3(g)


def is_leavitt_prime(g: DirectedGraph, coeff: FiniteRing) -> bool:
    """Primeness of the Leavitt path ring: prime coefficients plus MT-3."""
    coeff_prime, mt3 = _primeness_parts(g, coeff)
    return coeff_prime and mt3.holds

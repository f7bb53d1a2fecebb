"""Finite, possibly nonunital rings given by explicit Cayley tables.

Elements of a ring of order n are the indices 0..n-1 and subsets of a ring
are int bitmasks (bit i set means element i is in the subset).  Every ring
axiom is checked exactly at construction time, so any FiniteRing in
circulation is known-good: commutativity of addition on all pairs, the rest
on additive generators only, which is exact by Light's associativity test
and by biadditivity (see groups.check_group_table and make_ring), on rows
composed in C (groups.read_table).  A ring keeps the rows make_ring read,
bytes up to order 256 and tuples above.  All values are immutable and all
operations are pure functions, safe for concurrent use.

Element index conventions of the built-in constructors (these are a public
contract, since spec files refer to elements by index):

* ``gf(q)`` with q = p^k: element i has polynomial coefficients equal to the
  base-p digits of i, least significant digit first; for k > 1 arithmetic is
  modulo the first irreducible monic polynomial in coefficient order, and
  the ring is the tuple ring below of the digits, most significant first.
* ``zmod(n)``: element i is the residue i.
* ``product``, ``mat``, ``tri``, ``grpalg``: elements are coefficient tuples
  (factors, matrix entries row-major, upper-triangular entries row-major,
  group elements in index order) encoded in mixed radix with the *last*
  coordinate varying fastest, like ``itertools.product``.  All of them,
  ``subring`` and the filter subrings of group rings come from one
  tuple-ring builder; ``grpalg`` is the filter subring whose every
  coefficient set is the whole base ring, and ``subring`` the tuple ring of
  one coordinate whose coefficient set is the selection.  The builder
  composes nearly every row from others in C: an add row is the
  translations of two summands composed, and a mul row xy is row x after
  row y, from the rows of a few generators built by biadditivity from
  monomial products (tuples with one nonzero coordinate).  Closure under
  multiplication, checked on monomial products only, is still exact
  because the monomials span the tuples.
* ``subring``: elements are the chosen base-ring indices in ascending order.

Additive subgroups (ideals, graded components, filter values) all go through
one kernel that carries a subgroup as a mask plus at most log2(order)
additive generators.  A subgroup H grows by an element g coset by coset: the
span of H and g is the union of the cosets H + kg up to the first kg in H
(Dimino's algorithm), so a closure costs time linear in its size.  The
kernels call ``_span`` and ``_extend`` for the (mask, generators) pair;
``subgroup_closure``, the mask alone, stays public because the s-unital
scan reads it and the bench reports its calls.
Multiplication is biadditive, so a product of spans is the span of the
products of their generators.  Hence the ideal generated by X is the span of
X, GX, XG and GXG for G the ring's additive generators (one pass, no
fixpoint), ideal products and triple products multiply generators only, and
an absorption or "aSb in P" test needs s to range over G only.

Quantifiers over ideals run over a generating family of principal ideals
(``_principal_ideals``): those that are not the sum of the principal ideals
strictly inside them.  Every principal ideal is the sum of the members
inside it, so the family is exact for any statement that is additive in the
ideal or closed under sums.  The graded ideals of a grading are the sums of
the principal ideals of homogeneous elements, the ideals are the case of one
component, the whole ring, and the invariant ideals of an identity
component S_e are the sums of the invariant closures of the members of
S_e's family.  So one builder makes all three families, keyed by ring,
components, actors and conjugators, and one cache (``_lattice``), under the
same key, holds the lattices that one join-closure kernel closes from them,
for ``all_ideals``, ``grading.all_graded_ideals`` and
``correspondence.invariant_base_ideals``, which list them as sorted masks.
No conjugators, (), is S's own key, so a trivial grading and two parses of
one graded ring share its entries.  The pair tests of G-primeness and ideal
symmetry, and the test of full idempotency, read the family itself.
``Ideal`` is the validated handle for one ideal at the public boundary:
``generate_ideal``, ``ideal_product`` and the primeness predicates.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cached_property, lru_cache, reduce
from itertools import repeat
from operator import add as plus, getitem, itemgetter, or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import CapError, SpecError
from .frozen import Frozen
from .groups import (
    FiniteGroup, check_group_table, composer, element_names, left_rows, read_table, rotations, row_form,
    rows_of_length, stored_rows, table_identity,
)


class Caps(NamedTuple):
    """Resource limits; exceeding one raises CapError, never truncates."""

    max_ring_order: int = 256
    max_ideals: int = 65536
    max_group_order: int = 256


DEFAULT_CAPS = Caps()


# ---------------------------------------------------------------------------
# bitmask helpers


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


# ---------------------------------------------------------------------------
# the ring type


class FiniteRing(Frozen):
    """A validated ring (make_ring).  Its tables keep their rows in the one
    form of groups.stored_rows, bytes up to order 256 and tuples above, so
    equal tables compare and hash equal whatever rows they were given as."""

    _fields = ("order", "add_table", "mul_table", "zero", "neg_table", "unit", "names")

    def __init__(
        self,
        order: int,
        add_table: tuple[tuple[int, ...], ...],
        mul_table: tuple[tuple[int, ...], ...],
        zero: int,
        neg_table: tuple[int, ...],
        unit: Optional[int],
        names: tuple[str, ...],
    ):
        # every lru_cache is keyed by a ring, so its hash is computed once
        add_table, mul_table = stored_rows(add_table), stored_rows(mul_table)
        vars(self).update(
            order=order, add_table=add_table, mul_table=mul_table, zero=zero, neg_table=neg_table,
            unit=unit, names=names, full_mask=(1 << order) - 1, zero_mask=1 << zero,
            _hash=hash((order, zero, unit, add_table, mul_table)),
        )

    def __hash__(self) -> int:
        return self._hash

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def mul(self, x: int, y: int) -> int:
        return self.mul_table[x][y]

    def neg(self, x: int) -> int:
        return self.neg_table[x]

    def mul3(self, a: int, s: int, b: int) -> int:
        return self.mul_table[self.mul_table[a][s]][b]

    def elements(self) -> range:
        return range(self.order)

    def name(self, i: int) -> str:
        return self.names[i]

    @cached_property
    def additive_generators(self) -> tuple[int, ...]:
        """A generating set of the additive group, at most log2(order) long."""
        return tuple(_gens(self, self.full_mask))

    def __repr__(self) -> str:
        kind = "unital" if self.unit is not None else "nonunital"
        return f"FiniteRing(order={self.order}, {kind})"


def make_ring(
    add_rows: Sequence[Sequence[int]],
    mul_rows: Sequence[Sequence[int]],
    names: Optional[Sequence[str]] = None,
    caps: Caps = DEFAULT_CAPS,
) -> FiniteRing:
    """Build a ring from raw tables, verifying every axiom exactly.

    Addition is checked to commute on all pairs, and the additive group goes
    through check_group_table, which finds the zero and negation by search
    and tests associativity on a greedy set G of additive generators.  The
    other axioms then need G only.  A map f with f(b+g) = f(b) + f(g) for
    every b and every g in G is additive, because the g with this property
    are closed under addition; so distributivity is checked that way for
    x -> ax and x -> xa for every a, comparing the composed maps
    b -> f(b+g) and b -> f(b) + f(g).  The columns x -> xa come first; once
    every column is additive, a row x -> ax needs checking for a in G only,
    since a = g_1 + ... + g_k gives a(x+y) = g_1(x+y) + ... + g_k(x+y) =
    ax + ay.  A failing column is followed by the scan of every row, so a
    table whose rows fail too is refused for left distributivity, as it is
    when the rows are scanned first.  Both sides of (xy)z = x(yz) are then
    additive in each variable, so associativity is checked on G x G x G.
    The unit, if any, is found by search like the zero.
    """
    n = len(add_rows)
    if n == 0:
        raise SpecError("ring must contain at least a zero element")
    _checked_order({n: 1}, caps)
    if len(mul_rows) != n or not rows_of_length((*add_rows, *mul_rows), n):
        raise SpecError("tables must be square and of equal size")
    read = read_table(add_rows), read_table(mul_rows)
    if None in read:
        raise SpecError("table entries must be element indices")
    (add, add_maps, apply, add_columns), (mul, mul_maps, _, mul_columns) = read
    if add_maps != add_columns():
        raise SpecError("addition is not commutative")
    zero, neg, gens = check_group_table(
        read[0],
        ("addition is not associative", "addition has no identity element", "element {} has no unique additive inverse"),
    )

    def additive(maps) -> bool:  # whether every f in maps, rows x -> ax or columns x -> xa, is additive
        return all(  # b -> f(b+g) and b -> f(b) + f(g) for every f, in C
            list(map(apply, repeat(add_maps[g]), maps))
            == list(map(apply, maps, map(add_maps.__getitem__, map(itemgetter(g), maps))))
            for g in gens
        )

    if not additive(mul_columns()):
        raise SpecError(f"{'right' if additive(mul_maps) else 'left'} distributivity fails")
    if not additive([mul_maps[g] for g in gens]):
        raise SpecError("left distributivity fails")
    on_gens = itemgetter(*gens, zero)  # (xy)z, x(yz) for z in G and 0 (G of the zero ring is empty)
    if any(on_gens(mul_maps[mul[x][y]]) != on_gens(apply(mul_maps[y], mul_maps[x])) for x in gens for y in gens):
        raise SpecError("multiplication is not associative")
    return FiniteRing(n, add, mul, zero, neg, table_identity(mul), element_names(names, n))


# ---------------------------------------------------------------------------
# constructors


def zmod(n: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """The ring of integers modulo n: add row i is 0..n-1 rotated by i, and
    the mul rows are composed (left_rows) from those of a few generators."""
    if n < 1:
        raise SpecError("modulus must be positive")
    _checked_order({n: 1}, caps)  # before the n x n tables are built
    form = row_form(n)
    mul = left_rows(n, lambda g: form(g * y % n for y in range(n)))
    return make_ring(rotations(n), mul, caps=caps)


def _poly_mod(a, m, p):
    """The remainder of a modulo the monic m, as len(m) - 1 coefficients."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a.pop()
        shift = len(a) - dm
        for i in range(dm):
            a[shift + i] = (a[shift + i] - lead * m[i]) % p
    return a


def _is_irreducible(m, p):
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            div = list(coeffs) + [1]
            # trial division: remainder of m by div
            if not any(_poly_mod(m, div, p)):
                return False
    return True


def _factor_prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise SpecError(f"{q} is not a prime power")
            return p, k
    raise SpecError(f"{q} is not a prime power")


def gf(q: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """The finite field with q elements, q a prime power."""
    if q < 2 or q > 256:
        raise SpecError("field order must be a prime power between 2 and 256")
    p, k = _factor_prime_power(q)
    if k == 1:
        return zmod(p, caps=caps)
    monic = ([*coeffs, 1] for coeffs in itertools.product(range(p), repeat=k))
    modpoly = next(m for m in monic if _is_irreducible(m, p))
    degrees = range(k - 1, -1, -1)  # coordinate t holds the coefficient of a^(k-1-t)

    def mul_vec(x, y):
        prod = [0] * (2 * k - 1)
        for i, c in zip(degrees, x):
            for j, d in zip(degrees, y):
                prod[i + j] += c * d
        return tuple(reversed(_poly_mod(prod, modpoly, p)))

    def name_vec(v):
        terms = [
            str(c) if j == 0 else ("" if c == 1 else str(c)) + ("a" if j == 1 else f"a^{j}")
            for j, c in zip(degrees, v)
            if c
        ]
        return "+".join(terms) or "0"

    # the coordinates' ring is capped at its own order, so only q meets the caller's cap
    return _tuple_ring([zmod(p, Caps(max_ring_order=p))] * k, [range(p)] * k, mul_vec, name_vec, caps)[0]


# An order of at least 2**_SHOWN_BITS has more than 4,300 decimal digits,
# which Python will not convert to text by default.
_SHOWN_BITS = 14_300


def _checked_order(sizes: dict[int, int], caps: Caps) -> int:
    """The product of size**k over the counts sizes, once it is known to be
    within the ring-order cap; otherwise CapError.

    The cap is decided by bit length before any big product is formed, so
    an order with millions of bits costs nothing.  An order over the cap is
    shown in decimal when Python will print it, else as powers (2^40000).
    The coordinates, sum(k), are capped alike, for factors of order 1.
    """
    cap = caps.max_ring_order
    low_bits = sum(k * (size.bit_length() - 1) for size, k in sizes.items())  # 2**low_bits <= order
    if low_bits < max(cap.bit_length(), _SHOWN_BITS):
        order = math.prod(size**k for size, k in sizes.items())
        if order <= cap:
            if sum(sizes.values()) > cap:
                raise CapError(f"tuple ring of {sum(sizes.values())} coordinates exceeds cap {cap}")
            return order
        try:  # the text fails with ValueError when order has more digits than Python converts
            raise CapError(f"ring order {order} exceeds cap {cap}")
        except ValueError:
            pass
    shown = "*".join(f"{size}^{k}" if k > 1 else str(size) for size, k in sorted(sizes.items()))
    raise CapError(f"ring order {shown} exceeds cap {cap}")


def _tuple_ring(factors, members, mul_vec, name_vec, caps: Caps):
    """The ring of tuples whose coordinate t is drawn from members[t], a
    list of distinct elements of the ring factors[t], added componentwise
    and multiplied by mul_vec, which must be biadditive and associative.

    Returns (ring, index) with index mapping each tuple to its element.
    Nothing is validated up front: a sum or product leaving the tuples
    raises SpecError.

    Rows are bytes up to order 256, tuples above (groups.stored_rows), and
    are composed in C (groups.composer).  Addition is checked for closure on
    the per-coordinate tables of positions in members[t].  Once it passes,
    every members[t] is an additive subgroup, so each tuple is the sum of
    its monomials (tuples with one nonzero coordinate).  A monomial's add
    row moves its coordinate by that coordinate's table, and the add row of
    m + y, for m a monomial and y a tuple zero at m's coordinate and
    before, is T_m after T_y.  mul_vec is called on pairs of monomials
    only.  The mul rows are composed by groups.left_rows (row xy is row x
    after row y) from the rows of a few generators, each built by
    additivity from its products with the monomials: x(m + y) is xm + xy,
    so the row of x on the tuples zero before coordinate t is the row on
    those zero up to t, translated by each xm for m at t and joined.  The
    tuples form an additive group spanned by the monomials, so they are
    closed under multiplication exactly when the monomial products stay
    inside: the closure error is raised exactly when some product of
    tuples leaves.
    """
    if not all(members):  # an empty coefficient set, such as an empty filter value
        raise SpecError("ring must contain at least a zero element")
    order = _checked_order(Counter(len(m) for m in members), caps)
    form = row_form(order)
    join = b"".join if form is bytes else lambda parts: tuple(itertools.chain.from_iterable(parts))
    vectors = list(itertools.product(*members))
    index = {v: i for i, v in enumerate(vectors)}

    tables, strides, zero_at = [], [], []
    stride = order
    for factor, coeffs in zip(factors, members):
        stride //= len(coeffs)  # element x holds position x // stride % len(coeffs) at this coordinate
        pos = {c: p for p, c in enumerate(coeffs)}
        table = [[pos.get(factor.add_table[a][b]) for b in coeffs] for a in coeffs]
        if any(None in row for row in table):
            raise SpecError("coefficient sets are not closed under addition")
        tables.append(table)
        strides.append(stride)
        zero_at.append(pos[factor.zero])
    z = sum(p * s for p, s in zip(zero_at, strides))
    # at[t][p]: the tuple holding position p at coordinate t and zero elsewhere
    at = [[z + (p - zp) * s for p in range(len(table))] for table, s, zp in zip(tables, strides, zero_at)]

    as_map, apply = composer(order)
    add = [None] * order
    add[z] = form(range(order))
    below = [z]  # the tuples zero at coordinate t and before
    for t in reversed(range(len(tables))):
        table, s = tables[t], strides[t]
        m = len(table)
        digits = [p for p in range(m) for _ in range(s)] * (order // (m * s))
        for p, x in enumerate(at[t]):
            if x != z:
                shift = [(r - q) * s for q, r in enumerate(table[p])]
                add[x] = form(map(plus, range(order), map(shift.__getitem__, digits)))  # y + shift, in C
                then_x = as_map(add[x])
                for y in below:
                    if y != z:
                        add[x + y - z] = apply(add[y], then_x)
        below = [x + y - z for x in at[t] for y in below]

    monomials = [x for line in at for x in line if x != z]
    products = {a: {z: z} for a in monomials}  # products[a][b] = ab for monomials a, b and for b = 0
    for a in monomials:
        for b in monomials:
            c = index.get(mul_vec(vectors[a], vectors[b]))
            if c is None:
                raise SpecError("coefficient sets are not closed under multiplication")
            products[a][b] = c

    def row_of(x):
        parts = [products[a] for a in (line[x // s % len(line)] for line, s in zip(at, strides)) if a != z]
        row = form([z])
        for line in reversed(at):  # the row on the tuples zero before coordinate t, from the last t
            xm = [reduce(lambda u, am: add[u][am[m]], parts, z) for m in line]
            row = join([apply(row, as_map(add[v])) for v in xm])
        return row

    names = list(map(name_vec, vectors))
    return make_ring(add, left_rows(order, row_of), names, caps=caps), index


def product(*rings: FiniteRing, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Direct product with componentwise operations."""
    if not rings:
        raise SpecError("product needs at least one factor")
    muls = [r.mul_table for r in rings]
    names = [r.names for r in rings]

    def mul_vec(x, y):
        return tuple(map(getitem, map(getitem, muls, x), y))

    def name_vec(v):
        return "(" + ",".join(map(getitem, names, v)) + ")"

    return _tuple_ring(rings, [r.elements() for r in rings], mul_vec, name_vec, caps)[0]


def mat_positions(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n)]


def tri_positions(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _matrix_ring(base: FiniteRing, n: int, positions, caps: Caps) -> FiniteRing:
    pos_index = {p: t for t, p in enumerate(positions)}

    def entry(vec, i, j):
        t = pos_index.get((i, j))
        return base.zero if t is None else vec[t]

    def mul_vec(x, y):
        out = []
        for (i, j) in positions:
            acc = base.zero
            for k in range(n):
                acc = base.add(acc, base.mul(entry(x, i, k), entry(y, k, j)))
            out.append(acc)
        return tuple(out)

    def name_vec(vec):
        rows = []
        for i in range(n):
            rows.append("[" + ",".join(base.name(entry(vec, i, j)) for j in range(n)) + "]")
        return "[" + ",".join(rows) + "]"

    length = len(positions)
    return _tuple_ring([base] * length, [base.elements()] * length, mul_vec, name_vec, caps)[0]


def mat(base: FiniteRing, n: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Full n-by-n matrix ring over a base ring; entries row-major."""
    if n < 1:
        raise SpecError("matrix size must be positive")
    _checked_order({base.order: n * n}, caps)
    return _matrix_ring(base, n, mat_positions(n), caps)


def tri(base: FiniteRing, n: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Upper-triangular n-by-n matrix ring; entries row-major above diagonal."""
    if n < 1:
        raise SpecError("matrix size must be positive")
    _checked_order({base.order: n * (n + 1) // 2}, caps)
    return _matrix_ring(base, n, tri_positions(n), caps)


def _group_ring(base: FiniteRing, group: FiniteGroup, members, caps: Caps):
    """The tuples of the group ring whose coefficient at group element x is
    drawn from members[x], under convolution; returns (ring, index) as
    _tuple_ring does."""
    g = group.order
    zero = base.zero

    def mul_vec(x, y):
        out = [zero] * g
        for i in range(g):
            if x[i] == zero:
                continue
            for j in range(g):
                if y[j] == zero:
                    continue
                k = group.op(i, j)
                out[k] = base.add(out[k], base.mul(x[i], y[j]))
        return tuple(out)

    def name_vec(vec):
        terms = [
            f"{base.name(vec[i])}*{group.name(i)}"
            for i in range(g)
            if vec[i] != zero
        ]
        return "+".join(terms) if terms else "0"

    return _tuple_ring([base] * g, members, mul_vec, name_vec, caps)


def grpalg(base: FiniteRing, group: FiniteGroup, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Group algebra of a finite group; elements map group indices to base
    coefficients."""
    return _group_ring(base, group, [base.elements()] * group.order, caps)[0]


def subring(ring: FiniteRing, elements: Iterable[int], caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Subring on a subset closed under addition and multiplication: the
    tuple ring of one coordinate whose coefficient set is the selection.
    A finite subset closed under addition is closed under negation too."""
    elems = sorted(set(elements))
    if not elems:
        raise SpecError("subring selection is empty")
    if elems[0] < 0 or elems[-1] >= ring.order:
        raise SpecError("subring selection is out of range")
    mul = ring.mul_table
    return _tuple_ring([ring], [elems], lambda x, y: (mul[x[0]][y[0]],), lambda v: ring.name(v[0]), caps)[0]


# ---------------------------------------------------------------------------
# subsets, closures, ideals


def _extend(ring: FiniteRing, mask: int, gens: Sequence[int], xmask: int):
    """Extend the additive subgroup mask, spanned by gens, by the elements of
    xmask.  Returns (mask, generators) of the span.

    Each new generator g not yet in the subgroup H adds the cosets H + kg for
    k = 1, 2, ... until kg falls in H (Dimino's coset extension), so each
    element of the result is produced once and every generator at least
    doubles the subgroup: there are at most log2(order) generators.
    """
    add = ring.add_table
    elems = list(bits(mask))
    gens = list(gens)
    rest = xmask & ~mask
    while rest:
        g = (rest & -rest).bit_length() - 1
        gens.append(g)
        base = elems
        elems = list(base)
        rep = g
        while not mask >> rep & 1:
            row = add[rep]
            coset = [row[h] for h in base]
            elems += coset
            for z in coset:
                mask |= 1 << z
            rep = row[g]
        rest &= ~mask
    return mask, gens


def _span(ring: FiniteRing, xmask: int):
    """(mask, generators) of the additive subgroup spanned by xmask."""
    return _extend(ring, ring.zero_mask, (), xmask)


def subgroup_closure(ring: FiniteRing, mask: int) -> int:
    """Additive closure of a subset, built coset by coset (_extend); always
    contains zero, and negatives arise as repeated sums."""
    return _span(ring, mask)[0]


def _gens(ring: FiniteRing, mask: int) -> list[int]:
    """Additive generators of the span of mask."""
    return _span(ring, mask)[1]


def _product_span(ring: FiniteRing, *factors: Sequence[int]) -> int:
    """The span of all products f1 f2 ... fk with fi in the span of the
    generator list factors[i].

    Multiplication is biadditive, so this is the span of the products of the
    generators alone.
    """
    mul = ring.mul_table
    terms = factors[0]
    for right in factors[1:]:
        terms = [mul[a][b] for a in terms for b in right]
    return _span(ring, mask_of(terms))[0]


def closed_product(ring: FiniteRing, amask: int, bmask: int) -> int:
    """All finite sums of products ab, as a mask."""
    return _product_span(ring, _gens(ring, amask), _gens(ring, bmask))


def is_ideal_mask(ring: FiniteRing, mask: int) -> bool:
    """Whether mask is an additive subgroup absorbing products on both sides."""
    return _ideal_gens(ring, mask, ring.additive_generators) is not None


def _ideal_gens(ring: FiniteRing, mask: int, actors: Sequence[int]) -> Optional[list[int]]:
    """Additive generators of mask if it is an additive subgroup absorbing
    products on both sides with the subring R whose additive generators are
    the actors, as in _ideal_span; else None.

    Once mask is known to be a subgroup, absorption is tested on additive
    generators of mask and the actors only: by biadditivity every product
    of their sums is a sum of those products.
    """
    closed, gens = _span(ring, mask)
    if closed != mask:
        return None
    mul = ring.mul_table
    for m in gens:
        for s in actors:
            if not mask >> mul[s][m] & 1:
                return None
            if not mask >> mul[m][s] & 1:
                return None
    return gens


def is_s_unital_module(ring: FiniteRing, acting: int, acted: int, side: str) -> bool:
    """Whether every m in acted lies in (sums of) acting*m ("left") or
    m*acting ("right").  Those sums are e*m or m*e for e in the span of
    acting, as multiplication by m is additive, so the span is listed once
    and scanned for each m up to the first e that fixes it."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    mul, units = ring.mul_table, list(bits(subgroup_closure(ring, acting)))
    if side == "left":
        rows = [mul[e] for e in units]
        return all(m in map(itemgetter(m), rows) for m in bits(acted))
    return all(m in map(mul[m].__getitem__, units) for m in bits(acted))


class Ideal(Frozen):
    """A two-sided ideal, validated on construction."""

    _fields = ("ring", "members")

    def __init__(self, ring: FiniteRing, members: int):
        if not is_ideal_mask(ring, members):
            raise SpecError("subset is not a two-sided ideal")
        vars(self).update(ring=ring, members=members)

    def __contains__(self, i: int) -> bool:
        return bool(self.members >> i & 1)

    def elements(self) -> Iterator[int]:
        return bits(self.members)

    @property
    def size(self) -> int:
        return self.members.bit_count()

    @property
    def is_proper(self) -> bool:
        return self.members != self.ring.full_mask

    @cached_property
    def _generators(self) -> list[int]:
        return _gens(self.ring, self.members)

    def __repr__(self) -> str:
        return f"Ideal({sorted(bits(self.members))})"


def _ideal_span(ring: FiniteRing, xmask: int, actors: Optional[Sequence[int]] = None):
    """(mask, generators) of the ideal generated by xmask in the subring R
    whose additive generators are the actors (default: the ring's own).

    That ideal is ZX + RX + XR + RXR, and by biadditivity it is the additive
    span of X u GX u XG u GXG for X the additive generators of xmask's span
    and G the actors, so one pass suffices and no unit is assumed.
    """
    mul = ring.mul_table
    actors = ring.additive_generators if actors is None else actors
    out = 0
    for x in _gens(ring, xmask):
        out |= 1 << x
        xrow = mul[x]
        for s in actors:
            sx = mul[s][x]
            out |= 1 << sx | 1 << xrow[s]
            sxrow = mul[sx]
            for t in actors:
                out |= 1 << sxrow[t]
    return _span(ring, out)


def generate_ideal(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Smallest two-sided ideal containing the generators."""
    mask = mask_of(g if 0 <= g < ring.order else ring.order for g in gens)  # any index out of range, negative too
    if mask >> ring.order:
        raise SpecError("generator index out of range")
    return Ideal(ring, _ideal_span(ring, mask)[0])


def _ideal_count_floor(ring: FiniteRing, components: Sequence[int]) -> int:
    """A lower bound on the number of graded ideals of the ring S, for
    components S_x whose direct sum is S (one component: all ideals), and
    on the number of invariant ideals of S_e, for the one component S_e.

    For a prime p dividing |S|, every additive subgroup H containing the
    graded M = S^2 + pS is an ideal, since SH + HS lies in S^2.  The graded
    H are the sums of H_x/M_x, subspaces of the F_p-spaces S_x/M_x; for one
    of dimension r there are sum_k [r choose k]_p of them, the Galois number
    G_r, with G_0 = 1, G_1 = 2 and G_{n+1} = 2 G_n + (p^n - 1) G_{n-1}.
    Every subgroup H with M_e inside H inside S_e is an invariant ideal of
    S_e, since S_e H, H S_e and S_{x^-1} H S_x all lie in (S^2)_e.  Such
    an H is fixed by its p-part, as M holds every other Sylow part, and a
    sum of one such p-part for each p contains S^2 again: the floor is the
    product of the counts over the primes.
    """
    gens = ring.additive_generators
    square = _product_span(ring, gens, gens)
    floor, rest, p = 1, ring.order, 1
    while rest > 1:
        p += 1
        if rest % p:
            continue
        while rest % p == 0:
            rest //= p
        multiples = 0
        for g in gens:
            x = ring.zero
            for _ in range(p):
                x = ring.add_table[x][g]
            multiples |= 1 << x
        m = _span(ring, square | multiples)[0]
        count = 1
        for comp in components:
            galois, last = 1, 1  # G_0, and G_{-1} taken as 1 so the step gives G_1 = 2
            for n in range(round(math.log(comp.bit_count() // (comp & m).bit_count(), p))):
                galois, last = 2 * galois + (p**n - 1) * last, galois
            count *= galois
        floor *= count
    return floor


# Family, lattice and product caches are keyed by ring, so they are bounded:
# a long-lived process would otherwise keep every lattice it ever computed.
# Each family and each lattice has one key, (ring, components, actors,
# conjugators): an empty tuple of conjugators closes nothing, so it is S's own.
@lru_cache(maxsize=16)
def _principal_ideals(ring: FiniteRing, components: tuple, actors: tuple, conjugators: tuple) -> dict:
    """A generating family of the principal ideals of the components'
    elements, in the subring spanned by the actors (_ideal_span), mask ->
    generators: those that are not the sum of the principal ideals strictly
    inside them (so not the zero ideal).  By induction on size, each
    principal ideal is the sum of the members inside it, so every sum of
    principal ideals is a sum of members.  Hence the family stands exactly
    for those sums: in their join closure, in the pair tests of
    is_prime_among, in the ideal-symmetry identities, whose sides are
    additive in the ideal, and in is_fully_idempotent.  Given conjugators,
    each member J is replaced by its _invariant_span, and sums of those are
    the invariant ideals; () is S's own key.  The dict is shared by every
    caller with the same key, so none may change it.
    """
    if conjugators:
        family = _principal_ideals(ring, components, actors, ())
        return dict(_invariant_span(ring, m, gens, conjugators) for m, gens in family.items())
    spans = {a: _ideal_span(ring, 1 << a, actors) for comp in components for a in bits(comp)}
    of = {a: span[0] for a, span in spans.items()}
    elements = reduce(or_, components, 0)

    def below(p: int) -> int:  # the sum of the principal ideals strictly inside p
        return _span(ring, reduce(or_, (of[a] for a in bits(p & elements) if of[a] != p), 0))[0]

    return {p: gens for p, gens in dict(spans.values()).items() if below(p) != p}


def _family(ring: FiniteRing, components: tuple) -> dict[int, list[int]]:
    """S's generating family of principal ideals of the components' elements."""
    return _principal_ideals(ring, components, ring.additive_generators, ())


def _invariant_span(ring: FiniteRing, jmask: int, jgens: Sequence[int], conjugators: tuple) -> tuple[int, list[int]]:
    """(mask, generators) of J + sum_x S_{x^-1} J S_x for the ideal J of the
    identity component S_e spanned by jgens, and conjugators the pairs
    (generators of S_{x^-1}, generators of S_x) for x != e in the support
    with S_{x^-1} nonzero; elsewhere S_{x^-1} J S_x = 0, and S_e J S_e lies
    in J.  It is the least invariant ideal of S_e over J, since S_{y^-1}
    S_{x^-1} lies in S_{(xy)^-1}: one span of J and the products of
    generators."""
    mul = ring.mul_table
    products = (mul[mul[a][j]][b] for left, right in conjugators for a in left for j in jgens for b in right)
    return _span(ring, jmask | mask_of(products))


def _join_closure(ring: FiniteRing, principals: Mapping[int, Sequence[int]], caps: Caps) -> dict[int, list[int]]:
    """The sums of the ideals of a map mask -> additive generators, as such a
    map sorted by mask: the closure of the zero ideal under joins with them."""
    lattice = {ring.zero_mask: []}
    for pmask, pgens in principals.items():
        xmask = mask_of(pgens)
        for mask, gens in list(lattice.items()):
            if pmask & ~mask:
                join, join_gens = _extend(ring, mask, gens, xmask)
                if join not in lattice:
                    lattice[join] = join_gens
                    if len(lattice) > caps.max_ideals:
                        raise CapError(f"ideal lattice exceeds cap {caps.max_ideals}")
    return dict(sorted(lattice.items()))


@lru_cache(maxsize=16)
def _lattice(ring: FiniteRing, components: tuple, actors: tuple, conjugators: tuple, caps: Caps) -> dict:
    """The sums of the members of _principal_ideals under the same key, mask
    -> generators sorted by mask, refused before enumeration when the
    components' _ideal_count_floor exceeds the cap.  Shared, so read-only."""
    if _ideal_count_floor(ring, components) > caps.max_ideals:
        raise CapError(f"ideal lattice exceeds cap {caps.max_ideals}")
    return _join_closure(ring, _principal_ideals(ring, components, actors, conjugators), caps)


def all_ideals(ring: FiniteRing, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """The ideal lattice as sorted masks: every ideal joins the principal ideals of its elements."""
    return tuple(_lattice(ring, (ring.full_mask,), ring.additive_generators, (), caps))


# The lattice cache's counters and its reset, read and called through the public name.
all_ideals.cache_info, all_ideals.cache_clear = _lattice.cache_info, _lattice.cache_clear


@lru_cache(maxsize=1024)
def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """The ideal AB: all finite sums of products ab."""
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    return Ideal(a.ring, _product_span(a.ring, a._generators, b._generators))


# ---------------------------------------------------------------------------
# primeness


def _restrict(mask: int, subset: Optional[int]) -> list[int]:
    return list(bits(mask if subset is None else mask & subset))


def is_m_system(
    ring: FiniteRing,
    tmask: int,
    candidates: Optional[int] = None,
    middles: Optional[int] = None,
) -> bool:
    """Whether T is an m-system: a,b in T admit ab in T or asb in T.

    Only a, b in the candidates mask and s in the middles mask are
    considered; both default to the whole ring.  The middles are searched
    only for the a whose products ab do not all lie in T, a test in C.
    """
    mul = ring.mul_table
    members = _restrict(tmask, candidates)
    if not members:
        return True
    mids = _restrict(ring.full_mask, middles)
    inside = set(bits(tmask))
    products = itemgetter(*members, members[0])  # a tuple, also for one member
    for a in members:
        arow = mul[a]
        if inside.issuperset(products(arow)):
            continue
        for b in members:
            if tmask >> arow[b] & 1:
                continue
            if not any(tmask >> mul[arow[s]][b] & 1 for s in mids):
                return False
    return True


def _check_proper_ideal(ring: FiniteRing, p: Ideal) -> None:
    if p.ring != ring:
        raise ValueError("ideal belongs to a different ring")
    if not p.is_proper:
        raise ValueError("ideal must be proper")


def is_prime_ideal(ring: FiniteRing, p: Ideal) -> bool:
    """Primeness of a proper ideal via the m-system on its complement."""
    _check_proper_ideal(ring, p)
    return is_m_system(ring, ring.full_mask & ~p.members)


def is_prime_among(ring: FiniteRing, pmask: int, ideals: Mapping[int, Sequence[int]]) -> bool:
    """Whether AB inside P forces A or B inside P, for A and B ranging over
    the given ideals, a map from each ideal's mask to its additive
    generators; P must be an additive subgroup.  This is the G-primeness
    test's loop over pairs of ideals.  Ideals F drawn from a class give
    the class's verdict when every ideal of the class is a sum of members
    of F: if AB lies in P while A and B do not, some members A' inside A
    and B' inside B are not in P either, and A'B' lies in AB, so in P.  The
    principal ideals of homogeneous elements are such a family for the
    graded ideals, and the invariant closures of the principal ideals of
    S_e for the invariant ideals of S_e.
    """
    mul = ring.mul_table
    outside = [gens for mask, gens in ideals.items() if mask | pmask != pmask]
    for ga in outside:
        for gb in outside:
            if all(pmask >> mul[x][y] & 1 for x in ga for y in gb):
                return False
    return True


def is_prime_ring(ring: FiniteRing) -> bool:
    """Whether the zero ideal is prime."""
    if ring.order == 1:
        raise ValueError("the zero ring is neither prime nor not prime")
    return is_prime_ideal(ring, Ideal(ring, ring.zero_mask))


def is_fully_idempotent(ring: FiniteRing) -> bool:
    """Whether every ideal I satisfies I*I = I, decided on the generating
    family of _principal_ideals: I is the sum of the members F inside it,
    so I*I contains the sum of the F*F, which is I when each F*F = F."""
    family = _family(ring, (ring.full_mask,))
    return all(_product_span(ring, gens, gens) == mask for mask, gens in family.items())

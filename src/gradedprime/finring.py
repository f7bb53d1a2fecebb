"""Finite, possibly nonunital rings given by explicit Cayley tables.

Elements of a ring of order n are the indices 0..n-1 and subsets of a ring
are int bitmasks (bit i set means element i is in the subset).  Every ring
axiom is checked exhaustively at construction time, so any FiniteRing in
circulation is known-good.  All values are immutable and all operations are
pure functions, safe for concurrent use.

Element index conventions of the built-in constructors (these are a public
contract, since spec files refer to elements by index):

* ``gf(q)`` with q = p^k: element i has polynomial coefficients equal to the
  base-p digits of i, least significant digit first; for k > 1 arithmetic is
  modulo the first irreducible monic polynomial in coefficient order.
* ``zmod(n)``: element i is the residue i.
* ``product``, ``mat``, ``tri``, ``grpalg``: elements are coefficient tuples
  (factors, matrix entries row-major, upper-triangular entries row-major,
  group elements in index order) encoded in mixed radix with the *last*
  coordinate varying fastest, like ``itertools.product``.  All of them, and
  the filter subrings of group rings, come from one tuple-ring builder;
  ``grpalg`` is the filter subring whose every coefficient set is the whole
  base ring.
* ``subring``: elements are the chosen base-ring indices in ascending order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CapError, SpecError
from .groups import FiniteGroup


@dataclass(frozen=True)
class Caps:
    """Resource limits; exceeding one raises CapError, never truncates."""

    max_ring_order: int = 256
    max_ideals: int = 65536


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


@dataclass(frozen=True)
class FiniteRing:
    order: int
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]
    zero: int
    neg_table: tuple[int, ...]
    unit: Optional[int]
    names: tuple[str, ...]
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        h = hash((self.order, self.zero, self.unit, self.add_table, self.mul_table))
        object.__setattr__(self, "_hash", h)

    def __hash__(self) -> int:
        return self._hash

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def mul(self, x: int, y: int) -> int:
        return self.mul_table[x][y]

    def neg(self, x: int) -> int:
        return self.neg_table[x]

    def sub(self, x: int, y: int) -> int:
        return self.add_table[x][self.neg_table[y]]

    def mul3(self, a: int, s: int, b: int) -> int:
        return self.mul_table[self.mul_table[a][s]][b]

    def sum(self, items: Iterable[int]) -> int:
        acc = self.zero
        for x in items:
            acc = self.add_table[acc][x]
        return acc

    def elements(self) -> range:
        return range(self.order)

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    @property
    def zero_mask(self) -> int:
        return 1 << self.zero

    def name(self, i: int) -> str:
        return self.names[i]

    def __repr__(self) -> str:
        kind = "unital" if self.unit is not None else "nonunital"
        return f"FiniteRing(order={self.order}, {kind})"


def make_ring(
    add_rows: Sequence[Sequence[int]],
    mul_rows: Sequence[Sequence[int]],
    names: Optional[Sequence[str]] = None,
    caps: Caps = DEFAULT_CAPS,
) -> FiniteRing:
    """Build a ring from raw tables, verifying every axiom exhaustively.

    The additive identity, negation table and (optional) two-sided unit are
    derived from the tables rather than taken on trust.
    """
    n = len(add_rows)
    if n == 0:
        raise SpecError("ring must contain at least a zero element")
    if n > caps.max_ring_order:
        raise CapError(f"ring order {n} exceeds cap {caps.max_ring_order}")
    rows = (*add_rows, *mul_rows)
    if len(mul_rows) != n or any(len(row) != n for row in rows):
        raise SpecError("tables must be square and of equal size")
    # range-checked before the int16 cast, which overflows on large entries
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
        raise SpecError("table entries must be element indices")
    add = np.asarray(add_rows, dtype=np.int16)
    mul = np.asarray(mul_rows, dtype=np.int16)
    if not (add == add.T).all():
        raise SpecError("addition is not commutative")
    if not (add[add, :] == add[:, add]).all():
        raise SpecError("addition is not associative")
    rng = np.arange(n, dtype=np.int16)
    zeros = np.nonzero((add == rng).all(axis=1))[0]
    if len(zeros) != 1:
        raise SpecError("addition has no identity element")
    zero = int(zeros[0])
    neg = []
    for x in range(n):
        ys = np.nonzero(add[x] == zero)[0]
        if len(ys) != 1:
            raise SpecError(f"element {x} has no unique additive inverse")
        neg.append(int(ys[0]))
    if not (mul[mul, :] == mul[:, mul]).all():
        raise SpecError("multiplication is not associative")
    if not (mul[:, add] == add[mul[:, :, None], mul[:, None, :]]).all():
        raise SpecError("left distributivity fails")
    if not (mul[add, :] == add[mul[:, None, :], mul[None, :, :]]).all():
        raise SpecError("right distributivity fails")
    unit = None
    for u in range(n):
        if (mul[u] == rng).all() and (mul[:, u] == rng).all():
            unit = u
            break
    if names is None:
        names = tuple(str(i) for i in range(n))
    else:
        names = tuple(names)
        if len(names) != n:
            raise SpecError("wrong number of element names")
    return FiniteRing(
        order=n,
        add_table=tuple(tuple(int(v) for v in row) for row in add),
        mul_table=tuple(tuple(int(v) for v in row) for row in mul),
        zero=zero,
        neg_table=tuple(neg),
        unit=unit,
        names=names,
    )


# ---------------------------------------------------------------------------
# constructors


def zmod(n: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """The ring of integers modulo n."""
    if n < 1:
        raise SpecError("modulus must be positive")
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return make_ring(add, mul, caps=caps)


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m is monic
    a = list(a)
    dm = len(m) - 1
    while a and len(a) - 1 >= dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
        _poly_trim(a)
    return a


def _is_irreducible(m, p):
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=d):
            div = list(coeffs) + [1]
            # trial division: remainder of m by div
            if not _poly_mod(m, div, p):
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
        ring = zmod(p, caps=caps)
        return ring
    modpoly = None
    for coeffs in itertools.product(range(p), repeat=k):
        cand = list(coeffs) + [1]
        if _is_irreducible(cand, p):
            modpoly = cand
            break
    assert modpoly is not None
    if q > caps.max_ring_order:
        raise CapError(f"ring order {q} exceeds cap {caps.max_ring_order}")

    def digits(i):
        out = []
        for _ in range(k):
            out.append(i % p)
            i //= p
        return out

    def encode(poly):
        return sum(c * p**j for j, c in enumerate(poly))

    def poly_name(poly):
        terms = []
        for j in range(len(poly) - 1, -1, -1):
            c = poly[j]
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                var = "a" if j == 1 else f"a^{j}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"

    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    polys = [_poly_trim(digits(i)) for i in range(q)]
    for i in range(q):
        for j in range(q):
            s = [0] * k
            for t, c in enumerate(polys[i]):
                s[t] = (s[t] + c) % p
            for t, c in enumerate(polys[j]):
                s[t] = (s[t] + c) % p
            add[i][j] = encode(s)
            mul[i][j] = encode(_poly_mod(_poly_mul(polys[i], polys[j], p), modpoly, p))
    names = [poly_name(polys[i]) for i in range(q)]
    return make_ring(add, mul, names, caps=caps)


def _tuple_ring(factors, members, mul_vec, name_vec, caps: Caps):
    """The ring of tuples whose coordinate t is drawn from members[t], a
    list of elements of the ring factors[t], added componentwise and
    multiplied by mul_vec.

    Returns (ring, index) with index mapping each tuple to its element.
    Nothing is validated up front: a sum or product leaving the tuples
    raises SpecError.
    """
    order = 1
    for m in members:
        order *= len(m)
    if order > caps.max_ring_order:
        raise CapError(f"ring order {order} exceeds cap {caps.max_ring_order}")
    vectors = list(itertools.product(*members))
    index = {v: i for i, v in enumerate(vectors)}
    adds = [f.add_table for f in factors]
    coords = range(len(factors))

    def element(v, what):
        i = index.get(v)
        if i is None:
            raise SpecError(f"coefficient sets are not closed under {what}")
        return i

    add = [
        [element(tuple(adds[t][x[t]][y[t]] for t in coords), "addition") for y in vectors]
        for x in vectors
    ]
    mul = [[element(mul_vec(x, y), "multiplication") for y in vectors] for x in vectors]
    names = [name_vec(v) for v in vectors]
    return make_ring(add, mul, names, caps=caps), index


def product(*rings: FiniteRing, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Direct product with componentwise operations."""
    if not rings:
        raise SpecError("product needs at least one factor")
    muls = [r.mul_table for r in rings]
    coords = range(len(rings))

    def mul_vec(x, y):
        return tuple(muls[t][x[t]][y[t]] for t in coords)

    def name_vec(v):
        return "(" + ",".join(rings[t].name(v[t]) for t in coords) + ")"

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
    return _matrix_ring(base, n, mat_positions(n), caps)


def tri(base: FiniteRing, n: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """Upper-triangular n-by-n matrix ring; entries row-major above diagonal."""
    if n < 1:
        raise SpecError("matrix size must be positive")
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


def induced_subring(ring: FiniteRing, elements: Iterable[int], caps: Caps = DEFAULT_CAPS):
    """Subring on a subset closed under addition, negation and multiplication.

    Returns (subring, old_indices) where old_indices[i] is the base-ring
    index of subring element i.
    """
    elems = sorted(set(elements))
    if not elems:
        raise SpecError("subring selection is empty")
    if elems[0] < 0 or elems[-1] >= ring.order:
        raise SpecError("subring selection is out of range")
    inset = set(elems)
    for x in elems:
        if ring.neg(x) not in inset:
            raise SpecError(f"selection is not closed under negation at {ring.name(x)}")
        for y in elems:
            if ring.add(x, y) not in inset:
                raise SpecError("selection is not closed under addition")
            if ring.mul(x, y) not in inset:
                raise SpecError("selection is not closed under multiplication")
    new_of = {old: i for i, old in enumerate(elems)}
    add = [[new_of[ring.add(x, y)] for y in elems] for x in elems]
    mul = [[new_of[ring.mul(x, y)] for y in elems] for x in elems]
    names = [ring.name(x) for x in elems]
    return make_ring(add, mul, names, caps=caps), tuple(elems)


def subring(ring: FiniteRing, elements: Iterable[int], caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    return induced_subring(ring, elements, caps=caps)[0]


# ---------------------------------------------------------------------------
# subsets, closures, ideals


def subgroup_closure(ring: FiniteRing, mask: int) -> int:
    """Additive closure of a subset; always contains zero.

    In a finite abelian group, closure under addition already yields a
    subgroup (negatives arise as repeated sums).
    """
    closed = mask | ring.zero_mask
    elems = list(bits(closed))
    add = ring.add_table
    i = 0
    while i < len(elems):
        x = elems[i]
        i += 1
        row = add[x]
        for y in elems[:i]:
            z = row[y]
            if not closed >> z & 1:
                closed |= 1 << z
                elems.append(z)
    return closed


def set_product(ring: FiniteRing, amask: int, bmask: int) -> int:
    """Raw pairwise products {ab}, no additive closure."""
    out = 0
    mul = ring.mul_table
    for a in bits(amask):
        row = mul[a]
        for b in bits(bmask):
            out |= 1 << row[b]
    return out


def closed_product(ring: FiniteRing, amask: int, bmask: int) -> int:
    """All finite sums of products ab, as a mask."""
    return subgroup_closure(ring, set_product(ring, amask, bmask))


def is_additive_subgroup(ring: FiniteRing, mask: int) -> bool:
    if not mask >> ring.zero & 1:
        return False
    members = list(bits(mask))
    add = ring.add_table
    for x in members:
        row = add[x]
        for y in members:
            if not mask >> row[y] & 1:
                return False
    return True


def is_ideal_mask(ring: FiniteRing, mask: int, acting: Optional[int] = None) -> bool:
    """Whether mask is an additive subgroup absorbing products with the
    acting elements (default: the whole ring) on both sides."""
    if not is_additive_subgroup(ring, mask):
        return False
    mul = ring.mul_table
    actors = ring.elements() if acting is None else list(bits(acting))
    for m in bits(mask):
        for s in actors:
            if not mask >> mul[s][m] & 1:
                return False
            if not mask >> mul[m][s] & 1:
                return False
    return True


@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal, validated on construction."""

    ring: FiniteRing
    members: int

    def __post_init__(self):
        if not is_ideal_mask(self.ring, self.members):
            raise SpecError("subset is not a two-sided ideal")

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

    @property
    def is_zero(self) -> bool:
        return self.members == self.ring.zero_mask

    def __le__(self, other: "Ideal") -> bool:
        return self.members | other.members == other.members

    def __repr__(self) -> str:
        return f"Ideal({sorted(bits(self.members))})"


def zero_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, ring.zero_mask)


def full_ideal(ring: FiniteRing) -> Ideal:
    return Ideal(ring, ring.full_mask)


def generate_ideal(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Smallest two-sided ideal containing the generators.

    Iterates additive closure and two-sided absorption to a fixpoint, so no
    unit is ever assumed: the integer-multiple part of the generated ideal
    comes from the additive closure step.
    """
    mask = mask_of(gens)
    if mask >> ring.order:
        raise SpecError("generator index out of range")
    current = subgroup_closure(ring, mask)
    mul = ring.mul_table
    while True:
        grow = current
        for m in bits(current):
            for s in ring.elements():
                grow |= 1 << mul[s][m]
                grow |= 1 << mul[m][s]
        grow = subgroup_closure(ring, grow)
        if grow == current:
            return Ideal(ring, current)
        current = grow


@lru_cache(maxsize=None)
def all_ideals(ring: FiniteRing, caps: Caps = DEFAULT_CAPS) -> tuple[Ideal, ...]:
    """The complete ideal lattice, canonically ordered by bitmask.

    Computed as the join-closure of all principal ideals, which is correct
    for any finite ring.
    """
    lattice = {ring.zero_mask}
    for a in ring.elements():
        lattice.add(generate_ideal(ring, (a,)).members)
        if len(lattice) > caps.max_ideals:
            raise CapError(f"ideal lattice exceeds cap {caps.max_ideals}")
    frontier = list(lattice)
    while frontier:
        fresh = []
        snapshot = list(lattice)
        for a in frontier:
            for b in snapshot:
                join = subgroup_closure(ring, a | b)
                if join not in lattice:
                    lattice.add(join)
                    fresh.append(join)
                    if len(lattice) > caps.max_ideals:
                        raise CapError(
                            f"ideal lattice exceeds cap {caps.max_ideals}"
                        )
        frontier = fresh
    return tuple(Ideal(ring, m) for m in sorted(lattice))


@lru_cache(maxsize=None)
def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """The ideal AB: all finite sums of products ab."""
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    return Ideal(a.ring, closed_product(a.ring, a.members, b.members))


def triple_product(ring: FiniteRing, amask: int, bmask: int, cmask: int) -> int:
    """All finite sums of products abc, as a mask."""
    return subgroup_closure(ring, set_product(ring, set_product(ring, amask, bmask), cmask))


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    return Ideal(a.ring, subgroup_closure(a.ring, a.members | b.members))


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    return Ideal(a.ring, a.members & b.members)


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
    considered; both default to the whole ring.
    """
    mul = ring.mul_table
    members = _restrict(tmask, candidates)
    mids = _restrict(ring.full_mask, middles)
    for a in members:
        arow = mul[a]
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


def prime_element_criterion(ring: FiniteRing, p: Ideal, candidates: Optional[int] = None) -> bool:
    """Elementwise criterion: aSb in P and ab in P force a in P or b in P.

    Only a, b in the candidates mask (default: the whole ring) are tested;
    the middle factor always ranges over the whole ring.
    """
    _check_proper_ideal(ring, p)
    pm = p.members
    mul = ring.mul_table
    outside = _restrict(ring.full_mask & ~pm, candidates)
    for a in outside:
        arow = mul[a]
        for b in outside:
            if not pm >> arow[b] & 1:
                continue
            if all(pm >> mul[arow[s]][b] & 1 for s in ring.elements()):
                return False
    return True


def is_prime_among(ring: FiniteRing, pmask: int, ideals: Iterable[int]) -> bool:
    """Whether AB inside P forces A or B inside P, for A and B ranging over
    the given ideal masks."""
    outside = [a for a in ideals if a | pmask != pmask]
    for a in outside:
        for b in outside:
            if closed_product(ring, a, b) | pmask == pmask:
                return False
    return True


def is_prime_ideal_by_pairs(ring: FiniteRing, p: Ideal, caps: Caps = DEFAULT_CAPS) -> bool:
    """Primeness via the defining quantification over all ideal pairs."""
    _check_proper_ideal(ring, p)
    return is_prime_among(ring, p.members, (i.members for i in all_ideals(ring, caps)))


def is_prime_ring(ring: FiniteRing) -> bool:
    """Whether the zero ideal is prime."""
    if ring.order == 1:
        raise ValueError("the zero ring is neither prime nor not prime")
    return is_prime_ideal(ring, zero_ideal(ring))


def is_fully_idempotent(ring: FiniteRing, caps: Caps = DEFAULT_CAPS) -> bool:
    """Whether every ideal I satisfies I*I = I.

    Also evaluates the pairwise criterion IJ = (I intersect J) and insists
    the two agree; disagreement would be an implementation bug.
    """
    lattice = all_ideals(ring, caps)
    squares = all(ideal_product(i, i) == i for i in lattice)
    pairwise = all(
        ideal_product(i, j).members == i.members & j.members
        for i in lattice
        for j in lattice
    )
    if squares != pairwise:
        raise RuntimeError("idempotent-ideal criteria disagree; internal bug")
    return squares


def center(ring: FiniteRing) -> tuple[int, ...]:
    """Elements commuting with the whole ring, ascending."""
    return tuple(
        z
        for z in ring.elements()
        if all(ring.mul(z, r) == ring.mul(r, z) for r in ring.elements())
    )


def is_von_neumann_regular(ring: FiniteRing, elements: Optional[Iterable[int]] = None) -> bool:
    """Whether every a in the given subset has x there with axa = a.

    With no subset given, the whole ring is tested; witnesses x are drawn
    from the same subset, so passing a subring tests that subring.
    """
    elems = list(ring.elements()) if elements is None else sorted(set(elements))
    for a in elems:
        if not any(ring.mul3(a, x, a) == a for x in elems):
            return False
    return True

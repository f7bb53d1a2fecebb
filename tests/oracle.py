"""Earlier versions of gradedprime's kernels, kept as the references the
differential tests compare against.

The additive-subgroup kernel from before it moved to additive generators:
closure by pairwise sums, the subgroup test over all pairs, absorption over
every member and every acting element, ideal generation iterated to a
fixpoint and the lattice as the join-closure of all principal ideals.  Only
the unbounded cache on ``all_ideals`` is left off.

The table validators from before they became one generator-based check:
``make_ring`` tests every ring axiom on all pairs and triples with numpy,
and ``group_from_table`` tests associativity on all triples in Python.

The tuple-ring builder from before it filled its tables from monomial
products: ``_tuple_ring`` sums every pair of tuples coordinate by
coordinate and calls ``mul_vec`` on every pair.  Its tables go through this
module's ``make_ring``, which accepts the same tables as the library's and
builds an equal ring from them.

The function bodies are unchanged from those versions.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

import numpy as np

from gradedprime.errors import CapError, SpecError
from gradedprime.finring import DEFAULT_CAPS, Caps, FiniteRing, Ideal, bits, mask_of
from gradedprime.groups import FiniteGroup


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


def group_from_table(op_rows: Sequence[Sequence[int]], names=None) -> FiniteGroup:
    """Build a finite group from its operation table, validating the axioms."""
    n = len(op_rows)
    if n == 0:
        raise SpecError("group must be nonempty")
    table = tuple(tuple(int(v) for v in row) for row in op_rows)
    for row in table:
        if len(row) != n or any(v < 0 or v >= n for v in row):
            raise SpecError("group table is not square over 0..order-1")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise SpecError("group operation is not associative")
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise SpecError("group has no identity element")
    inv = []
    for x in range(n):
        ys = [y for y in range(n) if table[x][y] == identity]
        if len(ys) != 1:
            raise SpecError(f"element {x} has no unique inverse")
        inv.append(ys[0])
    if names is None:
        names = tuple(str(i) for i in range(n))
    else:
        names = tuple(names)
        if len(names) != n:
            raise SpecError("wrong number of element names")
    return FiniteGroup(n, table, identity, tuple(inv), names)


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

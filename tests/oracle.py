"""The additive-subgroup kernel of gradedprime before it moved to additive
generators, kept as the reference the differential tests compare against.

The function bodies are unchanged from that version: closure by pairwise
sums, the subgroup test over all pairs, absorption over every member and
every acting element, ideal generation iterated to a fixpoint and the
lattice as the join-closure of all principal ideals.  Only the unbounded
cache on ``all_ideals`` is left off.
"""

from __future__ import annotations

from typing import Iterable, Optional

from gradedprime.errors import CapError, SpecError
from gradedprime.finring import DEFAULT_CAPS, Caps, FiniteRing, Ideal, bits, mask_of


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

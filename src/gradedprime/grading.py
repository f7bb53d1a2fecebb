"""Group gradings of finite rings.

A grading is an internal direct-sum decomposition into additive subgroups
indexed by group elements, with components multiplying into the component of
the product index.  A grading is kept as its component masks alone: a direct
sum, of the components or of an ideal's meets with them, is decided by counting.

Integer gradings store only their finite support; a missing index means the
zero component.

The grading classes are statements about the pairs (S_x, S_{x^-1}): one kernel,
_pair_classes and _is_ideally_symmetric, decides them on a set of distinct
pairs, here and for a filter's pairs (I_x, I_{x^-1}) in grfilter.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import SpecError
from .finring import (
    Caps,
    DEFAULT_CAPS,
    FiniteRing,
    Ideal,
    _check_proper_ideal,
    _family,
    _gens,
    _lattice,
    _product_span,
    _span,
    closed_product,
    is_m_system,
    is_s_unital_module,
    mask_of,
    subgroup_closure,
)
from .frozen import Frozen
from .groups import FiniteGroup, IntegerGroup, Z

GradingGroup = Union[FiniteGroup, IntegerGroup]


class GradingClassification(NamedTuple):
    strongly: bool
    symmetrically: bool
    ideally_symmetrically: bool
    nearly_epsilon_strongly: bool


class GradedRing(Frozen):
    """A finite ring with a validated group grading.

    Instances are immutable; construct them through :func:`attach_grading`.
    Caches key on them by identity, since the components dict cannot be hashed.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, ring: FiniteRing, group: GradingGroup, components: dict, support: tuple):
        vars(self).update(ring=ring, group=group, components=components, support=support)

    def component(self, x) -> int:
        """Mask of the component at group element x ({0} when absent)."""
        return self.components.get(x, self.ring.zero_mask)

    @property
    def e(self):
        return self.group.identity

    @property
    def e_mask(self) -> int:
        return self.component(self.group.identity)

    @cached_property
    def homogeneous_mask(self) -> int:
        out = self.ring.zero_mask
        for m in self.components.values():
            out |= m
        return out

    @cached_property
    def component_masks(self) -> tuple:
        """The masks of the components in the support, in support order."""
        return tuple(self.components[x] for x in self.support)

    @cached_property
    def component_generators(self) -> dict:
        """Additive generators of each component in the support and of S_e,
        an empty list when S_e = 0."""
        return {self.e: [], **{x: _gens(self.ring, self.components[x]) for x in self.support}}

    def __repr__(self):
        return f"GradedRing(order={self.ring.order}, group={self.group!r}, support={list(self.support)})"


def attach_grading(ring: FiniteRing, group: GradingGroup, components: Mapping) -> GradedRing:
    """Validate a decomposition and return the graded ring.

    Rejects component families that are not additive subgroups, do not give
    an internal direct sum, or fail multiplicativity.
    """
    comps = {}
    for x, val in components.items():
        if group.is_finite:
            if not isinstance(x, int) or not 0 <= x < group.order:
                raise SpecError(f"{x!r} is not a group element index")
        elif not isinstance(x, int):
            raise SpecError("integer grading requires int degrees")
        # an index out of range, negative or past the end, is read as ring.order
        mask = val if isinstance(val, int) else mask_of(i if 0 <= i < ring.order else ring.order for i in val)
        if mask >> ring.order:  # as is a negative mask
            raise SpecError("component contains out-of-range elements")
        if subgroup_closure(ring, mask) != mask:
            raise SpecError(f"component at {x} is not an additive subgroup")
        comps[x] = mask
    e = group.identity
    comps.setdefault(e, ring.zero_mask)
    support = tuple(sorted(x for x, m in comps.items() if m != ring.zero_mask))
    sizes = 1
    for x in support:
        sizes *= comps[x].bit_count()
    if sizes != ring.order:
        raise SpecError("components do not form a direct sum (size mismatch)")
    graded = GradedRing(ring, group, comps, support)
    # the sum map from the product of the components is additive between sets
    # of one size, so it is one-to-one exactly when it is onto
    if _span(ring, graded.homogeneous_mask)[0] != ring.full_mask:
        raise SpecError("components do not form a direct sum (sum collision)")
    # S_x S_y lies in the subgroup S_xy when the products of generators do,
    # by biadditivity
    mul, gens = ring.mul_table, graded.component_generators
    for x in support:
        for y in support:
            target = comps.get(group.op(x, y), ring.zero_mask)
            if not all(target >> mul[a][b] & 1 for a in gens[x] for b in gens[y]):
                raise SpecError(
                    f"components at {x} and {y} do not multiply into their product component"
                )
    return graded


def trivial_grading(ring: FiniteRing, group: GradingGroup = Z) -> GradedRing:
    """Everything concentrated in the identity component."""
    return attach_grading(ring, group, {group.identity: ring.full_mask})


def is_graded_ideal(graded: GradedRing, ideal: Ideal) -> bool:
    """Whether I is the sum of the I & S_x: that sum is direct and inside I,
    so it is all of I exactly when their sizes multiply to |I|."""
    if ideal.ring != graded.ring:
        raise ValueError("ideal belongs to a different ring")
    size = 1
    for m in graded.component_masks:
        size *= (ideal.members & m).bit_count()
    return size == ideal.size


def all_graded_ideals(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """The graded ideals as sorted masks: the sums of ideals of homogeneous elements."""
    ring = graded.ring
    return tuple(_lattice(ring, graded.component_masks, ring.additive_generators, (), caps))


def is_graded_m_system(graded: GradedRing, tmask: int) -> bool:
    """Graded m-system test: homogeneous a,b in T admit ab in T or asb in T
    for some homogeneous s."""
    hom = graded.homogeneous_mask
    return is_m_system(graded.ring, tmask, candidates=hom, middles=hom)


def is_graded_prime_ideal(graded: GradedRing, p: Ideal) -> bool:
    """Graded primeness of a proper graded ideal: whether its complement is
    a graded m-system.  That this agrees with the pair test over graded
    ideals and with the homogeneous element criterion (Nastasescu & Van
    Oystaeyen, LNM 1836) is checked in the tests."""
    _check_proper_ideal(graded.ring, p)
    if not is_graded_ideal(graded, p):
        raise ValueError("ideal is not graded")
    return is_graded_m_system(graded, graded.ring.full_mask & ~p.members)


def is_graded_prime_ring(graded: GradedRing) -> bool:
    """Whether the zero ideal is graded prime."""
    if graded.ring.order == 1:
        raise ValueError("the zero ring is neither prime nor not prime")
    return is_graded_prime_ideal(graded, Ideal(graded.ring, graded.ring.zero_mask))


# ---------------------------------------------------------------------------
# classification


def _is_strongly_graded(graded: GradedRing) -> bool:
    """Whether S_x S_y = S_xy for all x, y.  If some S_z = 0, then every
    S_w = S_z S_{z^-1 w} = 0, so when the support misses an element of G,
    as it always does for an infinite G, only the zero ring is strongly
    graded."""
    ring, group, at, support = graded.ring, graded.group, graded.component, graded.support
    if not group.is_finite or len(support) < group.order:
        return ring.order == 1
    return all(closed_product(ring, at(x), at(y)) == at(group.op(x, y)) for x in support for y in support)


def _component_pairs(graded: GradedRing) -> set[tuple[int, int]]:
    """The distinct (S_x, S_{x^-1}) over the support."""
    at, inverse = graded.component, graded.group.inverse
    return {(at(x), at(inverse(x))) for x in graded.support}


def _pair_classes(ring: FiniteRing, pairs: Iterable[tuple[int, int]]) -> tuple[bool, bool]:
    """(symmetric, nearly epsilon-strong) over pairs (A, B) = (S_x, S_{x^-1}):
    whether each ABA = A, and whether each A is s-unital as a left AB-module
    and a right BA-module.  A left s-unital A lies in ABA, so the first pair
    with ABA != A answers both."""
    nearly = True
    for a, b in pairs:
        ga, gb = _gens(ring, a), _gens(ring, b)
        if _product_span(ring, ga, gb, ga) != a:
            return False, False
        if nearly:
            ab, ba = _product_span(ring, ga, gb), _product_span(ring, gb, ga)
            nearly = is_s_unital_module(ring, ab, a, "left") and is_s_unital_module(ring, ba, a, "right")
    return True, nearly


def _is_ideally_symmetric(ring: FiniteRing, pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether ABK = K = KBA for each pair (A, B) = (S_x, S_{x^-1}) and each
    K = K'_x, K' a graded ideal.  It is enough to test K = P & A for P = <h>
    in the generating family of principal ideals of h in A: every <h> is
    graded (Nastasescu & Van Oystaeyen, LNM 1836, section 2), K'_x is the
    sum of the <h>_x over its elements h, each <h> is a sum of members, and
    both sides are additive in K."""
    for a, b in pairs:
        ga, gb = _gens(ring, a), _gens(ring, b)
        gab, gba = _gens(ring, _product_span(ring, ga, gb)), _gens(ring, _product_span(ring, gb, ga))
        for k in (p & a for p in _family(ring, (a,))):
            gk = _gens(ring, k)
            if not _product_span(ring, gab, gk) == k == _product_span(ring, gk, gba):
                return False
    return True


@lru_cache(maxsize=16)
def classify_grading(graded: GradedRing) -> GradingClassification:
    """Compute the four grading classes by exhaustive check."""
    pairs = _component_pairs(graded)
    symmetrically, nearly = _pair_classes(graded.ring, pairs)
    ideally = _is_ideally_symmetric(graded.ring, pairs)
    return GradingClassification(_is_strongly_graded(graded), symmetrically, ideally, nearly)

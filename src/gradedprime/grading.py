"""Group gradings of finite rings.

A grading is an internal direct-sum decomposition into additive subgroups
indexed by group elements, with components multiplying into the component of
the product index.  The decomposition of every ring element is precomputed at
attach time, so component access is a table lookup everywhere downstream.

Integer gradings store only their finite support; a missing index means the
zero component.
"""

from __future__ import annotations

import itertools
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
    _sums,
    bits,
    closed_product,
    generate_ideal,
    is_additive_subgroup,
    is_m_system,
    is_prime_among,
    is_s_unital_module,
    mask_of,
    prime_element_criterion,
    triple_product,
    zero_ideal,
)
from .groups import FiniteGroup, IntegerGroup, Z

GradingGroup = Union[FiniteGroup, IntegerGroup]


class GradingClassification(NamedTuple):
    strongly: bool
    symmetrically: bool
    ideally_symmetrically: bool
    nearly_epsilon_strongly: bool


class GradedRing:
    """A finite ring with a validated group grading.

    Instances are immutable; construct them through :func:`attach_grading`.
    """

    def __init__(self, ring, group, components, decomp, support):
        self.ring: FiniteRing = ring
        self.group: GradingGroup = group
        self.components: dict = components
        self.decomp: tuple = decomp
        self.support: tuple = support

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

    def components_of(self, s: int) -> dict:
        """The decomposition of s as a map x -> nonzero part, sorted by x."""
        return dict(sorted(self.decomp[s].items()))

    def e_part(self, s: int) -> int:
        return self.decomp[s].get(self.group.identity, self.ring.zero)

    def is_homogeneous(self, s: int) -> bool:
        return len(self.decomp[s]) <= 1

    @cached_property
    def component_masks(self) -> tuple:
        """The masks of the components in the support, in support order."""
        return tuple(self.components[x] for x in self.support)

    @cached_property
    def component_generators(self) -> dict:
        """Additive generators of each component in the support."""
        return {x: _gens(self.ring, self.components[x]) for x in self.support}

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
        # a negative index is out of range, so it is read as the index ring.order
        mask = val if isinstance(val, int) else mask_of(i if i >= 0 else ring.order for i in val)
        if mask >> ring.order:  # as is a negative mask
            raise SpecError("component contains out-of-range elements")
        if not is_additive_subgroup(ring, mask):
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
    decomp: list = [None] * ring.order
    for combo in itertools.product(*[list(bits(comps[x])) for x in support]):
        s = ring.sum(combo)
        if decomp[s] is not None:
            raise SpecError("components do not form a direct sum (sum collision)")
        decomp[s] = {x: part for x, part in zip(support, combo) if part != ring.zero}
    assert all(d is not None for d in decomp)
    graded = GradedRing(ring, group, comps, tuple(decomp), support)
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


def homogeneous_components(graded: GradedRing, s: int) -> dict:
    """The unique decomposition of s; summing the values gives back s."""
    return graded.components_of(s)


def is_graded_ideal(graded: GradedRing, ideal: Ideal) -> bool:
    """Whether every member's homogeneous components all lie in the ideal."""
    mask = ideal.members
    for m in bits(mask):
        for part in graded.decomp[m].values():
            if not mask >> part & 1:
                return False
    return True


def all_graded_ideals(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> tuple[Ideal, ...]:
    """The graded ideals, sorted: the sums of ideals of homogeneous elements."""
    return tuple(Ideal(graded.ring, m) for m in _sums(graded.ring, graded.component_masks, caps))


def generate_graded_ideal(graded: GradedRing, gens: Iterable[int]) -> Ideal:
    """Ideal generated by homogeneous elements; the result is always graded."""
    gens = list(gens)
    for g in gens:
        if not graded.is_homogeneous(g):
            raise ValueError(f"generator {graded.ring.name(g)} is not homogeneous")
    ideal = generate_ideal(graded.ring, gens)
    if not is_graded_ideal(graded, ideal):
        raise RuntimeError("homogeneously generated ideal is not graded; internal bug")
    return ideal


def is_graded_m_system(graded: GradedRing, tmask: int) -> bool:
    """Graded m-system test: homogeneous a,b in T admit ab in T or asb in T
    for some homogeneous s."""
    hom = graded.homogeneous_mask
    return is_m_system(graded.ring, tmask, candidates=hom, middles=hom)


def _check_proper_graded(graded: GradedRing, p: Ideal) -> None:
    _check_proper_ideal(graded.ring, p)
    if not is_graded_ideal(graded, p):
        raise ValueError("ideal is not graded")


def graded_prime_pair_test(graded: GradedRing, p: Ideal) -> bool:
    """Quantification over pairs of graded ideals, made over the generating
    family of principal ideals of homogeneous elements (is_prime_among):
    these are graded (Nastasescu & Van Oystaeyen, LNM 1836, 2), and their
    sums are every graded ideal."""
    return is_prime_among(graded.ring, p.members, _family(graded.ring, graded.component_masks))


def graded_prime_element_criterion(graded: GradedRing, p: Ideal) -> bool:
    """For homogeneous a,b: aSb in P and ab in P force a in P or b in P.

    The middle factor s ranges over the whole ring, not only over
    homogeneous elements.
    """
    return prime_element_criterion(graded.ring, p, candidates=graded.homogeneous_mask)


def is_graded_prime_ideal(graded: GradedRing, p: Ideal) -> bool:
    """Graded primeness of a proper graded ideal.

    Evaluates the pair quantification, the homogeneous element criterion and
    the graded m-system condition on the complement, and insists all three
    agree before returning the shared verdict.
    """
    _check_proper_graded(graded, p)
    by_pairs = graded_prime_pair_test(graded, p)
    by_elements = graded_prime_element_criterion(graded, p)
    by_msystem = is_graded_m_system(graded, graded.ring.full_mask & ~p.members)
    if not by_pairs == by_elements == by_msystem:
        raise RuntimeError("graded primeness criteria disagree; internal bug")
    return by_pairs


def is_graded_prime_ring(graded: GradedRing) -> bool:
    """Whether the zero ideal is graded prime."""
    if graded.ring.order == 1:
        raise ValueError("the zero ring is neither prime nor not prime")
    return is_graded_prime_ideal(graded, zero_ideal(graded.ring))


# ---------------------------------------------------------------------------
# classification


def _is_strongly_graded(graded: GradedRing) -> bool:
    ring = graded.ring
    group = graded.group
    if not group.is_finite:
        # Over the integers a nonzero ring with finite support always has
        # S_x = 0 somewhere while S_{x+y} != 0 is still reachable, so only
        # the zero ring is strongly graded.
        return ring.order == 1
    for x in group.elements():
        for y in group.elements():
            target = graded.component(group.op(x, y))
            if closed_product(ring, graded.component(x), graded.component(y)) != target:
                return False
    return True


def _is_symmetrically_graded(graded: GradedRing) -> bool:
    ring = graded.ring
    group = graded.group
    for x in graded.support:
        sx = graded.component(x)
        sxi = graded.component(group.inverse(x))
        if triple_product(ring, sx, sxi, sx) != sx:
            return False
    return True


def _is_ideally_symmetrically_graded(graded: GradedRing) -> bool:
    """Whether S_x S_{x^-1} K_x = K_x = K_x S_{x^-1} S_x for every graded
    ideal K and x in the support.  At x it holds for all K when it does for
    each K = <h> of the generating family of principal ideals of h in S_x:
    every <h> is graded (Nastasescu & Van Oystaeyen, LNM 1836, section 2),
    K_x is the sum of the <h>_x over its elements h, each <h> is a sum of
    members, and both sides are additive in K_x."""
    ring = graded.ring
    group = graded.group
    for x in graded.support:
        sx = graded.component(x)
        sxi = graded.component(group.inverse(x))
        for kx in (principal & sx for principal in _family(ring, (sx,))):
            if not triple_product(ring, sx, sxi, kx) == kx == triple_product(ring, kx, sxi, sx):
                return False
    return True


def _is_nearly_epsilon_strongly_graded(graded: GradedRing) -> bool:
    """Whether each S_x is s-unital as a left S_x S_{x^-1}-module and as a
    right S_{x^-1} S_x-module."""
    ring, at, inverse = graded.ring, graded.component, graded.group.inverse
    return all(
        is_s_unital_module(ring, closed_product(ring, at(x), at(inverse(x))), at(x), "left")
        and is_s_unital_module(ring, closed_product(ring, at(inverse(x)), at(x)), at(x), "right")
        for x in graded.support
    )


@lru_cache(maxsize=16)
def classify_grading(graded: GradedRing) -> GradingClassification:
    """Compute the four grading classes by exhaustive check.

    The implication chain nearly-epsilon-strong => ideally symmetric =>
    symmetric, and strong + unital => nearly-epsilon-strong, are theorems;
    a violation raises instead of returning.
    """
    strongly = _is_strongly_graded(graded)
    symmetrically = _is_symmetrically_graded(graded)
    ideally = _is_ideally_symmetrically_graded(graded)
    nearly = _is_nearly_epsilon_strongly_graded(graded)
    if nearly and not ideally:
        raise RuntimeError("nearly-epsilon-strong grading not ideally symmetric; internal bug")
    if ideally and not symmetrically:
        raise RuntimeError("ideally symmetric grading not symmetric; internal bug")
    if strongly and graded.ring.unit is not None and not nearly:
        raise RuntimeError("strong unital grading not nearly epsilon-strong; internal bug")
    return GradingClassification(strongly, symmetrically, ideally, nearly)

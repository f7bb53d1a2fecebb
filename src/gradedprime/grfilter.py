"""Filter subrings of group rings.

A filter assigns to every group element x an ideal I_x of a coefficient
ring R, with I_e = R and I_x * I_y inside I_{xy}.  The subring it carves out
of the group ring R[G] is graded by S_x = I_x x.

Finite groups get a concrete graded ring consumable by the grading and
correspondence machinery.  Over the integers the subring is infinite: its
elements are finitely supported, kept as tuples of (degree, coefficient)
terms, and only the witness trials multiply them, with no check of a
coefficient against its component: the filter law keeps every product
inside, and tests/oracle.py holds that check.  GFilter is the one
constructor of a filter, and it fixes one representation: two filters
with the same ideal at every degree compare equal and scan the same sites.
A filter memoises its products, its validity and its members of each
degree.  To keep the filter law decidable, integer filters are restricted
to one rule class, R on nZ (n >= 0) with a fixed ideal elsewhere, plus a
finite override table, and all laws are checked on a window of degrees
wide enough to realize every combination of values the rule can produce.
The grading classes of the subring are read from the pairs
(I_x, I_{x^-1}) by grading's kernels.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .errors import CapError, SpecError
from .finring import (
    Caps,
    DEFAULT_CAPS,
    FiniteRing,
    _group_ring,
    bits,
    closed_product,
    is_fully_idempotent,
    is_ideal_mask,
    mask_of,
)
from .frozen import Frozen
from .grading import GradedRing, _pair_classes, attach_grading
from .groups import FiniteGroup, IntegerGroup

Terms = tuple[tuple[int, int], ...]  # an element's nonzero (degree, coeff) terms, degrees ascending


class ZRule(Frozen):
    """Degree-to-ideal rule over the integers: R on nZ, the ideal mask off
    elsewhere.  n = 0 gives R on 0Z = {0} alone, a constant ideal away from
    zero."""

    _fields = ("n", "off")

    def __init__(self, n: int, off: int = 0):
        if n < 0:
            raise SpecError("a rule's n must be at least 0")
        vars(self).update(n=n, off=off)


class GFilter(Frozen):
    """The ideal I_x of each degree x, given by ideals, a degree -> ideal
    mapping or its pairs: every element of a finite group, or over the
    integers zrule's overrides.  The constructor fixes one representation,
    so that equal filters compare equal and scan the same sites: an empty
    off is the zero ideal, a rule that is R at every degree is ZRule(1,
    zero ideal), and an override equal to the rule's ideal is dropped.  An
    integer filter is then refused with CapError, before any list is built,
    when its window of sites (the finite stand-in for Z whose pairs the laws
    scan) has more than caps.max_group_order degrees."""

    _fields = ("ring", "group", "table", "zrule")

    def __init__(
        self,
        ring: FiniteRing,
        group: Union[FiniteGroup, IntegerGroup],
        ideals: Union[Mapping[int, int], Iterable[tuple[int, int]]],
        zrule: Optional[ZRule] = None,  # integer filters
        caps: Caps = DEFAULT_CAPS,
    ):
        ideals, full = dict(ideals), ring.full_mask
        if group.is_finite:
            if zrule is not None:
                raise SpecError("patterns and overrides are for integer filters")
            if set(ideals) != set(group.elements()):
                raise SpecError("assignment must cover every group element")
        else:
            if zrule is None:
                raise SpecError("integer filter needs a rule")
            off = zrule.off or ring.zero_mask  # an empty mask is the zero ideal
            zrule = ZRule(1, ring.zero_mask) if zrule.n == 1 or off == full else ZRule(zrule.n, off)
            n, off = zrule.n, zrule.off
            ideals = {x: m for x, m in ideals.items() if m != (full if (x % n == 0 if n else x == 0) else off)}
            degrees = 2 * _window(zrule, ideals) + 1
            if degrees > caps.max_group_order:
                shown = degrees if degrees.bit_length() <= 14_000 else "over 2^14000"  # str() refuses 4,301+ digits
                raise CapError(f"filter window of {shown} degrees exceeds cap {caps.max_group_order}")
        table = tuple(sorted(ideals.items()))
        vars(self).update(ring=ring, group=group, table=table, zrule=zrule, _ideals=ideals)  # table by degree, for ideal_at
        if self.ideal_at(group.identity) != full:
            raise SpecError("the identity component must be the whole ring")

    @cached_property
    def product(self):
        """closed_product on the ring, memoised: the filter laws meet few
        distinct masks, however large the group."""
        return cache(partial(closed_product, self.ring))

    @cached_property
    def members(self):
        """Each degree's component as its elements, ascending, memoised like the products."""
        return cache(lambda x: tuple(bits(self.ideal_at(x))))

    @cached_property
    def valid(self) -> bool:
        """Whether every component is an ideal and products respect the
        filter law, decided on the first call: a filter is validated once
        however many checks ask."""
        sites, at, op, product = filter_sites(self), self.ideal_at, self.group.op, self.product
        if not all(is_ideal_mask(self.ring, ix) for ix in {at(x) for x in sites}):
            return False
        for x in sites:
            ix = at(x)
            for y in sites:
                target = at(op(x, y))
                if product(ix, at(y)) | target != target:
                    return False
        return True

    def ideal_at(self, x: int) -> int:
        if x in self._ideals:
            return self._ideals[x]
        n = self.zrule.n
        return self.ring.full_mask if (x % n == 0 if n else x == 0) else self.zrule.off


def _window(rule: ZRule, overrides: Mapping[int, int]) -> int:
    """w for the integer sites -w..w: wide enough that every combination of
    rule values occurs for some pair inside it.  Any configuration
    elsewhere can be shifted into the window by multiples of the pattern
    period, and the extra period per override leaves room to step around
    collisions with the finitely many overridden degrees."""
    bound = max(map(abs, overrides), default=0)
    period = rule.n or 1
    return 2 * bound + (len(overrides) + 2) * period + 2


def filter_sites(f: GFilter) -> list[int]:
    """Degrees on which every law involving the filter must be checked:
    every element of a finite group, over the integers the window -w..w of
    _window, which GFilter caps at caps.max_group_order degrees."""
    if f.group.is_finite:
        return list(f.group.elements())
    w = _window(f.zrule, f._ideals)
    return list(range(-w, w + 1))


def _inverse_pairs(f: GFilter) -> set[tuple[int, int]]:
    """The distinct (I_x, I_{x^-1}) over the filter's sites."""
    inverse = f.group.inverse
    return {(f.ideal_at(x), f.ideal_at(inverse(x))) for x in filter_sites(f)}


# ---------------------------------------------------------------------------
# finite groups: a concrete graded ring


def assemble_filter_ring(f: GFilter, caps: Caps = DEFAULT_CAPS) -> GradedRing:
    """Build the graded subring of the group ring without pre-validating.

    Construction fails organically (closure violations surface as spec
    errors) exactly when the filter law fails, which is what makes the
    validator testable against an independent path.
    """
    if not f.group.is_finite:
        raise SpecError("a concrete ring needs a finite group")
    ring = f.ring
    group = f.group
    members = [f.members(x) for x in group.elements()]
    built, index = _group_ring(ring, group, members, caps)
    g = group.order
    components = {}
    for x in group.elements():
        comp = [
            index[tuple(c if i == x else ring.zero for i in range(g))]
            for c in members[x]
        ]
        components[x] = mask_of(comp)
    return attach_grading(built, group, components)


# ---------------------------------------------------------------------------
# the integers: witness trials on finitely supported elements


def random_element(f: GFilter, rng) -> Terms:
    """The terms of a random nonzero element of a valid integer filter's
    subring: one to three consecutive degrees from a base in -3..3.

    Deterministic for a given random.Random instance.
    """
    if f.group.is_finite:
        raise SpecError("random elements are drawn for integer filters")
    if not f.valid:
        raise SpecError("not a valid filter")
    if f.ring.order == 1:
        raise SpecError("the zero ring has no nonzero elements")
    while True:
        base = rng.randint(-3, 3)
        draws = [(d, rng.choice(f.members(d))) for d in range(base, base + rng.randint(1, 3))]
        terms = tuple((d, c) for d, c in draws if c != f.ring.zero)
        if terms:
            return terms


def _product(ring: FiniteRing, left: Terms, right: Terms) -> Terms:
    """The terms of the product of two elements with coefficients in ring."""
    add, mul, zero = ring.add_table, ring.mul_table, ring.zero
    acc: dict = {}
    for d1, c1 in left:
        row = mul[c1]
        for d2, c2 in right:
            d = d1 + d2
            acc[d] = add[acc.get(d, zero)][row[c2]]
    return tuple((d, c) for d, c in sorted(acc.items()) if c != zero)


def show(ring: FiniteRing, terms: Terms) -> str:
    """The text of an element given by its terms: c·x^d summands, or 0."""
    return " + ".join(f"{ring.name(c)}·x^{d}" for d, c in terms) or "0"


# ---------------------------------------------------------------------------
# classification


class FilterClassification(NamedTuple):
    symmetric: bool
    inverse_equal: bool
    ideally_symmetric: Optional[bool]
    nearly_eps: bool
    R_idempotent: bool
    R_fully_idempotent: bool


def classify_filter(f: GFilter) -> FilterClassification:
    """Classify the grading of the filter subring from the filter data.

    The symmetric, ideally symmetric and local-unit flags are grading's
    kernel run in R on the distinct pairs (I_x, I_{x^-1}) in place of S's
    pairs (S_x, S_{x^-1}).  Symmetry and local units read the pair alone.
    Ideal symmetry is decided at degree x on the principal ideals <c x>,
    c in I_x (grading._pair_classes).  As I_e = R, the component of
    <c x> at x is C = J + sum I_a J I_b (a x b = x) for J = <c> in R.  As
    I_{x^-1} I_a and I_b I_{x^-1} lie in I_{x^-1}, and I_a J and J I_b in J,
    I_x I_{x^-1} C = I_x I_{x^-1} J and C I_{x^-1} I_x = J I_{x^-1} I_x; and
    C is an ideal of R inside I_x, a sum of principal ones.  So the
    identities hold on every such C exactly when I_x I_{x^-1} J = J =
    J I_{x^-1} I_x for every principal J of R inside I_x: the kernel's test
    on the pair (I_x, I_{x^-1}) in R.  Over the integers the verdict is
    given only where the other flags decide it too: False for a filter that
    is not symmetric, True for a symmetric one when R is fully idempotent or
    the filter is nearly epsilon-strong; None otherwise.  The tests compare
    the flags with classify_grading on assemble_filter_ring's ring.
    """
    if not f.valid:
        raise SpecError("not a valid filter")
    ring, pairs = f.ring, _inverse_pairs(f)
    symmetric, nearly, ideally = _pair_classes(ring, pairs)
    inverse_equal = all(ix == ixi for ix, ixi in pairs)
    r_idem = f.product(ring.full_mask, ring.full_mask) == ring.full_mask
    r_fully = is_fully_idempotent(ring)
    if symmetric and not (f.group.is_finite or r_fully or nearly):
        ideally = None
    return FilterClassification(symmetric, inverse_equal, ideally, nearly, r_idem, r_fully)


# ---------------------------------------------------------------------------
# witness search over the integers


class Witness(NamedTuple):
    """How a nonzero product a*s*b was exhibited.

    degree None means a*b itself was nonzero and no middle factor was
    needed; otherwise s is the coefficient `coeff` in degree `degree`.
    """

    degree: Optional[int]
    coeff: Optional[int]

    def describe(self, ring: FiniteRing) -> str:
        if self.degree is None:
            return "product nonzero without a middle factor"
        return f"degree={self.degree} coeff={ring.name(self.coeff)}"


def witness_search(ring: FiniteRing, a: Terms, b: Terms) -> Optional[Witness]:
    """First homogeneous s with a*s*b nonzero, after trying a*b directly;
    a and b are the terms of nonzero elements, so a[-1] is a's top term.

    Shift invariance: for s = c x^d the coefficient of a*s*b in degree
    k + d is the sum of a_i c b_j over i + j = k, so a*s*b is nonzero
    exactly when a*c*b is, with c placed in degree 0.  As I_0 is the whole
    ring, a witness exists exactly when one exists in degree 0, and the
    first one in the scan order 0, 1, -1, 2, -2, ... of degrees, with
    coefficients in element-index order, is the first live c in degree 0.
    So only degree 0 is searched, and no degree bound could change the
    answer.  Top degrees add uniquely, so a nonzero product of the top
    coefficients certifies a*b, or a*c*b, without the convolution of the
    term tuples.  None means that a*s*b is zero for every homogeneous s.
    """
    if not a or not b:
        raise ValueError("elements must be nonzero")
    _, ra = a[-1]
    _, rb = b[-1]
    if ring.mul_table[ra][rb] != ring.zero or _product(ring, a, b):
        return Witness(None, None)
    for c in ring.elements():
        if c != ring.zero and (ring.mul3(ra, c, rb) != ring.zero or _product(ring, _product(ring, a, ((0, c),)), b)):
            return Witness(0, c)
    return None

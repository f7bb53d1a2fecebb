"""Filter subrings of group rings.

A filter assigns to every group element x an ideal I_x of a coefficient
ring R, with I_e = R and I_x * I_y inside I_{xy}.  The subring it carves out
of the group ring R[G] is graded by S_x = I_x x.

Finite groups get a concrete graded ring consumable by the grading and
correspondence machinery.  Over the integers the subring is infinite, so it
is handled through finitely supported element arithmetic instead; to keep
the filter law decidable, integer filters are restricted to two rule
classes (R on a subgroup with a fixed ideal elsewhere, or a constant ideal
away from zero) plus a finite override table, and all laws are checked on a
window of degrees wide enough to realize every combination of values the
rules can produce.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from typing import Mapping, NamedTuple, Optional, Union

from .errors import SpecError
from .finring import (
    Caps,
    DEFAULT_CAPS,
    FiniteRing,
    _family,
    _group_ring,
    bits,
    closed_product,
    is_fully_idempotent,
    is_ideal_mask,
    is_s_unital_module,
    mask_of,
)
from .frozen import Frozen
from .grading import GradedRing, attach_grading, classify_grading
from .groups import FiniteGroup, IntegerGroup


class ZRule(Frozen):
    """Degree-to-ideal rule over the integers.

    kind "subgroup": R on multiples of n, the off ideal elsewhere.
    kind "constant": R at zero, the constant ideal elsewhere (n is unused).
    off is the ideal mask used away from the distinguished degrees.
    """

    _fields = ("kind", "n", "off")

    def __init__(self, kind: str, n: int = 1, off: int = 0):
        if kind not in ("subgroup", "constant"):
            raise SpecError(f"unknown integer filter rule {kind!r}")
        if kind == "subgroup" and n < 1:
            raise SpecError("subgroup index must be positive")
        vars(self).update(kind=kind, n=n, off=off)


class GFilter(Frozen):
    _fields = ("ring", "group", "assignment", "zrule", "overrides")

    def __init__(
        self,
        ring: FiniteRing,
        group: Union[FiniteGroup, IntegerGroup],
        assignment: Optional[tuple[tuple[int, int], ...]] = None,  # finite groups
        zrule: Optional[ZRule] = None,
        overrides: tuple[tuple[int, int], ...] = (),
    ):
        if group.is_finite:
            if assignment is None:
                raise SpecError("finite group filter needs a total assignment")
            table = dict(assignment)
            if set(table) != set(group.elements()):
                raise SpecError("assignment must cover every group element")
        else:
            if zrule is None:
                raise SpecError("integer filter needs a rule")
            table = dict(overrides)
        vars(self).update(ring=ring, group=group, assignment=assignment, zrule=zrule,
                          overrides=overrides, _table=table)
        if self.ideal_at(group.identity) != ring.full_mask:
            raise SpecError("the identity component must be the whole ring")

    @cached_property
    def product(self):
        """closed_product on the ring, memoised: the filter laws meet few
        distinct masks, however large the group."""
        return cache(partial(closed_product, self.ring))

    @cached_property
    def valid(self) -> bool:
        """validate_filter's verdict, kept like the products: a filter is
        validated once however many checks ask."""
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
        if x in self._table or self.group.is_finite:
            return self._table[x]
        rule = self.zrule
        distinguished = x % rule.n == 0 if rule.kind == "subgroup" else x == 0
        return self.ring.full_mask if distinguished else rule.off


def make_finite_filter(ring: FiniteRing, group: FiniteGroup, assignment: Mapping[int, int]) -> GFilter:
    return GFilter(ring, group, assignment=tuple(sorted(assignment.items())))


def make_z_filter(
    ring: FiniteRing,
    rule: ZRule,
    overrides: Optional[Mapping[int, int]] = None,
) -> GFilter:
    from .groups import Z

    if rule.off == 0:  # an empty mask means the zero ideal
        rule = ZRule(rule.kind, rule.n, ring.zero_mask)
    items = tuple(sorted((overrides or {}).items()))
    return GFilter(ring, Z, zrule=rule, overrides=items)


def filter_sites(f: GFilter) -> list[int]:
    """Degrees on which every law involving the filter must be checked.

    For a finite group this is every element.  Over the integers it is a
    symmetric window wide enough that every combination of rule values
    occurs for some pair inside it: any configuration elsewhere can be
    shifted into the window by multiples of the pattern period, and the
    extra period per override leaves room to step around collisions with
    the finitely many overridden degrees.
    """
    if f.group.is_finite:
        return list(f.group.elements())
    bound = max((abs(k) for k, _ in f.overrides), default=0)
    period = f.zrule.n if f.zrule.kind == "subgroup" else 1
    w = 2 * bound + (len(f.overrides) + 2) * period + 2
    return list(range(-w, w + 1))


def validate_filter(f: GFilter) -> bool:
    """Whether every component is an ideal and products respect the filter
    law, decided on the first call for a filter (GFilter.valid)."""
    return f.valid


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
    members = [sorted(bits(f.ideal_at(x))) for x in group.elements()]
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
# the integers: finitely supported arithmetic


class FilterRing:
    """Arithmetic handle for an integer-graded filter subring."""

    def __init__(self, f: GFilter):
        if f.group.is_finite:
            raise SpecError("FilterRing is for integer filters")
        if not validate_filter(f):
            raise SpecError("not a valid filter")
        self.filter = f
        self.coeff = f.ring
        self._members = cache(lambda mask: tuple(bits(mask)))  # few distinct masks

    def members_of_degree(self, x: int) -> tuple[int, ...]:
        """The elements of the degree-x component, ascending."""
        return self._members(self.filter.ideal_at(x))

    def element(self, coeffs: Mapping[int, int]) -> "FilterElement":
        ring, at = self.coeff, self.filter.ideal_at
        items = []
        for x, c in sorted(coeffs.items()):
            if c == ring.zero:
                continue
            if not at(x) >> c & 1:
                raise SpecError(
                    f"coefficient {ring.name(c)} is outside the degree-{x} component"
                )
            items.append((int(x), int(c)))
        return FilterElement(self, tuple(items))

    def zero(self) -> "FilterElement":
        return FilterElement(self, ())

    def term(self, degree: int, coeff: int) -> "FilterElement":
        return self.element({degree: coeff})

    def random_element(self, rng, max_width: int = 3, max_shift: int = 3) -> "FilterElement":
        """A random nonzero element with support width <= max_width.

        Deterministic for a given random.Random instance.
        """
        if self.coeff.order == 1:
            raise SpecError("the zero ring has no nonzero elements")
        while True:
            base = rng.randint(-max_shift, max_shift)
            width = rng.randint(1, max_width)
            coeffs = {}
            for d in range(base, base + width):
                choices = self.members_of_degree(d)
                coeffs[d] = rng.choice(choices)
            elem = self.element(coeffs)
            if elem:
                return elem


class FilterElement(Frozen):
    """An element of a FilterRing: its (degree, coefficient) terms, degrees ascending."""

    _fields = ("handle", "coeffs")

    def __init__(self, handle: FilterRing, coeffs: tuple[tuple[int, int], ...]):
        vars(self).update(handle=handle, coeffs=coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def support(self) -> list[int]:
        return [d for d, _ in self.coeffs]

    def width(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1][0] - self.coeffs[0][0] + 1

    def top(self) -> tuple[int, int]:
        if not self.coeffs:
            raise ValueError("the zero element has no top term")
        return self.coeffs[-1]

    def __add__(self, other: "FilterElement") -> "FilterElement":
        if other.handle is not self.handle:
            raise ValueError("elements belong to different filter rings")
        ring = self.handle.coeff
        acc = dict(self.coeffs)
        for d, c in other.coeffs:
            s = ring.add(acc.get(d, ring.zero), c)
            if s == ring.zero:
                acc.pop(d, None)
            else:
                acc[d] = s
        return self.handle.element(acc)

    def __neg__(self) -> "FilterElement":
        ring = self.handle.coeff
        return self.handle.element({d: ring.neg(c) for d, c in self.coeffs})

    def __sub__(self, other) -> "FilterElement":
        return self + (-other)

    def __mul__(self, other: "FilterElement") -> "FilterElement":
        if other.handle is not self.handle:
            raise ValueError("elements belong to different filter rings")
        ring = self.handle.coeff
        add, zero = ring.add_table, ring.zero
        acc: dict = {}
        for d1, c1 in self.coeffs:
            row = ring.mul_table[c1]
            for d2, c2 in other.coeffs:
                d = d1 + d2
                acc[d] = add[acc.get(d, zero)][row[c2]]
        return self.handle.element(acc)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        ring = self.handle.coeff
        return " + ".join(f"{ring.name(c)}·x^{d}" for d, c in self.coeffs)


def build_filter_subring(f: GFilter, caps: Caps = DEFAULT_CAPS):
    """Validated construction: a GradedRing for finite groups, else a
    FilterRing arithmetic handle."""
    if not validate_filter(f):
        raise SpecError("not a valid filter")
    if f.group.is_finite:
        return assemble_filter_ring(f, caps)
    return FilterRing(f)


# ---------------------------------------------------------------------------
# classification


class FilterClassification(NamedTuple):
    symmetric: bool
    inverse_equal: bool
    ideally_symmetric: Optional[bool]
    nearly_eps: bool
    R_idempotent: bool
    R_fully_idempotent: bool


def _ideally_symmetric_finite(f: GFilter) -> bool:
    """Decide ideal symmetry from the filter data alone for finite groups.

    By the lemma of grading._is_ideally_symmetrically_graded it is decided
    at degree x on the principal ideals <c x>, c in I_x.  As I_e = R, the
    component of <c x> at x is C = J + sum I_a J I_b (a x b = x) for J = <c>
    in R.  As I_{x^-1} I_a and I_b I_{x^-1} lie in I_{x^-1}, and I_a J and
    J I_b in J, I_x I_{x^-1} C = I_x I_{x^-1} J and C I_{x^-1} I_x =
    J I_{x^-1} I_x; and C is an ideal of R inside I_x, a sum of principal
    ones.  So the identities hold on every such C exactly when
    I_x I_{x^-1} J = J = J I_{x^-1} I_x for every principal J inside I_x,
    which depends on the pair (I_x, I_{x^-1}) only; both sides are additive
    in J, so J ranges over the generating family of those principal ideals.
    """
    product = f.product
    for ix, ixi in _inverse_pairs(f):
        for j in _family(f.ring, (ix,)):
            if not product(product(ix, ixi), j) == j == product(j, product(ixi, ix)):
                return False
    return True


def classify_filter(f: GFilter, caps: Caps = DEFAULT_CAPS) -> FilterClassification:
    """Classify the grading of the filter subring from the filter data.

    The symmetric, inverse-equality and local-unit flags come straight from
    the component ideals.  Ideal symmetry is decided on principal ideals
    for finite groups; over the integers it follows from the other flags
    when the coefficient ring is fully idempotent or the filter is not even
    symmetric, and is reported as None otherwise.

    For finite groups the flags are re-derived from the built ring's grading
    classifier and any disagreement raises, since agreement is a theorem.
    """
    if not validate_filter(f):
        raise SpecError("not a valid filter")
    ring, group, product = f.ring, f.group, f.product
    pairs = _inverse_pairs(f)

    symmetric = all(product(product(ix, ixi), ix) == ix for ix, ixi in pairs)
    inverse_equal = all(ix == ixi for ix, ixi in pairs)
    r_idem = product(ring.full_mask, ring.full_mask) == ring.full_mask
    r_fully = is_fully_idempotent(ring)
    nearly = all(
        is_s_unital_module(ring, product(ix, ixi), ix, "left")
        and is_s_unital_module(ring, product(ixi, ix), ix, "right")
        for ix, ixi in pairs
    )

    if group.is_finite:
        ideally: Optional[bool] = _ideally_symmetric_finite(f)
    elif not symmetric:
        ideally = False
    elif r_fully:
        ideally = symmetric
    elif nearly:
        ideally = True
    else:
        ideally = None  # no finite criterion is available in this case

    if r_fully:
        if symmetric != inverse_equal:
            raise RuntimeError(
                "symmetry and inverse-equality disagree over a fully idempotent ring; internal bug"
            )
        if ideally is not None and symmetric != ideally:
            raise RuntimeError(
                "symmetry and ideal symmetry disagree over a fully idempotent ring; internal bug"
            )

    if group.is_finite:
        order = 1
        for x in group.elements():
            order *= f.ideal_at(x).bit_count()
        if order <= caps.max_ring_order:
            built = assemble_filter_ring(f, caps)
            cg = classify_grading(built)
            if (symmetric, ideally, nearly) != (
                cg.symmetrically,
                cg.ideally_symmetrically,
                cg.nearly_epsilon_strongly,
            ):
                raise RuntimeError(
                    "filter-level and ring-level classifications disagree; internal bug"
                )

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


def witness_search(handle: FilterRing, a: FilterElement, b: FilterElement) -> Optional[Witness]:
    """First homogeneous s with a*s*b nonzero, after trying a*b directly.

    Shift invariance: for s = c x^d the coefficient of a*s*b in degree
    k + d is the sum of a_i c b_j over i + j = k, so a*s*b is nonzero
    exactly when a*c*b is, with c placed in degree 0.  As I_0 is the whole
    ring, a witness exists exactly when one exists in degree 0, and the
    first one in the scan order 0, 1, -1, 2, -2, ... of degrees, with
    coefficients in element-index order, is the first live c in degree 0.
    So only degree 0 is searched, and no degree bound could change the
    answer.  For each c the product of the two top components is probed
    first: top degrees add uniquely, so a nonzero top triple already
    certifies the product without the full convolution.  None means that
    a*s*b is zero for every homogeneous s.
    """
    if not a or not b:
        raise ValueError("elements must be nonzero")
    ring = handle.coeff
    if a * b:
        return Witness(None, None)
    _, ra = a.top()
    _, rb = b.top()
    for c in handle.members_of_degree(0):
        if c != ring.zero and (ring.mul3(ra, c, rb) != ring.zero or a * handle.term(0, c) * b):
            return Witness(0, c)
    return None

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

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .errors import SpecError
from .finring import (
    Caps,
    DEFAULT_CAPS,
    FiniteRing,
    _group_ring,
    all_ideals,
    bits,
    closed_product,
    is_fully_idempotent,
    is_ideal_mask,
    mask_of,
    triple_product,
)
from .grading import GradedRing, attach_grading, classify_grading
from .groups import FiniteGroup, IntegerGroup


@dataclass(frozen=True)
class ZRule:
    """Degree-to-ideal rule over the integers.

    kind "subgroup": R on multiples of n, the off ideal elsewhere.
    kind "constant": R at zero, the constant ideal elsewhere (n is unused).
    """

    kind: str
    n: int = 1
    off: int = 0  # ideal mask used away from the distinguished degrees

    def __post_init__(self):
        if self.kind not in ("subgroup", "constant"):
            raise SpecError(f"unknown integer filter rule {self.kind!r}")
        if self.kind == "subgroup" and self.n < 1:
            raise SpecError("subgroup index must be positive")


@dataclass(frozen=True)
class GFilter:
    ring: FiniteRing
    group: Union[FiniteGroup, IntegerGroup]
    assignment: Optional[tuple[tuple[int, int], ...]] = None  # finite groups
    zrule: Optional[ZRule] = None
    overrides: tuple[tuple[int, int], ...] = ()
    _table: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.group.is_finite:
            if self.assignment is None:
                raise SpecError("finite group filter needs a total assignment")
            table = dict(self.assignment)
            if set(table) != set(self.group.elements()):
                raise SpecError("assignment must cover every group element")
        else:
            if self.zrule is None:
                raise SpecError("integer filter needs a rule")
            table = dict(self.overrides)
        object.__setattr__(self, "_table", table)
        if self.ideal_at(self.group.identity) != self.ring.full_mask:
            raise SpecError("the identity component must be the whole ring")

    def ideal_at(self, x: int) -> int:
        if self.group.is_finite:
            return self._table[x]
        if x in self._table:
            return self._table[x]
        rule = self.zrule
        if rule.kind == "subgroup":
            return self.ring.full_mask if x % rule.n == 0 else rule.off
        return self.ring.full_mask if x == 0 else rule.off


def make_finite_filter(ring: FiniteRing, group: FiniteGroup, assignment: Mapping[int, int]) -> GFilter:
    return GFilter(ring, group, assignment=tuple(sorted(assignment.items())))


def make_z_filter(
    ring: FiniteRing,
    rule: ZRule,
    overrides: Optional[Mapping[int, int]] = None,
) -> GFilter:
    from dataclasses import replace

    from .groups import Z

    if rule.off == 0:  # an empty mask means the zero ideal
        rule = replace(rule, off=ring.zero_mask)
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
    """Whether every component is an ideal and products respect the filter law."""
    ring = f.ring
    sites = filter_sites(f)
    for x in sites:
        if not is_ideal_mask(ring, f.ideal_at(x)):
            return False
    for x in sites:
        ix = f.ideal_at(x)
        for y in sites:
            target = f.ideal_at(f.group.op(x, y))
            if closed_product(ring, ix, f.ideal_at(y)) | target != target:
                return False
    return True


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
    return attach_grading(built, group, components, caps=caps)


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

    def members_of_degree(self, x: int) -> list[int]:
        return sorted(bits(self.filter.ideal_at(x)))

    def element(self, coeffs: Mapping[int, int]) -> "FilterElement":
        ring = self.coeff
        items = []
        for x, c in sorted(coeffs.items()):
            if c == ring.zero:
                continue
            if not self.filter.ideal_at(x) >> c & 1:
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


@dataclass(frozen=True)
class FilterElement:
    handle: FilterRing
    coeffs: tuple[tuple[int, int], ...]  # (degree, coefficient), ascending

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
        acc: dict = {}
        for d1, c1 in self.coeffs:
            for d2, c2 in other.coeffs:
                d = d1 + d2
                acc[d] = ring.add(acc.get(d, ring.zero), ring.mul(c1, c2))
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


def is_s_unital_module(ring: FiniteRing, acting: int, acted: int, side: str) -> bool:
    """Whether every m in the acted ideal lies in (sums of) acting*m or
    m*acting, per side."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    for m in bits(acted):
        factors = (acting, 1 << m) if side == "left" else (1 << m, acting)
        if not closed_product(ring, *factors) >> m & 1:
            return False
    return True


@dataclass(frozen=True)
class FilterClassification:
    symmetric: bool
    inverse_equal: bool
    ideally_symmetric: Optional[bool]
    nearly_eps: bool
    R_idempotent: bool
    R_fully_idempotent: bool


def _ideally_symmetric_finite(f: GFilter, caps: Caps) -> bool:
    """Decide ideal symmetry from the filter data alone for finite groups.

    Graded ideals of the subring correspond to families K_x of ideals of R
    with K_x inside I_x and I_y K_x, K_x I_y inside K at the shifted index;
    the absorption equalities are then checked per family.
    """
    ring = f.ring
    group = f.group
    lattice = [i.members for i in all_ideals(ring, caps)]
    choices = []
    for x in group.elements():
        ix = f.ideal_at(x)
        choices.append([k for k in lattice if k | ix == ix])
    for family in itertools.product(*choices):
        ok = True
        for x in group.elements():
            for y in group.elements():
                left = closed_product(ring, f.ideal_at(y), family[x])
                if left | family[group.op(y, x)] != family[group.op(y, x)]:
                    ok = False
                    break
                right = closed_product(ring, family[x], f.ideal_at(y))
                if right | family[group.op(x, y)] != family[group.op(x, y)]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for x in group.elements():
            ix = f.ideal_at(x)
            ixi = f.ideal_at(group.inverse(x))
            kx = family[x]
            if triple_product(ring, ix, ixi, kx) != kx or triple_product(ring, kx, ixi, ix) != kx:
                return False
    return True


def classify_filter(f: GFilter, caps: Caps = DEFAULT_CAPS) -> FilterClassification:
    """Classify the grading of the filter subring from the filter data.

    The symmetric, inverse-equality and local-unit flags come straight from
    the component ideals.  Ideal symmetry is decided by family enumeration
    for finite groups; over the integers it follows from the other flags
    when the coefficient ring is fully idempotent or the filter is not even
    symmetric, and is reported as None otherwise.

    For finite groups the flags are re-derived from the built ring's grading
    classifier and any disagreement raises, since agreement is a theorem.
    """
    if not validate_filter(f):
        raise SpecError("not a valid filter")
    ring = f.ring
    group = f.group
    sites = filter_sites(f)

    symmetric = all(
        triple_product(ring, f.ideal_at(x), f.ideal_at(group.inverse(x)), f.ideal_at(x))
        == f.ideal_at(x)
        for x in sites
    )
    inverse_equal = all(f.ideal_at(x) == f.ideal_at(group.inverse(x)) for x in sites)
    r_idem = closed_product(ring, ring.full_mask, ring.full_mask) == ring.full_mask
    r_fully = is_fully_idempotent(ring, caps)

    nearly = True
    for x in sites:
        ix = f.ideal_at(x)
        ixi = f.ideal_at(group.inverse(x))
        left = closed_product(ring, ix, ixi)
        right = closed_product(ring, ixi, ix)
        if not is_s_unital_module(ring, left, ix, "left"):
            nearly = False
            break
        if not is_s_unital_module(ring, right, ix, "right"):
            nearly = False
            break

    if group.is_finite:
        ideally: Optional[bool] = _ideally_symmetric_finite(f, caps)
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
            cg = classify_grading(built, caps)
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


@dataclass(frozen=True)
class Witness:
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


def _degree_order(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def witness_search(
    handle: FilterRing,
    a: FilterElement,
    b: FilterElement,
    degree_bound: int,
) -> Optional[Witness]:
    """First homogeneous s with a*s*b nonzero, after trying a*b directly.

    Candidate degrees are scanned in the order 0, 1, -1, 2, -2, ... and
    coefficients in element-index order, so the returned witness is
    deterministic.  For each candidate the product of the two top
    components is probed first: top degrees add uniquely, so a nonzero top
    triple already certifies the product without the full convolution.
    Absence within the bound is reported as None, never as a disproof.
    """
    if not a or not b:
        raise ValueError("elements must be nonzero")
    ring = handle.coeff
    if a * b:
        return Witness(None, None)
    _, ra = a.top()
    _, rb = b.top()
    for x in _degree_order(degree_bound):
        for c in handle.members_of_degree(x):
            if c == ring.zero:
                continue
            if ring.mul3(ra, c, rb) != ring.zero:
                return Witness(x, c)
            s = handle.term(x, c)
            if (a * s) * b:
                return Witness(x, c)
    return None

"""The identity-component correspondence for graded rings.

Ideals of the identity component S_e are handled as bitmasks over the
ambient ring, confined to S_e.  Their lattice is ``finring.all_ideals`` of
the induced subring; its G-invariant members, and the invariant closures of
the principal ideals that G-primeness quantifies over, are cached here per
graded ring.

The two ``verify_*`` operations return structured reports rather than
booleans: each check carries a name, a verdict and counts, and serializes to
stable ``check <name>: PASS|FAIL (<details>)`` lines for CI logs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .finring import (
    Caps,
    DEFAULT_CAPS,
    Ideal,
    _gens,
    _principal_ideals,
    _span,
    all_ideals,
    bits,
    closed_product,
    generate_ideal,
    is_ideal_mask,
    is_prime_among,
    mask_of,
)
from .grading import (
    GradedRing,
    all_graded_ideals,
    classify_grading,
    is_graded_ideal,
    is_graded_prime_ideal,
)


def e_component(graded: GradedRing, xmask: int) -> int:
    """Image of a subset under the projection onto the identity component.

    For a graded ideal this coincides with intersecting with S_e.
    """
    return mask_of(graded.e_part(m) for m in bits(xmask))


def base_ideals(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """All ideals of the identity component, as ambient masks, sorted."""
    sub, old, _ = graded.base
    return tuple(sorted(mask_of(old[i] for i in ideal.elements()) for ideal in all_ideals(sub, caps)))


def is_base_ideal(graded: GradedRing, jmask: int) -> bool:
    """Whether a subset of S_e is a two-sided ideal of the subring S_e."""
    emask = graded.e_mask
    return not jmask & ~emask and is_ideal_mask(graded.ring, jmask, acting=emask)


def _invariance_sites(graded: GradedRing) -> list:
    """The x in the support with S_{x^-1} nonzero: elsewhere S_{x^-1} J S_x = 0."""
    zero = graded.ring.zero_mask
    return [x for x in graded.support if graded.component(graded.group.inverse(x)) != zero]


def _invariant_closure(graded: GradedRing, jmask: int, jgens) -> tuple[int, list[int]]:
    """(mask, generators) of J + sum_x S_{x^-1} J S_x, the least invariant ideal
    of S_e over an ideal J of S_e spanned by jgens, since S_{y^-1} S_{x^-1}
    lies in S_{(xy)^-1}: one span of J and the products of generators."""
    mul, inverse, gens = graded.ring.mul_table, graded.group.inverse, graded.component_generators
    sites = _invariance_sites(graded)
    products = (mul[mul[a][j]][b] for x in sites for a in gens[inverse(x)] for j in jgens for b in gens[x])
    return _span(graded.ring, jmask | mask_of(products))


def is_g_invariant(graded: GradedRing, jmask: int) -> bool:
    """Whether conjugating J by every component pair lands back inside J."""
    if not is_base_ideal(graded, jmask):
        raise ValueError("subset is not an ideal of the identity component")
    return _invariant_closure(graded, jmask, _gens(graded.ring, jmask))[0] == jmask


@lru_cache(maxsize=16)
def _invariant_ideals(graded: GradedRing, caps: Caps) -> tuple[int, ...]:
    return tuple(j for j in base_ideals(graded, caps) if is_g_invariant(graded, j))


def invariant_base_ideals(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    return _invariant_ideals(graded, caps)


@lru_cache(maxsize=16)
def _invariant_principals(graded: GradedRing) -> dict[int, list[int]]:
    """The invariant closures of the principal ideals of S_e: mask -> generators."""
    sub, old, _ = graded.base
    principals = _principal_ideals(sub, (sub.full_mask,))
    return dict(
        _invariant_closure(graded, mask_of(old[i] for i in bits(m)), [old[i] for i in gens])
        for m, gens in principals.items()
    )


def is_g_prime_ideal(graded: GradedRing, qmask: int) -> bool:
    """Primeness quantified over invariant ideals of the identity component,
    made over the invariant closures of its principal ideals (is_prime_among)."""
    if qmask == graded.e_mask or not is_base_ideal(graded, qmask) or not is_g_invariant(graded, qmask):
        raise ValueError("subset is not a proper invariant ideal of the identity component")
    return is_prime_among(graded.ring, qmask, _invariant_principals(graded))


def is_g_prime_base(graded: GradedRing) -> bool:
    """Whether the zero ideal of the identity component is invariant-prime."""
    return is_g_prime_ideal(graded, graded.ring.zero_mask)


def is_identity_generated(graded: GradedRing, ideal: Ideal) -> bool:
    """Whether the graded ideal is generated by its identity component."""
    if not is_graded_ideal(graded, ideal):
        raise ValueError("ideal is not graded")
    regenerated = generate_ideal(graded.ring, bits(e_component(graded, ideal.members)))
    return regenerated.members == ideal.members


# ---------------------------------------------------------------------------
# reports


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str = ""


class Report(NamedTuple):
    title: str
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            detail = f" ({c.details})" if c.details else ""
            out.append(f"check {c.name}: {verdict}{detail}")
        return out

    def render(self) -> str:
        return "\n".join(self.lines())


def _monotone(masks, image: dict) -> bool:
    """Whether a inside b implies image[a] inside image[b] among the masks."""
    return all(image[a] | image[b] == image[b] for a in masks for b in masks if a | b == b)


def verify_bijection_identity_generated(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> Report:
    """Exhaustively check the correspondence between invariant ideals of the
    identity component and identity-generated graded ideals.

    Every check here is a theorem for any grading; a FAIL line indicates an
    implementation defect, not a property of the input.
    """
    ring = graded.ring
    invariant = invariant_base_ideals(graded, caps)
    graded_ideals = all_graded_ideals(graded, caps)
    idgen = [i for i in graded_ideals if is_identity_generated(graded, i)]
    idgen_masks = {i.members for i in idgen}

    generated = {}
    gen_graded = True
    gen_idgen = True
    restrict_ok = True
    for j in invariant:
        lifted = generate_ideal(ring, bits(j))
        generated[j] = lifted.members
        if not is_graded_ideal(graded, lifted):
            gen_graded = False
        elif not is_identity_generated(graded, lifted):
            gen_idgen = False
        if e_component(graded, lifted.members) != j:
            restrict_ok = False

    projections = {i.members: e_component(graded, i.members) for i in graded_ideals}
    expand_ok = all(generated.get(projections[m]) == m for m in idgen_masks)
    projection_invariant = all(is_g_invariant(graded, proj) for proj in projections.values())

    image_ok = set(generated.values()) == idgen_masks and len(generated) == len(idgen_masks)

    inclusion_ok = _monotone(invariant, generated) and _monotone(idgen_masks, projections)

    n_inv, n_idgen, n_graded = len(invariant), len(idgen), len(graded_ideals)
    checks = (
        CheckResult("lift_is_graded", gen_graded, f"{n_inv} invariant ideals"),
        CheckResult("lift_is_identity_generated", gen_idgen, f"{n_inv} invariant ideals"),
        CheckResult("lift_then_restrict_is_identity", restrict_ok, f"{n_inv} invariant ideals"),
        CheckResult("restrict_then_lift_is_identity", expand_ok, f"{n_idgen} identity-generated ideals"),
        CheckResult("projection_is_invariant", projection_invariant, f"{n_graded} graded ideals"),
        CheckResult("lift_image_matches", image_ok, f"{n_inv} invariant vs {n_idgen} identity-generated"),
        CheckResult("inclusion_preserved", inclusion_ok, "both directions"),
    )
    return Report("identity-generated correspondence", checks)


def verify_bijection_ideally_symmetric(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> Report:
    """For ideally symmetric gradings: the lift/restrict pair is a mutually
    inverse bijection onto *all* graded ideals and matches primeness.

    Raises if the grading is not ideally symmetric, since the statements
    quantify over that class only.
    """
    if not classify_grading(graded).ideally_symmetrically:
        raise ValueError("grading is not ideally symmetric")
    ring = graded.ring
    invariant = invariant_base_ideals(graded, caps)
    graded_ideals = all_graded_ideals(graded, caps)

    generated = {j: generate_ideal(ring, bits(j)).members for j in invariant}
    recovery_ok = True
    for i in graded_ideals:
        proj = e_component(graded, i.members)
        left = closed_product(ring, ring.full_mask, proj)
        right = closed_product(ring, proj, ring.full_mask)
        if not (left == right == generated.get(proj) == i.members):
            recovery_ok = False

    onto_ok = set(generated.values()) == {i.members for i in graded_ideals}
    inverse_ok = all(e_component(graded, generated[j]) == j for j in invariant)

    inclusion_ok = _monotone(invariant, generated)

    graded_prime = {
        i.members: is_graded_prime_ideal(graded, i) for i in graded_ideals if i.is_proper
    }
    prime_match = True
    gprime = []
    for q in invariant:
        if q == graded.e_mask:
            continue
        lifted = generated[q]
        if lifted not in graded_prime:  # the whole ring, or not a graded ideal
            prime_match = False
            continue
        q_prime = is_g_prime_ideal(graded, q)
        if q_prime != graded_prime[lifted]:
            prime_match = False
        if q_prime:
            gprime.append(lifted)
    graded_primes = [m for m, prime in graded_prime.items() if prime]
    prime_sets_ok = sorted(gprime) == sorted(graded_primes)

    n_inv, n_graded = len(invariant), len(graded_ideals)
    n_proper = sum(q != graded.e_mask for q in invariant)
    checks = (
        CheckResult("hypothesis_ideally_symmetric", True, ""),
        CheckResult("graded_ideal_recovered_from_base", recovery_ok, f"{n_graded} graded ideals"),
        CheckResult("lift_onto_all_graded_ideals", onto_ok, f"{n_inv} invariant vs {n_graded} graded"),
        CheckResult("maps_mutually_inverse", inverse_ok, ""),
        CheckResult("inclusion_preserved", inclusion_ok, ""),
        CheckResult("prime_verdicts_match", prime_match, f"{n_proper} proper invariant ideals"),
        CheckResult("prime_sets_correspond", prime_sets_ok, f"{len(graded_primes)} graded prime ideals"),
    )
    return Report("ideally symmetric correspondence", checks)

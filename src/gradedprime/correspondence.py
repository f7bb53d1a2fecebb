"""The identity-component correspondence for graded rings.

Ideals of the identity component S_e are handled as bitmasks over the
ambient ring, confined to S_e.  The G-invariant ones are a join closure,
not a filter of the lattice of S_e: an invariant ideal is the sum of the
invariant closures J + sum_x S_{x^-1} J S_x of the members J of S_e's
generating family of principal ideals inside it, and sums of invariant
ideals are invariant.  finring builds and caches those closures, over which
G-primeness quantifies, and their lattice, keyed by value (_invariant_key);
under a trivial grading there are no conjugators and the key is S's own, so
the whole correspondence builds one family and enumerates one lattice.

The two ``verify_*`` operations return structured reports rather than
booleans: each check carries a name, a verdict and counts, and serializes to
stable ``check <name>: PASS|FAIL (<details>)`` lines for CI logs.  Both read
one lift map J -> <J> and one projection map I -> I_e per graded ring, and
decide on the lattices' masks with the kernels; the public predicates, which
validate their arguments, are for library callers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .finring import (
    Caps,
    DEFAULT_CAPS,
    Ideal,
    _family,
    _ideal_gens,
    _ideal_span,
    _invariant_span,
    _lattice,
    _principal_ideals,
    _span,
    closed_product,
    is_prime_among,
)
from .grading import (
    GradedRing,
    all_graded_ideals,
    classify_grading,
    is_graded_ideal,
    is_graded_m_system,
)


def _base_ideal_gens(graded: GradedRing, jmask: int) -> Optional[list[int]]:
    """Additive generators of J if it is a two-sided ideal of the subring
    S_e, else None."""
    if jmask & ~graded.e_mask:
        return None
    return _ideal_gens(graded.ring, jmask, graded.component_generators[graded.e])


def _conjugators(graded: GradedRing) -> tuple:
    """The pairs (generators of S_{x^-1}, generators of S_x) for x != e in
    the support with S_{x^-1} nonzero, by which _invariant_span closes."""
    gens, inverse = graded.component_generators, graded.group.inverse
    sites = (x for x in graded.support if x != graded.e and inverse(x) in gens)
    return tuple((tuple(gens[inverse(x)]), tuple(gens[x])) for x in sites)


def _invariant_key(graded: GradedRing) -> tuple:
    """finring's family and lattice key for the invariant ideals of S_e:
    S_e's elements, acted on by its additive generators, and the conjugators."""
    return graded.ring, (graded.e_mask,), tuple(graded.component_generators[graded.e]), _conjugators(graded)


def is_g_invariant(graded: GradedRing, jmask: int) -> bool:
    """Whether conjugating J by every component pair lands back inside J.
    The generators that the ideal test spans J for are the ones conjugated."""
    gens = _base_ideal_gens(graded, jmask)
    if gens is None:
        raise ValueError("subset is not an ideal of the identity component")
    return _invariant_span(graded.ring, jmask, gens, _conjugators(graded))[0] == jmask


def invariant_base_ideals(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """The G-invariant ideals of the identity component, as ambient masks, sorted."""
    return tuple(_lattice(*_invariant_key(graded), caps))


def is_g_prime_ideal(graded: GradedRing, qmask: int) -> bool:
    """Primeness quantified over invariant ideals of the identity component,
    made over the invariant closures of its generating family of principal
    ideals (is_prime_among)."""
    try:
        proper = qmask != graded.e_mask and is_g_invariant(graded, qmask)
    except ValueError:  # not an ideal of S_e
        proper = False
    if not proper:
        raise ValueError("subset is not a proper invariant ideal of the identity component")
    return is_prime_among(graded.ring, qmask, _principal_ideals(*_invariant_key(graded)))


def is_g_prime_base(graded: GradedRing) -> bool:
    """Whether the zero ideal of the identity component is invariant-prime."""
    return is_g_prime_ideal(graded, graded.ring.zero_mask)


def is_identity_generated(graded: GradedRing, ideal: Ideal) -> bool:
    """Whether the graded ideal is generated by its identity component."""
    if not is_graded_ideal(graded, ideal):
        raise ValueError("ideal is not graded")
    return _ideal_span(graded.ring, ideal.members & graded.e_mask)[0] == ideal.members


# ---------------------------------------------------------------------------
# reports


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str = ""


class Report(NamedTuple):
    checks: tuple[CheckResult, ...]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            detail = f" ({c.details})" if c.details else ""
            out.append(f"check {c.name}: {verdict}{detail}")
        return out

    def render(self) -> str:
        return "\n".join(self.lines())


@lru_cache(maxsize=16)
def _maps(graded: GradedRing, caps: Caps):
    """What both reports read: the invariant and graded lattices, the lift
    J -> <J> on the first, the projection I -> I_e on the second, whether
    <J>_e = J for every J (<J> is generated by homogeneous elements, so it is
    graded) and whether the lift preserves inclusion.  Each lattice is
    refused by its floor before it is enumerated."""
    graded_ideals = all_graded_ideals(graded, caps)
    invariant = invariant_base_ideals(graded, caps)
    lift = {j: _ideal_span(graded.ring, j)[0] for j in invariant}
    projection = {m: m & graded.e_mask for m in graded_ideals}
    back = all(projection.get(m) == j for j, m in lift.items())
    lift_inclusion = _preserves_inclusion(graded.ring, invariant, lift, _principal_ideals(*_invariant_key(graded)))
    return invariant, graded_ideals, lift, projection, back, lift_inclusion


def _preserves_inclusion(ring, masks, image: dict, family) -> bool:
    """Whether image(A), for each A among the masks, is the span of the
    image(p) of the members p of the family inside A, so that A inside B
    gives image(A) inside image(B).  Maps that preserve sums, as the lift
    and the projection do, pass on sums of family members."""
    for a in masks:
        below = 0
        for p in family:
            if p | a == a:
                below |= image[p]
        if _span(ring, below)[0] != image[a]:
            return False
    return True


def verify_bijection_identity_generated(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> Report:
    """Exhaustively check the correspondence between invariant ideals of the
    identity component and identity-generated graded ideals.

    Every check here is a theorem for any grading; a FAIL line indicates an
    implementation defect, not a property of the input.  The checks read
    the lift and projection maps, and generate an ideal afresh only from a
    projection that is not invariant, where projection_is_invariant fails.
    """
    ring = graded.ring
    invariant, graded_ideals, lift, projection, restrict_ok, lift_inclusion = _maps(graded, caps)

    def regenerated(m: int) -> int:  # <I_e> for the graded I with mask m
        proj = projection[m]
        return lift[proj] if proj in lift else _ideal_span(ring, proj)[0]

    idgen = {m for m in projection if regenerated(m) == m}
    gen_graded = all(lifted in projection for lifted in lift.values())
    gen_idgen = all(regenerated(lifted) == lifted for lifted in lift.values() if lifted in projection)
    expand_ok = all(lift.get(projection[m]) == m for m in idgen)
    projection_invariant = all(proj in lift for proj in projection.values())
    image_ok = set(lift.values()) == idgen and len(lift) == len(idgen)
    family = _family(ring, graded.component_masks)
    inclusion_ok = lift_inclusion and _preserves_inclusion(ring, idgen, projection, family)

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
    return Report(checks)


def verify_bijection_ideally_symmetric(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> Report:
    """For ideally symmetric gradings: the lift/restrict pair is a mutually
    inverse bijection onto *all* graded ideals and matches primeness.

    Raises if the grading is not ideally symmetric, since the statements
    quantify over that class only.
    """
    if not classify_grading(graded).ideally_symmetrically:
        raise ValueError("grading is not ideally symmetric")
    ring = graded.ring
    invariant, graded_ideals, lift, projection, inverse_ok, inclusion_ok = _maps(graded, caps)

    recovery_ok = all(
        closed_product(ring, ring.full_mask, p) == closed_product(ring, p, ring.full_mask) == lift.get(p) == m
        for m, p in projection.items()
    )

    onto_ok = set(lift.values()) == set(projection)

    graded_prime = {m: is_graded_m_system(graded, ring.full_mask & ~m) for m in graded_ideals if m != ring.full_mask}
    family = _principal_ideals(*_invariant_key(graded))
    prime_match = True
    gprime = []
    for q in invariant:
        if q == graded.e_mask:
            continue
        lifted = lift[q]
        if lifted not in graded_prime:  # the whole ring, or not a graded ideal
            prime_match = False
            continue
        q_prime = is_prime_among(ring, q, family)
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
    return Report(checks)

"""Earlier versions of gradedprime's kernels, kept as the references the
differential tests compare against.

The additive-subgroup kernel from before it moved to additive generators:
closure by pairwise sums, the subgroup test over all pairs, absorption over
every member and every acting element, ideal generation iterated to a
fixpoint and the lattice as the join-closure of all principal ideals.  Only
the unbounded cache on ``all_ideals`` is left off.

The lattices of a graded ring from before they came from one join-closure
kernel: ``all_graded_ideals`` filters the lattice of the whole ring by
``is_graded_ideal``, ``invariant_base_ideals`` filters the lattice of the
identity component by ``is_g_invariant``, and ``_ideal_count_floor`` bounds
the lattice of the whole ring only.  The lattices they filter come from this
module's ``all_ideals``.

The table validators from before they became one generator-based check:
``make_ring`` tests every ring axiom on all pairs and triples with numpy,
and ``group_from_table`` tests associativity on all triples in Python.

The distributivity scan from before it checked the rows of the additive
generators alone: ``distributivity_error`` tests every row x -> ax, then
every column x -> xa, for additivity along the additive generators, and
gives the text the library's ``make_ring`` raised at the first failure.

The tuple-ring builder from before it filled its tables from monomial
products: ``_tuple_ring`` sums every pair of tuples coordinate by
coordinate and calls ``mul_vec`` on every pair.  Its tables go through this
module's ``make_ring``, which accepts the same tables as the library's and
builds an equal ring from them.

The subring builder from before it went through the tuple-ring builder:
``induced_subring`` checks the selection for closure under negation,
addition and multiplication pair by pair, with error texts of its own,
and fills its tables itself, through this module's ``make_ring`` too.

The spec reader from before it became a cursor over the text: ``tokenize``
lists every token of a spec, and ``_Tokens`` and ``_parse_list`` walk that
list.  The ring, group and element-list parsers above it are the ones of
that version, calling the library's constructors and table validators, so
a differential test compares the readers alone.  Its ``tables{}`` reader
has one change from that version, so that both readers keep one grammar:
like the library's, it refuses a field given twice or one its block does
not take.

The line-file readers from before every line went through the spec cursor:
``parse_graded_file``, ``parse_filter_file`` and ``parse_graph_file`` split
each line by hand, ``ring:`` and ``group:`` lines with ``str.partition``,
degree lines by a keyword prefix and a split at their separator,
``pattern`` lines with ``str.split`` and graph lines with two regexes.  They
read the fields through the library's spec, element-list and integer
readers, so a differential test compares the line splitting alone.

The witness search from before it searched degree 0 alone:
``witness_search`` scans every degree up to the bound and forms a*s*b for
every candidate s in turn, as products of ``FilterElement``s below.

The element arithmetic over the integers from before the witness trials ran
on plain term tuples: ``FilterElement`` adds, negates, subtracts and
multiplies elements of an integer filter's subring given by their (degree,
coefficient) terms, and shows them as the trial transcripts do; ``element``,
``zero`` and ``term`` build them.  ``element`` checks every coefficient
against its degree's component: the membership check that the library's
convolution ran on every product, until it was left to the filter law,
which ``validate_filter`` decides once.  Its product sums each degree's
products itself, not through ``grfilter._product``, the convolution that
the witness search runs.

The ideal-symmetry checks from before they ran over principal graded
ideals: ``_is_ideally_symmetrically_graded`` walks the whole graded lattice,
and ``_ideally_symmetric_finite`` enumerates every family of ideals K_x
inside I_x, keeps the graded ideals among them and tests each.  Both stand
against the library's one kernel, ``grading._is_ideally_symmetric``, on the
pairs of ``grading._component_pairs`` and of ``grfilter._inverse_pairs``.

The pair tests from before they ran over principal ideals:
``graded_prime_pair_test`` quantifies over the whole graded lattice and
``is_g_prime_ideal`` over the whole invariant lattice of the identity
component, ``_invariant_ideals``, each through the ``is_prime_among`` of
that version, which takes ``Ideal``s.  ``is_g_invariant`` is the invariance
test of that version, with its ``_invariance_sites`` (every element of a
finite group); ``invariant_base_ideals`` above filters by it.

The filter checks from before they ran once per distinct value:
``validate_filter`` tests every degree's ideal and every pair of degrees'
product, and ``classify_filter`` forms the symmetric, inverse-equality and
local-unit flags degree by degree, each product spanned afresh; its ideal
test is this module's exhaustive ``is_ideal_mask``.

The corner-orthogonality scan from before it gated paths by their source
vertex: ``verify_corner_orthogonality`` lists every path up to the length
bound and gates each one by its own engine product with v or w, and tests
its requirement on the pairs of this module's ``reachability``.

Reachability and condition MT-3 from before one depth-bounded sweep over
vertex masks served both and the orthogonality scan: ``reachability``
iterates every vertex's successor masks to a fixpoint, and
``satisfies_mt3`` lists the vertices below each vertex and scans them for
each pair.

The symmetric-group builder from before it composed permutations with
``operator.itemgetter``: ``symmetric_group`` forms every product
coordinate by coordinate and hands the table to the library's
``groups.group_from_table``.

The random elements of the witness trials from before the members of a
degree were memoised: ``members_of_degree`` sorts the bits of the degree's
ideal on every draw, and ``random_element`` draws through it.  Both take
the integer filter as their first argument, and ``random_element`` gives
the drawn element's terms.  It keeps the support width and base shift as
parameters, which the library fixes at 3 and 3.

The triple product that left the library once no caller there was left:
``triple_product`` spans the products abc from the additive generators of
three masks.  The grading and filter references here call it.  Likewise
``set_product``, the raw pairwise products {ab} of two masks, which
``attach_grading`` here reads, and ``is_prime_ideal_by_pairs``, primeness
by the defining quantification over every pair of ideals, through the
library's ``is_prime_among`` on its cached lattice.

The field and residue-ring builders from before they built their tables
row by row, and ``gf`` from before it went through the tuple-ring builder:
``gf`` and ``zmod`` fill every entry in a double loop, and hand the tables
to the library's ``make_ring``.

The m-system test from before it screened each row: ``is_m_system``
searches the middle factors for every pair a, b with ab outside T.

The ideal families and the correspondence reports from before every
quantifier over ideals ran over a generating family of principal ideals:
``_principal_ideals`` keeps every principal ideal, ``_join_closure`` closes
the principal ideals of the components' elements, its floor check inside;
``is_fully_idempotent`` walks the whole lattice and every pair in it;
``filtered_invariant_ideals`` filters the lattice of the identity component
by invariance; ``_monotone`` tests inclusion on every pair of ideals; and
the two report functions regenerate an ideal for each check that needs one.

The grading validator from before multiplicativity was checked on
additive generators: ``attach_grading`` multiplies every pair of elements
of two components.

The per-element decomposition from before a grading was kept as its
component masks alone: ``_decompose`` sums every tuple of the product of
the components into the table s -> {x: nonzero part of s in S_x}, refusing
a sum that comes twice, where the library counts; ``attach_grading`` builds
it as its direct-sum check, and ``decomposition`` builds it for a graded
ring.  ``is_graded_ideal`` tests that every member's parts lie in the ideal,
where the library multiplies the sizes of the ideal's meets with the
components, and ``e_component`` projects a subset onto the identity
component part by part.  ``all_graded_ideals`` and the reports read them.

The copies from before each became a call into the kernel it copied:
``prime_element_criterion`` loops over the pairs outside P itself, where
the library's is the m-system test on the complement; ``is_s_unital_module``
spans one product per element, where the library's scans the span of the
acting set once (this module's ``classify_filter`` reads this one);
``_is_nearly_epsilon_strongly_graded`` scans each component element by
element, where the library's ``grading._pair_classes`` runs the s-unital
kernel once per distinct pair (S_x, S_{x^-1}); and ``_base`` builds the identity component as a subring, with its
index maps, on which ``_invariant_principals`` takes S_e's generating
family and maps it back, where the library takes the family in the ambient
ring.  ``base_ideals``, ``_invariant_ideals`` and
``filtered_invariant_ideals`` read ``_base``.

The function bodies are unchanged from those versions, except that the old
group parser names the library's ``groups.group_from_table`` and
``groups.symmetric_group``, the old symmetric-group builder the library's
``groups.group_from_table``, the old
ideal-symmetry checks and pair tests the library's
``grading.all_graded_ideals`` and ``finring.all_ideals``, the old
``classify_filter`` the library's ``grading._is_ideally_symmetric`` on
``grfilter._inverse_pairs`` and this module's ``is_fully_idempotent``, and the old reports,
invariant filter and ``is_fully_idempotent`` the library's lattices and
``correspondence`` helpers (this module's ``all_ideals`` is too slow for
the rings they are compared on), each wrapping the library's masks in
``Ideal`` where it reads an ideal's generators or members,
and the old ``gf`` and ``zmod`` the library's ``finring.make_ring``, which
this module's own functions of those names would otherwise shadow; ``gf``
also reaches the library's prime-power helpers through ``finring``.
The old ``_ideal_count_floor`` multiplies its per-prime counts, as the
library's does, where it took their maximum.
``_base`` is the ``GradedRing.base`` property of its version, made a
function of the graded ring and cached per graded ring like the property,
and the old ``_invariant_principals`` reads it instead of the property,
takes the subring's family from the library's ``_family``, and closes each
member by ``finring._invariant_span``, where the closure now lives, when
there are conjugators; without them the library keeps each member as it is.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache, reduce
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

import numpy as np

from gradedprime import correspondence as co
from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import groups
from gradedprime.errors import CapError, SpecError
from gradedprime.correspondence import is_base_ideal
from gradedprime.finring import (
    DEFAULT_CAPS, Caps, FiniteRing, Ideal, _gens, _product_span, _span, bits, closed_product,
    mask_of,
)
from gradedprime.frozen import Frozen
from gradedprime.grading import GradedRing, classify_grading
from gradedprime import grfilter as gfl
from gradedprime.grfilter import (
    FilterClassification, GFilter, Witness, assemble_filter_ring, filter_sites,
)
from gradedprime.groups import FiniteGroup, Z, cyclic
from gradedprime.leavitt import DirectedGraph, LeavittContext, MT3Result, paths_up_to
from gradedprime import specio
from gradedprime.specio import _as_rows, _check_group_order


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


def triple_product(ring: FiniteRing, amask: int, bmask: int, cmask: int) -> int:
    """All finite sums of products abc, as a mask."""
    return _product_span(ring, _gens(ring, amask), _gens(ring, bmask), _gens(ring, cmask))


def set_product(ring: FiniteRing, amask: int, bmask: int) -> int:
    """Raw pairwise products {ab}, no additive closure."""
    out = 0
    mul = ring.mul_table
    for a in bits(amask):
        row = mul[a]
        for b in bits(bmask):
            out |= 1 << row[b]
    return out


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


def all_graded_ideals(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> tuple[Ideal, ...]:
    """The graded members of the ideal lattice, canonically ordered."""
    return tuple(i for i in all_ideals(graded.ring, caps) if is_graded_ideal(graded, i))


def base_ideals(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """All ideals of the identity component, as ambient masks, sorted."""
    sub, old, _ = _base(graded)
    out = []
    for ideal in all_ideals(sub, caps):
        out.append(mask_of(old[i] for i in bits(ideal.members)))
    return tuple(sorted(out))


def invariant_base_ideals(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    return tuple(j for j in base_ideals(graded, caps) if is_g_invariant(graded, j))


def _ideal_count_floor(ring: FiniteRing) -> int:
    """A lower bound on the number of ideals of the ring S.

    For a prime p dividing |S|, every additive subgroup H containing
    M = S^2 + pS is an ideal, since SH + HS lies in S^2.  Those H are the
    subspaces of the F_p-space S/M; for S/M of dimension r there are
    sum_k [r choose k]_p of them, the Galois number G_r, with G_0 = 1,
    G_1 = 2 and G_{n+1} = 2 G_n + (p^n - 1) G_{n-1}.  The H for different p
    combine by their p-parts, so the counts multiply.
    """
    gens = ring.additive_generators
    square = _product_span(ring, gens, gens)
    floor, rest, p = 1, ring.order, 1
    while rest > 1:
        p += 1
        if rest % p:
            continue
        while rest % p == 0:
            rest //= p
        multiples = 0
        for g in gens:
            x = ring.zero
            for _ in range(p):
                x = ring.add_table[x][g]
            multiples |= 1 << x
        r = round(math.log(ring.order // _span(ring, square | multiples)[0].bit_count(), p))
        count, last = 1, 1  # G_0, and G_{-1} taken as 1 so the step gives G_1 = 2
        for n in range(r):
            count, last = 2 * count + (p**n - 1) * last, count
        floor *= count
    return floor


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


def distributivity_error(add_rows, mul_rows) -> Optional[str]:
    """The text make_ring raised when every row, then every column, of the
    multiplication table was scanned for additivity; None when all pass.
    The tables are square over one order, and addition is a commutative
    group."""
    read = groups.read_table(add_rows)
    _, add_maps, after, _ = read
    _, _, gens = groups.check_group_table(read, ("", "", ""))
    _, mul_maps, _, mul_columns = groups.read_table(mul_rows)
    plus_g = [(g, after(add_maps[g])) for g in gens]
    for lines, error in ((mul_maps, "left distributivity fails"), (mul_columns(), "right distributivity fails")):
        for f in lines:
            through_f = after(f)
            for g, pick in plus_g:
                if pick(f) != through_f(add_maps[f[g]]):
                    return error
    return None


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


# The token kinds.  No two of them match at the same position, and findall
# steps over whitespace; \S catches a character that starts no token.
_KINDS = {
    "int": re.compile(r"-?\d+"),
    "punct": re.compile(r"->|[(){}\[\],;=:]"),
    "name": re.compile(r"[A-Za-z_][A-Za-z0-9_]*"),
}
_VALID = re.compile("|".join(kind.pattern for kind in _KINDS.values()))
_TOKEN = re.compile(_VALID.pattern + r"|\S")


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def tokenize(text: str) -> list[str]:
    """The tokens of text with comments removed: names, integers and
    punctuation, one string each.  A character that starts no token is an
    error, reported at its first occurrence."""
    tokens = _TOKEN.findall(_strip_comments(text))
    bad = {tok for tok in set(tokens) if not _VALID.fullmatch(tok)}
    if bad:
        first = next(tok for tok in tokens if tok in bad)
        raise SpecError(f"unexpected character {first!r}")
    return tokens


class _Tokens:
    def __init__(self, items):
        self.items = items
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise SpecError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if not _KINDS[kind].fullmatch(tok) or (value is not None and tok != value):
            want = value if value is not None else kind
            raise SpecError(f"expected {want!r}, found {tok!r}")
        return tok

    def at_end(self) -> bool:
        return self.pos >= len(self.items)


def _parse_int(ts: _Tokens) -> int:
    return int(ts.expect("int"))


def _parse_list(ts: _Tokens):
    """A possibly nested [..] list of ints; a comma may follow each item.

    Walks the token list directly, with the enclosing lists on a stack.
    """
    ts.expect("punct", "[")
    items, i = ts.items, ts.pos
    out, enclosing = [], []
    try:
        while True:
            tok = items[i]
            i += 1
            if tok == "[":
                enclosing.append(out)
                out = []
                continue
            if tok == "]":
                if not enclosing:
                    ts.pos = i
                    return out
                enclosing[-1].append(out)
                out = enclosing.pop()
            else:
                try:
                    out.append(int(tok))
                except ValueError:
                    raise SpecError(f"expected 'int', found {tok!r}") from None
            if items[i] == ",":
                i += 1
    except IndexError:
        raise SpecError("unexpected end of input") from None


def _parse_table_block(ts: _Tokens) -> dict:
    ts.expect("punct", "{")
    fields = {}
    while True:
        if ts.peek() == "}":
            ts.next()
            return fields
        key = ts.expect("name")
        if key in fields:
            raise SpecError(f"tables field {key} given twice")
        ts.expect("punct", "=")
        fields[key] = _parse_list(ts) if ts.peek() == "[" else _parse_int(ts)
        if ts.peek() == ";":
            ts.next()


def _parse_ring_expr(ts: _Tokens, caps: Caps) -> FiniteRing:
    head = ts.expect("name")
    if head == "gf":
        ts.expect("punct", "(")
        q = _parse_int(ts)
        ts.expect("punct", ")")
        return fr.gf(q, caps=caps)
    if head == "zmod":
        ts.expect("punct", "(")
        n = _parse_int(ts)
        ts.expect("punct", ")")
        return fr.zmod(n, caps=caps)
    if head == "product":
        ts.expect("punct", "(")
        factors = [_parse_ring_expr(ts, caps)]
        while ts.peek() == ",":
            ts.next()
            factors.append(_parse_ring_expr(ts, caps))
        ts.expect("punct", ")")
        return fr.product(*factors, caps=caps)
    if head in ("mat", "tri"):
        ts.expect("punct", "(")
        base = _parse_ring_expr(ts, caps)
        ts.expect("punct", ",")
        n = _parse_int(ts)
        ts.expect("punct", ")")
        builder = fr.mat if head == "mat" else fr.tri
        return builder(base, n, caps=caps)
    if head == "grpalg":
        ts.expect("punct", "(")
        base = _parse_ring_expr(ts, caps)
        ts.expect("punct", ",")
        group = _parse_group_expr(ts, False, caps)
        ts.expect("punct", ")")
        return fr.grpalg(base, group, caps=caps)
    if head == "subring":
        ts.expect("punct", "(")
        base = _parse_ring_expr(ts, caps)
        ts.expect("punct", ",")
        elems = _parse_list(ts)
        ts.expect("punct", ")")
        if not all(isinstance(e, int) for e in elems):
            raise SpecError("subring selection must be a flat index list")
        return fr.subring(base, elems, caps=caps)
    if head == "tables":
        fields = _parse_table_block(ts)
        if fields.keys() != {"order", "add", "mul"}:
            raise SpecError("tables need order, add and mul")
        n = fields["order"]
        add = _as_rows(fields["add"], n, "add")
        mul = _as_rows(fields["mul"], n, "mul")
        return fr.make_ring(add, mul, caps=caps)
    raise SpecError(f"unknown ring constructor {head!r}")


def _parse_group_expr(ts: _Tokens, allow_z: bool, caps: Caps):
    """A group expression; its order is checked against the cap before any
    table is built."""
    head = ts.expect("name")
    if head == "Z":
        if not allow_z:
            raise SpecError("the integers are not allowed here")
        return Z
    if head == "cyclic":
        ts.expect("punct", "(")
        n = _parse_int(ts)
        ts.expect("punct", ")")
        _check_group_order(n, n, caps)
        return cyclic(n)
    if head == "sym":
        ts.expect("punct", "(")
        n = _parse_int(ts)
        ts.expect("punct", ")")
        order = 1  # n!, computed only until it passes the cap
        for k in range(2, n + 1):
            if order > caps.max_group_order:
                break
            order *= k
        _check_group_order(order, f"{n}!", caps)
        return groups.symmetric_group(n)
    if head == "tables":
        fields = _parse_table_block(ts)
        if fields.keys() != {"order", "op"}:
            raise SpecError("group tables need order and op")
        n = fields["order"]
        if isinstance(n, int):
            _check_group_order(n, n, caps)
        return groups.group_from_table(_as_rows(fields["op"], n, "op"))
    raise SpecError(f"unknown group constructor {head!r}")


def parse_ring_spec(text: str, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    ts = _Tokens(tokenize(text))
    ring = _parse_ring_expr(ts, caps)
    if not ts.at_end():
        raise SpecError("trailing input after ring expression")
    return ring


def parse_group_spec(text: str, allow_z: bool = True, caps: Caps = DEFAULT_CAPS):
    ts = _Tokens(tokenize(text))
    group = _parse_group_expr(ts, allow_z, caps)
    if not ts.at_end():
        raise SpecError("trailing input after group expression")
    return group


def parse_element_list(text: str) -> list[int]:
    ts = _Tokens(tokenize(text))
    if ts.peek() == "[":
        out = _parse_list(ts)
    else:
        out = []
        while not ts.at_end():
            out.append(_parse_int(ts))
            if ts.peek() == ",":
                ts.next()
    if not ts.at_end():
        raise SpecError("trailing input after element list")
    if not all(isinstance(v, int) for v in out):
        raise SpecError("expected a flat list of element indices")
    return out


def _degree_order(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


class FilterElement(Frozen):
    """An element of an integer filter's subring: its (degree, coefficient)
    terms, degrees ascending."""

    _fields = ("filter", "coeffs")

    def __init__(self, f, coeffs: tuple[tuple[int, int], ...]):
        vars(self).update(filter=f, coeffs=coeffs)

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
        f = self.filter
        if other.filter is not f:
            raise ValueError("elements belong to different filter rings")
        add, zero = f.ring.add_table, f.ring.zero
        acc = dict(self.coeffs)
        for d, c in other.coeffs:
            acc[d] = add[acc.get(d, zero)][c]
        return element(f, acc)

    def __neg__(self) -> "FilterElement":
        neg = self.filter.ring.neg_table
        return element(self.filter, {d: neg[c] for d, c in self.coeffs})

    def __sub__(self, other) -> "FilterElement":
        return self + (-other)

    def __mul__(self, other: "FilterElement") -> "FilterElement":
        """The convolution, each degree's coefficient summed from the pairs
        of terms whose degrees add up to it."""
        f = self.filter
        if other.filter is not f:
            raise ValueError("elements belong to different filter rings")
        ring = f.ring
        pairs = [(d1 + d2, ring.mul_table[c1][c2]) for d1, c1 in self.coeffs for d2, c2 in other.coeffs]
        return element(f, {k: reduce(ring.add, (c for d, c in pairs if d == k), ring.zero) for k, _ in pairs})

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        ring = self.filter.ring
        return " + ".join(f"{ring.name(c)}·x^{d}" for d, c in self.coeffs)


def element(f, coeffs) -> FilterElement:
    """The element of the integer filter f with the coefficients of coeffs
    (degree -> coefficient), zeros dropped; SpecError if a coefficient lies
    outside its degree's component."""
    ring, items = f.ring, []
    for x, c in sorted(coeffs.items()):
        if c == ring.zero:
            continue
        if not f.ideal_at(x) >> c & 1:
            raise SpecError(f"coefficient {ring.name(c)} is outside the degree-{x} component")
        items.append((int(x), int(c)))
    return FilterElement(f, tuple(items))


def zero(f) -> FilterElement:
    return FilterElement(f, ())


def term(f, degree: int, coeff: int) -> FilterElement:
    return element(f, {degree: coeff})


def witness_search(f, a, b, degree_bound: int):
    """First homogeneous s with a*s*b nonzero, after trying a*b directly;
    a and b are term tuples, as the library's search takes them.

    Candidate degrees are scanned in the order 0, 1, -1, 2, -2, ... and
    coefficients in element-index order, so the returned witness is
    deterministic.  For each candidate the product of the two top
    components is probed first: top degrees add uniquely, so a nonzero top
    triple already certifies the product without the full convolution.
    Absence within the bound is reported as None, never as a disproof.
    """
    if not a or not b:
        raise ValueError("elements must be nonzero")
    ring = f.ring
    a, b = FilterElement(f, a), FilterElement(f, b)
    if a * b:
        return Witness(None, None)
    _, ra = a.top()
    _, rb = b.top()
    for x in _degree_order(degree_bound):
        for c in members_of_degree(f, x):
            if c == ring.zero:
                continue
            if ring.mul3(ra, c, rb) != ring.zero:
                return Witness(x, c)
            s = term(f, x, c)
            if (a * s) * b:
                return Witness(x, c)
    return None


def _is_ideally_symmetrically_graded(graded: GradedRing, caps: Caps) -> bool:
    ring = graded.ring
    group = graded.group
    for members in gr.all_graded_ideals(graded, caps):
        for x in graded.support:
            ix = members & graded.component(x)
            sx = graded.component(x)
            sxi = graded.component(group.inverse(x))
            if triple_product(ring, sx, sxi, ix) != ix:
                return False
            if triple_product(ring, ix, sxi, sx) != ix:
                return False
    return True


def _ideally_symmetric_finite(f: GFilter, caps: Caps) -> bool:
    """Decide ideal symmetry from the filter data alone for finite groups.

    Graded ideals of the subring correspond to families K_x of ideals of R
    with K_x inside I_x and I_y K_x, K_x I_y inside K at the shifted index;
    the absorption equalities are then checked per family.
    """
    ring = f.ring
    group = f.group
    lattice = fr.all_ideals(ring, caps)
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


def _invariance_sites(graded: GradedRing):
    group = graded.group
    if group.is_finite:
        return list(group.elements())
    return [x for x in graded.support if graded.component(group.inverse(x)).bit_count() > 1]


def is_g_invariant(graded: GradedRing, jmask: int) -> bool:
    """Whether conjugating J by every component pair lands back inside J."""
    if not is_base_ideal(graded, jmask):
        raise ValueError("subset is not an ideal of the identity component")
    ring = graded.ring
    group = graded.group
    for x in _invariance_sites(graded):
        sxi = graded.component(group.inverse(x))
        sx = graded.component(x)
        conj = triple_product(ring, sxi, jmask, sx)
        if conj | jmask != jmask:
            return False
    return True


def is_prime_among(ring: FiniteRing, pmask: int, ideals: Iterable[Ideal]) -> bool:
    """Whether AB inside P forces A or B inside P, for A and B ranging over
    the given ideals of the ring.

    P must be an additive subgroup (every caller passes an ideal); then AB
    lies in P exactly when the products of the cached additive generators
    of A and B do.
    """
    mul = ring.mul_table
    outside = [a._generators for a in ideals if a.members | pmask != pmask]
    for ga in outside:
        for gb in outside:
            if all(pmask >> mul[x][y] & 1 for x in ga for y in gb):
                return False
    return True


def is_prime_ideal_by_pairs(ring: FiniteRing, p: Ideal, caps: Caps = DEFAULT_CAPS) -> bool:
    """Primeness via the defining quantification over all ideal pairs."""
    fr._check_proper_ideal(ring, p)
    return fr.is_prime_among(ring, p.members, fr._lattice(ring, (ring.full_mask,), ring.additive_generators, (), caps))


def graded_prime_pair_test(graded: GradedRing, p: Ideal, caps: Caps = DEFAULT_CAPS) -> bool:
    """Quantification over pairs of graded ideals."""
    ring = graded.ring
    return is_prime_among(ring, p.members, (Ideal(ring, m) for m in gr.all_graded_ideals(graded, caps)))


@lru_cache(maxsize=16)
def _invariant_ideals(graded: GradedRing, caps: Caps) -> MappingProxyType[int, Ideal]:
    """The G-invariant ideals of S_e as ideals of the subring _base(graded), by
    ambient mask; the index map is increasing, so the masks come sorted."""
    sub, old, _ = _base(graded)
    ideals = {mask_of(old[k] for k in bits(m)): Ideal(sub, m) for m in fr.all_ideals(sub, caps)}
    return MappingProxyType({m: i for m, i in ideals.items() if is_g_invariant(graded, m)})


def is_g_prime_ideal(graded: GradedRing, qmask: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """Primeness quantified over invariant ideals of the identity component."""
    invariant = _invariant_ideals(graded, caps)
    if qmask == graded.e_mask or qmask not in invariant:
        raise ValueError("subset is not a proper invariant ideal of the identity component")
    return is_prime_among(_base(graded)[0], invariant[qmask].members, invariant.values())


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
        ideally: Optional[bool] = gr._is_ideally_symmetric(ring, gfl._inverse_pairs(f))
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


def reachability(g: DirectedGraph) -> frozenset[tuple[str, str]]:
    """Reflexive-transitive closure of the edge relation, as vertex pairs."""
    idx = g.vertex_index
    n = len(g.vertices)
    reach = [1 << i for i in range(n)]
    succ = [0] * n
    for e in g.edges:
        succ[idx[e.src]] |= 1 << idx[e.dst]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = reach[i]
            for j in bits(succ[i]):
                acc |= reach[j]
            if acc != reach[i]:
                reach[i] = acc
                changed = True
    vertices = g.vertices
    return frozenset((u, vertices[j]) for i, u in enumerate(vertices) for j in bits(reach[i]))


def satisfies_mt3(g: DirectedGraph) -> MT3Result:
    """Whether every vertex pair flows to a common vertex.

    On success returns the first common vertex (in declared order) for every
    ordered pair; on failure returns the first violating pair.
    """
    if not g.vertices:
        raise SpecError("empty graph")
    reach = reachability(g)
    down = {v: [w for w in g.vertices if (v, w) in reach] for v in g.vertices}
    sinks = {}
    for u in g.vertices:
        du = set(down[u])
        for v in g.vertices:
            common = [w for w in down[v] if w in du]
            if not common:
                return MT3Result(False, None, (u, v))
            sinks[(u, v)] = common[0]
    return MT3Result(True, sinks, None)


def verify_corner_orthogonality(
    g: DirectedGraph,
    coeff: FiniteRing,
    v: str,
    w: str,
    max_len: int = 4,
) -> bool:
    """Check v * (alpha beta-star) * w = 0 for every bounded monomial.

    Requires that (v, w) has no common reachable vertex; the scan then
    certifies that the corner ideals at v and w annihilate each other up to
    the length bound.
    """
    reach = reachability(g)
    down_v = {y for (x, y) in reach if x == v}
    down_w = {y for (x, y) in reach if x == w}
    if down_v & down_w:
        raise ValueError(f"({v},{w}) has a common reachable vertex")
    ctx = LeavittContext(g, coeff)
    unit = ctx.coeff.unit
    vel = ctx.vertex(v)
    wel = ctx.vertex(w)
    by_range: dict = {}
    for p in paths_up_to(g, max_len):
        by_range.setdefault(p.dst, []).append(p)
    for dst, group in by_range.items():
        # v*(alpha beta-star)*w factors through the engine as
        # (v*alpha)*(beta-star*w), so each path is gated by one product and
        # only surviving combinations need the full monomial check
        reals = [p for p in group if vel * ctx.monomial(unit, p.edges, (), vertex=dst)]
        if not reals:
            continue
        ghosts = [p for p in group if ctx.monomial(unit, (), p.edges, vertex=dst) * wel]
        for pa in reals:
            for pb in ghosts:
                m = ctx.monomial(unit, pa.edges, pb.edges, vertex=dst)
                if (vel * m) * wel:
                    return False
    return True


def members_of_degree(f, x: int) -> list[int]:
    return sorted(bits(f.ideal_at(x)))


def random_element(f, rng, max_width: int = 3, max_shift: int = 3):
    """The terms of a random nonzero element with support width <= max_width.

    Deterministic for a given random.Random instance.
    """
    if f.ring.order == 1:
        raise SpecError("the zero ring has no nonzero elements")
    while True:
        base = rng.randint(-max_shift, max_shift)
        width = rng.randint(1, max_width)
        coeffs = {}
        for d in range(base, base + width):
            choices = members_of_degree(f, d)
            coeffs[d] = rng.choice(choices)
        elem = element(f, coeffs)
        if elem:
            return elem.coeffs


def zmod(n: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """The ring of integers modulo n."""
    if n < 1:
        raise SpecError("modulus must be positive")
    if n > caps.max_ring_order:  # before the n x n tables are built
        raise CapError(f"ring order {n} exceeds cap {caps.max_ring_order}")
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return fr.make_ring(add, mul, caps=caps)


def gf(q: int, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    """The finite field with q elements, q a prime power."""
    if q < 2 or q > 256:
        raise SpecError("field order must be a prime power between 2 and 256")
    p, k = fr._factor_prime_power(q)
    if k == 1:
        return zmod(p, caps=caps)
    monic = ([*coeffs, 1] for coeffs in itertools.product(range(p), repeat=k))
    modpoly = next(m for m in monic if fr._is_irreducible(m, p))
    if q > caps.max_ring_order:
        raise CapError(f"ring order {q} exceeds cap {caps.max_ring_order}")

    def name(i):
        digits = [(j, i // p**j % p) for j in range(k - 1, -1, -1)]
        terms = [
            str(c) if j == 0 else ("" if c == 1 else str(c)) + ("a" if j == 1 else f"a^{j}")
            for j, c in digits
            if c
        ]
        return "+".join(terms) or "0"

    # Element i is the polynomial (i % p) + a * (element i // p), so both
    # tables follow from bilinearity, each entry from entries built before it.
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for i in range(q):
        for j in range(q):
            add[i][j] = (i % p + j % p) % p + p * add[i // p][j // p]
    for c in range(p):  # the scalars multiply digit by digit
        for j in range(q):
            mul[c][j] = c * (j % p) % p + p * mul[c][j // p]
    top = q // p
    a_to_k = sum((-m) % p * p**j for j, m in enumerate(modpoly[:k]))  # a^k, reduced
    times_a = [add[y % top * p][mul[y // top][a_to_k]] for y in range(q)]
    for i in range(p, q):
        for j in range(q):
            mul[i][j] = add[mul[i % p][j]][times_a[mul[i // p][j]]]
    return fr.make_ring(add, mul, [name(i) for i in range(q)], caps=caps)


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


def _principal_ideals(ring: FiniteRing, components: Sequence[int]) -> dict[int, list[int]]:
    """The principal ideals of the components' elements: mask -> generators."""
    return dict(fr._ideal_span(ring, 1 << a) for comp in components for a in bits(comp))


def _join_closure(ring: FiniteRing, components: Sequence[int], caps: Caps) -> tuple[Ideal, ...]:
    """The sums of the principal ideals of the elements of the components,
    ordered by bitmask: the closure of the zero ideal under joins with them,
    each extending an ideal by a principal ideal's additive generators.  It
    is refused before it is enumerated when _ideal_count_floor exceeds the cap.
    """
    if fr._ideal_count_floor(ring, components) > caps.max_ideals:
        raise CapError(f"ideal lattice exceeds cap {caps.max_ideals}")
    lattice = {ring.zero_mask: ()}
    for pmask, pgens in _principal_ideals(ring, components).items():
        xmask = mask_of(pgens)
        for mask, gens in list(lattice.items()):
            if pmask & ~mask:
                join, join_gens = fr._extend(ring, mask, gens, xmask)
                if join not in lattice:
                    lattice[join] = join_gens
                    if len(lattice) > caps.max_ideals:
                        raise CapError(f"ideal lattice exceeds cap {caps.max_ideals}")
    return tuple(Ideal(ring, m) for m in sorted(lattice))


def is_fully_idempotent(ring: FiniteRing, caps: Caps = DEFAULT_CAPS) -> bool:
    """Whether every ideal I satisfies I*I = I.

    Also evaluates the pairwise criterion IJ = (I intersect J) and insists
    the two agree; disagreement would be an implementation bug.  Products
    are compared as masks, spanned by the ideals' cached generators, so the
    loop neither builds an Ideal per pair nor fills the ideal_product cache.
    """
    lattice = [Ideal(ring, m) for m in fr.all_ideals(ring, caps)]
    squares = all(_product_span(ring, i._generators, i._generators) == i.members for i in lattice)
    pairwise = all(
        _product_span(ring, i._generators, j._generators) == i.members & j.members
        for i in lattice
        for j in lattice
    )
    if squares != pairwise:
        raise RuntimeError("idempotent-ideal criteria disagree; internal bug")
    return squares


def filtered_invariant_ideals(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """The G-invariant ideals of S_e as a filter of the library's lattice of
    the induced subring, by the library's is_g_invariant."""
    sub, old, _ = _base(graded)
    base = sorted(mask_of(old[i] for i in bits(m)) for m in fr.all_ideals(sub, caps))
    return tuple(j for j in base if co.is_g_invariant(graded, j))


def _monotone(masks, image: dict) -> bool:
    """Whether a inside b implies image[a] inside image[b] among the masks."""
    return all(image[a] | image[b] == image[b] for a in masks for b in masks if a | b == b)


def verify_bijection_identity_generated(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> co.Report:
    """Exhaustively check the correspondence between invariant ideals of the
    identity component and identity-generated graded ideals.

    Every check here is a theorem for any grading; a FAIL line indicates an
    implementation defect, not a property of the input.
    """
    ring = graded.ring
    invariant = filtered_invariant_ideals(graded, caps)
    graded_ideals = [Ideal(ring, m) for m in gr.all_graded_ideals(graded, caps)]
    idgen = [i for i in graded_ideals if co.is_identity_generated(graded, i)]
    idgen_masks = {i.members for i in idgen}

    generated = {}
    gen_graded = True
    gen_idgen = True
    restrict_ok = True
    for j in invariant:
        lifted = fr.generate_ideal(ring, bits(j))
        generated[j] = lifted.members
        if not is_graded_ideal(graded, lifted):
            gen_graded = False
        elif not co.is_identity_generated(graded, lifted):
            gen_idgen = False
        if e_component(graded, lifted.members) != j:
            restrict_ok = False

    projections = {i.members: e_component(graded, i.members) for i in graded_ideals}
    expand_ok = all(generated.get(projections[m]) == m for m in idgen_masks)
    projection_invariant = all(co.is_g_invariant(graded, proj) for proj in projections.values())

    image_ok = set(generated.values()) == idgen_masks and len(generated) == len(idgen_masks)

    inclusion_ok = _monotone(invariant, generated) and _monotone(idgen_masks, projections)

    n_inv, n_idgen, n_graded = len(invariant), len(idgen), len(graded_ideals)
    checks = (
        co.CheckResult("lift_is_graded", gen_graded, f"{n_inv} invariant ideals"),
        co.CheckResult("lift_is_identity_generated", gen_idgen, f"{n_inv} invariant ideals"),
        co.CheckResult("lift_then_restrict_is_identity", restrict_ok, f"{n_inv} invariant ideals"),
        co.CheckResult("restrict_then_lift_is_identity", expand_ok, f"{n_idgen} identity-generated ideals"),
        co.CheckResult("projection_is_invariant", projection_invariant, f"{n_graded} graded ideals"),
        co.CheckResult("lift_image_matches", image_ok, f"{n_inv} invariant vs {n_idgen} identity-generated"),
        co.CheckResult("inclusion_preserved", inclusion_ok, "both directions"),
    )
    return co.Report(checks)


def verify_bijection_ideally_symmetric(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> co.Report:
    """For ideally symmetric gradings: the lift/restrict pair is a mutually
    inverse bijection onto *all* graded ideals and matches primeness.

    Raises if the grading is not ideally symmetric, since the statements
    quantify over that class only.
    """
    if not classify_grading(graded).ideally_symmetrically:
        raise ValueError("grading is not ideally symmetric")
    ring = graded.ring
    invariant = filtered_invariant_ideals(graded, caps)
    graded_ideals = [Ideal(ring, m) for m in gr.all_graded_ideals(graded, caps)]

    generated = {j: fr.generate_ideal(ring, bits(j)).members for j in invariant}
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
        i.members: gr.is_graded_prime_ideal(graded, i) for i in graded_ideals if i.is_proper
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
        q_prime = co.is_g_prime_ideal(graded, q)
        if q_prime != graded_prime[lifted]:
            prime_match = False
        if q_prime:
            gprime.append(lifted)
    graded_primes = [m for m, prime in graded_prime.items() if prime]
    prime_sets_ok = sorted(gprime) == sorted(graded_primes)

    n_inv, n_graded = len(invariant), len(graded_ideals)
    n_proper = sum(q != graded.e_mask for q in invariant)
    checks = (
        co.CheckResult("hypothesis_ideally_symmetric", True, ""),
        co.CheckResult("graded_ideal_recovered_from_base", recovery_ok, f"{n_graded} graded ideals"),
        co.CheckResult("lift_onto_all_graded_ideals", onto_ok, f"{n_inv} invariant vs {n_graded} graded"),
        co.CheckResult("maps_mutually_inverse", inverse_ok, ""),
        co.CheckResult("inclusion_preserved", inclusion_ok, ""),
        co.CheckResult("prime_verdicts_match", prime_match, f"{n_proper} proper invariant ideals"),
        co.CheckResult("prime_sets_correspond", prime_sets_ok, f"{len(graded_primes)} graded prime ideals"),
    )
    return co.Report(checks)


def attach_grading(ring: FiniteRing, group, components, caps: Caps = DEFAULT_CAPS) -> GradedRing:
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
        mask = val if isinstance(val, int) else mask_of(val)
        if mask >> ring.order:
            raise SpecError("component contains out-of-range elements")
        if fr._span(ring, mask)[0] != mask:
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
    _decompose(ring, comps, support)
    for x in support:
        for y in support:
            target = comps.get(group.op(x, y), ring.zero_mask)
            prod = set_product(ring, comps[x], comps[y])
            if prod | target != target:
                raise SpecError(
                    f"components at {x} and {y} do not multiply into their product component"
                )
    return GradedRing(ring, group, comps, support)


def _decompose(ring: FiniteRing, comps: dict, support: tuple) -> tuple[dict, ...]:
    """s -> {x: nonzero part of s in S_x}, from the sum of every tuple of the
    product of the components; refuses a sum that comes twice."""
    decomp: list = [None] * ring.order
    for combo in itertools.product(*[list(bits(comps[x])) for x in support]):
        s = reduce(ring.add, combo, ring.zero)
        if decomp[s] is not None:
            raise SpecError("components do not form a direct sum (sum collision)")
        decomp[s] = {x: part for x, part in zip(support, combo) if part != ring.zero}
    assert all(d is not None for d in decomp)
    return tuple(decomp)


@lru_cache(maxsize=64)
def decomposition(graded: GradedRing) -> tuple[dict, ...]:
    """The decomposition of every element of the graded ring."""
    return _decompose(graded.ring, graded.components, graded.support)


def is_graded_ideal(graded: GradedRing, ideal: Ideal) -> bool:
    """Whether every member's homogeneous components all lie in the ideal."""
    mask, decomp = ideal.members, decomposition(graded)
    for m in bits(mask):
        for part in decomp[m].values():
            if not mask >> part & 1:
                return False
    return True


def e_component(graded: GradedRing, xmask: int) -> int:
    """Image of a subset under the projection onto the identity component.

    For a graded ideal this coincides with intersecting with S_e.
    """
    decomp, e = decomposition(graded), graded.group.identity
    return mask_of(decomp[m].get(e, graded.ring.zero) for m in bits(xmask))


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n letters; elements are permutations in lex order.

    The product sigma*tau maps i to sigma[tau[i]] (tau applied first).
    """
    if n < 1:
        raise SpecError("symmetric group degree must be positive")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    rows = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    names = tuple("".join(map(str, p)) for p in perms)
    return groups.group_from_table(rows, names)


def prime_element_criterion(ring: FiniteRing, p: Ideal, candidates: Optional[int] = None) -> bool:
    """Elementwise criterion: aSb in P and ab in P force a in P or b in P.

    Only a, b in the candidates mask (default: the whole ring) are tested.
    The middle factor ranges over the ring's additive generators, which is
    the same test: P is additive, so aSb lies in P when agb does for each
    generator g.
    """
    fr._check_proper_ideal(ring, p)
    pm = p.members
    mul = ring.mul_table
    outside = _restrict(ring.full_mask & ~pm, candidates)
    for a in outside:
        arow = mul[a]
        for b in outside:
            if not pm >> arow[b] & 1:
                continue
            if all(pm >> mul[arow[s]][b] & 1 for s in ring.additive_generators):
                return False
    return True


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


def _is_nearly_epsilon_strongly_graded(graded: GradedRing) -> bool:
    ring = graded.ring
    group = graded.group
    for x in graded.support:
        sx = graded.component(x)
        sxi = graded.component(group.inverse(x))
        left_units = closed_product(ring, sx, sxi)
        right_units = closed_product(ring, sxi, sx)
        for s in bits(sx):
            if not any(ring.mul(eps, s) == s for eps in bits(left_units)):
                return False
            if not any(ring.mul(s, eps) == s for eps in bits(right_units)):
                return False
    return True


@lru_cache(maxsize=16)
def _base(graded: GradedRing):
    """The identity component as a ring: (subring, old indices, index map),
    the ring itself when S_e = S."""
    if graded.e_mask == graded.ring.full_mask:
        old = tuple(graded.ring.elements())
        return graded.ring, old, dict(zip(old, old))
    sub, old = fr.subring(graded.ring, bits(graded.e_mask)), tuple(bits(graded.e_mask))
    return sub, old, {o: i for i, o in enumerate(old)}


def _invariant_principals(graded: GradedRing) -> dict[int, list[int]]:
    """The invariant closures of the generating family of principal ideals
    of S_e: mask -> generators.  Without conjugators each member is its own
    closure and keeps its generators."""
    sub, old, _ = _base(graded)
    principals = fr._family(sub, (sub.full_mask,))
    conjugators = co._conjugators(graded)
    members = ((mask_of(old[i] for i in bits(m)), [old[i] for i in gens]) for m, gens in principals.items())
    if not conjugators:
        return dict(members)
    return dict(fr._invariant_span(graded.ring, m, gens, conjugators) for m, gens in members)


def _meaningful_lines(text: str):
    for raw in specio._strip_comments(text).splitlines():
        line = raw.strip()
        if line:
            yield line


def _headed_lines(text: str, caps: Caps, kind: str):
    """The ring and group of a graded or filter file, and its other lines.

    Each of ``ring:`` and ``group:`` must appear exactly once.
    """
    parsers = {
        "ring": lambda spec: specio.parse_ring_spec(spec, caps),
        "group": lambda spec: specio.parse_group_spec(spec, caps=caps),
    }
    headers = {}
    rest = []
    for line in _meaningful_lines(text):
        key, colon, spec = line.partition(":")
        if not colon or key not in parsers:
            rest.append(line)
        elif key in headers:
            raise SpecError(f"{key}: line given twice")
        else:
            headers[key] = parsers[key](spec)
    if len(headers) != 2:
        raise SpecError(f"a {kind} file needs ring: and group: lines")
    return headers["ring"], headers["group"], rest


def _degree_line(line: str, keyword: str, sep: str, seen) -> tuple[int, list[int]]:
    """Split '<keyword> <x> <sep> <element list>' into x and the list,
    rejecting a degree already in seen."""
    body = line[len(keyword) :]
    if sep not in body:
        raise SpecError(f"malformed {keyword} line: {line!r}")
    deg_text, members_text = body.split(sep, 1)
    ts = specio._Tokens(deg_text)
    x = specio._parse_int(ts)
    if not ts.at_end():
        raise SpecError(f"malformed {keyword} degree: {deg_text!r}")
    if x in seen:
        raise SpecError(f"{keyword} {x} given twice")
    return x, specio.parse_element_list(members_text)


def parse_graded_file(text: str, caps: Caps = DEFAULT_CAPS) -> GradedRing:
    ring, group, lines = _headed_lines(text, caps, "graded ring")
    components = {}
    for line in lines:
        if line.startswith("component"):
            x, members = _degree_line(line, "component", ":", components)
            components[x] = members
        else:
            raise SpecError(f"unrecognized line: {line!r}")
    return gr.attach_grading(ring, group, components)


def parse_filter_file(text: str, caps: Caps = DEFAULT_CAPS) -> GFilter:
    ring, group, lines = _headed_lines(text, caps, "filter")
    assignments = {}
    rule = None
    overrides = {}
    for line in lines:
        if line.startswith("I "):
            x, gens = _degree_line(line, "I", "=", assignments)
            assignments[x] = gens
        elif line.startswith("pattern"):
            if rule is not None:
                raise SpecError("pattern line given twice")
            parts = line.split(None, 2)
            if len(parts) < 2:
                raise SpecError(f"malformed pattern line: {line!r}")
            kind = parts[1]
            if kind == "subgroup":
                rest = (parts[2] if len(parts) > 2 else "").strip()
                ts = specio._Tokens(rest)
                n = specio._parse_int(ts)
                gens = specio._parse_list(ts) if ts.peek() == "[" else []
                if not ts.at_end():
                    raise SpecError(f"trailing input on pattern line: {line!r}")
                rule = ("subgroup", n, gens)
            elif kind == "constant":
                gens = specio.parse_element_list(parts[2] if len(parts) > 2 else "[]")
                rule = ("constant", 1, gens)
            else:
                raise SpecError(f"unknown pattern {kind!r}")
        elif line.startswith("override"):
            x, gens = _degree_line(line, "override", "=", overrides)
            overrides[x] = gens
        else:
            raise SpecError(f"unrecognized line: {line!r}")

    def ideal_mask(gens):
        return fr.generate_ideal(ring, gens).members

    if group.is_finite:
        if rule is not None or overrides:
            raise SpecError("patterns and overrides are for integer filters")
        table = {x: ideal_mask(g) for x, g in assignments.items()}
        table.setdefault(group.identity, ring.full_mask)
        missing = set(group.elements()) - set(table)
        if missing:
            raise SpecError(f"missing assignments for group elements {sorted(missing)}")
        return gfl.make_finite_filter(ring, group, table)
    if rule is None:
        raise SpecError("an integer filter needs a pattern line")
    if assignments:
        raise SpecError("I lines are for finite groups; use overrides")
    kind, n, gens = rule
    zrule = gfl.ZRule(kind, n, ideal_mask(gens))
    return gfl.make_z_filter(ring, zrule, {x: ideal_mask(g) for x, g in overrides.items()}, caps)


_VERTEX_LINE = re.compile(r"^vertex\s+([A-Za-z_][A-Za-z0-9_]*)$")
_EDGE_LINE = re.compile(
    r"^edge\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)$"
)


def parse_graph_file(text: str) -> DirectedGraph:
    from gradedprime.leavitt import Edge

    vertices = []
    edges = []
    for line in _meaningful_lines(text):
        m = _VERTEX_LINE.match(line)
        if m:
            vertices.append(m.group(1))
            continue
        m = _EDGE_LINE.match(line)
        if m:
            edges.append(Edge(m.group(1), m.group(2), m.group(3)))
            continue
        raise SpecError(f"unrecognized graph line: {line!r}")
    return DirectedGraph(tuple(vertices), tuple(edges))

"""References for the differential tests: for each concept, one version
that decides it from its definition, or as close to it as the tests'
inputs allow within the suite's time, kept apart from the library's
kernels so that a fault in one is seen against the other.  Each concept
names its reference below; the tests read no other.

- Subgroup: ``subgroup_closure`` adds every pair of members until no new
  element appears; a mask is a subgroup when it is its own closure.
- Ideal: ``is_ideal_mask`` tests a subgroup for absorption by every acting
  element on both sides, and ``generate_ideal`` iterates additive closure
  and two-sided products with every acting element to a fixpoint; the
  acting elements default to the whole ring, and a mask of them gives the
  ideals of the subring they span, such as the identity component.
  ``set_product`` lists the raw products {ab} of two masks, and
  ``triple_product`` is the library's span of the products abc, which the
  grading, invariance and filter references below read.
- Lattice: ``all_ideals`` lists every sum of principal ideals as sorted
  masks, adding each principal ideal in turn to every sum found before
  it; the sum of two subgroups is their sumset.  ``all_graded_ideals``
  sums the principal ideals of homogeneous elements alone, which generate
  exactly the graded ideals, and ``invariant_base_ideals`` keeps the
  ideals of the identity component that ``is_g_invariant`` accepts.
- Floor: ``_ideal_count_floor`` counts the subgroups over S^2 + pS of the
  whole ring, for each prime p, and multiplies the counts.
- Primeness: ``is_prime_among``, the defining quantification: AB inside P
  forces A or B inside P, for A and B among the ideals given: all ideals,
  the graded ones or the invariant ones of the identity component, or
  ``principal_ideals``, those of single elements, all or homogeneous ones,
  which decide the same verdicts with fewer ideals.
- Grading validation: ``attach_grading`` multiplies every pair of elements
  of two components, and ``_decompose`` sums every tuple of the product of
  the components into the table s -> {x: nonzero part of s in S_x},
  refusing a sum that comes twice; ``decomposition`` builds it for a graded
  ring, ``is_graded_ideal`` tests that every member's parts lie in the
  ideal, and ``e_component`` projects a subset onto the identity component
  part by part.
- Grading classes: ``_is_nearly_epsilon_strongly_graded`` scans each
  component element by element; ``_ideally_symmetric_graded`` walks the
  whole graded lattice, and for a filter ``_ideally_symmetric_finite``
  enumerates every family of ideals K_x inside I_x and tests the graded
  ones; ``is_s_unital_module`` spans one product per element; and
  ``is_fully_idempotent`` squares every ideal of ``all_ideals``.
- Invariant ideals: ``is_g_invariant`` conjugates J by every pair
  (S_{x^-1}, S_x), x every element of a finite group or, over the
  integers, each degree whose components are both nonzero.
- Table validation: ``make_ring`` tests every ring axiom on all pairs and
  triples with numpy, distributivity row by row (left), then column by
  column (right), before associativity, the order in which the library's
  validator names a failure; ``group_from_table`` tests associativity on
  all triples.  ``gf``, ``zmod`` and ``symmetric_group`` fill every table
  entry in turn and hand the tables to the library's validators.
- Tuple rings: ``_tuple_ring`` sums every pair of tuples coordinate by
  coordinate and calls ``mul_vec`` on every pair; its tables go through
  ``make_ring``.  A subring is the tuple ring of one coordinate whose
  coefficient set is the selection.
- Spec and line-file reading: ``tokenize`` lists every token of a spec, and
  ``_Tokens`` and ``_parse_list`` walk that list; the ring, group and
  element-list parsers above them call the library's constructors and
  table validators, so a differential test compares the readers alone.
  Its ``tables{}`` reader, like the library's, refuses a field given twice
  or one its block does not take.  ``parse_graded_file``,
  ``parse_filter_file`` and ``parse_graph_file`` split each line by hand,
  ``ring:`` and ``group:`` lines with ``str.partition``, degree lines by a
  keyword prefix and a split at their separator, ``pattern`` lines with
  ``str.split`` and graph lines with two regexes, and read the fields
  through the library's readers.
- Filters and witness search: ``FilterElement`` adds, negates, subtracts
  and multiplies elements of an integer filter's subring given by their
  (degree, coefficient) terms, each product summed degree by degree, and
  shows them as the trial transcripts do; ``element``, ``zero`` and
  ``term`` build them, ``element`` checking every coefficient against its
  degree's component.  ``witness_search`` scans every degree up to the
  bound and forms a*s*b for every candidate s in turn; ``members_of_degree``
  sorts a degree's ideal on every draw and ``random_element`` draws through
  it, with the support width and base shift as parameters.
  ``validate_filter`` tests every degree's ideal and every pair of degrees'
  product, and ``classify_filter`` forms the symmetric, inverse-equality
  and local-unit flags degree by degree, reading ideal symmetry from the
  library's ``grading._pair_classes`` on ``grfilter._inverse_pairs``.
- MT-3: ``reachability`` iterates every vertex's successor masks to a
  fixpoint, ``satisfies_mt3`` lists the vertices below each vertex and scans
  them for each pair, ``hs_closure`` closes a vertex set under successors
  and saturation (the route through the graded ideals), and
  ``verify_corner_orthogonality`` lists every path up to the length bound
  and gates each one by its own engine product.
- Correspondence reports: ``verify_bijection_identity_generated`` and
  ``verify_bijection_ideally_symmetric`` regenerate an ideal for each check
  that needs one, and ``_monotone`` tests inclusion on every pair of
  ideals.  They read this module's invariant lattice and the library's
  graded lattice, lifts and verdicts, wrapping its masks in ``Ideal`` where
  a library predicate takes one.

Where a reference reads the library (its products, lattices, constructors
or readers), the library's version is checked against a reference of its
own elsewhere in the suite.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Optional, Sequence

import numpy as np

from gradedprime import correspondence as co
from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import groups
from gradedprime.errors import CapError, SpecError
from gradedprime.finring import (
    DEFAULT_CAPS, Caps, FiniteRing, _gens, _product_span, _span, bits, closed_product, mask_of,
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


def is_ideal_mask(ring: FiniteRing, mask: int, acting: Optional[int] = None) -> bool:
    """Whether mask is an additive subgroup absorbing products with the
    acting elements (default: the whole ring) on both sides."""
    if subgroup_closure(ring, mask) != mask:
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


def set_product(ring: FiniteRing, amask: int, bmask: int) -> int:
    """Raw pairwise products {ab}, no additive closure."""
    out = 0
    mul = ring.mul_table
    for a in bits(amask):
        row = mul[a]
        for b in bits(bmask):
            out |= 1 << row[b]
    return out


def triple_product(ring: FiniteRing, amask: int, bmask: int, cmask: int) -> int:
    """All finite sums of products abc, as a mask."""
    return _product_span(ring, _gens(ring, amask), _gens(ring, bmask), _gens(ring, cmask))


def generate_ideal(ring: FiniteRing, gens: Iterable[int], acting: Optional[int] = None) -> int:
    """Smallest two-sided ideal containing the generators, of the subring
    spanned by the acting elements (default: the whole ring), as a mask.

    Iterates additive closure and two-sided absorption to a fixpoint, so no
    unit is ever assumed: the integer-multiple part of the generated ideal
    comes from the additive closure step.  Each element is multiplied by
    the acting elements once, in the round after it appears.
    """
    mask = mask_of(gens)
    if mask >> ring.order:
        raise SpecError("generator index out of range")
    actors = ring.elements() if acting is None else list(bits(acting))
    current = subgroup_closure(ring, mask)
    new = current
    mul = ring.mul_table
    while new:
        grow = current
        for m in bits(new):
            for s in actors:
                grow |= 1 << mul[s][m] | 1 << mul[m][s]
        if grow == ring.full_mask:  # the whole ring is an ideal
            return grow
        grow = subgroup_closure(ring, grow)
        current, new = grow, grow & ~current
    return current


def all_ideals(ring: FiniteRing, acting: Optional[int] = None, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """The ideals of the subring spanned by the acting elements (default:
    the whole ring), as sorted masks."""
    acting = ring.full_mask if acting is None else acting
    return _sums(ring, acting, acting, caps)


@lru_cache(maxsize=8)
def _sums(ring: FiniteRing, elements: int, acting: int, caps: Caps) -> tuple[int, ...]:
    """Every sum of the principal ideals of the elements, in the subring
    spanned by the acting elements: each principal ideal in turn is added
    to every sum found before it.  Both are subgroups, so their sum is their
    sumset."""
    add = ring.add_table
    lattice = {ring.zero_mask}
    for p in {generate_ideal(ring, (a,), acting) for a in bits(elements)}:
        members = list(bits(p))
        for mask in list(lattice):
            if p & ~mask:
                join = 0
                for x in bits(mask):
                    row = add[x]
                    for y in members:
                        join |= 1 << row[y]
                lattice.add(join)
        if len(lattice) > caps.max_ideals:
            raise CapError(f"ideal lattice exceeds cap {caps.max_ideals}")
    return tuple(sorted(lattice))


def all_graded_ideals(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """The graded ideals, sorted: the sums of the principal ideals of the
    elements of the components, since an ideal is graded exactly when
    homogeneous elements generate it."""
    ring = graded.ring
    return _sums(ring, reduce(or_, graded.components.values(), 0), ring.full_mask, caps)


def invariant_base_ideals(graded: GradedRing, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """The G-invariant ideals of the identity component, as ambient masks, sorted."""
    return tuple(j for j in all_ideals(graded.ring, graded.e_mask, caps) if is_g_invariant(graded, j))


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


def tuple_rows(table) -> tuple:
    """A table's rows as tuples of ints, the form in which numpy, pinned
    digests and JSON texts read them; a ring or group keeps rows of bytes
    up to order 256."""
    return tuple(map(tuple, table))


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
    add = np.asarray(tuple_rows(add_rows), dtype=np.int16)
    mul = np.asarray(tuple_rows(mul_rows), dtype=np.int16)
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
    if not (mul[:, add] == add[mul[:, :, None], mul[:, None, :]]).all():
        raise SpecError("left distributivity fails")
    if not (mul[add, :] == add[mul[:, None, :], mul[None, :, :]]).all():
        raise SpecError("right distributivity fails")
    if not (mul[mul, :] == mul[:, mul]).all():
        raise SpecError("multiplication is not associative")
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


def _ideally_symmetric_graded(graded: GradedRing, caps: Caps) -> bool:
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
    if jmask & ~graded.e_mask or not is_ideal_mask(graded.ring, jmask, graded.e_mask):
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


def is_prime_among(ring: FiniteRing, pmask: int, ideals: Iterable[int]) -> bool:
    """Whether AB inside P forces A or B inside P, for A and B ranging over
    the given ideals of the ring, as masks.

    P must be an additive subgroup (every caller passes an ideal); then AB
    lies in P exactly when every product ab does.
    """
    mul = ring.mul_table
    outside = [a for a in ideals if a | pmask != pmask]
    for a in outside:
        for b in outside:
            if all(pmask >> mul[x][y] & 1 for x in bits(a) for y in bits(b)):
                return False
    return True


@lru_cache(maxsize=16)
def principal_ideals(ring: FiniteRing, within: Optional[int] = None) -> tuple[int, ...]:
    """The ideals generated by one element of within (default: the whole
    ring), sorted.  P is prime exactly when the pair test over the principal
    ideals passes, and graded prime when it passes over those of the
    homogeneous elements: (a)(b) lies in P exactly when ab and aSb do."""
    return tuple(sorted({generate_ideal(ring, (a,)) for a in bits(ring.full_mask if within is None else within)}))


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
        ideally: Optional[bool] = gr._pair_classes(ring, gfl._inverse_pairs(f))[2]
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


def hs_closure(g: DirectedGraph, mask: int) -> int:
    """The least hereditary saturated vertex set holding mask, as a mask over
    g.vertices (Tomforde, J. Algebra 318, 2007): it adds every successor of
    a vertex inside (hereditary) and every vertex that emits edges whose
    targets all lie inside (saturated), until nothing changes."""
    idx = g.vertex_index
    succ = [0] * len(g.vertices)
    for e in g.edges:
        succ[idx[e.src]] |= 1 << idx[e.dst]
    while True:
        grown = mask
        for i, s in enumerate(succ):
            if mask >> i & 1:
                grown |= s
            elif s and not s & ~mask:
                grown |= 1 << i
        if grown == mask:
            return mask
        mask = grown


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


def is_fully_idempotent(ring: FiniteRing, caps: Caps = DEFAULT_CAPS) -> bool:
    """Whether every ideal I satisfies I*I = I."""
    return all(subgroup_closure(ring, set_product(ring, i, i)) == i for i in all_ideals(ring, caps=caps))


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
    invariant = invariant_base_ideals(graded, caps)
    graded_ideals = [fr.Ideal(ring, m) for m in gr.all_graded_ideals(graded, caps)]
    idgen = [i for i in graded_ideals if co.is_identity_generated(graded, i)]
    idgen_masks = {i.members for i in idgen}

    generated = {}
    gen_graded = True
    gen_idgen = True
    restrict_ok = True
    for j in invariant:
        lifted = fr.generate_ideal(ring, bits(j))
        generated[j] = lifted.members
        if not is_graded_ideal(graded, lifted.members):
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
    invariant = invariant_base_ideals(graded, caps)
    graded_ideals = [fr.Ideal(ring, m) for m in gr.all_graded_ideals(graded, caps)]

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


def is_graded_ideal(graded: GradedRing, mask: int) -> bool:
    """Whether every member's homogeneous components all lie in the ideal."""
    decomp = decomposition(graded)
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
                rule = ("constant", 0, gens)
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
        return gfl.GFilter(ring, group, table)
    if rule is None:
        raise SpecError("an integer filter needs a pattern line")
    if assignments:
        raise SpecError("I lines are for finite groups; use overrides")
    kind, n, gens = rule
    off = ideal_mask(gens)
    if kind == "subgroup" and n < 1:
        raise SpecError("subgroup index must be positive")
    return gfl.GFilter(ring, group, {x: ideal_mask(g) for x, g in overrides.items()}, gfl.ZRule(n, off), caps)


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

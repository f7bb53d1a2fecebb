"""Grading groups: finite groups as Cayley tables, plus the integers.

Finite group elements are indices 0..order-1.  The infinite cyclic group is
represented by the ``Z`` singleton whose elements are plain Python ints.
check_group_table is the one validator of group tables, also of the additive
group of every ring.  Up to order 256, all the default caps allow, a table's
rows are bytes (row_form): the builders compose them by bytes.translate
(composer, left_rows), read_table validates them as they are, and a group or
ring keeps them (stored_rows).  Above order 256 rows are tuples, composed by
indexing in C (_after).
"""

from __future__ import annotations

import itertools
from itertools import repeat
from operator import index, itemgetter, methodcaller
from typing import Optional, Sequence

from .errors import SpecError
from .frozen import Frozen


class FiniteGroup(Frozen):
    """A finite group on 0..order-1; op_table keeps its rows in the one form
    of stored_rows, so equal tables compare and hash equal."""

    _fields = ("order", "op_table", "identity", "inv_table", "names")
    is_finite = True

    def __init__(
        self,
        order: int,
        op_table: tuple[tuple[int, ...], ...],
        identity: int,
        inv_table: tuple[int, ...],
        names: tuple[str, ...],
    ):
        vars(self).update(
            order=order, op_table=stored_rows(op_table), identity=identity, inv_table=inv_table, names=names
        )

    def op(self, x: int, y: int) -> int:
        return self.op_table[x][y]

    def inverse(self, x: int) -> int:
        return self.inv_table[x]

    def elements(self) -> range:
        return range(self.order)

    def name(self, x: int) -> str:
        return self.names[x]

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


class IntegerGroup:
    """The ordered group of integers under addition."""

    is_finite = False
    identity = 0

    def op(self, x: int, y: int) -> int:
        return x + y

    def inverse(self, x: int) -> int:
        return -x

    def name(self, x: int) -> str:
        return str(x)

    def __repr__(self) -> str:
        return "Z"


Z = IntegerGroup()


Table = tuple[tuple[int, ...], ...]

# Tables up to this order are validated on rows of bytes.
_BYTE_ROWS = 256
# A translation table: bytes.translate needs all 256 entries, so a row of a
# smaller table is padded with the entries past it, which it fixes.
_PAD = bytes(range(256))


def row_form(order: int) -> type:
    """The type of the rows of a table of this order: bytes up to order
    256, where every entry fits in a byte, tuple above."""
    return bytes if order <= 256 else tuple


def stored_rows(table) -> tuple:
    """The rows of a table in the one form a group or ring keeps, so equal
    tables compare and hash equal.  A row already in that form is kept as
    it is (bytes(b) is b)."""
    return tuple(map(row_form(len(table)), table))


def _after(f: tuple, h: tuple) -> tuple:
    """The tuple row y -> h[f[y]]."""
    return tuple(map(h.__getitem__, f))


def composer(order: int):
    """(as_map, apply) for the rows of a table of this order, which compose
    in C: apply(f, as_map(h)) is the row y -> h[f[y]].  Up to order 256
    apply is bytes.translate and as_map pads h with order..255 to a
    translation table; above, rows are tuples composed by _after."""
    if order <= 256:
        return lambda h: h + _PAD[order:], bytes.translate
    return tuple, _after


def left_rows(order: int, row_of) -> list:
    """The rows of an associative table, row x being y -> xy, from
    row_of(x), which builds row x directly.

    Row xy is row x after row y: (xy)z = x(yz).  So only rows of generators
    are built directly.  Each generator is the greatest element whose row
    the monoid of the generators so far has not reached, and the rows known
    are closed under the product on the left by every generator, one
    composition for each element reached.  A generator whose row holds only
    elements already known reaches nothing new and is not used, so a zero
    multiplication builds each row directly.
    """
    as_map, apply = composer(order)
    rows = [None] * order
    known = []  # the elements whose rows are known, in the order learnt
    gens = []  # (row, map) of each generator used
    closed = 0  # known[:closed] is closed under the product by every generator in gens
    for g in reversed(range(order)):
        if rows[g] is not None:
            continue
        h = rows[g] = row_of(g)
        known.append(g)
        if any(rows[p] is None for p in set(h)):
            table = as_map(h)
            for y in known[:closed]:
                if rows[h[y]] is None:
                    rows[h[y]] = apply(rows[y], table)
                    known.append(h[y])
            gens.append((h, table))
        while closed < len(known) != order:  # until every row is known
            y = known[closed]
            closed += 1
            for h, table in gens:
                if rows[h[y]] is None:
                    rows[h[y]] = apply(rows[y], table)
                    known.append(h[y])
    return rows


def rows_of_length(rows, n: int) -> bool:
    """Whether every row has length n; a row without a length has none."""
    try:
        return all(map(n.__eq__, map(len, rows)))
    except TypeError:
        return False


def read_table(rows: Sequence[Sequence[int]]):
    """A square table over 0..n-1 as (table, maps, apply, columns), or None.
    table holds the rows as a group or ring keeps them (stored_rows) and
    maps as maps y -> row[y] that compose in C: apply(f, h) is
    y -> h[f[y]], and columns() gives the columns.  A non-integer entry
    (operator.index) raises SpecError.

    Up to order 256 a row is read as bytes, a row of bytes as it is, and a
    map is the row padded with n..255, a translation table that fixes the
    padding: apply is bytes.translate, a column is a slice of the joined
    maps, and bytes() reads and range-checks the entries.  A row it
    refuses, and every row of a larger table, is read by operator.index,
    which tells a non-integer from an integer out of range, into tuples
    composed by _after.
    """
    n = len(rows)
    if not rows_of_length(rows, n):
        return None
    if n <= _BYTE_ROWS:
        try:  # by items, also from a buffer
            byte_rows = [row if type(row) is bytes else bytes(iter(row)) for row in rows]
        except (TypeError, ValueError):
            pass
        else:
            if b"".join(byte_rows).translate(None, _PAD[:n]):  # an entry of n or more
                return None
            tail = _PAD[n:]
            maps = list(map(bytes.__add__, byte_rows, repeat(tail)))
            def columns():  # column j: every 256th byte of the joined maps from the j-th
                flat = b"".join(maps)
                strided = map(flat.__getitem__, map(slice, range(n), repeat(None), repeat(256)))
                return list(map(bytes.__add__, strided, repeat(tail)))
            return tuple(byte_rows), maps, bytes.translate, columns
    try:
        table = tuple(tuple(map(index, row)) for row in rows)
    except TypeError:
        raise SpecError("table entries must be element indices") from None
    if not all(min(row) >= 0 and max(row) < n for row in table):
        return None
    return table, table, _after, lambda: tuple(zip(*table))


def table_identity(table: Table) -> Optional[int]:
    """The two-sided identity of an operation table (at most one: e = ef = f), or None."""
    form = type(table[0])  # rows of bytes or of tuples
    line = form(range(len(table)))
    for e, row in enumerate(table):
        if row == line and form(map(itemgetter(e), table)) == line:
            return e
    return None


def check_group_table(rows, errors: tuple[str, str, str]) -> tuple[int, tuple[int, ...], list[int]]:
    """Verify exactly that a table read by read_table is a group; returns
    (identity, inverses, generators).  errors are the texts raised for a
    nonassociative table, no identity and no unique inverse of {}.

    Associativity is Light's test (Clifford & Preston, Algebraic Theory of
    Semigroups I, 1961, 1.2) on generators only, with the generator on the
    left: the a with a(xy) = (ax)y for all x, y are closed under the
    operation, since for two of them (ab)(xy) = a(b(xy)) = a((bx)y) =
    (a(bx))y = ((ab)x)y, so it suffices that they include a generating set.
    Each generator is the least element outside the closure of {identity}
    under x -> xa for the generators a so far, and is tested before it is
    used.  While the tests pass that closure is a subgroup, which each new
    generator at least doubles: there are at most log2(n) generators and the
    check costs O(n^2 log n).  The row of y -> a(xy) is row x followed by
    row a, one composition per x with a's map as the table, and the rows of
    each generator's test are composed and compared in C.  The closure takes
    a new generator a to every member, and every generator to each member
    that adds, until it holds every element.
    """
    not_associative, no_identity, no_inverse = errors
    table, maps, apply, _ = rows
    e = table_identity(table)
    if e is None:
        raise SpecError(no_identity)
    counts = list(map(methodcaller("count", e), maps))
    if counts.count(1) != len(maps):
        raise SpecError(no_inverse.format(next(x for x, c in enumerate(counts) if c != 1)))
    generators: list[int] = []
    members = [e]
    reached = {e}
    for g in range(len(table)):
        if g in reached:
            continue
        # the rows of g(xy) and of (gx)y for every x, in C
        if list(map(apply, maps, repeat(maps[g]))) != list(map(maps.__getitem__, table[g])):
            raise SpecError(not_associative)
        generators.append(g)
        new = len(members)  # members[:new] are closed under the generators before g
        members += set(map(itemgetter(g), map(maps.__getitem__, members))) - reached
        reached.update(members[new:])
        while new < len(members) != len(table):  # the members reached, under every generator
            row = maps[members[new]]
            new += 1
            for a in generators:
                if row[a] not in reached:
                    reached.add(row[a])
                    members.append(row[a])
    return e, tuple(map(methodcaller("index", e), maps)), generators


def element_names(names: Optional[Sequence[str]], n: int) -> tuple[str, ...]:
    """The n given element names, or "0".."n-1" if none are given."""
    if names is None:
        return tuple(str(i) for i in range(n))
    names = tuple(names)
    if len(names) != n:
        raise SpecError("wrong number of element names")
    return names


def group_from_table(op_rows: Sequence[Sequence[int]], names=None) -> FiniteGroup:
    """Build a finite group from its operation table, validating the axioms
    with check_group_table, which every table goes through."""
    n = len(op_rows)
    if n == 0:
        raise SpecError("group must be nonempty")
    rows = read_table(op_rows)
    if rows is None:
        raise SpecError("group table is not square over 0..order-1")
    identity, inverses, _ = check_group_table(
        rows,
        ("group operation is not associative", "group has no identity element", "element {} has no unique inverse"),
    )
    return FiniteGroup(n, rows[0], identity, inverses, element_names(names, n))


def rotations(n: int) -> list:
    """The table of addition modulo n: row i is 0..n-1 rotated by i."""
    line = row_form(n)(range(n))
    return [line[i:] + line[:i] for i in range(n)]


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, written additively; element i is i mod n."""
    if n < 1:
        raise SpecError("cyclic group order must be positive")
    names = tuple("e" if i == 0 else f"g^{i}" for i in range(n))
    return group_from_table(rotations(n), names)


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n letters; elements are permutations in lex order.

    The product sigma*tau maps i to sigma[tau[i]] (tau applied first).  The
    rows are composed (left_rows) from those of a few generators.
    """
    if n < 1:
        raise SpecError("symmetric group degree must be positive")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    form = row_form(len(perms))

    def row_of(x):  # q -> x*q, the permutation i -> x[q[i]]
        return form(index[tuple(map(perms[x].__getitem__, q))] for q in perms)

    names = tuple("".join(map(str, p)) for p in perms)
    return group_from_table(left_rows(len(perms), row_of), names)

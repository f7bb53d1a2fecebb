"""Grading groups: finite groups as Cayley tables, plus the integers.

Finite group elements are indices 0..order-1.  The infinite cyclic group is
represented by the ``Z`` singleton whose elements are plain Python ints.
check_group_table is the one validator of group tables, also of the additive
group of every ring.  Up to order 256, all the default caps allow, its rows
are bytes composed by bytes.translate (read_table).
"""

from __future__ import annotations

import itertools
from operator import attrgetter, index, itemgetter
from typing import Optional, Sequence

from .errors import SpecError
from .frozen import Frozen


class FiniteGroup(Frozen):
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
            order=order, op_table=op_table, identity=identity, inv_table=inv_table, names=names
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


def rows_of_length(rows, n: int) -> bool:
    """Whether every row has length n; a row without a length has none."""
    try:
        return all(len(row) == n for row in rows)
    except TypeError:
        return False


def read_table(rows: Sequence[Sequence[int]]):
    """A square table over 0..n-1 as (table, maps, after, columns), or None.
    table holds the rows as tuples and maps as maps y -> row[y] that compose
    in C: after(f) takes h to y -> h[f[y]], and columns() gives the columns.
    A non-integer entry (operator.index) raises SpecError.

    Up to order 256 a map is the row as bytes padded with n..255, a
    translation table that fixes the padding: after(f) is f.translate, a
    column is a slice of the joined maps, and bytes() reads and
    range-checks the entries.  A row it refuses, and every row of a larger
    table, is read by operator.index into tuples composed by itemgetter,
    which tells a non-integer from an integer out of range.
    """
    n = len(rows)
    if not rows_of_length(rows, n):
        return None
    if n <= _BYTE_ROWS:
        try:
            byte_rows = [bytes(iter(row)) for row in rows]  # by items, also from a buffer
        except (TypeError, ValueError):
            pass
        else:
            if b"".join(byte_rows).translate(None, bytes(range(n))):  # an entry of n or more
                return None
            tail = bytes(range(n, 256))
            maps = [row + tail for row in byte_rows]
            def columns():
                flat = b"".join(maps)
                return [flat[j::256] + tail for j in range(n)]
            return tuple(map(tuple, byte_rows)), maps, attrgetter("translate"), columns
    try:
        table = tuple(tuple(map(index, row)) for row in rows)
    except TypeError:
        raise SpecError("table entries must be element indices") from None
    if not all(min(row) >= 0 and max(row) < n for row in table):
        return None
    return table, table, lambda f: itemgetter(*f), lambda: tuple(zip(*table))


def table_identity(table: Table) -> Optional[int]:
    """The two-sided identity of an operation table (at most one: e = ef = f), or None."""
    line = tuple(range(len(table)))
    for e, row in enumerate(table):
        if row == line and all(r[e] == x for x, r in enumerate(table)):
            return e
    return None


def check_group_table(rows, errors: tuple[str, str, str]) -> tuple[int, tuple[int, ...], list[int]]:
    """Verify exactly that a table read by read_table is a group; returns
    (identity, inverses, generators).  errors are the texts raised for a
    nonassociative table, no identity and no unique inverse of {}.

    Associativity is Light's test on generators only: the a with
    (xa)y = x(ay) for all x, y are closed under the operation (Clifford &
    Preston, Algebraic Theory of Semigroups I, 1961, 1.2), so it suffices
    that they include a generating set.  Each generator is the least element
    outside the closure of {identity} under x -> xa for the generators a so
    far, and is tested before it is used.  While the tests pass that closure
    is a subgroup, which each new generator at least doubles: there are at
    most log2(n) generators and the check costs O(n^2 log n).  Row xa is
    row a followed by row x, one composition of maps per x.
    """
    not_associative, no_identity, no_inverse = errors
    table, maps, after, _ = rows
    e = table_identity(table)
    if e is None:
        raise SpecError(no_identity)
    inverses = []
    for x, row in enumerate(maps):
        if row.count(e) != 1:
            raise SpecError(no_inverse.format(x))
        inverses.append(row.index(e))
    generators: list[int] = []
    members = [e]
    reached = {e}
    for g in range(len(table)):
        if g in reached:
            continue
        through_g = after(maps[g])
        if any(maps[row[g]] != through_g(row) for row in maps):
            raise SpecError(not_associative)
        generators.append(g)
        for x in members:  # also visits the members appended below
            row = maps[x]
            for a in generators:
                if row[a] not in reached:
                    reached.add(row[a])
                    members.append(row[a])
    return e, tuple(inverses), generators


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


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, written additively; element i is i mod n."""
    if n < 1:
        raise SpecError("cyclic group order must be positive")
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = tuple("e" if i == 0 else f"g^{i}" for i in range(n))
    return group_from_table(rows, names)


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n letters; elements are permutations in lex order.

    The product sigma*tau maps i to sigma[tau[i]] (tau applied first).
    """
    if n < 1:
        raise SpecError("symmetric group degree must be positive")
    perms = list(itertools.permutations(range(n)))
    getters = [itemgetter(*q) for q in perms]  # itemgetter(*q)(p) is p*q; a scalar when n = 1
    index = {getters[0](p): i for i, p in enumerate(perms)}
    rows = [[index[get(p)] for get in getters] for p in perms]
    names = tuple("".join(map(str, p)) for p in perms)
    return group_from_table(rows, names)

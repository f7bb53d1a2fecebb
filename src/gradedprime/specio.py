"""Parsers for the textual spec formats.

Ring spec (one expression, whitespace and ``#`` comments ignored):

    gf(q) | zmod(n) | product(spec, ...) | mat(spec, n) | tri(spec, n)
    | grpalg(spec, group) | subring(spec, [i, j, ...])
    | tables{order=n; add=[[...],...]; mul=[[...],...]}

Group spec:  Z | cyclic(n) | sym(n) | tables{order=n; op=[[...],...]}
(Z is only accepted where an integer grading makes sense.)

Graded-ring file (line oriented):

    ring: <ring spec>
    group: <group spec>
    component <x>: [i, j, ...]        # element indices of S_x

Filter file:

    ring: <ring spec>
    group: <group spec>
    I <x> = [i, j, ...]               # finite groups: ideal generators
    pattern subgroup <n> [gens]?      # integers: R on nZ, <gens> ideal off
    pattern constant [gens]           # integers: R at 0, <gens> ideal off
    override <x> = [gens]             # integers: finitely many exceptions

In both files a repeated ``ring:``, ``group:`` or ``pattern`` line, or a
repeated degree in ``component``, ``I`` or ``override`` lines, is an error.

Graph file:

    vertex <name>
    edge <name>: <src> -> <dst>

Reading a spec: the text, with comments removed, is first searched once for
a character that starts no token (unless a pass in C finds only safe ASCII
characters); the first one is the error.  The parsers then read the checked
text through a cursor that matches one token at a time, and ``_parse_list``
reads a flat row of integers with one match wherever it starts and a split,
so the rows of a ``tables{}`` spec cost no token-by-token walk.
"""

from __future__ import annotations

import re
from functools import partial
from typing import TYPE_CHECKING

from . import finring as fr
from .errors import CapError, SpecError
from .finring import Caps, DEFAULT_CAPS, FiniteRing, generate_ideal
from .groups import Z, cyclic, group_from_table, symmetric_group

if TYPE_CHECKING:  # the file readers import their layers when called
    from .grading import GradedRing
    from .grfilter import GFilter
    from .leavitt import DirectedGraph

# The token kinds.  No two of them match at the same position.
_KINDS = {
    "int": re.compile(r"-?\d+"),
    "punct": re.compile(r"->|[(){}\[\],;=:]"),
    "name": re.compile(r"[A-Za-z_][A-Za-z0-9_]*"),
}
_VALID = re.compile("|".join(kind.pattern for kind in _KINDS.values()))
# A character that starts no token: one in no token's alphabet, a "-" that
# starts neither an integer nor "->", or a ">" that does not end "->".  No
# character inside a token is one of these, so the first match is the first
# character that a left-to-right tokenizer cannot read.
_BAD = re.compile(r"[^\s\dA-Za-z_(){}\[\],;=:>-]|-(?![\d>])|(?<!-)>")
# The ASCII characters _BAD matches in no context: the token alphabet but - and >.
_SAFE = bytes(c for c in range(128) if not _BAD.search(chr(c)))
_NEXT = re.compile(r"\s*(" + _VALID.pattern + ")")
# A flat row of integers, each optionally followed by one comma.  Every
# text it matches can be split in one way only, so a near miss fails in
# time linear in its length.
_ROW = re.compile(r"\s*\[\s*((?:-?\d+(?!\d)\s*(?:,\s*)?)*)\]")


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def _checked(text: str) -> str:
    """text with comments removed, once it is known to hold whitespace and
    tokens only; otherwise the first character that starts no token is
    reported."""
    text = _strip_comments(text)
    if text.isascii() and not text.encode().translate(None, _SAFE):
        return text
    bad = _BAD.search(text)
    if bad:
        raise SpecError(f"unexpected character {bad[0]!r}")
    return text


class _Tokens:
    """A cursor over a checked text, reading one token at a time."""

    def __init__(self, text: str):
        self.text = _checked(text)
        self.pos = 0

    def peek(self):
        m = _NEXT.match(self.text, self.pos)
        return m[1] if m else None

    def next(self):
        m = _NEXT.match(self.text, self.pos)
        if m is None:
            raise SpecError("unexpected end of input")
        self.pos = m.end()
        return m[1]

    def expect(self, kind, value=None):
        tok = self.next()
        if not _KINDS[kind].fullmatch(tok) or (value is not None and tok != value):
            want = value if value is not None else kind
            raise SpecError(f"expected {want!r}, found {tok!r}")
        return tok

    def at_end(self) -> bool:
        return self.peek() is None


def _parse_int(ts: _Tokens) -> int:
    return int(ts.expect("int"))


def _parse_list(ts: _Tokens):
    """A possibly nested [..] list of ints; a comma may follow each item.

    A flat row of integers is read with one regex match wherever it starts,
    so the rows of a table cost one match each and no token strings but
    their integers.  Anything else is read token by token, with the
    enclosing lists on a stack; every error comes from that walk.
    """
    if ts.peek() != "[":
        ts.expect("punct", "[")  # raises
    # out starts as a holder for the whole list, and enclosing is empty
    # exactly when the list is complete
    out, enclosing = [], []
    while True:
        row = _ROW.match(ts.text, ts.pos)
        if row:
            ts.pos = row.end()
            # a sign may follow a digit directly: "1-2" is 1, -2
            out.append(list(map(int, row[1].replace(",", " ").replace("-", " -").split())))
        else:
            tok = ts.next()
            if tok == "[":
                enclosing.append(out)
                out = []
                continue
            if tok == "]":
                enclosing[-1].append(out)
                out = enclosing.pop()
            else:
                try:
                    out.append(int(tok))
                except ValueError:
                    raise SpecError(f"expected 'int', found {tok!r}") from None
        if not enclosing:
            return out[0]
        if ts.peek() == ",":
            ts.next()


def _parse_table_block(ts: _Tokens) -> dict:
    ts.expect("punct", "{")
    fields = {}
    while True:
        if ts.peek() == "}":
            ts.next()
            return fields
        key = ts.expect("name")
        ts.expect("punct", "=")
        fields[key] = _parse_list(ts) if ts.peek() == "[" else _parse_int(ts)
        if ts.peek() == ";":
            ts.next()


def _as_rows(value, n, what: str):
    if not isinstance(n, int) or n < 1:
        raise SpecError("order must be a positive integer")
    if not isinstance(value, list):
        raise SpecError(f"{what} must be a list")
    if len(value) == n and all(isinstance(row, list) for row in value):
        rows = value
    elif len(value) == n * n and all(isinstance(v, int) for v in value):
        rows = [value[i * n : (i + 1) * n] for i in range(n)]
    else:
        raise SpecError(f"{what} must be {n}x{n}, nested or flat row-major")
    for row in rows:
        if len(row) != n or not all(isinstance(v, int) for v in row):
            raise SpecError(f"{what} must be {n}x{n}")
    return rows


def _args(ts: _Tokens, *readers) -> list:
    """The values of a parenthesised, comma-separated argument list, each
    argument read by the reader in its place."""
    ts.expect("punct", "(")
    values = []
    for k, read in enumerate(readers):
        if k:
            ts.expect("punct", ",")
        values.append(read(ts))
    ts.expect("punct", ")")
    return values


def _parse_ring_expr(ts: _Tokens, caps: Caps) -> FiniteRing:
    head = ts.expect("name")
    ring = partial(_parse_ring_expr, caps=caps)
    if head in ("gf", "zmod"):
        return getattr(fr, head)(*_args(ts, _parse_int), caps=caps)
    if head == "product":
        ts.expect("punct", "(")
        factors = [ring(ts)]
        while ts.peek() == ",":
            ts.next()
            factors.append(ring(ts))
        ts.expect("punct", ")")
        return fr.product(*factors, caps=caps)
    if head in ("mat", "tri"):
        return getattr(fr, head)(*_args(ts, ring, _parse_int), caps=caps)
    if head == "grpalg":
        group = partial(_parse_group_expr, allow_z=False, caps=caps)
        return fr.grpalg(*_args(ts, ring, group), caps=caps)
    if head == "subring":
        base, elems = _args(ts, ring, _parse_list)
        if not all(isinstance(e, int) for e in elems):
            raise SpecError("subring selection must be a flat index list")
        return fr.subring(base, elems, caps=caps)
    if head == "tables":
        fields = _parse_table_block(ts)
        if "order" not in fields or "add" not in fields or "mul" not in fields:
            raise SpecError("tables need order, add and mul")
        n = fields["order"]
        add = _as_rows(fields["add"], n, "add")
        mul = _as_rows(fields["mul"], n, "mul")
        return fr.make_ring(add, mul, caps=caps)
    raise SpecError(f"unknown ring constructor {head!r}")


def _check_group_order(order: int, shown, caps: Caps) -> None:
    if order > caps.max_group_order:
        raise CapError(f"group order {shown} exceeds cap {caps.max_group_order}")


def _parse_group_expr(ts: _Tokens, allow_z: bool, caps: Caps):
    """A group expression; its order is checked against the cap before any
    table is built."""
    head = ts.expect("name")
    if head == "Z":
        if not allow_z:
            raise SpecError("the integers are not allowed here")
        return Z
    if head == "cyclic":
        (n,) = _args(ts, _parse_int)
        _check_group_order(n, n, caps)
        return cyclic(n)
    if head == "sym":
        (n,) = _args(ts, _parse_int)
        order = 1  # n!, computed only until it passes the cap
        for k in range(2, n + 1):
            if order > caps.max_group_order:
                break
            order *= k
        _check_group_order(order, f"{n}!", caps)
        return symmetric_group(n)
    if head == "tables":
        fields = _parse_table_block(ts)
        if "order" not in fields or "op" not in fields:
            raise SpecError("group tables need order and op")
        n = fields["order"]
        if isinstance(n, int):
            _check_group_order(n, n, caps)
        return group_from_table(_as_rows(fields["op"], n, "op"))
    raise SpecError(f"unknown group constructor {head!r}")


def parse_ring_spec(text: str, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    ts = _Tokens(text)
    ring = _parse_ring_expr(ts, caps)
    if not ts.at_end():
        raise SpecError("trailing input after ring expression")
    return ring


def parse_group_spec(text: str, allow_z: bool = True, caps: Caps = DEFAULT_CAPS):
    ts = _Tokens(text)
    group = _parse_group_expr(ts, allow_z, caps)
    if not ts.at_end():
        raise SpecError("trailing input after group expression")
    return group


def parse_element_list(text: str) -> list[int]:
    ts = _Tokens(text)
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


def _meaningful_lines(text: str):
    for raw in _strip_comments(text).splitlines():
        line = raw.strip()
        if line:
            yield line


def _headed_lines(text: str, caps: Caps, kind: str):
    """The ring and group of a graded or filter file, and its other lines.

    Each of ``ring:`` and ``group:`` must appear exactly once.
    """
    parsers = {
        "ring": lambda spec: parse_ring_spec(spec, caps),
        "group": lambda spec: parse_group_spec(spec, caps=caps),
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
    ts = _Tokens(deg_text)
    x = _parse_int(ts)
    if not ts.at_end():
        raise SpecError(f"malformed {keyword} degree: {deg_text!r}")
    if x in seen:
        raise SpecError(f"{keyword} {x} given twice")
    return x, parse_element_list(members_text)


def parse_graded_file(text: str, caps: Caps = DEFAULT_CAPS) -> GradedRing:
    from .grading import attach_grading

    ring, group, lines = _headed_lines(text, caps, "graded ring")
    components = {}
    for line in lines:
        if line.startswith("component"):
            x, members = _degree_line(line, "component", ":", components)
            components[x] = members
        else:
            raise SpecError(f"unrecognized line: {line!r}")
    return attach_grading(ring, group, components)


def parse_filter_file(text: str, caps: Caps = DEFAULT_CAPS) -> GFilter:
    from .grfilter import ZRule, make_finite_filter, make_z_filter

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
                ts = _Tokens(rest)
                n = _parse_int(ts)
                gens = _parse_list(ts) if ts.peek() == "[" else []
                if not ts.at_end():
                    raise SpecError(f"trailing input on pattern line: {line!r}")
                rule = ("subgroup", n, gens)
            elif kind == "constant":
                gens = parse_element_list(parts[2] if len(parts) > 2 else "[]")
                rule = ("constant", 1, gens)
            else:
                raise SpecError(f"unknown pattern {kind!r}")
        elif line.startswith("override"):
            x, gens = _degree_line(line, "override", "=", overrides)
            overrides[x] = gens
        else:
            raise SpecError(f"unrecognized line: {line!r}")

    def ideal_mask(gens):
        return generate_ideal(ring, gens).members

    if group.is_finite:
        if rule is not None or overrides:
            raise SpecError("patterns and overrides are for integer filters")
        table = {x: ideal_mask(g) for x, g in assignments.items()}
        table.setdefault(group.identity, ring.full_mask)
        missing = set(group.elements()) - set(table)
        if missing:
            raise SpecError(f"missing assignments for group elements {sorted(missing)}")
        return make_finite_filter(ring, group, table)
    if rule is None:
        raise SpecError("an integer filter needs a pattern line")
    if assignments:
        raise SpecError("I lines are for finite groups; use overrides")
    kind, n, gens = rule
    zrule = ZRule(kind, n, ideal_mask(gens))
    return make_z_filter(ring, zrule, {x: ideal_mask(g) for x, g in overrides.items()})


_VERTEX_LINE = re.compile(r"^vertex\s+([A-Za-z_][A-Za-z0-9_]*)$")
_EDGE_LINE = re.compile(
    r"^edge\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)$"
)


def parse_graph_file(text: str) -> DirectedGraph:
    from .leavitt import DirectedGraph, Edge

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

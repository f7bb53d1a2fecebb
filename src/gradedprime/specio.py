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
"""

from __future__ import annotations

import re

from . import finring as fr
from .errors import SpecError
from .finring import Caps, DEFAULT_CAPS, FiniteRing, generate_ideal
from .grading import GradedRing, attach_grading
from .grfilter import GFilter, ZRule, make_finite_filter, make_z_filter
from .groups import Z, cyclic, group_from_table, symmetric_group
from .leavitt import DirectedGraph, Edge

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>-?\d+)|(?P<punct>->|[(){}\[\],;=:])|(?P<bad>\S))")


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    for m in _TOKEN.finditer(_strip_comments(text)):
        if m.group("bad"):
            raise SpecError(f"unexpected character {m.group('bad')!r}")
        if m.group("name"):
            out.append(("name", m.group("name")))
        elif m.group("int"):
            out.append(("int", m.group("int")))
        else:
            out.append(("punct", m.group("punct")))
    return out


class _Tokens:
    def __init__(self, items):
        self.items = items
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise SpecError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise SpecError(f"expected {want!r}, found {tok[1]!r}")
        return tok[1]

    def at_end(self) -> bool:
        return self.pos >= len(self.items)


def _parse_int(ts: _Tokens) -> int:
    return int(ts.expect("int"))


def _parse_list(ts: _Tokens):
    """A possibly nested [..] list of ints."""
    ts.expect("punct", "[")
    out = []
    while True:
        kind, value = ts.peek()
        if kind == "punct" and value == "]":
            ts.next()
            return out
        if kind == "punct" and value == "[":
            out.append(_parse_list(ts))
        else:
            out.append(_parse_int(ts))
        kind, value = ts.peek()
        if kind == "punct" and value == ",":
            ts.next()


def _parse_table_block(ts: _Tokens) -> dict:
    ts.expect("punct", "{")
    fields = {}
    while True:
        kind, value = ts.peek()
        if kind == "punct" and value == "}":
            ts.next()
            return fields
        key = ts.expect("name")
        ts.expect("punct", "=")
        kind, value = ts.peek()
        if kind == "punct" and value == "[":
            fields[key] = _parse_list(ts)
        else:
            fields[key] = _parse_int(ts)
        kind, value = ts.peek()
        if kind == "punct" and value == ";":
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
        while ts.peek() == ("punct", ","):
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
        group = _parse_group_expr(ts, allow_z=False)
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
        if "order" not in fields or "add" not in fields or "mul" not in fields:
            raise SpecError("tables need order, add and mul")
        n = fields["order"]
        add = _as_rows(fields["add"], n, "add")
        mul = _as_rows(fields["mul"], n, "mul")
        return fr.make_ring(add, mul, caps=caps)
    raise SpecError(f"unknown ring constructor {head!r}")


def _parse_group_expr(ts: _Tokens, allow_z: bool):
    head = ts.expect("name")
    if head == "Z":
        if not allow_z:
            raise SpecError("the integers are not allowed here")
        return Z
    if head == "cyclic":
        ts.expect("punct", "(")
        n = _parse_int(ts)
        ts.expect("punct", ")")
        return cyclic(n)
    if head == "sym":
        ts.expect("punct", "(")
        n = _parse_int(ts)
        ts.expect("punct", ")")
        return symmetric_group(n)
    if head == "tables":
        fields = _parse_table_block(ts)
        if "order" not in fields or "op" not in fields:
            raise SpecError("group tables need order and op")
        n = fields["order"]
        return group_from_table(_as_rows(fields["op"], n, "op"))
    raise SpecError(f"unknown group constructor {head!r}")


def parse_ring_spec(text: str, caps: Caps = DEFAULT_CAPS) -> FiniteRing:
    ts = _Tokens(tokenize(text))
    ring = _parse_ring_expr(ts, caps)
    if not ts.at_end():
        raise SpecError("trailing input after ring expression")
    return ring


def parse_group_spec(text: str, allow_z: bool = True):
    ts = _Tokens(tokenize(text))
    group = _parse_group_expr(ts, allow_z)
    if not ts.at_end():
        raise SpecError("trailing input after group expression")
    return group


def parse_element_list(text: str) -> list[int]:
    ts = _Tokens(tokenize(text))
    if ts.peek() == ("punct", "["):
        out = _parse_list(ts)
    else:
        out = []
        while not ts.at_end():
            out.append(_parse_int(ts))
            if ts.peek() == ("punct", ","):
                ts.next()
    if not ts.at_end():
        raise SpecError("trailing input after element list")
    if not all(isinstance(v, int) for v in out):
        raise SpecError("expected a flat list of element indices")
    return out


def _meaningful_lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _headed_lines(text: str, caps: Caps, kind: str):
    """The ring and group of a graded or filter file, and its other lines.

    Each of ``ring:`` and ``group:`` must appear exactly once.
    """
    parsers = {"ring": lambda spec: parse_ring_spec(spec, caps), "group": parse_group_spec}
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
    ts = _Tokens(tokenize(deg_text))
    x = _parse_int(ts)
    if not ts.at_end():
        raise SpecError(f"malformed {keyword} degree: {deg_text!r}")
    if x in seen:
        raise SpecError(f"{keyword} {x} given twice")
    return x, parse_element_list(members_text)


def parse_graded_file(text: str, caps: Caps = DEFAULT_CAPS) -> GradedRing:
    ring, group, lines = _headed_lines(text, caps, "graded ring")
    components = {}
    for line in lines:
        if line.startswith("component"):
            x, members = _degree_line(line, "component", ":", components)
            components[x] = members
        else:
            raise SpecError(f"unrecognized line: {line!r}")
    return attach_grading(ring, group, components, caps=caps)


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
                ts = _Tokens(tokenize(rest))
                n = _parse_int(ts)
                gens = _parse_list(ts) if ts.peek() == ("punct", "[") else []
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

"""Parsers for the textual spec formats.

Ring spec (one expression, whitespace and ``#`` comments ignored):

    gf(q) | zmod(n) | product(spec, ...) | mat(spec, n) | tri(spec, n)
    | grpalg(spec, group) | subring(spec, [i, j, ...])
    | tables{order=n; add=[[...],...]; mul=[[...],...]}

Group spec:  Z | cyclic(n) | sym(n) | tables{order=n; op=[[...],...]}
(Z is only accepted where an integer grading makes sense.)  A tables{}
block holds exactly the fields shown, each once, in any order.

Line files hold one statement a line.  Each line is read on a cursor of its
own: its first token is its keyword, the keyword's fields follow, and the
line ends there.  A keyword is a whole token, so ``patterns`` is no
``pattern``, and whitespace between tokens is free.  The fields of each
line, by file (<elements> is an element list, [i, j, ...] or bare indices):

    graded ring:  ring : <ring spec>
                  group : <group spec>
                  component <x> : <elements>      # element indices of S_x
    filter:       ring : <ring spec>
                  group : <group spec>
                  I <x> = <elements>              # finite groups: ideal generators
                  pattern subgroup <n> [gens]?    # integers: R on nZ, <gens> ideal off
                  pattern constant <elements>     # integers: R at 0, <elements> ideal off
                  override <x> = <elements>       # integers: finitely many exceptions
    graph:        vertex <name>
                  edge <name> : <src> -> <dst>

A line is keyed by its keyword and its first field when that is a degree or
a name.  A key given twice, such as a second ``ring:`` or ``pattern`` line,
a degree repeated among the ``component``, ``I`` or ``override`` lines or a
vertex named twice, is an error.

Reading a spec: the text, with comments removed, is first searched once for
a character that starts no token (unless a pass in C finds only safe ASCII
characters); the first one is the error.  The parsers then read the checked
text through a cursor that matches one token at a time.  Every integer token
becomes an int in ``_int``, which refuses one over Python's digit limit.  The
lists of a ``tables{}`` block go through the C JSON decoder when their text is
plain JSON (``_table_list``); every other list, and every list error, comes
from ``_parse_list``'s token walk.
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

# leavitt lists a common sink for each of the n² vertex pairs of a graph
# that satisfies MT-3: 65,536 lines at the cap, the default ideal cap's count
MAX_VERTICES = 256

# The token kinds' patterns.  No two of them match at the same position.
_KINDS = {
    "int": r"-?\d+",
    "punct": r"->|[(){}\[\],;=:]",
    "name": r"[A-Za-z_][A-Za-z0-9_]*",
}
# The next token, after any whitespace: the one pattern a plain call
# compiles.  The others are compiled (and cached by re) when first used.
_NEXT = re.compile(r"\s*(" + "|".join(_KINDS.values()) + ")")
# A character that starts no token: one in no token's alphabet, a "-" that
# starts neither an integer nor "->", or a ">" that does not end "->".  No
# character inside a token is one of these, so the first match is the first
# character that a left-to-right tokenizer cannot read.
_BAD = r"[^\s\dA-Za-z_(){}\[\],;=:>-]|-(?![\d>])|(?<!-)>"
# The ASCII characters _BAD matches in no context: the token alphabet but -
# and >, with the ASCII whitespace of \s.
_SAFE = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f (),0123456789:;=ABCDEFGHIJKLMNOPQRSTUVWXYZ[]_abcdefghijklmnopqrstuvwxyz{}"


def _is(kind: str, tok: str) -> bool:
    """Whether the token tok is of the kind.  A token is a name exactly when
    it is an identifier, which needs no pattern."""
    return tok.isidentifier() if kind == "name" else re.fullmatch(_KINDS[kind], tok) is not None


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def _checked(text: str) -> str:
    """text with comments removed, once it is known to hold whitespace and
    tokens only; otherwise the first character that starts no token is
    reported."""
    text = _strip_comments(text)
    if text.isascii() and not text.encode().translate(None, _SAFE):
        return text
    bad = re.search(_BAD, text)
    if bad:
        raise SpecError(f"unexpected character {bad[0]!r}")
    return text


class _Tokens:
    """A cursor over a checked text, reading one token at a time."""

    def __init__(self, text: str):
        self.text = _checked(text)
        self.pos = 0
        self.rings = {}  # ("gf" or "zmod", argument) -> the ring, built once per text

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
        """The next token, which must be value if one is given (a token of
        the kind), else any token of the kind."""
        tok = self.next()
        if tok != value if value is not None else not _is(kind, tok):
            want = value if value is not None else kind
            raise SpecError(f"expected {want!r}, found {tok!r}")
        return tok

    def at_end(self) -> bool:
        return self.peek() is None


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # a name or punctuation, or an int over the digit limit
        if _is("int", tok):
            raise SpecError(f"an integer of {len(tok.lstrip('-'))} digits is too long") from None
        raise SpecError(f"expected 'int', found {tok!r}") from None


def _parse_int(ts: _Tokens) -> int:
    return _int(ts.next())


def _parse_list(ts: _Tokens):
    """A possibly nested [..] list of ints; a comma may follow each item.

    Read token by token, with the enclosing lists on a stack, so no depth
    of nesting meets Python's recursion limit; every list error comes from
    this walk.  _table_list sends a tables{} block's plain JSON lists to the
    C decoder first and leaves any other text to this walk.
    """
    ts.expect("punct", "[")
    out, enclosing = [], []
    while True:
        tok = ts.next()
        if tok == "[":
            enclosing.append(out)
            out = []
            continue
        if tok == "]":
            if not enclosing:
                return out
            enclosing[-1].append(out)
            out = enclosing.pop()
        else:
            out.append(_int(tok))
        if ts.peek() == ",":
            ts.next()


# The characters of a JSON list that _parse_list reads as the same value.
_JSON_LIST = b"0123456789[], \t\n\r"


def _table_list(ts: _Tokens):
    """A list of a tables{} block, through the C JSON decoder when the text
    it decodes holds only _JSON_LIST's characters (so it is a nested list
    of non-negative ints).  Any other text, one the decoder refuses (a
    leading zero, a trailing comma, an int over the digit limit) and one
    nested past its recursion limit are read by _parse_list, so every value
    and error text is the one _parse_list gives."""
    import json

    start = ts.text.index("[", ts.pos)  # after whitespace only
    try:
        value, end = json.JSONDecoder().raw_decode(ts.text, start)
    except (ValueError, RecursionError):
        return _parse_list(ts)
    if ts.text[start:end].encode().translate(None, _JSON_LIST):
        return _parse_list(ts)
    ts.pos = end
    return value


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
        fields[key] = _table_list(ts) if ts.peek() == "[" else _parse_int(ts)
        if ts.peek() == ";":
            ts.next()


def _as_rows(value, n, what: str):
    """The n rows of a table given nested or flat.  Its entries, ints or
    lists as _table_list reads them, are left to the table reader, which
    refuses a list entry."""
    if not isinstance(n, int) or n < 1:
        raise SpecError("order must be a positive integer")
    if not isinstance(value, list):
        raise SpecError(f"{what} must be a list")
    if len(value) == n and all(isinstance(row, list) for row in value):
        rows = value
    elif len(value) == n * n:
        rows = [value[i * n : (i + 1) * n] for i in range(n)]
    else:
        raise SpecError(f"{what} must be {n}x{n}, nested or flat row-major")
    if not all(len(row) == n for row in rows):
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
    if head in ("gf", "zmod"):  # product(gf(2), ..., gf(2)) builds gf(2) once
        key = (head, *_args(ts, _parse_int))
        if key not in ts.rings:
            ts.rings[key] = getattr(fr, head)(*key[1:], caps=caps)
        return ts.rings[key]
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
        if fields.keys() != {"order", "add", "mul"}:
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
        if fields.keys() != {"order", "op"}:
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


def parse_group_spec(text: str, caps: Caps = DEFAULT_CAPS):
    ts = _Tokens(text)
    group = _parse_group_expr(ts, True, caps)
    if not ts.at_end():
        raise SpecError("trailing input after group expression")
    return group


def _elements(ts: _Tokens) -> list[int]:
    """An element list, [i, j, ...] or bare indices, that ends the text."""
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


def parse_element_list(text: str) -> list[int]:
    return _elements(_Tokens(text))


def _name(ts: _Tokens) -> str:
    return ts.expect("name")


def _pattern(ts: _Tokens) -> tuple:
    kind = ts.expect("name")
    if kind == "subgroup":
        return kind, _parse_int(ts), (_elements(ts) if ts.peek() == "[" else [])
    if kind == "constant":
        return kind, 0, _elements(ts)
    raise SpecError(f"unknown pattern {kind!r}")


def _read_lines(text: str, shapes: dict) -> dict:
    """The lines of a line file: for each keyword of shapes, a map from each
    key to the values of the line that it keys.

    A shape is a key reader, or None, and then the readers of the line's
    fields in order, a string standing for that punctuation token.
    """
    lines = {keyword: {} for keyword in shapes}
    for raw in text.splitlines():
        ts = _Tokens(raw)  # strips the line's comment
        if ts.at_end():
            continue
        line = ts.text
        keyword = ts.next()
        if keyword not in shapes:
            raise SpecError(f"unrecognized line: {line.strip()!r}")
        read_key, *fields = shapes[keyword]
        key = read_key(ts) if read_key else None
        values = []
        for field in fields:
            if isinstance(field, str):
                ts.expect("punct", field)
            else:
                values.append(field(ts))
        if not ts.at_end():
            raise SpecError(f"trailing input on {keyword} line: {line.strip()!r}")
        if key in lines[keyword]:
            raise SpecError(f"{keyword} {'line' if key is None else key} given twice")
        lines[keyword][key] = values
    return lines


def _ring_file(text: str, caps: Caps, kind: str, **shapes):
    """The ring and the group of a graded or filter file, and its lines."""
    lines = _read_lines(text, {
        "ring": (None, ":", partial(_parse_ring_expr, caps=caps)),
        "group": (None, ":", partial(_parse_group_expr, allow_z=True, caps=caps)),
        **shapes,
    })
    if not (lines["ring"] and lines["group"]):
        raise SpecError(f"a {kind} file needs ring: and group: lines")
    (ring,), (group,) = lines["ring"][None], lines["group"][None]
    return ring, group, lines


def parse_graded_file(text: str, caps: Caps = DEFAULT_CAPS) -> GradedRing:
    from .grading import attach_grading

    ring, group, lines = _ring_file(text, caps, "graded ring", component=(_parse_int, ":", _elements))
    return attach_grading(ring, group, {x: members for x, (members,) in lines["component"].items()})


def parse_filter_file(text: str, caps: Caps = DEFAULT_CAPS) -> GFilter:
    from .grfilter import GFilter, ZRule

    degree_line = (_parse_int, "=", _elements)
    ring, group, lines = _ring_file(text, caps, "filter", I=degree_line, pattern=(None, _pattern),
                                    override=degree_line)
    assignments = {x: gens for x, (gens,) in lines["I"].items()}
    overrides = {x: gens for x, (gens,) in lines["override"].items()}

    def ideal_mask(gens):
        return generate_ideal(ring, gens).members

    if group.is_finite:
        if lines["pattern"] or overrides:
            raise SpecError("patterns and overrides are for integer filters")
        table = {x: ideal_mask(g) for x, g in assignments.items()}
        table.setdefault(group.identity, ring.full_mask)
        missing = set(group.elements()) - set(table)
        if missing:
            raise SpecError(f"missing assignments for group elements {sorted(missing)}")
        return GFilter(ring, group, table)
    if not lines["pattern"]:
        raise SpecError("an integer filter needs a pattern line")
    if assignments:
        raise SpecError("I lines are for finite groups; use overrides")
    ((kind, n, gens),) = lines["pattern"][None]
    off = ideal_mask(gens)
    if kind == "subgroup" and n < 1:
        raise SpecError("subgroup index must be positive")
    return GFilter(ring, group, {x: ideal_mask(g) for x, g in overrides.items()}, ZRule(n, off), caps)


def parse_graph_file(text: str) -> DirectedGraph:
    from .leavitt import DirectedGraph, Edge

    names = set()

    def vertex(ts: _Tokens) -> str:  # the cap is checked as each vertex line is read
        names.add(name := _name(ts))
        if len(names) > MAX_VERTICES:
            raise CapError(f"graph of {len(names)} vertices exceeds cap {MAX_VERTICES}")
        return name

    lines = _read_lines(text, {"vertex": (vertex,), "edge": (_name, ":", _name, "->", _name)})
    edges = (Edge(name, *ends) for name, ends in lines["edge"].items())
    return DirectedGraph(tuple(lines["vertex"]), tuple(edges))

"""The spec reader, a cursor over the text, against the token-list reader
in oracle.py: random and mutated spec strings through the ring, group and
element-list parsers, and the memory and time an order-256 tables{} spec
takes to read.  The JSON path of a tables{} block's lists against
_parse_list, which reads them otherwise.  The line-file readers against the
line splitting in oracle.py, on mutated tests/data files."""

import collections
import importlib
import json
import pkgutil
import random
import re
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedprime
from gradedprime import finring as fr
from gradedprime import specio
from gradedprime.errors import CapError, SpecError

import oracle
from corpus import relabelled
from oracle import tuple_rows

# Small caps, the same on both sides, keep every drawn ring cheap to build.
CAPS = fr.Caps(max_ring_order=16, max_ideals=64, max_group_order=8)

DIGITS = ["0", "1", "2", "3", "4", "7", "12", "٣", "۷", "١٠", "\U0001d7d9"]
SPACES = [" ", "", "", "\n", "\t", "  ", "\r\n", "\x0b", " ", " ", "\x1c"]
SEPARATORS = [",", ",", ", ", "", " ", ",,", " ,", ", ,", ";"]
STRAY = list("@-><)(][}{,;=:#x_Z²½.+ \n") + ["->", "- 1", "-1", "[]", "#c\n"]


def _int(rng):
    text = rng.choice(DIGITS)
    return "-" + text if rng.random() < 0.1 else text


def _list(rng, depth=0):
    """A list literal: nested, flat or ragged, with every comma form."""
    items = []
    for _ in range(rng.randint(0, 5)):
        nested = depth < 2 and rng.random() < 0.3
        items.append(_list(rng, depth + 1) if nested else _int(rng))
    text = "[" + rng.choice(SPACES)
    for item in items:
        text += item + rng.choice(SEPARATORS) + rng.choice(SPACES)
    return text + "]"


def _table(rng, n):
    """An n x n table over 0..n-1, nested or flat, sometimes not a ring's."""
    rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:  # the table of Z/n, which is valid for add and mul
        op = rng.choice((lambda a, b: (a + b) % n, lambda a, b: a * b % n))
        rows = [[op(a, b) for b in range(n)] for a in range(n)]
    sep = rng.choice((",", ", ", " ", ",\n"))
    trail = rng.choice(("", ",", ""))
    if rng.random() < 0.3:
        return "[" + sep.join(str(v) for row in rows for v in row) + trail + "]"
    return "[" + sep.join("[" + sep.join(map(str, row)) + trail + "]" for row in rows) + "]"


def _group(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return "Z"
    if kind == 1:
        return f"cyclic({_int(rng)})"
    if kind == 2:
        return f"sym({rng.choice(('1', '2', '3', '4'))})"
    n = rng.randint(1, 3)
    return f"tables{{order={n}; op={_table(rng, n)}}}"


def _ring(rng, depth=0):
    kind = rng.randrange(8 if depth < 2 else 3)
    if kind == 0:
        return f"gf({rng.choice(('2', '3', '4', '٣', '6'))})"
    if kind == 1:
        return f"zmod({rng.choice(('1', '2', '3', '4', '8'))})"
    if kind == 2:
        n = rng.randint(1, 4)
        fields = [f"order={n}", f"add={_table(rng, n)}", f"mul={_table(rng, n)}"]
        rng.shuffle(fields)
        return "tables{" + rng.choice(("; ", ";", " ")).join(fields) + rng.choice(("", ";")) + "}"
    if kind == 3:
        return f"product({_ring(rng, depth + 1)}, {_ring(rng, depth + 1)})"
    if kind == 4:
        return f"subring({_ring(rng, depth + 1)}, {_list(rng)})"
    if kind == 5:
        return f"{rng.choice(('mat', 'tri'))}({_ring(rng, depth + 1)}, {rng.choice(('1', '2'))})"
    if kind == 6:
        return f"grpalg(gf(2), {_group(rng)})"
    return _list(rng)


def _mutate(rng, text):
    """text with a few random deletions, insertions and duplicated slices."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 4))
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + text[j:]
        elif edit == 1:
            text = text[:i] + rng.choice(STRAY + DIGITS + SPACES) + text[i:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


def _spec(rng):
    draw = rng.choice((_ring, _ring, _group, _list))(rng)
    if rng.random() < 0.2:
        draw = f"# a comment {rng.choice(STRAY)}\n" + draw + " # trailing"
    return _mutate(rng, draw) if rng.random() < 0.6 else draw


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except (SpecError, CapError) as exc:
        return type(exc).__name__, str(exc)


ENTRY_POINTS = [
    ("ring", lambda t: specio.parse_ring_spec(t, CAPS), lambda t: oracle.parse_ring_spec(t, CAPS)),
    (
        "group",
        lambda t: specio.parse_group_spec(t, caps=CAPS),
        lambda t: oracle.parse_group_spec(t, caps=CAPS),
    ),
    ("element list", specio.parse_element_list, oracle.parse_element_list),
]


@pytest.mark.parametrize("seed", range(4))
def test_reader_matches_the_token_list_reader(seed):
    rng = random.Random(f"spec-reader-{seed}")
    accepted = 0
    for _ in range(5000):
        text = _spec(rng)
        for what, new, old in ENTRY_POINTS:
            got, want = _outcome(new, text), _outcome(old, text)
            assert got == want, (what, text)
            accepted += got[0] == "ok"
    assert accepted > 500  # the draws reach the parsers' success paths too


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2,]",
        "[1 2 3]",
        "[1,,2]",
        "[[1, 2], [3 4,], []]",
        "[[1,[2]],3]",
        "[٣, ۷]",
        "[1, 2",
        "[[1, 2]",
        "[1 x]",
        "[ ] ,",
        "[-1,-٣]",
        "[1 - 2]",
        "[1-2, 3-٣]",
    ],
)
def test_list_forms_match_the_token_list_reader(text):
    for _, new, old in ENTRY_POINTS:
        assert _outcome(new, text) == _outcome(old, text)


def test_a_tables_spec_of_order_256_reads_in_little_memory():
    """The cursor keeps no token list and the rows of Z/16 x Z/16's tables
    are plain JSON, so the traced peak is the text and the tables."""
    n = 256
    add = [[16 * ((a // 16 + b // 16) % 16) + (a + b) % 16 for b in range(n)] for a in range(n)]
    mul = [[16 * (a // 16 * (b // 16) % 16) + a % 16 * (b % 16) % 16 for b in range(n)] for a in range(n)]

    def rows(table):
        return "[" + ",\n ".join("[" + ",".join(map(str, row)) + "]" for row in table) + "]"

    text = f"tables{{order={n};\nadd={rows(add)};\nmul={rows(mul)}}}\n"
    tracemalloc.start()
    try:
        ring = specio.parse_ring_spec(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ring.order == n and ring.unit == 17
    assert peak <= 4_000_000


def test_a_non_json_tables_spec_of_order_256_reads_like_its_json_form():
    """The relabelled Z/16 x Z/16 with a comma before every ], which the
    JSON decoder refuses, is read by the token walk alone."""
    rng = random.Random("z16sq")
    perm = list(range(256))
    rng.shuffle(perm)
    ring = relabelled(fr.product(fr.zmod(16), fr.zmod(16)), perm)
    plain = f"tables{{order=256; add={json.dumps(tuple_rows(ring.add_table))}; mul={json.dumps(tuple_rows(ring.mul_table))}}}"
    start = time.perf_counter()
    got = specio.parse_ring_spec(plain.replace("]", ",]"))
    assert time.perf_counter() - start < 2.0
    assert got == specio.parse_ring_spec(plain)


@pytest.mark.parametrize(
    "text",
    [
        "[" + " 12345" * 3000 + " x]",
        "[" + "1 ,  " * 3000 + ",]",
        "[" + "-7  " * 3000,
        "[[" + "1, " * 3000 + "]",
    ],
)
def test_a_long_near_miss_row_fails_fast(text):
    """A long row with an error near its end is refused by the token walk
    in time linear in its length."""
    start = time.perf_counter()
    got = _outcome(specio.parse_element_list, text)
    assert time.perf_counter() - start < 1.0
    assert got[0] == "SpecError" and got == _outcome(oracle.parse_element_list, text)


def _opcodes(node, parser):
    if isinstance(node, parser.SubPattern):
        for op, av in node:
            yield str(op)
            yield from _opcodes(av, parser)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from _opcodes(item, parser)


def test_patterns_compile_before_python_3_11():
    """No module pattern uses possessive repeats or atomic groups, which
    Python's re accepts from 3.11 only; the package supports 3.10."""
    parser = getattr(re, "_parser", None)
    if parser is None:  # before 3.11, where such a pattern would not import
        pytest.skip("re._parser is new in Python 3.11")
    patterns = []
    for info in pkgutil.iter_modules(gradedprime.__path__, "gradedprime."):
        for value in vars(importlib.import_module(info.name)).values():
            values = value.values() if isinstance(value, dict) else [value]
            patterns += [v for v in values if isinstance(v, re.Pattern)]
    assert specio._NEXT in patterns
    # specio keeps the patterns a plain call does not read as text, compiled when first used
    patterns += [re.compile(text) for text in (specio._BAD, *specio._KINDS.values())]
    for pattern in patterns:
        ops = set(_opcodes(parser.parse(pattern.pattern, pattern.flags), parser))
        assert not ops & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, pattern.pattern


def _read_list(read, text):
    """What a list reader makes of text, a list at the start of a table
    field: the value and the position after it, or the error text."""
    try:
        ts = specio._Tokens(text)
        return read(ts), ts.pos
    except SpecError as exc:  # a literal over int()'s digit limit too
        return type(exc).__name__, str(exc)


def assert_json_path_agrees(text):
    got = _read_list(specio._table_list, text)
    assert got == _read_list(specio._parse_list, text), text
    return got


JSON_TEXTS = st.recursive(
    st.integers(0, 300).map(str) | st.sampled_from(["01", "-1", "1-2", "\u0663", "1e2", "null", "2 3"]),
    lambda items: st.lists(items, max_size=4).map(lambda xs: "[" + ",".join(xs) + "]"),
    max_leaves=12,
).filter(lambda text: text.startswith("["))
JSON_SPACES = st.sampled_from(["", " ", "\n", "\t", "\r", "\x0b", "\x0c", ",", ", "])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(JSON_TEXTS, st.lists(JSON_SPACES, max_size=6), st.randoms(use_true_random=False))
def test_the_json_path_agrees_with_parse_list(text, spaces, rnd):
    """Drawn list texts, with whitespace or commas inserted after some of
    their characters."""
    chars = list(text)
    for space in spaces:
        k = rnd.randrange(len(chars))
        chars[k] += space
    assert_json_path_agrees("".join(chars) + " ; rest")


@pytest.mark.parametrize(
    "text",
    ["[01]", "[1,]", "[1 2]", "[1-2]", "[1,\x0b2]", "[\x0c1]", "[]", "[[0, 1],\r\n [1, 0]]", "[-1]",
     "[1.5]", "[1e2]", "[true]", "[\u0663]", "[" + "7" * 5000 + "]", "[" + "7" * 4300 + "]", "[[1], [2]"],
)
def test_the_json_path_on_fixed_texts(text):
    assert_json_path_agrees(text)


def test_the_json_path_keeps_only_json_it_reads_as_parse_list_does():
    assert assert_json_path_agrees("[[0,1],\n [1,0]]") == ([[0, 1], [1, 0]], 15)
    with mock.patch.object(specio, "_parse_list", side_effect=AssertionError("fell back")):
        specio._table_list(specio._Tokens("[[0,1],\n [1,0]]"))


def _depth(value) -> int:
    """The depth of a list nested one item per level, found without recursion."""
    depth = 0
    while isinstance(value, list):
        assert len(value) <= 1
        value = value[0] if value else None
        depth += 1
    return depth


def test_a_list_nested_past_the_recursion_limit():
    """The decoder refuses it with RecursionError; _parse_list reads it with
    a stack of its own, and the table reader then refuses its list entry."""
    deep = "[" * 50_000 + "]" * 50_000
    ts = specio._Tokens(deep)
    assert (_depth(specio._table_list(ts)), ts.pos) == (50_000, len(deep))
    text = f"tables{{order=1; add={deep}; mul=[[0]]}}"
    with pytest.raises(SpecError, match="^table entries must be element indices$"):
        specio.parse_ring_spec(text)


TABLE_SPECS = [
    match[0]
    for path in sorted((Path(__file__).parent / "data").iterdir())
    for match in re.finditer(r"tables\{[^}]*\}", path.read_text(encoding="utf-8"))
]


@pytest.mark.parametrize("spec", TABLE_SPECS + [
    "tables{order=256; add=%s; mul=%s}" % (json.dumps(tuple_rows(r.add_table)),
                                           json.dumps(tuple_rows(r.mul_table)).replace("], ", "],\n "))
    for r in [fr.zmod(256)]
])
def test_every_tables_block_reads_the_same_through_both_paths(spec):
    ts = specio._Tokens(spec)
    ts.expect("name", "tables")
    got = specio._parse_table_block(ts)
    with mock.patch.object(specio, "_table_list", specio._parse_list):
        ts = specio._Tokens(spec)
        ts.expect("name", "tables")
        assert specio._parse_table_block(ts) == got


LINE_READERS = {"graded": "parse_graded_file", "filter": "parse_filter_file", "graph": "parse_graph_file"}
LINE_FILES = [
    (path.suffix[1:], path.read_text(encoding="utf-8"))
    for path in sorted((Path(__file__).parent / "data").iterdir())
    if path.suffix[1:] in LINE_READERS
]
KEYWORDS = ["ring", "group", "component", "I", "pattern", "subgroup", "constant", "override", "vertex", "edge"]


def _line_edit(rng, text):
    """text with one line repeated, deleted, given a keyword with characters
    glued on, or with the whitespace around a separator or after its first
    word changed."""
    lines = text.splitlines() or [""]
    k = rng.randrange(len(lines))
    edit = rng.randrange(5)
    if edit == 0:
        lines.insert(k, lines[k])
    elif edit == 1:
        del lines[k]
    elif edit == 2:
        kw = rng.choice(KEYWORDS)
        glued = kw + rng.choice(["s", "x", "0", "_", "rn", "@", ":"])
        lines[k] = re.sub(rf"\b{kw}\b", glued, lines[k], count=1)
    elif edit == 3:
        space = ["", " ", "\t"]
        lines[k] = re.sub(r"\s*([:=]|->)\s*", lambda m: rng.choice(space) + m[1] + rng.choice(space), lines[k], count=1)
    else:
        lines[k] = re.sub(r"\s+", rng.choice(["", "\t", "  "]), lines[k], count=1)
    return "\n".join(lines)


def mutated_line_file(rng):
    """(kind, text): a tests/data graded, filter or graph file after one to
    three line edits or character edits."""
    kind, text = rng.choice(LINE_FILES)
    for _ in range(rng.randint(1, 3)):
        text = _line_edit(rng, text) if rng.random() < 0.5 else _mutate(rng, text)
    return kind, text


def _value(parsed):
    """What a line-file reader gave, in a form that compares by value."""
    if hasattr(parsed, "components"):  # a GradedRing, which has no __eq__
        return parsed.ring, parsed.group, parsed.components, parsed.support
    return parsed


def _line_outcome(read, text):
    try:
        return "ok", _value(read(text))
    except (SpecError, CapError) as exc:
        return "refused", str(exc)


def _tokens(line):
    ts, out = specio._Tokens(line), []
    while not ts.at_end():
        out.append(ts.next())
    return out


def _spaced(text):
    """text with one space between the tokens of each line and none before
    a colon, the spacing that the splitting of oracle.py reads."""
    lines = specio._strip_comments(text).splitlines()
    return "\n".join(" ".join(_tokens(line)).replace(" :", ":") for line in lines)


def _unglued(text):
    """text as the prefix match of oracle.py read its keywords: a component
    or override keyword parted from the characters glued to it, which begin
    the degree, and a pattern keyword cleared of them."""
    text = re.sub(r"^(\s*)(component|override)(?=\S)", r"\1\2 ", text, flags=re.M)
    return re.sub(r"^(\s*pattern)\S+", r"\1", text, flags=re.M)


@pytest.mark.parametrize("seed", range(2))
def test_line_files_read_as_the_line_splitting_reader_read_them(seed):
    """Both readers give an equal value or both refuse, except in two
    classes.  A keyword with characters glued on (component0, patterns) is
    now refused: read with the keyword parted from them, or cleared of them
    for pattern, the text gives the old value.  Whitespace the old splitting
    did not allow (before a colon, a tab after I, none before a list) is now
    read: with the old spacing the old reader gives the new value."""
    rng = random.Random(f"line-files-{seed}")
    seen = collections.Counter()
    for _ in range(2500):
        kind, text = mutated_line_file(rng)
        new, old = getattr(specio, LINE_READERS[kind]), getattr(oracle, LINE_READERS[kind])
        got, want = _line_outcome(new, text), _line_outcome(old, text)
        if got[0] == want[0] and (got[0] == "refused" or got == want):
            seen[got[0]] += 1
        elif want[0] == "ok":
            assert _unglued(text) != text and _line_outcome(new, _unglued(text)) == want, text
            seen["glued"] += 1
        else:
            assert _line_outcome(old, _spaced(text)) == got, text
            seen["spaced"] += 1
    assert seen["ok"] > 300 and seen["glued"] and seen["spaced"], seen

"""Command-line surface.

Each subcommand is a generator of records ``(key, value, text)``.
``key=value`` is the record's line under ``--porcelain`` (none when key is
None) and ``text`` its human line (none when text is None); a field given
as a zero-argument callable is built only when its line is printed.
``main`` keeps the lines of the chosen mode and writes them once the
subcommand has finished.  So standard output holds a verdict or nothing:
exit status is 0 for any computed verdict (whatever it is), and an input or
validation problem is one line on standard error with exit status 2.
``main`` flushes standard output before it returns, so a failed write (a
closed pipe) is such a problem too and ``__main__`` can skip the teardown.

All output is deterministic: listings are canonically ordered and the only
randomized mode (witness trials) takes a seed flag whose default is the
documented constant 0.

Each subcommand imports the layers it uses when it runs (``prime`` and
``ideals`` need ``finring`` and ``specio`` only), so a call pays start-up
for its own code.  The grammar is one table, read by ``_plain_args`` for a
plain argv and by ``build_parser``, which builds argparse, for any other
(help, usage errors): a plain call imports no argparse, whose import and
parsers (with gettext and locale) cost about 7 ms.
"""

from __future__ import annotations

import random
import sys
from functools import partial
from types import SimpleNamespace

from . import finring as fr
from . import specio
from .errors import CapError, SpecError

DEFAULT_SEED = 0
MAX_TRIALS = 100_000  # about 15 us a trial: about 1.5 s at the cap
MAX_INPUT = 1 << 20  # characters of an input file; an order-256 tables{} spec is about 0.5 MB


def _verdict(key: str, label: str, flag) -> tuple:
    """A yes/no/undecided record; its human form is the word in upper case."""
    word = "undecided" if flag is None else "yes" if flag else "no"
    return key, word, f"{label}: {word.upper()}"


def _passed(flag: bool) -> str:
    return "pass" if flag else "fail"


def _caps(args) -> fr.Caps:
    """The caps of the command line, each of them at least 1."""
    caps = fr.Caps(*(getattr(args, name) for name in fr.Caps._fields))
    for name, value in caps._asdict().items():
        if value < 1:
            raise SpecError(f"--{name.replace('_', '-')} must be at least 1")
    return caps


def _read(path: str) -> str:
    """The text of an input file, decoded as read_text does, refused past
    MAX_INPUT characters before the rest is read."""
    with open(path, encoding="utf-8") as f:
        text = f.read(MAX_INPUT + 1)
    if len(text) > MAX_INPUT:
        raise SpecError(f"input file exceeds cap of {MAX_INPUT} characters")
    return text


def _listing(label: str, names) -> str:
    return f"{label}: [{', '.join(names)}]"


def _cmd_ideals(args):
    ring = specio.parse_ring_spec(_read(args.ring), caps=_caps(args))
    lattice = fr.all_ideals(ring, _caps(args))
    yield "order", ring.order, f"ring order: {ring.order}"
    yield "ideals", len(lattice), f"ideals: {len(lattice)}"
    for k, mask in enumerate(lattice):
        yield (
            f"ideal.{k}",
            partial(",".join, map(str, fr.bits(mask))),
            partial(_listing, f"ideal {k}", map(ring.name, fr.bits(mask))),
        )


def _cmd_prime(args):
    ring = specio.parse_ring_spec(_read(args.ring), caps=_caps(args))
    if args.ideal is not None:
        gens = specio.parse_element_list(args.ideal)
        ideal = fr.generate_ideal(ring, gens)
        if not ideal.is_proper:
            raise SpecError("the generated ideal is the whole ring")
        verdict = fr.is_prime_ideal(ring, ideal)
        yield (
            "ideal",
            ",".join(map(str, ideal.elements())),
            _listing("ideal members", map(ring.name, ideal.elements())),
        )
    else:
        verdict = fr.is_prime_ring(ring)
    yield _verdict("prime", "prime", verdict)


def _cmd_classify(args):
    from . import grading as gr

    graded = specio.parse_graded_file(_read(args.graded), caps=_caps(args))
    c = gr.classify_grading(graded)
    records = [
        _verdict("strongly", "strongly", c.strongly),
        _verdict("symmetrically", "symmetrically", c.symmetrically),
        _verdict("ideally", "ideally", c.ideally_symmetrically),
        _verdict("nearly_eps", "nearly-eps", c.nearly_epsilon_strongly),
    ]
    yield from ((key, word, None) for key, word, _ in records)
    yield None, None, ", ".join(text for _, _, text in records)


def _cmd_graded_prime(args):
    from . import grading as gr

    graded = specio.parse_graded_file(_read(args.graded), caps=_caps(args))
    yield _verdict("graded_prime", "graded prime", gr.is_graded_prime_ring(graded))


def _report(report, prefix: str):
    yield None, None, f"report {prefix}:"
    for c, line in zip(report.checks, report.lines()):
        yield f"check.{prefix}.{c.name}", _passed(c.passed), f"  {line}"


def _cmd_correspondence(args):
    from . import correspondence as co
    from . import grading as gr

    caps = _caps(args)
    graded = specio.parse_graded_file(_read(args.graded), caps=caps)
    yield from _report(co.verify_bijection_identity_generated(graded, caps), "identity-generated")
    if gr.classify_grading(graded).ideally_symmetrically:
        yield from _report(co.verify_bijection_ideally_symmetric(graded, caps), "ideally-symmetric")
    else:
        yield (
            "check.ideally-symmetric.skipped",
            1,
            "report ideally-symmetric: SKIPPED (grading is not ideally symmetric)",
        )


def _cmd_leavitt(args):
    from . import leavitt as lv

    depth = args.orthogonality_depth
    if depth is not None and depth < 0:
        raise SpecError("--orthogonality-depth must not be negative")
    graph = specio.parse_graph_file(_read(args.graph))
    coeff = specio.parse_ring_spec(_read(args.coeff), caps=_caps(args))
    coeff_prime, mt3 = lv._primeness_parts(graph, coeff)
    yield _verdict("coeff_prime", "coeff prime", coeff_prime)
    yield "mt3", _passed(mt3.holds), None
    pair = None if mt3.holds else "{},{}".format(*mt3.violation)
    if pair:
        yield "mt3_pair", pair, None
    key, word, text = _verdict("prime", "prime", coeff_prime and mt3.holds)
    yield key, word, f"MT-3: {f'FAIL ({pair})' if pair else 'PASS'}; {text}"
    for (u, v), w in sorted((mt3.sinks or {}).items()):
        yield f"sink.{u},{v}", w, f"sink {u},{v}: {w}"
    if pair and depth is not None:
        ok = _passed(lv.verify_corner_orthogonality(graph, coeff, *mt3.violation))
        yield "orthogonality", ok, f"orthogonality depth {depth} ({pair}): {ok.upper()}"


def _cmd_filter(args):
    from . import grfilter as gfl

    if not 0 <= args.trials <= MAX_TRIALS:
        raise SpecError(f"--trials must be between 0 and {MAX_TRIALS}")
    caps = _caps(args)
    filt = specio.parse_filter_file(_read(args.filter), caps=caps)
    valid = gfl.validate_filter(filt)
    yield _verdict("valid", "valid filter", valid)
    if not valid:
        return
    if args.witness:
        if filt.group.is_finite:
            raise SpecError("witness trials need an integer-graded filter")
        ring, rng = filt.ring, random.Random(args.seed)

        def line(t, a, b, text):
            return f"trial {t}: a={gfl.show(ring, a)} b={gfl.show(ring, b)} witness: {text}"

        failures = 0
        for t in range(args.trials):
            a = gfl.random_element(filt, rng)
            b = gfl.random_element(filt, rng)
            witness = gfl.witness_search(ring, a, b)
            if witness is None:
                failures += 1
                text = "absent"
            else:
                text = witness.describe(ring)
            yield f"trial.{t}", text, partial(line, t, a, b, text)
        yield "witness_failures", failures, f"witness failures: {failures}"
        return
    c = gfl.classify_filter(filt)
    yield _verdict("symmetric", "symmetric", c.symmetric)
    yield _verdict("inverse_equal", "inverse-equal", c.inverse_equal)
    yield _verdict("ideally_symmetric", "ideally-symmetric", c.ideally_symmetric)
    yield _verdict("nearly_eps", "nearly-eps", c.nearly_eps)
    yield _verdict("coeff_idempotent", "coeff idempotent", c.R_idempotent)
    yield _verdict("coeff_fully_idempotent", "coeff fully idempotent", c.R_fully_idempotent)


# The command-line grammar: the options every command takes, then each
# command's handler, help, positional and its help, and options.  An option
# is its flag and the keywords of its add_argument call.
_N = {"type": int, "metavar": "N"}
_SWITCH = {"action": "store_true"}
_COMMON = [
    ("--porcelain", {**_SWITCH, "help": "stable key=value output"}),
    *(("--" + name.replace("_", "-"), {**_N, "default": value}) for name, value in fr.DEFAULT_CAPS._asdict().items()),
]
_COMMANDS = {
    "ideals": (_cmd_ideals, "list the ideal lattice of a ring", "ring", "ring spec file"),
    "prime": (_cmd_prime, "decide primeness of a ring or ideal", "ring", "ring spec file",
              ("--ideal", {"help": "generators of the ideal to test, e.g. '[2]'"})),
    "classify": (_cmd_classify, "classify a grading", "graded", "graded ring file"),
    "graded-prime": (_cmd_graded_prime, "decide graded primeness", "graded", "graded ring file"),
    "correspondence": (_cmd_correspondence, "run the base-component correspondence reports", "graded",
                       "graded ring file"),
    "leavitt": (_cmd_leavitt, "decide Leavitt path ring primeness", "graph", "graph file",
                ("--coeff", {"required": True, "help": "coefficient ring spec file"}),
                ("--orthogonality-depth",
                 {**_N, "default": None, "help": "also check corner orthogonality for the violating pair"})),
    "filter": (_cmd_filter, "classify or probe a filter subring", "filter", "filter spec file",
               ("--witness", {**_SWITCH, "help": "seeded random witness trials"}),
               ("--trials", {"type": int, "default": 20, "metavar": "K"}),
               ("--bound", {**_N, "default": 8,
                            "help": "accepted for compatibility: a witness, if any, lies in degree 0"}),
               ("--seed", {**_N, "default": DEFAULT_SEED, "metavar": "S", "help": "trial seed (default 0)"})),
}


def build_parser():
    """The argparse parser of the grammar table, which main builds for an
    argv that _plain_args leaves (an abbreviation, ``--opt=value``, a value
    that starts with ``-``, help or a usage error)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gradedprime",
        description="Primeness of finite graded rings, Leavitt path rings and group-ring filter subrings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _COMMON:
        common.add_argument(flag, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, dest, dest_text, *options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument(dest, help=dest_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv):
    """The namespace of build_parser().parse_args(argv), read without
    argparse when each word is one argparse reads the same way: an exact
    command name first, then exact option flags, each value option followed
    by a value, and one positional, no value or positional starting with
    "-".  Any other argv, or one argparse refuses (a missing positional or
    required option, a value its type refuses), gives None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, dest, _, *options = _COMMANDS[argv[0]]
    flags = dict(_COMMON + options)
    given, positionals = {}, []
    words = iter(argv[1:])
    for word in words:
        kwargs = flags.get(word)
        if not word.startswith("-"):
            positionals.append(word)
        elif kwargs is None:
            return None
        elif "action" in kwargs:  # store_true
            given[word] = True
        else:
            value = next(words, "-")
            if value.startswith("-"):
                return None
            try:
                given[word] = kwargs.get("type", str)(value)
            except ValueError:
                return None
    required = {flag for flag, kwargs in flags.items() if kwargs.get("required")}
    if len(positionals) != 1 or not required <= given.keys():
        return None
    values = {
        flag[2:].replace("-", "_"): given.get(flag, kwargs.get("default", False if "action" in kwargs else None))
        for flag, kwargs in flags.items()
    }
    return SimpleNamespace(command=argv[0], func=func, **{dest: positionals[0]}, **values)


def _text(field):
    """A record field, built now when it was deferred as a callable."""
    return field() if callable(field) else field


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        _caps(args)  # refuses a cap below 1 before any file is read
        if args.porcelain:
            out = "".join(f"{key}={_text(value)}\n" for key, value, _ in args.func(args) if key is not None)
        else:
            out = "".join(f"{_text(text)}\n" for _, _, text in args.func(args) if text is not None)
        sys.stdout.write(out)
        sys.stdout.flush()
    except (SpecError, CapError, ValueError, OSError) as exc:
        message = str(exc)
        if len(message) > 200:  # a message may echo the input, which can be megabytes long
            message = message[:200] + "..."
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
for its own code.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import partial
from pathlib import Path

from . import finring as fr
from . import specio
from .errors import CapError, SpecError

DEFAULT_SEED = 0
MAX_TRIALS = 100_000  # about 20 us a trial: about 2 s at the cap


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
    return Path(path).read_text(encoding="utf-8")


def _listing(label: str, names) -> str:
    return f"{label}: [{', '.join(names)}]"


def _cmd_ideals(args):
    ring = specio.parse_ring_spec(_read(args.ring), caps=_caps(args))
    lattice = fr.all_ideals(ring, _caps(args))
    yield "order", ring.order, f"ring order: {ring.order}"
    yield "ideals", len(lattice), f"ideals: {len(lattice)}"
    for k, ideal in enumerate(lattice):
        yield (
            f"ideal.{k}",
            partial(",".join, map(str, ideal.elements())),
            partial(_listing, f"ideal {k}", map(ring.name, ideal.elements())),
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
        handle = gfl.FilterRing(filt)
        rng = random.Random(args.seed)
        line = "trial {}: a={!r} b={!r} witness: {}".format
        failures = 0
        for t in range(args.trials):
            a = handle.random_element(rng)
            b = handle.random_element(rng)
            witness = gfl.witness_search(handle, a, b)
            if witness is None:
                failures += 1
                text = "absent"
            else:
                text = witness.describe(filt.ring)
            yield f"trial.{t}", text, partial(line, t, a, b, text)
        yield "witness_failures", failures, f"witness failures: {failures}"
        return
    c = gfl.classify_filter(filt, caps)
    yield _verdict("symmetric", "symmetric", c.symmetric)
    yield _verdict("inverse_equal", "inverse-equal", c.inverse_equal)
    yield _verdict("ideally_symmetric", "ideally-symmetric", c.ideally_symmetric)
    yield _verdict("nearly_eps", "nearly-eps", c.nearly_eps)
    yield _verdict("coeff_idempotent", "coeff idempotent", c.R_idempotent)
    yield _verdict("coeff_fully_idempotent", "coeff fully idempotent", c.R_fully_idempotent)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedprime",
        description="Primeness of finite graded rings, Leavitt path rings and group-ring filter subrings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--porcelain", action="store_true", help="stable key=value output")
    for name, default in fr.DEFAULT_CAPS._asdict().items():
        common.add_argument("--" + name.replace("_", "-"), type=int, default=default, metavar="N")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ideals", parents=[common], help="list the ideal lattice of a ring")
    p.add_argument("ring", help="ring spec file")
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("prime", parents=[common], help="decide primeness of a ring or ideal")
    p.add_argument("ring", help="ring spec file")
    p.add_argument("--ideal", help="generators of the ideal to test, e.g. '[2]'")
    p.set_defaults(func=_cmd_prime)

    p = sub.add_parser("classify", parents=[common], help="classify a grading")
    p.add_argument("graded", help="graded ring file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("graded-prime", parents=[common], help="decide graded primeness")
    p.add_argument("graded", help="graded ring file")
    p.set_defaults(func=_cmd_graded_prime)

    p = sub.add_parser(
        "correspondence", parents=[common], help="run the base-component correspondence reports"
    )
    p.add_argument("graded", help="graded ring file")
    p.set_defaults(func=_cmd_correspondence)

    p = sub.add_parser("leavitt", parents=[common], help="decide Leavitt path ring primeness")
    p.add_argument("graph", help="graph file")
    p.add_argument("--coeff", required=True, help="coefficient ring spec file")
    p.add_argument(
        "--orthogonality-depth",
        type=int,
        default=None,
        metavar="N",
        help="also check corner orthogonality for the violating pair",
    )
    p.set_defaults(func=_cmd_leavitt)

    p = sub.add_parser("filter", parents=[common], help="classify or probe a filter subring")
    p.add_argument("filter", help="filter spec file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--classify", action="store_true", help="classification (the default)")
    mode.add_argument("--witness", action="store_true", help="seeded random witness trials")
    p.add_argument("--trials", type=int, default=20, metavar="K")
    p.add_argument(
        "--bound",
        type=int,
        default=8,
        metavar="N",
        help="accepted for compatibility: a witness, if any, lies in degree 0",
    )
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, metavar="S", help="trial seed (default 0)"
    )
    p.set_defaults(func=_cmd_filter)
    return parser


def _text(field):
    """A record field, built now when it was deferred as a callable."""
    return field() if callable(field) else field


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _caps(args)  # refuses a cap below 1 before any file is read
        if args.porcelain:
            out = "".join(f"{key}={_text(value)}\n" for key, value, _ in args.func(args) if key is not None)
        else:
            out = "".join(f"{_text(text)}\n" for _, _, text in args.func(args) if text is not None)
        sys.stdout.write(out)
        sys.stdout.flush()
    except (SpecError, CapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

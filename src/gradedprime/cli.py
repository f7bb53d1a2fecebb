"""Command-line surface.

Verdicts go to standard output in a stable, line-oriented form; diagnostics
go to standard error.  Exit status is 0 for any computed verdict (whatever
it is) and 2 for input or validation problems.  ``--porcelain`` switches
every subcommand to machine-readable ``key=value`` lines.

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
from pathlib import Path

from . import finring as fr
from . import specio
from .errors import CapError, SpecError

DEFAULT_SEED = 0


def _yn(flag: bool) -> str:
    return "YES" if flag else "NO"


def _porc(flag) -> str:
    if flag is None:
        return "undecided"
    return "yes" if flag else "no"


def _caps(args) -> fr.Caps:
    return fr.Caps(
        max_ring_order=args.max_ring_order,
        max_ideals=args.max_ideals,
        max_group_order=args.max_group_order,
    )


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _cmd_ideals(args) -> int:
    ring = specio.parse_ring_spec(_read(args.ring), caps=_caps(args))
    lattice = fr.all_ideals(ring, _caps(args))
    if args.porcelain:
        print(f"order={ring.order}")
        print(f"ideals={len(lattice)}")
        for k, ideal in enumerate(lattice):
            print(f"ideal.{k}=" + ",".join(str(i) for i in ideal.elements()))
    else:
        print(f"ring order: {ring.order}")
        print(f"ideals: {len(lattice)}")
        for k, ideal in enumerate(lattice):
            members = ", ".join(ring.name(i) for i in ideal.elements())
            print(f"ideal {k}: [{members}]")
    return 0


def _cmd_prime(args) -> int:
    ring = specio.parse_ring_spec(_read(args.ring), caps=_caps(args))
    if args.ideal is not None:
        gens = specio.parse_element_list(args.ideal)
        ideal = fr.generate_ideal(ring, gens)
        if not ideal.is_proper:
            raise SpecError("the generated ideal is the whole ring")
        verdict = fr.is_prime_ideal(ring, ideal)
        if args.porcelain:
            print("ideal=" + ",".join(str(i) for i in ideal.elements()))
            print(f"prime={_porc(verdict)}")
        else:
            members = ", ".join(ring.name(i) for i in ideal.elements())
            print(f"ideal members: [{members}]")
            print(f"prime: {_yn(verdict)}")
    else:
        verdict = fr.is_prime_ring(ring)
        if args.porcelain:
            print(f"prime={_porc(verdict)}")
        else:
            print(f"prime: {_yn(verdict)}")
    return 0


def _cmd_classify(args) -> int:
    from . import grading as gr

    graded = specio.parse_graded_file(_read(args.graded), caps=_caps(args))
    c = gr.classify_grading(graded)
    if args.porcelain:
        print(f"strongly={_porc(c.strongly)}")
        print(f"symmetrically={_porc(c.symmetrically)}")
        print(f"ideally={_porc(c.ideally_symmetrically)}")
        print(f"nearly_eps={_porc(c.nearly_epsilon_strongly)}")
    else:
        print(
            f"strongly: {_yn(c.strongly)}, symmetrically: {_yn(c.symmetrically)}, "
            f"ideally: {_yn(c.ideally_symmetrically)}, nearly-eps: {_yn(c.nearly_epsilon_strongly)}"
        )
    return 0


def _cmd_graded_prime(args) -> int:
    from . import grading as gr

    graded = specio.parse_graded_file(_read(args.graded), caps=_caps(args))
    verdict = gr.is_graded_prime_ring(graded)
    if args.porcelain:
        print(f"graded_prime={_porc(verdict)}")
    else:
        print(f"graded prime: {_yn(verdict)}")
    return 0


def _print_report(report, prefix: str, porcelain: bool) -> None:
    if porcelain:
        for c in report.checks:
            print(f"check.{prefix}.{c.name}={'pass' if c.passed else 'fail'}")
    else:
        print(f"report {prefix}:")
        for line in report.lines():
            print(f"  {line}")


def _cmd_correspondence(args) -> int:
    from . import correspondence as co
    from . import grading as gr

    caps = _caps(args)
    graded = specio.parse_graded_file(_read(args.graded), caps=caps)
    _print_report(
        co.verify_bijection_identity_generated(graded, caps), "identity-generated", args.porcelain
    )
    if gr.classify_grading(graded).ideally_symmetrically:
        _print_report(
            co.verify_bijection_ideally_symmetric(graded, caps),
            "ideally-symmetric",
            args.porcelain,
        )
    else:
        if args.porcelain:
            print("check.ideally-symmetric.skipped=1")
        else:
            print("report ideally-symmetric: SKIPPED (grading is not ideally symmetric)")
    return 0


def _cmd_leavitt(args) -> int:
    from . import leavitt as lv

    graph = specio.parse_graph_file(_read(args.graph))
    coeff = specio.parse_ring_spec(_read(args.coeff), caps=_caps(args))
    mt3 = lv.satisfies_mt3(graph)
    coeff_prime = fr.is_prime_ring(coeff)
    if coeff.unit is None:  # before any verdict is printed
        raise SpecError("coefficient ring must be unital")
    prime = coeff_prime and mt3.holds
    if args.porcelain:
        print(f"coeff_prime={_porc(coeff_prime)}")
        print(f"mt3={'pass' if mt3.holds else 'fail'}")
        if not mt3.holds:
            print(f"mt3_pair={mt3.violation[0]},{mt3.violation[1]}")
        print(f"prime={_porc(prime)}")
        if mt3.holds:
            for (u, v), w in sorted(mt3.sinks.items()):
                print(f"sink.{u},{v}={w}")
    else:
        print(f"coeff prime: {_yn(coeff_prime)}")
        if mt3.holds:
            print(f"MT-3: PASS; prime: {_yn(prime)}")
            for (u, v), w in sorted(mt3.sinks.items()):
                print(f"sink {u},{v}: {w}")
        else:
            u, v = mt3.violation
            print(f"MT-3: FAIL ({u},{v}); prime: {_yn(prime)}")
    if args.orthogonality_depth is not None and not mt3.holds:
        u, v = mt3.violation
        ok = lv.verify_corner_orthogonality(graph, coeff, u, v, args.orthogonality_depth)
        if args.porcelain:
            print(f"orthogonality={'pass' if ok else 'fail'}")
        else:
            print(
                f"orthogonality depth {args.orthogonality_depth} ({u},{v}): "
                f"{'PASS' if ok else 'FAIL'}"
            )
    return 0


def _cmd_filter(args) -> int:
    from . import grfilter as gfl

    caps = _caps(args)
    filt = specio.parse_filter_file(_read(args.filter), caps=caps)
    valid = gfl.validate_filter(filt)
    if args.porcelain:
        print(f"valid={_porc(valid)}")
    else:
        print(f"valid filter: {_yn(valid)}")
    if not valid:
        return 0
    if args.witness:
        if filt.group.is_finite:
            raise SpecError("witness trials need an integer-graded filter")
        handle = gfl.FilterRing(filt)
        rng = random.Random(args.seed)
        failures = 0
        for t in range(args.trials):
            a = handle.random_element(rng)
            b = handle.random_element(rng)
            witness = gfl.witness_search(handle, a, b, args.bound)
            if witness is None:
                failures += 1
                text = "absent"
            else:
                text = witness.describe(filt.ring)
            if args.porcelain:
                print(f"trial.{t}={text}")
            else:
                print(f"trial {t}: a={a!r} b={b!r} witness: {text}")
        if args.porcelain:
            print(f"witness_failures={failures}")
        else:
            print(f"witness failures: {failures}")
        return 0
    c = gfl.classify_filter(filt, caps)
    if args.porcelain:
        print(f"symmetric={_porc(c.symmetric)}")
        print(f"inverse_equal={_porc(c.inverse_equal)}")
        print(f"ideally_symmetric={_porc(c.ideally_symmetric)}")
        print(f"nearly_eps={_porc(c.nearly_eps)}")
        print(f"coeff_idempotent={_porc(c.R_idempotent)}")
        print(f"coeff_fully_idempotent={_porc(c.R_fully_idempotent)}")
    else:
        ideally = "UNDECIDED" if c.ideally_symmetric is None else _yn(c.ideally_symmetric)
        print(f"symmetric: {_yn(c.symmetric)}")
        print(f"inverse-equal: {_yn(c.inverse_equal)}")
        print(f"ideally-symmetric: {ideally}")
        print(f"nearly-eps: {_yn(c.nearly_eps)}")
        print(f"coeff idempotent: {_yn(c.R_idempotent)}")
        print(f"coeff fully idempotent: {_yn(c.R_fully_idempotent)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedprime",
        description="Primeness of finite graded rings, Leavitt path rings and group-ring filter subrings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--porcelain", action="store_true", help="stable key=value output")
    common.add_argument(
        "--max-ring-order", type=int, default=fr.DEFAULT_CAPS.max_ring_order, metavar="N"
    )
    common.add_argument(
        "--max-ideals", type=int, default=fr.DEFAULT_CAPS.max_ideals, metavar="N"
    )
    common.add_argument(
        "--max-group-order", type=int, default=fr.DEFAULT_CAPS.max_group_order, metavar="N"
    )
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, CapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

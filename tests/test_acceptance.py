"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or on failure) and enforces its runtime budget.  All checks
are exact: the objects are finite, so every quantifier is exhausted.
"""

import random
import time
from pathlib import Path

from gradedprime import correspondence as co
from gradedprime import finring as fr
from gradedprime import grading as gr
from gradedprime import grfilter as gfl
from gradedprime import leavitt as lv
from gradedprime.cli import main
from gradedprime.errors import SpecError
from gradedprime.groups import cyclic

import oracle
from corpus import (
    all_candidate_filters,
    corpus_rings,
    graded_corpus,
    ideals_of,
    named_graphs,
    small_graph_classes,
    z_graded_corpus,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def finish(number, name, budget, started, ok, detail):
    elapsed = time.time() - started
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} ({detail}; {elapsed:.1f}s of {budget}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_01_prime_criteria_agree():
    started = time.time()
    checked = 0
    ok = True
    for name, ring in corpus_rings():
        for ideal in ideals_of(ring, fr.all_ideals(ring)):
            if not ideal.is_proper:
                continue
            a = fr.is_prime_ideal(ring, ideal)
            b = oracle.prime_element_criterion(ring, ideal)
            c = oracle.is_prime_ideal_by_pairs(ring, ideal)
            ok = ok and a == b == c
            checked += 1
    finish(1, "prime criteria agreement", 30, started, ok, f"{checked} proper ideals")


def test_02_ordered_grading_transfers_primeness():
    started = time.time()
    rings = ideals = 0
    ok = True
    for name, graded in z_graded_corpus():
        ring = graded.ring
        if ring.order > 1:
            ok = ok and fr.is_prime_ring(ring) == gr.is_graded_prime_ring(graded)
            rings += 1
        for ideal in ideals_of(ring, gr.all_graded_ideals(graded)):
            if ideal.is_proper:
                ok = ok and fr.is_prime_ideal(ring, ideal) == gr.is_graded_prime_ideal(
                    graded, ideal
                )
                ideals += 1
    finish(
        2,
        "integer gradings transfer primeness",
        30,
        started,
        ok,
        f"{rings} rings, {ideals} graded ideals",
    )


def test_03_generation_and_invariance():
    started = time.time()
    generated = lifted = projected = 0
    ok = True
    for name, graded in graded_corpus():
        ring = graded.ring
        hom = list(fr.bits(graded.homogeneous_mask))
        for a in hom:
            for b in hom:
                ideal = fr.generate_ideal(ring, [a, b])
                ok = ok and gr.is_graded_ideal(graded, ideal)
                generated += 1
        for j in oracle.base_ideals(graded):
            lift = fr.generate_ideal(ring, fr.bits(j))
            ok = ok and co.is_g_invariant(graded, j) == (lift.members & graded.e_mask == j)
            lifted += 1
        for m in gr.all_graded_ideals(graded):
            ok = ok and co.is_g_invariant(graded, m & graded.e_mask)
            projected += 1
    finish(
        3,
        "homogeneous generation and invariance",
        60,
        started,
        ok,
        f"{generated} generations, {lifted} lifts, {projected} projections",
    )


def test_04_correspondence_reports_all_pass():
    started = time.time()
    unconditional = conditional = 0
    ok = True
    for name, graded in graded_corpus():
        report = co.verify_bijection_identity_generated(graded)
        ok = ok and all(c.passed for c in report.checks)
        unconditional += 1
        if gr.classify_grading(graded).ideally_symmetrically:
            report = co.verify_bijection_ideally_symmetric(graded)
            ok = ok and all(c.passed for c in report.checks)
            conditional += 1
    finish(
        4,
        "correspondence reports",
        60,
        started,
        ok,
        f"{unconditional} identity-generated, {conditional} ideally symmetric",
    )


def test_05_classifier_chain():
    started = time.time()
    ok = True
    seen = set()
    for name, graded in graded_corpus():
        c = gr.classify_grading(graded)
        flags = (
            c.strongly,
            c.symmetrically,
            c.ideally_symmetrically,
            c.nearly_epsilon_strongly,
        )
        seen.add(flags)
        ok = ok and (not c.nearly_epsilon_strongly or c.ideally_symmetrically)
        ok = ok and (not c.ideally_symmetrically or c.symmetrically)
        if c.strongly and graded.ring.unit is not None:
            ok = ok and c.nearly_epsilon_strongly
    # the corpus realizes both ends of the chain and a strict middle:
    # symmetric without ideal symmetry (so the second implication is strict)
    ok = ok and (True, True, True, True) in seen
    ok = ok and (False, False, False, False) in seen
    ok = ok and any(s[1] and not s[2] for s in seen)
    finish(5, "classifier implication chain", 30, started, ok, f"{len(seen)} flag patterns")


def test_06_base_primeness_transfer():
    started = time.time()
    members = 0
    ok = True
    for name, graded in z_graded_corpus():
        if graded.ring.order == 1 or graded.e_mask == graded.ring.zero_mask:
            continue
        if not gr.classify_grading(graded).ideally_symmetrically:
            continue
        ok = ok and fr.is_prime_ring(graded.ring) == co.is_g_prime_base(graded)
        members += 1
    finish(
        6,
        "primeness transfers to the identity component",
        30,
        started,
        ok,
        f"{members} ideally symmetric members",
    )


def test_07_path_ring_primeness():
    started = time.time()
    coeffs = [ring for _, ring in corpus_rings() if ring.unit is not None]
    verdicts = 0
    ok = True
    for name, g in named_graphs():
        mt3 = lv.satisfies_mt3(g).holds
        for ring in coeffs:
            ok = ok and lv.is_leavitt_prime(g, ring) == (fr.is_prime_ring(ring) and mt3)
            verdicts += 1
    gf2 = coeffs[0]
    graphs = small_graph_classes()
    violating_pairs = sink_pairs = 0
    for g in graphs:
        reach = lv.reachability(g)
        down = {v: {w for (x, w) in reach if x == v} for v in g.vertices}
        violating = [
            (u, v) for u in g.vertices for v in g.vertices if not (down[u] & down[v])
        ]
        result = lv.satisfies_mt3(g)
        ok = ok and result.holds == (not violating)
        if result.holds:
            for (u, v), w in result.sinks.items():
                ok = ok and (u, w) in reach and (v, w) in reach
                sink_pairs += 1
        else:
            ok = ok and result.violation in violating
            for u, v in violating:
                ok = ok and lv.verify_corner_orthogonality(g, gf2, u, v)
                violating_pairs += 1
    finish(
        7,
        "path ring primeness",
        120,
        started,
        ok,
        f"{verdicts} verdicts, {len(graphs)} graphs, "
        f"{violating_pairs} orthogonal pairs, {sink_pairs} verified sinks",
    )


def test_08_path_algebra_engine():
    started = time.time()
    gf2 = fr.gf(2)
    contractions = resolutions = monomials = products = 0
    ok = True
    for name, g in named_graphs():
        ctx = lv.LeavittContext(g, gf2)
        for e in g.edges:
            for f in g.edges:
                got = ctx.ghost(e.name) * ctx.edge(f.name)
                expected = ctx.vertex(e.dst) if e.name == f.name else ctx.zero()
                ok = ok and got == expected
                contractions += 1
        for v in g.vertices:
            if g.out_edges[v]:
                acc = ctx.zero()
                for f in g.out_edges[v]:
                    acc = acc + ctx.edge(f) * ctx.ghost(f)
                ok = ok and acc == ctx.vertex(v)
                resolutions += 1
        keys = lv.normal_form_monomials(ctx, 3)
        elems = [ctx.monomial(gf2.unit, a, b, vertex=v) for a, b, v in keys]
        for key, elem in zip(keys, elems):
            ok = ok and elem.terms == {key: gf2.unit}
        ok = ok and len(set(elems)) == len(keys)
        monomials += len(keys)
        for x in elems:
            for y in elems:
                p = x * y
                if p:
                    ok = ok and p.degree() == x.degree() + y.degree()
                products += 1
    finish(
        8,
        "path algebra engine soundness",
        60,
        started,
        ok,
        f"{contractions} contractions, {resolutions} vertex resolutions, "
        f"{monomials} basis monomials, {products} graded products",
    )


def test_09_filter_classifiers():
    started = time.time()
    gf2 = fr.gf(2)
    p22 = fr.product(gf2, gf2)
    candidates = valid = 0
    ok = True
    for ring, group in ((p22, cyclic(2)), (p22, cyclic(3)), (gf2, cyclic(2))):
        for filt in all_candidate_filters(ring, group):
            candidates += 1
            is_valid = gfl.validate_filter(filt)
            try:
                built = gfl.assemble_filter_ring(filt)
                assembled = True
            except SpecError:
                assembled = False
            ok = ok and is_valid == assembled
            if not is_valid:
                continue
            valid += 1
            c = gfl.classify_filter(filt)
            cg = gr.classify_grading(built)
            ok = ok and c.symmetric == cg.symmetrically
            ok = ok and c.ideally_symmetric == cg.ideally_symmetrically
            ok = ok and c.nearly_eps == cg.nearly_epsilon_strongly
            if c.R_fully_idempotent:
                ok = ok and c.symmetric == c.inverse_equal == c.ideally_symmetric
    idempotent_checked = 0
    for name, ring in corpus_rings():
        lattice = ideals_of(ring, fr.all_ideals(ring))
        squares = all(fr.ideal_product(i, i) == i for i in lattice)
        pairwise = all(
            fr.ideal_product(a, b).members == a.members & b.members
            for a in lattice
            for b in lattice
        )
        ok = ok and squares == pairwise == fr.is_fully_idempotent(ring)
        idempotent_checked += 1
    finish(
        9,
        "filter-level and ring-level classifiers agree",
        120,
        started,
        ok,
        f"{candidates} candidate filters ({valid} valid), "
        f"{idempotent_checked} idempotency cross-checks",
    )


def test_10_witness_search_over_group_rings():
    started = time.time()
    trials_per_ring = 100
    found = 0
    ok = True
    for ring in (fr.gf(2), fr.gf(4), fr.mat(fr.gf(2), 2)):
        filt = gfl.make_z_filter(ring, gfl.ZRule("subgroup", 1))
        rng = random.Random(42)
        for _ in range(trials_per_ring):
            a = gfl.random_element(filt, rng)
            b = gfl.random_element(filt, rng)
            witness = gfl.witness_search(ring, a, b)
            ok = ok and witness is not None
            if witness is not None and witness.degree is not None:
                s = oracle.term(filt, witness.degree, witness.coeff)
                ea, eb = oracle.FilterElement(filt, a), oracle.FilterElement(filt, b)
                ok = ok and bool((ea * s) * eb)
            found += 1
    finish(
        10,
        "witness search over prime coefficient group rings",
        60,
        started,
        ok,
        f"{found} seeded pairs",
    )


# The commands of criterion 11; the golden file of each pins its mode, and
# tests/test_cli.py pins the other mode of each.
CLI_COMMANDS = [
    ["ideals", str(DATA / "tri2.ring")],
    ["ideals", str(DATA / "prod22.ring"), "--porcelain"],
    ["prime", str(DATA / "gf2.ring")],
    ["prime", str(DATA / "zmod4.ring"), "--ideal", "[2]"],
    ["prime", str(DATA / "even8.ring")],
    ["classify", str(DATA / "tri2_std.graded")],
    ["classify", str(DATA / "tri3_std.graded")],
    ["classify", str(DATA / "mat2_z.graded"), "--porcelain"],
    ["graded-prime", str(DATA / "grpalg_c2.graded")],
    ["correspondence", str(DATA / "grpalg_c2.graded")],
    ["correspondence", str(DATA / "tri2_std.graded"), "--porcelain"],
    ["leavitt", str(DATA / "two_isolated.graph"), "--coeff", str(DATA / "gf2.ring"),
     "--orthogonality-depth", "4"],
    ["leavitt", str(DATA / "two_cycles.graph"), "--coeff", str(DATA / "mat2.ring")],
    ["filter", str(DATA / "c3_prod.filter")],
    ["filter", str(DATA / "c2_row.filter"), "--porcelain"],
    ["filter", str(DATA / "z_full_mat2.filter"), "--witness", "--trials", "25", "--seed", "7"],
    ["filter", str(DATA / "z_half_tri2.filter")],
]


def test_11_cli_determinism(capsys):
    started = time.time()
    ok = True
    for k, argv in enumerate(CLI_COMMANDS):
        outputs = []
        for _ in range(2):
            status = main(argv)
            captured = capsys.readouterr()
            outputs.append((status, captured.out.encode(), captured.err.encode()))
            ok = ok and status == 0
        ok = ok and outputs[0] == outputs[1]
        golden = GOLDEN / f"{k:02d}_{argv[0]}_{Path(argv[1]).stem}.out"
        ok = ok and outputs[0][1] == golden.read_bytes()
    elapsed_ok = ok
    with capsys.disabled():
        finish(11, "cli determinism", 60, started, elapsed_ok, f"{len(CLI_COMMANDS)} commands x2")

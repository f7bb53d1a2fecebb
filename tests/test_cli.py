"""Command-line surface: golden outputs, porcelain mode, error paths."""

import contextlib
import io
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedprime
from gradedprime import cli
from gradedprime import grading as gr
from gradedprime import grfilter as gfl
from gradedprime import specio
from gradedprime.cli import MAX_TRIALS, main
from gradedprime.groups import check_group_table, read_table

from test_acceptance import CLI_COMMANDS
from test_spec_reader import mutated_line_file

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
# child processes import the package from this checkout, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(gradedprime.__file__).resolve().parent.parent)}


def run_cli(capsys, *argv):
    status = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def f2_zero_multiplication(k: int = 8) -> str:
    """A tables{} spec of F_2^k with zero multiplication: every additive
    subgroup is an ideal, 29,212 of them for k = 7 and 417,199 for k = 8."""
    n = 2**k

    def rows(op):
        return "[" + ",".join("[" + ",".join(str(op(a, b)) for b in range(n)) + "]" for a in range(n)) + "]"

    return f"tables{{order={n}; add={rows(lambda a, b: a ^ b)}; mul={rows(lambda a, b: 0)}}}"


def f2_zero_multiplication_graded(group: str, components: dict, k: int = 8) -> str:
    """The ring of f2_zero_multiplication(k) with a grading by group."""
    lines = [f"ring: {f2_zero_multiplication(k)}", f"group: {group}"]
    lines += [f"component {x}: {list(members)}" for x, members in components.items()]
    return "\n".join(lines) + "\n"


LONG = "a" * 5000
BIG = "9" * 4000


def cyclic_tables(n: int) -> str:
    """A tables{} spec of the order-n ring with the cyclic addition and
    every product zero."""
    add = ",".join("[" + ",".join(str((i + j) % n) for j in range(n)) + "]" for i in range(n))
    mul = ",".join("[" + ",".join("0" * n) + "]" for _ in range(n))
    return f"tables{{order={n}; add=[{add}]; mul=[{mul}]}}"


def z16sq_one_wrong_product() -> str:
    """A tables{} spec of Z/16 x Z/16 under a random relabelling, with the
    product of two nonzero elements outside the validator's additive
    generating set changed."""
    n = 256
    perm = list(range(n))
    random.Random(16).shuffle(perm)
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for c in range(n):
        a1, b1 = divmod(c, 16)
        for d in range(n):
            a2, b2 = divmod(d, 16)
            add[perm[c]][perm[d]] = perm[16 * ((a1 + a2) % 16) + (b1 + b2) % 16]
            mul[perm[c]][perm[d]] = perm[16 * (a1 * a2 % 16) + b1 * b2 % 16]
    zero, _, gens = check_group_table(read_table(add), ("", "", ""))
    x, y = [v for v in range(n) if v != zero and v not in gens][:2]
    mul[x][y] = add[mul[x][y]][x]

    def rows(table):
        return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in table) + "]"

    return f"tables{{order={n}; add={rows(add)}; mul={rows(mul)}}}"


class TestVerdicts:
    def test_prime_field(self, capsys):
        status, out, _ = run_cli(capsys, "prime", DATA / "gf2.ring")
        assert status == 0
        assert out == "prime: YES\n"

    def test_prime_with_ideal(self, capsys):
        status, out, _ = run_cli(capsys, "prime", DATA / "zmod4.ring", "--ideal", "[2]")
        assert status == 0
        assert out.splitlines() == ["ideal members: [0, 2]", "prime: YES"]

    def test_ideals_listing(self, capsys):
        status, out, _ = run_cli(capsys, "ideals", DATA / "prod22.ring")
        assert status == 0
        assert out.splitlines() == [
            "ring order: 4",
            "ideals: 4",
            "ideal 0: [(0,0)]",
            "ideal 1: [(0,0), (0,1)]",
            "ideal 2: [(0,0), (1,0)]",
            "ideal 3: [(0,0), (0,1), (1,0), (1,1)]",
        ]

    def test_classify_triangular(self, capsys):
        status, out, _ = run_cli(capsys, "classify", DATA / "tri2_std.graded")
        assert status == 0
        assert out == "strongly: NO, symmetrically: NO, ideally: NO, nearly-eps: NO\n"

    def test_classify_group_algebra(self, capsys):
        _, out, _ = run_cli(capsys, "classify", DATA / "grpalg_c2.graded")
        assert out == "strongly: YES, symmetrically: YES, ideally: YES, nearly-eps: YES\n"

    def test_graded_prime(self, capsys):
        _, out, _ = run_cli(capsys, "graded-prime", DATA / "tri2_std.graded")
        assert out == "graded prime: NO\n"
        _, out, _ = run_cli(capsys, "graded-prime", DATA / "grpalg_c2.graded")
        assert out == "graded prime: YES\n"

    def test_leavitt_failing_pair(self, capsys):
        status, out, _ = run_cli(
            capsys,
            "leavitt",
            DATA / "two_isolated.graph",
            "--coeff",
            DATA / "gf2.ring",
            "--orthogonality-depth",
            "4",
        )
        assert status == 0
        assert out.splitlines() == [
            "coeff prime: YES",
            "MT-3: FAIL (v,w); prime: NO",
            "orthogonality depth 4 (v,w): PASS",
        ]

    def test_leavitt_passing_graph(self, capsys):
        _, out, _ = run_cli(capsys, "leavitt", DATA / "loop.graph", "--coeff", DATA / "gf2.ring")
        assert out.splitlines() == [
            "coeff prime: YES",
            "MT-3: PASS; prime: YES",
            "sink v,v: v",
        ]

    def test_correspondence_skips_when_hypothesis_fails(self, capsys):
        _, out, _ = run_cli(capsys, "correspondence", DATA / "tri2_std.graded")
        assert "report identity-generated:" in out
        assert "SKIPPED" in out
        assert "FAIL" not in out

    def test_correspondence_full(self, capsys):
        _, out, _ = run_cli(capsys, "correspondence", DATA / "grpalg_c2.graded")
        assert out.count("PASS") == 14
        assert "FAIL" not in out

    def test_filter_classify(self, capsys):
        _, out, _ = run_cli(capsys, "filter", DATA / "c2_row.filter")
        assert out.splitlines() == [
            "valid filter: YES",
            "symmetric: YES",
            "inverse-equal: YES",
            "ideally-symmetric: NO",
            "nearly-eps: NO",
            "coeff idempotent: YES",
            "coeff fully idempotent: NO",
        ]

    def test_filter_witness_trials(self, capsys):
        status, out, _ = run_cli(
            capsys,
            "filter",
            DATA / "z_full_mat2.filter",
            "--witness",
            "--trials",
            "5",
            "--seed",
            "3",
        )
        assert status == 0
        assert out.splitlines()[-1] == "witness failures: 0"
        assert sum(1 for line in out.splitlines() if line.startswith("trial ")) == 5


class TestPorcelain:
    def test_prime(self, capsys):
        _, out, _ = run_cli(capsys, "prime", DATA / "prod22.ring", "--porcelain")
        assert out == "prime=no\n"

    def test_classify(self, capsys):
        _, out, _ = run_cli(capsys, "classify", DATA / "mat2_z.graded", "--porcelain")
        assert out.splitlines() == [
            "strongly=no",
            "symmetrically=yes",
            "ideally=yes",
            "nearly_eps=yes",
        ]

    def test_leavitt(self, capsys):
        _, out, _ = run_cli(
            capsys, "leavitt", DATA / "two_isolated.graph", "--coeff", DATA / "gf2.ring", "--porcelain"
        )
        assert out.splitlines() == [
            "coeff_prime=yes",
            "mt3=fail",
            "mt3_pair=v,w",
            "prime=no",
        ]

    def test_filter(self, capsys):
        _, out, _ = run_cli(capsys, "filter", DATA / "z_half_tri2.filter", "--porcelain")
        assert out.splitlines() == [
            "valid=yes",
            "symmetric=yes",
            "inverse_equal=yes",
            "ideally_symmetric=undecided",
            "nearly_eps=no",
            "coeff_idempotent=yes",
            "coeff_fully_idempotent=no",
        ]


class TestErrors:
    def test_missing_file(self, capsys):
        status, out, err = run_cli(capsys, "prime", DATA / "no_such.ring")
        assert status == 2
        assert out == ""
        assert "error:" in err

    def test_malformed_spec(self, capsys, tmp_path):
        bad = tmp_path / "bad.ring"
        bad.write_text("gf(6)")
        status, _, err = run_cli(capsys, "prime", bad)
        assert status == 2
        assert "prime power" in err

    def test_witness_needs_integer_grading(self, capsys):
        status, _, err = run_cli(capsys, "filter", DATA / "c3_prod.filter", "--witness")
        assert status == 2
        assert "integer" in err

    @pytest.mark.parametrize(
        "command,text",
        [
            ("prime", "grpalg(gf(2), tables{order=[1]; op=[[0]]})"),
            ("prime", "tables{order=2; add=[[0,1],[1,99999]]; mul=[[0,0],[0,0]]}"),
            ("classify", "ring: gf(3)\nring: gf(2)\ngroup: Z\ncomponent 0: [0, 1]"),
            ("filter", "ring: gf(2)\ngroup: cyclic(2)\nI 1 = [1]\nI 1 = [0]"),
            ("prime", z16sq_one_wrong_product()),
            ("classify", "ring: gf(2)\ngroup: sym(8)\ncomponent 0: [0, 1]\n"),
            ("prime", "mat(gf(2), 200)"),
            ("prime", "mat(gf(2), 1000)"),
            ("prime", "tri(gf(2), 300)"),
            ("ideals", f2_zero_multiplication()),
            ("prime", "mat(zmod(1), 600)"),
            ("prime", "tri(zmod(1), 800)"),
            ("prime", "mat(zmod(1), 1000000000)"),
        ],
        ids=[
            "group_order_list",
            "entry_out_of_range",
            "repeated_ring",
            "repeated_I",
            "z16sq_one_wrong_product",
            "sym8_over_the_group_cap",
            "mat200_order_too_long_to_print",
            "mat1000",
            "tri300",
            "f2_8_zero_mult_over_the_ideal_cap",
            "mat600_over_order_1",
            "tri800_over_order_1",
            "mat1e9_over_order_1",
        ],
    )
    def test_bad_input_is_a_one_line_error(self, capsys, tmp_path, command, text):
        spec = tmp_path / "spec"
        spec.write_text(text)
        start = time.perf_counter()
        status, out, err = run_cli(capsys, command, spec)
        assert time.perf_counter() - start < 1.0
        assert status == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,text",
        [
            ("prime", f"subring(zmod(4), [0, {LONG}])"),
            ("classify", f"rign: {cyclic_tables(256)}\ngroup: Z\ncomponent 0: [0]\n"),
            ("prime", f"{LONG}(2)"),
            ("classify", f"ring: gf(2)\ngroup: {LONG}(2)\ncomponent 0: [0, 1]\n"),
            ("filter", f"ring: gf(2)\ngroup: Z\npattern {LONG} 1\n"),
            ("classify", f"ring: gf(2)\ngroup: Z\ncomponent {BIG}: [0, 1]\ncomponent {BIG}: [0, 1]\n"),
            ("prime", f"tables{{order=1; {LONG}=[0]; {LONG}=[0]}}"),
            ("classify", f"ring: gf(2)\ngroup: cyclic(2)\ncomponent {BIG}: [0, 1]\n"),
        ],
        ids=["subring_list", "misspelled_ring_key", "ring_constructor", "group_constructor", "pattern",
             "component_twice", "table_field_twice", "degree_index"],
    )
    def test_an_echoed_input_is_cut_to_200_characters(self, capsys, tmp_path, command, text):
        spec = tmp_path / "spec"
        spec.write_text(text)
        status, out, err = run_cli(capsys, command, spec)
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.endswith("...\n") and err.count("\n") == 1
        assert len(err) == len("error: ") + 200 + len("...\n")

    @pytest.mark.parametrize("length,err", [
        (173, f"error: unknown ring constructor '{'a' * 173}'\n"),  # 200 characters: whole
        (174, f"error: unknown ring constructor '{'a' * 174}...\n"),  # 201: cut before the quote
    ])
    def test_a_message_of_200_characters_is_whole(self, capsys, tmp_path, length, err):
        spec = tmp_path / "spec"
        spec.write_text(f"{'a' * length}(2)")
        assert run_cli(capsys, "prime", spec) == (2, "", err)

    def test_graded_lattice_within_the_cap_gets_a_verdict(self, capsys, tmp_path):
        # 417,199 ideals, but only the 2^8 sums of the unit vectors' lines are graded
        spec = tmp_path / "f2_8_z.graded"
        spec.write_text(f2_zero_multiplication_graded("Z", {k + 1: [0, 1 << k] for k in range(8)}))
        assert run_cli(capsys, "graded-prime", spec) == (0, "graded prime: NO\n", "")
        assert len(gr.all_graded_ideals(specio.parse_graded_file(spec.read_text()))) == 256

    def test_graded_lattice_over_the_cap_is_refused_early(self, capsys, tmp_path):
        # correspondence lists the 417,199 ideals of the identity component
        spec = tmp_path / "f2_8_trivial.graded"
        spec.write_text(f2_zero_multiplication_graded("cyclic(2)", {0: range(256)}))
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "correspondence", spec)
        assert time.perf_counter() - start < 1.0
        assert (status, out, err) == (2, "", "error: ideal lattice exceeds cap 65536\n")

    def test_graded_prime_enumerates_no_lattice(self, capsys, tmp_path):
        # graded primeness is decided on the principal ideals of homogeneous elements
        spec = tmp_path / "f2_8_trivial.graded"
        spec.write_text(f2_zero_multiplication_graded("cyclic(2)", {0: range(256)}))
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "graded-prime", spec)
        assert time.perf_counter() - start < 1.0
        assert (status, out, err) == (0, "graded prime: NO\n", "")

    @pytest.mark.parametrize("k", [7, 8])
    def test_classify_enumerates_no_lattice(self, capsys, tmp_path, k):
        # F_2^8 has more ideals than the cap, all of them graded
        spec = tmp_path / f"f2_{k}_trivial.graded"
        spec.write_text(f2_zero_multiplication_graded("cyclic(2)", {0: range(2**k)}, k))
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "classify", spec)
        assert time.perf_counter() - start < 1.0
        assert (status, out, err) == (0, "strongly: NO, symmetrically: NO, ideally: NO, nearly-eps: NO\n", "")

    def test_filter_over_a_large_group_enumerates_no_families(self, capsys, tmp_path):
        # the canonical grading of a unital group algebra is strong
        spec = tmp_path / "gf2_c20.filter"
        spec.write_text("ring: gf(2)\ngroup: cyclic(20)\n" + "".join(f"I {x} = [1]\n" for x in range(1, 20)))
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "filter", spec)
        assert time.perf_counter() - start < 2.0
        assert (status, err) == (0, "")
        assert out.splitlines() == [
            "valid filter: YES",
            "symmetric: YES",
            "inverse-equal: YES",
            "ideally-symmetric: YES",
            "nearly-eps: YES",
            "coeff idempotent: YES",
            "coeff fully idempotent: YES",
        ]

    def test_filter_checks_each_distinct_value_once(self, capsys, tmp_path):
        # 256 group elements, one distinct ideal value and one product of values
        spec = tmp_path / "gf256_c256.filter"
        spec.write_text("ring: gf(256)\ngroup: cyclic(256)\n" + "".join(f"I {x} = [1]\n" for x in range(1, 256)))
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "filter", spec)
        assert time.perf_counter() - start < 2.0
        assert (status, err) == (0, "")
        assert out.splitlines() == [
            "valid filter: YES",
            "symmetric: YES",
            "inverse-equal: YES",
            "ideally-symmetric: YES",
            "nearly-eps: YES",
            "coeff idempotent: YES",
            "coeff fully idempotent: YES",
        ]

    def test_order_1_matrix_ring_within_the_cap(self, capsys, tmp_path):
        spec = tmp_path / "mat_z1_2.ring"
        spec.write_text("mat(zmod(1), 2)")
        status, out, _ = run_cli(capsys, "ideals", spec)
        assert (status, out) == (0, "ring order: 1\nideals: 1\nideal 0: [[[0,0],[0,0]]]\n")

    @pytest.mark.parametrize(
        "text",
        [(DATA / "c3_prod.filter").read_text(), "ring: zmod(1)\ngroup: Z\npattern subgroup 1\n"],
        ids=["finite_group", "zero_ring"],
    )
    def test_zero_ring_witness_fails_fast(self, tmp_path, text):
        """Both filters are valid; the error after that verdict leaves stdout empty."""
        spec = tmp_path / "witness.filter"
        spec.write_text(text)
        result = subprocess.run(
            [sys.executable, "-m", "gradedprime", "filter", str(spec), "--witness"],
            capture_output=True,
            text=True,
            timeout=5,
            env=CHILD_ENV,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "pattern,err",
        [
            ("subgroup 0 [4]", "error: subgroup index must be positive\n"),
            ("subgroup -2 [4]", "error: subgroup index must be positive\n"),
            ("subgroup 0 [99]", "error: generator index out of range\n"),  # the generators are read first
        ],
        ids=["index_0", "index_minus_2", "generator_before_index"],
    )
    def test_a_subgroup_pattern_needs_a_positive_index(self, capsys, tmp_path, pattern, err):
        spec = tmp_path / "spec.filter"
        spec.write_text(f"ring: tri(gf(2), 2)\ngroup: Z\npattern {pattern}\n")
        assert run_cli(capsys, "filter", spec) == (2, "", err)

    def test_an_assignment_off_the_group_is_refused(self, capsys, tmp_path):
        spec = tmp_path / "spec.filter"
        spec.write_text("ring: gf(2)\ngroup: cyclic(2)\nI 1 = [1]\nI 5 = [1]\n")
        assert run_cli(capsys, "filter", spec) == (2, "", "error: assignment must cover every group element\n")

    def test_a_component_off_the_group_is_refused(self, capsys, tmp_path):
        spec = tmp_path / "spec.graded"
        spec.write_text("ring: gf(2)\ngroup: cyclic(2)\ncomponent 0: [0, 1]\ncomponent 2: [0]\n")
        assert run_cli(capsys, "classify", spec) == (2, "", "error: 2 is not a group element index\n")

    def test_an_override_equal_to_the_pattern_gets_the_verdict_of_the_pattern(self, capsys, tmp_path):
        spec = tmp_path / "spec.filter"
        plain = "ring: gf(2)\ngroup: Z\npattern subgroup 1\n"
        spec.write_text(plain)
        want = run_cli(capsys, "filter", spec)
        spec.write_text(plain + "override 100 = [1]\n")
        assert run_cli(capsys, "filter", spec) == want and want[0] == 0

    def test_an_override_can_break_a_constant_pattern(self, capsys, tmp_path):
        spec = tmp_path / "spec.filter"
        spec.write_text("ring: tri(gf(2), 2)\ngroup: Z\npattern constant [4]\noverride 3 = [1]\n")
        assert run_cli(capsys, "filter", spec) == (0, "valid filter: NO\n", "")

    def test_cap_flags_are_honoured(self, capsys):
        status, _, err = run_cli(capsys, "ideals", DATA / "tri2.ring", "--max-ring-order", "4")
        assert status == 2
        assert "cap" in err

    def test_group_cap_flag_is_honoured(self, capsys):
        status, out, err = run_cli(capsys, "classify", DATA / "grpalg_c2.graded", "--max-group-order", "1")
        assert status == 2
        assert out == ""
        assert err == "error: group order 2 exceeds cap 1\n"
        status, _, _ = run_cli(capsys, "classify", DATA / "grpalg_c2.graded", "--max-group-order", "2")
        assert status == 0

    def test_the_ideal_cap_bounds_the_invariant_lattice_not_the_identity_component(self, capsys):
        # M_2(F_2) graded by diagonal offset: S_e = F_2 x F_2 has 4 ideals, 2 of
        # them invariant, and there are 2 graded ideals
        spec = DATA / "mat2_z.graded"
        status, full, _ = run_cli(capsys, "correspondence", spec)
        assert status == 0 and full.count(": PASS") == 14
        assert run_cli(capsys, "correspondence", spec, "--max-ideals", "2") == (0, full, "")
        assert run_cli(capsys, "correspondence", spec, "--max-ideals", "1") == (
            2, "", "error: ideal lattice exceeds cap 1\n"
        )

    def test_ideal_cap_below_the_lattice_is_a_one_line_error(self, capsys, tmp_path):
        spec = tmp_path / "prod2x5.ring"
        spec.write_text("product(" + ", ".join(["gf(2)"] * 5) + ")\n")
        status, out, _ = run_cli(capsys, "ideals", spec, "--max-ideals", "32")
        assert status == 0
        assert "ideals: 32" in out.splitlines()
        status, out, err = run_cli(capsys, "ideals", spec, "--max-ideals", "31")
        assert status == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


PROD2X8 = "product(" + ", ".join(["gf(2)"] * 8) + ")"


@pytest.fixture
def cold_caches():
    """Empty the library's per-ring caches, so that a timed call pays for
    every lattice and family it reads."""
    from workcount import clear_caches

    clear_caches()


class TestWallTime:
    """Commands whose work is bounded by the generating family of principal
    ideals, not by the whole lattice or by its pairs; the bytes are pinned."""

    @pytest.mark.parametrize(
        "command,text,golden,budget",
        [
            ("filter", f"ring: {PROD2X8}\ngroup: cyclic(2)\nI 1 = [1]\n", "filter_prod2x8_c2.out", 0.8),
            (
                "correspondence",
                f"ring: {PROD2X8}\ngroup: cyclic(2)\ncomponent 0: {list(range(256))}\n",
                "correspondence_prod2x8_trivial.out",
                1.2,
            ),
            (
                "correspondence",
                f2_zero_multiplication_graded("cyclic(2)", {0: range(64)}, 6),
                "correspondence_zero_mult_f2_6_trivial.out",
                1.5,
            ),
        ],
        ids=["filter_prod2x8_c2", "correspondence_prod2x8_trivial", "correspondence_f2_6_trivial"],
    )
    def test_within_budget(self, capsys, tmp_path, cold_caches, command, text, golden, budget):
        spec = tmp_path / "spec"
        spec.write_text(text)
        start = time.perf_counter()
        status, out, err = run_cli(capsys, command, spec)
        assert time.perf_counter() - start < budget
        assert (status, err) == (0, "")
        assert out.encode() == (GOLDEN / golden).read_bytes()


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestOrthogonalityMemory:
    """Two 4-petal roses have (4^(d+1) - 1) / 3 paths from each vertex up to
    depth d (22 M at depth 12); the scan lists none of them."""

    @pytest.mark.parametrize("depth", [12, 40])
    def test_roses_within_a_gigabyte_and_a_second(self, tmp_path, depth):
        roses = tmp_path / "roses.graph"
        roses.write_text("vertex v\nvertex w\n" + "".join(
            f"edge {x}{k}: {y} -> {y}\n" for x, y in (("a", "v"), ("b", "w")) for k in range(1, 5)))
        argv = ["leavitt", str(roses), "--coeff", str(DATA / "gf2.ring"), "--orthogonality-depth", str(depth)]
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "gradedprime", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=limit_address_space,
            env=CHILD_ENV,
        )
        elapsed = time.perf_counter() - start
        assert (result.returncode, result.stderr) == (0, "")
        assert f"orthogonality depth {depth} (v,w): PASS" in result.stdout.splitlines()
        assert elapsed < 1.0


class TestOrthogonalityWithoutTheEngine:
    @pytest.mark.parametrize("graph", sorted(p.name for p in DATA.glob("*.graph")))
    @pytest.mark.parametrize("porcelain", [[], ["--porcelain"]], ids=["human", "porcelain"])
    def test_no_call_enters_the_leavitt_engine(self, capsys, monkeypatch, graph, porcelain):
        """The same bytes with the engine's context and elements made to raise."""
        from gradedprime import leavitt as lv

        argv = ["leavitt", DATA / graph, "--coeff", DATA / "gf2.ring", "--orthogonality-depth", "4", *porcelain]
        expected = run_cli(capsys, *argv)

        def engine(*args, **kwargs):
            raise AssertionError("the Leavitt engine was entered")

        monkeypatch.setattr(lv, "LeavittContext", engine)
        monkeypatch.setattr(lv, "LpaElement", engine)
        assert run_cli(capsys, *argv) == expected
        assert expected[0] == 0


def chain_graph(n: int) -> str:
    """The graph v0 -> v1 -> ... -> v(n-1): every pair of vertices has a
    common sink, so leavitt lists n² sink lines."""
    return "".join(f"vertex v{k}\n" for k in range(n)) + "".join(f"edge e{k}: v{k} -> v{k + 1}\n" for k in range(n - 1))


class TestGraphCap:
    def test_a_graph_over_the_cap_is_refused_at_once(self, capsys, tmp_path):
        graph = tmp_path / "chain.graph"
        graph.write_text(chain_graph(specio.MAX_VERTICES + 1))
        start = time.perf_counter()
        result = run_cli(capsys, "leavitt", graph, "--coeff", DATA / "gf2.ring")
        assert time.perf_counter() - start < 1.0
        assert result == (2, "", "error: graph of 257 vertices exceeds cap 256\n")

    def test_a_graph_at_the_cap_still_answers(self, capsys, tmp_path):
        graph = tmp_path / "chain.graph"
        graph.write_text(chain_graph(specio.MAX_VERTICES))
        status, out, err = run_cli(capsys, "leavitt", graph, "--coeff", DATA / "gf2.ring")
        assert (status, err) == (0, "")
        lines = out.splitlines()
        assert lines[:2] == ["coeff prime: YES", "MT-3: PASS; prime: YES"]
        assert len(lines) == 2 + 256**2 and "sink v0,v255: v255" in lines


CAP_REFUSAL = f"error: input file exceeds cap of {cli.MAX_INPUT} characters\n"


@pytest.fixture(scope="module")
def relabelled_z16sq(tmp_path_factory):
    """The bench's seed-0 relabelled Z/16 x Z/16, written by perfbench/workloads.py."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    directory = tmp_path_factory.mktemp("bench_inputs")
    workloads.write_inputs(directory, 0)
    return directory / workloads.RELABELLED


SINKS_V_W = "coeff prime: YES\nMT-3: PASS; prime: YES\nsink v,v: v\nsink v,w: w\nsink w,v: w\nsink w,w: w\n"


class TestInputCap:
    """An input file is read up to cli.MAX_INPUT characters: a longer one is
    refused before the rest is read, and one within the cap is judged on
    its content alone."""

    @pytest.mark.parametrize(
        "kind,text",
        [
            ("comment_lines", "# a comment line\n" * 1_200_000 + "gf(2)\n"),
            ("parallel_edges", "vertex v\nvertex w\n" + "".join(f"edge e{k}: v -> w\n" for k in range(300_000))),
            ("vertices", "".join(f"vertex v{k}\n" for k in range(100_000))),
        ],
        ids=["comment_lines", "parallel_edges", "vertices"],
    )
    def test_an_oversized_file_is_refused_at_once(self, capsys, tmp_path, kind, text):
        path = tmp_path / "big"
        path.write_text(text)
        assert len(text) > cli.MAX_INPUT
        if kind == "comment_lines":
            argvs = [("prime", path), ("leavitt", DATA / "loop.graph", "--coeff", path)]
        else:
            argvs = [("leavitt", path, "--coeff", DATA / "gf2.ring")]
        for argv in argvs:
            start = time.perf_counter()
            result = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            assert result == (2, "", CAP_REFUSAL)

    def test_a_file_of_exactly_the_cap_is_judged_on_its_content(self, capsys, tmp_path):
        path = tmp_path / "padded.ring"
        path.write_text("gf(2)\n#" + "x" * (cli.MAX_INPUT - 7))
        assert path.stat().st_size == cli.MAX_INPUT
        assert run_cli(capsys, "prime", path) == (0, "prime: YES\n", "")
        path.write_text("gf(2)\n#" + "x" * (cli.MAX_INPUT - 6))
        assert run_cli(capsys, "prime", path) == (2, "", CAP_REFUSAL)

    def test_the_cap_counts_characters_not_bytes(self, capsys, tmp_path):
        path = tmp_path / "wide.ring"
        path.write_text("gf(2)\n#" + "\u00e9" * (cli.MAX_INPUT - 7), encoding="utf-8")
        assert path.stat().st_size > cli.MAX_INPUT
        assert run_cli(capsys, "prime", path) == (0, "prime: YES\n", "")

    @pytest.mark.parametrize(
        "head,line,lines,code,out,err,budget",
        [
            ("", "vertex v{}\n", 75_691, 2, "", "error: graph of 257 vertices exceeds cap 256\n", 1.0),
            ("vertex v\nvertex w\n", "edge e{}: v -> w\n", 52_983, 0, SINKS_V_W, "", 5.0),
        ],
        ids=["vertices", "parallel_edges"],
    )
    def test_the_largest_graphs_within_the_cap(self, tmp_path, head, line, lines, code, out, err, budget):
        """As many lines as fit in cli.MAX_INPUT characters, through the
        command line within a gigabyte of address space: the vertices are
        refused at the 257th, and the parallel edges answer."""
        text = head + "".join(line.format(k) for k in range(lines))
        assert len(text) <= cli.MAX_INPUT < len(text) + len(line.format(lines))
        path = tmp_path / "big.graph"
        path.write_text(text)
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "gradedprime", "leavitt", str(path), "--coeff", str(DATA / "gf2.ring")],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=limit_address_space,
            env=CHILD_ENV,
        )
        assert time.perf_counter() - start < budget
        assert (result.returncode, result.stdout, result.stderr) == (code, out, err)

    def test_the_largest_legitimate_inputs_still_answer(self, capsys, tmp_path, relabelled_z16sq):
        assert 400_000 < relabelled_z16sq.stat().st_size < cli.MAX_INPUT
        assert run_cli(capsys, "prime", relabelled_z16sq) == (0, "prime: NO\n", "")
        f2_8 = tmp_path / "f2_8.ring"
        f2_8.write_text(f2_zero_multiplication(8))
        assert run_cli(capsys, "prime", f2_8) == (0, "prime: NO\n", "")


class TestRefusals:
    """Inputs refused with one line on stderr and nothing on stdout."""

    @pytest.mark.parametrize(
        "command,text,flags,message",
        [
            ("prime", "zmod(4)", ["--ideal", "[-1]"], "generator index out of range"),
            (
                "graded-prime",
                "ring: tri(gf(2), 2)\ngroup: Z\ncomponent 0: [0, 1, 4, 5]\ncomponent 1: [-1]\n",
                [],
                "component contains out-of-range elements",
            ),
            ("filter", "ring: product(gf(2), gf(2))\ngroup: cyclic(2)\nI 1 = [-1]\n", [], "generator index out of range"),
            ("filter", "ring: gf(2)\ngroup: Z\npattern constant [-2]\n", [], "generator index out of range"),
        ],
        ids=["prime_ideal", "graded_component", "filter_I", "filter_pattern_constant"],
    )
    def test_a_negative_element_index_is_out_of_range(self, capsys, tmp_path, command, text, flags, message):
        spec = tmp_path / "spec"
        spec.write_text(text)
        assert run_cli(capsys, command, spec, *flags) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command,text,flags,message",
        [
            ("prime", "zmod(4)", ["--ideal", f"[0, {'9' * 300}]"], "generator index out of range"),
            (
                "graded-prime",
                f"ring: tri(gf(2), 2)\ngroup: Z\ncomponent 0: [0, 1, 4, 5]\ncomponent 1: [0, {'9' * 300}]\n",
                [],
                "component contains out-of-range elements",
            ),
            ("filter", f"ring: product(gf(2), gf(2))\ngroup: cyclic(2)\nI 1 = [{'9' * 300}]\n", [],
             "generator index out of range"),
            ("filter", f"ring: gf(2)\ngroup: Z\npattern constant [{'9' * 300}]\n", [], "generator index out of range"),
        ],
        ids=["prime_ideal", "graded_component", "filter_I", "filter_pattern_constant"],
    )
    def test_an_element_index_of_300_digits_is_out_of_range(self, capsys, tmp_path, command, text, flags, message):
        """Not an OverflowError from shifting a bit that far."""
        spec = tmp_path / "spec"
        spec.write_text(text)
        assert run_cli(capsys, command, spec, *flags) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command,text",
        [
            ("prime", f"gf({'9' * 4301})"),
            ("classify", f"ring: gf(2)\ngroup: Z\ncomponent {'9' * 4301}: [0, 1]\n"),
            ("prime", f"subring(zmod(4), [0, {'9' * 4301}])"),
            ("prime", f"tables{{order=1; add=[[{'9' * 4301}]]; mul=[[0]]}}"),
        ],
        ids=["ring_argument", "degree_line", "element_list", "tables_list"],
    )
    def test_an_integer_over_the_digit_limit(self, capsys, tmp_path, command, text):
        """A spec error of one short line, not int()'s text or the literal."""
        spec = tmp_path / "spec"
        spec.write_text(text)
        status, out, err = run_cli(capsys, command, spec)
        assert (status, out) == (2, "")
        assert err == "error: an integer of 4301 digits is too long\n" and len(err.encode()) < 200

    @pytest.mark.parametrize("graph", ["two_isolated", "two_cycles", "loop", "converge"])
    @pytest.mark.parametrize("depth", [[], ["--orthogonality-depth", "3"]], ids=["plain", "depth3"])
    @pytest.mark.parametrize("porcelain", [[], ["--porcelain"]], ids=["human", "porcelain"])
    def test_leavitt_refuses_a_nonunital_coefficient_ring_before_any_verdict(
        self, capsys, graph, depth, porcelain
    ):
        argv = ["leavitt", DATA / f"{graph}.graph", "--coeff", DATA / "zero_mult.ring", *depth, *porcelain]
        assert run_cli(capsys, *argv) == (2, "", "error: coefficient ring must be unital\n")

    def test_leavitt_errors_keep_their_order(self, capsys, tmp_path):
        empty, zero = tmp_path / "empty.graph", tmp_path / "zero.ring"
        empty.write_text("")
        zero.write_text("zmod(1)")
        nonunital = DATA / "zero_mult.ring"
        assert run_cli(capsys, "leavitt", empty, "--coeff", nonunital) == (2, "", "error: empty graph\n")
        assert run_cli(capsys, "leavitt", DATA / "loop.graph", "--coeff", zero) == (
            2, "", "error: coefficient ring must be nonzero\n"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["leavitt", DATA / "two_isolated.graph", "--coeff", DATA / "gf2.ring", "--orthogonality-depth", "-1"],
             "--orthogonality-depth must not be negative"),
            (["filter", DATA / "z_full_gf2.filter", "--witness", "--trials", "-3"],
             f"--trials must be between 0 and {MAX_TRIALS}"),
            (["filter", DATA / "z_full_gf2.filter", "--witness", "--trials", MAX_TRIALS + 1],
             f"--trials must be between 0 and {MAX_TRIALS}"),
        ],
        ids=["negative_depth", "negative_trials", "trials_over_the_cap"],
    )
    def test_an_out_of_range_count(self, capsys, monkeypatch, argv, message):
        """Refused before any trial runs."""

        def no_trial(*args, **kwargs):
            raise AssertionError("a witness trial ran")

        monkeypatch.setattr(gfl, "random_element", no_trial)
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "spec",
        [
            "tables{order=2; add=[[0,1],[1,[0]]]; mul=[[0,0],[0,0]]}",
            "tables{order=2; add=[[0,1],[1,0]]; mul=[[0,0],[[0],0]]}",
            "grpalg(gf(2), tables{order=2; op=[[0,1],[1,[0]]]})",
            "tables{order=2; add=[0,1,1,[0]]; mul=[0,0,0,0]}",
        ],
        ids=["add", "mul", "op", "flat_add"],
    )
    def test_a_list_entry_in_a_table(self, capsys, tmp_path, spec):
        """Refused by the table reader; the shape check reads no entry."""
        ring = tmp_path / "list_entry.ring"
        ring.write_text(spec)
        assert run_cli(capsys, "prime", ring) == (2, "", "error: table entries must be element indices\n")

    @pytest.mark.parametrize(
        "spec,what",
        [
            ("tables{order=2; add=[[0,1],[1,0,0]]; mul=[[0,0],[0,0]]}", "add"),
            ("tables{order=2; add=[[0,1],[1,0]]; mul=[[0],[0,0]]}", "mul"),
            ("grpalg(gf(2), tables{order=2; op=[[0,1],[1]]})", "op"),
        ],
        ids=["add", "mul", "op"],
    )
    def test_a_row_of_the_wrong_length(self, capsys, tmp_path, spec, what):
        ring = tmp_path / "short_row.ring"
        ring.write_text(spec)
        assert run_cli(capsys, "prime", ring) == (2, "", f"error: {what} must be 2x2\n")

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("flag", ["--max-ring-order", "--max-ideals", "--max-group-order"])
    def test_a_cap_below_one(self, capsys, monkeypatch, flag, value):
        """Refused by name before any file is read."""

        def no_read(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "_read", no_read)
        assert run_cli(capsys, "prime", DATA / "gf2.ring", flag, value) == (2, "", f"error: {flag} must be at least 1\n")


    @pytest.mark.parametrize(
        "lines,degrees",
        [
            ("pattern subgroup 3000", 12005),
            ("pattern subgroup 1\noverride 3000 = [0]", 12011),
            ("pattern subgroup 99999999999999999999", 400000000000000000001),
            ("pattern subgroup 1\noverride 999999999999999999999 = [0]", 4000000000000000000007),
            ("pattern subgroup " + "9" * 4300, "over 2^14000"),
        ],
        ids=["period_3000", "override_at_3000", "period_1e20", "override_at_1e21", "period_of_4300_digits"],
    )
    def test_an_integer_filter_window_over_the_group_cap(self, capsys, tmp_path, lines, degrees):
        """The window of degrees the filter laws scan is refused before any
        list is built."""
        spec = tmp_path / "spec"
        spec.write_text(f"ring: gf(2)\ngroup: Z\n{lines}\n")
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "filter", spec)
        assert time.perf_counter() - start < 2.0
        assert (status, out, err) == (2, "", f"error: filter window of {degrees} degrees exceeds cap 256\n")

    def test_the_filter_window_cap_is_the_group_cap(self, capsys, tmp_path):
        """Period n gives a window of 4n + 5 degrees: 62 is the largest
        period within the default cap of 256."""
        spec = tmp_path / "spec"
        spec.write_text("ring: gf(2)\ngroup: Z\npattern subgroup 62\n")
        assert run_cli(capsys, "filter", spec, "--porcelain")[:2] == (0, "".join(
            f"{key}=yes\n" for key in ("valid", "symmetric", "inverse_equal", "ideally_symmetric",
                                       "nearly_eps", "coeff_idempotent", "coeff_fully_idempotent")))
        spec.write_text("ring: gf(2)\ngroup: Z\npattern subgroup 63\n")
        assert run_cli(capsys, "filter", spec) == (2, "", "error: filter window of 257 degrees exceeds cap 256\n")
        assert run_cli(capsys, "filter", spec, "--max-group-order", "257")[0] == 0


FILTER_RINGS = {"gf(2)": 2, "tri(gf(2), 2)": 8, "zmod(4)": 4}
HUGE = 10**30


@st.composite
def integer_filter_files(draw):
    """A filter file over Z: a pattern with a period up to 10^30 and up to
    three overrides at degrees up to 10^30 in absolute value."""
    ring = draw(st.sampled_from(sorted(FILTER_RINGS)))
    gens = st.lists(st.integers(0, FILTER_RINGS[ring] - 1), max_size=3).map(str)
    lines = [f"ring: {ring}", "group: Z"]
    if draw(st.booleans()):
        n = draw(st.integers(-1, 12) | st.integers(13, 80) | st.integers(1, HUGE))
        lines.append(f"pattern subgroup {n} {draw(gens) if draw(st.booleans()) else ''}")
    else:
        lines.append(f"pattern constant {draw(gens)}")
    for x in draw(st.lists(st.integers(-8, 8) | st.integers(-HUGE, HUGE), max_size=3, unique=True)):
        lines.append(f"override {x} = {draw(gens)}")
    return "\n".join(lines) + "\n"


class TestIntegerFilterFuzz:
    """Drawn integer filter files through cli.main: each call gives a
    verdict, or one error line and no stdout, within 2 s."""

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(integer_filter_files())
    def test_a_drawn_filter_ends_in_a_verdict_or_one_error_line(self, tmp_path_factory, text):
        spec = tmp_path_factory.getbasetemp() / "drawn.filter"
        spec.write_text(text)
        for flags in ([], ["--witness", "--trials", "3"]):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(["filter", str(spec), *flags])
            assert time.perf_counter() - start < 2.0, (text, flags)
            if status != 0:
                assert status == 2, (text, flags)
                assert out.getvalue() == "", (text, flags)
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (text, flags)


LINE_COMMANDS = {
    "graded": [["classify"], ["graded-prime"]],
    "filter": [["filter"]],
    "graph": [["leavitt", "--coeff", str(DATA / "gf2.ring")]],
}


class TestLineFileFuzz:
    """Mutated tests/data graded, filter and graph files through cli.main:
    each call gives a verdict, or one error line and no stdout, within 2 s."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.randoms(use_true_random=False))
    def test_a_mutated_file_ends_in_a_verdict_or_one_error_line(self, tmp_path_factory, rnd):
        kind, text = mutated_line_file(rnd)
        spec = tmp_path_factory.getbasetemp() / f"mutated.{kind}"
        spec.write_text(text, encoding="utf-8")
        for command, *flags in LINE_COMMANDS[kind]:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main([command, str(spec), *flags])
            assert time.perf_counter() - start < 2.0, (text, command)
            assert status in (0, 2), (text, command)
            if status == 2:
                assert out.getvalue() == "", (text, command)
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (text, command)
            assert "Traceback" not in err.getvalue(), (text, command)


SPEC_TOKEN = re.compile(r"\w+|\S")


def _spec_sites() -> list:
    """(command, head, spec text, tail): each tests/data ring file under
    prime, and each ring:, group: and component line of a tests/data graded
    file under classify, the file's other lines as they are."""
    sites = []
    for path in sorted(DATA.glob("*.ring")):
        spec = " ".join(line for line in path.read_text().splitlines() if not line.startswith("#"))
        sites.append(("prime", "", spec, ""))
    for path in sorted(DATA.glob("*.graded")):
        lines = path.read_text().splitlines(keepends=True)
        for i, line in enumerate(lines):
            key, _, spec = line.partition(":")
            if key in ("ring", "group") or key.startswith("component "):
                head, tail = "".join(lines[:i]) + key + ": ", "\n" + "".join(lines[i + 1:])
                sites.append(("classify", head, spec.strip(), tail))
    return sites


SPEC_SITES = _spec_sites()


@st.composite
def mutated_spec_files(draw):
    """(command, text): a spec text of SPEC_SITES with one token dropped,
    repeated, or replaced by a 300-character token or by a number below 16."""
    command, head, spec, tail = draw(st.sampled_from(SPEC_SITES))
    tokens = SPEC_TOKEN.findall(spec)
    i = draw(st.integers(0, len(tokens) - 1))
    edit = draw(st.sampled_from(["drop", "repeat", "replace", "renumber"]))
    if edit == "drop":
        del tokens[i]
    elif edit == "repeat":
        tokens.insert(i, tokens[i])
    elif edit == "replace":
        tokens[i] = draw(st.sampled_from("aZ9_")) * 300
    else:
        tokens[i] = str(draw(st.integers(0, 15)))
    return command, head + " ".join(tokens) + tail


class TestSpecTextFuzz:
    """Mutated ring and group spec texts through cli.main: exit 0 or 2, an
    empty stderr or one error line under 256 bytes, and the same stdout on a
    rerun."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(mutated_spec_files())
    def test_a_mutated_spec_ends_in_a_verdict_or_one_short_error_line(self, tmp_path_factory, drawn):
        command, text = drawn
        spec = tmp_path_factory.getbasetemp() / "mutated.spec"
        spec.write_text(text, encoding="utf-8")
        outs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main([command, str(spec), "--max-ring-order", "64"])
            err = err.getvalue()
            assert status in (0, 2), text
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1
                                 and len(err.encode()) < 256), (text, err)
            assert "Traceback" not in err, text
            outs.append(out.getvalue())
        assert outs[0] == outs[1], text


class TestGolden:
    """Graded commands on the zero-multiplication F_2^7, Z-graded by unit
    vectors: 128 graded ideals among 29,212 ideals."""

    @pytest.mark.parametrize("command", ["graded-prime", "correspondence"])
    @pytest.mark.parametrize("porcelain", [False, True], ids=["human", "porcelain"])
    def test_zero_mult_f2_7_z(self, capsys, command, porcelain):
        flags = ["--porcelain"] if porcelain else []
        status, out, err = run_cli(capsys, command, DATA / "zero_mult_f2_7_z.graded", *flags)
        golden = GOLDEN / f"{command}_zero_mult_f2_7_z{'.porcelain' if porcelain else ''}.out"
        assert (status, err) == (0, "")
        assert out.encode() == golden.read_bytes()


class TestPinnedBytes:
    """The help of the program and of each subcommand (at 80 columns) and
    witness transcripts, whose human form also pins grfilter.show's text."""

    @pytest.mark.parametrize(
        "command",
        [None, "ideals", "prime", "classify", "graded-prime", "correspondence", "leavitt", "filter"],
    )
    def test_help(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"] if command else ["--help"])
        assert stop.value.code == 0
        golden = GOLDEN / ("help.out" if command is None else f"help_{command}.out")
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("spec", ["z_half_tri2", "z_full_mat2"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("porcelain", [False, True], ids=["human", "porcelain"])
    def test_witness_transcript(self, capsys, spec, seed, porcelain):
        """--bound is read at no value: -4 gives the default's bytes."""
        flags = ["--porcelain"] if porcelain else []
        argv = ["filter", DATA / f"{spec}.filter", "--witness", "--trials", "300", "--seed", seed]
        golden = GOLDEN / f"witness_{spec}_seed{seed}{'.porcelain' if porcelain else ''}.out"
        for bound in ([], ["--bound", "-4"]):
            status, out, err = run_cli(capsys, *argv, *bound, *flags)
            assert (status, err) == (0, "")
            assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("graph", ["loop", "converge"])
    @pytest.mark.parametrize("porcelain", [False, True], ids=["human", "porcelain"])
    def test_leavitt_mt3_pass(self, capsys, graph, porcelain):
        """MT-3 PASS, with its sink lines."""
        flags = ["--porcelain"] if porcelain else []
        status, out, err = run_cli(capsys, "leavitt", DATA / f"{graph}.graph", "--coeff", DATA / "gf2.ring", *flags)
        golden = GOLDEN / f"leavitt_{graph}{'.porcelain' if porcelain else ''}.out"
        assert (status, err) == (0, "")
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("porcelain", [False, True], ids=["human", "porcelain"])
    def test_invalid_filter(self, capsys, tmp_path, porcelain):
        """A filter that is not valid: I_1 I_1 = I_1 lies outside I_2."""
        spec = tmp_path / "c3_invalid.filter"
        spec.write_text("ring: gf(2)\ngroup: cyclic(3)\nI 1 = [1]\nI 2 = []\n")
        status, out, err = run_cli(capsys, "filter", spec, *(["--porcelain"] if porcelain else []))
        golden = GOLDEN / f"filter_c3_invalid{'.porcelain' if porcelain else ''}.out"
        assert (status, err) == (0, "")
        assert out.encode() == golden.read_bytes()


    @pytest.mark.parametrize("k", range(len(CLI_COMMANDS)))
    def test_the_other_mode_of_the_acceptance_commands(self, capsys, k):
        """The acceptance commands' golden files pin one mode each; these
        pin the other: porcelain for a human command and the reverse."""
        argv = CLI_COMMANDS[k]
        porcelain = "--porcelain" in argv
        other = [a for a in argv if a != "--porcelain"] if porcelain else [*argv, "--porcelain"]
        status, out, err = run_cli(capsys, *other)
        golden = GOLDEN / f"{k:02d}_{argv[0]}_{Path(argv[1]).stem}.{'human' if porcelain else 'porcelain'}.out"
        assert (status, err) == (0, "")
        assert out.encode() == golden.read_bytes()


class TestDeterminism:
    COMMANDS = (
        ("ideals", "tri2.ring"),
        ("prime", "zmod4.ring", "--ideal", "[2]"),
        ("classify", "tri3_std.graded"),
        ("graded-prime", "mat2_z.graded"),
        ("correspondence", "grpalg_c2.graded"),
        ("leavitt", "two_cycles.graph", "--coeff", "gf2.ring"),
        ("filter", "c3_prod.filter"),
        ("filter", "z_full_gf2.filter", "--witness", "--trials", "10", "--seed", "17"),
    )

    def test_repeated_runs_are_byte_identical(self, capsys):
        for command in self.COMMANDS:
            argv = [command[0]] + [
                str(DATA / part) if "." in part else part for part in command[1:]
            ]
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first == second and first[0] == 0, command

    def test_runs_with_numpy_unimportable(self):
        guard = (
            "import runpy, sys; sys.modules['numpy'] = None; "
            "runpy.run_module('gradedprime', run_name='__main__', alter_sys=True)"
        )
        for command, spec, golden in (
            ("prime", "gf2.ring", "02_prime_gf2.out"),
            ("classify", "tri2_std.graded", "05_classify_tri2_std.out"),
        ):
            result = subprocess.run(
                [sys.executable, "-c", guard, command, str(DATA / spec)],
                capture_output=True,
                timeout=60,
                env=CHILD_ENV,
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout == (GOLDEN / golden).read_bytes()

    def test_subprocess_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "gradedprime", "prime", str(DATA / "gf2.ring")],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert result.returncode == 0
        assert result.stdout == "prime: YES\n"


class TestProcessExit:
    """``python -m gradedprime`` ends with ``os._exit`` once ``main`` has
    written and flushed its output: the bytes a child writes are the bytes
    ``main`` writes in-process, and a failed write is a one-line error."""

    @staticmethod
    def f2_power(tmp_path) -> Path:
        """F_2^8 as a product: ``ideals`` prints 127,649 bytes for it, more
        than a 64 KiB pipe buffer."""
        spec = tmp_path / "f2_8.ring"
        spec.write_text(f"product({', '.join(['gf(2)'] * 8)})")
        return spec

    @staticmethod
    def child(*argv, env=(), **kwargs) -> subprocess.CompletedProcess:
        """A child with buffered standard streams, so that output left
        unflushed at ``os._exit`` would be lost."""
        env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"} | dict(env)
        return subprocess.run(
            [sys.executable, "-m", "gradedprime", *map(str, argv)], env=env, timeout=60, **kwargs
        )

    @pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
    def test_output_is_complete(self, capsys, tmp_path, large):
        """A small output sits in the stream's buffer until the flush; a
        large one also fills the pipe before the reader drains it."""
        spec = self.f2_power(tmp_path) if large else DATA / "gf2.ring"
        status, out, err = run_cli(capsys, "ideals", spec)
        assert (status, err, len(out) > 65_536) == (0, "", large)
        result = self.child("ideals", spec, capture_output=True)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == out.encode()

    def test_error_is_one_stderr_line(self, tmp_path):
        result = self.child("ideals", tmp_path / "missing.ring", capture_output=True)
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.startswith(b"error:") and result.stderr.count(b"\n") == 1

    def test_help_leaves_the_normal_way(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        result = self.child("--help", capture_output=True, env={"COLUMNS": "80"})
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == capsys.readouterr().out.encode()

    @pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
    def test_closed_stdout_is_a_one_line_error(self, tmp_path, large):
        spec = self.f2_power(tmp_path) if large else DATA / "gf2.ring"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.child("ideals", spec, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (2, b"error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
    def test_the_console_script_ends_like_python_m(self, tmp_path, large):
        """The entry point that pyproject.toml names, called the way an
        installed console script calls it, gives the same one-line error on
        a closed stdout as ``python -m``: the interpreter's shutdown flush
        never gets to fail again."""
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as f:
            entry = tomllib.load(f)["project"]["scripts"]["gradedprime"]
        module, func = entry.split(":")
        spec = self.f2_power(tmp_path) if large else DATA / "gf2.ring"
        env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())",
                 "ideals", str(spec)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (2, b"error: [Errno 32] Broken pipe\n")


def argparse_reads(argv):
    """vars() of what argparse makes of argv, or None when it refuses argv
    or answers with help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None


def assert_read_as_argparse_reads(argv):
    """The plain reader gives None or argparse's namespace; it gives None
    wherever argparse refuses argv or answers with help."""
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == argparse_reads(argv), argv
    return plain


class TestPlainArgv:
    """The reader of the grammar table that main uses before argparse."""

    @pytest.mark.parametrize("argv", [list(command) for command in CLI_COMMANDS] + [
        ["prime", "r", "--porcelain", "--max-ring-order", "9", "--max-ideals", "8", "--max-group-order", "7"],
        ["prime", "--ideal", "[2]", "r"],
        ["prime", "r", "--ideal", "[1]", "--ideal", "[2]"],
        ["filter", "f", "--witness", "--witness", "--trials", "0", "--bound", "3", "--seed", "12"],
        ["leavitt", "g", "--orthogonality-depth", "2", "--coeff", "c"],
        ["prime", "prime"],
        ["prime", "a b"],
        ["prime", ""],
        ["filter", "f", "--trials", "\u0663"],  # a non-ASCII digit: int() reads it, as argparse does
        ["filter", "f", "--seed", " 5"],
    ])
    def test_reads_a_plain_argv(self, argv):
        assert assert_read_as_argparse_reads([str(a) for a in argv]) is not None

    @pytest.mark.parametrize("argv", [
        ["-h"],
        ["prime", "r", "-h"],
        ["filter", "f", "--help"],
        ["prime", "--", "r"],
        ["prime", "r", "--porc"],
        ["filter", "f", "--trials=5"],
        ["filter", "f", "--seed", "-3"],
        ["filter", "f", "--bound", "-4"],
        ["prime", "r", "--ideal"],
        ["prime", "r", "--ideal", "--porcelain"],
        ["filter", "f", "--classify"],
        ["filter", "f", "--classify", "--witness"],
        ["prime", "r", "s"],
        ["--porcelain", "prime", "r"],
        ["ideals", "r", "--max_ideals", "3"],
        ["prime", "-x y"],
        ["prime", "-3"],
        ["prime", "-"],
        ["prime"],
        [""],
        [],
        ["primes", "r"],
        ["leavitt", "g"],
        ["filter", "f", "--trials", "x"],
        ["filter", "f", "--trials", "1" * 5000],
        ["prime", "r", "--trials", "5"],
    ])
    def test_leaves_argparse_the_rest(self, argv):
        assert assert_read_as_argparse_reads(argv) is None

    def test_filter_takes_no_classify_switch(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["filter", str(DATA / "c2_row.filter"), "--classify"])
        assert stop.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --classify\n")

    WORDS = [
        *cli._COMMANDS, "r", "", "3", "-3", "0", "\u0663", "x y", "-x y", "[2]", "-", "--", "-h",
        "--help", "--porc", "--trials=5", "--max_ideals", "--coeff", "--ideal", "--porcelain",
        "--max-ring-order", "--max-ideals", "--max-group-order", "--orthogonality-depth",
        "--classify", "--witness", "--trials", "--bound", "--seed",
    ]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        st.sampled_from(list(cli._COMMANDS)) | st.sampled_from(WORDS),
        st.lists(st.sampled_from(WORDS) | st.text(max_size=3), max_size=7),
    )
    def test_agrees_with_argparse(self, first, rest):
        assert_read_as_argparse_reads([first, *rest])

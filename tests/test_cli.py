"""Command-line surface: golden outputs, porcelain mode, error paths."""

import subprocess
import sys
from pathlib import Path

import pytest

from gradedprime.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    status = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


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
        ],
        ids=["group_order_list", "entry_out_of_range", "repeated_ring", "repeated_I"],
    )
    def test_bad_input_is_a_one_line_error(self, capsys, tmp_path, command, text):
        spec = tmp_path / "spec"
        spec.write_text(text)
        status, out, err = run_cli(capsys, command, spec)
        assert status == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_ring_witness_fails_fast(self, tmp_path):
        spec = tmp_path / "zero.filter"
        spec.write_text("ring: zmod(1)\ngroup: Z\npattern subgroup 1\n")
        result = subprocess.run(
            [sys.executable, "-m", "gradedprime", "filter", str(spec), "--witness"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert result.returncode == 2
        assert result.stdout == "valid filter: YES\n"
        assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1

    def test_cap_flags_are_honoured(self, capsys):
        status, _, err = run_cli(capsys, "ideals", DATA / "tri2.ring", "--max-ring-order", "4")
        assert status == 2
        assert "cap" in err

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

    def test_subprocess_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "gradedprime", "prime", str(DATA / "gf2.ring")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "prime: YES\n"

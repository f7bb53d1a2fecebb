"""The benchmark's inputs, job lists and known answers.

Every input file is written by `write_inputs` from the seed; the program
under test sees only those files and each job's argv.  A job argv names an
input file as ``@name``; ``{seed}`` is replaced by the workload seed.

Each job carries the stdout lines its verdict must contain, each with the
theorem that gives it, so a wrong verdict is caught even where stdout is
not pinned byte for byte.  Jobs whose input does not depend on the seed are
also pinned to the stdout bytes in ``golden/`` (written by ``pin.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# --- fixed inputs -----------------------------------------------------------
# The first group mirrors the spec files of the repository's CLI acceptance
# test, so cli_small runs the same 17 commands on the same rings.

FIXED_FILES = {
    "tri2.ring": "tri(gf(2), 2)\n",
    "prod22.ring": "product(gf(2), gf(2))\n",
    "gf2.ring": "gf(2)\n",
    "zmod4.ring": "zmod(4)\n",
    "even8.ring": "# the even residues modulo 8\nsubring(zmod(8), [0, 2, 4, 6])\n",
    "mat2.ring": "mat(gf(2), 2)\n",
    "tri2_std.graded": "ring: tri(gf(2), 2)\ngroup: Z\ncomponent 0: [0, 1, 4, 5]\ncomponent 1: [0, 2]\n",
    "tri3_std.graded": (
        "ring: tri(gf(2), 3)\ngroup: Z\ncomponent 0: [0, 1, 4, 5, 32, 33, 36, 37]\n"
        "component 1: [0, 2, 16, 18]\ncomponent 2: [0, 8]\n"
    ),
    "mat2_z.graded": (
        "ring: mat(gf(2), 2)\ngroup: Z\ncomponent -1: [0, 2]\n"
        "component 0: [0, 1, 8, 9]\ncomponent 1: [0, 4]\n"
    ),
    "grpalg_c2.graded": (
        "ring: grpalg(gf(2), cyclic(2))\ngroup: cyclic(2)\n"
        "component 0: [0, 2]\ncomponent 1: [0, 1]\n"
    ),
    "two_isolated.graph": "vertex v\nvertex w\n",
    "two_cycles.graph": (
        "vertex a\nvertex b\nvertex c\nvertex d\n"
        "edge e1: a -> b\nedge e2: b -> a\nedge e3: c -> d\nedge e4: d -> c\n"
    ),
    "c3_prod.filter": "ring: product(gf(2), gf(2))\ngroup: cyclic(3)\nI 1 = [2]\nI 2 = [2]\n",
    "c2_row.filter": "ring: tri(gf(2), 2)\ngroup: cyclic(2)\nI 1 = [4]\n",
    "z_full_mat2.filter": "ring: mat(gf(2), 2)\ngroup: Z\npattern subgroup 1\n",
    "z_half_tri2.filter": "ring: tri(gf(2), 2)\ngroup: Z\npattern subgroup 2 [4]\n",
    # two disjoint roses with two petals each: no common sink, so MT-3 fails
    # and the corner orthogonality scan runs
    "roses.graph": (
        "vertex v\nvertex w\nedge a1: v -> v\nedge a2: v -> v\n"
        "edge b1: w -> w\nedge b2: w -> w\n"
    ),
    "gf256.ring": "gf(256)\n",
    "prod2x8.ring": "product(" + ", ".join(["gf(2)"] * 8) + ")\n",
    "zmod256.ring": "zmod(256)\n",
    "mat_gf4_2.ring": "mat(gf(4), 2)\n",
    "gf2_c200.graded": "ring: gf(2)\ngroup: cyclic(200)\ncomponent 0: [0, 1]\n",
    "gf4_s5.graded": "ring: gf(4)\ngroup: sym(5)\ncomponent 0: [0, 1, 2, 3]\n",
    "prod2x7.ring": "product(" + ", ".join(["gf(2)"] * 7) + ")\n",
    # element 32 is the unit vector of the first factor: I_1 = e_1 R
    "prod2x6_c2.filter": (
        "ring: product(" + ", ".join(["gf(2)"] * 6) + ")\ngroup: cyclic(2)\nI 1 = [32]\n"
    ),
    "gf128_z.graded": (
        "ring: gf(128)\ngroup: Z\ncomponent 0: ["
        + ", ".join(str(i) for i in range(128)) + "]\n"
    ),
    # entries row-major, last varying fastest: (0,0)=27, (0,1)=9, (1,0)=3, (1,1)=1
    "mat_gf3_2_z.graded": (
        "ring: mat(gf(3), 2)\ngroup: Z\ncomponent -1: [0, 3, 6]\n"
        "component 0: [0, 1, 2, 27, 28, 29, 54, 55, 56]\ncomponent 1: [0, 9, 18]\n"
    ),
    "mat_gf3_2.ring": "mat(gf(3), 2)\n",
    # sym(3) has 6 elements; the coefficient of group element g has weight 2^(5-g)
    "grpalg_gf2_s3.graded": (
        "ring: grpalg(gf(2), sym(3))\ngroup: sym(3)\n"
        + "".join(f"component {g}: [0, {1 << (5 - g)}]\n" for g in range(6))
    ),
}

RELABELLED = "z16sq_relabel.ring"
Z16SQ_ORDER = 256


def z16sq_permutation(seed: int) -> list[int]:
    """Label of each element (a, b) of Z/16 x Z/16, canonically 16a + b."""
    perm = list(range(Z16SQ_ORDER))
    random.Random(f"z16sq-{seed}").shuffle(perm)
    return perm


def z16sq_tables(seed: int) -> tuple[list[list[int]], list[list[int]]]:
    perm = z16sq_permutation(seed)
    n = Z16SQ_ORDER
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for c in range(n):
        a1, b1 = divmod(c, 16)
        for d in range(n):
            a2, b2 = divmod(d, 16)
            add[perm[c]][perm[d]] = perm[16 * ((a1 + a2) % 16) + (b1 + b2) % 16]
            mul[perm[c]][perm[d]] = perm[16 * ((a1 * a2) % 16) + (b1 * b2) % 16]
    return add, mul


def _table_text(rows: list[list[int]]) -> str:
    return "[" + ",\n ".join("[" + ",".join(map(str, r)) + "]" for r in rows) + "]"


def write_inputs(directory: Path, seed: int) -> None:
    """Write every input file for the given seed into directory."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in FIXED_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    add, mul = z16sq_tables(seed)
    text = (
        f"# Z/16 x Z/16 with its element labels permuted (seed {seed})\n"
        f"tables{{order={Z16SQ_ORDER};\nadd={_table_text(add)};\nmul={_table_text(mul)}}}\n"
    )
    (directory / RELABELLED).write_text(text, encoding="utf-8")


# --- jobs -------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    expect: tuple[tuple[str, str], ...]  # (stdout line, theorem that gives it)
    pinned: bool = True  # input is seed-independent, so stdout bytes are pinned

    def resolve(self, inputs: Path, seed: int) -> list[str]:
        out = []
        for a in self.argv:
            if a.startswith("@"):
                out.append(str(inputs / a[1:]))
            else:
                out.append(a.replace("{seed}", str(seed)))
        return out


FIELD_PRIME = "a field has no zero divisors, so it is a prime ring"
SIMPLE_PRIME = "M_n(F) is simple with a unit, so it has 2 ideals and is prime"
PRODUCT_NOT_PRIME = "in R x S the nonzero ideals R x 0 and 0 x S multiply to 0"
NILPOTENT = "a nonzero nilpotent ideal N (N^k = 0) keeps 0 from being prime"
CORR = "each correspondence check is a theorem, so every check passes"
TRIVIAL_FINITE = (
    "the trivial grading by a nontrivial finite group is not strong (R_g = 0 "
    "for g != e) but is symmetric, ideally symmetric and nearly epsilon-strong"
)
FULLY_IDEMPOTENT = "a product of fields is von Neumann regular, hence fully idempotent"
UNITAL_IDEMPOTENT = "a unital ring satisfies R R = R"
NOT_SYMMETRIC = (
    "R_-1 = 0 while R_1 != 0, so R_1 R_-1 R_1 = 0 != R_1: the grading is not "
    "symmetric, and the offset grading of a triangular ring is in none of the classes"
)

IG_CHECKS = ("lift_is_graded", "lift_is_identity_generated", "lift_then_restrict_is_identity",
             "restrict_then_lift_is_identity", "projection_is_invariant", "lift_image_matches",
             "inclusion_preserved")
IS_CHECKS = ("hypothesis_ideally_symmetric", "graded_ideal_recovered_from_base",
             "lift_onto_all_graded_ideals", "maps_mutually_inverse", "inclusion_preserved")
_PASS_IG = tuple((f"check.identity-generated.{c}=pass", CORR) for c in IG_CHECKS)
_PASS_ALL = _PASS_IG + tuple((f"check.ideally-symmetric.{c}=pass", CORR) for c in IS_CHECKS)

CLI_SMALL = (
    Job("ideals-tri2", ("ideals", "@tri2.ring"), (
        ("ideals: 5", "T_2(F) has exactly the ideals 0, F e12, F e12 + F e22, F e11 + F e12 and R"),)),
    Job("ideals-prod22", ("ideals", "@prod22.ring", "--porcelain"), (
        ("ideals=4", "a product of k fields has 2^k ideals (k = 2)"),)),
    Job("prime-gf2", ("prime", "@gf2.ring"), (("prime: YES", FIELD_PRIME),)),
    Job("prime-zmod4-ideal2", ("prime", "@zmod4.ring", "--ideal", "[2]"), (
        ("prime: YES", "2Z/4Z is maximal with quotient the field Z/2, so it is prime"),)),
    Job("prime-even8", ("prime", "@even8.ring"), (
        ("prime: NO", NILPOTENT + " (4 * 2Z/8Z = 0)"),)),
    Job("classify-tri2", ("classify", "@tri2_std.graded"), (
        ("strongly: NO, symmetrically: NO, ideally: NO, nearly-eps: NO", NOT_SYMMETRIC),)),
    Job("classify-tri3", ("classify", "@tri3_std.graded"), (
        ("strongly: NO, symmetrically: NO, ideally: NO, nearly-eps: NO", NOT_SYMMETRIC),)),
    Job("classify-mat2z", ("classify", "@mat2_z.graded", "--porcelain"), (
        ("strongly=no", "R_1 R_-1 = F e11 is not R_0 = F e11 + F e22"),
        ("symmetrically=yes", "R_x R_-x R_x = R_x for matrix units: e12 e21 e12 = e12"),)),
    Job("graded-prime-grpalg-c2", ("graded-prime", "@grpalg_c2.graded"), (
        ("graded prime: YES", "F[G] with its canonical grading is graded simple: nonzero "
                               "homogeneous elements are units"),)),
    Job("corr-grpalg-c2", ("correspondence", "@grpalg_c2.graded"), (
        ("  check lift_then_restrict_is_identity: PASS (2 invariant ideals)", CORR),
        ("  check restrict_then_lift_is_identity: PASS (2 identity-generated ideals)", CORR),
        ("  check inclusion_preserved: PASS (both directions)", CORR),
        ("  check hypothesis_ideally_symmetric: PASS",
         "the canonical grading of a group algebra is strong"),)),
    Job("corr-tri2", ("correspondence", "@tri2_std.graded", "--porcelain"), _PASS_IG + (
        ("check.ideally-symmetric.skipped=1",
         "the offset grading of T_2(F) is not ideally symmetric"),)),
    Job("leavitt-isolated", ("leavitt", "@two_isolated.graph", "--coeff", "@gf2.ring",
                             "--orthogonality-depth", "4"), (
        ("MT-3: FAIL (v,w); prime: NO", "two isolated vertices have no common successor (MT-3)"),
        ("orthogonality depth 4 (v,w): PASS", "corners at unconnected vertices annihilate"),)),
    Job("leavitt-two-cycles", ("leavitt", "@two_cycles.graph", "--coeff", "@mat2.ring"), (
        ("coeff prime: YES", SIMPLE_PRIME),
        ("MT-3: FAIL (a,c); prime: NO", "the two cycles reach no common vertex (MT-3)"),)),
    Job("filter-c3-prod", ("filter", "@c3_prod.filter"), (
        ("valid filter: YES", "I_1 = I_2 = F x 0 is an idempotent ideal, so I_x I_y lies in I_xy"),
        ("coeff fully idempotent: YES", FULLY_IDEMPOTENT),)),
    Job("filter-c2-row", ("filter", "@c2_row.filter", "--porcelain"), (
        ("valid=yes", "the row ideal I_1 of T_2 absorbs R on both sides, and I_1 I_1 lies in I_0 = R"),)),
    Job("filter-zfull-witness", ("filter", "@z_full_mat2.filter", "--witness", "--trials", "25",
                                 "--seed", "7"), (
        ("witness failures: 0", "M_2(F) is prime, so the top coefficients of a and b admit c "
                                "with a_top c b_top != 0: a degree-0 witness"),)),
    Job("filter-zhalf", ("filter", "@z_half_tri2.filter"), (
        ("valid filter: YES", "R I_x and I_x R lie in I_x for the row ideal of T_2"),)),
    Job("leavitt-roses-d12", ("leavitt", "@roses.graph", "--coeff", "@gf2.ring",
                              "--orthogonality-depth", "12"), (
        ("MT-3: FAIL (v,w); prime: NO", "disjoint roses reach no common vertex (MT-3)"),
        ("orthogonality depth 12 (v,w): PASS", "corners at unconnected vertices annihilate"),)),
    Job("filter-zhalf-witness", ("filter", "@z_half_tri2.filter", "--witness", "--trials", "5000",
                                 "--bound", "8", "--porcelain", "--seed", "{seed}"), (
        ("valid=yes", "R I_x and I_x R lie in I_x for the row ideal of T_2"),), pinned=False),
)

CONSTRUCT = (
    Job("prime-gf256", ("prime", "@gf256.ring"), (("prime: YES", FIELD_PRIME),)),
    Job("prime-prod2x8", ("prime", "@prod2x8.ring"), (("prime: NO", PRODUCT_NOT_PRIME),)),
    Job("prime-zmod256", ("prime", "@zmod256.ring"), (
        ("prime: NO", NILPOTENT + " (128 * 128 = 0 mod 256)"),)),
    Job("prime-mat-gf4-2", ("prime", "@mat_gf4_2.ring"), (("prime: YES", SIMPLE_PRIME),)),
    Job("prime-prod2x8-ideal1", ("prime", "@prod2x8.ring", "--ideal", "[1]"), (
        ("prime: NO", "R/(0 x ... x 0 x F) is a product of 7 fields, not a domain"),)),
    Job("prime-z16sq-relabel", ("prime", "@" + RELABELLED), (
        ("prime: NO", PRODUCT_NOT_PRIME + "; relabelling is an isomorphism"),), pinned=False),
    Job("classify-gf2-c200", ("classify", "@gf2_c200.graded", "--porcelain"), tuple(
        (line, TRIVIAL_FINITE)
        for line in ("strongly=no", "symmetrically=yes", "ideally=yes", "nearly_eps=yes"))),
    Job("classify-gf4-s5", ("classify", "@gf4_s5.graded", "--porcelain"), tuple(
        (line, TRIVIAL_FINITE)
        for line in ("strongly=no", "symmetrically=yes", "ideally=yes", "nearly_eps=yes"))),
)

LATTICE = (
    Job("ideals-prod2x7", ("ideals", "@prod2x7.ring", "--porcelain"), (
        ("order=128", "|F_2^7| = 2^7"),
        ("ideals=128", "a product of k fields has 2^k ideals (k = 7)"),)),
    Job("filter-prod2x6-c2", ("filter", "@prod2x6_c2.filter", "--porcelain"), (
        ("valid=yes", "e_1 R is an ideal, and I_1 I_1 lies in I_0 = R"),
        ("symmetric=yes", "I_1 = e_1 R is idempotent, so I_1 I_1 I_1 = I_1"),
        ("ideally_symmetric=yes", "over a fully idempotent ring symmetric filters are ideally symmetric"),
        ("coeff_idempotent=yes", UNITAL_IDEMPOTENT),
        ("coeff_fully_idempotent=yes", FULLY_IDEMPOTENT),)),
    Job("graded-prime-gf128", ("graded-prime", "@gf128_z.graded", "--porcelain"), (
        ("graded_prime=yes", "under the trivial grading every ideal is graded; " + FIELD_PRIME),)),
    Job("corr-mat-gf3-2", ("correspondence", "@mat_gf3_2_z.graded", "--porcelain"), _PASS_ALL),
    Job("ideals-mat-gf3-2", ("ideals", "@mat_gf3_2.ring", "--porcelain"), (
        ("order=81", "|M_2(F_3)| = 3^4"),
        ("ideals=2", SIMPLE_PRIME),)),
    Job("corr-grpalg-gf2-s3", ("correspondence", "@grpalg_gf2_s3.graded", "--porcelain"), _PASS_ALL),
)

WORKLOADS = {"cli_small": CLI_SMALL, "construct": CONSTRUCT, "lattice": LATTICE}

# Passes per measured run are sized from one pass at the parent commit on a
# 2-CPU Xeon (Python 3.11.7, numpy 2.4.6).  The pass count is fixed by
# --seconds rather than timed, so the sample count, and with it the tail
# percentile, is the same on every commit.
NOMINAL_PASS_S = {"cli_small": 6.4, "construct": 9.5, "lattice": 11.3}

# The warm-up child of set-up: imports the whole package, does almost no work.
WARMUP = Job("warmup", ("prime", "@gf2.ring"), (("prime: YES", FIELD_PRIME),), pinned=False)

"""``tests/mutants.py`` on a three-line module: the run of a one-line check
kills the one mutant a check can catch and skips the one on the equivalent
list, and an entry of that list whose line has moved is refused.  Under
pytest, a mutant that loops forever is killed by the per-test limit, long
before the whole run's timeout."""

import sys

import mutants

MODULE = """\
def is_positive(x):
    return x > 0
LIMIT = 0 if True else 0
"""
ENTRY = "# LIMIT is 0 either way\nsrc/small.py 3 True->False | LIMIT = 0 if True else 0\n"
TEST = "from small import is_positive; assert not is_positive(0) and is_positive(1)"


LOOP = """\
def count_down(n):
    while n != 0:
        n -= 1
    return n
"""
LOOP_TEST = "from small import count_down\n\n\ndef test_count_down():\n    assert count_down(3) == 0\n"


def run(checkout, module, capsys, command=(sys.executable, "-c", TEST), files=(("tests/equivalent_mutants.txt", ENTRY),)):
    """The harness's status, stdout lines and stderr on a checkout holding
    the module and the files, by default the one equivalent entry."""
    for path, text in (("src/small.py", module), *files):
        (checkout / path).parent.mkdir(exist_ok=True)
        (checkout / path).write_text(text)
    status = mutants.main(["src/small.py", "--checkout", str(checkout), "--", *command])
    out, err = capsys.readouterr()
    return status, out.splitlines(), err


def test_the_killable_mutant_is_killed_and_the_equivalent_one_skipped(tmp_path, capsys):
    status, lines, _ = run(tmp_path, MODULE, capsys)
    assert status == 0
    assert [line.rsplit(" ", 1)[0] for line in lines] == ["src/small.py 2 Gt->GtE killed"]


def test_an_entry_off_its_line_is_refused(tmp_path, capsys):
    status, lines, err = run(tmp_path, "\n" + MODULE, capsys)
    assert (status, lines) == (2, [])
    assert err == "error: src/small.py 3 True->False on the equivalent list no longer matches its line\n"


def test_a_looping_mutant_is_killed_by_the_per_test_limit(tmp_path, capsys, monkeypatch):
    """n += 1 never reaches 0: the mutant's one test is stopped at the
    limit, here a floor of 1 s, not at the run's timeout of a minute more."""
    monkeypatch.setattr(mutants, "LIMIT_FLOOR", 1.0)
    command = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests/test_small.py")
    status, lines, _ = run(tmp_path, LOOP, capsys, command, [("tests/test_small.py", LOOP_TEST)])
    assert status == 0
    assert [line.rsplit(" ", 1)[0] for line in lines] == ["src/small.py 2 NotEq->Eq killed", "src/small.py 3 AugSub->AugAdd killed"]
    assert float(lines[1].rsplit(" ", 1)[1]) < 20

"""``tests/mutants.py`` on a three-line module: the run of a one-line check
kills the one mutant a check can catch and skips the one on the equivalent
list, and an entry of that list whose line has moved is refused."""

import sys

import mutants

MODULE = """\
def is_positive(x):
    return x > 0
LIMIT = 0 if True else 0
"""
ENTRY = "# LIMIT is 0 either way\nsrc/small.py 3 True->False | LIMIT = 0 if True else 0\n"
TEST = "from small import is_positive; assert not is_positive(0) and is_positive(1)"


def run(checkout, module, capsys):
    """The harness's status, stdout lines and stderr on a checkout holding
    the module and the one equivalent entry."""
    for path, text in (("src/small.py", module), ("tests/equivalent_mutants.txt", ENTRY)):
        (checkout / path).parent.mkdir(exist_ok=True)
        (checkout / path).write_text(text)
    status = mutants.main(["src/small.py", "--checkout", str(checkout), "--", sys.executable, "-c", TEST])
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

"""``tests/mutants.py`` on a three-line module: the run of a one-line check
kills the one mutant a check can catch and skips the one on the equivalent
list, and an entry of that list whose line has moved is refused.  Under
pytest, a mutant that loops forever is killed by the per-test limit, long
before the whole run's timeout.  With tier-1 as the command, a mutant runs
the test files that import its module first and tier-1 only if it survives
them."""

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


def test_the_importers_of_a_module_are_the_test_files_that_name_it(tmp_path):
    files = {
        "tests/test_import.py": "import small\n",
        "tests/test_small.py": "import pkg.small\n",
        "tests/test_from.py": "from small import is_positive\n",
        "tests/test_package.py": "from pkg import small as s\n",
        "tests/test_other.py": "import smaller\nfrom helper import small\n",
        "tests/helper.py": "import small\n",
        "perfbench/tests/test_bench.py": "def f():\n    import small\n",
    }
    for path, text in files.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)
    assert mutants.importers(tmp_path, "src/small.py") == [
        "perfbench/tests/test_bench.py", "tests/test_from.py", "tests/test_import.py"]  # test_small: pkg.small
    assert mutants.importers(tmp_path, "src/pkg/small.py") == ["tests/test_small.py", "tests/test_package.py"]


def test_tier1_runs_only_for_a_survivor_of_the_importers(tmp_path, capsys, monkeypatch):
    """A stand-in for the test runs: the importing file checks 1 and -1, and
    tier-1 checks 0 and 5 too, against the unmutated module.  x > 0 to
    x >= 0 passes the importing file, and tier-1 kills it; the other two
    mutants fail the importing file, and tier-1 does not run for them."""
    module = "def is_positive(x):\n    return x > 0 and x != 5\n"
    original = {}
    exec(module, original)
    calls = []

    def fake_run(copy, command, timeout, limit=0.0):
        mutated = {}
        exec((copy / "src/small.py").read_text(), mutated)
        stage = command[len(mutants.TIER1):]
        calls.append(stage)
        checks = [1, -1] if stage else [0, 1, -1, 5]
        return all(mutated["is_positive"](x) == original["is_positive"](x) for x in checks), 1.0

    monkeypatch.setattr(mutants, "run", fake_run)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests/test_direct.py").write_text("from small import is_positive\n")
    (tmp_path / "tests/test_indirect.py").write_text("import helper\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src/small.py").write_text(module)
    assert mutants.main(["src/small.py", "--checkout", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "src/small.py 2 And->Or killed", "src/small.py 2 Gt->GtE killed", "src/small.py 2 NotEq->Eq killed"]
    direct, tier1 = ["tests/test_direct.py"], []
    assert calls == [direct, tier1, direct, direct, tier1, direct]  # the clean runs first


def test_the_file_that_killed_the_last_mutant_runs_first(tmp_path, capsys, monkeypatch):
    """test_a checks is_negative and test_b is_positive: x > 0 to x >= 0
    fails test_b, which then runs before test_a for x < 0 to x <= 0."""
    module = "def is_positive(x):\n    return x > 0\ndef is_negative(x):\n    return x < 0\n"
    tests = {
        "tests/test_a.py": "from small import is_negative\n\n\ndef test_a():\n    assert not is_negative(0)\n",
        "tests/test_b.py": "from small import is_positive\n\n\ndef test_b():\n    assert not is_positive(0)\n",
    }
    commands = []
    real_run = mutants.run

    def recording(copy, command, timeout, limit=0.0):
        commands.append(command[len(mutants.TIER1):])
        return real_run(copy, command, timeout, limit)

    monkeypatch.setattr(mutants, "run", recording)
    for path, text in {"src/small.py": module, **tests}.items():
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_text(text)
    assert mutants.main(["src/small.py", "--checkout", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == ["src/small.py 2 Gt->GtE killed", "src/small.py 4 Lt->LtE killed"]
    both, swapped = ["tests/test_a.py", "tests/test_b.py"], ["tests/test_b.py", "tests/test_a.py"]
    assert commands == [both, [], both, swapped]  # the two clean runs, then one run per mutant

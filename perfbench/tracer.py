"""Run one gradedprime CLI call with every public layer function timed.

    python tracer.py OUT.json CLI-ARG...

The program is not changed: after importing ``gradedprime.cli`` this script
wraps each module-level public function of the layer modules, rebinds the
wrapper in every ``gradedprime`` module that imported the function by
name, wraps ``LpaElement.__mul__``, and then calls ``cli.main``.  Spans are
kept in memory and written to OUT.json when the call returns.

Generator functions (such as ``finring.bits``) are left alone, since a
wrapper would time only the generator's creation; so are methods, whose
time falls to the calling function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "specio", "groups", "finring", "grading", "correspondence", "leavitt", "grfilter")
CACHED = ("finring.all_ideals", "finring.ideal_product")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.rows: list[list] = []  # [name index, start, end, parent row]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._seen_lattices: dict[int, int] = {}

    def wrap(self, name: str, fn, count=None):
        nid = len(self.names)
        self.names.append(name)
        rows, stack, clock = self.rows, self.stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            row = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(rows))
            rows.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if count is not None:
                count(self, result)
            return result

        return timed

    def add(self, key: str, k: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def lattice_seen(self, result) -> None:
        # all_ideals hands back the cached tuple on a hit; count each lattice once
        self._seen_lattices[id(result)] = len(result)
        self.counts["finring.all_ideals.ideals"] = sum(self._seen_lattices.values())


COUNTERS = {
    "specio.tokenize": lambda r, res: r.add("specio.tokenize.tokens", len(res)),
    "finring.make_ring": lambda r, res: r.add("finring.make_ring.cells", res.order ** 2),
    "finring.all_ideals": Recorder.lattice_seen,
    "leavitt.paths_up_to": lambda r, res: r.add("leavitt.paths", len(res)),
    "grfilter.witness_search": lambda r, res: r.add("grfilter.witness_search.found", res is not None),
}


def _wrappable(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    if hasattr(obj, "cache_info"):  # an lru_cache wrapper
        return True
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def install(rec: Recorder) -> None:
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = importlib.import_module(f"gradedprime.{layer}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and _wrappable(obj, mod.__name__):
                key = f"{layer}.{name}"
                wrappers[id(obj)] = (obj, rec.wrap(key, obj, COUNTERS.get(key)))
    for modname, mod in list(sys.modules.items()):
        if modname != "gradedprime" and not modname.startswith("gradedprime."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    lpa = importlib.import_module("gradedprime.leavitt").LpaElement
    lpa.__mul__ = rec.wrap("leavitt.LpaElement.__mul__", lpa.__mul__)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    cli = importlib.import_module("gradedprime.cli")
    import_s = time.perf_counter() - t0
    rec = Recorder()
    install(rec)
    try:
        status = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects bad argv this way
        status = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    finring = sys.modules["gradedprime.finring"]
    caches = {}
    for key in CACHED:
        info = getattr(finring, key.split(".")[1]).__wrapped__.cache_info()
        caches[key] = [info.hits, info.misses]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"import_s": import_s, "names": rec.names, "rows": rec.rows,
             "counts": rec.counts, "caches": caches},
            fh,
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

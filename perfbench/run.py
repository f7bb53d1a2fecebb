#!/usr/bin/env python3
"""Closed-loop CLI benchmark of gradedprime.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each job is a fresh
``python -m gradedprime ...`` child of that checkout's ``src``; one child
runs at a time and the next starts when the last is reaped, which is what
a CLI user pays and keeps the program's in-process caches cold for every
sample.  Jobs run in an order shuffled by the seed.

Set-up writes the inputs and runs one untimed warm-up child.  With
``--trace 0`` the run sets up ``SETUPS`` times (median reported as
``setup_s``), then makes a fixed number of passes over the job list, set by
``--seconds``, and reports the end-to-end metrics.  With ``--trace 1`` it
sets up once, makes one plain pass and one pass through ``tracer.py``, and
reports the per-layer metrics.

Every job is checked: a nonzero exit, a traceback on stderr, a missing
known verdict line or a changed pinned stdout byte counts as a failure.
The last line of stdout is one JSON object; a record of the run, with the
machine, is appended to ``_work/results.jsonl`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import stats
import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
GOLDEN = HERE / "golden"
SETUPS = 3
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # no further pass starts if it could end past this

LAYER_SELF = ("cli", "specio", "groups", "correspondence", "leavitt", "grfilter")
CONSTRUCTORS = (
    "gf", "zmod", "product", "mat", "tri", "grpalg", "subring", "induced_subring",
    "mat_positions", "tri_positions",
)
PRIME = ("is_m_system", "is_prime_ideal", "prime_element_criterion",
         "is_prime_ideal_by_pairs", "is_prime_ring")
GRADED_PRIME = ("is_graded_prime_ring", "is_graded_prime_ideal", "is_graded_m_system",
                "graded_prime_element_criterion")
FINRING_SELF = ("make_ring", "subgroup_closure", "generate_ideal", "all_ideals", "ideal_product",
                "is_ideal_mask", "set_product", "is_fully_idempotent")
FINRING_CALLS = ("make_ring", "subgroup_closure", "generate_ideal")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def spawn(cmd: list[str], out: Path, err: Path) -> tuple[float, int, int]:
    """Run one child; returns (wall seconds spawn to reap, peak RSS KiB, exit code)."""
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=fout, stderr=ferr,
                                cwd=ROOT, env=child_env())
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def check(job: wl.Job, code: int, stdout: bytes, stderr: bytes, golden: bytes | None) -> str | None:
    """Why the job failed, or None."""
    if code != 0:
        return f"exit status {code}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    lines = stdout.decode("utf-8", "replace").splitlines()
    for line, theorem in job.expect:
        if line not in lines:
            return f"missing {line!r} ({theorem})"
    if job.pinned:
        if golden is None:
            return "no pinned stdout"
        if stdout != golden:
            at = next((i for i, (a, b) in enumerate(zip(stdout, golden)) if a != b),
                      min(len(stdout), len(golden)))
            return f"stdout differs from the pinned bytes at offset {at}"
    return None


def golden_of(job: wl.Job) -> bytes | None:
    path = GOLDEN / f"{job.name}.out"
    return path.read_bytes() if path.exists() else None


def run_job(job: wl.Job, seed: int, trace_out: Path | None = None) -> dict:
    outdir = WORK / "out"
    argv = job.resolve(WORK / "inputs", seed)
    if trace_out is None:
        cmd = [sys.executable, "-m", "gradedprime", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_out), *argv]
    out, err = outdir / f"{job.name}.stdout", outdir / f"{job.name}.stderr"
    wall, rss_kib, code = spawn(cmd, out, err)
    failure = check(job, code, out.read_bytes(), err.read_bytes(), golden_of(job))
    return {"job": job.name, "wall_s": wall, "rss_mb": rss_kib / 1024, "failure": failure}


def set_up(seed: int) -> float:
    t0 = time.perf_counter()
    wl.write_inputs(WORK / "inputs", seed)
    (WORK / "out").mkdir(parents=True, exist_ok=True)
    sample = run_job(wl.WARMUP, seed)
    if sample["failure"]:
        err = (WORK / "out" / "warmup.stderr").read_text(errors="replace").strip()
        raise BenchError(f"warm-up child failed: {sample['failure']}\n{err[-2000:]}")
    return time.perf_counter() - t0


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy}


def passes_for(workload: str, seconds: int) -> int:
    return max(2, round(seconds / wl.NOMINAL_PASS_S[workload]))


def timed_passes(jobs, order_rng: random.Random, seed: int, passes: int) -> list[list[dict]]:
    started = time.perf_counter()
    out: list[list[dict]] = []
    for _ in range(passes):
        if len(out) >= 2:
            last_pass_s = sum(s["wall_s"] for s in out[-1])
            if time.perf_counter() - started + last_pass_s > RUN_LIMIT_S:
                break
        order = list(jobs)
        order_rng.shuffle(order)
        out.append([run_job(job, seed) for job in order])
    return out


def end_to_end(samples: list[list[dict]], setup_s: float) -> tuple[dict, dict]:
    walls = [s["wall_s"] for p in samples for s in p]
    value, pct, n = stats.tail(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(sum(s["wall_s"] for s in p) for p in samples), "s"),
        "verdict_ms_p50": (1000 * statistics.median(walls), "ms"),
        "verdict_ms_tail": (1000 * value, "ms"),
        "peak_rss_mb": (statistics.median(max(s["rss_mb"] for s in p) for p in samples), "MB"),
    }
    return metrics, {"tail_percentile": pct, "tail_samples": n, "passes": len(samples)}


def layer_metrics(plain: list[dict], traced: list[dict], traces: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, summed over its jobs.

    ``trace.kernel_frac`` is finring self time outside construction, and
    ``trace.construct_frac`` is make_ring, the constructors, groups and
    specio, each as a share of the traced pass's job time.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    caches = {key: [0, 0] for key in tracer.CACHED}
    for tr in traces:
        names = tr["names"]
        spans = [(names[n], t0, t1, parent) for n, t0, t1, parent in tr["rows"]]
        for name, t in stats.self_times(spans).items():
            self_s[name] = self_s.get(name, 0.0) + t
        for name, *_ in spans:
            calls[name] = calls.get(name, 0) + 1
        for key, k in tr["counts"].items():
            counts[key] = counts.get(key, 0) + k
        for key, (hits, misses) in tr["caches"].items():
            caches[key][0] += hits
            caches[key][1] += misses

    def self_of(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def layer(prefix: str) -> float:
        return sum(t for n, t in self_s.items() if n.startswith(prefix + "."))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    plain_s = sum(s["wall_s"] for s in plain)
    job_s = sum(s["wall_s"] for s in traced)
    import_s = statistics.median(tr["import_s"] for tr in traces)
    fin = {n: self_of(f"finring.{n}") for n in FINRING_SELF}
    constructors = self_of(*(f"finring.{n}" for n in CONSTRUCTORS))
    kernels = layer("finring") - fin["make_ring"] - constructors
    m: dict[str, tuple[float, str]] = {
        "cli.import_s": (import_s, "s"),
        "cli.import_frac": (ratio(import_s, statistics.median(s["wall_s"] for s in plain)), "ratio"),
        "specio.tokenize.tokens": (counts.get("specio.tokenize.tokens", 0), "count"),
        "groups.group_from_table.calls": (calls.get("groups.group_from_table", 0), "count"),
        "finring.make_ring.cells": (counts.get("finring.make_ring.cells", 0), "count"),
        "finring.constructors.self_s": (constructors, "s"),
        "finring.all_ideals.ideals": (counts.get("finring.all_ideals.ideals", 0), "count"),
        "finring.prime.self_s": (self_of(*(f"finring.{n}" for n in PRIME)), "s"),
        "grading.attach_grading.self_s": (self_of("grading.attach_grading"), "s"),
        "grading.classify_grading.self_s": (self_of("grading.classify_grading"), "s"),
        "grading.graded_prime.self_s": (self_of(*(f"grading.{n}" for n in GRADED_PRIME)), "s"),
        "grading.graded_prime_pair_test.self_s": (self_of("grading.graded_prime_pair_test"), "s"),
        "correspondence.is_g_invariant.calls": (calls.get("correspondence.is_g_invariant", 0), "count"),
        "leavitt.lpa_mul.calls": (calls.get("leavitt.LpaElement.__mul__", 0), "count"),
        "leavitt.paths": (counts.get("leavitt.paths", 0), "count"),
        "grfilter.assemble_filter_ring.self_s": (self_of("grfilter.assemble_filter_ring"), "s"),
        "grfilter.witness_search.calls": (calls.get("grfilter.witness_search", 0), "count"),
        "grfilter.witness_search.found_ratio": (
            ratio(counts.get("grfilter.witness_search.found", 0), calls.get("grfilter.witness_search", 0)),
            "ratio"),
        "trace.job_s": (job_s, "s"),
        "trace.overhead_frac": (ratio(job_s - plain_s, plain_s), "ratio"),
        "trace.kernel_frac": (ratio(kernels, job_s), "ratio"),
        "trace.construct_frac": (
            ratio(fin["make_ring"] + constructors + layer("groups") + layer("specio"), job_s), "ratio"),
    }
    for name in LAYER_SELF:
        m[f"{name}.self_s"] = (layer(name), "s")
    for name, t in fin.items():
        m[f"finring.{name}.self_s"] = (t, "s")
    for name in FINRING_CALLS:
        m[f"finring.{name}.calls"] = (calls.get(f"finring.{name}", 0), "count")
    for key, (hits, misses) in caches.items():
        m[f"{key}.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    return m


def traced_passes(jobs, order_rng: random.Random, seed: int) -> tuple[list[dict], list[dict], list[dict]]:
    order = list(jobs)
    order_rng.shuffle(order)
    plain = [run_job(job, seed) for job in order]
    tdir = WORK / "trace"
    tdir.mkdir(parents=True, exist_ok=True)
    traced, traces = [], []
    for job in order:
        path = tdir / f"{job.name}.json"
        path.unlink(missing_ok=True)
        sample = run_job(job, seed, trace_out=path)
        if path.exists():
            traces.append(json.loads(path.read_text(encoding="utf-8")))
        elif sample["failure"] is None:
            sample["failure"] = "no trace written"
        traced.append(sample)
    if not traces:
        raise BenchError("no traced child wrote a trace")
    return plain, traced, traces


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gradedprime" / "__init__.py").is_file():
        print(f"error: no gradedprime sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    jobs = wl.WORKLOADS[args.workload]
    order_rng = random.Random(f"{args.workload}-{args.seed}")
    try:
        setup_s = statistics.median(set_up(args.seed) for _ in range(1 if args.trace else SETUPS))
        if args.trace:
            plain, traced, traces = traced_passes(jobs, order_rng, args.seed)
            samples = [plain, traced]
            metrics = layer_metrics(plain, traced, traces)
            info = {}
        else:
            samples = timed_passes(jobs, order_rng, args.seed, passes_for(args.workload, args.seconds))
            metrics, info = end_to_end(samples, setup_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    flat = [s for p in samples for s in p]
    failures = [(s["job"], s["failure"]) for s in flat if s["failure"]]
    for job, why in failures:
        print(f"# FAILED {job}: {why}")
    info.update(failed_frac=len(failures) / len(flat), machine=machine())
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **info}))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "info": info,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(flat),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Pin the stdout bytes of every seed-independent job.

    python3 perfbench/pin.py

Runs each pinned job once on the current checkout and writes its stdout to
``golden/<job>.out``, after the same exit, stderr and known-verdict checks
the benchmark makes.  Re-pin only when a change to default output is
intended; the benchmark counts any other byte change as a failure.
"""

from __future__ import annotations

import dataclasses
import sys

import run
import workloads as wl


def main() -> int:
    run.set_up(0)
    run.GOLDEN.mkdir(exist_ok=True)
    for jobs in wl.WORKLOADS.values():
        for job in jobs:
            if not job.pinned:
                continue
            sample = run.run_job(dataclasses.replace(job, pinned=False), 0)
            if sample["failure"]:
                print(f"{job.name}: {sample['failure']}", file=sys.stderr)
                return 1
            out = (run.WORK / "out" / f"{job.name}.stdout").read_bytes()
            (run.GOLDEN / f"{job.name}.out").write_bytes(out)
            print(f"pinned {job.name} ({len(out)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

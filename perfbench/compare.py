#!/usr/bin/env python3
"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds run records as ``run.py`` appends them to
``_work/results.jsonl`` (copy that file aside to keep a set).  For every
workload and every end-to-end metric of ``BENCHMARK.json`` the verdict is
``worse`` or ``better`` when HEAD's median moved by more than the metric's
bound, ``within`` when it did not, and ``unresolved`` when either set's
interquartile spread is wider than the bound, unless every HEAD run reads
better than every BASE run.  Exits 1 if any verdict is worse or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import stats

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, over the untraced runs in the file."""
    out: dict[str, dict[str, list[float]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["trace"]:
            continue
        per = out.setdefault(rec["workload"], {})
        for name, value in rec["metrics"].items():
            per.setdefault(name, []).append(value)
    return out


def verdict(base: list[float], head: list[float], bound: float, better: str) -> tuple[str, float]:
    """(verdict, relative change of the median, positive meaning worse)."""
    sign = 1 if better == "lower" else -1
    mb = statistics.median(base)
    change = sign * (statistics.median(head) - mb) / mb
    if better == "lower":
        all_better = max(head) < min(base)
    else:
        all_better = min(head) > max(base)
    if max(stats.spread(base), stats.spread(head)) > bound:
        return ("better" if all_better else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within", change


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    base, head = load(argv[0]), load(argv[1])
    status = 0
    print(f"{'workload':<10} {'metric':<16} {'base':>10} {'head':>10} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(head)):
        for m in metrics:
            b = base[workload].get(m["name"])
            h = head[workload].get(m["name"])
            if not b or not h:
                continue
            v, change = verdict(b, h, m["bound"], m["better"])
            status |= v in ("worse", "unresolved")
            print(f"{workload:<10} {m['name']:<16} {statistics.median(b):>10.4g} "
                  f"{statistics.median(h):>10.4g} {change:>+8.1%} {m['bound']:>6.0%}  {v}"
                  f"  (runs {len(b)}/{len(h)})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

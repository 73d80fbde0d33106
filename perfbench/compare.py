#!/usr/bin/env python3
"""Compares two sets of perfbench runs, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each file is a run record from .bench_build/results/ or a saved last line of
run.py. Runs are grouped by workload (from the record's stamp, or --workload
for bare result lines). For every metric the medians of the two sides are
compared: an end-to-end metric whose new median is worse than the base
median by more than its bound in BENCHMARK.json is a regression; any other
difference beyond the bound is reported as a change. Per-layer metrics have
no bound and are reported when their medians differ at all. Exits 1 when a
regression was found.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def load(paths, workload):
    """{workload: {metric: [values]}} over the given run files."""
    out = defaultdict(lambda: defaultdict(list))
    for p in paths:
        text = Path(p).read_text().strip()
        try:
            rec = json.loads(text)
        except json.JSONDecodeError:
            rec = json.loads(text.splitlines()[-1])
        wl = rec.get("stamp", {}).get("workload", workload)
        for name, m in rec["metrics"].items():
            out[wl][name].append(m["value"])
    return out


def compare(base, new):
    """Yields (workload, metric, base_median, new_median, rel_change, verdict)."""
    for wl in sorted(set(base) & set(new)):
        for name in sorted(set(base[wl]) & set(new[wl])):
            b = statistics.median(base[wl][name])
            n = statistics.median(new[wl][name])
            rel = (n - b) / abs(b) if b else (0.0 if n == b else float("inf"))
            worse = rel if BETTER.get(name, "lower") == "lower" else -rel
            verdict = "same"
            if name in BOUNDS:
                if worse > BOUNDS[name]["bound"]:
                    verdict = "REGRESSION"
                elif -worse > BOUNDS[name]["bound"]:
                    verdict = "better"
            elif n != b:
                verdict = "changed"
            yield wl, name, b, n, rel, verdict


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--workload", default="?", help="workload of bare result lines")
    a = ap.parse_args()
    rows = list(compare(load(a.base, a.workload), load(a.new, a.workload)))
    for wl, name, b, n, rel, verdict in rows:
        if verdict != "same":
            print(f"{wl:12s} {name:32s} {b:14.6g} -> {n:14.6g} {rel:+8.1%} {verdict}")
    regressions = sum(r[5] == "REGRESSION" for r in rows)
    bounded = [r for r in rows if r[1] in BOUNDS]
    if not any(r[5] != "same" for r in bounded):
        print(f"no change: {len(bounded)} end-to-end comparisons within their bounds")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

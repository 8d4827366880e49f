#!/usr/bin/env python3
"""Compare repo benchmark runs of a base tree and a head tree, and fail on a
regression beyond the bounds `BENCHMARK.json` declares.

Each input file holds the stdout of one `repobench` run: a context line and a
result line, both JSON. Usage, from the repository root:

    python3 .github/bench_gate.py --base base/*.json --head head/*.json

The gate fails (exit 1) when, on any workload `BENCHMARK.json` lists,
- the head median of `jobs_per_s` or `peak_rss_mb` is worse than the base
  median by more than that metric's bound, or
- any run reports `"correct": false` or `"failed" > 0`, or
- either side has no runs of it.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

GATED = ("jobs_per_s", "peak_rss_mb")


def load_run(path):
    context = result = None
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "context" in obj:
            context = obj["context"]
        elif "correct" in obj:
            result = obj
    if context is None or result is None:
        sys.exit(f"{path}: no context or result line")
    return context, result


def load_side(paths):
    runs = {}
    for path in paths:
        context, result = load_run(path)
        runs.setdefault(context["workload"], []).append((path, context, result))
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args()

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] if m["name"] in GATED}
    sides = {"base": load_side(args.base), "head": load_side(args.head)}
    failures = []

    for side, runs in sides.items():
        ctx = next(r[1] for rs in runs.values() for r in rs)
        print(f"{side}: cpu_model={ctx['cpu_model']!r} nproc={ctx['nproc']}")
        for rs in runs.values():
            for path, _, result in rs:
                if not result["correct"] or result["failed"] > 0:
                    failures.append(
                        f"{side} run {path}: correct={result['correct']} "
                        f"failed={result['failed']}"
                    )

    print(f"\n{'workload':<20}{'metric':<14}{'base':>14}{'head':>14}{'change':>9}  bound")
    for workload in (w["name"] for w in spec["workloads"]):
        base = sides["base"].get(workload, [])
        head = sides["head"].get(workload, [])
        if not base or not head:
            failures.append(f"{workload}: {len(base)} base runs, {len(head)} head runs")
            continue
        for name, m in metrics.items():
            b = statistics.median(r[2]["metrics"][name]["value"] for r in base)
            h = statistics.median(r[2]["metrics"][name]["value"] for r in head)
            change = h / b - 1.0
            worse = -change if m["better"] == "higher" else change
            verdict = "FAIL" if worse > m["bound"] else "ok"
            print(
                f"{workload:<20}{name:<14}{b:>14.1f}{h:>14.1f}{change:>+9.1%}"
                f"  {m['bound']:.0%} {verdict} ({len(base)}/{len(head)} runs)"
            )
            if verdict == "FAIL":
                failures.append(f"{workload}: {name} {change:+.1%} breaches {m['bound']:.0%}")

    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

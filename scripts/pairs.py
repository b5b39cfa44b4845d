#!/usr/bin/env python3
"""Run one benchmark workload in two checkouts, alternately, and compare.

Usage: python scripts/pairs.py --a <checkout> --b <checkout> --workload W --pairs N [--seed S]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds 20
--trace 0`` once in each checkout, from that checkout's root; pair i
starts with A when i is even and with B when it is odd, so neither side
always runs first.  After each run the script reads that checkout's
``perfbench/out/<W>-seed<S>-trace0.json``, which the next run there
overwrites.  It writes nothing itself.

It prints every run's end-to-end metrics, as ``BENCHMARK.json`` in A
lists them, then for each metric: each side's median and quartiles, in
how many pairs B is better than A, and B's median change against A's
next to the metric's relative bound; ``WORSE`` marks a change past the
bound in the worse direction.  ``UNRESOLVED`` marks a metric whose A runs
spread wider than its bound (A's interquartile range over A's median), so
an unchanged median shows nothing, unless every B run beats every A run.
Its last line is the same per-metric summary as one JSON object
(``summary``), for a record of the comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SECONDS = 20


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One untraced run in ``checkout``: its end-to-end metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(checkout, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["metrics"]


def quartiles(values: list) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def median_change(qa: tuple, qb: tuple) -> float:
    """B's median change relative to A's, from their ``quartiles``."""
    return (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0


def marks(a: list, b: list, spec: dict) -> list[str]:
    """The marks of one metric's A and B runs under its ``BENCHMARK.json``
    entry: ``WORSE`` when B's median is past the bound from A's in the
    worse direction, ``UNRESOLVED`` when A's interquartile range over A's
    median is wider than the bound and some B run does not beat every A
    run."""
    lower = spec["better"] == "lower"
    qa = quartiles(a)
    change = median_change(qa, quartiles(b))
    spread = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0
    separated = max(b) < min(a) if lower else min(b) > max(a)
    found = []
    if (change if lower else -change) > spec["bound"]:
        found.append("WORSE")
    if spread > spec["bound"] and not separated:
        found.append("UNRESOLVED")
    return found


def summary(specs: list, runs: dict, workload: str, seed: int) -> dict:
    """The comparison of the A and B ``runs`` (lists of metric dicts, one
    per pair) under the ``BENCHMARK.json`` ``specs``: for each metric,
    each side's quartiles, in how many pairs B is better, B's median
    change, the bound and the ``marks``."""
    metrics = {}
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        a = [m[name] for m in runs["A"]]
        b = [m[name] for m in runs["B"]]
        qa, qb = quartiles(a), quartiles(b)
        metrics[name] = {
            "a": list(qa), "b": list(qb),
            "b_better": sum((y < x) if lower else (y > x) for x, y in zip(a, b)),
            "change": median_change(qa, qb), "bound": spec["bound"], "marks": marks(a, b, spec),
        }
    return {"workload": workload, "seed": seed, "pairs": len(runs["A"]), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", required=True, help="the reference checkout")
    parser.add_argument("--b", required=True, help="the checkout compared with it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with open(os.path.join(args.a, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["end_to_end"]
    names = [spec["name"] for spec in specs]
    runs = {"A": [], "B": []}
    for i in range(args.pairs):
        for side in ("AB" if i % 2 == 0 else "BA"):
            metrics = run_once(getattr(args, side.lower()), args.workload, args.seed)
            runs[side].append(metrics)
            print(f"pair {i} {side}: " + " ".join(f"{name}={metrics[name]:.6g}" for name in names), flush=True)

    result = summary(specs, runs, args.workload, args.seed)
    print(f"\n{args.workload} seed={args.seed}, {args.pairs} pairs; A={args.a} B={args.b}")
    print(f"{'metric':<16} {'A q1/median/q3':>32} {'B q1/median/q3':>32} {'B better':>9} {'change':>9} {'bound':>7}")
    for name, m in result["metrics"].items():
        print(f"{name:<16} {'/'.join(f'{v:.5g}' for v in m['a']):>32} {'/'.join(f'{v:.5g}' for v in m['b']):>32} "
              f"{m['b_better']:>5}/{args.pairs:<3} {m['change']:>+9.4f} {m['bound']:>7.3f}"
              + "".join(f"  {mark}" for mark in m["marks"]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

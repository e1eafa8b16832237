#!/usr/bin/env python3
"""The benchmark's regression rule, applied to two sets of runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one result object per line (the last stdout line of
``run.py``), all of one workload.  For every end-to-end metric in
``BENCHMARK.json`` the rule compares medians: NEW regresses when its
median is worse than BASE's by more than the metric's ``bound`` (a share
of BASE's median).  A run that reports ``correct: false`` fails the
comparison too.  Exit status: 0 no regression, 1 regression, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(path: str) -> "list[dict]":
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spread(values: "list[float]") -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return -change if better == "higher" else change


def regressions(base_runs, new_runs, metrics) -> "list[str]":
    """One line per metric whose NEW median is worse than BASE's by more
    than its bound, plus one per incorrect run."""
    found = [
        f"{label} run {index} reported correct=false"
        for label, runs in (("base", base_runs), ("new", new_runs))
        for index, run in enumerate(runs)
        if not run["correct"]
    ]
    for metric in metrics:
        name = metric["name"]
        base = statistics.median(run["metrics"][name]["value"] for run in base_runs)
        new = statistics.median(run["metrics"][name]["value"] for run in new_runs)
        worse = worsening(base, new, metric["better"])
        if worse > metric["bound"]:
            found.append(
                f"{name}: median {new:.6g} vs {base:.6g} is {worse:+.1%} worse "
                f"(bound {metric['bound']:.0%})"
            )
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    try:
        with open(BENCHMARK, "r", encoding="utf-8") as handle:
            metrics = json.load(handle)["end_to_end"]
        base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    except (OSError, ValueError, KeyError) as error:
        sys.stderr.write(f"compare: {error}\n")
        return 2
    if not base_runs or not new_runs:
        sys.stderr.write("compare: both files need at least one run\n")
        return 2
    for metric in metrics:
        name = metric["name"]
        for label, runs in (("base", base_runs), ("new", new_runs)):
            values = [run["metrics"][name]["value"] for run in runs]
            print(
                f"{name:>16} {label:>4}: median {statistics.median(values):.6g} "
                f"spread {spread(values):.1%} (n={len(values)})"
            )
    found = regressions(base_runs, new_runs, metrics)
    for line in found:
        print(f"REGRESSION {line}")
    if not found:
        print("no regression")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

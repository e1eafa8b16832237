#!/usr/bin/env python3
"""Known-slow control: prove the regression rule can fail, and only then.

    python3 perfbench/control.py --workload csv-2m

Runs the workload :data:`RUNS` times as the baseline, :data:`RUNS` times
with ``run.py --slow`` (a sleep before every CSV encode call, in every
shard worker), then :data:`RUNS` times unslowed again, all with distinct
seeds and ``BENCHMARK.json``'s ``run_seconds``.  The control holds when
the rule in ``compare.py`` reports the slowed set as a ``hosts_per_s``
regression and the unslowed rerun as no regression on any end-to-end
metric.  Exit status 0 when it holds, 1 otherwise.  Run logs go to
``.perfbench-work/control/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402

#: Runs per set; five keep the control under ten minutes.
RUNS = 5
FIRST_SEED = 100


def run_set(label: str, workload: str, seeds, seconds: int, extra, out_dir) -> "list[dict]":
    results = []
    for seed in seeds:
        command = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", *extra,
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
        with open(os.path.join(out_dir, f"{label}.log"), "a", encoding="utf-8") as log:
            log.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"control: {label} run (seed {seed}) exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{label} seed {seed}: hosts_per_s {result['metrics']['hosts_per_s']['value']:.6g}")
        results.append(result)
    with open(os.path.join(out_dir, f"{label}.jsonl"), "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(result) + "\n" for result in results)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="csv-2m")
    args = parser.parse_args(argv)
    out_dir = os.path.join(ROOT, ".perfbench-work", "control")
    os.makedirs(out_dir, exist_ok=True)
    with open(compare.BENCHMARK, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = spec["end_to_end"]
    seeds = iter(range(FIRST_SEED, FIRST_SEED + 3 * RUNS))
    sets = {}
    for label, extra in (("base", []), ("slowed", ["--slow"]), ("rerun", [])):
        picked = [next(seeds) for _ in range(RUNS)]
        sets[label] = run_set(
            label, args.workload, picked, spec["run_seconds"], extra, out_dir
        )

    slowed = compare.regressions(sets["base"], sets["slowed"], metrics)
    rerun = compare.regressions(sets["base"], sets["rerun"], metrics)
    print("slowed vs base:", *(slowed or ["no regression"]), sep="\n  ")
    print("rerun vs base:", *(rerun or ["no regression"]), sep="\n  ")
    tripped = any(line.startswith("hosts_per_s:") for line in slowed)
    holds = tripped and not rerun
    print("control holds" if holds else "control FAILED")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())

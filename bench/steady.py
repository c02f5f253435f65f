#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds and compare spreads with the bounds.

    python3 bench/steady.py [--workloads density-enum,simulate] [--seeds 10] [--first-seed 1]

Each seed draws different datasets, so no figure rests on one dataset. For
every end-to-end metric of BENCHMARK.json the check reports the median over
the seeds and the spread, (Q3 - Q1) / median with ``statistics.quantiles(n=4)``,
against the metric's bound. A spread above its bound fails; a spread above a
third of the bound is flagged as loose. Exits 1 on a failed spread or an
incorrect run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("need at least two seeds")

    ok = True
    for workload in args.workloads.split(","):
        results = []
        started = time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
        print(f"{workload}: {args.seeds} runs in {time.perf_counter() - started:.0f} s")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok"
            if spread > bound:
                verdict, ok = "FAIL", False
            elif spread > bound / 3:
                verdict = "loose"
            print(f"{workload:14s} {name:12s} median {median:.6g} spread {spread:.4f} "
                  f"bound {bound} {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

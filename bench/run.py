#!/usr/bin/env python3
"""series-prior benchmark: one workload per run, as a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

Run from anywhere; the library is imported from ``src/`` next to this
directory and the q=1 oracle from ``tests/oracles.py``. Each op's inputs come
from ``(seed, op index)`` and are drawn outside the timed region; every op's
output is checked, and the checks are shown to reject perturbed copies of
the first op's output.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` each input runs untraced, then traced (and, on ``simulate``,
untraced with one worker); the outputs must be bit-identical, and the last line
holds the per-layer metrics. The line before it records the environment, the
op count, the slowest op and the accuracy readings. Scratch files go to
``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Only the standard library at module level: a set-up probe starts its clock
# after these imports, and numpy's import belongs to the set-up it measures.

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5


def add_library_paths() -> None:
    missing = [p for p in ("src/series_prior/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def setup_probe(name: str) -> None:
    """Fresh-process set-up: import the library and build the workload's bases."""
    t0 = time.perf_counter()
    add_library_paths()
    import workloads

    workloads.make(name, OUT).setup()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(name: str) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SERIES_PRIOR_THREADS": os.environ.get("SERIES_PRIOR_THREADS"),
        "git_sha": None,
        "git_dirty": None,
        "seed": seed,
    }

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)

    if (ROOT / ".git").exists():  # a plain source tree stays unlabelled; git would search its parents
        try:
            env["git_sha"] = git("rev-parse", "HEAD").stdout.strip()
            env["git_dirty"] = bool(git("status", "--porcelain").stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return env


class Loop:
    """Runs and checks the ops of one workload; keeps times, readings and failures."""

    def __init__(self, workload, seed: int, tracer=None):
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {"plain": [], "traced": [], "serial": []}
        self.traced_walls: dict[int, float] = {}
        self.readings: list[dict] = []

    def _timed(self, inp, kind: str, op_id: int):
        tracer = self.tracer if kind == "traced" else None
        saved = os.environ.get("SERIES_PRIOR_THREADS")
        if kind == "serial":
            os.environ["SERIES_PRIOR_THREADS"] = "1"
        if tracer:
            tracer.install()
            tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            out = self.w.run(inp)
            return out, time.perf_counter() - t0
        finally:
            if tracer:
                tracer.end_op()
                tracer.uninstall()
            if kind == "serial":
                if saved is None:
                    del os.environ["SERIES_PRIOR_THREADS"]
                else:
                    os.environ["SERIES_PRIOR_THREADS"] = saved

    def _fail(self, op_id: int, kind: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"op {op_id} {kind}: {p}" for p in problems]

    def op(self, op_id: int, kinds: tuple[str, ...], self_test: bool = False):
        """Run one input through each kind of op; return the first output that passed its checks.

        With ``self_test``, the checks must also reject each perturbation of
        that output the workload can detect.
        """
        inp = self.w.make_input(self.seed, op_id)
        first = None
        try:
            for kind in kinds:
                self.attempted += 1
                try:
                    out, dt = self._timed(inp, kind, op_id)
                except Exception:
                    self._fail(op_id, kind, [traceback.format_exc(limit=3)])
                    continue
                if first is None:
                    bad, readings = self.w.check(inp, out)
                    if bad:
                        self._fail(op_id, kind, bad)
                        continue
                    first = out
                    if self_test:
                        self._self_test(inp, out)
                    self.readings.append(readings)
                elif self.w.fingerprint(out) != self.w.fingerprint(first):
                    self._fail(op_id, kind, ["output differs from the untraced op on the same input"])
                    continue
                self.times[kind].append(dt)
                if kind == "traced":
                    self.traced_walls[op_id] = dt
        finally:
            cleanup = getattr(self.w, "cleanup", None)
            if cleanup:
                cleanup(inp)
        return first

    def _self_test(self, inp, out) -> None:
        for kind in self.w.perturbations:
            bad, _ = self.w.check(inp, self.w.perturb(out, kind))
            if not bad:
                self.problems.append(f"self-test: perturbed output ({kind}) passed the checks")


def accuracy(readings: list[dict]) -> dict[str, float]:
    """Accuracy readings over the checked ops; 0 where the workload has no such check."""
    import numpy as np

    integral = [r["integral_err"] for r in readings if "integral_err" in r]
    oracle = [r["oracle_rel_err"] for r in readings if "oracle_rel_err" in r]
    rel_se = [r["mc_rel_se"] for r in readings if "mc_rel_se" in r]
    return {
        "acc.mean_integral_err": max(integral, default=0.0),
        "acc.oracle_rel_err": max(oracle, default=0.0),
        "acc.mc_rel_se.p50": float(np.nanmedian(np.concatenate(rel_se))) if rel_se else 0.0,
    }


# Every per-layer metric of a traced run, with its unit. Figures "per op" are
# totals over the traced ops divided by their number.
PER_LAYER = {
    **{f"{layer}.self_s": "s/op" for layer in
       ("_engine", "basis", "density", "harness", "regression", "priors", "quadrature")},
    "_engine.exact_mixture.calls": "count/op",
    "_engine.exact_mixture.busy_s": "s/op",
    "_engine.exact_mixture.terms": "count/op",
    "_engine.exact_mixture.grid_terms": "count/op",
    "_engine.mc_mixture.calls": "count/op",
    "_engine.mc_mixture.busy_s": "s/op",
    "_engine.mc_mixture.draws": "count/op",
    "_engine.mc_mixture.draw_cols": "count/op",
    "_engine.mc_mixture.ess_frac.p50": "ratio",
    "_engine.mc_mixture.ess_frac.min": "ratio",
    "_engine.combine.busy_s": "s/op",
    "_engine.combine_mc.second_undershoot": "count/op",
    "basis.eval.calls": "count/op",
    "basis.eval.points": "count/op",
    "basis.eval.busy_s": "s/op",
    "basis.make_basis.busy_s": "s",
    "harness.fit_density.self_s": "s/op",
    "harness.write.busy_s": "s/op",
    "harness.write.bytes": "B/op",
    "harness.run_experiment.rep_busy_s": "s/op",
    "harness.run_experiment.parallelism": "ratio",
    "harness.run_experiment.serial_speedup": "ratio",
    **{f"regression.{fn}.busy_s": "s/op" for fn in
       ("binary_moment", "poisson_moment", "design_matrix", "gaussian_fit", "gaussian_predict")},
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s/op",
    "trace.overlap_s": "s/op",
    "trace.op_s": "s/op",
    "acc.mean_integral_err": "ratio",
    "acc.oracle_rel_err": "ratio",
    "acc.mc_rel_se.p50": "ratio",
}


def per_layer(loop: Loop, tracer, acc: dict, spans) -> dict[str, float]:
    values = spans.layer_metrics(tracer.spans, loop.traced_walls)
    plain, traced, serial = (loop.times[k] for k in ("plain", "traced", "serial"))
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0 if traced and plain else 0.0
    sim = [r for r in loop.readings if "rep_busy_s" in r]
    values["harness.write.bytes"] = statistics.fmean(r["write_bytes"] for r in sim) if sim else 0.0
    values["harness.run_experiment.rep_busy_s"] = statistics.fmean(r["rep_busy_s"] for r in sim) if sim else 0.0
    values["harness.run_experiment.parallelism"] = (
        sum(r["rep_busy_s"] for r in sim) / sum(plain) if sim and plain else 0.0
    )
    values["harness.run_experiment.serial_speedup"] = (
        statistics.median(serial) / statistics.median(plain) if serial and plain else 0.0
    )
    values.update(acc)
    return values


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (info, result) for one run."""
    setup_s = None if trace else measure_setup(workload)
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    w = workloads.make(workload, OUT)
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
        tracer.begin_op("setup")
    try:
        w.setup()
    finally:
        if tracer:
            tracer.end_op()
            tracer.uninstall()

    loop = Loop(w, seed, tracer)
    kinds = ("plain",)
    if trace:
        kinds = ("plain", "traced", "serial") if workload == "simulate" else ("plain", "traced")
    op_id = 1
    start = time.perf_counter()
    while True:
        loop.op(op_id, kinds, self_test=op_id == 1)
        op_id += 1
        if time.perf_counter() - start >= seconds:
            break

    plain = loop.times["plain"]
    acc = accuracy(loop.readings)
    info = {
        "workload": workload, "seconds": seconds, "trace": int(trace), "op_count": len(plain),
        "failed_frac": loop.failed / loop.attempted, "acc": acc, "env": environment(seed),
    }
    if trace:
        values = per_layer(loop, tracer, acc, spans)
        loop.problems += spans.span_problems(tracer.spans, loop.traced_walls)
        # At most `workers` replications run at once, so children overlap by less
        # than (workers - 1) x op time.
        workers = w.workers() if hasattr(w, "workers") else 1
        if values["trace.overlap_s"] > (workers - 1) * values["trace.op_s"]:
            loop.problems.append(f"spans overlap by {values['trace.overlap_s']:.3g} s/op, "
                                 f"more than {workers} workers allow")
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
    else:
        info["op_s_max"] = max(plain, default=0.0)  # the slowest op; runs hold too few ops for a tail
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s.p50": {"value": statistics.median(plain) if plain else 0.0, "unit": "s"},
            "ops_per_s": {"value": len(plain) / sum(plain) if plain else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    info["problems"] = loop.problems[:10]
    result = {"correct": not loop.problems, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    return info, result


def selftest() -> int:
    """One traced input per workload: checks pass, perturbations fail, traced == untraced."""
    import workloads

    ok = True
    for name in workloads.NAMES:
        info, result = run(name, seed=1, seconds=0.0, trace=True)
        passed = result["correct"] and result["failed"] == 0
        ok &= passed
        print(f"[selftest] {name}: {'PASS' if passed else 'FAIL'} {info['problems']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    add_library_paths()
    import workloads

    if args.selftest:
        return selftest()
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer spans for the traced benchmark run.

The tracer wraps the public functions of each layer (one module of
``series_prior``) at every module attribute that holds them, so a caller that
imported a name (``harness.eval_normalized``, ``density.make_basis``) reaches
the wrapper too. Each call records a span: name, start, end, parent, op id,
thread id and a few counts. Spans stay in memory; the benchmark writes them out
when the run ends.

Parents are tracked per thread. A span opened on a thread with no open span of
its own (a ``run_experiment`` worker) takes the op thread's innermost open span
as its parent, so its time is subtracted from that span's self time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time

import numpy as np

# Layer -> the public callables the workloads reach. ``_one_replication`` is
# private, but it is the unit of work the replication pool runs, so it becomes
# each worker's root span.
LAYERS = {
    "_engine": ["exact_mixture", "mc_mixture", "combine_exact", "combine_mc"],
    "basis": ["make_basis", "eval_basis", "eval_normalized", "quadrature_integrals"],
    "density": ["bases_for_prior", "exact_moment", "mc_moment", "credible_band"],
    "harness": [
        "fit_density", "run_experiment", "_one_replication", "sample_density", "grid_metrics",
        "get_density", "mixture_51", "metric_grid", "write_summary", "write_j_table",
    ],
    "regression": ["binary_moment", "poisson_moment", "design_matrix", "gaussian_fit", "gaussian_predict"],
    "priors": ["ModelSizePrior.log_pmf"],
    "quadrature": ["simpson_panel_rule"],
}
BASIS_EVAL = ("basis.eval_basis", "basis.eval_normalized")
WRITERS = ("harness.write_summary", "harness.write_j_table")
REGRESSION_CALLS = ("binary_moment", "poisson_moment", "design_matrix", "gaussian_fit", "gaussian_predict")

NAME, START, END, PARENT, OP, THREAD, ATTRS = range(7)


def _exact_counts(args, kwargs, result):
    from series_prior._engine import assignment_count

    slots = args[0] if args else kwargs["slots"]
    cols = args[3] if len(args) > 3 else kwargs.get("eval_cols")
    terms = assignment_count(slots)
    return {"terms": terms, "grid_terms": terms * (0 if cols is None else cols.shape[1])}


def _mc_counts(args, kwargs, piece):
    n = piece.n_draws
    # Kish effective sample size of the shifted denominator terms u, from the
    # returned mean and ddof=1 variance: (sum u)^2 / sum u^2.
    sum_u = n * piece.mean_u_den
    sum_u2 = (n - 1) * piece.var_u_den + n * piece.mean_u_den**2
    return {
        "draws": n,
        "draw_cols": n * piece.mean_u_num.size,
        "ess_frac": sum_u**2 / sum_u2 / n,
    }


def _combine_mc_counts(args, kwargs, result):
    mean, _, second, _ = result
    return {"second_undershoot": 0 if second is None else int(np.count_nonzero(second < mean**2))}


def _eval_points(args, kwargs, result):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["x"]))}


COUNTERS = {
    "_engine.exact_mixture": _exact_counts,
    "_engine.mc_mixture": _mc_counts,
    "_engine.combine_mc": _combine_mc_counts,
    "basis.eval_basis": _eval_points,
    "basis.eval_normalized": _eval_points,
}


def _span_name(layer: str, attr: str) -> str:
    return f"{layer}.replication" if attr == "_one_replication" else f"{layer}.{attr}"


class Tracer:
    """Span recorder; ``install`` swaps the wrappers in, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[int] | None = None
        self._patches = self._plan()

    def _plan(self):
        modules = [m for n, m in sys.modules.items() if n == "series_prior" or n.startswith("series_prior.")]
        patches = []
        for layer, attrs in LAYERS.items():
            home = sys.modules[f"series_prior.{layer}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[meth]
                    wrapper = self._wrap(_span_name(layer, attr), original)
                    patches.append((owner, meth, original, wrapper))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(_span_name(layer, attr), original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original, wrapper))
        return patches

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op) -> None:
        """Mark the calling thread as the op thread for op ``op``."""
        self.op = op
        self._op_stack = self._stack()

    def end_op(self) -> None:
        self.op = None
        self._op_stack = None

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._op_stack:
                parent = tracer._op_stack[-1]
            else:
                parent = None
            rec = [name, 0.0, 0.0, parent, tracer.op, threading.get_ident(), None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(rec)
            stack.append(index)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[ATTRS] = counter(args, kwargs, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, thread, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "thread": thread, "attrs": attrs,
                }) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_problems(spans, op_walls: dict) -> list[str]:
    """Spans of the ops in ``op_walls`` that did not close or lie outside their parent.

    A child inside its parent's interval is what keeps every self time >= 0.
    """
    problems = []
    for i, s in enumerate(spans):
        if s[OP] not in op_walls:
            continue
        parent = spans[s[PARENT]] if s[PARENT] is not None else None
        if s[END] < s[START]:
            problems.append(f"span {i} ({s[NAME]}) did not close")
        elif parent is not None and not (parent[START] <= s[START] and s[END] <= parent[END]):
            problems.append(f"span {i} ({s[NAME]}) lies outside its parent {parent[NAME]}")
    return problems[:5]


def layer_metrics(spans, op_walls: dict) -> dict[str, float]:
    """Per-layer figures per traced op, from the spans of the ops in ``op_walls``.

    ``op_walls`` maps each traced op id to its wall time. Self time is a span's
    duration minus the union of its children's intervals. Over each op,
    sum(self) + unattributed - overlap = wall by construction, where overlap
    is the time children of one span ran at once on different threads.
    """
    n_ops = max(len(op_walls), 1)
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(i)

    layer_self = {layer: 0.0 for layer in LAYERS}
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    ess: list[float] = []
    fit_self = eval_calls = eval_points = eval_busy = overlap = 0.0
    root_cover = {op: [] for op in op_walls}
    make_basis_setup = 0.0

    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        if s[OP] == "setup" and s[NAME] == "basis.make_basis":
            make_basis_setup += dur
        if s[OP] not in op_walls:
            continue
        kids = [(spans[c][START], spans[c][END]) for c in children.get(i, ())]
        covered = _union_length(kids)
        overlap += sum(e - b for b, e in kids) - covered
        self_time = dur - covered
        name = s[NAME]
        layer_self[name.split(".")[0]] += self_time
        busy[name] = busy.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if s[PARENT] is None:
            root_cover[s[OP]].append((s[START], s[END]))
        if name == "harness.fit_density":
            fit_self += self_time
        if name in BASIS_EVAL and (s[PARENT] is None or spans[s[PARENT]][NAME] not in BASIS_EVAL):
            eval_calls += 1
            eval_points += (s[ATTRS] or {}).get("points", 0)  # no counts if the call raised
            eval_busy += dur
        if s[ATTRS]:
            for key, value in s[ATTRS].items():
                if key == "ess_frac":
                    ess.append(value)
                else:
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    unattributed = sum(wall - _union_length(root_cover[op]) for op, wall in op_walls.items())
    out = {f"{layer}.self_s": v / n_ops for layer, v in layer_self.items()}
    for fn in ("exact_mixture", "mc_mixture"):
        out[f"_engine.{fn}.calls"] = calls.get(f"_engine.{fn}", 0) / n_ops
        out[f"_engine.{fn}.busy_s"] = busy.get(f"_engine.{fn}", 0.0) / n_ops
    for key in ("terms", "grid_terms"):
        out[f"_engine.exact_mixture.{key}"] = counts.get(f"_engine.exact_mixture.{key}", 0) / n_ops
    for key in ("draws", "draw_cols"):
        out[f"_engine.mc_mixture.{key}"] = counts.get(f"_engine.mc_mixture.{key}", 0) / n_ops
    out["_engine.mc_mixture.ess_frac.p50"] = statistics.median(ess) if ess else 0.0
    out["_engine.mc_mixture.ess_frac.min"] = min(ess) if ess else 0.0
    out["_engine.combine.busy_s"] = (
        busy.get("_engine.combine_exact", 0.0) + busy.get("_engine.combine_mc", 0.0)
    ) / n_ops
    out["_engine.combine_mc.second_undershoot"] = (
        counts.get("_engine.combine_mc.second_undershoot", 0) / n_ops
    )
    out["basis.eval.calls"] = eval_calls / n_ops
    out["basis.eval.points"] = eval_points / n_ops
    out["basis.eval.busy_s"] = eval_busy / n_ops
    out["basis.make_basis.busy_s"] = make_basis_setup
    out["harness.fit_density.self_s"] = fit_self / n_ops
    out["harness.write.busy_s"] = sum(busy.get(w, 0.0) for w in WRITERS) / n_ops
    for fn in REGRESSION_CALLS:
        out[f"regression.{fn}.busy_s"] = busy.get(f"regression.{fn}", 0.0) / n_ops
    out["trace.unattributed_s"] = unattributed / n_ops
    out["trace.overlap_s"] = overlap / n_ops
    out["trace.op_s"] = sum(op_walls.values()) / n_ops
    return out

"""The four benchmark workloads.

Each workload builds its bases in ``setup``, draws the inputs of op ``i`` from
``(seed, i)`` outside the timed region, runs one op through the library's
public API and checks the op's output. ``check`` returns the list of failed
checks and the op's readings (accuracy figures and counts taken from the
output). ``fingerprint`` gives the bytes that a traced and an untraced run of
the same input must share. ``perturb`` returns copies of an output that the
checks must reject; a workload lists only the perturbations its checks can
detect.

Why each workload exists, and which layers it exercises, is in README.md.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from series_prior import harness, regression
from series_prior.density import bases_for_prior, exact_moment
from series_prior.priors import ModelSizePrior

WEIGHT_TOL = 1e-12      # j_weights sum to 1
INTEGRAL_TOL = 1e-6     # posterior mean integrates to 1 (tests/test_density.py)
ORACLE_RTOL = 1e-10     # q=1 histogram closed form (tests/test_density.py)
INTERP_RTOL = 1e-10     # grid mean against the breakpoint evaluation it interpolates
# The sampled mean does not integrate to 1 exactly: mc_mixture redraws the
# evaluation index for each grid point, so the estimate is no mixture of
# densities. Over 24 n=500 datasets its midpoint-rule integral lay in
# 0.86-1.14, so this tolerance catches a gross scale defect and no 1% one.
MC_INTEGRAL_TOL = 0.5


def op_seed(seed: int, i: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, i])


def _int_seed(seed: int, i: int) -> int:
    return int(op_seed(seed, i).generate_state(1)[0])


def check_summary(summary, label: str, exact: bool, unit_interval: bool = False) -> list[str]:
    """Checks every posterior summary must pass."""
    bad = []
    mean = summary.mean
    if not np.all(np.isfinite(mean)):
        bad.append(f"{label}: non-finite mean")
    elif np.any(mean < 0.0):
        bad.append(f"{label}: negative mean")
    elif unit_interval and np.any(mean > 1.0):
        bad.append(f"{label}: mean above 1")
    weight_err = abs(float(np.sum(summary.j_weights)) - 1.0)
    if not weight_err <= WEIGHT_TOL:
        bad.append(f"{label}: j_weights sum off by {weight_err:.3g}")
    if exact and not np.all(summary.second_moment >= mean**2):
        bad.append(f"{label}: second moment below mean^2")
    if not np.all(np.isfinite(summary.mc_se)) or np.any(summary.mc_se < 0.0):
        bad.append(f"{label}: mc_se not finite and nonnegative")
    return bad


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays if a is not None)


def _summary_bytes(s) -> bytes:
    return _bytes(s.grid, s.mean, s.second_moment, s.band_low, s.band_high, s.mc_se,
                  s.j_values, s.j_weights)


def _scaled(summary, factor):
    return dataclasses.replace(summary, mean=summary.mean * factor)


def _with_nan(summary):
    mean = summary.mean.copy()
    mean[len(mean) // 2] = np.nan
    return dataclasses.replace(summary, mean=mean)


def _off_weights(summary):
    return dataclasses.replace(summary, j_weights=summary.j_weights * (1.0 + 1e-9))


SUMMARY_PERTURBATIONS = {
    "mean*1.01": lambda s: _scaled(s, 1.01),
    "mean*2": lambda s: _scaled(s, 2.0),
    "nan": _with_nan,
    "weights": _off_weights,
}


class DensityEnum:
    """fit_density, q=2, n=12 mixture-51 draws, exact enumeration."""

    name = "density-enum"
    q, n = 2, 12
    perturbations = ("mean*1.01", "nan", "weights")

    def setup(self):
        self.prior = ModelSizePrior.geometric(0.9, 5, 25)
        self.bases = bases_for_prior(self.q, self.prior)
        self.density = harness.mixture_51()
        # The q=2 posterior mean is continuous and linear between consecutive
        # knots of the union of the bases, so the trapezoid rule on those knots
        # integrates it exactly and linear interpolation reproduces any point.
        self.knots = np.unique(np.concatenate([b.breakpoints() for b in self.bases.values()]))
        self._reference = (None, None)

    def make_input(self, seed, i):
        return harness.sample_density(self.density, self.n, op_seed(seed, i))

    def run(self, data):
        return harness.fit_density(data, self.q, self.prior, mode="exact")

    def check(self, data, out):
        bad = check_summary(out, "fit", exact=True)
        if self._reference[0] is not data:  # the self-test checks one input several times
            self._reference = (data, exact_moment(data, self.knots, self.bases, self.prior, m=1).mean)
        at_knots = self._reference[1]
        h = np.diff(self.knots)
        integral_err = abs(math.fsum(np.concatenate([h * at_knots[:-1] / 2, h * at_knots[1:] / 2, [-1.0]])))
        if not integral_err <= INTEGRAL_TOL:
            bad.append(f"integral of mean off by {integral_err:.3g}")
        expected = np.interp(out.grid, self.knots, at_knots)
        if not np.allclose(out.mean, expected, rtol=INTERP_RTOL, atol=0.0):
            bad.append("grid mean disagrees with the mean at the knots")
        return bad, {"integral_err": integral_err}

    def fingerprint(self, out):
        return _summary_bytes(out)

    def perturb(self, out, kind):
        return SUMMARY_PERTURBATIONS[kind](out)


class DensityMc(DensityEnum):
    """fit_density, q=3, n=500, N=3000 sampled terms."""

    name = "density-mc"
    q, n, n_terms = 3, 500, 3000
    perturbations = ("mean*2", "nan", "weights")

    def make_input(self, seed, i):
        return harness.sample_density(self.density, self.n, op_seed(seed, i)), _int_seed(seed, i)

    def run(self, inp):
        data, mc_seed = inp
        return harness.fit_density(data, self.q, self.prior, n_terms=self.n_terms, seed=mc_seed, mode="mc")

    def check(self, inp, out):
        bad = check_summary(out, "fit", exact=False)
        integral_err = abs(float(np.mean(out.mean)) - 1.0)  # midpoint rule on the metric grid
        if not integral_err <= MC_INTEGRAL_TOL:
            bad.append(f"integral of sampled mean off by {integral_err:.3g}")
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_se = out.mc_se / out.mean
        return bad, {"mc_rel_se": rel_se}


class Simulate:
    """run_experiment: mixture-51, n=300, q=1, 10 replications, CSV output."""

    name = "simulate"
    perturbations = ("mean*1.01", "nan", "weights")

    def __init__(self, out_root: Path):
        self.out_root = out_root

    def setup(self):
        # 10 replications, not 25: at 25 an op took 4-5.5 s, a run held 4 ops,
        # and the median op time over ten seeds spread by up to 0.23.
        self.config = harness.ExperimentConfig(density="mixture-51", n=300, q=1, replications=10)
        prior = ModelSizePrior.geometric(self.config.geometric_p, self.config.j_min, self.config.j_max)
        self.bases = bases_for_prior(self.config.q, prior)
        self.density = harness.mixture_51()
        self.grid = harness.metric_grid(self.config.grid_size)

    def make_input(self, seed, i):
        out_dir = tempfile.mkdtemp(prefix="simulate-", dir=self.out_root)
        return dataclasses.replace(self.config, seed=_int_seed(seed, i), output_dir=out_dir)

    def run(self, config):
        return harness.run_experiment(config)

    def check(self, config, result):
        from oracles import histogram_posterior_mean  # the benchmark's own cost, kept out of setup

        c = self.config
        bad = []
        if len(result.rows) != c.replications or len(result.summaries) != c.replications:
            bad.append("wrong replication count")
        worst = 0.0
        for rep, summary in enumerate(result.summaries):
            bad += check_summary(summary, f"rep {rep}", exact=True)
            obs = harness.sample_density(self.density, c.n, op_seed(config.seed, rep)).observations
            closed = histogram_posterior_mean(obs, self.grid, c.j_min, c.j_max, c.geometric_p)
            with np.errstate(invalid="ignore"):
                rel = np.abs(summary.mean - closed) / np.abs(closed)
            if not np.all(rel <= ORACLE_RTOL):
                bad.append(f"rep {rep}: mean off the histogram closed form by {np.nanmax(rel):.3g}")
            worst = max(worst, float(np.nanmax(rel)))
        for row in result.rows:
            if not (np.isfinite(row.l1) and np.isfinite(row.l2)):
                bad.append(f"rep {row.replication}: non-finite error metric")
        files = sorted(Path(config.output_dir).glob("*.csv"))
        if len(files) != 4:
            bad.append(f"expected 4 CSV files, found {len(files)}")
        return bad, {
            "oracle_rel_err": worst,
            "write_bytes": sum(f.stat().st_size for f in files),
            "rep_busy_s": sum(r.wall_time_seconds for r in result.rows),
        }

    def workers(self):
        return harness.worker_count(self.config.replications)

    def cleanup(self, config):
        shutil.rmtree(config.output_dir, ignore_errors=True)

    def fingerprint(self, result):
        rows = np.array([(r.replication, r.l1, r.l2) for r in result.rows])
        return _bytes(rows) + b"".join(_summary_bytes(s) for s in result.summaries)

    def perturb(self, result, kind):
        summaries = list(result.summaries)
        summaries[0] = SUMMARY_PERTURBATIONS[kind](summaries[0])
        return dataclasses.replace(result, summaries=summaries)


class Regression:
    """binary_moment + poisson_moment (q=2, exact) + functional g-prior fit (q=3)."""

    name = "regression"
    perturbations = ("nan", "weights")
    n_binary, n_poisson, poisson_total = 12, 8, 12
    n_curves, n_train, curve_points = 215, 172, 100

    def setup(self):
        # Program defaults of the binreg/poisreg/funreg commands.
        self.prior = ModelSizePrior.geometric(0.9, 5, 15)
        self.bases2 = bases_for_prior(2, self.prior)
        self.bases3 = bases_for_prior(3, self.prior)
        self.grid = harness.metric_grid()
        self.curve_grid = np.linspace(0.0, 1.0, self.curve_points)

    def make_input(self, seed, i):
        rng = np.random.default_rng(op_seed(seed, i))
        z = rng.random(self.n_binary)
        binary = regression.RegressionDataset(z, (rng.random(z.size) < 0.2 + 0.6 * z).astype(float), "binary")
        # Counts conditioned on their total, so every op enumerates 2^12 terms.
        zp = rng.random(self.n_poisson)
        rate = 1.0 + 2.0 * zp
        counts = rng.multinomial(self.poisson_total, rate / rate.sum()).astype(float)
        poisson = regression.RegressionDataset(zp, counts, "poisson")
        # Tecator-shaped curves: smooth random walks over 100 channels, a fat-like
        # response linear in the curve plus noise, split 172/43.
        curves = 3.0 + 0.1 * np.cumsum(rng.normal(size=(self.n_curves, self.curve_points)), axis=1)
        response = curves @ np.sin(2.0 * np.pi * self.curve_grid) / self.curve_points
        response += 0.1 * rng.normal(size=self.n_curves)
        k = self.n_train
        train = regression.FunctionalDataset(self.curve_grid, curves[:k], response[:k])
        test = regression.FunctionalDataset(self.curve_grid, curves[k:], response[k:])
        return binary, poisson, train, test

    def run(self, inp):
        binary, poisson, train, test = inp
        b = regression.binary_moment(binary, self.bases2, (1.0, 1.0), self.prior, self.grid, mode="exact")
        p = regression.poisson_moment(poisson, self.bases2, (1.0, 1.0), self.prior, self.grid, mode="exact")
        designs = {j: regression.design_matrix(train, basis) for j, basis in self.bases3.items()}
        post = regression.gaussian_fit(designs, train.responses, self.prior)
        new = {j: regression.design_matrix(test, basis) for j, basis in self.bases3.items()}
        mean, var = regression.gaussian_predict(post, new)
        return b, p, post, mean, var

    def check(self, inp, out):
        b, p, post, mean, var = out
        bad = check_summary(b, "binary", exact=True, unit_interval=True)
        bad += check_summary(p, "poisson", exact=True)
        weight_err = abs(float(np.sum(post.j_weights)) - 1.0)
        if not weight_err <= WEIGHT_TOL:
            bad.append(f"gaussian: j_weights sum off by {weight_err:.3g}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var)) and np.all(var > 0.0)):
            bad.append("gaussian: predictions not finite with positive variance")
        return bad, {}

    def fingerprint(self, out):
        b, p, post, mean, var = out
        coefs = [post.coef_mean[int(j)] for j in post.j_values]
        return _summary_bytes(b) + _summary_bytes(p) + _bytes(post.j_weights, *coefs, mean, var)

    def perturb(self, out, kind):
        b, *rest = out
        return (SUMMARY_PERTURBATIONS[kind](b), *rest)


def make(name: str, out_root: Path):
    if name == Simulate.name:
        return Simulate(out_root)
    for cls in (DensityEnum, DensityMc, Regression):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (DensityEnum.name, DensityMc.name, Simulate.name, Regression.name)

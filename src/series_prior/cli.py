"""Command-line front end.

Subcommands: density-fit, simulate, approx-check, rates, funreg, binreg,
poisreg. Each option is declared once (_Command.opt) with its flag, config
key (its dest), type, choices and default. A --config file of key=value
lines sets the subcommand's defaults, checked as its flags are, so flags
override the file; an unknown or repeated key is an error. J.prior,
J.lambda and J.r are config-only keys of the model prior. Exit codes: 0
success, 2 usage error, 1 runtime error (bad input or config files
included). The commands open no file themselves: numeric inputs are read by
harness.read_rows, and every output is a CSV written by harness.write_table.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import basis as basis_mod
from . import harness
from .density import DensityDataset, _band_z, bases_for_prior, credible_band
from .priors import ModelSizePrior
from .rates import RateProblem, RateResult, SieveConstants, rate_exponents, solve_sieve
from .regression import (
    FunctionalDataset,
    RegressionDataset,
    binary_moment,
    design_matrices,
    gaussian_fit,
    gaussian_function_moments,
    gaussian_predict,
    poisson_moment,
)


class _Command(argparse.ArgumentParser):
    """One subcommand's parser, whose options are also its config keys."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.key_types: dict[str, tuple] = {}  # config key -> (type, choices)
        self.add_argument("--config", help="key=value file of this command's defaults; flags override")

    def opt(self, flag, key=None, type=str, choices=None, default=None, help=None) -> None:
        """Declare one option; key defaults to the flag's name and flag=None makes it config-only."""
        key = key or flag[2:]
        if flag is None:
            self.set_defaults(**{key: default})
        else:
            self.add_argument(flag, dest=key, type=type, choices=choices, default=default, help=help)
        self.key_types[key] = (type, choices)

    def parse_known_args(self, args=None, namespace=None):
        """Parse once to find --config, load its keys as defaults, then parse again."""
        parsed, rest = super().parse_known_args(args, namespace)
        path = parsed.config
        if path is None:
            return parsed, rest
        for key, text in harness.read_config(path).items():
            if key not in self.key_types:
                raise ValueError(f"{path}: unknown key {key!r} for {self.prog}")
            cast, choices = self.key_types[key]
            try:
                value = cast(text)
            except ValueError:
                raise ValueError(f"{path}: {key}={text!r} is not a valid {cast.__name__}") from None
            if choices is not None and value not in choices:
                raise ValueError(f"{path}: {key}={text!r} is not one of {', '.join(choices)}")
            self.set_defaults(**{key: value})
        return super().parse_known_args(args, namespace)


def _model_prior(opts) -> ModelSizePrior:
    js = opts["J.min"], opts["J.max"]
    if opts["J.prior"] == "poisson":
        return ModelSizePrior.poisson(opts["J.lambda"], *js)
    if opts["J.prior"] == "negative-binomial":
        return ModelSizePrior.negative_binomial(opts["J.r"], opts["J.p"], *js)
    return ModelSizePrior.geometric(opts["J.p"], *js)


def _write_summary_outputs(summary, output, j_table):
    harness.write_summary(output, summary)
    harness.write_j_table(j_table, summary.j_values, summary.j_weights)
    print(f"wrote {output} and {j_table}")


def _cmd_density_fit(opts) -> int:
    model_prior = _model_prior(opts)
    _band_z(opts["level"])  # refuse a bad level before the input is read
    obs = harness.read_observations(opts["input"])
    data = DensityDataset.from_array(obs, rescale=opts["rescale"])
    summary = harness.fit_density(
        data, opts["q"], model_prior, a=opts["theta.a"], grid=harness.metric_grid(opts["grid"]),
        n_terms=opts["N"], seed=opts["seed"], mode=opts["mode"], level=opts["level"],
    )
    out = Path(opts["output"])
    _write_summary_outputs(summary, out, Path(opts["j-table"] or out.with_name(out.stem + "_j.csv")))
    return 0


def _cmd_simulate(opts) -> int:
    config = harness.ExperimentConfig(
        density=opts["density"], n=opts["n"], q=opts["q"], replications=opts["reps"],
        n_terms=opts["N"], seed=opts["seed"], mode=opts["mode"], grid_size=opts["grid"],
        level=opts["level"], j_min=opts["J.min"], j_max=opts["J.max"], geometric_p=opts["J.p"],
        output_dir=opts["outdir"],
    )
    result = harness.run_experiment(config)
    print(
        f"density={config.density} n={config.n} q={config.q} reps={config.replications} "
        f"l1={harness.fmt(result.l1_mean)} (se {harness.fmt(result.l1_se)}) "
        f"l2={harness.fmt(result.l2_mean)} (se {harness.fmt(result.l2_se)})"
    )
    print(f"metrics written under {config.output_dir}")
    return 0


def _value(flag: str, token: str, convert, what: str, within: str | None = None):
    """One value of an option; a bad one is named with its option (and the list it came from)."""
    try:
        return convert(token)
    except (ValueError, ZeroDivisionError):
        where = "" if within is None else f", in {within!r}"
        raise ValueError(f"{flag}: {token!r} is not {what}{where}") from None


def _split(flag: str, text: str, convert, what: str) -> list:
    """The comma-separated values of an option; a bad one is named with its option."""
    return [_value(flag, token, convert, what, text) for token in text.split(",")]


def _cmd_approx_check(opts) -> int:
    q = opts["q"]
    dims = _split("--j", opts["j"], int, "an integer dimension")
    if len(set(dims)) < 2 or min(dims) < q:
        raise ValueError(f"--j needs two or more distinct dimensions, none below q={q}, got {opts['j']!r}")
    target = lambda t: np.sin(2.0 * np.pi * t)
    errors = []
    for J in dims:
        b = basis_mod.make_basis(q, J - q + 1)
        _, err = basis_mod.fit_coefficients(target, b, norm="linf")
        errors.append(err)
        print(f"J={J} sup_error={harness.fmt(err)}")
    slope = float(np.polyfit(np.log(dims), np.log(errors), 1)[0])
    print(f"log-log slope={harness.fmt(slope)} (target {-q})")
    return 0


def _cmd_rates(opts) -> int:
    alpha = tuple(_split("--alpha", opts["alpha"], Fraction, "a fraction"))
    n_grid = _split("--n-grid", opts["n-grid"], float, "a number")

    def fraction(flag):
        return _value(flag, opts[flag[2:]], Fraction, "a fraction")

    t2, t3 = fraction("--t2"), fraction("--t3")
    problem = RateProblem(
        basis_family=opts["family"],
        alpha=alpha if len(alpha) > 1 else alpha[0],
        s=len(alpha) if opts["s"] is None else opts["s"],
        t1=t2 if opts["t1"] is None else fraction("--t1"),
        t2=t2,
        t3=t3,
        r=float("inf") if opts["r"] == "inf" else 2,
    )
    result: RateResult = rate_exponents(problem)
    print(f"gamma={result.poly_exp} delta={result.log_exp}")
    if opts["sieve-csv"]:
        consts = SieveConstants(c1=opts["c1"], c3=opts["c3"], C0=opts["C0"], b=opts["b"])
        certified = solve_sieve(problem, consts, n_grid)
        harness.write_table(
            opts["sieve-csv"],
            ("n", "j_bar", "j", "eps_bar", "eps", "m", "all_hold"),
            [(r.n, r.j_bar, r.j, r.eps_bar, r.eps, r.m, int(r.all_hold)) for r in certified.sieve],
        )
        print(f"certified_from={certified.certified_from!r} sieve table in {opts['sieve-csv']}")
    return 0


def _read_curves(path):
    """Header row of grid times, then one curve per row, all rows of one length."""
    rows = harness.read_rows(path)
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row of grid times and at least one curve row")
    width = len(rows[1][1])
    for lineno, row in rows[2:]:
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: curve row has {len(row)} values, the first has {width}")
    return np.asarray(rows[0][1]), np.asarray([row for _, row in rows[1:]])


def _cmd_funreg(opts) -> int:
    model_prior = _model_prior(opts)
    tgrid = harness.metric_grid(opts["grid"])
    z = _band_z(opts["level"])  # no floor: beta(t) may be negative
    grid, curves = _read_curves(opts["curves"])
    if opts["responses"]:
        responses = harness.read_observations(opts["responses"])
    else:
        responses = curves[:, -1]
        curves = curves[:, :-1]
        if curves.shape[1] != grid.size:
            raise ValueError("with responses in the last column, curve rows need one extra value")
    data = FunctionalDataset(grid=grid, curves=curves, responses=responses)
    bases = bases_for_prior(opts["q"], model_prior)
    designs = design_matrices(data, bases)
    post = gaussian_fit(
        designs, data.responses, model_prior, g=opts["theta.g"], a=opts["theta.a"], b=opts["theta.b"]
    )
    coef_designs = {j: cols.T for j, cols in basis_mod.grid_columns(bases, tgrid).items()}
    mean, var = gaussian_function_moments(post, coef_designs)
    sd = np.sqrt(np.maximum(var, 0.0))
    out = Path(opts["output"])
    harness.write_table(
        out,
        ("x", "mean", "sd", "band_low", "band_high", "mc_se"),
        zip(tgrid, mean, sd, mean - z * sd, mean + z * sd, np.zeros_like(mean)),
    )
    harness.write_j_table(out.with_name(out.stem + "_j.csv"), post.j_values, post.j_weights)
    print(f"wrote {out}")
    if opts["predict"]:
        pgrid, pcurves = _read_curves(opts["predict"])
        pdata = FunctionalDataset(grid=pgrid, curves=pcurves, responses=np.zeros(pcurves.shape[0]))
        pdesigns = design_matrices(pdata, bases)
        pmean, pvar = gaussian_predict(post, pdesigns)
        harness.write_table(
            opts["predictions"], ("id", "mean", "sd"),
            zip(range(pmean.size), pmean, np.sqrt(np.maximum(pvar, 0.0))),
        )
        print(f"wrote {opts['predictions']}")
    return 0


def _read_two_columns(path):
    """z,x per line."""
    rows = harness.read_rows(path, width=2)
    if not rows:
        raise ValueError(f"{path}: no z,x rows")
    arr = np.asarray([row for _, row in rows])
    return arr[:, 0], arr[:, 1]


def _cmd_glm(opts) -> int:
    kind = opts["kind"]
    model_prior = _model_prior(opts)
    _band_z(opts["level"])  # refuse a bad level before the input is read
    z, x = _read_two_columns(opts["input"])
    data = RegressionDataset(z, x, kind=kind)
    bases = bases_for_prior(opts["q"], model_prior)
    zgrid = harness.metric_grid(opts["grid"])
    fn = binary_moment if kind == "binary" else poisson_moment
    summary = fn(
        data, bases, (opts["theta.a"], opts["theta.b"]), model_prior, zgrid, m=2,
        mode=opts["mode"], n_terms=opts["N"], seed=opts["seed"],
    )
    summary = credible_band(summary, opts["level"])  # a binary band stays inside [0, 1]
    out = Path(opts["output"])
    _write_summary_outputs(summary, out, out.with_name(out.stem + "_j.csv"))
    return 0


def _fit_options(p: _Command, q: int, j_max: int, sampled=True, prior_families=True) -> None:
    """The options every fitting subcommand shares."""
    p.opt("--q", type=int, default=q, help="spline order")
    p.opt("--grid", type=int, default=100, help="output grid size")
    p.opt("--level", type=float, default=0.95, help="credible band level")
    if sampled:
        p.opt("--mode", choices=("auto", "exact", "mc"), default="auto")
        p.opt("--N", type=int, default=3000, help="sampled term count in mc mode")
        p.opt("--seed", type=int, default=0)
    p.opt("--jmin", "J.min", type=int, default=5, help="smallest dimension")
    p.opt("--jmax", "J.max", type=int, default=j_max, help="largest dimension")
    p.opt("--p", "J.p", type=float, default=0.9, help="geometric or negative-binomial parameter")
    if prior_families:
        p.opt(None, "J.prior", choices=("geometric", "poisson", "negative-binomial"), default="geometric")
        p.opt(None, "J.lambda", type=float, default=10.0)
        p.opt(None, "J.r", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="series-prior",
        description="Random-series (B-spline) priors: MCMC-free posterior moments and rate tools",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)

    p = sub.add_parser("density-fit", help="fit the density posterior to a data file")
    _fit_options(p, q=3, j_max=25)
    p.add_argument("--input", required=True, help="one observation per line")
    p.add_argument("--rescale", action="store_true", help="min-max rescale data into [0,1]")
    p.opt("--a", "theta.a", type=float, default=1.0, help="Dirichlet parameter")
    p.opt("--output", default="density_summary.csv")
    p.opt("--j-table", help="J weights file (default: the output name with _j)")
    p.set_defaults(func=_cmd_density_fit)

    p = sub.add_parser("simulate", help="replicate the reference simulation")
    # The experiment's model prior is geometric (ExperimentConfig.geometric_p).
    _fit_options(p, q=1, j_max=25, prior_families=False)
    p.opt("--density", choices=("beta-half", "mixture-51"), default="mixture-51")
    p.opt("--n", type=int, default=20)
    p.opt("--reps", type=int, default=25)
    p.opt("--outdir", default=".")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("approx-check", help="spline approximation-rate check")
    p.opt("--q", type=int, default=3, help="spline order")
    p.opt("--j", default="8,16,32,64,128", help="comma-separated dimensions")
    p.set_defaults(func=_cmd_approx_check)

    p = sub.add_parser("rates", help="contraction-rate exponents and sieve certification")
    p.opt("--family", default="bspline")
    p.opt("--alpha", default="1", help="smoothness; comma-separated for tensor")
    p.opt("--s", type=int, help="dimension (default: the number of alpha values)")
    p.opt("--t1", help="(default: t2)")
    p.opt("--t2", default="0")
    p.opt("--t3", default="1")
    p.opt("--r", choices=("2", "inf"), default="2")
    p.opt("--sieve-csv", help="write the certified sieve table here")
    p.opt("--n-grid", default="1e4,1e5,1e6,1e7,1e8")
    for name in ("--c1", "--c3", "--C0", "--b"):
        p.opt(name, type=float, default=1.0)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("funreg", help="scalar-on-function Gaussian regression")
    _fit_options(p, q=3, j_max=15, sampled=False)  # the Gaussian fit is closed-form
    p.add_argument("--curves", required=True, help="header row of grid times, one curve per row")
    p.opt("--responses", help="one response per line (omit if last column)")
    p.opt("--g", "theta.g", type=float, help="g-prior scale (default: n)")
    p.opt("--a", "theta.a", type=float, default=1.0, help="inverse-gamma shape")
    p.opt("--b", "theta.b", type=float, default=1.0, help="inverse-gamma scale")
    p.opt("--predict", help="curves file for held-out predictions")
    p.opt("--predictions", default="predictions.csv")
    p.opt("--output", default="funreg_beta.csv")
    p.set_defaults(func=_cmd_funreg)

    for name, kind in (("binreg", "binary"), ("poisreg", "poisson")):
        p = sub.add_parser(name, help=f"identity-link {kind} regression")
        _fit_options(p, q=2, j_max=15)
        p.add_argument("--input", required=True, help="z,x per line")
        p.opt("--a", "theta.a", type=float, default=1.0)
        p.opt("--b", "theta.b", type=float, default=1.0)
        p.opt("--output", default=f"{kind}_summary.csv")
        p.set_defaults(func=_cmd_glm, kind=kind)

    return parser


def cli(argv=None) -> int:
    try:
        opts = vars(build_parser().parse_args(argv))
        return opts["func"](opts)
    except SystemExit as exc:  # a usage error, or --help
        return int(exc.code or 0)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()

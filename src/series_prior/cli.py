"""Command-line front end.

Subcommands: density-fit, simulate, approx-check, rates, funreg, binreg,
poisreg. Every flag can also come from a --config file of key=value lines
(flags override the file). Exit codes: 0 success, 2 usage error, 1 runtime
error. Numeric output is full-precision decimal (round-trip repr).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import basis as basis_mod
from . import harness
from .density import DensityDataset, credible_band, bases_for_prior
from .priors import ModelSizePrior, priors_from_config
from .rates import RateProblem, RateResult, SieveConstants, rate_exponents, solve_sieve
from .regression import (
    FunctionalDataset,
    RegressionDataset,
    binary_moment,
    design_matrix,
    gaussian_fit,
    gaussian_predict,
    poisson_moment,
)


def _add_prior_flags(p: argparse.ArgumentParser, jmin: int, jmax: int) -> None:
    p.add_argument("--jmin", type=int, default=None, help=f"smallest dimension (default {jmin})")
    p.add_argument("--jmax", type=int, default=None, help=f"largest dimension (default {jmax})")
    p.add_argument("--p", type=float, default=None, help="geometric prior parameter")


def _config_get(cfg: dict, flag_value, key: str, cast, default):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cast(cfg[key])
    return default


def _model_prior(args, cfg, jmin_default, jmax_default, p_default=0.9) -> ModelSizePrior:
    j_min = _config_get(cfg, args.jmin, "J.min", int, jmin_default)
    j_max = _config_get(cfg, args.jmax, "J.max", int, jmax_default)
    p = _config_get(cfg, getattr(args, "p", None), "J.p", float, p_default)
    if cfg.get("J.prior", "geometric") != "geometric":
        model, _ = priors_from_config({**cfg, "J.min": str(j_min), "J.max": str(j_max)})
        return model
    return ModelSizePrior.geometric(p, j_min, j_max)


def _write_summary_outputs(summary, output, j_table):
    harness.write_summary(output, summary)
    harness.write_j_table(j_table, summary.j_values, summary.j_weights)
    print(f"wrote {output} and {j_table}")


def _cmd_density_fit(args, cfg) -> int:
    q = _config_get(cfg, args.q, "q", int, 3)
    grid_size = _config_get(cfg, args.grid, "grid", int, 100)
    a = _config_get(cfg, args.a, "theta.a", float, 1.0)
    n_terms = _config_get(cfg, args.N, "N", int, 3000)
    seed = _config_get(cfg, args.seed, "seed", int, 0)
    mode = _config_get(cfg, args.mode, "mode", str, "auto")
    level = _config_get(cfg, args.level, "level", float, 0.95)
    model_prior = _model_prior(args, cfg, 5, 25)
    obs = harness.read_observations(args.input)
    data = DensityDataset.from_array(obs, rescale=args.rescale)
    summary = harness.fit_density(
        data, q, model_prior, a=a, grid=harness.metric_grid(grid_size),
        n_terms=n_terms, seed=seed, mode=mode, level=level,
    )
    out = Path(args.output or "density_summary.csv")
    _write_summary_outputs(summary, out, Path(args.j_table or out.with_name(out.stem + "_j.csv")))
    return 0


def _cmd_simulate(args, cfg) -> int:
    config = harness.ExperimentConfig(
        density=_config_get(cfg, args.density, "density", str, "mixture-51"),
        n=_config_get(cfg, args.n, "n", int, 20),
        q=_config_get(cfg, args.q, "q", int, 1),
        replications=_config_get(cfg, args.reps, "reps", int, 25),
        n_terms=_config_get(cfg, args.N, "N", int, 3000),
        seed=_config_get(cfg, args.seed, "seed", int, 0),
        j_min=_config_get(cfg, args.jmin, "J.min", int, 5),
        j_max=_config_get(cfg, args.jmax, "J.max", int, 25),
        geometric_p=_config_get(cfg, args.p, "J.p", float, 0.9),
        grid_size=_config_get(cfg, args.grid, "grid", int, 100),
        level=_config_get(cfg, args.level, "level", float, 0.95),
        mode=_config_get(cfg, args.mode, "mode", str, "auto"),
        output_dir=args.outdir or cfg.get("outdir", "."),
    )
    result = harness.run_experiment(config)
    print(
        f"density={config.density} n={config.n} q={config.q} reps={config.replications} "
        f"l1={harness.fmt(result.l1_mean)} (se {harness.fmt(result.l1_se)}) "
        f"l2={harness.fmt(result.l2_mean)} (se {harness.fmt(result.l2_se)})"
    )
    print(f"metrics written under {config.output_dir}")
    return 0


def _cmd_approx_check(args, cfg) -> int:
    q = _config_get(cfg, args.q, "q", int, 3)
    dims = [int(v) for v in (args.j or cfg.get("j", "8,16,32,64,128")).split(",")]
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


def _parse_alpha(text: str):
    return tuple(Fraction(part) for part in text.split(","))


def _cmd_rates(args, cfg) -> int:
    alpha = _parse_alpha(_config_get(cfg, args.alpha, "alpha", str, "1"))
    problem = RateProblem(
        basis_family=_config_get(cfg, args.family, "family", str, "bspline"),
        alpha=alpha if len(alpha) > 1 else alpha[0],
        s=_config_get(cfg, args.s, "s", int, len(alpha) if len(alpha) > 1 else 1),
        t1=Fraction(_config_get(cfg, args.t1, "t1", str, _config_get(cfg, args.t2, "t2", str, "0"))),
        t2=Fraction(_config_get(cfg, args.t2, "t2", str, "0")),
        t3=Fraction(_config_get(cfg, args.t3, "t3", str, "1")),
        r=float("inf") if _config_get(cfg, args.r, "r", str, "2") == "inf" else 2,
    )
    result: RateResult = rate_exponents(problem)
    print(f"gamma={result.poly_exp} delta={result.log_exp}")
    if args.sieve_csv:
        n_grid = [float(v) for v in (args.n_grid or "1e4,1e5,1e6,1e7,1e8").split(",")]
        consts = SieveConstants(
            c1=_config_get(cfg, args.c1, "c1", float, 1.0),
            c3=_config_get(cfg, args.c3, "c3", float, 1.0),
            C0=_config_get(cfg, args.C0, "C0", float, 1.0),
            b=_config_get(cfg, args.b, "b", float, 1.0),
        )
        certified = solve_sieve(problem, consts, n_grid)
        with Path(args.sieve_csv).open("w") as fh:
            fh.write("n,j_bar,j,eps_bar,eps,m,all_hold\n")
            for row in certified.sieve:
                fh.write(
                    f"{row.n!r},{row.j_bar},{row.j},{row.eps_bar!r},{row.eps!r},{row.m!r},"
                    f"{int(row.all_hold)}\n"
                )
        print(f"certified_from={certified.certified_from!r} sieve table in {args.sieve_csv}")
    return 0


def _read_curves(path):
    """Header row of grid times, then one curve per row, all rows of one length."""
    lines = harness.data_lines(path)
    if len(lines) < 2:
        raise ValueError(f"{path}: need a header row of grid times and at least one curve row")
    grid = np.asarray(harness.line_numbers(path, *lines[0]))
    rows = [harness.line_numbers(path, i, ln) for i, ln in lines[1:]]
    for (lineno, _), row in zip(lines[1:], rows):
        if len(row) != len(rows[0]):
            raise ValueError(
                f"{path}:{lineno}: curve row has {len(row)} values, the first has {len(rows[0])}"
            )
    return grid, np.asarray(rows)


def _cmd_funreg(args, cfg) -> int:
    q = _config_get(cfg, args.q, "q", int, 3)
    g = _config_get(cfg, args.g, "theta.g", float, None)
    a = _config_get(cfg, args.a, "theta.a", float, 1.0)
    b = _config_get(cfg, args.b, "theta.b", float, 1.0)
    grid_size = _config_get(cfg, args.grid, "grid", int, 100)
    level = _config_get(cfg, args.level, "level", float, 0.95)
    model_prior = _model_prior(args, cfg, 5, 15)
    grid, curves = _read_curves(args.curves)
    if args.responses:
        responses = harness.read_observations(args.responses)
    else:
        responses = curves[:, -1]
        curves = curves[:, :-1]
        if curves.shape[1] != grid.size:
            raise ValueError("with responses in the last column, curve rows need one extra value")
    data = FunctionalDataset(grid=grid, curves=curves, responses=responses)
    bases = bases_for_prior(q, model_prior)
    designs = {j: design_matrix(data, basis) for j, basis in bases.items()}
    post = gaussian_fit(designs, data.responses, model_prior, g=g, a=a, b=b)
    tgrid = harness.metric_grid(grid_size)
    coef_designs = {j: basis_mod.eval_basis(bases[j], tgrid) for j in bases}
    mean, var = gaussian_predict(post, coef_designs)
    z = ndtri(0.5 + level / 2.0)
    sd = np.sqrt(np.maximum(var, 0.0))
    out = Path(args.output or "funreg_beta.csv")
    with out.open("w") as fh:
        fh.write("x,mean,sd,band_low,band_high,mc_se\n")
        for i, x in enumerate(tgrid):
            fields = (x, mean[i], sd[i], mean[i] - z * sd[i], mean[i] + z * sd[i], 0.0)
            fh.write(",".join(harness.fmt(v) for v in fields) + "\n")
    harness.write_j_table(out.with_name(out.stem + "_j.csv"), post.j_values, post.j_weights)
    print(f"wrote {out}")
    if args.predict:
        pgrid, pcurves = _read_curves(args.predict)
        pdata = FunctionalDataset(grid=pgrid, curves=pcurves, responses=np.zeros(pcurves.shape[0]))
        pdesigns = {j: design_matrix(pdata, bases[j]) for j in bases}
        pmean, pvar = gaussian_predict(post, pdesigns)
        pred_path = Path(args.predictions or "predictions.csv")
        with pred_path.open("w") as fh:
            fh.write("id,mean,sd\n")
            for i, (mu, v) in enumerate(zip(pmean, pvar)):
                fh.write(f"{i},{harness.fmt(mu)},{harness.fmt(np.sqrt(max(v, 0.0)))}\n")
        print(f"wrote {pred_path}")
    return 0


def _read_two_columns(path):
    """z,x per line."""
    lines = harness.data_lines(path)
    if not lines:
        raise ValueError(f"{path}: no z,x rows")
    rows = []
    for lineno, line in lines:
        row = harness.line_numbers(path, lineno, line)
        if len(row) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns z,x, got {line!r}")
        rows.append(row)
    arr = np.asarray(rows)
    return arr[:, 0], arr[:, 1]


def _cmd_glm(args, cfg, kind: str) -> int:
    q = _config_get(cfg, args.q, "q", int, 2)
    a = _config_get(cfg, args.a, "theta.a", float, 1.0)
    b = _config_get(cfg, args.b, "theta.b", float, 1.0)
    grid_size = _config_get(cfg, args.grid, "grid", int, 100)
    n_terms = _config_get(cfg, args.N, "N", int, 3000)
    seed = _config_get(cfg, args.seed, "seed", int, 0)
    mode = _config_get(cfg, args.mode, "mode", str, "auto")
    level = _config_get(cfg, args.level, "level", float, 0.95)
    model_prior = _model_prior(args, cfg, 5, 15)
    z, x = _read_two_columns(args.input)
    data = RegressionDataset(z, x, kind=kind)
    bases = bases_for_prior(q, model_prior)
    zgrid = harness.metric_grid(grid_size)
    fn = binary_moment if kind == "binary" else poisson_moment
    summary = fn(
        data, bases, (a, b), model_prior, zgrid, m=2, mode=mode, n_terms=n_terms, seed=seed
    )
    summary = credible_band(summary, level)
    if kind == "binary":  # a success probability's band stays inside [0, 1]
        summary = replace(summary, band_high=np.minimum(summary.band_high, 1.0))
    out = Path(args.output or f"{kind}_summary.csv")
    _write_summary_outputs(summary, out, out.with_name(out.stem + "_j.csv"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="series-prior",
        description="Random-series (B-spline) priors: MCMC-free posterior moments and rate tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_prior=True, jmin=5, jmax=25):
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--mode", choices=("auto", "exact", "mc"), default=None)
        p.add_argument("--N", type=int, default=None, help="sampled term count in mc mode")
        p.add_argument("--level", type=float, default=None)
        if with_prior:
            _add_prior_flags(p, jmin, jmax)

    p = sub.add_parser("density-fit", help="fit the density posterior to a data file")
    common(p)
    p.add_argument("--input", required=True, help="one observation per line")
    p.add_argument("--a", type=float, default=None, help="Dirichlet parameter")
    p.add_argument("--rescale", action="store_true", help="min-max rescale data into [0,1]")
    p.add_argument("--output", default=None)
    p.add_argument("--j-table", dest="j_table", default=None)
    p.set_defaults(func=_cmd_density_fit)

    p = sub.add_parser("simulate", help="replicate the reference simulation")
    common(p)
    p.add_argument("--density", choices=("beta-half", "mixture-51"), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("approx-check", help="spline approximation-rate check")
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--j", default=None, help="comma-separated dimensions")
    p.set_defaults(func=_cmd_approx_check)

    p = sub.add_parser("rates", help="contraction-rate exponents and sieve certification")
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--family", default=None)
    p.add_argument("--alpha", default=None, help="smoothness; comma-separated for tensor")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t1", default=None)
    p.add_argument("--t2", default=None)
    p.add_argument("--t3", default=None)
    p.add_argument("--r", choices=("2", "inf"), default=None)
    p.add_argument("--sieve-csv", dest="sieve_csv", default=None)
    p.add_argument("--n-grid", dest="n_grid", default=None)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c3", type=float, default=None)
    p.add_argument("--C0", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("funreg", help="scalar-on-function Gaussian regression")
    common(p, jmin=5, jmax=15)
    p.add_argument("--curves", required=True, help="header row of grid times, one curve per row")
    p.add_argument("--responses", default=None, help="one response per line (omit if last column)")
    p.add_argument("--g", type=float, default=None, help="g-prior scale (default n)")
    p.add_argument("--a", type=float, default=None, help="inverse-gamma shape")
    p.add_argument("--b", type=float, default=None, help="inverse-gamma scale")
    p.add_argument("--predict", default=None, help="curves file for held-out predictions")
    p.add_argument("--predictions", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_funreg)

    for name, kind in (("binreg", "binary"), ("poisreg", "poisson")):
        p = sub.add_parser(name, help=f"identity-link {kind} regression")
        common(p, jmin=5, jmax=15)
        p.add_argument("--input", required=True, help="z,x per line")
        p.add_argument("--a", type=float, default=None)
        p.add_argument("--b", type=float, default=None)
        p.add_argument("--output", default=None)
        p.set_defaults(func=lambda args, cfg, kind=kind: _cmd_glm(args, cfg, kind))

    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = {}
    if getattr(args, "config", None):
        try:
            cfg = harness.read_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        return args.func(args, cfg)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())

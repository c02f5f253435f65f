import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from series_prior.basis import eval_basis
from series_prior.cli import cli
from series_prior.density import bases_for_prior, credible_band
from series_prior.harness import ExperimentConfig, run_experiment
from series_prior.priors import ModelSizePrior
from series_prior.regression import FunctionalDataset, design_matrix, gaussian_fit


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRates:
    def test_example_exponents(self, capsys):
        code, out, _ = run(capsys, "rates", "--family", "fourier", "--alpha", "1", "--t2", "0")
        assert code == 0
        assert "gamma=1/3 delta=5/6" in out

    def test_tensor_alpha_vector(self, capsys):
        code, out, _ = run(capsys, "rates", "--family", "tensor-bspline", "--alpha", "1,1")
        assert code == 0
        assert "gamma=1/4" in out

    def test_sieve_csv(self, capsys, tmp_path):
        path = tmp_path / "sieve.csv"
        code, out, _ = run(
            capsys, "rates", "--family", "bspline", "--alpha", "1",
            "--sieve-csv", str(path), "--n-grid", "1e6",
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,j_bar,j,eps_bar,eps,m,all_hold"
        assert lines[1].endswith(",1")

    def test_out_of_range_is_runtime_error(self, capsys):
        code, _, err = run(capsys, "rates", "--family", "bernstein", "--alpha", "3")
        assert code == 1
        assert "error" in err

    def test_bad_alpha_named(self, capsys):
        code, out, err = run(capsys, "rates", "--alpha", "1,x")
        assert code == 1
        assert "--alpha" in err and "'x'" in err and "gamma" not in out

    @pytest.mark.parametrize("flag, token", [("--t2", "1/0"), ("--t3", "x"), ("--t1", "1/2/3")])
    def test_bad_exponent_named(self, capsys, flag, token):
        code, out, err = run(capsys, "rates", flag, token)
        assert code == 1
        assert err.splitlines() == [f"error: {flag}: {token!r} is not a fraction"]
        assert "gamma" not in out

    def test_bad_n_grid_named(self, capsys, tmp_path):
        path = tmp_path / "sieve.csv"
        code, out, err = run(capsys, "rates", "--sieve-csv", str(path), "--n-grid", "1e4,x")
        assert code == 1
        assert "--n-grid" in err and "'x'" in err and "gamma" not in out
        assert not path.exists()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "density-fit")[0] == 2

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "density-fit", "--input", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "error" in err


class TestDensityFit:
    def test_summary_files_written(self, capsys, tmp_path):
        obs = np.random.default_rng(0).random(12)
        inp = tmp_path / "obs.txt"
        inp.write_text("".join(f"{v}\n" for v in obs))
        out = tmp_path / "fit.csv"
        code, _, _ = run(
            capsys, "density-fit", "--input", str(inp), "--q", "3", "--N", "400",
            "--jmin", "5", "--jmax", "8", "--grid", "25", "--seed", "3",
            "--output", str(out),
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "x,mean,sd,band_low,band_high,mc_se"
        assert len(out.read_text().strip().splitlines()) == 26
        jt = tmp_path / "fit_j.csv"
        weights = np.loadtxt(jt, delimiter=",", skiprows=1)
        assert abs(weights[:, 1].sum() - 1.0) < 1e-9

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        obs = np.random.default_rng(1).random(8)
        inp = tmp_path / "obs.txt"
        inp.write_text("".join(f"{v}\n" for v in obs))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=1\nJ.min=5\nJ.max=9\ngrid=10\nseed=4\n")
        out = tmp_path / "a.csv"
        code, _, _ = run(
            capsys, "density-fit", "--config", str(cfg), "--input", str(inp),
            "--grid", "12", "--output", str(out),
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 13  # flag overrides config

    def test_negative_seed_named(self, capsys, tmp_path):
        inp = tmp_path / "obs.txt"
        inp.write_text("".join(f"{v}\n" for v in np.random.default_rng(2).random(8)))
        out = tmp_path / "fit.csv"
        code, _, err = run(
            capsys, "density-fit", "--input", str(inp), "--seed", "-3", "--mode", "mc", "--output", str(out),
        )
        assert code == 1
        assert err.startswith("error: ") and "seed" in err
        assert not out.exists()


class TestSimulate:
    def test_metrics_written(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "simulate", "--density", "mixture-51", "--q", "1", "--n", "20",
            "--reps", "5", "--seed", "7", "--outdir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "metrics_summary.csv").exists()
        assert "l1=" in out

    def test_level_sets_band(self, capsys, tmp_path):
        argv = ["simulate", "--q", "1", "--n", "20", "--reps", "1", "--seed", "7"]
        fit = run_experiment(ExperimentConfig(n=20, q=1, replications=1, seed=7)).summaries[0]
        bands = {}
        for level in ("0.5", "0.99"):
            code, _, _ = run(capsys, *argv, "--level", level, "--outdir", str(tmp_path / level))
            assert code == 0
            rows = np.loadtxt(tmp_path / level / "summary_rep0.csv", delimiter=",", skiprows=1)
            want = credible_band(fit, float(level))
            np.testing.assert_array_equal(rows[:, 3], want.band_low)
            np.testing.assert_array_equal(rows[:, 4], want.band_high)
            bands[level] = rows[:, 3:5]
        assert not np.array_equal(bands["0.5"], bands["0.99"])

    @pytest.mark.parametrize("flag, value", [("--level", "1.5"), ("--level", "0"), ("--n", "0"), ("--n", "-3")])
    def test_bad_level_or_n_refused_before_any_output(self, capsys, tmp_path, flag, value):
        code, _, err = run(capsys, "simulate", "--reps", "1", flag, value, "--outdir", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and ("level" in err if flag == "--level" else "n=" in err)
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "argv", [["--q", "0"], ["--density", "beta-half", "--q", "5", "--jmin", "2", "--jmax", "4"]]
    )
    def test_bad_order_refused_before_any_output(self, capsys, tmp_path, argv):
        code, _, err = run(capsys, "simulate", "--reps", "1", *argv, "--outdir", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and "q=" in err
        assert not (tmp_path / "metrics.csv").exists()

    def test_negative_seed_refused_before_any_output(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--seed", "-1", "--reps", "2", "--n", "10", "--outdir", str(tmp_path))
        assert code == 1
        assert err.startswith("error: ") and "seed" in err
        assert not (tmp_path / "metrics.csv").exists()


class TestApproxCheck:
    def test_slope_printed(self, capsys):
        code, out, _ = run(capsys, "approx-check", "--q", "2", "--j", "8,16,32")
        assert code == 0
        assert "slope=-2." in out

    def test_one_dimension_is_refused(self, capsys):
        code, out, err = run(capsys, "approx-check", "--j", "8")
        assert code == 1
        assert "--j" in err and "slope" not in out

    def test_bad_dimension_named(self, capsys):
        code, out, err = run(capsys, "approx-check", "--j", "x,3")
        assert code == 1
        assert "--j" in err and "'x'" in err and "slope" not in out

    def test_dimension_below_order_is_refused(self, capsys):
        code, _, err = run(capsys, "approx-check", "--j", "2,8", "--q", "3")
        assert code == 1
        assert "--j" in err and "q=3" in err


class TestRegressionCommands:
    def test_binreg(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        z = rng.random(20)
        x = (rng.random(20) < 0.5).astype(int)
        inp = tmp_path / "zx.txt"
        inp.write_text("".join(f"{a},{b}\n" for a, b in zip(z, x)))
        out = tmp_path / "bin.csv"
        code, _, _ = run(
            capsys, "binreg", "--input", str(inp), "--q", "1", "--jmin", "5",
            "--jmax", "7", "--grid", "10", "--output", str(out),
        )
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] >= 0.0) and np.all(rows[:, 1] <= 1.0)

    def test_binreg_band_capped_at_one(self, capsys, tmp_path):
        # Mostly successes: the exact q=2 mean + 1.96 sd passes 1 at most grid points.
        rng = np.random.default_rng(1)
        z = rng.random(10)
        x = (rng.random(10) < 0.8).astype(int)
        inp = tmp_path / "zx.txt"
        inp.write_text("".join(f"{a},{b}\n" for a, b in zip(z, x)))
        out = tmp_path / "bin.csv"
        code, _, _ = run(
            capsys, "binreg", "--input", str(inp), "--q", "2", "--mode", "exact", "--output", str(out),
        )
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        mean, sd, high = rows[:, 1], rows[:, 2], rows[:, 4]
        assert np.any(mean + 1.96 * sd > 1.0)
        assert np.all(high <= 1.0) and np.all(high >= mean)

    def test_poisreg(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        z = rng.random(15)
        x = rng.poisson(2.0, 15)
        inp = tmp_path / "zx.txt"
        inp.write_text("".join(f"{a},{b}\n" for a, b in zip(z, x)))
        out = tmp_path / "poi.csv"
        code, _, _ = run(
            capsys, "poisreg", "--input", str(inp), "--q", "1", "--jmin", "5",
            "--jmax", "7", "--grid", "10", "--mode", "exact", "--output", str(out),
        )
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] >= 0.0)

    def test_funreg_with_predictions(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        grid = np.linspace(0, 1, 40)
        beta = np.sin(2 * np.pi * grid) + 1.0

        def curves_block(n):
            rows = []
            for _ in range(n):
                z = rng.standard_normal() + np.sin(np.pi * grid * (1 + rng.random()))
                rows.append(z)
            return np.asarray(rows)

        ztr = curves_block(30)
        xtr = np.trapezoid(ztr * beta, grid, axis=1) + 0.05 * rng.standard_normal(30)
        train = tmp_path / "curves.txt"
        with train.open("w") as fh:
            fh.write(" ".join(map(str, grid)) + "\n")
            for row, resp in zip(ztr, xtr):
                fh.write(" ".join(map(str, row)) + f" {resp}\n")
        zte = curves_block(5)
        test = tmp_path / "new_curves.txt"
        with test.open("w") as fh:
            fh.write(" ".join(map(str, grid)) + "\n")
            for row in zte:
                fh.write(" ".join(map(str, row)) + "\n")
        out = tmp_path / "beta.csv"
        preds = tmp_path / "preds.csv"
        code, _, _ = run(
            capsys, "funreg", "--curves", str(train), "--q", "3", "--jmin", "5",
            "--jmax", "8", "--output", str(out), "--predict", str(test),
            "--predictions", str(preds),
        )
        assert code == 0
        assert out.exists()
        rows = np.loadtxt(preds, delimiter=",", skiprows=1)
        assert rows.shape == (5, 3)
        truth = np.trapezoid(zte * beta, grid, axis=1)
        assert np.sqrt(np.mean((rows[:, 1] - truth) ** 2)) < 1.0

    def test_funreg_band_is_the_spread_of_beta(self, capsys, tmp_path):
        # The sd column is the posterior sd of beta(t) = theta' B(t), without the noise
        # variance: compare it with the spread of beta(t) over posterior draws of
        # (J, sigma^2, theta).
        rng = np.random.default_rng(4)
        grid = np.linspace(0, 1, 25)
        curves = np.cumsum(0.3 * rng.standard_normal((60, grid.size)), axis=1)
        responses = np.trapezoid(curves * (1.0 + np.sin(2 * np.pi * grid)), grid, axis=1)
        responses += 0.5 * rng.standard_normal(60)
        path = tmp_path / "curves.txt"
        path.write_text(
            " ".join(map(repr, grid.tolist())) + "\n"
            + "".join(" ".join(map(repr, row.tolist())) + "\n" for row in curves)
        )
        resp = tmp_path / "resp.txt"
        resp.write_text("".join(f"{v!r}\n" for v in responses.tolist()))
        out = tmp_path / "beta.csv"
        code, _, _ = run(
            capsys, "funreg", "--curves", str(path), "--responses", str(resp), "--q", "3",
            "--jmin", "5", "--jmax", "9", "--grid", "20", "--output", str(out),
        )
        assert code == 0
        written = np.loadtxt(out, delimiter=",", skiprows=1)

        model_prior = ModelSizePrior.geometric(0.9, 5, 9)
        bases = bases_for_prior(3, model_prior)
        data = FunctionalDataset(grid=grid, curves=curves, responses=responses)
        post = gaussian_fit({j: design_matrix(data, b) for j, b in bases.items()}, responses, model_prior)
        draws = []
        counts = rng.multinomial(40_000, post.j_weights)
        for j, count in zip(post.j_values.tolist(), counts):
            sigma2 = post.sigma2_scale[j] / rng.gamma(post.sigma2_shape, size=count)
            chol = np.linalg.cholesky(post.coef_cov_base[j])
            z = rng.standard_normal((count, j)) @ chol.T
            theta = post.coef_mean[j] + np.sqrt(sigma2)[:, None] * z
            draws.append(theta @ eval_basis(bases[j], written[:, 0]).T)
        beta_draws = np.concatenate(draws)
        dev2 = (beta_draws - beta_draws.mean(axis=0)) ** 2
        sd = np.sqrt(dev2.mean(axis=0))
        root_m = np.sqrt(beta_draws.shape[0])
        sd_se = dev2.std(axis=0) / root_m / (2.0 * sd)  # delta method
        assert np.all(np.abs(written[:, 1] - beta_draws.mean(axis=0)) < 5.0 * sd / root_m)
        assert np.all(np.abs(written[:, 2] - sd) < 5.0 * sd_se)


@pytest.mark.parametrize("size", ["0", "-2"])
@pytest.mark.parametrize("command", ["density-fit", "binreg", "poisreg", "funreg"])
def test_empty_grid_refused_before_any_output(capsys, tmp_path, command, size):
    rng = np.random.default_rng(3)
    inp = tmp_path / "in.txt"
    if command == "density-fit":
        inp.write_text("".join(f"{v}\n" for v in rng.random(8)))
    elif command == "funreg":  # 12 grid times; each curve row ends with its response
        rows = [np.linspace(0.0, 1.0, 12), *rng.standard_normal((10, 13))]
        inp.write_text("".join(" ".join(map(repr, row.tolist())) + "\n" for row in rows))
    else:
        inp.write_text("".join(f"{a},{b}\n" for a, b in zip(rng.random(8), rng.integers(0, 2, 8))))
    flag = "--curves" if command == "funreg" else "--input"
    code, _, err = run(capsys, command, flag, str(inp), "--grid", size, "--output", str(tmp_path / "out.csv"))
    assert code == 1
    assert err.startswith("error: ") and f"grid size must be at least 1, got {size}" in err
    assert [p.name for p in tmp_path.iterdir()] == ["in.txt"]


class TestReaderErrors:
    """Malformed input files exit 1 with the file (and line) named, no traceback."""

    def _fails(self, capsys, path, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and str(path) in err
        return err

    def test_binreg_empty_file(self, capsys, tmp_path):
        inp = tmp_path / "zx.txt"
        inp.write_text("# no rows\n\n")
        self._fails(capsys, inp, "binreg", "--input", str(inp))

    def test_binreg_one_column_line(self, capsys, tmp_path):
        inp = tmp_path / "zx.txt"
        inp.write_text("0.1,1\n0.5\n")
        err = self._fails(capsys, inp, "binreg", "--input", str(inp))
        assert f"{inp}:2:" in err

    def test_binreg_bad_token(self, capsys, tmp_path):
        inp = tmp_path / "zx.txt"
        inp.write_text("0.1,1\n0.5,yes\n")
        err = self._fails(capsys, inp, "binreg", "--input", str(inp))
        assert f"{inp}:2:" in err

    def test_funreg_empty_file(self, capsys, tmp_path):
        inp = tmp_path / "curves.txt"
        inp.write_text("")
        self._fails(capsys, inp, "funreg", "--curves", str(inp))

    def test_funreg_ragged_rows(self, capsys, tmp_path):
        inp = tmp_path / "curves.txt"
        inp.write_text("0 0.5 1\n1 2 3 4\n# comment\n1 2 3\n")
        err = self._fails(capsys, inp, "funreg", "--curves", str(inp))
        assert f"{inp}:4:" in err

    def test_density_fit_empty_file(self, capsys, tmp_path):
        inp = tmp_path / "obs.txt"
        inp.write_text("\n# nothing\n")
        out = tmp_path / "fit.csv"
        self._fails(capsys, inp, "density-fit", "--input", str(inp), "--output", str(out))
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["0.4 0.6", "0.4,0.6", "half"])
    def test_density_fit_not_one_number(self, capsys, tmp_path, bad):
        inp = tmp_path / "obs.txt"
        inp.write_text(f"0.2\n{bad}\n")
        err = self._fails(capsys, inp, "density-fit", "--input", str(inp), "--output", str(tmp_path / "f.csv"))
        assert f"{inp}:2:" in err

    def test_density_fit_nan_observation(self, capsys, tmp_path):
        inp = tmp_path / "obs.txt"
        inp.write_text("0.2\nnan\n")
        code, _, err = run(capsys, "density-fit", "--input", str(inp), "--output", str(tmp_path / "f.csv"))
        assert code == 1 and "finite" in err


@pytest.fixture
def inputs(tmp_path):
    """One small input file per fitting subcommand."""
    rng = np.random.default_rng(11)
    paths = {name: tmp_path / f"{name}.txt" for name in ("obs", "binary", "poisson", "curves")}
    paths["obs"].write_text("".join(f"{v}\n" for v in rng.random(9)))
    z = rng.random(10)
    paths["binary"].write_text("".join(f"{a},{b}\n" for a, b in zip(z, (rng.random(10) < 0.5).astype(int))))
    paths["poisson"].write_text("".join(f"{a},{b}\n" for a, b in zip(z, rng.poisson(2.0, 10))))
    grid = np.linspace(0, 1, 12)
    rows = [np.sin(np.pi * grid * (1 + rng.random())) + rng.standard_normal() for _ in range(15)]
    with paths["curves"].open("w") as fh:
        fh.write(" ".join(map(str, grid)) + "\n")
        for row in rows:
            fh.write(" ".join(map(str, row)) + f" {row.mean() + 0.1 * rng.standard_normal()}\n")
    return paths


_PRIOR = {"J.min": ("--jmin", "4"), "J.max": ("--jmax", "7"), "J.p": ("--p", "0.6")}
_SAMPLED = {"N": ("--N", "40"), "seed": ("--seed", "3"), "mode": ("--mode", "mc")}
_FIT = {"q": ("--q", "2"), "grid": ("--grid", "15"), "level": ("--level", "0.8")}

# (argv with {d} for the run's output directory, {config key: (flag, value)},
#  config-only keys). Every key each subcommand takes, at values off its defaults.
_PARITY = {
    "density-fit": (
        ["density-fit", "--input", "{obs}", "--output", "{d}/fit.csv"],
        {**_FIT, **_SAMPLED, **_PRIOR, "theta.a": ("--a", "1.5")},
        {"J.prior": "geometric"},
    ),
    "density-fit-nb": (
        ["density-fit", "--input", "{obs}", "--output", "{d}/fit.csv"],
        # J.p at 0.5: without a config key, a negative-binomial prior took 0.5 whatever --p said
        {**_FIT, **_SAMPLED, **_PRIOR, "J.p": ("--p", "0.5")},
        {"J.prior": "negative-binomial", "J.r": "2.5"},
    ),
    "density-fit-poisson": (
        ["density-fit", "--input", "{obs}", "--output", "{d}/fit.csv"],
        {**_FIT, "mode": ("--mode", "exact"), "J.min": ("--jmin", "4"), "J.max": ("--jmax", "7")},
        {"J.prior": "poisson", "J.lambda": "6"},
    ),
    "simulate": (
        ["simulate"],
        {**_FIT, **_SAMPLED, **_PRIOR, "density": ("--density", "beta-half"), "n": ("--n", "12"),
         "reps": ("--reps", "2"), "outdir": ("--outdir", "{d}")},
        {},
    ),
    "funreg": (
        ["funreg", "--curves", "{curves}", "--output", "{d}/beta.csv"],
        {**_FIT, **_PRIOR, "theta.g": ("--g", "5"), "theta.a": ("--a", "2"), "theta.b": ("--b", "0.5")},
        {"J.prior": "poisson", "J.lambda": "5"},
    ),
    "binreg": (
        ["binreg", "--input", "{binary}", "--output", "{d}/bin.csv"],
        {**_FIT, **_SAMPLED, **_PRIOR, "J.p": ("--p", "0.5"), "theta.a": ("--a", "2"),
         "theta.b": ("--b", "0.5")},
        {"J.prior": "negative-binomial", "J.r": "2"},
    ),
    "poisreg": (
        ["poisreg", "--input", "{poisson}", "--output", "{d}/poi.csv"],
        {**_FIT, **_SAMPLED, **_PRIOR, "theta.a": ("--a", "2"), "theta.b": ("--b", "0.5")},
        {"J.prior": "geometric"},
    ),
    "rates": (
        ["rates", "--sieve-csv", "{d}/sieve.csv", "--n-grid", "1e5,1e7"],
        {"family": ("--family", "bspline"), "alpha": ("--alpha", "2"), "s": ("--s", "1"),
         "t1": ("--t1", "1"), "t2": ("--t2", "1"), "t3": ("--t3", "2"), "r": ("--r", "inf"),
         "c1": ("--c1", "1.5"), "c3": ("--c3", "2"), "C0": ("--C0", "0.5"), "b": ("--b", "3")},
        {},
    ),
    "approx-check": (["approx-check"], {"q": ("--q", "2"), "j": ("--j", "8,16")}, {}),
}


def _write_config(path, options):
    path.write_text("".join(f"{k}={v}\n" for k, v in options.items()))
    return str(path)


class TestConfigFile:
    @pytest.mark.parametrize("case", sorted(_PARITY))
    def test_config_equals_flags(self, capsys, tmp_path, inputs, case):
        argv, keyed, config_only = _PARITY[case]
        results = {}
        for how in ("config", "flags"):
            d = tmp_path / how
            d.mkdir()
            fill = lambda s: s.format(d=d, **inputs)
            cmd = [fill(a) for a in argv]
            if how == "config":
                options = {**{k: fill(v) for k, (_, v) in keyed.items()}, **config_only}
            else:
                options = config_only
                cmd += [fill(part) for flag, v in keyed.values() for part in (flag, v)]
            if options:
                cmd += ["--config", _write_config(tmp_path / f"{how}.cfg", options)]
            code, out, err = run(capsys, *cmd)
            assert code == 0, err
            files = {p.name: p.read_bytes() for p in d.iterdir() if p.name != "metrics.csv"}
            results[how] = (out.replace(str(d), "{d}"), files)
        assert results["config"][1] or case == "approx-check", "no output files written"
        assert results["config"] == results["flags"]

    @pytest.mark.parametrize("key", ["J.mni", "modee", "theta.prior"])
    def test_unknown_key_is_an_error(self, capsys, tmp_path, inputs, key):
        cfg = _write_config(tmp_path / "run.cfg", {"q": "2", key: "7"})
        out = tmp_path / "fit.csv"
        code, _, err = run(capsys, "density-fit", "--input", str(inputs["obs"]), "--config", cfg,
                           "--output", str(out))
        assert code == 1
        assert cfg in err and repr(key) in err
        assert not out.exists()

    def test_duplicate_key_is_an_error(self, capsys, tmp_path, inputs):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=2\ngrid=10\nq=3\n")
        code, _, err = run(capsys, "density-fit", "--input", str(inputs["obs"]), "--config", str(cfg),
                           "--output", str(tmp_path / "fit.csv"))
        assert code == 1
        assert f"{cfg}:3:" in err and "'q'" in err

    @pytest.mark.parametrize("key", ["J.prior", "J.lambda", "J.r"])
    def test_simulate_refuses_model_prior_families(self, capsys, tmp_path, key):
        # the simulation study's prior is geometric; other families were silently dropped
        value = {"J.prior": "poisson", "J.lambda": "3", "J.r": "2"}[key]
        cfg = _write_config(tmp_path / "run.cfg", {key: value})
        code, _, err = run(capsys, "simulate", "--n", "10", "--reps", "1", "--config", cfg,
                           "--outdir", str(tmp_path))
        assert code == 1
        assert cfg in err and repr(key) in err

    def test_p_flag_sets_negative_binomial_p(self, capsys, tmp_path, inputs):
        cfg = _write_config(tmp_path / "run.cfg", {"J.prior": "negative-binomial", "J.r": "2"})
        tables = {}
        for p in ("0.2", "0.8"):
            out = tmp_path / f"fit{p}.csv"
            code, _, err = run(capsys, "density-fit", "--input", str(inputs["obs"]), "--q", "1",
                               "--p", p, "--config", cfg, "--output", str(out))
            assert code == 0, err
            tables[p] = np.loadtxt(tmp_path / f"fit{p}_j.csv", delimiter=",", skiprows=1)[:, 1]
        assert not np.array_equal(tables["0.2"], tables["0.8"])
        # more mass on small J when the success probability is larger
        assert tables["0.8"][0] > tables["0.2"][0]

    @pytest.mark.parametrize("flag", [["--mode", "mc"], ["--N", "1"], ["--seed", "4"]])
    def test_funreg_has_no_sampling_flags(self, capsys, inputs, flag):
        assert run(capsys, "funreg", "--curves", str(inputs["curves"]), *flag)[0] == 2

    def test_config_value_outside_choices(self, capsys, tmp_path):
        cfg = _write_config(tmp_path / "run.cfg", {"r": "3"})
        assert run(capsys, "rates", "--r", "3")[0] == 2
        code, out, err = run(capsys, "rates", "--config", cfg)
        assert code == 1 and out == ""
        assert cfg in err and "r=" in err

    def test_unknown_model_prior_family_is_an_error(self, capsys, tmp_path, inputs):
        cfg = _write_config(tmp_path / "run.cfg", {"J.prior": "zeta"})
        code, _, err = run(capsys, "density-fit", "--input", str(inputs["obs"]), "--config", cfg,
                           "--output", str(tmp_path / "fit.csv"))
        assert code == 1
        assert cfg in err and "J.prior=" in err

    def test_config_value_of_wrong_type(self, capsys, tmp_path, inputs):
        cfg = _write_config(tmp_path / "run.cfg", {"J.max": "many"})
        code, _, err = run(capsys, "density-fit", "--input", str(inputs["obs"]), "--config", cfg,
                           "--output", str(tmp_path / "fit.csv"))
        assert code == 1
        assert cfg in err and "J.max" in err


def test_module_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "series_prior.cli", "--help"], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: series-prior")

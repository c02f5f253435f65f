import dataclasses
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

import series_prior
from series_prior import _engine, harness
from series_prior import basis as basis_mod
from series_prior.basis import local_values, make_basis
from series_prior.density import DensityDataset, bases_for_prior
from series_prior.harness import (
    ExperimentConfig,
    ExperimentResult,
    TrueDensity,
    beta_half,
    fit_density,
    get_density,
    grid_metrics,
    load_tecator,
    metric_grid,
    mixture_51,
    read_config,
    read_observations,
    run_experiment,
    sample_density,
    worker_count,
    write_summary,
)
from series_prior.priors import ModelSizePrior
from series_prior.quadrature import simpson_panel_rule
from series_prior.regression import RegressionDataset, binary_moment, poisson_moment


class TestTrueDensities:
    def test_mixture_normalizer_from_quadrature(self):
        m = mixture_51()
        pts, wts = simpson_panel_rule([0.0, 1.0], 10_000)
        assert abs(wts @ m.pdf(pts) - 1.0) < 1e-8
        assert np.all(m.pdf(metric_grid(10_000)) >= 0.0)

    def test_beta_half_integrates_to_one(self):
        val, _ = quad(beta_half().pdf, 0.0, 1.0, limit=200)
        assert abs(val - 1.0) < 1e-8

    def test_beta_half_matches_scipy(self):
        x = np.concatenate([
            np.linspace(0.0, 1.0, 10_001), np.geomspace(1e-300, 0.5, 500), 1.0 - np.geomspace(1e-16, 0.5, 500),
        ])
        want = beta_dist.pdf(x, 0.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = beta_half().pdf(x)
            outside = beta_half().pdf(np.array([-0.5, 1.5]))
        inner = np.isfinite(want)
        np.testing.assert_array_equal(got[~inner], want[~inner])  # inf at 0 and 1
        assert np.all(np.abs(got[inner] - want[inner]) <= 2e-15 * want[inner])
        np.testing.assert_array_equal(outside, [0.0, 0.0])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_density("cauchy")


class TestSampling:
    def test_beta_half_distribution(self):
        draws = sample_density(beta_half(), 100_000, 7).observations
        assert kstest(draws, beta_dist(0.5, 0.5).cdf).statistic < 0.01

    def test_mixture_matches_cdf(self):
        m = mixture_51()
        draws = sample_density(m, 50_000, 3).observations
        pts, wts = simpson_panel_rule([0.0, 1.0], 2000)
        cdf_vals = np.cumsum(wts * m.pdf(pts))

        def cdf(x):
            return np.interp(x, pts, cdf_vals)

        assert kstest(draws, cdf).statistic < 0.015

    def test_seeded_reproducibility(self):
        a = sample_density(mixture_51(), 500, 11).observations
        b = sample_density(mixture_51(), 500, 11).observations
        assert np.array_equal(a, b)

    def test_envelope_located_once_per_density(self):
        sizes = []

        def pdf(x):
            sizes.append(np.size(x))
            return mixture_51().pdf(x)

        d = TrueDensity("custom", 1.0, pdf)
        first = sample_density(d, 300, 4).observations
        assert sizes.count(10_001) == 1
        assert d.envelope == float(mixture_51().pdf(np.linspace(0.0, 1.0, 10_001)).max()) * (1.0 + 1e-3)
        np.testing.assert_array_equal(sample_density(d, 300, 4).observations, first)
        assert sizes.count(10_001) == 1

    def test_support_restricted(self):
        draws = sample_density(mixture_51(), 2000, 1).observations
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_broken_envelope_detected(self):
        spike = TrueDensity(
            "custom-spline", 1.0, lambda x: np.exp(-((x - 0.5) ** 2) / 2e-9) / np.sqrt(2e-9 * np.pi)
        )
        with pytest.raises(RuntimeError, match="acceptance rate"):
            sample_density(spike, 1000, 0)


class TestGridMetrics:
    def test_exact_estimate_scores_zero(self):
        m = mixture_51()
        grid = metric_grid(100)
        l1, l2 = grid_metrics(m.pdf(grid), m, grid)
        assert l1 == 0.0 and l2 == 0.0

    def test_constant_offset(self):
        m = mixture_51()
        grid = metric_grid(100)
        l1, l2 = grid_metrics(m.pdf(grid) + 0.1, m, grid)
        assert abs(l1 - 0.1) < 1e-12 and abs(l2 - 0.01) < 1e-12

    def test_uniform_estimate_against_quadrature(self):
        m = mixture_51()
        grid = metric_grid(100)
        l1, _ = grid_metrics(np.ones_like(grid), m, grid)
        pts, wts = simpson_panel_rule([0.0, 1.0], 10_000)
        integral = wts @ np.abs(1.0 - m.pdf(pts))
        assert abs(l1 - integral) < 5e-3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            grid_metrics(np.ones(5), mixture_51(), metric_grid(10))


def _fit_calls(cfg: ExperimentConfig) -> dict:
    """Zero-argument calls of run_experiment and of the density, binary and Poisson fits, at cfg's settings.

    Each fit's data has cfg.n slots: n draws, binary responses, and Poisson
    counts 2, 0, 2, 0, ... (1 last when n is odd), so q^n counts the
    assignments of every fit alike.
    """
    model_prior = ModelSizePrior.geometric(cfg.geometric_p, cfg.j_min, cfg.j_max)
    bases = bases_for_prior(cfg.q, model_prior)
    grid = metric_grid(cfg.grid_size)
    rng = np.random.default_rng(cfg.seed)
    z = rng.random(cfg.n)
    binary = RegressionDataset(z, (rng.random(cfg.n) < z).astype(float), "binary")
    counts = np.resize([2.0, 0.0], cfg.n)
    if cfg.n % 2:
        counts[-1] = 1.0
    poisson = RegressionDataset(z, counts, "poisson")
    kw = dict(mode=cfg.mode, n_terms=cfg.n_terms, seed=cfg.seed)
    return {
        "run_experiment": lambda: run_experiment(cfg),
        "fit_density": lambda: fit_density(DensityDataset(z), cfg.q, model_prior, grid=grid, level=cfg.level, **kw),
        "binary_moment": lambda: binary_moment(binary, bases, (1.0, 1.0), model_prior, grid, **kw),
        "poisson_moment": lambda: poisson_moment(poisson, bases, (1.0, 1.0), model_prior, grid, **kw),
    }


def _assert_same_fits(got, want):
    """Each result's replication rows (but their wall times) and every summary field, bit for bit."""
    for g, w in zip(got, want, strict=True):
        if isinstance(w, ExperimentResult):
            assert [(r.replication, r.l1, r.l2) for r in g.rows] == [(r.replication, r.l1, r.l2) for r in w.rows]
            g, w = g.summaries, w.summaries
        else:
            g, w = [g], [w]
        for a, b in zip(g, w, strict=True):
            for field in dataclasses.fields(b):
                x, y = getattr(a, field.name), getattr(b, field.name)
                assert (x is None and y is None) or np.array_equal(x, y), field.name


def _record_pools(mp) -> list:
    """The max_workers of each pool the engine makes from now on, under the MonkeyPatch mp."""
    made = []

    def recorded(max_workers):
        made.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    mp.setattr(_engine, "ThreadPoolExecutor", recorded)
    return made


class _Pooled(Exception):
    pass


class _Unpooled(Exception):
    pass


def _makes_pool(fit) -> bool:
    """Whether fit reaches the engine's pool or calling-thread work first.

    The caller patches the pool to raise _Pooled, and the sampler's
    per-dimension sum and the exact engine's one pass per fit to raise
    _Unpooled, so no fit does the work.
    """
    try:
        fit()
    except _Pooled:
        return True
    except _Unpooled:
        return False
    raise AssertionError("the fit reached no engine")


class TestRunExperiment:
    def test_deterministic_and_flushed(self, tmp_path):
        cfg = ExperimentConfig(
            density="mixture-51", n=15, q=1, replications=3, seed=5,
            output_dir=str(tmp_path / "a"),
        )
        res1 = run_experiment(cfg)
        res2 = run_experiment(
            ExperimentConfig(
                density="mixture-51", n=15, q=1, replications=3, seed=5,
                output_dir=str(tmp_path / "b"),
            )
        )
        assert res1.l1_mean == res2.l1_mean

        def stat_columns(path):  # all columns except wall time
            lines = path.read_text().strip().splitlines()
            return [",".join(ln.split(",")[:3]) for ln in lines]

        assert stat_columns(tmp_path / "a" / "metrics.csv") == stat_columns(
            tmp_path / "b" / "metrics.csv"
        )
        assert (tmp_path / "a" / "summary_rep0.csv").read_bytes() == (
            tmp_path / "b" / "summary_rep0.csv"
        ).read_bytes()
        lines = (tmp_path / "a" / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + one row per replication

    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setattr(_engine, "_POOL_MIN_TERMS", 2)  # so 3 threads do run
        cfg = ExperimentConfig(density="mixture-51", n=10, q=2, replications=4, seed=9, mode="mc", n_terms=50)
        monkeypatch.setenv("SERIES_PRIOR_THREADS", "1")
        seq = [fit() for fit in _fit_calls(cfg).values()]
        monkeypatch.setenv("SERIES_PRIOR_THREADS", "3")
        pools = _record_pools(monkeypatch)
        par = [fit() for fit in _fit_calls(cfg).values()]
        assert pools == [3] * (cfg.replications + 3)  # one pool per fit
        _assert_same_fits(par, seq)

    @settings(max_examples=100, deadline=None)
    @given(
        q=st.integers(1, 3),
        mode=st.sampled_from(["auto", "mc"]),
        n=st.integers(1, 30),
        replications=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_thread_count_invariance(self, q, mode, n, replications, seed):
        cfg = ExperimentConfig(
            n=n, q=q, replications=replications, seed=seed, mode=mode, n_terms=40,
            j_min=4, j_max=8, grid_size=20,
        )
        files = ("summary_rep0.csv", "summary_rep0_j.csv", "metrics_summary.csv")
        runs = []
        for threads in ("1", "2", "3"):
            with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
                mp.setenv("SERIES_PRIOR_THREADS", threads)
                mp.setattr(_engine, "_POOL_MIN_TERMS", 2)  # a sampled fit pools from 2 threads on
                fits = [fit() for fit in _fit_calls(dataclasses.replace(cfg, output_dir=out)).values()]
                runs.append((fits, [(Path(out) / name).read_bytes() for name in files]))
        (ref, ref_bytes), others = runs[0], runs[1:]
        for fits, got_bytes in others:
            _assert_same_fits(fits, ref)
            assert got_bytes == ref_bytes

    @pytest.mark.parametrize("bad", [{"mode": "bogus"}, {"n_terms": 1}])
    def test_bad_sampler_options_rejected_before_any_output(self, tmp_path, bad):
        good = ExperimentConfig(n=10, replications=2, output_dir=str(tmp_path / "out"))
        with pytest.raises(ValueError, match="mode must be|at least 2 sampled terms"):
            run_experiment(dataclasses.replace(good, **bad))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [{"q": 0}, {"q": -1}, {"q": 5, "j_min": 2, "j_max": 4}, {"q": 3, "j_min": 2}])
    def test_bad_order_rejected_when_made(self, tmp_path, bad):
        with pytest.raises(ValueError, match="order q|below the spline order"):
            ExperimentConfig(n=10, replications=1, output_dir=str(tmp_path / "out"), **bad)
        assert not (tmp_path / "out").exists()

    def test_raising_replication_stops_the_pool(self, monkeypatch):
        # A dimension that raises drops the queued ones, and so stops the run.
        monkeypatch.setenv("SERIES_PRIOR_THREADS", "2")
        monkeypatch.setattr(_engine, "_POOL_MIN_TERMS", 2)
        ran = []

        def failing(slots, family, J, *args):
            ran.append(J)
            time.sleep(0.2)
            raise RuntimeError(f"dimension {J} failed")

        monkeypatch.setattr(_engine, "mc_mixture", failing)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=r"dimension \d+ failed") as caught:
            run_experiment(ExperimentConfig(n=40, q=2, mode="mc", n_terms=50, replications=12))
        started = [t for t in threading.enumerate() if t not in before]
        for t in started:
            t.join(timeout=1.0)
        # The traceback keeps posterior_moments's frame, and so an unclosed pool, alive.
        assert caught.tb is not None
        assert not any(t.is_alive() for t in started)
        assert len(ran) < 21  # of the first replication's 21 dimensions, J = 5..25

    @pytest.mark.parametrize(
        "case, pool",
        [
            (dict(q=1, n=20, replications=25), False),  # the simulate CLI default
            (dict(q=1, n=300, replications=10), False),  # the simulate benchmark workload
            (dict(q=2, n=200), False),  # auto samples, N=3000
            (dict(q=3, n=500, mode="mc", n_terms=30_000), True),
            (dict(q=3, n=500, n_terms=30_000), True),  # auto samples past the term cap
            (dict(q=3, n=500, mode="mc", n_terms=9_999), False),
            (dict(q=2, n=20, mode="exact", n_terms=30_000), False),  # exact samples nothing
            (dict(q=2, n=23, n_terms=30_000), False),  # 2^23 is within the term cap: auto is exact
            (dict(q=2, n=24, n_terms=30_000), True),
            (dict(q=3, n=500, mode="mc", n_terms=10_000), True),
        ],
    )
    def test_pool_only_for_heavy_sampled_replications(self, monkeypatch, case, pool):
        # Each fit stops where the engine starts its work, so no sum is run.
        def stop(exc):
            def raising(*args, **kwargs):
                raise exc

            return raising

        monkeypatch.setattr(_engine, "ThreadPoolExecutor", stop(_Pooled))
        monkeypatch.setattr(_engine, "mc_mixture", stop(_Unpooled))
        monkeypatch.setattr(_engine, "exact_fit", stop(_Unpooled))
        for threads, want in (("2", pool), ("1", False)):
            monkeypatch.setenv("SERIES_PRIOR_THREADS", threads)
            fits = _fit_calls(ExperimentConfig(**case))
            assert {name: _makes_pool(fit) for name, fit in fits.items()} == dict.fromkeys(fits, want), threads

    def test_light_replications_start_no_thread(self, monkeypatch):
        monkeypatch.setenv("SERIES_PRIOR_THREADS", "2")

        def no_pool(*args, **kwargs):
            raise AssertionError("the engine made a pool")

        monkeypatch.setattr(_engine, "ThreadPoolExecutor", no_pool)
        before = threading.active_count()
        res = run_experiment(ExperimentConfig(n=300, q=1, replications=4, seed=3))
        assert len(res.rows) == 4
        for fit in _fit_calls(ExperimentConfig(n=60, q=3, replications=2, seed=3, mode="mc", n_terms=300)).values():
            fit()
        assert threading.active_count() == before

    def test_grid_columns_made_once_per_experiment(self, monkeypatch):
        # The grid columns are one stacked de Boor pass over the grid for all
        # three dimensions (one spline order), made on the first run on this
        # (bases, grid) in the process; the replications and a repeat run read
        # them. Each replication's slots are one stacked pass over its n=11
        # samples.
        cfg = ExperimentConfig(n=11, q=2, replications=3, grid_size=7, j_min=4, j_max=6, seed=8)
        grid = metric_grid(cfg.grid_size)
        bases_for_prior(cfg.q, ModelSizePrior.geometric(cfg.geometric_p, cfg.j_min, cfg.j_max))  # made before counting
        grid_passes, passes = [], []

        def counted_grid(bases, x, normalized=False):
            grid_passes.append(([b.dimension for b in bases], np.array_equal(x, grid), normalized))
            return local_values(bases, x, normalized)

        def counted_pass(bases, x, normalized=False):
            passes.append(([b.dimension for b in bases], np.size(x), normalized))
            return local_values(bases, x, normalized)

        monkeypatch.setattr(basis_mod, "local_values", counted_grid)
        monkeypatch.setattr(_engine, "local_values", counted_pass)
        basis_mod._grid_columns.cache_clear()
        run_experiment(cfg)
        assert grid_passes == [([4, 5, 6], True, True)]
        assert passes == [([4, 5, 6], cfg.n, True)] * cfg.replications
        run_experiment(dataclasses.replace(cfg, seed=9))
        assert grid_passes == [([4, 5, 6], True, True)]
        assert passes == [([4, 5, 6], cfg.n, True)] * 2 * cfg.replications

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_cold_and_warm_memo_give_the_same_fits(self, mode):
        # A fit that fills the grid-column memo and one that reads it give
        # the same summaries, bit for bit.
        cfg = ExperimentConfig(n=7, q=2, seed=3, mode=mode, n_terms=300, j_min=4, j_max=7, grid_size=9)
        calls = _fit_calls(cfg)
        for name in ("fit_density", "binary_moment", "poisson_moment"):
            basis_mod._grid_columns.cache_clear()
            cold = calls[name]()
            warm = calls[name]()
            assert basis_mod._grid_columns.cache_info().hits == 1, name
            for field in dataclasses.fields(cold):
                a, b = getattr(cold, field.name), getattr(warm, field.name)
                assert (a is None and b is None) or np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name

    def test_shared_parts_hold_in_a_crowded_pool(self, monkeypatch):
        # Every worker reads the same families and grid columns; 4 threads on
        # a short switch interval must still give the calling thread's bits.
        cfg = ExperimentConfig(
            n=30, q=2, replications=8, seed=5, mode="mc", n_terms=200, j_min=4, j_max=8, grid_size=20,
        )
        monkeypatch.setenv("SERIES_PRIOR_THREADS", "1")
        ref = [fit() for fit in _fit_calls(cfg).values()]
        monkeypatch.setenv("SERIES_PRIOR_THREADS", "4")
        monkeypatch.setattr(_engine, "_POOL_MIN_TERMS", 2)
        pools = _record_pools(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [fit() for fit in _fit_calls(cfg).values()]
        finally:
            sys.setswitchinterval(interval)
        assert pools == [4] * (cfg.replications + 3)  # one pool per fit
        _assert_same_fits(got, ref)

    def test_fit_density_checks_the_level_before_any_basis(self, monkeypatch):
        def no_bases(*args, **kwargs):
            pytest.fail("a basis was made before the level was checked")

        monkeypatch.setattr(harness, "bases_for_prior", no_bases)
        with pytest.raises(ValueError, match="level"):
            fit_density(DensityDataset([0.2, 0.7]), 2, ModelSizePrior.geometric(0.9, 5, 8), level=0)

    def test_reported_se_is_std_over_sqrt_reps(self):
        res = run_experiment(ExperimentConfig(density="beta-half", n=10, q=1, replications=5, seed=2))
        vals = [r.l1 for r in res.rows]
        assert abs(res.l1_se - np.std(vals, ddof=1) / np.sqrt(5)) < 1e-15

    def test_worker_env_validation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SERIES_PRIOR_THREADS", "-2")
        with pytest.raises(ValueError):
            worker_count(4)
        monkeypatch.setenv("SERIES_PRIOR_THREADS", "soon")
        with pytest.raises(ValueError):
            worker_count(4)
        # run_experiment refuses it before any output, though its light fits make no pool.
        with pytest.raises(ValueError, match="SERIES_PRIOR_THREADS"):
            run_experiment(ExperimentConfig(n=10, replications=1, output_dir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()
        monkeypatch.setenv("SERIES_PRIOR_THREADS", "0")
        assert worker_count(2) >= 1


class TestEndToEnd:
    def test_io_roundtrip_preserves_normalization(self, tmp_path):
        data = sample_density(mixture_51(), 300, 13)
        model_prior = ModelSizePrior.geometric(0.9, 5, 25)
        bases_breaks = np.unique(
            np.concatenate([make_basis(1, j).breakpoints() for j in range(5, 26)])
        )
        pts, wts = simpson_panel_rule(bases_breaks, 10_000)
        summary = fit_density(data, 1, model_prior, grid=pts, mode="exact")
        path = tmp_path / "summary.csv"
        write_summary(path, summary)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert abs(wts @ rows[:, 1] - 1.0) < 1e-6
        assert np.all(rows[:, 5] == 0.0)


class TestFiles:
    def test_read_observations(self, tmp_path):
        f = tmp_path / "obs.txt"
        f.write_text("0.5\n# comment\n0.25  # trailing\n\n0.75\n")
        np.testing.assert_array_equal(read_observations(f), [0.5, 0.25, 0.75])

    def test_read_config(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# experiment\nq=3\nJ.min=5\ndensity=mixture-51\n")
        assert read_config(f) == {"q": "3", "J.min": "5", "density": "mixture-51"}

    def test_duplicate_config_key(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("q=3\n# again\n q = 2\n")
        with pytest.raises(ValueError, match=r"run.cfg:3: duplicate key 'q'"):
            read_config(f)

    def test_bad_config_line(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("q: 3\n")
        with pytest.raises(ValueError, match="key=value"):
            read_config(f)

    def test_load_tecator_skips_header_and_stops_at_trailer(self, tmp_path):
        records = np.random.default_rng(5).random((215, 125)).round(5)

        def write(rows):  # five numbers a line, between description text
            lines = (" ".join(map(str, row[i : i + 5])) for row in rows for i in range(0, 125, 5))
            f.write_text("Tecator data: 215 records\nof 125 numbers each.\n" + "\n".join(lines) + "\nEnd of file\n")

        f = tmp_path / "tecator"
        write(records)
        (grid, train_curves, train_fat), (test_grid, test_curves, test_fat) = load_tecator(f)
        np.testing.assert_array_equal(grid, np.linspace(0.0, 1.0, 100))
        np.testing.assert_array_equal(test_grid, grid)
        np.testing.assert_array_equal(train_curves, records[:172, :100])
        np.testing.assert_array_equal(test_curves, records[172:, :100])
        np.testing.assert_array_equal(train_fat, records[:172, 123])
        np.testing.assert_array_equal(test_fat, records[172:, 123])
        write(records[:214])
        with pytest.raises(ValueError, match="at least 215 records, got 214"):
            load_tecator(f)


_FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_write_table_then_read_rows(data):
    """read_rows returns write_table's floats bit for bit, at the right line
    numbers, through any separators, comments and blank lines; a bad token or
    a row of another width raises ValueError naming path:line."""
    width = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.lists(_FLOATS, min_size=width, max_size=width), max_size=6))
    sep = data.draw(st.sampled_from([",", " ", ", ", "   "]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        harness.write_table(path, [f"c{i}" for i in range(width)], rows)
        header, *lines = path.read_text().splitlines()
        assert header == ",".join(f"c{i}" for i in range(width))
        text = ["# " + header]  # the header as a comment, so every line left is numbers
        linenos = []
        for line in lines:
            text += data.draw(st.lists(st.sampled_from(["", "  ", "# note", " # 1,2"]), max_size=2))
            text.append(line.replace(",", sep) + data.draw(st.sampled_from(["", " # trailing", "#"])))
            linenos.append(len(text))
        path.write_text("\n".join(text) + "\n")
        got = harness.read_rows(path, width)
        assert [lineno for lineno, _ in got] == linenos
        assert [[v.hex() for v in row] for _, row in got] == [[v.hex() for v in row] for row in rows]
        assert harness.read_rows(path) == got

        if not rows:
            return
        k = data.draw(st.integers(0, len(rows) - 1))
        tokens = text[linenos[k] - 1].split("#", 1)[0].replace(",", " ").split()
        if data.draw(st.booleans()):
            bad = data.draw(st.sampled_from(["x", "1..0", "0x1p3", "1e", "--1"]))
            tokens[data.draw(st.integers(0, width - 1))] = bad
        else:
            tokens = tokens[:-1] if width > 1 and data.draw(st.booleans()) else tokens + ["0.5"]
        text[linenos[k] - 1] = sep.join(tokens)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{linenos[k]}:")):
            harness.read_rows(path, width)


def test_package_import_leaves_out_scipy_stats():
    # scipy.stats is most of the import time of the package; nothing in it needs the module.
    src = str(Path(series_prior.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, series_prior, series_prior.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def test_package_import_leaves_out_scipy():
    # The library imports only numpy and the standard library; scipy is a cross-check of the tests.
    src = str(Path(series_prior.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, series_prior, series_prior.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"

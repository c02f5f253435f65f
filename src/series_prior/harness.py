"""Experiment harness: reference densities, data generation, metrics, I/O.

The simulation study fits the random-series density posterior to draws from
a Beta(0.5, 0.5) target or an exponential/normal mixture, evaluates mean
absolute and mean squared error on a fixed grid against the truth, and
aggregates over seeded replications. Every numeric table the package reads
goes through read_rows, and every CSV it writes goes through format_row:
write_table writes whole files, run_experiment streams metrics.csv line by
line.

run_experiment makes the bases and one density builder (each dimension's
Dirichlet family) once, and every replication hands that builder and its
own dataset to _engine.posterior_moments, then takes credible_band, as
fit_density does for one dataset. Every replication shares the families and
the grid columns, which basis.grid_columns makes once per (bases, grid) in
the process; a replication builds only its own dataset's slot table.
Replications run one after another; within one, a heavy sampled fit runs
its dimensions on _engine.posterior_moments's thread pool. Every
replication derives its own seed from (base seed, replication index), so
results are identical for any thread count.
"""

from __future__ import annotations

import functools
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import _engine
from ._engine import worker_count
from .basis import is_integer
from .density import DensityDataset, PosteriorSummary, _band_z, bases_for_prior, credible_band, density_builder
from .priors import ModelSizePrior
from .quadrature import simpson_panel_rule


@dataclass(frozen=True)
class TrueDensity:
    """A reference density on [0, 1] with a numerically certified normalizer."""

    name: str
    normalizer: float
    _pdf_unnorm: Callable[[np.ndarray], np.ndarray]

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self._pdf_unnorm(x) / self.normalizer

    @functools.cached_property
    def envelope(self) -> float:
        """The rejection envelope: the largest pdf value of 10,001 even points, plus 0.1%."""
        return float(self.pdf(np.linspace(0.0, 1.0, 10_001)).max()) * (1.0 + 1e-3)


def _beta_half_pdf(x: np.ndarray) -> np.ndarray:
    """1 / (pi sqrt(x (1 - x))) on [0, 1], inf at the endpoints, 0 outside."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((x < 0.0) | (x > 1.0), 0.0, 1.0 / (np.pi * np.sqrt(x * (1.0 - x))))


def beta_half() -> TrueDensity:
    """Beta(0.5, 0.5); unbounded at the endpoints, normalized analytically."""
    return TrueDensity("beta-half", 1.0, _beta_half_pdf)


def _mixture_51_unnorm(x: np.ndarray) -> np.ndarray:
    return 0.75 * 3.0 * np.exp(-3.0 * x) + 0.25 * np.sqrt(32.0 / np.pi) * np.exp(
        -32.0 * (x - 0.75) ** 2
    )


def mixture_51() -> TrueDensity:
    """Mixture of a rate-3 exponential and a normal bump at 0.75, renormalized to [0, 1]."""
    pts, wts = simpson_panel_rule([0.0, 1.0], 10_000)
    z = float(wts @ _mixture_51_unnorm(pts))
    return TrueDensity("mixture-51", z, _mixture_51_unnorm)


def get_density(name: str) -> TrueDensity:
    if name == "beta-half":
        return beta_half()
    if name == "mixture-51":
        return mixture_51()
    raise ValueError(f"unknown density {name!r} (expected beta-half or mixture-51)")


def sample_density(density: TrueDensity, n: int, seed) -> DensityDataset:
    """Seeded draws: inverse CDF for beta-half, uniform-envelope rejection otherwise.

    The rejection envelope is the numerically located supremum with a small
    safety margin, found once per density; an acceptance rate below 1%
    aborts (misconfigured envelope).
    """
    rng = np.random.default_rng(seed)
    if density.name == "beta-half":
        return DensityDataset(np.sin(np.pi * rng.random(n) / 2.0) ** 2)
    sup = density.envelope
    out = np.empty(n)
    filled = 0
    proposed = accepted = 0
    while filled < n:
        batch = max(4 * (n - filled), 256)
        x = rng.random(batch)
        u = rng.random(batch)
        keep = x[u * sup < density.pdf(x)]
        take = min(keep.size, n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
        proposed += batch
        accepted += keep.size
        if proposed >= 10_000 and accepted < 0.01 * proposed:
            raise RuntimeError(
                f"rejection acceptance rate {accepted / proposed:.2%} below 1%; envelope broken"
            )
    return DensityDataset(out)


def grid_metrics(estimate, truth: TrueDensity, grid) -> tuple[float, float]:
    """(l1, l2): mean absolute and mean squared deviation from the truth on the grid."""
    estimate = np.asarray(estimate, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if estimate.shape != grid.shape:
        raise ValueError("estimate and grid must have equal length")
    diff = estimate - truth.pdf(grid)
    return float(np.mean(np.abs(diff))), float(np.mean(diff**2))


def metric_grid(size: int = 100) -> np.ndarray:
    """Midpoint grid of size points, an integer of at least 1; keeps endpoint-singular truths finite."""
    if not is_integer(size):
        raise ValueError(f"grid size must be an integer, got {size!r}")
    if size < 1:
        raise ValueError(f"grid size must be at least 1, got {size}")
    return (np.arange(size) + 0.5) / size


@dataclass(frozen=True)
class ExperimentConfig:
    density: str = "mixture-51"
    n: int = 20
    q: int = 1
    replications: int = 25
    n_terms: int = 3000
    seed: int = 0
    j_min: int = 5
    j_max: int = 25
    # The geometric parameter is a free constant of the reference experiments;
    # 0.9 tracks the published error levels closest at desk scale.
    geometric_p: float = 0.9
    grid_size: int = 100
    level: float = 0.95
    mode: str = "auto"  # auto | exact | mc
    output_dir: str | None = None

    def __post_init__(self):
        metric_grid(self.grid_size)  # refuses a size that is not an integer of at least 1, as every command does
        for label, name in (("the replication count", "replications"), ("n", "n"), ("order q", "q")):
            if not (is_integer(getattr(self, name)) and getattr(self, name) >= 1):
                raise ValueError(f"{label} must be a positive integer, got {name}={getattr(self, name)!r}")
        _band_z(self.level)  # refuses a level outside (0, 1), as credible_band does
        if self.j_min < self.q:
            raise ValueError(f"j_min={self.j_min} is below the spline order q={self.q}; need j_min >= q")
        _engine.check_mode(self.mode, self.n_terms, self.seed)


@dataclass
class MetricsRow:
    replication: int
    l1: float
    l2: float
    wall_time_seconds: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[MetricsRow]
    summaries: list[PosteriorSummary]

    @property
    def l1_mean(self) -> float:
        return float(np.mean([r.l1 for r in self.rows]))

    @property
    def l2_mean(self) -> float:
        return float(np.mean([r.l2 for r in self.rows]))

    @property
    def l1_se(self) -> float:
        vals = [r.l1 for r in self.rows]
        return float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0

    @property
    def l2_se(self) -> float:
        vals = [r.l2 for r in self.rows]
        return float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0


def fit_density(
    data: DensityDataset,
    q: int,
    model_prior: ModelSizePrior,
    a: float = 1.0,
    grid=None,
    n_terms: int = 3000,
    seed=0,
    mode: str = "auto",
    level: float = 0.95,
) -> PosteriorSummary:
    """Fit one dataset: exact when the term budget allows, sampled otherwise."""
    _band_z(level)  # refuses a level outside (0, 1) before any fit
    bases = bases_for_prior(q, model_prior)
    grid = metric_grid() if grid is None else np.asarray(grid, dtype=float)
    summary = _engine.posterior_moments(density_builder(bases, grid, a), data, model_prior, 2, mode, n_terms, seed)
    return credible_band(summary, level)


def _one_replication(config: ExperimentConfig, density: TrueDensity, model, rep: int):
    """Sample replication rep, fit it with model = (builder, model_prior) and score it."""
    builder, model_prior = model
    t0 = time.perf_counter()
    data = sample_density(density, config.n, np.random.SeedSequence([config.seed, rep]))
    seed = int(np.random.SeedSequence([config.seed, rep, 1]).generate_state(1)[0])
    summary = _engine.posterior_moments(builder, data, model_prior, 2, config.mode, config.n_terms, seed)
    summary = credible_band(summary, config.level)
    l1, l2 = grid_metrics(summary.mean, density, summary.grid)
    return MetricsRow(rep, l1, l2, time.perf_counter() - t0), summary


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Replicate sample -> fit -> metrics, writing CSVs when output_dir is set.

    Per-replication rows are flushed as they complete (in replication order);
    the summary CSV and the first replication's posterior summary follow.
    """
    density = get_density(config.density)
    model_prior = ModelSizePrior.geometric(config.geometric_p, config.j_min, config.j_max)
    bases = bases_for_prior(config.q, model_prior)
    grid = metric_grid(config.grid_size)
    model = density_builder(bases, grid), model_prior
    worker_count(1)  # a bad SERIES_PRIOR_THREADS is refused before any output
    out_dir = Path(config.output_dir) if config.output_dir else None
    metrics_file = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_file = (out_dir / "metrics.csv").open("w")
        metrics_file.write(format_row(f.name for f in fields(MetricsRow)))
    rows: list[MetricsRow] = []
    summaries: list[PosteriorSummary] = []
    try:
        for rep in range(config.replications):
            row, summary = _one_replication(config, density, model, rep)
            rows.append(row)
            summaries.append(summary)
            if metrics_file is not None:
                metrics_file.write(format_row(astuple(row)))
                metrics_file.flush()
    finally:
        if metrics_file is not None:
            metrics_file.close()
    result = ExperimentResult(config, rows, summaries)
    if out_dir is not None:
        write_table(
            out_dir / "metrics_summary.csv",
            ("density", "n", "q", "replications", "l1_mean", "l1_se", "l2_mean", "l2_se"),
            [(config.density, config.n, config.q, config.replications, result.l1_mean,
              result.l1_se, result.l2_mean, result.l2_se)],
        )
        write_summary(out_dir / "summary_rep0.csv", summaries[0])
        write_j_table(out_dir / "summary_rep0_j.csv", summaries[0].j_values, summaries[0].j_weights)
    return result


def fmt(value) -> str:
    """Full-precision decimal text (shortest round-trip representation)."""
    return repr(float(value))


def format_row(values) -> str:
    """One CSV line: floats by fmt, any other value as its text."""
    return ",".join(fmt(v) if isinstance(v, float) else str(v) for v in values) + "\n"


def write_table(path, header, rows) -> None:
    """A CSV file: the header's column names, then one format_row line per row."""
    with Path(path).open("w") as fh:
        fh.write(format_row(header))
        fh.writelines(format_row(row) for row in rows)


#: The columns of every grid summary CSV: write_summary's, and the funreg command's.
SUMMARY_COLUMNS = ("x", "mean", "sd", "band_low", "band_high", "mc_se")


def write_summary(path, summary: PosteriorSummary) -> None:
    """SUMMARY_COLUMNS rows; absent moments and bands are written as 0."""
    zeros = np.zeros_like(summary.mean)
    second = summary.second_moment
    sd = zeros if second is None else np.sqrt(np.maximum(second - summary.mean**2, 0.0))
    low = zeros if summary.band_low is None else summary.band_low
    high = zeros if summary.band_high is None else summary.band_high
    write_table(path, SUMMARY_COLUMNS, zip(summary.grid, summary.mean, sd, low, high, summary.mc_se))


def write_j_table(path, j_values, j_weights) -> None:
    """j,weight rows: the posterior weight of each dimension."""
    write_table(path, ("j", "weight"), ((int(j), w) for j, w in zip(j_values, j_weights)))


def data_lines(path) -> list[tuple[int, str]]:
    """(line number, text) of each non-blank line, # comments stripped."""
    with Path(path).open() as fh:
        lines = [(i, line.split("#", 1)[0].strip()) for i, line in enumerate(fh, 1)]
    return [(i, line) for i, line in lines if line]


def read_rows(path, width=None) -> list[tuple[int, list[float]]]:
    """(line number, numbers) of each data line of path.

    Numbers are separated by commas or spaces; blank lines and # comments
    are skipped. A token that is not a number, or (when width is given) a
    row of another width, raises ValueError naming path:line.
    """
    rows = []
    for lineno, line in data_lines(path):
        try:
            row = [float(v) for v in line.replace(",", " ").split()]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected numbers, got {line!r}") from None
        if width is not None and len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} numbers, got {line!r}")
        rows.append((lineno, row))
    return rows


def read_observations(path) -> np.ndarray:
    """One observation per line; a file with no observations raises ValueError."""
    rows = read_rows(path, width=1)
    if not rows:
        raise ValueError(f"{path}: no observations")
    return np.asarray([row[0] for _, row in rows])


def read_config(path) -> dict[str, str]:
    """key=value lines with # comments; a key given twice is an error."""
    options: dict[str, str] = {}
    for lineno, line in data_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in options:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        options[key] = value
    return options


def load_tecator(path):
    """Load the Tecator meat spectra (http://lib.stat.cmu.edu/datasets/tecator).

    Each record holds 100 absorbance channels, 22 principal components, then
    moisture, fat, protein. Returns ((grid, train_curves, train_fat),
    (grid, test_curves, test_fat)) with the conventional 172/43 split and the
    channels mapped onto a uniform grid in [0, 1]. Description text may
    surround the records: a text line before the first full record restarts
    the data, and one after it ends them.
    """
    values = []
    with Path(path).open() as fh:
        for line in fh:
            try:
                values.extend([float(token) for token in line.split()])
            except ValueError:  # description text
                if len(values) >= 125:
                    break
                values = []
    arr = np.asarray(values)
    if arr.size % 125 != 0 or arr.size == 0:
        raise ValueError(
            f"expected records of 125 numbers (100 channels + 22 PCs + 3 targets), "
            f"got {arr.size} values"
        )
    records = arr.reshape(-1, 125)
    if records.shape[0] < 215:
        raise ValueError(f"expected at least 215 records, got {records.shape[0]}")
    curves = records[:, :100]
    fat = records[:, 123]
    grid = np.linspace(0.0, 1.0, 100)
    train = (grid, curves[:172], fat[:172])
    test = (grid, curves[172:215], fat[172:215])
    return train, test

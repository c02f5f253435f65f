"""Priors on the series length J and on the coefficient vector given J.

Model-size priors are always truncated to an inclusive range [j_min, j_max]
and renormalized there; probabilities are kept in log space. Each family
carries its tail exponents (t1, t2): geometric and negative binomial have
t1 = t2 = 0, Poisson has t1 = t2 = 1. Coefficient priors cover the conjugate
families used by the posterior engines: Dirichlet for densities,
independent Beta for binary responses, independent Gamma for counts. The
Gaussian regression's g-prior and inverse-gamma hyperparameters are plain
arguments of regression.gaussian_fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._engine import lgamma, logsumexp

_MODEL_FAMILIES = ("geometric", "poisson", "negative-binomial")
_COEF_FAMILIES = ("dirichlet", "beta", "gamma")

#: (t1, t2) tail exponents of each supported model-size family.
TAIL_EXPONENTS = {
    "geometric": (0, 0),
    "poisson": (1, 1),
    "negative-binomial": (0, 0),
}


def _base_log_pmf(family: str, params: tuple, j: np.ndarray) -> np.ndarray:
    j = np.asarray(j, dtype=float)
    if family == "geometric":
        (p,) = params
        return np.log(p) + (j - 1.0) * np.log1p(-p)
    if family == "poisson":
        (lam,) = params
        return j * np.log(lam) - lam - lgamma(j + 1.0)
    if family == "negative-binomial":
        r, p = params
        return (
            lgamma(j + r)
            - lgamma(r)
            - lgamma(j + 1.0)
            + r * np.log(p)
            + j * np.log1p(-p)
        )
    raise ValueError(f"unknown model-size family {family!r}")


@dataclass(frozen=True)
class ModelSizePrior:
    """Truncated prior on the number of series terms J."""

    family: str
    params: tuple
    j_min: int
    j_max: int
    _log_norm: float = field(repr=False, default=0.0)

    def __post_init__(self):
        if self.family not in _MODEL_FAMILIES:
            raise ValueError(f"unknown model-size family {self.family!r}")
        if not (1 <= self.j_min <= self.j_max):
            raise ValueError(
                f"truncation must satisfy 1 <= j_min <= j_max, got [{self.j_min}, {self.j_max}]"
            )
        support = np.arange(self.j_min, self.j_max + 1)
        norm = logsumexp(_base_log_pmf(self.family, self.params, support))
        object.__setattr__(self, "_log_norm", norm)

    @staticmethod
    def geometric(p: float, j_min: int = 5, j_max: int = 25) -> "ModelSizePrior":
        if not 0.0 < p < 1.0:
            raise ValueError(f"geometric success probability must be in (0,1), got {p}")
        return ModelSizePrior("geometric", (float(p),), int(j_min), int(j_max))

    @staticmethod
    def poisson(lam: float, j_min: int = 5, j_max: int = 25) -> "ModelSizePrior":
        if not 0.0 < lam < np.inf:
            raise ValueError(f"poisson mean lambda must be positive and finite, got {lam}")
        return ModelSizePrior("poisson", (float(lam),), int(j_min), int(j_max))

    @staticmethod
    def negative_binomial(r: float, p: float, j_min: int = 5, j_max: int = 25) -> "ModelSizePrior":
        if not 0.0 < r < np.inf or not 0.0 < p < 1.0:
            raise ValueError(f"negative-binomial r must be positive and finite and p in (0,1), got r={r}, p={p}")
        return ModelSizePrior("negative-binomial", (float(r), float(p)), int(j_min), int(j_max))

    @property
    def tail_exponents(self) -> tuple[int, int]:
        return TAIL_EXPONENTS[self.family]

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    def log_pmf(self, j) -> np.ndarray | float:
        """Log probability of J = j; -inf outside the truncation range."""
        j_arr = np.atleast_1d(np.asarray(j))
        out = np.full(j_arr.shape, -np.inf)
        inside = (j_arr >= self.j_min) & (j_arr <= self.j_max)
        if np.any(inside):
            out[inside] = _base_log_pmf(self.family, self.params, j_arr[inside]) - self._log_norm
        return float(out[0]) if np.isscalar(j) else out


def _positive_vector(value, J: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(J, arr[0])
    if arr.shape != (J,):
        raise ValueError(f"{name} must be scalar or length-{J}, got shape {arr.shape}")
    if not np.all((arr > 0.0) & (arr < np.inf)):
        raise ValueError(f"{name} must be positive and finite")
    return arr


@dataclass(frozen=True)
class CoefficientPrior:
    """Prior on the coefficient vector given the dimension J.

    Hyperparameters are stored as given (scalar or vector) and broadcast to
    the requested dimension on use; all must be positive and finite.
    """

    family: str
    a: float | np.ndarray = 1.0
    b: float | np.ndarray = 1.0

    def __post_init__(self):
        if self.family not in _COEF_FAMILIES:
            raise ValueError(f"unknown coefficient family {self.family!r}")
        for name in ("a", "b"):
            val = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if not np.all((val > 0.0) & (val < np.inf)):
                raise ValueError(f"hyperparameter {name} must be positive and finite")

    @staticmethod
    def dirichlet(a=1.0) -> "CoefficientPrior":
        return CoefficientPrior("dirichlet", a=a)

    @staticmethod
    def beta(a=1.0, b=1.0) -> "CoefficientPrior":
        return CoefficientPrior("beta", a=a, b=b)

    @staticmethod
    def gamma(a=1.0, b=1.0) -> "CoefficientPrior":
        return CoefficientPrior("gamma", a=a, b=b)

    def params_for(self, J: int) -> tuple[np.ndarray, np.ndarray]:
        return _positive_vector(self.a, J, "a"), _positive_vector(self.b, J, "b")


def sample_coefficients(prior: CoefficientPrior, J: int, seed) -> np.ndarray:
    """One seeded draw of the coefficient vector at dimension J.

    Dirichlet draws lie on the simplex, beta draws in (0,1)^J, gamma draws in
    (0,inf)^J (rate parametrization: Gamma(a, b) has mean a/b).
    """
    if J < 1:
        raise ValueError(f"dimension must be >= 1, got {J}")
    rng = np.random.default_rng(seed)
    a, b = prior.params_for(J)
    if prior.family == "dirichlet":
        return rng.dirichlet(a)
    if prior.family == "beta":
        return rng.beta(a, b)
    return rng.gamma(shape=a, scale=1.0 / b)

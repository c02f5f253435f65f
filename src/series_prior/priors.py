"""Priors on the series length J, and the checks of the coefficient hyperparameters.

Model-size priors are always truncated to an inclusive range [j_min, j_max]
and renormalized there; probabilities are kept in log space. Their tail
exponents (t1, t2), inputs of the rates module, are t1 = t2 = 0 for the
geometric and negative binomial families and t1 = t2 = 1 for the Poisson.

The coefficient priors given J are _engine's conjugate families: Dirichlet
for densities, independent Beta for binary responses, independent Gamma for
counts. Their hyperparameters are plain values of the builders, as the
g-prior's are of regression.gaussian_fit: a positive finite scalar, repeated
once per basis function, or a length-J vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._engine import lgamma, logsumexp

_MODEL_FAMILIES = ("geometric", "poisson", "negative-binomial")


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


def _hyperparameter(value, name: str) -> np.ndarray:
    """A coefficient hyperparameter as a float array; every entry must be positive and finite."""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.all((arr > 0.0) & (arr < np.inf)):
        raise ValueError(f"hyperparameter {name} must be positive and finite")
    return arr


def _per_basis(arr: np.ndarray, J: int, name: str) -> np.ndarray:
    """A checked hyperparameter at dimension J: a scalar repeated J times, else a length-J vector."""
    if arr.size == 1:
        arr = np.full(J, arr[0])
    if arr.shape != (J,):
        raise ValueError(f"{name} must be scalar or length-{J}, got shape {arr.shape}")
    return arr

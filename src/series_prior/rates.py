"""Adaptive posterior contraction-rate exponents and sieve certification.

For a basis family with approximation error J^(-beta) on alpha-smooth
targets, the contraction rate is n^(-gamma) (log n)^(delta) with

    gamma = beta / (2 beta + 1),     delta = gamma + (1 - t2) / 2,

where t2 is the upper tail exponent of the prior on the number of terms and
beta is alpha for Fourier/Legendre/B-spline/wavelet bases, alpha/2 for
Bernstein polynomials (alpha <= 2), alpha for coarsened Bernstein
(alpha <= 1), and alpha*/s for tensor-product B-splines with the harmonic
mean alpha* of the coordinate smoothnesses. Exponents are exact rationals.

The sieve solver instantiates the dimension/radius sequences behind the rate
and checks the defining inequalities numerically on a sample-size grid,
reporting from which n onward they all hold for the supplied constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

FAMILIES = (
    "fourier",
    "legendre",
    "bspline",
    "wavelet",
    "bernstein",
    "coarsened-bernstein",
    "tensor-bspline",
)

#: Lipschitz exponent K0 of the coefficient-to-function map, by (family, metric).
#: B-spline/polynomial/Fourier systems have K0 = 1/2 under L2 and 1 under sup;
#: wavelet systems have K0 = 1 under both.
_K0_TABLE = {
    "wavelet": {2: Fraction(1), math.inf: Fraction(1)},
    "default": {2: Fraction(1, 2), math.inf: Fraction(1)},
}


def default_k0(family: str, r) -> Fraction:
    table = _K0_TABLE.get(family, _K0_TABLE["default"])
    key = math.inf if r in (math.inf, "inf") else 2
    return table[key]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class RateProblem:
    """Inputs of the rate calculation.

    alpha is a scalar smoothness, or a vector for tensor-bspline; t1 >= t2 in
    [0, 1] are the prior tail exponents; t3 > 0 the coefficient tail power;
    r in {2, inf} selects the metric; K0 defaults from the family/metric table.
    """

    basis_family: str
    alpha: tuple[Fraction, ...]
    s: int = 1
    t1: Fraction = Fraction(0)
    t2: Fraction = Fraction(0)
    t3: Fraction = Fraction(1)
    r: float = 2
    K0: Fraction = field(default=None)

    def __post_init__(self):
        if self.basis_family not in FAMILIES:
            raise ValueError(f"unknown basis family {self.basis_family!r}")
        alpha = tuple(_as_fraction(a) for a in (
            self.alpha if isinstance(self.alpha, (tuple, list)) else (self.alpha,)
        ))
        if any(a <= 0 for a in alpha):
            raise ValueError("smoothness must be positive")
        object.__setattr__(self, "alpha", alpha)
        for name in ("t1", "t2", "t3"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))
        if not (0 <= self.t2 <= self.t1 <= 1):
            raise ValueError("tail exponents must satisfy 0 <= t2 <= t1 <= 1")
        if self.t3 <= 0:
            raise ValueError("t3 must be positive")
        if self.r not in (2, math.inf):
            raise ValueError("metric selector r must be 2 or inf")
        if self.basis_family == "tensor-bspline":
            if len(alpha) > 1:
                if self.s not in (1, len(alpha)):
                    raise ValueError("alpha vector length must equal the dimension s")
                object.__setattr__(self, "s", len(alpha))
            else:
                object.__setattr__(self, "s", int(self.s))
                object.__setattr__(self, "alpha", alpha * self.s)
        else:
            if len(alpha) != 1 or self.s != 1:
                raise ValueError(f"{self.basis_family} is univariate; scalar alpha, s=1")
        k0 = default_k0(self.basis_family, self.r) if self.K0 is None else _as_fraction(self.K0)
        if k0 not in (Fraction(1, 2), Fraction(1)):
            raise ValueError("K0 must be 1/2 or 1")
        object.__setattr__(self, "K0", k0)

    @property
    def harmonic_mean(self) -> Fraction:
        return Fraction(self.s) / sum(1 / a for a in self.alpha)

    @property
    def approx_exponent(self) -> Fraction:
        """beta with approximation error J^(-beta) in the series dimension J."""
        alpha = self.alpha[0]
        fam = self.basis_family
        if fam in ("fourier", "legendre", "bspline", "wavelet"):
            return alpha
        if fam == "bernstein":
            if alpha > 2:
                raise ValueError("bernstein adapts only up to smoothness 2")
            return alpha / 2
        if fam == "coarsened-bernstein":
            if alpha > 1:
                raise ValueError("coarsened bernstein adapts only up to smoothness 1")
            return alpha
        return self.harmonic_mean / self.s


@dataclass(frozen=True)
class SieveRow:
    n: float
    j_bar: int
    j: int
    eps_bar: float
    eps: float
    m: float
    holds: tuple[bool, ...]

    @property
    def all_hold(self) -> bool:
        return all(self.holds)


@dataclass(frozen=True)
class RateResult:
    poly_exp: Fraction
    log_exp: Fraction
    sieve: tuple[SieveRow, ...] | None = None
    certified_from: float | None = None

    def __post_init__(self):
        if not 0 < self.poly_exp < Fraction(1, 2):
            raise ValueError(f"polynomial exponent {self.poly_exp} outside (0, 1/2)")


def rate_exponents(problem: RateProblem) -> RateResult:
    """Exact rational (gamma, delta) with rate n^(-gamma) (log n)^(delta)."""
    beta = problem.approx_exponent
    gamma = beta / (2 * beta + 1)
    delta = gamma + (1 - problem.t2) / 2
    return RateResult(poly_exp=gamma, log_exp=delta)


@dataclass(frozen=True)
class SieveConstants:
    """Generic positive constants of the sieve inequalities; defaults are 1."""

    c1: float = 1.0
    c3: float = 1.0
    C0: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        for name in ("c1", "c3", "C0", "b"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"sieve constant {name} must be positive and finite, got {value}")


def solve_sieve(
    problem: RateProblem,
    constants: SieveConstants = SieveConstants(),
    n_grid: Sequence[float] = (1e4, 1e5, 1e6, 1e7, 1e8),
) -> RateResult:
    """Instantiate the sieve sequences and certify the defining inequalities.

    Sequences: J_bar = ceil[(n/log n)^(1/(2b+1))] with b the approximation
    exponent, eps_bar = (n/log n)^(-b/(2b+1)),
    J = ceil[n^(1/(2b+1)) (log n)^(2b/(2b+1)-t2)], M = n^(1/t3), and eps set
    by the entropy balance J[(K0+1) log J + log M + C0 log n] = n eps^2.

    Checks at each n: b_const * n eps_bar^2 <= J log^t2 J;
    log J + n eps_bar^2 <= M^t3; the entropy balance (equality by
    construction); J_bar^(-b) <= eps_bar; and
    J_bar [c1 log^t1 J_bar + c3 K0 log J_bar + c3 log(1/eps_bar)]
    <= 2 n eps_bar^2.
    """
    n_grid = sorted(float(v) for v in n_grid)
    if not n_grid or n_grid[0] <= math.e:
        raise ValueError("sample sizes must exceed e and be nonempty")
    beta = float(problem.approx_exponent)
    t1, t2, t3 = float(problem.t1), float(problem.t2), float(problem.t3)
    k0 = float(problem.K0)
    rows = []
    for n in n_grid:
        ln = math.log(n)
        ratio = n / ln
        j_bar = math.ceil(ratio ** (1.0 / (2.0 * beta + 1.0)))
        eps_bar = ratio ** (-beta / (2.0 * beta + 1.0))
        j_n = math.ceil(n ** (1.0 / (2.0 * beta + 1.0)) * ln ** (2.0 * beta / (2.0 * beta + 1.0) - t2))
        m_n = n ** (1.0 / t3)
        entropy = j_n * ((k0 + 1.0) * math.log(j_n) + math.log(m_n) + constants.C0 * ln)
        eps_n = math.sqrt(entropy / n)
        ne2 = n * eps_bar**2
        checks = (
            constants.b * ne2 <= j_n * math.log(j_n) ** t2 * (1.0 + 1e-12),
            math.log(j_n) + ne2 <= m_n**t3,
            entropy <= n * eps_n**2 * (1.0 + 1e-12),
            j_bar ** (-beta) <= eps_bar * (1.0 + 1e-12),
            j_bar * (constants.c1 * math.log(j_bar) ** t1 + constants.c3 * k0 * math.log(j_bar)
                     + constants.c3 * math.log(1.0 / eps_bar)) <= 2.0 * ne2,
        )
        rows.append(SieveRow(n=n, j_bar=j_bar, j=j_n, eps_bar=eps_bar, eps=eps_n, m=m_n, holds=checks))
    certified = None
    for i in range(len(rows)):
        if all(r.all_hold for r in rows[i:]):
            certified = rows[i].n
            break
    base = rate_exponents(problem)
    return RateResult(
        poly_exp=base.poly_exp,
        log_exp=base.log_exp,
        sieve=tuple(rows),
        certified_from=certified,
    )

"""B-spline bases on [0, 1] with uniform clamped knots.

A basis of order ``q`` (degree q-1) on ``K`` equal subintervals spans a
J = q + K - 1 dimensional space. The functions are nonnegative, sum to one
pointwise, and each is supported on at most q consecutive subintervals.
The normalized variants B*_j = B_j / integral(B_j) each integrate to one and
serve as density kernels.

So at any point at most q consecutive functions are nonzero. local_values,
the one de Boor recursion here, returns just those: for D bases of one
order at P points, the first index (D, P) and the values (D, P, q), in one
pass over all of them. eval_basis and eval_normalized scatter one basis's
window into the dense (P, J) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .quadrature import simpson_panel_rule


class SimplexInfeasibleError(RuntimeError):
    """Positive-coefficient fit failed at this dimension.

    Raised by :func:`simplex_coefficients` when the unconstrained fit has a
    nonpositive coefficient (target too close to zero, or J too small for the
    positivity construction to kick in).
    """


@dataclass(frozen=True)
class Basis:
    """Immutable B-spline basis description.

    Attributes:
        order: spline order q (polynomial degree q - 1), q >= 1.
        intervals: number K of equal subintervals of [0, 1].
        knots: clamped knot vector, endpoints repeated q times.
        integrals: integral of each basis function over [0, 1]; positive,
            summing to one.
    """

    order: int
    intervals: int
    knots: np.ndarray
    integrals: np.ndarray

    @property
    def dimension(self) -> int:
        return self.order + self.intervals - 1

    def breakpoints(self) -> np.ndarray:
        return np.arange(self.intervals + 1) / self.intervals


def make_basis(q: int, K: int) -> Basis:
    """Build the order-q basis on K equal subintervals of [0, 1].

    Integrals use the knot-span identity (t_{j+q} - t_j) / q and are
    cross-checked against knot-aligned composite Simpson quadrature.
    Results are cached; the returned arrays are read-only.
    """
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise ValueError(f"order q must be a positive integer, got {q!r}")
    if not (isinstance(K, (int, np.integer)) and K >= 1):
        raise ValueError(f"interval count K must be a positive integer, got {K!r}")
    return _make_basis_cached(int(q), int(K))


@lru_cache(maxsize=512)
def _make_basis_cached(q: int, K: int) -> Basis:
    knots = np.concatenate([np.zeros(q), np.arange(1, K) / K, np.ones(q)])
    J = q + K - 1
    integrals = (knots[q : q + J] - knots[:J]) / q
    basis = Basis(order=q, intervals=K, knots=knots, integrals=integrals)
    check = quadrature_integrals(basis)
    err = np.max(np.abs(check - integrals))
    if err > 1e-9:
        raise AssertionError(f"span-integral identity off by {err:.3e} (q={q}, K={K})")
    knots.flags.writeable = False
    integrals.flags.writeable = False
    return basis


def quadrature_integrals(basis: Basis, total_points: int = 10_000) -> np.ndarray:
    """Integrals of every basis function by knot-aligned Simpson quadrature."""
    x, w = simpson_panel_rule(basis.breakpoints(), total_points)
    return w @ eval_basis(basis, x)


def _check_domain(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    if x.size and (np.min(x) < 0.0 or np.max(x) > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")


def local_values(bases: Sequence[Basis], x, normalized: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The q values of D same-order bases that can be nonzero at P points, by one de Boor pass.

    Returns (first, values): first[d, p] is the first index of the q
    functions of bases[d] whose support holds x[p], the point's knot span
    (t_i <= x < t_{i+1}, x=1 in the last span) less q - 1, and
    values[d, p, o] is the value of function first[d, p] + o there, or of
    B*_j = B_j / integral(B_j) if normalized. Every other function is zero
    at x[p]. The triangular recursion runs on (D, P) arrays at once, and
    each element takes the arithmetic of a one-basis pass, so stacking
    does not change a bit. x is a scalar or a vector; points outside
    [0, 1] or non-finite raise ValueError, as do no bases or mixed orders.
    """
    if not bases:
        raise ValueError("need at least one basis")
    q = bases[0].order
    if any(b.order != q for b in bases):
        raise ValueError("the bases of one pass must share their order")
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    _check_domain(pts)
    D, P = len(bases), pts.shape[0]
    # Knot span of each point: the count of knots <= x, less one, capped at
    # the last span; the q leading zero knots keep it at q - 1 or above.
    span = np.empty((D, P), dtype=np.intp)
    for d, b in enumerate(bases):
        span[d] = b.knots.searchsorted(pts, side="right")
    span -= 1
    np.minimum(span, np.array([[q + b.intervals - 2] for b in bases]), out=span)
    first = span - (q - 1)
    # Every basis's knots in one array; at[d, p] is the span's knot in it.
    knots = np.concatenate([b.knots for b in bases])
    at = span + np.cumsum([0] + [b.knots.size for b in bases[:-1]])[:, None]
    N = np.zeros((q, D, P))
    N[0] = 1.0
    left = np.empty((q, D, P))
    right = np.empty((q, D, P))
    for d in range(1, q):
        left[d] = pts - knots[at + 1 - d]
        right[d] = knots[at + d] - pts
        saved = np.zeros((D, P))
        for r in range(d):
            denom = right[r + 1] + left[d - r]
            temp = N[r] / denom
            N[r] = saved + right[r + 1] * temp
            saved = left[d - r] * temp
        N[d] = saved
    values = np.moveaxis(N, 0, -1)
    if normalized:
        integrals = np.concatenate([b.integrals for b in bases])
        offset = np.cumsum([0] + [b.dimension for b in bases[:-1]])[:, None, None]
        values = values / integrals[offset + first[..., None] + np.arange(q)]
    return first, values


def eval_basis(basis: Basis, x) -> np.ndarray:
    """Evaluate all J basis functions at x by the de Boor triangular recursion.

    x may be a scalar (returns shape (J,)) or an array (returns (len(x), J)).
    Values are nonnegative, at most q are nonzero, and they sum to one.
    Points outside [0, 1] or non-finite raise ValueError; there is no clamping.
    This is local_values of the one basis, scattered into the J columns.
    """
    first, values = local_values([basis], x)
    out = np.zeros((values.shape[1], basis.dimension))
    np.put_along_axis(out, first[0][:, None] + np.arange(basis.order), values[0], axis=1)
    return out[0] if np.isscalar(x) else out


def eval_normalized(basis: Basis, x) -> np.ndarray:
    """Evaluate the normalized functions B*_j = B_j / integral(B_j)."""
    return eval_basis(basis, x) / basis.integrals


class FitResult(NamedTuple):
    coefficients: np.ndarray
    error: float


def fit_coefficients(
    f: Callable[[np.ndarray], np.ndarray],
    basis: Basis,
    norm: str = "linf",
    grid_size: int = 1000,
) -> FitResult:
    """Least-squares fit of a bounded target on a dense grid.

    norm selects the reported discrepancy: "linf" is the sup of the grid
    residual, "l2" the root-mean-square grid residual. The coefficients are
    the grid least-squares solution in both cases (a Chebyshev fit is not
    attempted; only the decay order of the error matters downstream).
    """
    if norm not in ("l2", "linf"):
        raise ValueError(f"norm must be 'l2' or 'linf', got {norm!r}")
    grid = np.linspace(0.0, 1.0, grid_size)
    G = eval_basis(basis, grid)
    y = np.asarray(f(grid), dtype=float)
    theta, _, rank, _ = np.linalg.lstsq(G, y, rcond=None)
    if rank < basis.dimension:
        raise np.linalg.LinAlgError(
            f"rank-deficient design ({rank} < {basis.dimension}); grid too coarse"
        )
    resid = G @ theta - y
    err = float(np.max(np.abs(resid))) if norm == "linf" else float(np.sqrt(np.mean(resid**2)))
    return FitResult(theta, err)


def simplex_coefficients(
    f: Callable[[np.ndarray], np.ndarray],
    basis: Basis,
    grid_size: int = 1000,
) -> FitResult:
    """Probability-simplex coefficients for the normalized basis.

    For a density bounded away from zero: fit positive coefficients for the
    plain basis, rescale by the per-function integrals, renormalize onto the
    simplex. The achieved sup-grid error of theta' B* decays at the same
    order as the unconstrained fit.
    """
    eta1, _ = fit_coefficients(f, basis, norm="linf", grid_size=grid_size)
    # Densities touching zero at the boundary fit with exactly-zero boundary
    # coefficients; those are on the simplex. Only genuine negativity fails.
    tol = 1e-9 * float(np.max(np.abs(eta1)))
    if np.min(eta1) < -tol:
        raise SimplexInfeasibleError(
            f"positive-coefficient fit infeasible at J={basis.dimension}: "
            f"min coefficient {np.min(eta1):.3e}"
        )
    eta2 = np.maximum(eta1, 0.0) * basis.integrals
    theta = eta2 / eta2.sum()
    theta[np.argmax(theta)] += 1.0 - theta.sum()  # sum exactly one
    grid = np.linspace(0.0, 1.0, grid_size)
    approx = eval_normalized(basis, grid) @ theta
    err = float(np.max(np.abs(approx - np.asarray(f(grid), dtype=float))))
    return FitResult(theta, err)

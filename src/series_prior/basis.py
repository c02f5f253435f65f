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
window into the dense (P, J) matrix. grid_columns keeps the columns of a
fixed grid, and curve_operators the trapezoid operators of a curve grid,
which depend on nothing but the bases and the grid, in small memos, so
every fit on that grid reads them and none makes them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

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


def is_integer(value) -> bool:
    """True for an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def make_basis(q: int, K: int) -> Basis:
    """Build the order-q basis on K equal subintervals of [0, 1].

    Integrals use the knot-span identity (t_{j+q} - t_j) / q and are
    cross-checked against knot-aligned composite Simpson quadrature.
    Results are cached, 512 bases at most; an entry is about 0.4 KB of
    objects plus 8 (2 J + q) bytes of arrays, 0.8 KB at J = 25, so at
    J <= 25 the cache holds at most 0.4 MB. The returned arrays are
    read-only.
    """
    if not (is_integer(q) and q >= 1):
        raise ValueError(f"order q must be a positive integer, got {q!r}")
    if not (is_integer(K) and K >= 1):
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


def _dense(first: np.ndarray, values: np.ndarray, dimension: int) -> np.ndarray:
    """One basis's local values, first (P,) and values (P, q), scattered into its dense (P, J) matrix."""
    out = np.zeros((first.size, dimension))
    np.put_along_axis(out, first[:, None] + np.arange(values.shape[1]), values, axis=1)
    return out


def eval_basis(basis: Basis, x) -> np.ndarray:
    """Evaluate all J basis functions at x by the de Boor triangular recursion.

    x may be a scalar (returns shape (J,)) or an array (returns (len(x), J)).
    Values are nonnegative, at most q are nonzero, and they sum to one.
    Points outside [0, 1] or non-finite raise ValueError; there is no clamping.
    This is local_values of the one basis, scattered into the J columns.
    """
    first, values = local_values([basis], x)
    out = _dense(first[0], values[0], basis.dimension)
    return out[0] if np.isscalar(x) else out


def eval_normalized(basis: Basis, x) -> np.ndarray:
    """Evaluate the normalized functions B*_j = B_j / integral(B_j)."""
    return eval_basis(basis, x) / basis.integrals


class _GridKey:
    """Bases, a grid and a flag, hashed and compared by value: the key of the grid memos.

    Bases and arrays are not hashable. The key's value is the flag, the
    grid's shape and bytes, and every basis's j, order, intervals and the
    bytes of its knots and integrals, so two calls whose arguments agree bit
    for bit share an entry, and a hand-built Basis with the same (order,
    intervals) but other knots does not. The grid is kept only as those
    bytes (grid reads them back, read-only): an entry holds no reference to
    the caller's array and no second copy of it.
    """

    __slots__ = ("bases", "_value", "_hash")

    def __init__(self, bases: Mapping[int, Basis], x, flag: bool = False):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        self.bases = dict(bases)
        self._value = (
            bool(flag),
            x.shape,
            x.tobytes(),
            tuple((j, b.order, b.intervals, b.knots.tobytes(), b.integrals.tobytes()) for j, b in self.bases.items()),
        )
        self._hash = hash(self._value)

    @property
    def flag(self) -> bool:
        return self._value[0]

    @property
    def grid(self) -> np.ndarray:
        return np.frombuffer(self._value[2]).reshape(self._value[1])

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, _GridKey) and self._value == other._value


_ENTRY_BYTES = 8 << 20  # the largest entry a grid memo keeps: 8 MB


def _memoized(memo, key: _GridKey):
    """memo(key), or memo's fill without keeping the entry when its arrays would pass _ENTRY_BYTES."""
    size = 8 * key.grid.size * sum(b.dimension for b in key.bases.values())
    return memo(key) if size <= _ENTRY_BYTES else memo.__wrapped__(key)


def grid_columns(bases: Mapping[int, Basis], x, normalized: bool = False) -> Mapping[int, np.ndarray]:
    """Every basis's values at the grid x, as a read-only mapping j -> (J, P) columns.

    cols[j] holds the same values, in the same F-ordered layout, as
    eval_basis(bases[j], x).T, or eval_normalized(bases[j], x).T if
    normalized. A fit on a fixed grid reads these and never changes them,
    so they are made once per (bases, x, normalized) in the process: a miss
    takes one local_values pass over the bases, which share their order, and
    scatters each window into a (P, J) array; a hit returns the same arrays.
    Neither the mapping nor its arrays can be written. x is a vector of
    points in [0, 1].

    The memo keeps the 16 most recent (bases, grid) entries. An entry of
    P points holds 8 P sum(J) bytes of columns and 8 P bytes of key, about
    4 MB in all at the command line's defaults (J = 5..25, P = 100). An
    entry whose columns would pass _ENTRY_BYTES (8 MB) is made on every call
    and not kept, so the memo holds at most 16 x 8 MB of arrays and their keys.
    """
    return _memoized(_grid_columns, _GridKey(bases, x, normalized))


@lru_cache(maxsize=16)
def _grid_columns(key: _GridKey) -> Mapping[int, np.ndarray]:
    first, values = local_values(list(key.bases.values()), key.grid, key.flag)
    cols = {}
    for d, (j, basis) in enumerate(key.bases.items()):
        out = _dense(first[d], values[d], basis.dimension)
        out.flags.writeable = False
        cols[j] = out.T
    return MappingProxyType(cols)


def curve_operators(bases: Mapping[int, Basis], grid) -> Mapping[int, np.ndarray]:
    """Every basis's trapezoid operator on a curve grid, as a read-only mapping j -> (G, J) W.

    For a curve f sampled at the G grid points, f @ W[j] integrates f times
    each function of bases[j] by the trapezoid rule on the grid refined with
    that basis's inner knots and the floats just below them, f linearly
    interpolated as np.interp does. So W = L' diag(dw) B: B the basis values
    at the refined points x, dw the trapezoid weights on x, and L the
    interpolation from the grid to x (x between grid points k and k+1 at
    fraction t gets weight 1 - t on k and t on k+1). L is never formed:
    each refined point's two weights times dw times its B row are
    scatter-added into W, so a miss takes O(refined points x J) memory.
    grid must be strictly increasing in [0, 1], with at least 2 points.

    One entry holds every basis's operator on one grid, so a training set,
    its test set and every later fit on that grid share them, for as many
    dimensions as fit the size cap below. The memo keeps the 16 most recent
    (bases, grid) entries; an entry of G points holds 8 G (sum(J) + 1)
    bytes, about 4 MB in all at J = 5..25 on a 100-point grid. As in
    grid_columns, an entry past _ENTRY_BYTES is not kept, so the memo holds
    at most 16 x 8 MB of arrays and their keys.
    """
    return _memoized(_curve_operators, _GridKey(bases, grid))


@lru_cache(maxsize=16)
def _curve_operators(key: _GridKey) -> Mapping[int, np.ndarray]:
    g = key.grid
    if g.ndim != 1 or g.size < 2 or np.any(np.diff(g) <= 0):
        raise ValueError("a curve grid needs at least 2 strictly increasing points")
    ops = {}
    for j, basis in key.bases.items():
        inner = basis.breakpoints()
        inner = inner[(inner > g[0]) & (inner < g[-1])]
        x = np.unique(np.concatenate([g, inner, np.nextafter(inner, -np.inf)]))
        dx = np.diff(x)
        dw = np.zeros_like(x)
        dw[:-1] += dx / 2.0
        dw[1:] += dx / 2.0
        k = np.minimum(np.searchsorted(g, x, side="right") - 1, g.size - 2)
        t = (x - g[k]) / (g[k + 1] - g[k])
        rows = dw[:, None] * eval_basis(basis, x)
        W = np.zeros((g.size, basis.dimension))
        np.add.at(W, k, (1.0 - t)[:, None] * rows)
        np.add.at(W, k + 1, t[:, None] * rows)
        W.flags.writeable = False
        ops[j] = W
    return MappingProxyType(ops)


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

"""Exact k-nearest-neighbour distances and entropy estimators.

Implements the Renyi entropy estimator of Leonenko, Pronzato and Savani
(2008) and its Shannon (q -> 1) limit, the Kozachenko-Leonenko
estimator.  Distances come from one of three kernels that produce
bit-identical distances:

- the sorted kernel, the production path at m = 1: sort the points
  once; the k nearest neighbours of a point then lie within k places of
  it on either side, so O(N log N + N k) work suffices.  It merges the
  gaps on the two sides and squares only the k it keeps.
- "tree", a kd-tree (Friedman, Bentley and Finkel, 1977), the
  production path at m >= 2, and usable at any m.
- "brute", an O(N^2 m) scan kept as the test oracle.

:func:`knn_distances` takes "auto" (the sorted kernel at m = 1, the
tree otherwise), "tree" or "brute".  Every kernel squares coordinate
differences, selects the k smallest squared distances and takes one
square root of each (the sorted kernel selects among the gaps first,
which picks the same squares, because rounding t*t never falls as
t >= 0 grows), so the distances agree bit for bit in every
floating-point regime: differences beyond about 1e154 overflow to inf
in all three, and a squared difference that underflows to zero is a
duplicate in all three.

No kernel looks for duplicates.  :func:`knn_distances` applies one rule
to what any of them returns: a zero nearest-neighbour distance means the
point coincides with another, and it raises with the list of those
points, so the report grows with N, not with the number of coincident
pairs.

Every kernel returns one layout, the one the estimators read: a
(k_max, N) array whose row j-1 holds each point's j-th neighbour
distance, its points in the kernel's own order.  That is point order for
the kd-tree and brute force, and ascending x for the sorted kernel, and
nothing puts it back in point order: the estimators reduce one row with
:func:`_exact_sum`, a correctly rounded sum, so an estimate does not
depend on the order of the points.  Only the duplicate rule names
points, and only when it raises.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DuplicatePointsError
from .sampler import Sample
from .special import _integer, _log_unit_ball_volume, _order, digamma, ln_gamma

_BRUTE_BLOCK = 256


class KnnDistances:
    """Exact neighbour distances, read as the matrix rho or by column.

    rho[i, j-1] is the Euclidean distance from the i-th point, in the
    kernel's order, to its j-th nearest neighbour among the other N-1
    points, so rows are non-decreasing left to right.  The kd-tree and
    brute force give the points in point order, the sorted kernel (m = 1)
    in ascending-x order.  The distances are the kernel's (k_max, N)
    array, held as it came: :meth:`column` is one of its rows and `rho`
    its transpose, both views, and no reference to the sample is kept.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: np.ndarray) -> None:
        self._columns = columns

    @property
    def rho(self) -> np.ndarray:
        return self._columns.T

    def column(self, k: int) -> np.ndarray:
        """The distance of every point to its k-th nearest neighbour, in
        the kernel's order (point order, or ascending x)."""
        return self._columns[k - 1]

    @property
    def n(self) -> int:
        return self._columns.shape[1]

    @property
    def k_max(self) -> int:
        return self._columns.shape[0]


@dataclass(frozen=True)
class EntropyEstimate:
    """An entropy estimate in nats.

    The value is finite: one that is not raises DomainError, as when a
    neighbour distance beyond about 1.34e154 squares to inf in the kernel.
    """

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise DomainError(f"the entropy estimate is {self.value}: a squared neighbour "
                              "distance overflows the double range")


def knn_distances(sample: Sample, k_max: int, method: str = "auto") -> KnnDistances:
    """Exact k-nearest-neighbour distances for every sample point.

    Parameters
    ----------
    sample : Sample
        N points in R^m, all distinct.
    k_max : int
        Number of neighbour distances per point, an integer with
        1 <= k_max <= N-1, read by :func:`special._integer`.
    method : {"auto", "tree", "brute"}
        Kernel selection; all give bit-identical distances.  "auto"
        runs the sorted kernel at m = 1 and the kd-tree otherwise, at
        every N; "tree" is the kd-tree at any m, and "brute" the O(N^2)
        test oracle.  The result lists the points in the kernel's order:
        point order for "tree" and "brute", ascending x for the sorted
        kernel.

    Raises
    ------
    DomainError
        If k_max is not such an integer, or for an unknown or unfit method.
    DuplicatePointsError
        If two points coincide (zero squared distance), listing in
        ascending order every point whose nearest neighbour is at zero
        distance.
    """
    pts = sample.points
    k_max = _integer("k_max", k_max, 1, sample.n)
    x_order = method == "auto" and sample.dim == 1  # the sorted kernel
    if x_order:
        columns = _sorted_kernel(pts[:, 0], k_max)
    elif method in ("auto", "tree"):
        columns = _tree_kernel(pts, k_max)
    elif method == "brute":
        columns = _brute_kernel(pts, k_max)
    else:
        raise DomainError(f"unknown method {method!r}")
    if not columns[0].all():
        # the one place that needs point order: the sorted kernel's r-th
        # distance is that of the point of rank r in x
        at_zero = columns[0] == 0.0
        points = np.argsort(pts[:, 0])[at_zero] if x_order else np.flatnonzero(at_zero)
        raise DuplicatePointsError(sorted(points.tolist()))
    return KnnDistances(columns)


def _pairwise_sq(block: np.ndarray, pts: np.ndarray) -> np.ndarray:
    # accumulate coordinate by coordinate: matches the kd-tree kernel's
    # summation order exactly, keeping the two kernels bit-identical
    d2 = np.zeros((block.shape[0], pts.shape[0]))
    for j in range(pts.shape[1]):
        diff = block[:, j, None] - pts[None, :, j]
        d2 += diff * diff
    return d2


def _brute_kernel(pts: np.ndarray, k_max: int) -> np.ndarray:
    n = pts.shape[0]
    rho = np.empty((n, k_max))
    for start in range(0, n, _BRUTE_BLOCK):
        stop = min(start + _BRUTE_BLOCK, n)
        d2 = _pairwise_sq(pts[start:stop], pts)
        rows = np.arange(start, stop)
        d2[rows - start, rows] = np.inf
        part = np.partition(d2, k_max - 1, axis=1)[:, :k_max]
        part.sort(axis=1)
        rho[start:stop] = np.sqrt(part)
    return rho.T


def _tree_kernel(pts: np.ndarray, k_max: int) -> np.ndarray:
    from scipy.spatial import cKDTree  # loaded on first use: m = 1 never needs it

    dist, _ = cKDTree(pts).query(pts, k=k_max + 1)
    # column 0 is the query point itself, or a point that coincides with
    # it: then column 1 is zero too, which knn_distances reports
    return dist[:, 1:].T


def _sorted_kernel(x: np.ndarray, k_max: int) -> np.ndarray:
    # row j-1 of the result holds the j-th neighbour distances in
    # ascending-x order
    n = x.size
    # the k_max neighbours on either side in sorted order, padded with
    # +-inf past the ends, hold the k_max nearest: gaps grow outward
    padded = np.empty(n + 2 * k_max)
    padded[:k_max] = -np.inf
    padded[n + k_max:] = np.inf
    xs = padded[k_max:n + k_max]
    xs[:] = x
    xs.sort()
    # row s of `windows` is padded[s:s + n], a view
    windows = np.ndarray((2 * k_max + 1, n), buffer=padded, strides=(padded.itemsize,) * 2)
    # row i: the non-negative gaps to the (i+1)-th neighbour on the left,
    # on the right; each row never falls as i grows, so merging the two
    # sorted lists gives the j-th smallest as
    # min(L[j], R[j], max(L[i], R[j-1-i]), i < j)
    left = xs - windows[k_max - 1::-1]
    right = windows[k_max + 1:] - xs
    rho = np.empty((k_max, n))
    pair = np.empty(n)
    for j, row in enumerate(rho):
        np.minimum(left[j], right[j], out=row)
        for i in range(j):
            np.minimum(row, np.maximum(left[i], right[j - 1 - i], out=pair), out=row)
    # squared like the other kernels, so over- and underflow agree too:
    # t -> t*t rounded never falls for t >= 0, so squaring the selected
    # gaps gives the squares a selection among squares would pick
    rho *= rho
    return np.sqrt(rho, out=rho)


# 2**27 + 1, Veltkamp's constant: splits a double into two 26-bit halves
_SPLIT = 134217729.0
# below this size math.fsum is the faster of the two
_EXACT_SUM_MIN_N = 200
# up to this many halves on one grid sum without rounding (see below)
_EXACT_SUM_MAX_N = 2**26
# from this magnitude on, _SPLIT * x could overflow
_EXACT_SUM_MAX_ABS = 2.0**995


def _exact_sum(x: np.ndarray) -> float:
    """The correctly rounded sum of a float array: math.fsum(x), bit for bit.

    A correctly rounded sum has one possible value, so any exact method
    returns fsum's bits.  Dekker (1971) splitting writes each term
    |x| < 2**e as hi + lo, exactly, with hi a multiple of 2**(e-27) and
    lo one of 2**(e-53) (or of the least subnormal), each at most 2**27
    of those units in size.  The halves of terms that share e therefore
    sum without rounding in plain float arithmetic (np.bincount) while
    N <= 2**26, and math.fsum rounds the few per-exponent totals once.
    Short arrays, non-finite or huge terms, and a zero total (whose sign
    fsum decides) go to math.fsum itself.
    """
    n = x.size
    if not (_EXACT_SUM_MIN_N <= n <= _EXACT_SUM_MAX_N and np.abs(x).max() < _EXACT_SUM_MAX_ABS):
        return math.fsum(x.tolist())
    e = np.frexp(x)[1]
    e -= e.min()
    c = _SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    total = math.fsum([*np.bincount(e, weights=hi).tolist(), *np.bincount(e, weights=lo).tolist()])
    return total if total != 0.0 else math.fsum(x.tolist())


@functools.lru_cache(maxsize=256)
def _log_g_const(n: int, dim: int, k: int, q: float) -> float:
    # zeta_i = (N-1) C_k V_m rho_i^m;  (1-q) log C_k = lnG(k) - lnG(k+1-q)
    log_const = (1.0 - q) * (math.log(n - 1) + _log_unit_ball_volume(dim))
    return log_const + (ln_gamma(k) - ln_gamma(k + 1.0 - q))


def _log_g(dists: KnnDistances, dim: int, k: int, q: float) -> float:
    """log G, with G the estimate of the integral of f^q: the sample mean
    of zeta_i^{1-q}, where zeta_i = (N-1) C_k V_m rho_{k,i}^m and
    C_k = [Gamma(k)/Gamma(k+1-q)]^{1/(1-q)}.  Requires k > q - 1, and a
    float q > 0 other than 1 (:func:`renyi_estimate` reads it)."""
    k = _integer("k", k, 1, dists.k_max + 1)
    if not k > q - 1.0:
        raise DomainError(f"estimator requires k > q - 1, got k = {k}, q = {q}")
    n = dists.n
    rho = dists.column(k)
    # the terms in one buffer, each step in place: the bits of
    # exp((1 - q) * dim * log(rho) + const - max)
    s = np.log(rho)
    s *= (1.0 - q) * dim
    s += _log_g_const(n, dim, k, q)
    # log-sum-exp with a correctly rounded sum: the same bits in any order
    s_max = float(s.max())
    if not math.isfinite(s_max):  # a distance overflowed: EntropyEstimate rejects this
        return s_max
    s -= s_max
    return s_max + math.log(_exact_sum(np.exp(s, out=s))) - math.log(n)


def renyi_estimate(sample: Sample, k: int, q: float) -> EntropyEstimate:
    """Nearest-neighbour Renyi entropy estimate log(G)/(1-q) at order q,
    q > 0 other than 1, read by :func:`special._order`."""
    q = _order(q)
    if q == 1.0:
        raise DomainError("q = 1 is the Shannon case; use shannon_estimate")
    dists = knn_distances(sample, k)
    return EntropyEstimate(_log_g(dists, sample.dim, k, q) / (1.0 - q))


def shannon_estimate(sample: Sample, k: int) -> EntropyEstimate:
    """Kozachenko-Leonenko Shannon entropy estimate, the q -> 1 limit of
    :func:`renyi_estimate` (where C_k -> exp(-psi(k)))."""
    n, m = sample.n, sample.dim
    rho = knn_distances(sample, k).column(k)
    return EntropyEstimate(
        m * _exact_sum(np.log(rho)) / n
        + _log_unit_ball_volume(m)
        + math.log(n - 1)
        - digamma(k)
    )

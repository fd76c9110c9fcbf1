"""The maximum-entropy goodness-of-fit statistic.

A sample is tested against the simple null hypothesis that it came from
a Student (resp. Pearson II) distribution with a given tail parameter;
+inf gives the two families' common Gaussian limit.  The statistic is
W = H_q^max(S) - H_hat_{N,k,q}: the gap between the maximum Renyi
entropy compatible with the sample covariance S and the
nearest-neighbour entropy estimate, both at the order q the null
parameter induces.  Under the null the gap tends to zero in
probability; under an alternative it tends to a strictly positive
constant, so large values reject (upper-tail test).

:func:`statistic` computes W, signed (the estimate may overshoot the
maximum in finite samples); the two named wrappers fix its family.  Its
`constraint` argument replaces S by another covariance: the Monte Carlo
engine's "fresh" mode passes the covariance of an independent draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    Family,
    SpdMatrix,
    _spd,
    _standard_spec,
    check_estimator_conditions,
    check_pearson_k,
    max_renyi_entropy,
    tail_family,
)
from .errors import DomainError
from .knn import renyi_estimate, shannon_estimate
from .sampler import Sample
from .special import _integer


@dataclass(frozen=True)
class GofStatistic:
    """A maximum-entropy test statistic, its two terms and what it found.

    `value` is W = `h_max` - `h_hat`: `h_max` is H_q^max of the
    covariance constraint S and `h_hat` the nearest-neighbour estimate,
    so a bias can be traced to its term.  `family` is GAUSSIAN when the
    null parameter is +inf (both tests then coincide in their common
    Gaussian limit), and `q` is the order the null induces.  `l2_ok`
    records whether the one estimator condition, L2 convergence
    (Leonenko, Pronzato and Savani 2008), holds under the null.  It has
    two sides: the moment side is :func:`check_estimator_conditions`,
    and the k side, q < (k+1)/2 for q > 1, is checked in
    :func:`statistic` itself.  A failing case (the boundary q = 1/2, a
    Pearson II null with k <= 2/eta0 + 1) computes anyway and is merely
    flagged.
    """

    value: float
    h_max: float
    h_hat: float
    family: Family
    q: float
    l2_ok: bool


def sample_covariance(sample: Sample) -> tuple[np.ndarray, SpdMatrix]:
    """Sample mean and unbiased (divisor N-1) covariance matrix.

    Requires N >= m+1 so the covariance is almost surely positive
    definite; a degenerate sample raises NotPositiveDefiniteError from
    the factorisation.
    """
    n, m = sample.n, sample.dim
    if n < m + 1:
        raise DomainError(f"need at least m+1 = {m + 1} points, got {n}")
    mean = sample.points.mean(axis=0)
    dev = sample.points - mean
    cov = dev.T @ dev / (n - 1)
    return mean, SpdMatrix(cov)


def statistic(sample: Sample, family: Family, null_param: float, k: int,
              constraint: SpdMatrix | None = None) -> GofStatistic:
    """W = H_q^max(S) - H_hat_{N,k,q} for the null "sample ~ family(null_param)".

    S, the covariance constraint of the maximum, is `constraint` when
    given (an independent draw's covariance, say: an SpdMatrix or
    anything :class:`SpdMatrix` accepts) and the sample's own
    :func:`sample_covariance` otherwise.  `family` is the member
    Family.STUDENT or Family.PEARSON2; any other value, a string such as
    "student" included, raises DomainError.  Student nu0 > 2 gives
    q = 1 - 2/(nu0+m) and Pearson II eta0 > 0 gives q = 1 + 1/eta0
    (which needs k > 1/eta0), both with the Renyi estimate; +inf gives
    the Gaussian branch (family GAUSSIAN, q = 1, Shannon estimate).  The
    pair is read by :func:`distributions.tail_family`, so any other null
    parameter, a bool, -inf and NaN included, raises DomainError, and so
    does a k that is not an integer >= 1 (read first, by
    :func:`special._integer`).
    """
    k = _integer("k", k, 1)
    m = sample.dim
    null_family, null_param = tail_family(family, null_param)  # a float for the cache below
    if null_family is Family.PEARSON2:
        check_pearson_k(k, null_param)
    constraint = sample_covariance(sample)[1] if constraint is None else _spd(constraint)
    if constraint.dim != m:
        raise DomainError(f"constraint has dimension {constraint.dim}, sample has {m}")
    h_max, q, _ = max_renyi_entropy(family, constraint, null_param)
    h_hat = (shannon_estimate(sample, k) if q == 1.0 else renyi_estimate(sample, k, q)).value
    # the L2 condition: its moment side, and for q > 1 its k side
    l2_ok = (bool(check_estimator_conditions(_standard_spec(family, null_param, m), q, "L2"))
             and (q <= 1.0 or q < (k + 1) / 2.0))
    return GofStatistic(h_max - h_hat, h_max, h_hat, null_family, q, l2_ok)


def student_statistic(sample: Sample, nu0: float, k: int) -> GofStatistic:
    """:func:`statistic` for the null "sample ~ Student with parameter nu0"."""
    return statistic(sample, Family.STUDENT, nu0, k)


def pearson_statistic(sample: Sample, eta0: float, k: int) -> GofStatistic:
    """:func:`statistic` for the null "sample ~ Pearson II with parameter eta0"."""
    return statistic(sample, Family.PEARSON2, eta0, k)

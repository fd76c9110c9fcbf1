"""Multivariate Gaussian, Student and Pearson type II distributions.

Provides density evaluation, closed-form Renyi entropies, the
maximum-entropy values over the class of densities with fixed mean and
covariance, and the moment conditions under which the nearest-neighbour
entropy estimator converges.

Closed forms for the Student and Pearson II Renyi entropies follow
Zografos and Nadarajah (2005); the maximum-entropy characterisation is
due to Lutwak, Yang and Zhang (2004) and Johnson and Vignat (2007).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError, NotPositiveDefiniteError
from .special import ln_beta, ln_gamma

__all__ = [
    "Family",
    "SpdMatrix",
    "DistributionSpec",
    "gaussian",
    "student",
    "pearson2",
    "tail_family",
    "check_pearson_k",
    "density",
    "log_density",
    "renyi_entropy_closed_form",
    "gaussian_shannon_entropy",
    "student_renyi_constant",
    "pearson2_renyi_constant",
    "max_renyi_entropy",
    "MaxEntropyResult",
    "critical_moment",
    "check_estimator_conditions",
    "ConditionCheck",
]

_LOG_2PI = math.log(2.0 * math.pi)
_NOT_FINITE = "matrix entries must be finite"
_SYM_OVERFLOW = "matrix entries too large: (A + A')/2 is not finite"
# a + b cannot overflow when neither exceeds this in magnitude
_HALF_MAX = float(np.finfo(float).max) / 2.0


def _pivot_underflow(min_pivot_sq: float) -> str:
    return f"Cholesky pivot underflow (min pivot {min_pivot_sq:.3e})"


class Family(str, enum.Enum):
    """Distribution family tag."""

    GAUSSIAN = "gaussian"
    STUDENT = "student"
    PEARSON2 = "pearson2"


class SpdMatrix:
    """Symmetric positive definite matrix with a cached Cholesky factor.

    Input is symmetrised as (A + A')/2 before factorisation; sample
    covariances carry rounding asymmetry.  Construction fails if an
    entry of the input or of (A + A')/2 is not finite, if the input is
    visibly asymmetric, or if any Cholesky pivot is not strictly
    positive (tiny pivots below 1e-300 are treated as zero).

    Attributes
    ----------
    matrix : ndarray, shape (m, m)
        The symmetrised matrix.
    chol : ndarray, shape (m, m)
        Lower-triangular factor L with L L' = matrix.
    log_det : float
        log |matrix|, computed as twice the log-diagonal sum of L.
    """

    __slots__ = ("matrix", "chol", "dim", "log_det")

    def __init__(self, matrix) -> None:
        a = np.atleast_2d(np.asarray(matrix, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        if a.shape == (1, 1):
            self._factor_1x1(a)
            return
        scale = np.abs(a).max()
        if not np.isfinite(scale):
            raise DomainError(_NOT_FINITE)
        with np.errstate(over="ignore"):  # entries past _HALF_MAX may give inf: see below
            asymmetry = np.abs(a - a.T).max()
            sym = (a + a.T) / 2.0
        if asymmetry > 1e-12 * max(scale, 1e-300):
            raise DomainError("matrix is not symmetric within 1e-12 relative tolerance")
        if scale > _HALF_MAX and not np.isfinite(sym).all():
            raise DomainError(_SYM_OVERFLOW)
        try:
            chol = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"Cholesky factorisation failed: {exc}"
            ) from None
        diag = np.diag(chol)
        if (diag * diag <= 1e-300).any():
            raise NotPositiveDefiniteError(_pivot_underflow(float((diag * diag).min())))
        self.matrix = sym
        self.chol = chol
        self.dim = sym.shape[0]
        self.log_det = 2.0 * float(np.log(diag).sum())

    def _factor_1x1(self, a: np.ndarray) -> None:
        # the path above without LAPACK, bit for bit: the Cholesky factor
        # of [[s]] is the correctly rounded sqrt(s), and LAPACK fails
        # exactly when s <= 0; a 1x1 matrix is always symmetric
        if not math.isfinite(a[0, 0]):
            raise DomainError(_NOT_FINITE)
        if abs(a[0, 0]) > _HALF_MAX:
            raise DomainError(_SYM_OVERFLOW)
        sym = (a + a) / 2.0
        if not sym[0, 0] > 0:
            raise NotPositiveDefiniteError(
                "Cholesky factorisation failed: Matrix is not positive definite"
            )
        chol = np.sqrt(sym)
        pivot = chol[0, 0]
        if pivot * pivot <= 1e-300:
            raise NotPositiveDefiniteError(_pivot_underflow(float(pivot * pivot)))
        self.matrix = sym
        self.chol = chol
        self.dim = 1
        self.log_det = 2.0 * float(np.log(pivot))

    @classmethod
    def identity(cls, m: int) -> "SpdMatrix":
        return cls(np.eye(m))

    def scaled(self, c: float) -> "SpdMatrix":
        """Return c * matrix as a new SpdMatrix (c > 0)."""
        if not c > 0:
            raise DomainError(f"scale factor must be positive, got {c}")
        return SpdMatrix(self.matrix * c)

    def mahalanobis_sq(self, delta: np.ndarray) -> Union[float, np.ndarray]:
        """Quadratic form delta' M^{-1} delta via triangular solve.

        `delta` may be a single m-vector or an (n, m) batch.
        """
        from scipy.linalg import solve_triangular  # loaded on first use

        d = np.asarray(delta, dtype=float)
        single = d.ndim == 1
        y = solve_triangular(self.chol, np.atleast_2d(d).T, lower=True)
        q = np.einsum("ij,ij->j", y, y)
        return float(q[0]) if single else q

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdMatrix(dim={self.dim}, log_det={self.log_det:.6g})"


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """A member of one of the three elliptical families.

    `param` is the tail parameter: degrees of freedom for Student,
    shape exponent for Pearson II, and None for the Gaussian.  Infinite
    Student/Pearson parameters are canonicalised to the Gaussian by the
    factory functions; use those rather than this constructor.
    """

    family: Family
    location: np.ndarray
    scale: SpdMatrix
    param: float | None = None

    def __post_init__(self) -> None:
        loc = np.asarray(self.location, dtype=float).reshape(-1)
        if loc.shape[0] != self.scale.dim:
            raise DomainError(
                f"location has dimension {loc.shape[0]}, scale has {self.scale.dim}"
            )
        if not np.isfinite(loc).all():
            raise DomainError("location must be finite")
        object.__setattr__(self, "location", loc)

    @property
    def dim(self) -> int:
        return self.scale.dim


def gaussian(location, scale) -> DistributionSpec:
    """Gaussian N_m(a, Sigma)."""
    return DistributionSpec(Family.GAUSSIAN, np.asarray(location, float), _as_spd(scale))


def student(location, scale, nu: float) -> DistributionSpec:
    """Student T_m(a, Sigma, nu), requiring nu > 2 so the covariance
    Sigma / (1 - 2/nu) exists.  nu = inf yields the Gaussian."""
    if tail_family(Family.STUDENT, nu) is Family.GAUSSIAN:
        return gaussian(location, scale)
    return DistributionSpec(Family.STUDENT, np.asarray(location, float), _as_spd(scale), float(nu))


def pearson2(location, scale, eta: float) -> DistributionSpec:
    """Pearson type II P_m(a, Sigma, eta) with eta > 0, supported on the
    ellipsoid (x-a)' Sigma^{-1} (x-a) <= 1.  eta = inf yields the Gaussian."""
    if tail_family(Family.PEARSON2, eta) is Family.GAUSSIAN:
        return gaussian(location, scale)
    return DistributionSpec(Family.PEARSON2, np.asarray(location, float), _as_spd(scale), float(eta))


@functools.lru_cache(maxsize=64)
def _standard_spec(family: Family, param: float, m: int) -> DistributionSpec:
    """The location-0, scale-I member of the Student or Pearson II family
    with tail parameter `param` in dimension m (+inf gives the Gaussian),
    built once per process and key.  Any other family raises DomainError."""
    make = {Family.STUDENT: student, Family.PEARSON2: pearson2}.get(family)
    if make is None:
        raise DomainError(f"family must be student or pearson2, got {family!r}")
    return make(np.zeros(m), SpdMatrix.identity(m), param)


def tail_family(family: Family, param: float) -> Family:
    """Family a tail parameter selects: GAUSSIAN for exactly +inf, else
    `family`.  The one domain rule: Student nu > 2, Pearson II eta > 0;
    anything else, -inf and NaN included, raises DomainError."""
    if family is Family.STUDENT:
        valid, rule = param > 2, "Student requires nu > 2"
    elif family is Family.PEARSON2:
        valid, rule = param > 0, "Pearson II requires eta > 0"
    else:
        raise DomainError(f"{family!r} has no tail parameter")
    if not valid:
        raise DomainError(f"{rule} or inf, got {param}")
    return Family.GAUSSIAN if param == math.inf else family


def _pearson_order(eta: float) -> float:
    # the Renyi order whose entropy maximiser is Pearson II eta
    return 1.0 + 1.0 / eta


def check_pearson_k(k: int, eta: float) -> None:
    """The one rule k > 1/eta for a Pearson II null with finite eta.

    The nearest-neighbour estimate at the order q = 1 + 1/eta needs
    k > q - 1; this tests exactly that, in the estimator's own float
    arithmetic, so whatever passes here also passes the estimator.
    Raises DomainError otherwise.
    """
    if not k > _pearson_order(eta) - 1.0:
        raise DomainError(f"estimator requires k > 1/eta0 = {1.0 / eta}, got k = {k}")


def _as_spd(scale) -> SpdMatrix:
    return scale if isinstance(scale, SpdMatrix) else SpdMatrix(scale)


def log_density(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    """Log density at x (an m-vector or an (n, m) batch).

    Pearson II returns -inf outside its ellipsoidal support.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != spec.dim:
        raise DomainError(f"points have dimension {pts.shape[1]}, expected {spec.dim}")
    q = spec.scale.mahalanobis_sq(pts - spec.location)
    q = np.atleast_1d(q)
    m = spec.dim
    half_logdet = 0.5 * spec.scale.log_det

    if spec.family is Family.GAUSSIAN:
        out = -0.5 * m * _LOG_2PI - half_logdet - 0.5 * q
    elif spec.family is Family.STUDENT:
        nu = spec.param
        log_c1 = ln_gamma((nu + m) / 2.0) - ln_gamma(nu / 2.0) - 0.5 * m * math.log(math.pi * nu)
        out = log_c1 - half_logdet - 0.5 * (nu + m) * np.log1p(q / nu)
    else:
        eta = spec.param
        log_c1 = ln_gamma(m / 2.0 + eta + 1.0) - ln_gamma(eta + 1.0) - 0.5 * m * math.log(math.pi)
        t = 1.0 - q
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(t > 0.0, log_c1 - half_logdet + eta * np.log(np.maximum(t, 0.0)), -np.inf)
    return float(out[0]) if single else out


def density(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    """Density at x; zero outside the Pearson II support."""
    return np.exp(log_density(spec, x))


@functools.lru_cache(maxsize=256)
def student_renyi_constant(m: int, nu: float, q: float) -> float:
    """Location-free part of the Student Renyi entropy:
    H_q(T_m(a, Sigma, nu)) = log|Sigma|/2 + this constant."""
    b1 = q * (nu + m) / 2.0 - m / 2.0
    if not b1 > 0:
        raise DomainError(
            f"Student Renyi entropy undefined: q(nu+m)/2 - m/2 = {b1} must be positive"
        )
    return (
        (ln_beta(b1, m / 2.0) - q * ln_beta(nu / 2.0, m / 2.0)) / (1.0 - q)
        + 0.5 * m * math.log(math.pi * nu)
        - ln_gamma(m / 2.0)
    )


@functools.lru_cache(maxsize=256)
def pearson2_renyi_constant(m: int, eta: float, q: float) -> float:
    """Location-free part of the Pearson II Renyi entropy:
    H_q(P_m(a, Sigma, eta)) = log|Sigma|/2 + this constant."""
    b1 = q * eta + 1.0
    if not b1 > 0:
        raise DomainError(
            f"Pearson II Renyi entropy undefined: q*eta + 1 = {b1} must be positive"
        )
    return (
        (ln_beta(b1, m / 2.0) - q * ln_beta(eta + 1.0, m / 2.0)) / (1.0 - q)
        + 0.5 * m * math.log(math.pi)
        - ln_gamma(m / 2.0)
    )


def _gaussian_renyi(m: int, log_det: float, q: float) -> float:
    return 0.5 * m * _LOG_2PI + 0.5 * log_det - m * math.log(q) / (2.0 * (1.0 - q))


def renyi_entropy_closed_form(spec: DistributionSpec, q: float) -> float:
    """Renyi entropy of order q (q > 0, q != 1) in nats.

    The q = 1 (Shannon) value is available in closed form only for the
    Gaussian; use :func:`gaussian_shannon_entropy` for that.
    """
    if not q > 0:
        raise DomainError(f"Renyi order must be positive, got {q}")
    if q == 1.0:
        raise DomainError("q = 1 is the Shannon case; use gaussian_shannon_entropy")
    if spec.family is Family.GAUSSIAN:
        return _gaussian_renyi(spec.dim, spec.scale.log_det, q)
    if spec.family is Family.STUDENT:
        return 0.5 * spec.scale.log_det + student_renyi_constant(spec.dim, spec.param, q)
    return 0.5 * spec.scale.log_det + pearson2_renyi_constant(spec.dim, spec.param, q)


def gaussian_shannon_entropy(spec: DistributionSpec) -> float:
    """Shannon entropy log[(2 pi e)^{m/2} |Sigma|^{1/2}] of a Gaussian spec."""
    if spec.family is not Family.GAUSSIAN:
        raise DomainError("closed-form Shannon entropy is implemented for the Gaussian only")
    return 0.5 * spec.dim * (_LOG_2PI + 1.0) + 0.5 * spec.scale.log_det


class MaxEntropyResult(NamedTuple):
    """Maximum Renyi entropy over densities with fixed mean and covariance."""

    h_max: float
    q: float
    scale: SpdMatrix


def max_renyi_entropy(family: Family, constraint: SpdMatrix, param: float) -> MaxEntropyResult:
    """Maximum of H_q over all densities with covariance `constraint`.

    For m/(m+2) < q < 1, the maximiser is the Student distribution with
    nu = 2/(1-q) - m and Sigma = (1 - 2/nu) C; for q > 1 it is the
    Pearson II distribution with eta = 1/(q-1) and Sigma = (2 eta + m + 2) C.
    This function takes the family parameter as input and returns the
    corresponding maximising order q together with the rescaled Sigma.
    A parameter of +inf selects the Gaussian (q -> 1) branch, where
    the Shannon entropy is maximised with Sigma = C.

    Parameters
    ----------
    family : Family
        STUDENT interprets `param` as nu, PEARSON2 as eta.  GAUSSIAN
        ignores `param`.
    constraint : SpdMatrix
        Covariance constraint C.
    param : float
        nu > 2, eta > 0, or +inf for the Gaussian branch (see
        :func:`tail_family`).

    Returns
    -------
    MaxEntropyResult
        (maximum entropy, maximising order q, rescaled scale matrix).
    """
    m = constraint.dim
    if family is not Family.GAUSSIAN:
        family = tail_family(family, param)
    if family is Family.GAUSSIAN:
        h1 = 0.5 * m * (_LOG_2PI + 1.0) + 0.5 * constraint.log_det
        return MaxEntropyResult(h1, 1.0, constraint)
    if family is Family.STUDENT:
        q = 1.0 - 2.0 / (param + m)
        sigma = constraint.scaled(1.0 - 2.0 / param)
        h = 0.5 * sigma.log_det + student_renyi_constant(m, param, q)
        return MaxEntropyResult(h, q, sigma)
    q = _pearson_order(param)
    sigma = constraint.scaled(2.0 * param + m + 2.0)
    h = 0.5 * sigma.log_det + pearson2_renyi_constant(m, param, q)
    return MaxEntropyResult(h, q, sigma)


def critical_moment(spec: DistributionSpec) -> float:
    """Supremum of r with E ||X||^r finite.

    The Student density decays like ||x||^{-(nu+m)}, giving nu; the
    Gaussian and the compactly supported Pearson II have all moments.
    """
    if spec.family is Family.STUDENT:
        return spec.param
    return math.inf


@dataclass(frozen=True)
class ConditionCheck:
    """Boolean verdict with the reason a condition failed (if it did)."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_estimator_conditions(spec: DistributionSpec, q: float, mode: str) -> ConditionCheck:
    """Moment conditions for convergence of the nearest-neighbour estimator.

    For 0 < q < 1, convergence in mean requires r_c(f) > m(1-q)/q and
    convergence in L2 additionally requires q > 1/2 and
    r_c(f) > 2m(1-q)/(2q-1), where r_c is the critical moment.  For
    q >= 1 the moment side holds for all three families; the companion
    requirement q < (k+1)/2 depends on k and is checked by the caller.
    """
    if not q > 0:
        raise DomainError(f"order q must be positive, got {q}")
    if mode not in ("mean", "L2"):
        raise DomainError(f"mode must be 'mean' or 'L2', got {mode!r}")
    if q >= 1.0:
        return ConditionCheck(True)
    m = spec.dim
    r_c = critical_moment(spec)
    if mode == "mean":
        bound = m * (1.0 - q) / q
        if r_c > bound:
            return ConditionCheck(True)
        return ConditionCheck(False, f"critical moment {r_c} <= m(1-q)/q = {bound}")
    if not q > 0.5:
        return ConditionCheck(False, "q <= 1/2")
    bound = 2.0 * m * (1.0 - q) / (2.0 * q - 1.0)
    if r_c > bound:
        return ConditionCheck(True)
    return ConditionCheck(False, f"critical moment {r_c} <= 2m(1-q)/(2q-1) = {bound}")

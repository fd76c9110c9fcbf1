"""Multivariate Gaussian, Student and Pearson type II distributions.

Provides density evaluation, closed-form Renyi entropies, the
maximum-entropy values over the class of densities with fixed mean and
covariance, and the one estimator condition the goodness-of-fit
statistic reads: the moment side of the L2 condition under which the
nearest-neighbour entropy estimator converges.

Closed forms for the Student and Pearson II Renyi entropies follow
Zografos and Nadarajah (2005); the maximum-entropy characterisation is
due to Lutwak, Yang and Zhang (2004) and Johnson and Vignat (2007).
Each family's closed form is written once, as a function of the
log-determinant of the scale, and the maximum entropy is evaluated by
that same code at the maximiser's order and scale, so H_max equals the
maximiser's closed-form entropy bit for bit.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError, NotPositiveDefiniteError
from .special import _order, _real, _reals, ln_beta, ln_gamma

_LOG_2PI = math.log(2.0 * math.pi)
_SYM_OVERFLOW = "matrix entries too large: (A + A')/2 is not finite"
# a + b cannot overflow when neither exceeds this in magnitude
_HALF_MAX = float(np.finfo(float).max) / 2.0


def _pivot_underflow(min_pivot_sq: float) -> str:
    return f"Cholesky pivot underflow (min pivot {min_pivot_sq:.3e})"


class Family(enum.Enum):
    """Distribution family tag.  A member is never equal to its value's
    string, so a string is not taken for a member anywhere, caches
    included."""

    GAUSSIAN = "gaussian"
    STUDENT = "student"
    PEARSON2 = "pearson2"


class SpdMatrix:
    """Symmetric positive definite matrix with a cached Cholesky factor.

    Input is symmetrised as (A + A')/2 before factorisation; sample
    covariances carry rounding asymmetry.  The input is read by
    :func:`special._reals`, so it must hold finite real numbers.
    Construction also fails if an entry of (A + A')/2 is not finite, if
    the input is visibly asymmetric, or if any Cholesky pivot is not
    strictly positive (tiny pivots below 1e-300 are treated as zero).

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
        a = np.atleast_2d(_reals("matrix entries", matrix))
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise DomainError(f"expected a square matrix, got shape {a.shape}")
        if a.shape == (1, 1):
            self._factor_1x1(a)
            return
        scale = np.abs(a).max()
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


def _spd(matrix) -> SpdMatrix:
    """`matrix` itself if it is an SpdMatrix, else ``SpdMatrix(matrix)``:
    the one reader of a scale or covariance argument."""
    return matrix if isinstance(matrix, SpdMatrix) else SpdMatrix(matrix)


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """A member of one of the three elliptical families.

    Every law is built here, and construction checks it, in this order:

    - `family` and `param`: GAUSSIAN takes `param` None; any other pair
      is read by :func:`tail_family`, so `family` must be the member
      STUDENT (`param` nu) or PEARSON2 (`param` eta), +inf turns the
      spec into the Gaussian with `param` None, and a finite `param` is
      stored as the float :func:`special._real` reads.  A string
      family, a Gaussian with a parameter and a Student or Pearson II
      law without one raise DomainError.
    - `scale`: an SpdMatrix, or anything :class:`SpdMatrix` accepts
      (:func:`_spd`).
    - `location`: read by :func:`special._reals` as finite real numbers,
      of the scale's dimension.

    `unit_scale`, set at construction, is true when the Cholesky factor
    of `scale` is exactly the identity and no entry of `location` is
    -0.0; :func:`sampler.sample` then skips its matmul (see there).
    """

    family: Family
    location: np.ndarray
    scale: SpdMatrix
    param: float | None = None
    unit_scale: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.family is not Family.GAUSSIAN or self.param is not None:
            family, param = tail_family(self.family, self.param)
            object.__setattr__(self, "family", family)
            object.__setattr__(self, "param", None if family is Family.GAUSSIAN else param)
        object.__setattr__(self, "scale", _spd(self.scale))
        loc = _reals("location", self.location).reshape(-1)
        if loc.shape[0] != self.scale.dim:
            raise DomainError(
                f"location has dimension {loc.shape[0]}, scale has {self.scale.dim}"
            )
        object.__setattr__(self, "location", loc)
        unit = np.array_equal(self.scale.chol, np.eye(loc.shape[0]))
        object.__setattr__(self, "unit_scale", unit and not np.signbit(loc[loc == 0.0]).any())

    @property
    def dim(self) -> int:
        return self.scale.dim


def gaussian(location, scale) -> DistributionSpec:
    """Gaussian N_m(a, Sigma): :class:`DistributionSpec` with family GAUSSIAN."""
    return DistributionSpec(Family.GAUSSIAN, location, scale)


def student(location, scale, nu: float) -> DistributionSpec:
    """Student T_m(a, Sigma, nu), requiring nu > 2 so the covariance
    Sigma / (1 - 2/nu) exists.  nu = inf yields the Gaussian
    (:class:`DistributionSpec`'s rule)."""
    return DistributionSpec(Family.STUDENT, location, scale, nu)


def pearson2(location, scale, eta: float) -> DistributionSpec:
    """Pearson type II P_m(a, Sigma, eta) with eta > 0, supported on the
    ellipsoid (x-a)' Sigma^{-1} (x-a) <= 1.  eta = inf yields the Gaussian
    (:class:`DistributionSpec`'s rule)."""
    return DistributionSpec(Family.PEARSON2, location, scale, eta)


@functools.lru_cache(maxsize=64)
def _standard_spec(family: Family, param: float, m: int) -> DistributionSpec:
    """The location-0, scale-I :class:`DistributionSpec` of `family`
    with tail parameter `param` in dimension m, built once per process
    and key; it checks (family, param) by the spec's rule, so +inf gives
    the Gaussian and a string family raises DomainError."""
    return DistributionSpec(family, np.zeros(m), SpdMatrix.identity(m), param)


def tail_family(family: Family, param: float) -> tuple[Family, float]:
    """The family a tail parameter of `family` selects, GAUSSIAN for
    exactly +inf and else `family`, and the parameter as a float.  The
    one reader of a (family, param) pair: `family` must be the member
    STUDENT or PEARSON2 (compared by identity, so a string is refused),
    `param` is read by :func:`special._real` (so a bool, a string, None
    or NaN is refused as "Student nu" or "Pearson II eta"), and the one
    domain rule is Student nu > 2, Pearson II eta > 0, which refuses
    -inf.  Anything else raises DomainError."""
    if family is Family.STUDENT:
        name, bound, rule = "Student nu", 2, "Student requires nu > 2"
    elif family is Family.PEARSON2:
        name, bound, rule = "Pearson II eta", 0, "Pearson II requires eta > 0"
    else:
        raise DomainError(f"family must be student or pearson2, got {family!r}")
    param = _real(name, param)
    if not param > bound:
        raise DomainError(f"{rule} or inf, got {param}")
    return Family.GAUSSIAN if param == math.inf else family, param


def _pearson_order(eta: float) -> float:
    # the Renyi order whose entropy maximiser is Pearson II eta
    return 1.0 + 1.0 / eta


def _maximiser_order(family: Family, param: float, m: int) -> float:
    """The Renyi order whose entropy maximiser in dimension m is the
    Student (param nu) or Pearson II (param eta) member with finite
    `param`: 1 - 2/(nu + m) or 1 + 1/eta.

    A parameter so large that this order rounds to 1 (nu from about
    2**55, eta from 2**53) raises DomainError naming it: the closed form
    divides by 1 - q, and such a parameter is not the Gaussian limit.
    """
    if family is Family.STUDENT:
        q, name = 1.0 - 2.0 / (param + m), "Student nu"
    else:
        q, name = _pearson_order(param), "Pearson II eta"
    if q == 1.0:
        raise DomainError(f"{name} = {param} is too large in m = {m}: "
                          "the maximiser's Renyi order rounds to 1")
    return q


def check_pearson_k(k: int, eta: float) -> None:
    """The one rule k > 1/eta for a Pearson II null with finite eta.

    The nearest-neighbour estimate at the order q = 1 + 1/eta needs
    k > q - 1; this tests exactly that, in the estimator's own float
    arithmetic, so whatever passes here also passes the estimator.
    Raises DomainError otherwise.
    """
    if not k > _pearson_order(eta) - 1.0:
        raise DomainError(f"estimator requires k > 1/eta0 = {1.0 / eta}, got k = {k}")


def log_density(spec: DistributionSpec, x) -> Union[float, np.ndarray]:
    """Log density at x (an m-vector or an (n, m) batch).

    `x` is read by :func:`special._reals` as finite real numbers, and
    any other shape raises DomainError.  Pearson II returns -inf
    outside its ellipsoidal support, and every family returns -inf at a
    point whose offset from the location overflows the double range.
    """
    pts = _reals("points", x)
    single = pts.ndim == 1
    if pts.ndim not in (1, 2) or pts.shape[-1] != spec.dim:
        raise DomainError(f"points have shape {pts.shape}, not ({spec.dim},) or (n, {spec.dim})")
    with np.errstate(over="ignore"):  # such a point is infinitely far: q = inf below
        delta = np.atleast_2d(pts - spec.location)
    far = ~np.isfinite(delta).all(axis=1)
    q = np.where(far, np.inf, spec.scale.mahalanobis_sq(np.where(far[:, None], 0.0, delta)))
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
def _renyi_constant(family: Family, m: int, param: float, q: float) -> float:
    # the location-free part of H_q of the Student (param nu) or Pearson II
    # (param eta) member: H_q = log|Sigma|/2 + this constant, which is
    # [ln B(b1, m/2) - q ln B(b0, m/2)]/(1 - q) + (m/2) log s - ln Gamma(m/2)
    # (Zografos and Nadarajah 2005)
    if family is Family.STUDENT:
        # at the maximiser's order (max_renyi_entropy's expression) b1 is
        # exactly (nu - 2)/2, which q(nu+m)/2 - m/2 rounds to 0 a few ulps above 2
        if q == 1.0 - 2.0 / (param + m):
            b1 = (param - 2.0) / 2.0
        else:
            b1 = q * (param + m) / 2.0 - m / 2.0
        b0, s = param / 2.0, math.pi * param
        undefined = "Student Renyi entropy undefined: q(nu+m)/2 - m/2"
    else:
        b1, b0, s = q * param + 1.0, param + 1.0, math.pi
        undefined = "Pearson II Renyi entropy undefined: q*eta + 1"
    if not b1 > 0:
        raise DomainError(f"{undefined} = {b1} must be positive")
    return ((ln_beta(b1, m / 2.0) - q * ln_beta(b0, m / 2.0)) / (1.0 - q)
            + 0.5 * m * math.log(s) - ln_gamma(m / 2.0))


def _renyi_entropy(family: Family, m: int, log_det: float, param, q: float) -> float:
    # H_q of the family member with tail parameter `param` whose scale has
    # log-determinant `log_det`; q = 1 is the Gaussian Shannon entropy.  The
    # callers check q > 0; this is the one place each closed form is written.
    # No closed form here holds at q = inf (a Pearson II eta below ~5.6e-309)
    if q == math.inf:
        raise DomainError(f"Renyi order q = {q} is not finite")
    if family is Family.GAUSSIAN:
        if q == 1.0:
            return 0.5 * m * (_LOG_2PI + 1.0) + 0.5 * log_det
        return 0.5 * m * _LOG_2PI + 0.5 * log_det - m * math.log(q) / (2.0 * (1.0 - q))
    return 0.5 * log_det + _renyi_constant(family, m, param, q)


def renyi_entropy_closed_form(spec: DistributionSpec, q: float) -> float:
    """Renyi entropy of finite order q > 0 in nats (q read by
    :func:`special._order`).

    At q = 1 this is the Shannon entropy, which has a closed form here
    for the Gaussian only, log[(2 pi e)^{m/2} |Sigma|^{1/2}]; a Student
    or Pearson II spec at q = 1 raises DomainError.
    """
    q = _order(q)
    if q == 1.0 and spec.family is not Family.GAUSSIAN:
        raise DomainError("q = 1 (Shannon) has a closed form for the Gaussian only")
    return _renyi_entropy(spec.family, spec.dim, spec.scale.log_det, spec.param, q)


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
    the Shannon entropy is maximised with Sigma = C.  The maximum is
    the maximiser's closed-form entropy, evaluated by the same code as
    :func:`renyi_entropy_closed_form` (at q = 1 on the Gaussian branch),
    so the two agree bit for bit.

    Parameters
    ----------
    family : Family
        STUDENT interprets `param` as nu, PEARSON2 as eta; any other
        family raises DomainError (:func:`tail_family` reads the pair).
    constraint : SpdMatrix
        Covariance constraint C: an SpdMatrix, or anything
        :class:`SpdMatrix` accepts (:func:`_spd`).
    param : float
        nu > 2, eta > 0, or +inf for the Gaussian branch (see
        :func:`tail_family`).  An eta so small that q = 1 + 1/eta
        overflows to inf raises DomainError, and so does a finite nu or
        eta so large that q rounds to 1 (:func:`_maximiser_order`).

    Returns
    -------
    MaxEntropyResult
        (maximum entropy, maximising order q, rescaled scale matrix).
    """
    constraint = _spd(constraint)
    m = constraint.dim
    family, param = tail_family(family, param)
    if family is Family.GAUSSIAN:
        q, sigma = 1.0, constraint
    else:
        q = _maximiser_order(family, param, m)
        factor = 1.0 - 2.0 / param if family is Family.STUDENT else 2.0 * param + m + 2.0
        sigma = SpdMatrix(constraint.matrix * factor)
    return MaxEntropyResult(_renyi_entropy(family, m, sigma.log_det, param, q), q, sigma)


@dataclass(frozen=True)
class ConditionCheck:
    """Boolean verdict with the reason a condition failed (if it did)."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_estimator_conditions(spec: DistributionSpec, q: float, mode: str) -> ConditionCheck:
    """The moment side of the L2 condition for the nearest-neighbour estimator.

    The estimate at order 0 < q < 1 converges in L2 (Leonenko, Pronzato
    and Savani 2008) when q > 1/2 and r_c > 2m(1-q)/(2q-1), where r_c,
    the supremum of r with E ||X||^r finite, is nu for the Student (its
    density decays like ||x||^{-(nu+m)}) and +inf for the Gaussian and
    the compactly supported Pearson II.  For q >= 1 the moment side
    holds for all three families; the k side, q < (k+1)/2 for q > 1,
    depends on k and stays with the caller (:func:`gof.statistic` folds
    it into `GofStatistic.l2_ok`).

    L2 is the one condition kept: `mode` must be "L2", and anything else
    raises DomainError.  The parameter stays only because the
    benchmark's direct call passes it, and goes with that call.
    """
    q = _order(q)
    if mode != "L2":
        raise DomainError(f"mode must be 'L2', got {mode!r}")
    if q >= 1.0:
        return ConditionCheck(True)
    if not q > 0.5:
        return ConditionCheck(False, "q <= 1/2")
    r_c = spec.param if spec.family is Family.STUDENT else math.inf
    bound = 2.0 * spec.dim * (1.0 - q) / (2.0 * q - 1.0)
    if r_c > bound:
        return ConditionCheck(True)
    return ConditionCheck(False, f"critical moment {r_c} <= 2m(1-q)/(2q-1) = {bound}")

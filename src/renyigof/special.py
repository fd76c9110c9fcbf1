"""Scalar special functions backing the closed-form entropy constants.

Everything downstream works in log space and exponentiates at the last
step, so only logarithmic forms are exposed here.

`ln_gamma` and `digamma` are pure-Python ports of the float64 algorithms
behind `scipy.special.gammaln` and `scipy.special.psi` (scipy 1.17), so
that importing this package loads no scipy module:

- `ln_gamma` is Cephes `lgam` (S. L. Moshier, Cephes Math Library
  `gamma.c`): a recurrence into [2, 3) and a rational fit below 13,
  Stirling's series with a five-term correction below 1000, a three-term
  correction below 1e8 and none above.
- `digamma` is Cephes `psi` at the integers k >= 1 only, the one
  argument the Kozachenko-Leonenko estimator needs: the harmonic sum for
  k up to 10 and the asymptotic series `psi_asy` above.  Any other
  argument, or an integer too large to convert to a double, raises
  DomainError, so no recurrence or rational fit is kept.

Each port keeps the original's order of float operations (Horner through
`_polevl`, the same loops and the same constants), so its
results equal scipy's bit for bit. That rests on Python's `math.log`
and scipy's `std::log` being the same platform libm `log`;
`tests/test_special.py` checks the equality against scipy on each
machine it runs on.

The module also holds the package's one integer rule, `_integer`: every
integer argument, command-line flag and config field is read through
it.  An integer is any value `operator.index` takes (Python and numpy
integers) but bool and np.bool_, and it must lie in the reader's
bounds; anything else raises one DomainError, "<what> must be an
integer >= <least>" (or "in [<least>, <below>)"), "got <value>", where
an int past the double range is named by its bit length.  A float is
never an integer here, not even 3.0: the config parsers alone add that
an integral JSON float counts as its integer.

Beside it, `_real` is the one reader of a real number (a tail
parameter, a Renyi order, a level, a critical value, the arguments of
`ln_gamma` and `ln_beta`): a Python or numpy
integer or float, or a 0-d array of one, but not a bool, returned as a
float that is not NaN (`_order` adds q > 0 for a Renyi order).
`_reals` is the one reader of real-valued arrays (sample points, a
location, matrix entries, replicate values): an array of integers or
floats, returned as float64, every entry finite.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np

from .errors import DomainError


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule, highest degree first (Cephes `polevl`)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


# Cephes lgam: Stirling correction (A), rational fit on [2, 3) (B / C).
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0,  # Cephes p1evl's implicit leading coefficient: 1.0 * x is exact
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305

# Cephes psi: asymptotic series (A) and the Euler-Mascheroni constant.
_PSI_A = (
    8.33333333333333333333e-2,
    -2.10927960927960927961e-2,
    7.57575757575757575758e-3,
    -4.16666666666666666667e-3,
    3.96825396825396825397e-3,
    -8.33333333333333333333e-3,
    8.33333333333333333333e-2,
)
_EULER = 0.577215664901532860606512090082402431


def ln_gamma(x: float) -> float:
    """Natural logarithm of the gamma function, for a real number x > 0
    (read by :func:`_real`), +inf included."""
    x = _real("ln_gamma's x", x)
    if not x > 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    if x == math.inf:
        return x
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
        return math.log(z) + p
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


def digamma(k: int) -> float:
    """Logarithmic derivative of the gamma function at an integer k >= 1."""
    n = _integer("digamma's k", k, 1)
    if n <= 10:
        y = 0.0
        for i in range(1, n):
            y += 1.0 / i
        return y - _EULER
    try:
        x = float(n)
    except OverflowError:
        raise DomainError(f"digamma requires k within the double range, "
                          f"got a {n.bit_length()}-bit integer") from None
    if x < 1.0e17:
        z = 1.0 / (x * x)
        s = z * _polevl(z, _PSI_A)
    else:
        s = 0.0
    return math.log(x) - (0.5 / x) - s


def ln_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b), for
    real numbers a, b > 0 (read by :func:`_real`)."""
    a, b = _real("ln_beta's a", a), _real("ln_beta's b", b)
    if not (a > 0 and b > 0):
        raise DomainError(f"ln_beta requires positive arguments, got ({a}, {b})")
    return ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)


def _integer(what: str, value, least: int, below: int | None = None) -> int:
    """`value` as an int n with least <= n < below (no upper bound for
    None): the one reader of every integer argument, flag and config
    field.  Any value `operator.index` takes counts (Python and numpy
    integers), but bool and np.bool_; anything else, a float or a string
    with an integral value included, raises DomainError, "<what> must be
    an integer >= <least>" (or "in [<least>, <below>)"), "got <value>",
    or "got a <b>-bit integer" for an int past the double range."""
    try:
        n = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        n = None
    if n is not None and least <= n and (below is None or n < below):
        return n
    span = f">= {least}" if below is None else f"in [{least}, {_shown(below)})"
    raise DomainError(f"{what} must be an integer {span}, got {_got(value)}")


def _real(what: str, value) -> float:
    """`value` as a float: the one reader of a real-number argument, flag
    and config field.  A Python or numpy integer or float counts, and so
    does a 0-d array of one, but bool and np.bool_ do not; +-inf passes,
    for the caller's own domain rule.  Anything else, NaN, a string,
    complex, None and a sequence included, raises DomainError, "<what>
    must be a real number, got <value>", and so does an int past the
    double range, named by its bit length."""
    v = value[()] if isinstance(value, np.ndarray) else value  # a 0-d array gives its scalar
    try:
        x = float(v) if isinstance(v, (int, float, np.integer, np.floating)) else math.nan
    except OverflowError:  # an int past the double range
        x = math.nan
    if isinstance(v, bool) or math.isnan(x):
        raise DomainError(f"{what} must be a real number, got {_got(value)}")
    return x


def _order(q) -> float:
    """A Renyi order: a real number (:func:`_real`) q > 0, +inf included;
    anything else raises DomainError, "order q must be ..."."""
    q = _real("order q", q)
    if not q > 0:
        raise DomainError(f"order q must be positive, got {q}")
    return q


def _reals(what: str, value) -> np.ndarray:
    """`value` as a float64 array, every entry finite: the one reader of
    real-valued input.  An array, list or scalar whose numpy dtype is an
    integer or floating type counts (integers give the float64 values
    `np.asarray(value, dtype=float)` gives); bool, str, bytes, complex,
    object and any other dtype raise DomainError, "<what> must be real
    numbers, got dtype <name>", and a non-finite entry raises "<what>
    must be finite".  The rule reads the dtype numpy infers, so a list
    that numpy itself promotes to float, such as a bool beside a float,
    passes as those floats.  A ragged list raises "<what> must be real
    numbers in a rectangular array"."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged list
        raise DomainError(f"{what} must be real numbers in a rectangular array") from None
    if a.dtype.kind not in "iuf":
        raise DomainError(f"{what} must be real numbers, got dtype {a.dtype.name}")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise DomainError(f"{what} must be finite")
    return a


def _got(value) -> str:
    # a value in a message: an int past the double range by its bit length
    # (its repr may pass Python's limit on the digits of a str), else its repr
    big = isinstance(value, int) and value.bit_length() > 1024
    return f"a {value.bit_length()}-bit integer" if big else repr(value)


def _shown(bound: int) -> str:
    # a bound in a message: 2**e for a power of two from 2**16 up
    e = bound.bit_length() - 1
    return f"2**{e}" if e >= 16 and bound == 1 << e else str(bound)


def unit_ball_volume(m: int) -> float:
    """Volume pi^(m/2) / Gamma(m/2 + 1) of the unit ball in m dimensions:
    subnormal from m = 436 and 0.0 from m = 453."""
    return math.exp(_ball_exponent(m))


def _log_unit_ball_volume(m: int) -> float:
    """log unit_ball_volume(m), finite at every m: the log of the volume
    while that is a normal double (m <= 435, the bits the estimators have
    always had), and the exponent 0.5 m log(pi) - lnGamma(m/2 + 1)
    itself below, where the log of the rounded volume drifts and then
    fails.  The two forms differ, in the last bit, at m = 1 and 11."""
    volume = unit_ball_volume(m)
    return math.log(volume) if volume >= sys.float_info.min else _ball_exponent(m)


def _ball_exponent(m: int) -> float:
    dim = _integer("dimension", m, 1)
    return 0.5 * dim * math.log(math.pi) - ln_gamma(0.5 * dim + 1.0)

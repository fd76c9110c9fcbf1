import math
import re
import struct
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special

from renyigof.distributions import (
    DistributionSpec,
    Family,
    check_estimator_conditions,
    max_renyi_entropy,
    pearson2,
    renyi_entropy_closed_form,
    student,
)
from renyigof.errors import DomainError, ExperimentError
from renyigof.gof import statistic
from renyigof.knn import renyi_estimate
from renyigof import mc, special
from renyigof.sampler import Sample
from renyigof.special import (
    _integer,
    _real,
    _log_unit_ball_volume,
    digamma,
    ln_beta,
    ln_gamma,
    unit_ball_volume,
)

mpmath.mp.dps = 40

# the branch edges of Cephes lgam (2, 3, 13, 1000, 1e8, the overflow
# bound) and of Cephes psi (the integers up to 10, 1e17), the smallest
# and largest doubles, and each one's neighbours
_EDGES = sorted({
    y
    for x in (5e-324, 1.0, 2.0, 3.0, 10.0, 13.0, 1000.0, 1e8, 1e17, 2.556348e305,
              sys.float_info.max, *map(float, range(1, 11)))
    for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))
    if 0.0 < y < math.inf
})

# positive finite doubles, uniform over the bit patterns (so over the
# exponent range) or as hypothesis draws them
_POSITIVE = st.integers(1, 0x7FEFFFFFFFFFFFFF).map(
    lambda b: struct.unpack("<d", struct.pack("<q", b))[0]
) | st.floats(min_value=5e-324, max_value=sys.float_info.max)


def _same(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


# psi's branch edges as integers: the harmonic sum up to 10, the
# asymptotic series above, without its correction from 1e17 on
_PSI_EDGES = [*range(1, 12), 10**17 - 1, 10**17, 10**17 + 1, 2**60, 10**300]


@pytest.mark.parametrize("x", _EDGES)
def test_ports_match_scipy_at_branch_edges(x):
    assert _same(ln_gamma(x), float(scipy_special.gammaln(x)))
    if x.is_integer():
        assert _same(digamma(int(x)), float(scipy_special.psi(x)))


@pytest.mark.parametrize("k", _PSI_EDGES)
def test_digamma_matches_scipy_at_integer_edges(k):
    assert _same(digamma(k), float(scipy_special.psi(float(k))))


@settings(max_examples=1000)
@given(_POSITIVE)
@example(math.nextafter(13.0, 0.0))
def test_ln_gamma_is_scipy_gammaln_bit_for_bit(x):
    assert _same(ln_gamma(x), float(scipy_special.gammaln(x)))


@settings(max_examples=1000)
@given(st.integers(1, 2**1023) | st.integers(1, 20))
@example(11)
@example(2**1023)
def test_digamma_is_scipy_psi_bit_for_bit(k):
    assert _same(digamma(k), float(scipy_special.psi(float(k))))


def test_ports_match_scipy_on_a_seeded_sweep(rng):
    # many more arguments than the properties draw, compared in one array
    # pass: for ln_gamma uniform over the bit patterns and uniform on
    # (0, 20); for digamma every k up to 10^4 and the integral doubles
    # among those bit patterns
    bits = rng.integers(1, 0x7FF0000000000000, 40_000, dtype=np.int64).view(np.float64)
    xs = np.concatenate([bits, rng.uniform(0.0, 20.0, 40_000)])
    xs = xs[xs > 0.0]
    ours = np.array([ln_gamma(x) for x in xs.tolist()])
    assert ours.tobytes() == scipy_special.gammaln(xs).tobytes()
    ks = [*range(1, 10_001), *map(int, np.floor(bits[bits >= 1.0]).tolist())]
    ours = np.array([digamma(k) for k in ks])
    assert ours.tobytes() == scipy_special.psi(np.array(ks, dtype=float)).tobytes()


def test_float32_arguments_are_computed_in_double():
    # a float32 argument is converted first, so no float32 loop runs
    assert ln_gamma(np.float32(2.5)) == ln_gamma(2.5) == 0.2846828704729192
    assert type(ln_gamma(np.float32(2.5))) is float
    assert ln_gamma(np.int64(4)) == ln_gamma(4.0)


def test_infinity_and_nan():
    assert ln_gamma(math.inf) == math.inf
    with pytest.raises(DomainError):
        ln_gamma(math.nan)
    # psi is only ever taken at an integer k, so neither is an argument
    for x in (math.inf, np.float64("nan")):
        with pytest.raises(DomainError, match="digamma's k must be an integer >= 1"):
            digamma(x)


def test_ln_gamma_examples():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    # log(sqrt(pi)), frozen from a 40-digit oracle
    assert ln_gamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-13)


def test_ln_gamma_against_high_precision_oracle():
    # relative error <= 1e-12 across the working range
    for x in np.logspace(-3, 6, 60):
        expected = float(mpmath.loggamma(mpmath.mpf(x)))
        got = ln_gamma(float(x))
        if expected != 0.0:
            assert abs(got - expected) / abs(expected) < 1e-12
        else:
            assert abs(got - expected) < 1e-12


def test_ln_gamma_recurrence():
    # |lnG(x+1) - lnG(x) - log x| small on a log grid
    for x in np.logspace(-1, 4, 50):
        x = float(x)
        assert abs(ln_gamma(x + 1) - ln_gamma(x) - math.log(x)) <= 1e-10


def test_ln_gamma_domain():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-1.5)


def test_digamma_examples():
    # Euler-Mascheroni and psi(2) = 1 - gamma, frozen from mpmath
    assert digamma(1) == pytest.approx(-0.5772156649015329, rel=1e-12)
    assert digamma(2) == pytest.approx(1.0 - 0.5772156649015329, rel=1e-12)


def test_digamma_matches_central_difference():
    # psi(k) is the slope of ln_gamma at k, on both sides of the switch
    # from the harmonic sum to the asymptotic series
    h = 1e-5
    for k in range(1, 101):
        fd = (ln_gamma(k + h) - ln_gamma(k - h)) / (2 * h)
        assert digamma(k) == pytest.approx(fd, abs=1e-6)


def test_digamma_beyond_the_double_range():
    # the largest double is an integer, and psi there is scipy's; one
    # more half unit in its last place rounds past it, so k cannot be
    # converted to a double and is outside the domain
    top = int(sys.float_info.max)
    assert _same(digamma(top), float(scipy_special.psi(sys.float_info.max)))
    for k in (top + 2**970, 2**1024, 10**400):
        with pytest.raises(DomainError, match="digamma requires k within the double range"):
            digamma(k)


def test_digamma_domain():
    # an integer k >= 1 of an integral type; no float, not even an
    # integral one, and no bool, as in unit_ball_volume
    assert digamma(np.int64(12)) == digamma(12)
    for k in (2.5, 0, -2, True, np.float64(3.0), 3.0, math.inf, "3"):
        with pytest.raises(DomainError, match="digamma's k must be an integer >= 1"):
            digamma(k)


def test_ln_beta_examples():
    assert ln_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert ln_beta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), rel=1e-13)
    assert ln_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-13)


def test_ln_beta_symmetry_and_domain():
    assert ln_beta(3.7, 1.2) == ln_beta(1.2, 3.7)
    with pytest.raises(DomainError):
        ln_beta(0.0, 1.0)
    with pytest.raises(DomainError):
        ln_beta(1.0, -2.0)


def test_unit_ball_volume_examples():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_unit_ball_volume_recurrence():
    for m in range(2, 30):
        ratio = math.sqrt(math.pi) * math.exp(
            ln_gamma((m + 1) / 2.0) - ln_gamma(m / 2.0 + 1.0)
        )
        assert unit_ball_volume(m) == pytest.approx(
            unit_ball_volume(m - 1) * ratio, rel=1e-12
        )


def test_unit_ball_volume_domain():
    with pytest.raises(DomainError):
        unit_ball_volume(0)
    with pytest.raises(DomainError):
        unit_ball_volume(2.5)


def test_unit_ball_volume_integral_types():
    # any integral type is a dimension; bool is not, as in the config parser
    assert unit_ball_volume(np.int64(3)) == unit_ball_volume(3)
    assert unit_ball_volume(np.int32(1)) == unit_ball_volume(1)
    for m in (True, False, np.float64(3.0), 3.0):
        with pytest.raises(DomainError, match="dimension must be an integer >= 1"):
            unit_ball_volume(m)


def _ball_exponent(m):
    # the log volume written out: 0.5 m log(pi) - lnGamma(m/2 + 1)
    return 0.5 * m * math.log(math.pi) - ln_gamma(0.5 * m + 1.0)


def test_log_unit_ball_volume_keeps_its_bits_while_the_volume_is_normal():
    # the log of the rounded volume, as the estimators have always taken
    # it, bit for bit through m = 435; the exponent itself differs in the
    # last bit at m = 1 and m = 11
    for m in range(1, 436):
        assert unit_ball_volume(m) >= sys.float_info.min
        assert _log_unit_ball_volume(m).hex() == math.log(math.exp(_ball_exponent(m))).hex()
    assert [m for m in range(1, 436) if _log_unit_ball_volume(m) != _ball_exponent(m)] == [1, 11]


def test_log_unit_ball_volume_below_the_normal_range():
    # the volume is subnormal from m = 436 and 0.0 from m = 453; its log
    # is the exponent there, finite, and not the log of the rounded volume
    assert 0.0 < unit_ball_volume(436) < sys.float_info.min
    assert unit_ball_volume(452) > 0.0
    assert unit_ball_volume(453) == 0.0
    assert abs(math.log(unit_ball_volume(452)) - _ball_exponent(452)) > 0.2
    for m in (436, 452, 453, 800, 10**6):
        assert _log_unit_ball_volume(m) == _ball_exponent(m)
        assert math.isfinite(_log_unit_ball_volume(m))
    with pytest.raises(DomainError, match="dimension must be an integer >= 1"):
        _log_unit_ball_volume(0)


_INTEGRAL_TYPES = (int, np.int8, np.int16, np.int32, np.int64,
                   np.uint8, np.uint16, np.uint32, np.uint64)


@pytest.mark.parametrize("kind", _INTEGRAL_TYPES, ids=lambda kind: kind.__name__)
def test_integer_reads_every_integral_type(kind):
    # each type's own extremes, up to np.uint64's 2**64 - 1, as Python ints
    top = 2**64 - 1 if kind is int else int(np.iinfo(kind).max)
    least = -(2**63) if kind is int else int(np.iinfo(kind).min)
    for value in (least, 0, 7, top):
        n = _integer("n", kind(value), least)
        assert n == value and type(n) is int
    assert _integer("seed", kind(top), 0, 2**64) == top


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_, 3.0, np.float64(3.0),
                                   np.float32(3.0), 2.5, math.inf, "3", None, [3]],
                         ids=["True", "False", "np.True_", "np.False_", "float",
                              "np.float64", "np.float32", "fraction", "inf", "str",
                              "None", "list"])
def test_integer_rejects_every_other_type(value):
    # bool is no count, and an integral float or string is not read as one
    with pytest.raises(DomainError) as excinfo:
        _integer("n", value, 0)
    assert str(excinfo.value) == f"n must be an integer >= 0, got {value!r}"


@pytest.mark.parametrize("value, least, below, message", [
    (1, 1, None, None),
    (10**30, 1, None, None),
    (0, 1, None, "k must be an integer >= 1, got 0"),
    (np.int64(-5), 1, None, "k must be an integer >= 1, got np.int64(-5)"),
    (2, 2, 5, None),
    (4, 2, 5, None),
    (1, 2, 5, "k must be an integer in [2, 5), got 1"),
    (5, 2, 5, "k must be an integer in [2, 5), got 5"),
    (0, 0, 2**64, None),
    (np.uint64(2**64 - 1), 0, 2**64, None),
    (-1, 0, 2**64, "k must be an integer in [0, 2**64), got -1"),
    (2**64, 0, 2**64, "k must be an integer in [0, 2**64), got 18446744073709551616"),
    (2**31, 1, 2**31, "k must be an integer in [1, 2**31), got 2147483648"),
    (70000, 1, 70000, "k must be an integer in [1, 70000), got 70000"),
    # an int past the double range (here also past Python's digit limit,
    # where repr raises) is shown by its bit length
    pytest.param(10**5000, 0, 2**64, "k must be an integer in [0, 2**64), got a 16610-bit integer",
                 id="10**5000"),
    pytest.param(-(10**5000), 0, None, "k must be an integer >= 0, got a 16610-bit integer",
                 id="-10**5000"),
])
def test_integer_bounds(value, least, below, message):
    # at, below and above each bound; a power of two from 2**16 up is
    # shown as one
    if message is None:
        assert _integer("k", value, least, below) == value
    else:
        with pytest.raises(DomainError) as excinfo:
            _integer("k", value, least, below)
        assert str(excinfo.value) == message


def test_only_special_reads_integers():
    # every other module reads an integer argument through special._integer
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(special.__file__).parent.glob("*.py")}
    readers = sorted(name for name, text in sources.items()
                     if "operator.index" in text or "__index__" in text)
    assert readers == ["special.py"]


# -- the real-number rule ----------------------------------------------------

_SAMPLE = Sample(np.random.default_rng(7).standard_normal((40, 1)))
_VALUES = np.random.default_rng(8).standard_normal(30)


def _config(**overrides):
    return mc.ExperimentConfig(**{**dict(family=Family.STUDENT, true_param=5.0, null_param=5.0,
                                         dim=1, n_grid=(100,), k=3, replicates=10), **overrides})


def _law(spec):
    return spec.family, spec.param


# each real-number parameter: how to pass it a value, and the start of
# the message that refuses a value that is no real number.  The tail
# parameters of configs and the command line go through parse_param,
# which also takes text and refuses -inf.
_REAL_SITES = {
    "student nu": (lambda v: _law(student([0.0], [[1.0]], v)), "Student nu"),
    "pearson2 eta": (lambda v: _law(pearson2([0.0], [[1.0]], v)), "Pearson II eta"),
    "DistributionSpec param": (
        lambda v: _law(DistributionSpec(Family.PEARSON2, [0.0], [[1.0]], v)), "Pearson II eta"),
    "max_renyi_entropy param": (
        lambda v: max_renyi_entropy(Family.STUDENT, [[2.0]], v)[:2], "Student nu"),
    "statistic Student null_param": (
        lambda v: statistic(_SAMPLE, Family.STUDENT, v, 3), "Student nu"),
    "statistic Pearson II null_param": (
        lambda v: statistic(_SAMPLE, Family.PEARSON2, v, 3), "Pearson II eta"),
    "renyi_entropy_closed_form q": (
        lambda v: renyi_entropy_closed_form(student([0.0], [[1.0]], 7.0), v), "order q"),
    "check_estimator_conditions q": (
        lambda v: check_estimator_conditions(student([0.0], [[1.0]], 7.0), v, "L2"), "order q"),
    "renyi_estimate q": (lambda v: renyi_estimate(_SAMPLE, 3, v), "order q"),
    "empirical_quantile alpha": (lambda v: mc.empirical_quantile(_VALUES, v), "alpha"),
    "estimate_power critical value": (
        lambda v: mc.estimate_power(_VALUES, v), "critical value"),
    "fit_convergence_rate mean": (
        lambda v: mc.fit_convergence_rate([(100, v), (200, 0.5), (400, 0.25)]), "mean"),
    "config alpha_levels entry": (
        lambda v: _config(alpha_levels=(0.05, v)), "each alpha_levels entry"),
    "config max_failure_rate": (lambda v: _config(max_failure_rate=v), "max_failure_rate"),
    "config true_param": (lambda v: _config(true_param=v), "true_param: expected a number"),
    "config null_param": (lambda v: _config(null_param=v), "null_param: expected a number"),
    "parse_param": (mc.parse_param, "expected a number"),
    "ln_gamma x": (ln_gamma, "ln_gamma's x"),
}
_PARSED = {"config true_param", "config null_param", "parse_param"}

# an int, a float, a numpy scalar or a 0-d array of one, +-inf included
_NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).flatmap(
        lambda n: st.sampled_from([n, np.int64(n), np.int32(n), np.array(n)])),
    st.integers(2**63, 2**1000),
    st.floats(-1e6, 1e6).flatmap(
        lambda x: st.sampled_from([x, np.float64(x), np.float32(x), np.array(x),
                                   np.array(x, dtype=np.float32)])),
    st.sampled_from([math.inf, -math.inf, np.float64(math.inf), np.array(-math.inf)]),
)

# everything else: bools, text, complex, None, sequences, NaN in each
# form, and ints past the double range
_NOT_REAL = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, np.False_, np.array(True), None, np.complex128(5.0),
                     np.array([5.0, 6.0]), np.zeros(1), math.nan, np.float64(math.nan),
                     np.float32(math.nan), np.array(math.nan), 2**1024 - 1, 10**400]),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False),
    st.lists(st.floats(-1e6, 1e6), max_size=2),
    st.integers(2**1024, 2**1100).map(lambda n: -n),
)


def _outcome(read, value):
    # a result, or the error it raises and its message
    try:
        return read(value)
    except (ValueError, ExperimentError) as exc:  # DomainError is a ValueError
        return type(exc), str(exc)


@settings(max_examples=400)
@given(st.sampled_from(sorted(_REAL_SITES)), _NUMBERS)
def test_a_real_number_reads_as_its_float(site, value):
    # special._real: an int, float, numpy scalar or 0-d array gives what
    # its float gives, result or error (parse_param refuses -inf naming
    # the value as given, so -inf is left out there)
    assume(site not in _PARSED or float(value) != -math.inf)
    read, _ = _REAL_SITES[site]
    assert _outcome(read, value) == _outcome(read, float(value))


@settings(max_examples=400)
@given(st.sampled_from(sorted(_REAL_SITES)), _NOT_REAL)
def test_anything_else_is_refused_naming_the_parameter(site, value):
    read, name = _REAL_SITES[site]
    if site in _PARSED:
        assume(not isinstance(value, str))  # text is what parse_param parses
        error = ExperimentError if site.startswith("config") else ValueError
        message = f"{name} or 'inf', got "
    else:
        error = ExperimentError if site.startswith("config") else DomainError
        message = f"{name} must be a real number, got "
    with pytest.raises(error) as excinfo:
        read(value)
    assert message in str(excinfo.value)
    if error is DomainError and isinstance(value, int) and value.bit_length() > 1024:
        assert str(excinfo.value).endswith(f"got a {value.bit_length()}-bit integer")


@pytest.mark.parametrize("call, message", [
    (lambda: pearson2([0.0], [[1.0]], True), "Pearson II eta must be a real number, got True"),
    (lambda: statistic(_SAMPLE, Family.PEARSON2, True, 3),
     "Pearson II eta must be a real number, got True"),
    (lambda: renyi_estimate(_SAMPLE, 3, "0.5"), "order q must be a real number, got '0.5'"),
    (lambda: statistic(_SAMPLE, Family.STUDENT, [5.0], 3),
     "Student nu must be a real number, got [5.0]"),
    (lambda: mc.estimate_power(_VALUES, math.nan), "critical value must be a real number, got nan"),
    (lambda: mc.summarize([1, math.inf]), "values must be finite"),
    (lambda: mc.histogram_bins(["1", "2"]), "values must be real numbers, got dtype str"),
    (lambda: mc.fit_convergence_rate([("100", 1.0), (200, 0.5), (400, 0.25)]),
     "N must be an integer >= 1, got '100'"),
    (lambda: mc.summarize([[1.0, 2.0]]), "values need shape (M,) with M >= 2, got (1, 2)"),
    (lambda: ln_gamma("3"), "ln_gamma's x must be a real number, got '3'"),
    (lambda: ln_gamma(True), "ln_gamma's x must be a real number, got True"),
    (lambda: ln_beta(True, 2.0), "ln_beta's a must be a real number, got True"),
    (lambda: ln_beta(2.0, "1"), "ln_beta's b must be a real number, got '1'"),
], ids=["pearson2-bool", "statistic-bool", "renyi_estimate-str", "statistic-list",
        "estimate_power-nan", "summarize-inf", "histogram_bins-str", "rate-str-N",
        "summarize-2d", "ln_gamma-str", "ln_gamma-bool", "ln_beta-bool", "ln_beta-str"])
def test_calls_that_once_passed_or_raised_another_error(call, message):
    # each once built a law, gave a number or raised a TypeError
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("value, expected", [
    (5, 5.0), (-3, -3.0), (2.5, 2.5), (np.int64(7), 7.0), (np.uint64(2**64 - 1), 2.0**64),
    (np.float32(0.1), float(np.float32(0.1))), (np.array(2.0), 2.0), (np.array(4), 4.0),
    (math.inf, math.inf), (-math.inf, -math.inf), (2**1023, 2.0**1023),
], ids=["int", "negative int", "float", "np.int64", "np.uint64", "np.float32", "0-d float array",
        "0-d int array", "inf", "-inf", "2**1023"])
def test_real_reads_numbers(value, expected):
    x = _real("x", value)
    assert type(x) is float and x == expected


@pytest.mark.parametrize("value, shown", [
    (True, "True"), (np.False_, "np.False_"), ("1", "'1'"), (1j, "1j"), (None, "None"),
    ([1.0], "[1.0]"), (np.array([1.0, 2.0]), "array([1., 2.])"), (math.nan, "nan"),
    (2**1024, "a 1025-bit integer"), (-(10**5000), "a 16610-bit integer"),
], ids=["bool", "np.bool_", "str", "complex", "None", "list", "array", "nan", "2**1024",
        "-10**5000"])
def test_real_refuses_everything_else(value, shown):
    with pytest.raises(DomainError) as excinfo:
        _real("x", value)
    assert str(excinfo.value) == f"x must be a real number, got {shown}"

import math
import struct
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special

from renyigof.errors import DomainError
from renyigof import special
from renyigof.special import _integer, digamma, ln_beta, ln_gamma, unit_ball_volume

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

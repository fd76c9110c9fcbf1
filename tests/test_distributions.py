import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from renyigof.distributions import (
    ConditionCheck,
    Family,
    SpdMatrix,
    check_estimator_conditions,
    critical_moment,
    density,
    gaussian,
    gaussian_shannon_entropy,
    log_density,
    max_renyi_entropy,
    pearson2,
    renyi_entropy_closed_form,
    student,
)
from renyigof.errors import DomainError, NotPositiveDefiniteError


class TestSpdMatrix:
    def test_round_trip_and_log_det(self, rng):
        a = rng.standard_normal((3, 3))
        mat = a @ a.T + 3 * np.eye(3)
        spd = SpdMatrix(mat)
        np.testing.assert_allclose(spd.chol @ spd.chol.T, mat, rtol=1e-12, atol=1e-12)
        assert spd.log_det == pytest.approx(np.linalg.slogdet(mat)[1], rel=1e-12)

    def test_symmetrizes_rounding_asymmetry(self):
        mat = np.array([[2.0, 0.3 + 1e-14], [0.3, 1.0]])
        spd = SpdMatrix(mat)
        np.testing.assert_array_equal(spd.matrix, spd.matrix.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            SpdMatrix([[1.0, 0.5], [0.1, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            SpdMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_underflowing_pivot(self):
        with pytest.raises(NotPositiveDefiniteError):
            SpdMatrix([[1e-320, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("mat, message", [
        ([[1e308]], "(A + A')/2 is not finite"),
        ([[1e308, 0.0], [0.0, 1.0]], "(A + A')/2 is not finite"),
        ([[1.0, 1e308], [1e308, 1.0]], "(A + A')/2 is not finite"),
        ([[1.0, 1e308], [-1e308, 1.0]], "not symmetric"),
    ])
    def test_rejects_overflowing_symmetrisation(self, mat, message):
        # once these built an infinite matrix, factor and log-determinant
        with pytest.raises(DomainError, match=re.escape(message)):
            SpdMatrix(mat)

    def test_scalar_input_is_1x1(self):
        spd = SpdMatrix(4.0)
        assert spd.dim == 1
        assert spd.log_det == pytest.approx(math.log(4.0))

    def test_mahalanobis_via_solve(self, rng):
        a = rng.standard_normal((3, 3))
        mat = a @ a.T + 3 * np.eye(3)
        spd = SpdMatrix(mat)
        x = rng.standard_normal(3)
        expected = x @ np.linalg.solve(mat, x)
        assert spd.mahalanobis_sq(x) == pytest.approx(expected, rel=1e-10)
        batch = rng.standard_normal((5, 3))
        got = spd.mahalanobis_sq(batch)
        for i in range(5):
            assert got[i] == pytest.approx(batch[i] @ np.linalg.solve(mat, batch[i]), rel=1e-10)

    def test_scaled(self):
        spd = SpdMatrix([[2.0, 0.5], [0.5, 1.0]])
        scaled = spd.scaled(3.0)
        np.testing.assert_allclose(scaled.matrix, 3.0 * spd.matrix, rtol=1e-15)
        assert scaled.log_det == pytest.approx(spd.log_det + 2 * math.log(3.0), rel=1e-12)


def _bits(spd) -> list:
    """An SpdMatrix's matrix, factor and log-determinant, to the bit."""
    return [(x.shape, x.tobytes()) for x in (spd.matrix, spd.chol)] + [float(spd.log_det).hex()]


def _lapack_1x1(a: float):
    """SpdMatrix's general path on [[a]], with LAPACK's Cholesky: the
    _bits of what it builds, or the (type, message) it raises."""
    m = np.array([[a]])
    if not np.isfinite(m).all():
        return DomainError, "matrix entries must be finite"
    sym = (m + m.T) / 2.0
    if not np.isfinite(sym).all():
        return DomainError, "matrix entries too large: (A + A')/2 is not finite"
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        return NotPositiveDefiniteError, f"Cholesky factorisation failed: {exc}"
    diag = np.diag(chol)
    if (diag * diag <= 1e-300).any():
        return (NotPositiveDefiniteError,
                f"Cholesky pivot underflow (min pivot {float((diag * diag).min()):.3e})")
    return [(x.shape, x.tobytes()) for x in (sym, chol)] + [(2.0 * float(np.log(diag).sum())).hex()]


# the pivot-underflow edge, the largest a with finite (a + a)/2, and past it
_SPD_EDGES = (1e-300, np.nextafter(1e-300, 0.0), np.nextafter(1e-300, 1.0), 1e-150,
              2.0**1023 - 2.0**970, 2.0**1023, 1e308, np.finfo(float).max, 5e-324)


class TestSpdMatrix1x1:
    @settings(max_examples=500)
    @given(st.floats() | st.floats(min_value=0.0, exclude_min=True)
           | st.sampled_from(_SPD_EDGES + (0.0, -0.0, -1.0, np.nan, np.inf, -np.inf)))
    def test_same_bits_as_lapack(self, a):
        with np.errstate(over="ignore"):  # (a + a)/2 overflows from 2**1023 on
            expected = _lapack_1x1(a)
            for given_as in (a, [[a]], np.array([a])):
                try:
                    got = _bits(SpdMatrix(given_as))
                except (DomainError, NotPositiveDefiniteError) as exc:
                    got = type(exc), str(exc)
                assert got == expected


class TestSpecConstruction:
    def test_infinite_params_canonicalize_to_gaussian(self):
        s = student([0.0], [[1.0]], math.inf)
        p = pearson2([0.0], [[1.0]], math.inf)
        assert s.family is Family.GAUSSIAN and s.param is None
        assert p.family is Family.GAUSSIAN and p.param is None

    def test_student_requires_nu_above_two(self):
        # only +inf means Gaussian; -inf and NaN are invalid
        for nu in (2.0, -math.inf, math.nan):
            with pytest.raises(DomainError):
                student([0.0], [[1.0]], nu)

    def test_pearson_requires_positive_eta(self):
        for eta in (0.0, -math.inf, math.nan):
            with pytest.raises(DomainError):
                pearson2([0.0], [[1.0]], eta)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            gaussian([0.0, 1.0], [[1.0]])


class TestDensity:
    def test_standard_normal_mode(self):
        spec = gaussian([0.0], [[1.0]])
        assert density(spec, [0.0]) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_pearson_outside_support_is_zero(self):
        spec = pearson2([0.0], [[1.0]], 1.0)
        assert density(spec, [2.0]) == 0.0
        assert log_density(spec, [2.0]) == -math.inf

    def test_student_nu3_at_origin(self):
        # Gamma(2) / (sqrt(3 pi) Gamma(3/2)) = 2 / (pi sqrt(3))
        spec = student([0.0], [[1.0]], 3.0)
        assert density(spec, [0.0]) == pytest.approx(2.0 / (math.pi * math.sqrt(3.0)), rel=1e-12)

    def test_batch_matches_single(self, rng):
        spec = student(np.zeros(2), np.eye(2), 5.0)
        pts = rng.standard_normal((7, 2))
        batch = density(spec, pts)
        for i in range(7):
            assert batch[i] == pytest.approx(density(spec, pts[i]), rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            density(gaussian([0.0], [[1.0]]), [0.0, 1.0])

    @pytest.mark.parametrize("spec", [
        student([0.0], [[1.0]], 3.0),
        student([0.0], [[1.0]], 5.0),
        student([0.0], [[1.0]], 10.0),
        pearson2([0.0], [[1.0]], 1.0),
        pearson2([0.0], [[1.0]], 2.0),
        pearson2([0.0], [[1.0]], 12.0),
    ])
    def test_density_integrates_to_one(self, spec):
        lo, hi = (-np.inf, np.inf) if spec.family is Family.STUDENT else (-1.0, 1.0)
        total, _ = integrate.quad(lambda x: density(spec, [x]), lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


def _renyi_by_quadrature(spec, q):
    lo, hi = (-np.inf, np.inf) if spec.family is not Family.PEARSON2 else (-1.0, 1.0)
    val, _ = integrate.quad(lambda x: density(spec, [x]) ** q, lo, hi, limit=400)
    return math.log(val) / (1.0 - q)


class TestRenyiClosedForm:
    def test_gaussian_q2(self):
        spec = gaussian([0.0], [[1.0]])
        assert renyi_entropy_closed_form(spec, 2.0) == pytest.approx(
            0.5 * math.log(4 * math.pi), rel=1e-12
        )

    def test_continuity_at_q_one(self):
        spec = gaussian(np.zeros(2), 2.0 * np.eye(2))
        h1 = gaussian_shannon_entropy(spec)
        assert renyi_entropy_closed_form(spec, 1.0 + 1e-9) == pytest.approx(h1, abs=1e-6)
        assert renyi_entropy_closed_form(spec, 1.0 - 1e-9) == pytest.approx(h1, abs=1e-6)

    def test_q_one_rejected(self):
        with pytest.raises(DomainError):
            renyi_entropy_closed_form(gaussian([0.0], [[1.0]]), 1.0)

    def test_shannon_path_gaussian_only(self):
        with pytest.raises(DomainError):
            gaussian_shannon_entropy(student([0.0], [[1.0]], 5.0))

    def test_student_beta_argument_precondition(self):
        # q (nu+m)/2 - m/2 <= 0
        spec = student([0.0], [[1.0]], 3.0)
        with pytest.raises(DomainError, match="q\\(nu\\+m\\)/2"):
            renyi_entropy_closed_form(spec, 0.2)

    @pytest.mark.parametrize("spec,q", [
        (gaussian([0.0], [[1.0]]), 0.7),
        (gaussian([0.0], [[2.5]]), 1.5),
        (student([0.0], [[1.0]], 3.0), 0.7),
        (student([0.0], [[1.0]], 5.0), 0.9),
        (student([0.0], [[2.0]], 10.0), 1.5),
        (student([0.0], [[1.0]], 4.0), 2.0),
        (pearson2([0.0], [[1.0]], 1.0), 0.7),
        (pearson2([0.0], [[1.0]], 2.0), 1.5),
        (pearson2([0.0], [[0.5]], 12.0), 2.0),
        (pearson2([0.0], [[1.0]], 4.0), 0.9),
    ])
    def test_matches_quadrature(self, spec, q):
        assert renyi_entropy_closed_form(spec, q) == pytest.approx(
            _renyi_by_quadrature(spec, q), abs=1e-6
        )

    def test_student_large_nu_approaches_gaussian_at_fixed_scale(self):
        g = gaussian([0.0], [[1.0]])
        s = student([0.0], [[1.0]], 1e6)
        for q in (0.7, 0.9, 1.5):
            assert abs(
                renyi_entropy_closed_form(s, q) - renyi_entropy_closed_form(g, q)
            ) <= 1e-4

    def test_gaussian_limits_at_matched_covariance(self):
        # both families converge to the Gaussian when compared at equal
        # covariance: Student Sigma = (1-2/nu) C, Pearson Sigma = (2 eta+m+2) C
        # (at fixed Sigma the Pearson family concentrates instead)
        for q in (0.7, 1.5):
            g = renyi_entropy_closed_form(gaussian([0.0], [[1.0]]), q)
            s = student([0.0], [[1.0 - 2.0 / 1e6]], 1e6)
            p = pearson2([0.0], [[2.0 * 1e6 + 3.0]], 1e6)
            assert abs(renyi_entropy_closed_form(s, q) - g) <= 1e-4
            assert abs(renyi_entropy_closed_form(p, q) - g) <= 1e-4

    def test_student_nu100_near_gaussian_spec_scale(self):
        g = gaussian([0.0], [[1.0]])
        s = student([0.0], [[1.0]], 100.0)
        assert abs(
            renyi_entropy_closed_form(s, 0.9) - renyi_entropy_closed_form(g, 0.9)
        ) <= 2e-2

    @pytest.mark.parametrize("spec", [
        gaussian([0.0], [[1.3]]),
        student([0.0], [[1.0]], 5.0),
        student(np.zeros(2), np.eye(2), 8.0),
        pearson2([0.0], [[1.0]], 3.0),
        pearson2(np.zeros(2), 0.5 * np.eye(2), 12.0),
    ])
    def test_non_increasing_in_q(self, spec):
        grid = np.arange(0.55, 3.001, 0.05)
        values = []
        for q in grid:
            q = float(q)
            if abs(q - 1.0) < 1e-12:
                continue
            try:
                values.append(renyi_entropy_closed_form(spec, q))
            except DomainError:
                continue
        diffs = np.diff(values)
        assert (diffs <= 1e-12).all()


class TestMaxEntropy:
    def test_gaussian_branch(self):
        res = max_renyi_entropy(Family.STUDENT, SpdMatrix([[1.0]]), math.inf)
        assert res.q == 1.0
        assert res.h_max == pytest.approx(0.5 * math.log(2 * math.pi * math.e), rel=1e-12)

    def test_student_nu6(self):
        res = max_renyi_entropy(Family.STUDENT, SpdMatrix([[1.0]]), 6.0)
        assert res.q == pytest.approx(1.0 - 2.0 / 7.0, rel=1e-15)
        np.testing.assert_allclose(res.scale.matrix, [[2.0 / 3.0]], rtol=1e-15)
        # frozen from a 40-digit evaluation of the closed form
        assert res.h_max == pytest.approx(1.5386881312972506, rel=1e-12)

    def test_pearson_m2_eta1(self):
        res = max_renyi_entropy(Family.PEARSON2, SpdMatrix(np.eye(2)), 1.0)
        assert res.q == pytest.approx(2.0, rel=1e-15)
        np.testing.assert_allclose(res.scale.matrix, 6.0 * np.eye(2), rtol=1e-15)
        assert res.h_max == pytest.approx(2.6488072826256742, rel=1e-12)

    def test_domain_errors(self):
        for family, bad in ((Family.STUDENT, 2.0), (Family.PEARSON2, 0.0)):
            for param in (bad, -math.inf, math.nan):
                with pytest.raises(DomainError):
                    max_renyi_entropy(family, SpdMatrix([[1.0]]), param)

    def test_student_max_equals_closed_form_at_induced_parameters(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 4))
            a = rng.standard_normal((m, m))
            c = SpdMatrix(a @ a.T + m * np.eye(m))
            nu = float(rng.uniform(2.5, 30.0))
            res = max_renyi_entropy(Family.STUDENT, c, nu)
            spec = student(np.zeros(m), res.scale, nu)
            assert res.h_max == pytest.approx(
                renyi_entropy_closed_form(spec, res.q), abs=1e-12
            )

    def test_pearson_max_equals_closed_form_at_induced_parameters(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 4))
            a = rng.standard_normal((m, m))
            c = SpdMatrix(a @ a.T + m * np.eye(m))
            eta = float(rng.uniform(0.5, 20.0))
            res = max_renyi_entropy(Family.PEARSON2, c, eta)
            spec = pearson2(np.zeros(m), res.scale, eta)
            assert res.h_max == pytest.approx(
                renyi_entropy_closed_form(spec, res.q), abs=1e-12
            )


class TestMomentConditions:
    def test_critical_moment(self):
        assert critical_moment(student([0.0], [[1.0]], 3.0)) == 3.0
        assert critical_moment(gaussian([0.0], [[1.0]])) == math.inf
        assert critical_moment(pearson2([0.0], [[1.0]], 2.0)) == math.inf

    def test_mean_condition_student(self):
        spec = student([0.0], [[1.0]], 3.0)
        assert check_estimator_conditions(spec, 0.9, "mean")

    def test_l2_condition_student_m2(self):
        spec = student(np.zeros(2), np.eye(2), 3.0)
        # 2m(1-q)/(2q-1) = 8 > r_c = 3
        check = check_estimator_conditions(spec, 0.6, "L2")
        assert not check
        assert "critical moment" in check.reason

    def test_l2_gaussian_always_ok_above_half(self):
        spec = gaussian([0.0], [[1.0]])
        for q in (0.55, 0.7, 0.99):
            assert check_estimator_conditions(spec, q, "L2")

    def test_l2_rejects_q_at_or_below_half(self):
        spec = gaussian([0.0], [[1.0]])
        check = check_estimator_conditions(spec, 0.5, "L2")
        assert not check
        assert check.reason == "q <= 1/2"

    def test_q_above_one_defers_to_k(self):
        spec = pearson2([0.0], [[1.0]], 2.0)
        assert check_estimator_conditions(spec, 1.5, "mean")
        assert check_estimator_conditions(spec, 1.5, "L2")

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            check_estimator_conditions(gaussian([0.0], [[1.0]]), 0.9, "L3")

    def test_truthiness(self):
        assert bool(ConditionCheck(True)) is True
        assert bool(ConditionCheck(False, "x")) is False

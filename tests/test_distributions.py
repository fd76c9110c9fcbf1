import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from renyigof.distributions import (
    ConditionCheck,
    DistributionSpec,
    Family,
    SpdMatrix,
    check_estimator_conditions,
    density,
    gaussian,
    log_density,
    max_renyi_entropy,
    pearson2,
    renyi_entropy_closed_form,
    student,
)
from renyigof.distributions import _renyi_constant, _standard_spec
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

    def test_rejects_non_square_and_non_finite(self):
        for a in (np.ones((2, 3)), np.ones((2, 2, 2)), np.zeros((0, 0))):
            with pytest.raises(DomainError, match="expected a square matrix"):
                SpdMatrix(a)
        with pytest.raises(DomainError, match="matrix entries must be finite"):
            SpdMatrix([[1.0, math.nan], [math.nan, 1.0]])

    @pytest.mark.parametrize("matrix, refusal", [
        (True, ", got dtype bool"),
        ("4.0", ", got dtype str96"),
        (b"4.0", ", got dtype bytes24"),
        ([[4.0 + 0j]], ", got dtype complex128"),
        (np.array([[2.0, 0.5], [0.5, 1.0]], dtype=object), ", got dtype object"),
        ([[1.0, 0.0], [0.0]], " in a rectangular array"),
        ([[4, 1], [1, 3]], None),
    ], ids=["bool", "str", "bytes", "complex", "object", "ragged", "int"])
    def test_entries_must_be_real_numbers(self, matrix, refusal):
        # read by special._reals; integers build what their floats build
        if refusal is None:
            assert _bits(SpdMatrix(matrix)) == _bits(SpdMatrix(np.asarray(matrix, dtype=float)))
            return
        with pytest.raises(DomainError, match=re.escape(
                f"matrix entries must be real numbers{refusal}")):
            SpdMatrix(matrix)

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

    def test_location_must_be_finite(self):
        for loc in ([math.nan], [math.inf]):
            with pytest.raises(DomainError, match="location must be finite"):
                gaussian(loc, [[1.0]])


    @pytest.mark.parametrize("location, refusal", [
        ([True], ", got dtype bool"),
        (["1.5"], ", got dtype str96"),
        ([b"1.5"], ", got dtype bytes24"),
        ([1.5 + 0j], ", got dtype complex128"),
        (np.array([1.5], dtype=object), ", got dtype object"),
        ([[0.0], [0.0, 1.0]], " in a rectangular array"),
        (np.array([3], dtype=np.int32), None),
    ], ids=["bool", "str", "bytes", "complex", "object", "ragged", "int"])
    def test_location_must_be_real_numbers(self, location, refusal):
        if refusal is None:
            loc = student(location, [[2.0]], 5.0).location
            assert loc.dtype == np.float64 and loc.tolist() == [3.0]
            return
        with pytest.raises(DomainError, match=re.escape(
                f"location must be real numbers{refusal}")):
            student(location, [[2.0]], 5.0)


# a family and a tail parameter as a caller may give them: the members,
# a string and None; valid, infinite, NaN and out-of-domain parameters
_FAMILIES = st.sampled_from([Family.STUDENT, Family.PEARSON2, Family.GAUSSIAN, "student", None])
_PARAMS = (st.none()
           | st.sampled_from([math.inf, -math.inf, math.nan, 2.0, math.nextafter(2.0, 3.0),
                              0.0, 5e-324, -1.0, 1e300])
           | st.floats(-10.0, 1e6))


def _law(build):
    """The (family, param) a construction gives, or DomainError."""
    try:
        spec = build()
    except DomainError:
        return DomainError
    # a Gaussian holds no parameter, any other law a finite float
    if spec.family is Family.GAUSSIAN:
        assert spec.param is None
    else:
        assert spec.family in (Family.STUDENT, Family.PEARSON2)
        assert type(spec.param) is float and math.isfinite(spec.param)
    return spec.family, spec.param


class TestOneRule:
    @settings(max_examples=300)
    @given(_FAMILIES, _PARAMS, st.integers(1, 3))
    def test_every_way_to_build_a_law_applies_one_rule(self, family, param, m):
        loc, scale = np.zeros(m), SpdMatrix.identity(m)
        builds = [lambda: DistributionSpec(family, loc, scale, param),
                  lambda: _standard_spec(family, param, m)]
        if family is Family.STUDENT:
            builds.append(lambda: student(loc, scale, param))
        elif family is Family.PEARSON2:
            builds.append(lambda: pearson2(loc, scale, param))
        elif family is Family.GAUSSIAN and param is None:
            builds.append(lambda: gaussian(loc, scale))
        laws = {_law(build) for build in builds}
        assert len(laws) == 1, laws
        if laws == {DomainError}:
            with pytest.raises(DomainError):
                max_renyi_entropy(family, SpdMatrix.identity(m), param)

    def test_string_family_does_not_reach_the_entropy_cache(self):
        # a string once shared a member's cache key, so one call with it
        # left the Pearson II constant under Student's key
        _renyi_constant.cache_clear()
        with pytest.raises(DomainError, match="family must be student or pearson2"):
            renyi_entropy_closed_form(
                DistributionSpec("student", np.zeros(1), SpdMatrix(np.eye(1)), 5.0), 0.9)
        with pytest.raises(DomainError, match="family must be student or pearson2"):
            max_renyi_entropy("student", SpdMatrix(np.eye(1)), 5.0)
        got = renyi_entropy_closed_form(student(np.zeros(1), np.eye(1), 5.0), 0.9)
        assert got.hex() == (1.6745318212803268).hex()

    def test_family_is_not_its_string(self):
        assert Family.STUDENT != "student" and Family("student") is Family.STUDENT


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

    @pytest.mark.parametrize("points, message", [
        ([math.inf], "points must be finite"),
        ([[0.0], [math.nan]], "points must be finite"),
        ([True], "points must be real numbers, got dtype bool"),
        ([[0.0], [0.0, 1.0]], "points must be real numbers in a rectangular array"),
        (np.zeros((2, 2, 1)), "points have shape (2, 2, 1), not (1,) or (n, 1)"),
        (0.0, "points have shape (), not (1,) or (n, 1)"),
    ], ids=["inf", "nan", "bool", "ragged", "3d", "scalar"])
    def test_points_are_an_m_vector_or_an_n_by_m_array(self, points, message):
        # read by special._reals, so no non-finite point reaches the solve
        for spec in (gaussian([0.0], [[1.0]]), student([0.0], [[1.0]], 5.0),
                     pearson2([0.0], [[1.0]], 2.0)):
            with pytest.raises(DomainError, match=re.escape(message)):
                log_density(spec, points)

    @pytest.mark.parametrize("family, param", [(Family.GAUSSIAN, None), (Family.STUDENT, 5.0),
                                               (Family.PEARSON2, 2.0)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_offset_past_the_double_range_has_density_zero(self, family, param, m):
        # a finite point minus a finite location overflows: the point is
        # infinitely far, so the density is 0, with no warning (an error here)
        location = np.zeros(m)
        location[0] = -1e308
        spec = DistributionSpec(family, location, np.eye(m), param)
        far = np.zeros(m)
        far[0] = 1e308
        assert log_density(spec, far) == -math.inf
        assert density(spec, far) == 0.0
        # in a batch, only the far point's row is -inf
        batch = log_density(spec, np.stack([far, location]))
        assert batch[0] == -math.inf
        assert batch[1] == log_density(spec, location) > -math.inf

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
        h1 = renyi_entropy_closed_form(spec, 1.0)
        assert renyi_entropy_closed_form(spec, 1.0 + 1e-9) == pytest.approx(h1, abs=1e-6)
        assert renyi_entropy_closed_form(spec, 1.0 - 1e-9) == pytest.approx(h1, abs=1e-6)

    def test_gaussian_q_one_is_shannon(self):
        # log[(2 pi e)^{m/2} |Sigma|^{1/2}], here with |Sigma| = 4
        spec = gaussian(np.zeros(2), 2.0 * np.eye(2))
        expected = math.log(2.0 * math.pi * math.e) + 0.5 * math.log(4.0)
        assert renyi_entropy_closed_form(spec, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_order_must_be_positive(self):
        # read by special._order: a real number, then q > 0
        for q in (0.0, -1.0):
            with pytest.raises(DomainError, match="order q must be positive"):
                renyi_entropy_closed_form(gaussian([0.0], [[1.0]]), q)
        with pytest.raises(DomainError, match="order q must be a real number, got nan"):
            renyi_entropy_closed_form(gaussian([0.0], [[1.0]]), math.nan)

    def test_shannon_path_gaussian_only(self):
        for spec in (student([0.0], [[1.0]], 5.0), pearson2([0.0], [[1.0]], 2.0)):
            with pytest.raises(DomainError, match="q = 1"):
                renyi_entropy_closed_form(spec, 1.0)

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


def _outcome(fn):
    """A float result's bits, or the type and message of the error raised."""
    try:
        return fn().hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def _covariances(draw):
    """An SPD covariance A A' + m I in dimension m = 1, 2 or 3 (1 x 1
    takes SpdMatrix's path without LAPACK)."""
    m = draw(st.sampled_from([1, 2, 3]))
    entries = st.floats(-10.0, 10.0, allow_nan=False)
    a = np.asarray(draw(st.lists(entries, min_size=m * m, max_size=m * m))).reshape(m, m)
    return SpdMatrix(a @ a.T + m * np.eye(m))


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

    def test_pearson_eta_with_infinite_order_rejected(self):
        # q = 1 + 1/eta overflows to inf below eta ~ 5.6e-309, where the
        # closed form would give NaN
        assert max_renyi_entropy(Family.PEARSON2, SpdMatrix(np.eye(2)), 5.6e-309).q < math.inf
        with pytest.raises(DomainError, match="not finite"):
            max_renyi_entropy(Family.PEARSON2, SpdMatrix(np.eye(2)), 1e-310)

    def test_student_nu_one_ulp_above_two(self):
        # q(nu+m)/2 - m/2 rounds to 0 here; at the maximiser b1 is (nu - 2)/2
        nu = math.nextafter(2.0, 3.0)
        assert nu == 2.0000000000000004
        assert math.isfinite(max_renyi_entropy(Family.STUDENT, SpdMatrix(np.eye(2)), nu).h_max)

    @pytest.mark.parametrize("family, huge, name", [(Family.STUDENT, 2.0**55, "Student nu"),
                                                    (Family.PEARSON2, 2.0**53, "Pearson II eta")])
    @pytest.mark.parametrize("m", [1, 3])
    def test_order_that_rounds_to_one_rejected(self, family, huge, name, m):
        # the closed form divides by 1 - q: once that is 0, the parameter is
        # refused by name, not read as the Gaussian limit
        for param in (huge, 1e300):
            with pytest.raises(DomainError, match=re.escape(
                    f"{name} = {param} is too large in m = {m}: "
                    "the maximiser's Renyi order rounds to 1")):
                max_renyi_entropy(family, SpdMatrix(np.eye(m)), param)
        # one power of two lower the order is the double next to 1
        res = max_renyi_entropy(family, SpdMatrix(np.eye(m)), huge / 2)
        assert res.q == (math.nextafter(1.0, 0.0) if family is Family.STUDENT
                         else math.nextafter(1.0, 2.0))
        assert math.isfinite(res.h_max)

    def test_domain_errors(self):
        for family, bad in ((Family.STUDENT, 2.0), (Family.PEARSON2, 0.0)):
            for param in (bad, -math.inf, math.nan):
                with pytest.raises(DomainError):
                    max_renyi_entropy(family, SpdMatrix([[1.0]]), param)

    # the maximum is the closed-form entropy of the maximiser, stated here
    # from its order q and scale Sigma, bit for bit (and where either
    # raises, both raise the same error)
    @settings(max_examples=60)
    @given(_covariances(), st.floats(2.0, 60.0, exclude_min=True))
    def test_student_max_equals_closed_form_at_induced_parameters(self, c, nu):
        q = 1.0 - 2.0 / (nu + c.dim)
        spec = student(np.zeros(c.dim), c.matrix * (1.0 - 2.0 / nu), nu)
        assert _outcome(lambda: max_renyi_entropy(Family.STUDENT, c, nu).h_max) == \
            _outcome(lambda: renyi_entropy_closed_form(spec, q))

    @settings(max_examples=60)
    @given(_covariances(), st.floats(0.0, 40.0, exclude_min=True))
    @example(SpdMatrix(np.eye(2)), 1e-310)
    def test_pearson_max_equals_closed_form_at_induced_parameters(self, c, eta):
        q = 1.0 + 1.0 / eta
        spec = pearson2(np.zeros(c.dim), c.matrix * (2.0 * eta + c.dim + 2.0), eta)
        assert _outcome(lambda: max_renyi_entropy(Family.PEARSON2, c, eta).h_max) == \
            _outcome(lambda: renyi_entropy_closed_form(spec, q))

    @settings(max_examples=60)
    @given(_covariances(), st.sampled_from([Family.STUDENT, Family.PEARSON2]))
    def test_gaussian_max_equals_shannon_closed_form(self, c, family):
        res = max_renyi_entropy(family, c, math.inf)
        assert res.q == 1.0 and res.scale is c
        spec = gaussian(np.zeros(c.dim), c)
        assert res.h_max.hex() == renyi_entropy_closed_form(spec, 1.0).hex()


    def test_scale_is_the_rescaled_constraint(self):
        # Sigma = (1 - 2/nu) C for the Student maximiser, (2 eta + m + 2) C
        # for the Pearson II one: the constraint's entries times the factor
        c = SpdMatrix([[2.0, 0.5], [0.5, 1.0]])
        for family, param, factor in ((Family.STUDENT, 6.0, 1.0 - 2.0 / 6.0),
                                      (Family.PEARSON2, 1.5, 2.0 * 1.5 + 2 + 2.0)):
            scale = max_renyi_entropy(family, c, param).scale
            assert scale.matrix.tobytes() == (c.matrix * factor).tobytes()
            assert scale.log_det == pytest.approx(c.log_det + 2 * math.log(factor), rel=1e-12)


class TestMomentConditions:
    def test_l2_critical_moment_by_family(self):
        # the critical moment is nu for the Student and +inf for the Gaussian
        # and Pearson II, whatever the bound 2m(1-q)/(2q-1) just above q = 1/2
        q = 0.5 + 2.0**-40
        check = check_estimator_conditions(student([0.0], [[1.0]], 3.0), q, "L2")
        assert not check
        assert check.reason.startswith("critical moment 3.0 <= 2m(1-q)/(2q-1) = ")
        assert check_estimator_conditions(gaussian([0.0], [[1.0]]), q, "L2")
        assert check_estimator_conditions(pearson2([0.0], [[1.0]], 2.0), q, "L2")

    def test_l2_condition_student_m1(self):
        # 2m(1-q)/(2q-1) = 0.25 < r_c = 3
        spec = student([0.0], [[1.0]], 3.0)
        assert check_estimator_conditions(spec, 0.9, "L2") == ConditionCheck(True)

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

    def test_order_must_be_positive(self):
        for q in (0.0, -0.5):
            with pytest.raises(DomainError, match="order q must be positive"):
                check_estimator_conditions(gaussian([0.0], [[1.0]]), q, "L2")
        with pytest.raises(DomainError, match="order q must be a real number, got nan"):
            check_estimator_conditions(gaussian([0.0], [[1.0]]), math.nan, "L2")

    def test_q_above_one_defers_to_k(self):
        spec = pearson2([0.0], [[1.0]], 2.0)
        assert check_estimator_conditions(spec, 1.5, "L2")

    def test_bad_mode(self):
        # L2 is the one condition; convergence in mean has no branch
        for mode in ("L3", "mean"):
            with pytest.raises(DomainError, match="mode must be 'L2'"):
                check_estimator_conditions(gaussian([0.0], [[1.0]]), 0.9, mode)

    def test_truthiness(self):
        assert bool(ConditionCheck(True)) is True
        assert bool(ConditionCheck(False, "x")) is False

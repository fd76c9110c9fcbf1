import importlib
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from conftest import dyadic_points
from renyigof.distributions import SpdMatrix, gaussian, max_renyi_entropy, student
from renyigof.errors import DomainError, NotPositiveDefiniteError
from renyigof.gof import pearson_statistic, sample_covariance, statistic, student_statistic
from renyigof.knn import renyi_estimate, shannon_estimate
from renyigof import mc
from renyigof.mc import ExperimentConfig, run_experiment
from renyigof.distributions import Family
from renyigof.sampler import Sample, sample


def _sample(points):
    return Sample(np.asarray(points, dtype=float))


def _wishart_half_log_det_variance(m, n):
    """Var(log|S|/2) on Gaussian data: (N-1) S ~ Wishart_m(N-1, Sigma), so
    log|S| is a constant plus the logs of m independent chi-squares with
    N-1, ..., N-m degrees of freedom, and Var log chi2_v = psi'(v/2)."""
    return 0.25 * float(sum(mpmath.psi(1, (n - i) / 2.0) for i in range(1, m + 1)))


def _variance_z(x, target):
    """(sample variance of x - target) / its standard error."""
    d = x - x.mean()
    return (d @ d / (x.size - 1) - target) / math.sqrt(np.var(d * d, ddof=1) / x.size)


class TestSampleCovariance:
    def test_two_points(self):
        mean, cov = sample_covariance(_sample([[-1.0], [1.0]]))
        assert mean[0] == 0.0
        np.testing.assert_array_equal(cov.matrix, [[2.0]])

    def test_triangle(self):
        mean, cov = sample_covariance(_sample([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(mean, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-15)
        np.testing.assert_allclose(
            cov.matrix, [[1.0 / 3.0, -1.0 / 6.0], [-1.0 / 6.0, 1.0 / 3.0]], rtol=1e-14
        )

    def test_translation_bit_identical_on_exact_grid(self, rng):
        # dyadic inputs, power-of-two count and integer shift: centering
        # is exact, so the covariance matrix must not move at all
        pts = dyadic_points(rng, 64, 2)
        shift = np.array([5.0, -17.0])
        _, cov1 = sample_covariance(Sample(pts))
        mean2, cov2 = sample_covariance(Sample(pts + shift))
        np.testing.assert_array_equal(cov1.matrix, cov2.matrix)
        np.testing.assert_array_equal(mean2, pts.mean(axis=0) + shift)

    def test_needs_m_plus_one_points(self):
        with pytest.raises(DomainError):
            sample_covariance(_sample([[0.0, 1.0], [1.0, 0.0]]))

    def test_degenerate_sample_fails_factorisation(self):
        pts = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        with pytest.raises(NotPositiveDefiniteError):
            sample_covariance(_sample(pts))


class TestStudentStatistic:
    def test_records_induced_q(self, rng):
        s = Sample(rng.standard_normal((100, 2)))
        stat = student_statistic(s, 8.0, 3)
        assert stat.q == pytest.approx(1.0 - 2.0 / 10.0, rel=1e-15)
        assert stat.q < 1.0  # the Student side of the Gaussian q = 1

    def test_nu0_domain(self, rng):
        # only +inf means Gaussian; -inf and NaN are invalid
        s = Sample(rng.standard_normal((50, 1)))
        for nu0 in (2.0, -math.inf, math.nan):
            with pytest.raises(DomainError):
                student_statistic(s, nu0, 3)
            with pytest.raises(DomainError):
                statistic(s, Family.STUDENT, nu0, 3)

    def test_gaussian_branch_uses_shannon(self, rng):
        s = Sample(rng.standard_normal((100, 1)))
        stat = student_statistic(s, math.inf, 3)
        assert stat.q == 1.0
        assert stat.h_hat == shannon_estimate(s, 3).value

    def test_l2_flag_boundary(self, rng):
        # nu0=3, m=1 gives q = 1/2 exactly: computed, but flagged
        s = Sample(rng.standard_normal((50, 1)))
        stat = student_statistic(s, 3.0, 3)
        assert stat.q == 0.5
        assert stat.l2_ok is False
        assert math.isfinite(stat.value)
        assert student_statistic(s, 10.0, 3).l2_ok is True

    def test_scale_invariance(self, rng):
        for _ in range(5):
            s = Sample(rng.standard_normal((80, 2)))
            base = student_statistic(s, 7.0, 3).value
            for c in (0.1, 1.0, 10.0):
                scaled = student_statistic(Sample(c * s.points), 7.0, 3).value
                assert scaled == pytest.approx(base, abs=1e-9)

    def test_translation_invariance(self, rng):
        for _ in range(5):
            s = Sample(rng.standard_normal((80, 2)))
            shift = rng.uniform(-10, 10, size=2)
            base = student_statistic(s, 7.0, 3).value
            moved = student_statistic(Sample(s.points + shift), 7.0, 3).value
            assert moved == pytest.approx(base, abs=1e-12)

    def test_null_mean_near_zero_at_scale(self):
        # data from the null: statistic mean small and positive-ish
        vals = []
        spec = student([0.0], [[1.0]], 10.0)
        for j in range(100):
            s = sample(spec, 5000, 9001, j)
            vals.append(student_statistic(s, 10.0, 3).value)
        assert 0.0 < np.mean(vals) < 0.05

    def test_gaussian_data_against_nu0_3_converges_to_positive_limit(self):
        # analytic limit of the statistic on Gaussian data:
        # [log|Sigma|/2 + entropy constant at nu0] - H_q(N(0,1)), q = 1/2
        from renyigof.distributions import renyi_entropy_closed_form

        # the constant at nu0 is H_q of the standard Student, log|Sigma| = 0
        limit = (
            0.5 * math.log(1.0 / 3.0)
            + renyi_entropy_closed_form(student([0.0], [[1.0]], 3.0), 0.5)
            - renyi_entropy_closed_form(gaussian([0.0], [[1.0]]), 0.5)
        )
        assert limit == pytest.approx(0.2257913526, abs=1e-9)
        vals = []
        spec = gaussian([0.0], [[1.0]])
        for j in range(100):
            s = sample(spec, 5000, 9002, j)
            vals.append(student_statistic(s, 3.0, 3).value)
        mean = np.mean(vals)
        # strictly positive limit, approached from above (small-N bias)
        assert mean == pytest.approx(limit, abs=0.03)
        assert mean > 0.2


class TestPearsonStatistic:
    def test_records_induced_q(self, rng):
        s = Sample(rng.standard_normal((100, 2)))
        stat = pearson_statistic(s, 4.0, 3)
        assert stat.q == pytest.approx(1.25, rel=1e-15)
        assert stat.q > 1.0  # the Pearson II side of the Gaussian q = 1

    def test_eta0_domain(self, rng):
        s = Sample(rng.standard_normal((50, 1)))
        for eta0 in (0.0, -math.inf, math.nan):
            with pytest.raises(DomainError):
                pearson_statistic(s, eta0, 3)
            with pytest.raises(DomainError):
                statistic(s, Family.PEARSON2, eta0, 3)

    @pytest.mark.parametrize("eta0, k, ok", [(1.0, 2, False), (2.0, 2, False), (2.0, 3, True)])
    def test_l2_flag_needs_q_below_half_k_plus_one(self, rng, eta0, k, ok):
        # q = 1 + 1/eta0 > 1, where L2 convergence also needs q < (k+1)/2
        # (Leonenko, Pronzato and Savani 2008); eta0 = 2, k = 2 is the boundary
        s = Sample(rng.standard_normal((60, 2)))
        stat = pearson_statistic(s, eta0, k)
        assert stat.l2_ok is ok
        assert math.isfinite(stat.value)

    def test_k_vs_eta0(self, rng):
        # k must exceed 1/eta0
        s = Sample(rng.standard_normal((50, 1)))
        with pytest.raises(DomainError):
            pearson_statistic(s, 0.4, 2)

    def test_scale_invariance(self, rng):
        for _ in range(5):
            s = Sample(rng.standard_normal((80, 2)))
            base = pearson_statistic(s, 6.0, 3).value
            for c in (0.1, 1.0, 10.0):
                scaled = pearson_statistic(Sample(c * s.points), 6.0, 3).value
                assert scaled == pytest.approx(base, abs=1e-9)

    def test_translation_invariance(self, rng):
        for _ in range(5):
            s = Sample(rng.standard_normal((80, 2)))
            shift = rng.uniform(-10, 10, size=2)
            base = pearson_statistic(s, 6.0, 3).value
            moved = pearson_statistic(Sample(s.points + shift), 6.0, 3).value
            assert moved == pytest.approx(base, abs=1e-12)

    def test_infinite_params_coincide_bit_identically(self, rng):
        s = Sample(rng.standard_normal((200, 2)))
        a = student_statistic(s, math.inf, 3)
        b = pearson_statistic(s, math.inf, 3)
        assert a == b


class TestStatistic:
    def test_wrappers_are_the_statistic(self, rng):
        s = Sample(rng.standard_normal((100, 2)))
        assert student_statistic(s, 7.0, 3) == statistic(s, Family.STUDENT, 7.0, 3)
        assert pearson_statistic(s, 4.0, 3) == statistic(s, Family.PEARSON2, 4.0, 3)

    def test_gaussian_null_family_rejected(self, rng):
        # the Gaussian is reached through a +inf Student or Pearson II null
        s = Sample(rng.standard_normal((50, 1)))
        with pytest.raises(DomainError, match="student or pearson2"):
            statistic(s, Family.GAUSSIAN, math.inf, 3)

    def test_holds_its_two_terms(self, rng):
        # W is H_max of the constraint minus the estimate, formed once
        s = Sample(rng.standard_normal((120, 2)))
        for family, null_param in _BRANCHES:
            stat = statistic(s, family, null_param, 3)
            h_max, q, _ = max_renyi_entropy(family, sample_covariance(s)[1], null_param)
            h_hat = shannon_estimate(s, 3) if q == 1.0 else renyi_estimate(s, 3, q)
            assert (stat.h_max, stat.h_hat, stat.q) == (h_max, h_hat.value, q)
            assert stat.value == stat.h_max - stat.h_hat

    def test_own_covariance_is_the_default_constraint(self, rng):
        for m in (1, 2, 3):
            s = Sample(rng.standard_normal((120, m)))
            for family, null_param in _BRANCHES:
                own = sample_covariance(s)[1]
                assert (statistic(s, family, null_param, 3, constraint=own)
                        == statistic(s, family, null_param, 3))

    def test_constraint_changes_only_the_maximum(self, rng):
        s = Sample(rng.standard_normal((120, 2)))
        other = sample_covariance(Sample(rng.standard_normal((120, 2))))[1]
        for family, null_param in _BRANCHES:
            base = statistic(s, family, null_param, 3)
            fresh = statistic(s, family, null_param, 3, constraint=other)
            shift = (max_renyi_entropy(family, other, null_param).h_max
                     - max_renyi_entropy(family, sample_covariance(s)[1], null_param).h_max)
            assert fresh.value - base.value == pytest.approx(shift, abs=1e-12)
            assert (fresh.h_hat, fresh.q, fresh.l2_ok) == (base.h_hat, base.q, base.l2_ok)

    @pytest.mark.parametrize("family, param, ok", [
        (Family.STUDENT, 3.0, False), (Family.STUDENT, 10.0, True),
        (Family.STUDENT, math.inf, True), (Family.PEARSON2, math.inf, True),
    ])
    def test_l2_flag_has_no_k_side_for_q_at_most_one(self, rng, family, param, ok):
        # Student (q < 1) and Gaussian (q = 1) nulls: the moment side alone, any k
        s = Sample(rng.standard_normal((50, 1)))
        for k in (1, 2, 5):
            assert statistic(s, family, param, k).l2_ok is ok

    def test_constraint_read_like_a_scale(self, rng):
        # an SpdMatrix, or anything SpdMatrix accepts, as DistributionSpec
        # reads its scale: the same W and the same maximum either way
        s = Sample(rng.standard_normal((50, 1)))
        for family, null_param in _BRANCHES:
            spd = SpdMatrix(np.eye(1) * 2.0)
            for constraint in (np.eye(1) * 2.0, [[2.0]], [[2]]):
                assert (statistic(s, family, null_param, 3, constraint=constraint)
                        == statistic(s, family, null_param, 3, constraint=spd))
                got = max_renyi_entropy(family, constraint, null_param)
                want = max_renyi_entropy(family, spd, null_param)
                assert (got.h_max, got.q) == (want.h_max, want.q)
                np.testing.assert_array_equal(got.scale.matrix, want.scale.matrix)
        for bad, message in (([["2"]], "matrix entries must be real numbers"),
                             ([[math.nan]], "matrix entries must be finite")):
            with pytest.raises(DomainError, match=message):
                statistic(s, Family.STUDENT, 7.0, 3, constraint=bad)
            with pytest.raises(DomainError, match=message):
                max_renyi_entropy(Family.STUDENT, bad, 7.0)

    def test_constraint_dimension_checked(self, rng):
        s = Sample(rng.standard_normal((50, 2)))
        with pytest.raises(DomainError, match="dimension"):
            statistic(s, Family.STUDENT, 7.0, 3, constraint=SpdMatrix.identity(3))


_BRANCHES = ((Family.STUDENT, 7.0), (Family.PEARSON2, 4.0),
             (Family.STUDENT, math.inf), (Family.PEARSON2, math.inf))


@st.composite
def _null_case(draw):
    """(points, family, null parameter, k, generator): distinct dyadic
    points in m = 1, 2, 3 and a Student, Pearson II or Gaussian null."""
    m = draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = dyadic_points(gen, draw(st.integers(m + 10, 120)), m)
    assume(len(np.unique(points, axis=0)) == len(points))
    family, null_param = draw(st.sampled_from(_BRANCHES))
    return points, family, null_param, draw(st.integers(1, 5)), gen


class TestStatisticInvariance:
    @settings(max_examples=150)
    @given(_null_case())
    def test_row_permutation(self, case):
        points, family, null_param, k, gen = case
        base = statistic(Sample(points), family, null_param, k)
        shuffled = points[gen.permutation(len(points))]
        moved = statistic(Sample(shuffled), family, null_param, k)
        assert moved.h_hat == base.h_hat
        assert abs(moved.value - base.value) <= 1e-12

    @settings(max_examples=150)
    @given(_null_case(), st.integers(-1000, 1000))
    def test_translation(self, case, shift):
        # an integer shift of dyadic points is exact in float64
        points, family, null_param, k, _ = case
        base = statistic(Sample(points), family, null_param, k).value
        moved = statistic(Sample(points + shift), family, null_param, k).value
        assert abs(moved - base) <= 1e-12

    @settings(max_examples=150)
    @given(_null_case(), st.floats(0.01, 100.0))
    def test_scaling(self, case, c):
        points, family, null_param, k, gen = case
        base = statistic(Sample(points), family, null_param, k).value
        scaled = statistic(Sample(c * points), family, null_param, k).value
        assert abs(scaled - base) <= 1e-9
        # the fresh protocol: an independent constraint sample scaled with the data
        other = dyadic_points(gen, len(points), points.shape[1])
        cov = sample_covariance(Sample(other))[1]
        cov_scaled = sample_covariance(Sample(c * other))[1]
        base = statistic(Sample(points), family, null_param, k, constraint=cov).value
        scaled = statistic(Sample(c * points), family, null_param, k, constraint=cov_scaled).value
        assert abs(scaled - base) <= 1e-9


class TestCovarianceTermOracle:
    # (N-1) S ~ Wishart_m(N-1, Sigma) on Gaussian data, so
    # E log|S| - log|Sigma| = sum_i psi((N-i)/2) - m log((N-1)/2).  Every
    # branch of the maximum entropy is log|C|/2 plus a constant, so its
    # bias at C = S is half that, and its variance is the variance of
    # log|S|/2; no kNN is involved.
    #
    # The variance checks here and in the fresh-mode test allow 4 standard
    # errors.  Over 40 other seeds at each (m, N) below (M = 10 000) and
    # 180 fresh-mode runs (M = 1000, 10 to 60 seeds at each of m = 1, 3 and
    # N = 30, 100, 200, 400), every z had sd 0.7-1.25 per case and |z| at
    # most 2.9, so a false failure has a chance of about 1e-4 per check.
    @pytest.mark.parametrize("m,n", [(1, 30), (1, 100), (3, 30), (3, 100)])
    def test_max_entropy_bias_matches_wishart(self, m, n):
        draws = 10_000
        pts = sample(gaussian(np.zeros(m), np.eye(m)), n * draws, 9200, 10 * m + n)
        blocks = pts.points.reshape(draws, n, m)
        oracle = 0.5 * (
            sum(digamma((n - i) / 2.0) for i in range(1, m + 1)) - m * math.log((n - 1) / 2.0)
        )
        covs = [sample_covariance(Sample(b))[1] for b in blocks]
        for family, param in ((Family.STUDENT, 7.0), (Family.PEARSON2, 4.0), (Family.STUDENT, math.inf)):
            ref = max_renyi_entropy(family, SpdMatrix.identity(m), param).h_max
            bias = np.array([max_renyi_entropy(family, c, param).h_max - ref for c in covs])
            se = bias.std(ddof=1) / math.sqrt(draws)
            assert abs(bias.mean() - oracle) <= 3.0 * se, (family, bias.mean(), oracle, se)
            z = _variance_z(bias, _wishart_half_log_det_variance(m, n))
            assert abs(z) <= 4.0, (family, z)

    @pytest.mark.parametrize("m,n", [(1, 30), (1, 100), (1, 400), (3, 30), (3, 100), (3, 400)])
    def test_fresh_mode_variance_floor(self, m, n):
        # In "fresh" mode the maximum is taken at the covariance of an
        # independent draw, so at a Gaussian null Var h_max is the Wishart
        # variance and h_max is uncorrelated with h_hat: Var W - Var h_max
        # is then Var h_hat, the estimator's own spread.  Each replicate is
        # recomputed here from the engine's two stream keys.
        config = ExperimentConfig(family=Family.STUDENT, true_param=math.inf,
                                  null_param=math.inf, dim=m, n_grid=(n,), k=3,
                                  replicates=1000, master_seed=9220, covariance_mode="fresh")
        spec = gaussian(np.zeros(m), np.eye(m))
        terms = []
        for j in range(config.replicates):
            key = mc._stream_id(n, j)
            cov = sample_covariance(sample(spec, n, config.master_seed, key | mc._FRESH_COV_BIT))[1]
            stat = statistic(sample(spec, n, config.master_seed, key), Family.STUDENT, math.inf,
                             config.k, constraint=cov)
            assert stat.value == mc._replicate_value(config, n, j), j
            terms.append((stat.h_max, stat.h_hat))
        h_max, h_hat = np.array(terms).T
        z_var = _variance_z(h_max, _wishart_half_log_det_variance(m, n))
        z_corr = np.corrcoef(h_max, h_hat)[0, 1] * math.sqrt(config.replicates)
        assert abs(z_var) <= 4.0 and abs(z_corr) <= 4.0, (z_var, z_corr)


class TestExactNullMean:
    # tools/exact_mean.py gives E[W] at a Gaussian null, m = 1, by
    # quadrature (within 1e-5 relative), the same in both covariance
    # modes.  The engine's mean must lie within 4 standard errors of it.
    # M = 5000 takes 0.7-1.2 s per mode on 2 workers.  Over master seeds
    # 9230-9249 (this test's and 19 more; both modes, these three N) the
    # 120 z-scores had mean 0.01, sd 0.97 and |z| at most 2.68.
    @pytest.mark.parametrize("mode", ["same", "fresh"])
    def test_engine_mean_matches_the_exact_mean(self, monkeypatch, mode):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
        exact_mean = importlib.import_module("exact_mean").exact_mean
        config = ExperimentConfig(family=Family.STUDENT, true_param=math.inf,
                                  null_param=math.inf, dim=1, n_grid=(30, 100, 200), k=3,
                                  replicates=5000, master_seed=9230, covariance_mode=mode)
        result = run_experiment(config, workers=2)
        for n in config.n_grid:
            w = result.values_at(n)
            z = (w.mean() - exact_mean(n, config.k)) / (w.std(ddof=1) / math.sqrt(w.size))
            assert abs(z) <= 4.0, (n, z)


class TestAlternativeLimit:
    def test_gaussian_data_against_nu0_5_converges_in_mean_square(self):
        # L2 consistency under an alternative: on Gaussian data, W tends
        # in mean square to H_q^max of the Student nu0 = 5 null at the
        # data's covariance minus H_q of the data, at q = 2/3 (at nu0 = 3,
        # q = 1/2 exactly, where the L2 condition fails)
        from renyigof.distributions import renyi_entropy_closed_form

        top = max_renyi_entropy(Family.STUDENT, SpdMatrix.identity(1), 5.0)
        delta = top.h_max - renyi_entropy_closed_form(gaussian([0.0], [[1.0]]), top.q)
        assert top.q == pytest.approx(2.0 / 3.0) and delta == pytest.approx(0.049117, abs=1e-6)
        assert student_statistic(sample(gaussian([0.0], [[1.0]]), 100, 9300), 5.0, 3).l2_ok
        cfg = ExperimentConfig(
            family=Family.STUDENT, true_param=math.inf, null_param=5.0, dim=1,
            n_grid=(500, 1000, 2000, 5000), k=3, replicates=200, master_seed=9300,
        )
        result = run_experiment(cfg, workers=1)
        mse = [np.mean((result.values_at(n) - delta) ** 2) for n in cfg.n_grid]
        assert all(later < earlier for earlier, later in zip(mse, mse[1:])), mse
        assert mse[-1] < mse[0] / 4, mse


class TestNullShape:
    def test_student_null_mean_decreasing_in_n(self):
        cfg = ExperimentConfig(
            family=Family.STUDENT, true_param=5.0, null_param=5.0, dim=1,
            n_grid=(200, 1000), k=3, replicates=80, master_seed=9100,
        )
        curve = dict(run_experiment(cfg).mean_curve())
        assert curve[1000] < curve[200]

import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyigof.distributions import Family, _standard_spec
from renyigof.errors import DomainError, ExperimentError
from renyigof.gof import pearson_statistic
from renyigof.sampler import Sample
from renyigof import mc, sampler
from renyigof.mc import (
    ExperimentConfig,
    empirical_quantile,
    estimate_power,
    fit_convergence_rate,
    histogram_bins,
    read_summary,
    result_to_json,
    run_experiment,
    summarize,
    write_histogram_csv,
    write_summary_csv,
)


def _config(**overrides):
    base = dict(
        family=Family.STUDENT,
        true_param=5.0,
        null_param=5.0,
        dim=1,
        n_grid=(100, 200),
        k=3,
        replicates=10,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestEmpiricalQuantile:
    def test_interpolated_example(self):
        assert empirical_quantile([1, 2, 3, 4, 5], 0.2) == pytest.approx(4.2, rel=1e-14)

    def test_degenerate_values(self):
        for alpha in (0.01, 0.5, 0.9):
            assert empirical_quantile([3.5] * 7, alpha) == 3.5

    def test_closed_form_on_permuted_grid(self, rng):
        values = np.arange(1.0, 1001.0)
        rng.shuffle(values)
        assert empirical_quantile(values, 0.05) == pytest.approx(950.05, rel=1e-13)

    def test_order_invariance_bit_identical(self, rng):
        values = rng.standard_normal(500)
        a = empirical_quantile(values, 0.05)
        b = empirical_quantile(rng.permutation(values), 0.05)
        assert a == b

    def test_level_whose_index_rounds_to_the_top(self):
        # 1 - 1e-17 rounds to 1, so h = M: the largest value, not an index past it
        assert empirical_quantile([3.0, 1.0, 2.0], 1e-17) == 3.0

    def test_validation(self):
        with pytest.raises(DomainError):
            empirical_quantile([], 0.05)
        with pytest.raises(DomainError):
            empirical_quantile([1.0], 0.05)
        with pytest.raises(DomainError):
            empirical_quantile([1.0, 2.0], 1.5)


class TestEstimatePower:
    def test_strict_count(self):
        assert estimate_power([0.1, 0.2, 0.3], 0.15) == pytest.approx(2.0 / 3.0)
        # ties do not count as exceedances
        assert estimate_power([0.1, 0.2, 0.3], 0.2) == pytest.approx(1.0 / 3.0)
        assert estimate_power([0.1, 0.2, 0.3], 0.3) == 0.0

    def test_extremes(self):
        assert estimate_power([1.0, 2.0], 0.5) == 1.0
        assert estimate_power([1.0, 2.0], 5.0) == 0.0

    def test_self_consistency_with_quantile(self, rng):
        for alpha in (0.05, 0.1):
            values = rng.standard_normal(400)
            power = estimate_power(values, empirical_quantile(values, alpha))
            assert abs(power - alpha) <= 3.0 / math.sqrt(400)

    def test_needs_values(self):
        with pytest.raises(DomainError):
            estimate_power([], 0.0)


class TestRateFit:
    def test_exact_power_law(self):
        pairs = [(n, 2.0 * n**-0.5) for n in range(100, 1100, 100)]
        fit = fit_convergence_rate(pairs)
        assert fit.b == pytest.approx(-0.5, abs=1e-12)
        assert fit.log_a == pytest.approx(math.log(2.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("slope", [-1.0, -0.5, -0.25])
    def test_planted_slopes(self, slope):
        pairs = [(n, 3.0 * n**slope) for n in (100, 300, 1000, 3000)]
        assert fit_convergence_rate(pairs).b == pytest.approx(slope, abs=1e-12)

    def test_constant_means(self):
        fit = fit_convergence_rate([(n, 0.7) for n in (100, 200, 400)])
        assert fit.b == pytest.approx(0.0, abs=1e-14)
        assert fit.r_squared == 1.0

    def test_non_positive_pairs_excluded_and_reported(self):
        pairs = [(100, 1.0), (200, 0.5), (400, 0.25), (800, -0.01), (1600, 0.0)]
        fit = fit_convergence_rate(pairs)
        assert fit.excluded == ((800, -0.01), (1600, 0.0))
        assert fit.b == pytest.approx(-1.0, abs=1e-12)

    def test_infinite_means_excluded_and_reported(self):
        # log(inf) has nothing to fit; both infinities are reported
        pairs = [(100, 1.0), (200, math.inf), (400, 0.25), (800, 0.125), (1600, -math.inf)]
        fit = fit_convergence_rate(pairs)
        assert fit.excluded == ((200, math.inf), (1600, -math.inf))
        assert fit.b == pytest.approx(-1.0, abs=1e-12)

    def test_too_few_usable(self):
        with pytest.raises(DomainError):
            fit_convergence_rate([(100, 1.0), (200, 0.5), (400, -1.0)])

    def test_repeated_n_is_not_a_rate(self):
        # three means at one N leave no spread in log N to fit against
        with pytest.raises(DomainError, match="3 distinct N"):
            fit_convergence_rate([(100, 1.0), (100, 0.9), (100, 1.1)])
        with pytest.raises(DomainError, match="3 distinct N"):
            fit_convergence_rate([(100, 1.0), (100, 0.9), (200, 0.5), (400, -1.0)])
        fit = fit_convergence_rate([(100, 1.0), (100, 1.0), (200, 0.5), (400, 0.25)])
        assert fit.b == pytest.approx(-1.0, abs=1e-12)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(2, 2**31 - 1),
                              st.one_of(st.floats(1e-300, 1e300), st.floats(-1.0, 0.0))),
                    min_size=3, max_size=12).filter(
        lambda pairs: len({n for n, w in pairs if w > 0}) >= 3))
    def test_slope_and_intercept_are_the_written_out_formula(self, pairs):
        # least squares from fsum means and fsum cross-products, bit for bit
        usable = [(n, w) for n, w in pairs if w > 0]
        x = np.log([float(n) for n, _ in usable])
        y = np.log([w for _, w in usable])
        x_bar = math.fsum(x) / x.size
        y_bar = math.fsum(y) / y.size
        b = math.fsum((x - x_bar) * (y - y_bar)) / math.fsum((x - x_bar) * (x - x_bar))
        fit = fit_convergence_rate(pairs)
        assert (fit.b, fit.log_a) == (b, y_bar - b * x_bar)


class TestSummarize:
    def test_examples(self):
        assert summarize([1.0, 1.0, 1.0]) == (1.0, 0.0)
        mean, se = summarize([0.0, 2.0])
        assert (mean, se) == (1.0, 1.0)

    def test_needs_two(self):
        with pytest.raises(DomainError):
            summarize([1.0])

    def test_stderr_scales_like_inverse_sqrt_n(self):
        cfg = _config(true_param=10.0, null_param=10.0, n_grid=(1000, 4000),
                      replicates=200, master_seed=606)
        res = run_experiment(cfg, workers=2)
        se = {e.n: summarize(e.valid_values)[1] for e in res.per_n}
        ratio = se[1000] / se[4000]
        assert 2.0 / 1.4 <= ratio <= 2.0 * 1.4


class TestConfig:
    def test_round_trip_with_infinity(self):
        cfg = _config(true_param=math.inf, null_param=math.inf)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_k_rule_matches_pearson_statistic(self):
        # one k > 1/eta0 rule: within 4 ulps of 1/k the config is accepted
        # exactly when the statistic computes (k > q - 1 in the estimator)
        s = Sample(np.random.default_rng(5).standard_normal((30, 1)))
        accepted = 0
        for k in range(1, 11):
            below = above = 1.0 / k
            etas = [below]
            for _ in range(4):
                below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
                etas += [below, above]
            for eta0 in etas:
                try:
                    _config(family=Family.PEARSON2, true_param=eta0, null_param=eta0, k=k)
                    config_ok = True
                except ExperimentError as exc:
                    assert "eta0" in str(exc)
                    config_ok = False
                try:
                    pearson_statistic(s, eta0, k)
                    statistic_ok = True
                except DomainError:
                    statistic_ok = False
                assert config_ok == statistic_ok, (k, eta0)
                accepted += config_ok
        assert 0 < accepted < 90

    def test_invalid_config_raises(self):
        with pytest.raises(ExperimentError, match="replicates"):
            _config(replicates=1)
        with pytest.raises(ExperimentError, match="eta0"):
            _config(family=Family.PEARSON2, true_param=0.3, null_param=0.3, k=3)

    def test_schema_version_checked(self):
        data = _config().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ExperimentError, match="schema_version"):
            ExperimentConfig.from_dict(data)

    def test_not_an_object(self):
        for data in ([1, 2], "config", None):
            with pytest.raises(ExperimentError, match="config must be a JSON object"):
                ExperimentConfig.from_dict(data)

    def test_missing_fields_listed(self):
        with pytest.raises(ExperimentError, match="true_param"):
            ExperimentConfig.from_dict({"schema_version": 1, "family": "student"})

    @pytest.mark.parametrize("key, value, fragment", [
        ("covarience_mode", "fresh", "unknown config fields: 'covarience_mode'"),
        ("include_replicates", "false", "include_replicates: must be true or false"),
        ("include_replicates", 0, "include_replicates: must be true or false"),
        # explicit ids keep the integer fields' cases' names as the suite
        # knew them
        pytest.param("dim", 1.7, "dim must be an integer >= 1, got 1.7",
                     id="dim-1.7-dim: must be an integer, got 1.7"),
        pytest.param("k", "3", "k must be an integer >= 1, got '3'",
                     id="k-3-k: must be an integer, got '3'"),
        pytest.param("replicates", True, "replicates must be an integer in [2, 2**32), got True",
                     id="replicates-True-replicates: must be an integer, got True"),
        pytest.param("n_grid", [100, 200.5],
                     "each n_grid entry must be an integer in [1, 2**31), got 200.5",
                     id="n_grid-value6-n_grid: must be an integer, got 200.5"),
        ("n_grid", 100, "n_grid: must be a list, got 100"),
        pytest.param("dim", [1], "dim must be an integer >= 1, got [1]",
                     id="dim-value8-dim: must be an integer, got [1]"),
        pytest.param("master_seed", 4.2, "master_seed must be an integer",
                     id="master_seed-4.2-master_seed: must be an integer"),
        pytest.param("alpha_levels", ["0.05"],
                     "each alpha_levels entry must be a real number, got '0.05'",
                     id="alpha_levels-value10-alpha_levels: must be a number"),
        ("null_param", "nan", "null_param: expected a number or 'inf'"),
        pytest.param("n_grid", (100.7,),
                     "each n_grid entry must be an integer in [1, 2**31), got 100.7",
                     id="n_grid-value12-n_grid: must be an integer, got 100.7"),
        ("true_param", -math.inf, "true_param: expected a number or 'inf', got -inf"),
        ("null_param", math.nan, "null_param: expected a number or 'inf', got nan"),
    ])
    def test_nothing_is_coerced(self, key, value, fragment):
        # from the JSON form and from the dataclass itself: one parse path
        data = dict(_config().to_dict(), **{key: value})
        routes = [lambda: ExperimentConfig.from_dict(data)]
        if key in mc._CONFIG_FIELDS:  # the dataclass takes no unknown keyword
            routes.append(lambda: _config(**{key: value}))
        for build in routes:
            with pytest.raises(ExperimentError) as excinfo:
                build()
            assert fragment in str(excinfo.value)

    def test_every_structural_violation_listed(self):
        data = dict(_config().to_dict(), covarience_mode="fresh", include_replicates="false",
                    dim=1.7, k=2.5, replicates=10.5, n_grid=[100, 200.5])
        del data["family"]
        with pytest.raises(ExperimentError) as excinfo:
            ExperimentConfig.from_dict(data)
        message = str(excinfo.value)
        for fragment in ("missing required fields: family", "covarience_mode",
                         "include_replicates", "dim", "k must", "replicates must", "n_grid"):
            assert fragment in message

    def test_value_violations_listed_with_structural_ones(self):
        # every field present parses: the rules' findings join the same error
        data = dict(_config().to_dict(), covarience_mode="fresh", replicates=1,
                    n_grid=[100, 100])
        data["schema_version"] = 99
        with pytest.raises(ExperimentError) as excinfo:
            ExperimentConfig.from_dict(data)
        message = str(excinfo.value)
        for fragment in ("schema_version 99", "unknown config fields: 'covarience_mode'",
                         "replicates must be an integer in [2, 2**32)",
                         "n_grid repeats sample sizes 100"):
            assert fragment in message

    def test_every_problem_in_one_round(self):
        # a missing field, a wrong type and out-of-range values in one config:
        # each is reported, and no rule runs on a field that did not parse
        values = dict(family=Family.STUDENT, true_param=5.0, null_param=1.0, dim=1.7,
                      n_grid=(1, 1), k=3, replicates=1)
        data = {"schema_version": 1, "family": "student", "true_param": 5.0, "null_param": 1.0,
                "dim": 1.7, "n_grid": [1, 1], "replicates": 1}
        found = ("dim must be an integer >= 1, got 1.7", "null_param: Student requires nu > 2",
                 "replicates must be an integer in [2, 2**32), got 1",
                 "n_grid repeats sample sizes 1")
        for build, also, never in (
            (lambda: ExperimentConfig.from_dict(data),
             ("config missing required fields: k",), ("too small for k", "below m+1")),
            (lambda: ExperimentConfig(**values),
             ("sample size 1 too small for k = 3",), ("below m+1",)),
        ):
            with pytest.raises(ExperimentError) as excinfo:
                build()
            message = str(excinfo.value)
            for fragment in found + also:
                assert fragment in message
            for fragment in never:
                assert fragment not in message

    @pytest.mark.parametrize("overrides, message", [
        (dict(n_grid=()), "n_grid must be non-empty"),
        (dict(dim=3, k=1, n_grid=(3, 100)), "sample size 3 below m+1 = 4"),
        (dict(k=5, n_grid=(5, 100)), "sample size 5 too small for k = 5"),
    ])
    def test_sample_size_rules(self, overrides, message):
        for build in (lambda: _config(**overrides),
                      lambda: ExperimentConfig.from_dict(dict(_config().to_dict(), **overrides))):
            with pytest.raises(ExperimentError, match=re.escape(message)):
                build()

    @pytest.mark.parametrize("overrides, message", [
        (dict(alpha_levels=(0.05, 1.0)), "alpha level 1.0 outside (0, 1)"),
        (dict(alpha_levels=(0.0,)), "alpha level 0.0 outside (0, 1)"),
        (dict(max_failure_rate=1.0), "max_failure_rate 1.0 outside [0, 1)"),
        (dict(covariance_mode="both"), "covariance_mode must be 'same' or 'fresh', got 'both'"),
    ])
    def test_level_rate_and_mode_rules(self, overrides, message):
        for build in (lambda: _config(**overrides),
                      lambda: ExperimentConfig.from_dict(dict(_config().to_dict(), **overrides))):
            with pytest.raises(ExperimentError, match=re.escape(message)):
                build()

    @pytest.mark.parametrize("key, value, message", [
        ("n_grid", 10**5000, "n_grid: must be a list, got a 16610-bit integer"),
        ("alpha_levels", 10**5000, "alpha_levels: must be a list, got a 16610-bit integer"),
        ("include_replicates", 10**5000,
         "include_replicates: must be true or false, got a 16610-bit integer"),
        ("family", 10**5000, "family must be student or pearson2, got a 16610-bit integer"),
        ("family", 3, "family must be student or pearson2, got 3"),
        ("covariance_mode", 10**5000,
         "covariance_mode must be 'same' or 'fresh', got a 16610-bit integer"),
        ("covariance_mode", 3, "covariance_mode must be 'same' or 'fresh', got 3"),
        ("true_param", 10**5000, "true_param: expected a number or 'inf', got a 16610-bit integer"),
        ("null_param", 10**5000, "null_param: expected a number or 'inf', got a 16610-bit integer"),
        ("dim", 10**5000, "sample size 100 in m = a 16610-bit integer exceeds the limit"),
        ("k", 10**5000, "sample size 100 too small for k = a 16610-bit integer"),
    ], ids=["n_grid-huge", "alpha_levels-huge", "include_replicates-huge", "family-huge",
            "family-3", "covariance_mode-huge", "covariance_mode-3", "true_param-huge",
            "null_param-huge", "dim-huge", "k-huge"])
    def test_rejected_value_named_by_the_field_rule(self, key, value, message):
        # an int past Python's 4300-digit limit has no repr: it is named
        # by its bit length, and nothing is coerced to a string first
        for build in (lambda: _config(**{key: value}),
                      lambda: ExperimentConfig.from_dict(dict(_config().to_dict(), **{key: value}))):
            with pytest.raises(ExperimentError) as excinfo:
                build()
            assert message in str(excinfo.value)

    @pytest.mark.parametrize("family, huge", [(Family.STUDENT, 2.0**55),
                                              (Family.PEARSON2, 2.0**53)])
    def test_null_param_whose_order_rounds_to_one_rejected(self, family, huge):
        # refused with the config, so an experiment stops before any replicate
        for build in (lambda: _config(family=family, true_param=5.0, null_param=huge),
                      lambda: ExperimentConfig.from_dict(dict(
                          _config().to_dict(), family=family.value, null_param=huge))):
            with pytest.raises(ExperimentError, match=re.escape(
                    f"null_param: {'Student nu' if family is Family.STUDENT else 'Pearson II eta'}"
                    f" = {huge} is too large in m = 1")):
                build()
        # the sampled side needs no Renyi order, and half the value is a valid null
        assert _config(family=family, true_param=huge, null_param=huge / 2).null_param == huge / 2

    def test_replicate_limit(self):
        # len(n_grid) * replicates, checked before anything is allocated
        limit = mc._MAX_REPLICATES
        assert _config(n_grid=(100,), replicates=limit).replicates == limit
        for grid, replicates in (((100,), limit + 1), ((100, 200), limit // 2 + 1),
                                 ((100, 200, 300), 2**32 - 1)):
            message = (f"{len(grid)} sample sizes x {replicates} replicates exceed "
                       f"the limit of {limit} replicates per run")
            for build in (lambda: _config(n_grid=grid, replicates=replicates),
                          lambda: ExperimentConfig.from_dict(dict(
                              _config().to_dict(), n_grid=list(grid), replicates=replicates))):
                with pytest.raises(ExperimentError, match=re.escape(message)):
                    build()

    def test_coordinate_limit(self):
        # each n_grid entry times dim, the limit that sampler.sample applies
        limit = sampler._MAX_COORDINATES
        assert _config(n_grid=(100, limit)).n_grid == (100, limit)
        assert _config(dim=2, n_grid=(100, limit // 2)).n_grid == (100, limit // 2)
        for dim, n in ((1, limit + 1), (2, limit // 2 + 1), (1, 2**31 - 1), (3, 2**30)):
            message = (f"sample size {n} in m = {dim} exceeds the limit of "
                       f"{limit} coordinates per draw")
            for build in (lambda: _config(dim=dim, n_grid=(100, n)),
                          lambda: ExperimentConfig.from_dict(dict(
                              _config().to_dict(), dim=dim, n_grid=[100, n]))):
                with pytest.raises(ExperimentError, match=re.escape(message)):
                    build()
        # a dimension too large for any draw is refused without a float conversion
        with pytest.raises(ExperimentError, match=re.escape("below m+1")):
            _config(dim=10**400, n_grid=(100,))

    def test_long_grid_checked_in_linear_time(self):
        # the repeat rule once counted each entry over the whole grid: 40 000
        # sizes took 18 s to check, and 100 000 about two minutes
        start = time.perf_counter()
        with pytest.raises(ExperimentError, match="n_grid repeats sample sizes 5, 7$"):
            _config(n_grid=(*range(5, 100_005), 5, 7), replicates=2)
        assert time.perf_counter() - start < 10.0

    def test_repeated_sample_size_rejected(self):
        for build in (lambda: _config(n_grid=(100, 200, 100, 100)),
                      lambda: ExperimentConfig.from_dict(
                          dict(_config().to_dict(), n_grid=[100, 200, 200]))):
            with pytest.raises(ExperimentError, match="n_grid repeats sample sizes"):
                build()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_outside_uint64_rejected(self, seed):
        # such seeds once wrapped: -1 ran the replicates of 2**64 - 1
        for build in (lambda: _config(master_seed=seed),
                      lambda: ExperimentConfig.from_dict(
                          dict(_config().to_dict(), master_seed=seed))):
            with pytest.raises(ExperimentError,
                               match=rf"master_seed must be an integer in \[0, 2\*\*64\), "
                                     rf"got {seed}"):
                build()
        assert _config(master_seed=2**64 - 1).master_seed == 2**64 - 1

    def test_numpy_integers_accepted(self):
        # every integer field is read by special._integer, and every real
        # one by special._real (the tail parameters through parse_param): a
        # numpy scalar in any numeric field is its value, in the config, its
        # JSON form and its hash
        python = _config(alpha_levels=(0.25, 0.5), max_failure_rate=0.25, null_param=7.0)
        numpy = _config(dim=np.int64(1), k=np.int32(3), replicates=np.uint8(10),
                        master_seed=np.uint64(42), n_grid=[np.int64(100), np.uint16(200)],
                        true_param=np.int64(5), null_param=np.float64(7.0),
                        alpha_levels=[np.float32(0.25), np.float64(0.5)],
                        max_failure_rate=np.float32(0.25))
        assert numpy == python
        assert hash(numpy) == hash(python)
        assert numpy.canonical_json() == python.canonical_json()
        assert numpy.config_hash() == python.config_hash()
        assert all(type(v) is int for v in (numpy.dim, numpy.k, numpy.replicates,
                                            numpy.master_seed, *numpy.n_grid))
        assert all(type(v) is float for v in (numpy.true_param, numpy.null_param,
                                              numpy.max_failure_rate, *numpy.alpha_levels))
        big = _config(master_seed=np.uint64(2**64 - 1))
        assert big == _config(master_seed=2**64 - 1)
        assert _config(true_param=np.float64(5.0), null_param=np.int32(5)) == _config()

    @pytest.mark.parametrize("value", [np.float32(3.0), np.float64(3.5), True, "3"],
                             ids=["float32", "fraction", "bool", "str"])
    @pytest.mark.parametrize("key", ["k", "replicates", "master_seed", "n_grid"])
    def test_non_integers_rejected(self, key, value):
        # an integral float is the one JSON allowance: a numpy float32 is
        # not a JSON number, and 3.5, a bool or a string is no integer
        given = [100, value] if key == "n_grid" else value
        what = "each n_grid entry" if key == "n_grid" else key
        for build in (lambda: _config(**{key: given}),
                      lambda: ExperimentConfig.from_dict(dict(_config().to_dict(), **{key: given}))):
            with pytest.raises(ExperimentError, match=re.escape(f"{what} must be an integer")):
                build()

    @pytest.mark.parametrize("key, value, message", [
        ("n_grid", [100, 2**31], "each n_grid entry must be an integer in [1, 2**31), got 2147483648"),
        ("n_grid", [0, 100], "each n_grid entry must be an integer in [1, 2**31), got 0"),
        ("replicates", 2**32, "replicates must be an integer in [2, 2**32), got 4294967296"),
    ])
    def test_stream_id_bounds(self, key, value, message):
        # N and the replicate index share one 64-bit stream id (32 bits
        # each, the top bit kept for the fresh covariance): beyond these
        # bounds two replicates would draw the same stream
        with pytest.raises(ExperimentError, match=re.escape(message)):
            _config(**{key: value})
        assert mc._stream_id(2**31 - 1, 2**32 - 1) < mc._FRESH_COV_BIT

    def test_integral_floats_accepted(self):
        data = dict(_config().to_dict(), dim=1.0, k=3.0, n_grid=[100.0, 200])
        assert ExperimentConfig.from_dict(data) == _config()
        assert _config(dim=1.0, k=3.0, n_grid=[100.0, 200]) == _config()


class TestParseParam:
    @pytest.mark.parametrize("value, expected", [
        ("inf", math.inf), ("Infinity", math.inf), (" inf ", math.inf),
        (5, 5.0), (2.5, 2.5), ("10.0", 10.0), ("-1", -1.0),
    ])
    def test_accepts_numbers_and_inf(self, value, expected):
        assert mc.parse_param(value) == expected

    @pytest.mark.parametrize("value", ["nan", "-inf", "abc", "", True, None, [5.0], math.nan])
    def test_rejects_everything_else(self, value):
        with pytest.raises(ValueError, match="expected a number or 'inf'"):
            mc.parse_param(value)


class TestRunExperiment:
    def test_rerun_bit_identical(self):
        cfg = _config(replicates=8)
        a = result_to_json(run_experiment(cfg), include_replicates=True)
        b = result_to_json(run_experiment(cfg), include_replicates=True)
        assert a == b

    def test_worker_count_does_not_change_bytes(self):
        cfg = _config(replicates=12)
        serial = result_to_json(run_experiment(cfg, workers=1), include_replicates=True)
        parallel = result_to_json(run_experiment(cfg, workers=2), include_replicates=True)
        assert serial == parallel

    @pytest.mark.parametrize("shape", [
        dict(family=Family.STUDENT, true_param=10.0, null_param=10.0, dim=1,
             covariance_mode="fresh"),
        dict(family=Family.PEARSON2, true_param=2.0, null_param=math.inf, dim=3,
             covariance_mode="same"),
    ], ids=["crit-m1-fresh", "power-m3-n5000"])
    def test_worker_count_does_not_change_bytes_at_workload_shape(self, shape):
        # each benchmark workload's family, m and covariance mode at small N
        cfg = _config(n_grid=(100, 200), replicates=12, **shape)
        serial = result_to_json(run_experiment(cfg, workers=1), include_replicates=True)
        parallel = result_to_json(run_experiment(cfg, workers=2), include_replicates=True)
        assert serial == parallel

    def test_outcomes_land_at_their_n_and_j(self):
        # 9 replicates on 2 workers run in chunks of 2, so chunks straddle
        # the N boundaries; each N still gets its own replicates in order
        cfg = _config(n_grid=(100, 200, 300), replicates=9)
        result = run_experiment(cfg, workers=2)
        for entry in result.per_n:
            assert entry.values == tuple(mc._replicate_value(cfg, entry.n, j) for j in range(9))

    def test_no_more_workers_than_replicates(self, monkeypatch):
        # the pool forks every worker it is given at the first submit
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(mc, "ProcessPoolExecutor", SerialPool)
        cfg = _config(n_grid=(100,), replicates=3)
        assert run_experiment(cfg, workers=8) == run_experiment(cfg, workers=1)
        run_experiment(_config(n_grid=(100, 200), replicates=3), workers=4)
        assert started == [3, 4]

    @pytest.mark.parametrize("cpus, expected", [(6, 6), (None, 1)])
    def test_default_worker_count_without_affinity(self, monkeypatch, cpus, expected):
        # where os has no sched_getaffinity, all the machine's CPUs, at least 1
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
        assert mc.worker_count(None) == expected

    def test_default_worker_count_is_the_usable_cpus(self, monkeypatch):
        # the CPUs this process may run on, not all the machine's
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
        assert mc.worker_count(None) == 1

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(DomainError, match=f"workers must be an integer >= 1, got {workers}"):
            run_experiment(_config(replicates=4), workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.0, "2", True, False])
    def test_non_integer_workers_rejected(self, workers):
        # bool is not a count, and an integral float or string is not either
        with pytest.raises(DomainError, match="workers must be an integer >= 1"):
            run_experiment(_config(replicates=4), workers=workers)

    def test_integer_worker_counts_accepted(self):
        assert mc.worker_count(np.int64(2)) == 2
        assert type(mc.worker_count(np.int64(2))) is int
        assert mc.worker_count(3) == 3

    def test_grid_extension_preserves_existing_streams(self):
        short = run_experiment(_config(n_grid=(100,), replicates=8))
        longer = run_experiment(_config(n_grid=(100, 300), replicates=8))
        assert short.per_n[0].values == longer.per_n[0].values

    @settings(max_examples=100)
    @given(st.sampled_from((Family.STUDENT, Family.PEARSON2)),
           st.integers(1, 3),
           st.lists(st.integers(10, 60), min_size=1, max_size=3, unique=True),
           st.lists(st.integers(10, 60), min_size=1, max_size=2, unique=True),
           st.sampled_from(("same", "fresh")),
           st.randoms(use_true_random=False))
    def test_grid_extension_property(self, family, dim, grid, extra, mode, rnd):
        # any grid, extended and shuffled, keeps each shared N's replicates
        extended = list(dict.fromkeys(grid + extra))
        rnd.shuffle(extended)
        params = dict(family=family, true_param=4.0, null_param=4.0, dim=dim,
                      replicates=3, covariance_mode=mode)
        short = run_experiment(_config(n_grid=tuple(grid), **params))
        longer = run_experiment(_config(n_grid=tuple(extended), **params))
        values = {entry.n: entry.values for entry in longer.per_n}
        for entry in short.per_n:
            assert entry.values == values[entry.n]

    def test_true_spec_built_once_per_config(self):
        _standard_spec.cache_clear()
        cfg = _config(replicates=8, covariance_mode="fresh")
        run_experiment(cfg, workers=1)
        run_experiment(cfg, workers=1)
        # 2 runs x 2 N x 8 replicates x 2 lookups (the true law, and the
        # statistic's null law, which is the same key here)
        info = _standard_spec.cache_info()
        assert (info.misses, info.hits) == (1, 2 * 2 * 8 * 2 - 1)

    def test_covariance_mode_changes_values(self):
        same = run_experiment(_config(replicates=8))
        fresh = run_experiment(_config(replicates=8, covariance_mode="fresh"))
        assert same.per_n[0].values != fresh.per_n[0].values

    def test_failures_recorded(self, monkeypatch):
        original = mc._replicate_value

        def flaky(config, n, j):
            if j == 3:
                raise DomainError("synthetic failure")
            return original(config, n, j)

        monkeypatch.setattr(mc, "_replicate_value", flaky)
        cfg = _config(replicates=200, max_failure_rate=0.01)
        res = run_experiment(cfg, workers=1)
        for entry in res.per_n:
            assert entry.failures == ((3, "DomainError: synthetic failure"),)
            assert entry.values[3] is None
            assert len(entry.valid_values) == 199
        for item in json.loads(result_to_json(res, include_replicates=True))["per_n"]:
            assert item["failed"] == 1
            assert item["failures"] == [{"replicate": 3, "error": "DomainError: synthetic failure"}]
            assert item["values"][3] is None

    def test_failure_budget_enforced(self, monkeypatch):
        def broken(config, n, j):
            raise DomainError("synthetic failure")

        monkeypatch.setattr(mc, "_replicate_value", broken)
        with pytest.raises(ExperimentError, match="failed"):
            run_experiment(_config(replicates=10), workers=1)


    def test_fewer_than_two_valid_replicates_rejected(self, monkeypatch):
        # within the failure budget, but the summaries need two values
        original = mc._replicate_value

        def flaky(config, n, j):
            if j == 1:
                raise DomainError("synthetic failure")
            return original(config, n, j)

        monkeypatch.setattr(mc, "_replicate_value", flaky)
        with pytest.raises(ExperimentError, match=r"1/2 replicates failed at N=100 .*least 2"):
            run_experiment(_config(replicates=2, max_failure_rate=0.5), workers=1)


class TestOutputs:
    def test_summary_csv_round_trip(self, tmp_path):
        cfg = _config(replicates=40)
        res = run_experiment(cfg, workers=2)
        path = tmp_path / "summary.csv"
        write_summary_csv(res, path)
        text = path.read_text()
        assert text.startswith("# renyigof")
        assert "# master_seed 42" in text
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == ",".join(mc.SUMMARY_COLUMNS)
        critical = read_summary(path, cfg.to_dict())
        assert set(critical) == set(mc.ALPHA_COLUMNS)
        for alpha, crit in critical.items():
            assert crit == {n: empirical_quantile(res.values_at(n), alpha) for n in (100, 200)}
        # the run's config is read back from the header and judges the settings
        with pytest.raises(DomainError, match=r"different null run: k 3 there, 4 here$"):
            read_summary(path, dict(cfg.to_dict(), k=4))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda text: text.replace("# config ", "# settings "), "no '# config' header"),
        (lambda text: text.replace("q01", "p01"), "not a summary table"),
        (lambda text: text.replace(",100,", ",1e2,"), "unreadable summary row"),
        (lambda text: text.replace("# config {", "# config {{"), "unreadable config header"),
        # an int literal past Python's 4300-digit limit: json.loads raises a plain ValueError
        (lambda text: text.replace('"master_seed":42', '"master_seed":' + "1" * 5000),
         "unreadable config header: Exceeds the limit"),
        # a table that contradicts itself: neither of its rows may decide
        (lambda text: text + text.splitlines()[-2] + "\n",
         r"summary.csv has a second row for N=100$"),
        (lambda text: text.replace(",5.0,200,", ",5.0,300,"),
         r"summary.csv has a row outside its n_grid for N=300$"),
    ], ids=["no-config-header", "missing-column", "bad-row", "bad-config-header",
            "over-long-int-in-config-header", "repeated-n", "n-outside-n-grid"])
    def test_read_summary_rejects_malformed_tables(self, tmp_path, corrupt, message):
        path = tmp_path / "summary.csv"
        config = _config(replicates=4)
        write_summary_csv(run_experiment(config), path)
        path.write_text(corrupt(path.read_text()))
        with pytest.raises(DomainError, match=message):
            read_summary(path, config.to_dict())

    def test_self_power_column_near_alpha(self, tmp_path):
        cfg = _config(replicates=200)
        res = run_experiment(cfg, workers=2)
        path = tmp_path / "summary.csv"
        write_summary_csv(res, path)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        header = rows[0].split(",")
        for line in rows[1:]:
            row = dict(zip(header, line.split(",")))
            assert abs(float(row["power_at_005"]) - 0.05) <= 3.0 / math.sqrt(200)

    def test_power_column_against_reference_table(self, tmp_path):
        # one rule: the reference's critical value at N, an empty cell at an
        # N the reference has no row for, and without a reference the run's
        # own q05
        res = run_experiment(_config(replicates=40))
        crit = float(np.median(res.values_at(100)))
        rows = {}
        for name, critical_by_n in (("reference", {100: crit}), ("self", None)):
            path = tmp_path / f"{name}.csv"
            write_summary_csv(res, path, critical_by_n=critical_by_n)
            header, *lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
            rows[name] = {int(row["N"]): row for row in
                          (dict(zip(header.split(","), l.split(","))) for l in lines)}
        assert rows["reference"][100]["power_at_005"] == repr(
            estimate_power(res.values_at(100), crit))
        assert rows["reference"][200]["power_at_005"] == ""
        for n, row in rows["self"].items():
            assert row["power_at_005"] == repr(
                estimate_power(res.values_at(n), float(row["q05"])))
        # the reference changes only the power column
        for n in (100, 200):
            del rows["reference"][n]["power_at_005"], rows["self"][n]["power_at_005"]
        assert rows["reference"] == rows["self"]

    def test_histogram_csv(self, tmp_path):
        cfg = _config(replicates=50)
        res = run_experiment(cfg, workers=2)
        path = tmp_path / "hist.csv"
        write_histogram_csv(res, 100, path)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "bin_left,bin_right,count"
        counts = [int(r.split(",")[2]) for r in rows[1:]]
        assert sum(counts) == 50

    def test_histogram_bins_freedman_diaconis(self, rng):
        values = rng.standard_normal(500)
        edges, counts = histogram_bins(values)
        expected_counts, expected_edges = np.histogram(values, bins="fd")
        np.testing.assert_array_equal(edges, expected_edges)
        np.testing.assert_array_equal(counts, expected_counts)

    def test_histogram_bins_needs_two_values(self):
        with pytest.raises(DomainError, match=re.escape("values need shape (M,) with M >= 2, "
                                                        "got (1,)")):
            histogram_bins([1.0])

    def test_values_at_an_absent_size(self):
        with pytest.raises(KeyError, match="no results for sample size 300"):
            run_experiment(_config(replicates=4)).values_at(300)

    def test_json_omits_replicates_by_default(self):
        res = run_experiment(_config(replicates=8))
        doc = json.loads(result_to_json(res))
        assert "values" not in doc["per_n"][0]
        doc_full = json.loads(result_to_json(res, include_replicates=True))
        assert len(doc_full["per_n"][0]["values"]) == 8


class TestScaleBehaviour:
    def test_gaussian_null_mean_small(self):
        cfg = _config(true_param=math.inf, null_param=math.inf,
                      n_grid=(5000,), replicates=200, master_seed=7000)
        res = run_experiment(cfg, workers=2)
        mean, se = summarize(res.values_at(5000))
        # the true mean at this size is ~1e-4, below the 95% critical
        # value; with M=200 its sign is inside the noise band
        assert mean < 0.04
        assert mean > -3.0 * se

    def test_alternative_mean_dominates_null(self):
        null_cfg = _config(true_param=math.inf, null_param=math.inf,
                           n_grid=(5000,), replicates=200, master_seed=7001)
        alt_cfg = _config(true_param=math.inf, null_param=3.0,
                          n_grid=(5000,), replicates=200, master_seed=7002)
        null_mean, _ = summarize(run_experiment(null_cfg, workers=2).values_at(5000))
        alt_mean, _ = summarize(run_experiment(alt_cfg, workers=2).values_at(5000))
        assert alt_mean > 10.0 * abs(null_mean)


class TestMonotonePower:
    def test_power_non_decreasing_in_nu(self):
        # against the nu0=3 null at N=2000, detection improves as the
        # sampled distribution moves away from nu=3
        m_rep = 500
        null_cfg = ExperimentConfig(
            family=Family.STUDENT, true_param=3.0, null_param=3.0, dim=1,
            n_grid=(2000,), k=3, replicates=m_rep, master_seed=7100,
        )
        crit = empirical_quantile(run_experiment(null_cfg, workers=2).values_at(2000), 0.05)
        powers = []
        for i, nu in enumerate((4.0, 5.0, 6.0, 10.0, math.inf)):
            cfg = ExperimentConfig(
                family=Family.STUDENT, true_param=nu, null_param=3.0, dim=1,
                n_grid=(2000,), k=3, replicates=m_rep, master_seed=7200 + i,
            )
            values = run_experiment(cfg, workers=2).values_at(2000)
            powers.append(estimate_power(values, crit))
        noise = 3.0 / math.sqrt(m_rep)
        for lo, hi in zip(powers, powers[1:]):
            assert hi >= lo - noise, f"power sequence {powers} not monotone"

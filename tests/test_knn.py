import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma as scipy_digamma

from conftest import dyadic_points, kernel_order, random_orthogonal
from renyigof import knn
from renyigof.distributions import Family, gaussian, renyi_entropy_closed_form, student
from renyigof.errors import DomainError, DuplicatePointsError
from renyigof.gof import sample_covariance, statistic
from renyigof.knn import knn_distances, renyi_estimate, shannon_estimate
from renyigof.sampler import Sample, sample


def _sample(points):
    return Sample(np.asarray(points, dtype=float))


# the sorted kernel, which method "auto" runs on these m = 1 samples
_SORTED = pytest.param("auto", id="sorted")


class TestKnnDistances:
    def test_three_points_on_line(self):
        d = knn_distances(_sample([[0.0], [1.0], [3.0]]), 2)
        np.testing.assert_array_equal(d.rho, [[1.0, 3.0], [1.0, 2.0], [2.0, 3.0]])

    def test_unit_square_corners(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        d = knn_distances(_sample(pts), 3)
        expected = np.array([[1.0, 1.0, math.sqrt(2.0)]] * 4)
        np.testing.assert_array_equal(d.rho, expected)

    def test_rows_non_decreasing(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 80))
            m = int(rng.integers(1, 4))
            d = knn_distances(Sample(rng.standard_normal((n, m))), min(4, n - 1))
            assert (np.diff(d.rho, axis=1) >= 0).all()
            assert (d.rho > 0).all()

    def test_tree_equals_brute_force_exactly(self, rng):
        for _ in range(200):
            n = int(rng.integers(5, 201))
            m = int(rng.integers(1, 4))
            k = int(min(rng.integers(1, 5), n - 1))
            s = Sample(rng.standard_normal((n, m)) * float(10.0 ** rng.integers(-2, 3)))
            brute = knn_distances(s, k, method="brute").rho
            tree = knn_distances(s, k, method="tree").rho
            np.testing.assert_array_equal(brute, tree)
            np.testing.assert_array_equal(knn_distances(s, k).rho,
                                          brute[kernel_order(s.points, "auto")])

    def test_duplicate_points_identified(self):
        # a coincident triple and a coincident pair: every kernel lists
        # each of their five points once, in ascending order, at any k_max
        line = [[0.0], [1.0], [0.0], [2.0], [0.0], [1.0]]
        plane = [[x, -x] for (x,) in line]
        expected = [0, 1, 2, 4, 5]
        for pts, methods in ((line, ("brute", "tree", "auto")), (plane, ("brute", "tree"))):
            for method in methods:
                for k_max in (1, 3):
                    with pytest.raises(DuplicatePointsError) as excinfo:
                        knn_distances(_sample(pts), k_max, method=method)
                    assert excinfo.value.indices == expected, (method, k_max)

    def test_k_max_bounds(self):
        s = _sample([[0.0], [1.0], [2.0]])
        with pytest.raises(DomainError):
            knn_distances(s, 3)
        with pytest.raises(DomainError):
            knn_distances(s, 0)

    @pytest.mark.parametrize("method", [_SORTED, "tree", "brute"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_one_point_has_no_neighbour(self, method, m):
        # the k_max range [1, N) is empty at N = 1: say why, not "in [1, 1)"
        with pytest.raises(DomainError, match=r"^a sample of N = 1 point has no nearest "
                                              r"neighbour$"):
            knn_distances(Sample(np.zeros((1, m))), 1, method=method)

    def test_unknown_method(self):
        # "sorted" is no method: "auto" is the one route to the sorted kernel
        for method in ("fancy", "sorted"):
            with pytest.raises(DomainError, match="unknown method"):
                knn_distances(_sample([[0.0], [1.0]]), 1, method=method)

    @pytest.mark.parametrize("method, m", [pytest.param("auto", 1, id="sorted-1"), ("tree", 1),
                                           ("tree", 3), ("brute", 1), ("brute", 3)])
    @pytest.mark.parametrize("k_max", [3.0, 2.5, np.float64(3.0), "3", True],
                             ids=["float", "fraction", "numpy-float", "str", "bool"])
    def test_non_integral_k_max_rejected(self, rng, method, m, k_max):
        # unchecked, numpy would take some of these as k and fail on others
        # with a TypeError or an IndexError, depending on the kernel
        with pytest.raises(DomainError, match="k_max must be an integer"):
            knn_distances(Sample(rng.standard_normal((20, m))), k_max, method=method)

    @pytest.mark.parametrize("method", [_SORTED, "tree", "brute"])
    def test_numpy_integer_k_max(self, rng, method):
        s = Sample(rng.standard_normal((20, 1)))
        np.testing.assert_array_equal(knn_distances(s, np.int64(3), method=method).rho,
                                      knn_distances(s, 3, method=method).rho)


class TestRouting:
    def test_auto_never_runs_brute_force(self, monkeypatch, rng):
        # the O(N^2) scan is the test oracle only: no production path may
        # reach it, at any N or m
        def forbidden(pts, k_max):
            raise AssertionError("brute-force kernel ran without method='brute'")

        monkeypatch.setattr(knn, "_brute_kernel", forbidden)
        for m in (1, 2, 3):
            for n in (10, 100, 600):
                s = Sample(rng.standard_normal((n, m)))
                knn_distances(s, 3)
                renyi_estimate(s, 3, 0.8)
                shannon_estimate(s, 3)

    def test_m1_estimators_compute_no_point_order(self, monkeypatch, rng):
        # the sorted kernel's rows stay in ascending-x order: the order-free
        # sums need no argsort back to point order, and neither does .rho
        def forbidden(*args, **kwargs):
            raise AssertionError("np.argsort ran on the m = 1 path")

        monkeypatch.setattr(np, "argsort", forbidden)
        kept = []
        for n in (10, 100, 600):
            s = Sample(rng.standard_normal((n, 1)))
            cov = sample_covariance(Sample(rng.standard_normal((n, 1))))[1]
            renyi_estimate(s, 3, 0.8)
            shannon_estimate(s, 3)
            for family, null_param in ((Family.STUDENT, 10.0), (Family.PEARSON2, math.inf)):
                statistic(s, family, null_param, 3)
                statistic(s, family, null_param, 3, constraint=cov)
            kept.append((s, knn_distances(s, 3).rho))
        monkeypatch.undo()
        for s, rho in kept:
            brute = knn_distances(s, 3, method="brute").rho
            np.testing.assert_array_equal(rho, brute[kernel_order(s.points, "auto")])

    def test_m1_result_outlives_a_change_to_the_sample(self, rng):
        # the result keeps no reference to the points: writing to the
        # sample's array after the call changes neither rho nor a column
        points = rng.standard_normal((50, 1))
        dists = knn_distances(Sample(points), 3)
        expected = knn_distances(Sample(points.copy()), 3)
        points *= -1.0  # reverses the order of x
        assert dists.rho.tobytes() == expected.rho.tobytes()
        for k in (1, 2, 3):
            assert dists.rho[:, k - 1].tobytes() == expected.rho[:, k - 1].tobytes()


_SCALES = (1e-170, 2.0**-30, 1.0, 1e8, 1e155)


def _coincident(points):
    """The points with another point at zero squared distance, in
    ascending order: a sum of squares is zero only if every term is, so
    the summation order does not matter."""
    with np.errstate(over="ignore"):
        d2 = np.square(points[:, None, :] - points[None, :, :]).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.flatnonzero((d2 == 0.0).any(axis=1)).tolist()


def _every_kernel(points, k, methods):
    """Each kernel's distances, all positive, or the coincident points
    it reports, which must be exactly those of :func:`_coincident`."""
    out = {}
    for method in methods:
        # brute and sorted warn when squared gaps overflow to inf
        with np.errstate(over="ignore"):
            try:
                rho = knn_distances(Sample(points), k, method=method).rho
            except DuplicatePointsError as exc:
                assert exc.indices == _coincident(points), method
                out[method] = exc.indices
            else:
                assert (rho > 0.0).all(), method
                out[method] = rho
    return out


def _assert_identical(out, points):
    oracle = out["brute"]
    for method, got in out.items():
        assert type(got) is type(oracle), method
        if isinstance(oracle, list):
            assert got == oracle, method
        else:
            np.testing.assert_array_equal(got, oracle[kernel_order(points, method)],
                                          err_msg=method)


@st.composite
def _line(draw):
    """(x, k): points on a line with ties, near-duplicates and extreme
    scales, and a neighbour count up to 5."""
    n = draw(st.integers(2, 40))
    scale = draw(st.sampled_from(_SCALES))
    kind = draw(st.sampled_from(("grid", "near", "floats")))
    if kind == "grid":
        # integers on a narrow grid: tied gaps, and duplicates unless unique
        unique = draw(st.booleans())
        ints = draw(st.lists(st.integers(-n, n), min_size=n, max_size=n, unique=unique))
        x = np.asarray(ints, dtype=float) * scale
    elif kind == "near":
        # pairs one ulp apart, whose squared gap underflows at small scales
        base = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))) * scale
        x = np.concatenate((base, np.nextafter(base, np.inf)))
    else:
        x = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))) * scale
    k = draw(st.integers(1, min(5, x.size - 1)))
    return x, k


@st.composite
def _grid_points(draw):
    """(points, k): integer-grid points in m = 2 or 3, many coincident."""
    m = draw(st.integers(2, 3))
    n = draw(st.integers(2, 30))
    scale = draw(st.sampled_from(_SCALES))
    ints = draw(st.lists(st.integers(-2, 2), min_size=n * m, max_size=n * m))
    k = draw(st.integers(1, min(5, n - 1)))
    return np.asarray(ints, dtype=float).reshape(n, m) * scale, k


class TestKernelExactness:
    @settings(max_examples=200)
    @given(_line())
    def test_line_kernels_bit_identical(self, case):
        x, k = case
        _assert_identical(_every_kernel(x[:, None], k, ("brute", "tree", "auto")), x[:, None])

    def test_run_of_zero_gaps_with_a_nonzero_pair(self):
        # each squared gap of 1e-162 underflows to zero, but that of 2e-162
        # does not: the run 0, 1e-162, 2e-162 holds two duplicate pairs, not
        # three, and all three of its points are duplicates
        x = np.array([2e-162, 5.0, 0.0, 1e-162, 3.0, 5.0])
        out = _every_kernel(x[:, None], 1, ("brute", "tree", "auto"))
        assert out["brute"] == [0, 1, 2, 3, 5]
        _assert_identical(out, x[:, None])

    @settings(max_examples=200)
    @given(_grid_points())
    def test_tree_and_brute_report_same_duplicates(self, case):
        points, k = case
        _assert_identical(_every_kernel(points, k, ("brute", "tree")), points)


@st.composite
def _points_and_k_max(draw):
    """(points, k_max): normal points in m = 1 (the sorted kernel) or
    m = 2, 3 (the kd-tree) at any scale, half of them with one point
    copied onto another, and a neighbour count up to 8."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 60))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = gen.standard_normal((n, m)) * draw(st.sampled_from(_SCALES))
    if draw(st.booleans()):
        points[draw(st.integers(0, n - 1))] = points[draw(st.integers(0, n - 1))]
    return points, draw(st.integers(1, min(8, n - 1)))


def _distances_or_report(s, k_max):
    """knn_distances(s, k_max), or the coincident points it reports."""
    # squared gaps past about 1e154 overflow to inf, alike at every k_max
    with np.errstate(over="ignore"):
        try:
            return knn_distances(s, k_max)
        except DuplicatePointsError as exc:
            return exc.indices


class TestOneKMax:
    # the distances computed once at k_max serve every k <= k_max: column
    # k is that of a call at k_max = k, bit for bit and in the same order

    @settings(max_examples=200)
    @given(_points_and_k_max())
    def test_column_k_does_not_depend_on_k_max(self, case):
        points, k_max = case
        s = Sample(points)
        full = _distances_or_report(s, k_max)
        for k in range(1, k_max + 1):
            own = _distances_or_report(s, k)
            assert type(own) is type(full)
            if isinstance(full, list):
                assert own == full == _coincident(points)
            else:
                assert own.rho[:, k - 1].tobytes() == full.rho[:, k - 1].tobytes()


class TestDuplicatesAtScale:
    # the report lists points, not pairs: a constant column of N = 5000
    # holds 12.5 million coincident pairs but only 5000 coincident points

    @pytest.mark.parametrize("m", [1, 2], ids=["sorted", "tree"])
    def test_constant_column(self, m):
        with pytest.raises(DuplicatePointsError) as excinfo:
            knn_distances(Sample(np.full((5000, m), 1.5)), 3)
        assert excinfo.value.indices == list(range(5000))
        assert str(excinfo.value) == "duplicate points at indices 0, 1, 2, 3, 4 and 4995 more"

    @pytest.mark.parametrize("method", [_SORTED, "tree", "brute"])
    def test_rounded_normals(self, rng, method):
        # ties almost everywhere, but not in the tails
        x = np.round(rng.standard_normal(3000), 1)
        _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
        tied = np.flatnonzero(counts[inverse] > 1).tolist()
        assert 0 < len(tied) < x.size
        with pytest.raises(DuplicatePointsError) as excinfo:
            knn_distances(Sample(x[:, None]), 3, method=method)
        assert excinfo.value.indices == tied


# sizes on both sides of the size below which knn._exact_sum calls math.fsum
_SUM_SIZES = (0, 1, 2, 150, knn._EXACT_SUM_MIN_N - 1, knn._EXACT_SUM_MIN_N, 333, 1500)


def _spread(gen, n, e_lo, e_hi):
    """n signed floats with binary exponents e_lo..e_hi (|x| < 2**e_hi)."""
    mantissas = gen.uniform(0.5, 1.0, n) * gen.choice((-1.0, 1.0), n)
    return np.ldexp(mantissas, gen.integers(e_lo, e_hi + 1, n))


@st.composite
def _sum_terms(draw):
    """Terms for the exact sum: any finite float, binary exponents from
    subnormal up to 2**994 (and past it), cancelling +-pairs, values in
    (0, 1] as in a log-sum-exp, and signed zeros."""
    n = draw(st.sampled_from(_SUM_SIZES))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("floats", "exponents", "cancelling", "unit", "zeros")))
    if kind == "floats":
        # hypothesis's own picks: subnormals, huge values, powers of two
        floats = st.floats(allow_nan=False, allow_infinity=False)
        pool = np.asarray(draw(st.lists(floats, min_size=1, max_size=10)))
        return gen.choice(pool, n) * gen.choice((-1.0, 1.0), n)
    if kind == "zeros":
        x = gen.choice((0.0, -0.0), n)
        if n >= 2 and draw(st.booleans()):
            x[:2] = _spread(gen, 1, -1074, 995) * (1.0, -1.0)
        return gen.permutation(x)
    # up to |x| < 2**995 the split is exact; above it, down to math.fsum
    e_max = draw(st.sampled_from((995, 1024)))
    edges = st.sampled_from((-1074, -1022, 995, 997))
    e_lo = min(e_max, draw(st.integers(-1074, e_max) | edges))
    e_hi = min(e_max, e_lo + draw(st.sampled_from((0, 3, 60, 2100))))
    if kind == "exponents":
        return _spread(gen, n, e_lo, e_hi)
    if kind == "cancelling":
        half = _spread(gen, n // 2, e_lo, e_hi)
        x = np.concatenate((half, -half, _spread(gen, n % 2, e_lo - 60, e_lo)))
        return gen.permutation(x)
    # exp(s - s_max): one term is exactly 1, the rest lie in [0, 1]
    x = np.exp(-gen.exponential(draw(st.sampled_from((0.1, 10.0, 300.0))), n))
    x[: min(n, 1)] = 1.0
    return gen.permutation(x)


def _fsum_outcome(fn, x):
    """A sum's bits (signed zero and NaN included), or the error it raised."""
    try:
        return fn(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


class TestExactSum:
    @settings(max_examples=400)
    @given(_sum_terms())
    def test_equals_fsum_bit_for_bit(self, x):
        assert _fsum_outcome(knn._exact_sum, x) == _fsum_outcome(math.fsum, x)

    @settings(max_examples=100)
    @given(_sum_terms(),
           st.lists(st.tuples(st.sampled_from((math.inf, -math.inf, math.nan)),
                              st.integers(0, 2000)), min_size=1, max_size=3))
    def test_non_finite_terms_as_fsum(self, x, inserts):
        for value, at in inserts:
            x = np.insert(x, at % (x.size + 1), value)
        assert _fsum_outcome(knn._exact_sum, x) == _fsum_outcome(math.fsum, x)

    @pytest.mark.parametrize("e", [995, 996, 997, 1010, 1024])
    def test_huge_terms_as_fsum(self, e):
        gen = np.random.default_rng(e)
        for n in (knn._EXACT_SUM_MIN_N, 2000):
            x = _spread(gen, n, e - 1, e)
            assert _fsum_outcome(knn._exact_sum, x) == _fsum_outcome(math.fsum, x)

    def test_zero_sum_keeps_fsum_sign(self):
        x = np.full(knn._EXACT_SUM_MIN_N, -0.0)
        assert knn._exact_sum(x).hex() == math.fsum(x).hex()


def _g(s, k, q):
    """G, the estimate of the integral of f^q: exp((1-q) H), with H the
    Renyi estimate log(G)/(1-q)."""
    return math.exp((1.0 - q) * renyi_estimate(s, k, q).value)


class TestGEstimate:
    def test_two_point_hand_value(self):
        # N=2 at distance d, m=1, k=1, q=1/2:
        # zeta = C_1 * 2 d with C_1 = (1/Gamma(3/2))^2, G = sqrt(zeta)
        for d in (1.0, 0.37):
            s = _sample([[0.0], [d]])
            expected = math.sqrt((4.0 / math.pi) * 2.0 * d)
            assert _g(s, 1, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_collinear_hand_value(self):
        # {0, 1, 3}, k=1, q=1/2, frozen from a 40-digit scalar evaluation
        s = _sample([[0.0], [1.0], [3.0]])
        rho = knn_distances(s, 1).rho[:, 0]
        assert math.exp(knn._log_g(rho, 1, 1, 0.5)) == pytest.approx(2.5683516371978372,
                                                                     rel=1e-12)
        assert renyi_estimate(s, 1, 0.5).value == pytest.approx(1.886528613653193, rel=1e-12)

    def test_scaling_homogeneity(self, rng):
        # G(c X) = c^{m(1-q)} G(X)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            q = float(rng.uniform(0.5, 0.95))
            pts = rng.standard_normal((40, m))
            c = float(rng.uniform(0.2, 5.0))
            g1 = _g(Sample(pts), 2, q)
            g2 = _g(Sample(c * pts), 2, q)
            assert g2 == pytest.approx(c ** (m * (1 - q)) * g1, rel=1e-9)

    def test_order_domain(self, rng):
        s = Sample(rng.standard_normal((20, 1)))
        with pytest.raises(DomainError, match="q = 1 is the Shannon case"):
            renyi_estimate(s, 3, 1.0)
        for q in (0.0, -0.5):
            with pytest.raises(DomainError, match="order q must be positive"):
                renyi_estimate(s, 3, q)
        with pytest.raises(DomainError, match="order q must be a real number, got nan"):
            renyi_estimate(s, 3, math.nan)

    def test_k_vs_q_precondition(self):
        s = _sample([[0.0], [1.0], [3.0]])
        with pytest.raises(DomainError, match="k > q - 1"):
            renyi_estimate(s, 1, 2.5)  # k = 1 <= q - 1 = 1.5

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("k", [3.0, 2.5, "3", True])
    def test_non_integral_k_rejected(self, rng, m, k):
        # the estimators pass k to knn_distances as k_max; the statistic
        # reads k itself first, so a Pearson II null's k rule never sees "3"
        s = Sample(rng.standard_normal((30, m)))
        for estimate in (lambda: renyi_estimate(s, k, 0.5), lambda: shannon_estimate(s, k)):
            with pytest.raises(DomainError, match="k_max must be an integer"):
                estimate()
        for family, null_param in ((Family.STUDENT, 10.0), (Family.PEARSON2, 2.0)):
            with pytest.raises(DomainError, match="k must be an integer >= 1"):
                statistic(s, family, null_param, k)

    def test_large_sample_gaussian_target(self):
        # G_q = exp((1-q) H_q); N=5000, k=3, q=0.9, averaged over 50 streams
        spec = gaussian([0.0], [[1.0]])
        q = 0.9
        target = math.exp((1 - q) * renyi_entropy_closed_form(spec, q))
        vals = [_g(sample(spec, 5000, 8001, j), 3, q) for j in range(50)]
        assert np.mean(vals) == pytest.approx(target, abs=0.02)


# (m, N): the sorted (m = 1) and tree (m = 3) kernels, each on both sides
# of the size from which knn._exact_sum leaves math.fsum for its bincount path
_PERMUTATION_CASES = [(m, n) for m in (1, 3)
                      for n in (60, knn._EXACT_SUM_MIN_N - 1, knn._EXACT_SUM_MIN_N, 1000)]


class TestRenyiEstimate:
    def test_scaling_shift(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 4))
            q = float(rng.uniform(0.6, 0.95))
            pts = rng.standard_normal((50, m))
            c = float(rng.uniform(0.25, 4.0))
            h1 = renyi_estimate(Sample(pts), 2, q).value
            h2 = renyi_estimate(Sample(c * pts), 2, q).value
            assert h2 == pytest.approx(h1 + m * math.log(c), abs=1e-9)

    def test_permutation_bit_identical(self, rng):
        for m, n in _PERMUTATION_CASES:
            for _ in range(5):
                pts = rng.standard_normal((n, m))
                perm = rng.permutation(n)
                a = renyi_estimate(Sample(pts), 3, 0.8).value
                assert renyi_estimate(Sample(pts[perm]), 3, 0.8).value == a, (m, n)

    def test_translation_bit_identical_on_exact_grid(self, rng):
        # translation by an integer vector is exact in float64 on dyadic
        # inputs, so the estimate must not move by a single bit
        for _ in range(20):
            m = int(rng.integers(1, 4))
            pts = dyadic_points(rng, 50, m)
            shift = rng.integers(-100, 100, size=m).astype(float)
            a = renyi_estimate(Sample(pts), 2, 0.8).value
            b = renyi_estimate(Sample(pts + shift), 2, 0.8).value
            assert a == b

    def test_translation_tolerance_on_generic_floats(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 4))
            pts = rng.standard_normal((50, m))
            shift = rng.uniform(-10, 10, size=m)
            a = renyi_estimate(Sample(pts), 2, 0.8).value
            b = renyi_estimate(Sample(pts + shift), 2, 0.8).value
            assert b == pytest.approx(a, abs=1e-9)

    def test_rotation_invariance(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 4))
            pts = rng.standard_normal((60, m))
            rot = random_orthogonal(rng, m)
            a = renyi_estimate(Sample(pts), 3, 0.85).value
            b = renyi_estimate(Sample(pts @ rot.T), 3, 0.85).value
            assert b == pytest.approx(a, abs=1e-9)

    def test_gaussian_consistency(self):
        spec = gaussian([0.0], [[1.0]])
        vals = [
            renyi_estimate(sample(spec, 5000, 8002, j), 3, 0.9).value
            for j in range(50)
        ]
        assert np.mean(vals) == pytest.approx(1.4457411114938043, abs=0.03)

    def test_mse_decreases_with_n(self):
        # L2 consistency at desk scale: empirical MSE of G at N=5000 is
        # at least 2x smaller than at N=500
        spec = gaussian([0.0], [[1.0]])
        q = 0.9
        target = math.exp((1 - q) * renyi_entropy_closed_form(spec, q))
        errs = {}
        for n in (500, 5000):
            sq = [
                (_g(sample(spec, n, 8003, j), 3, q) - target) ** 2
                for j in range(100)
            ]
            errs[n] = np.mean(sq)
        assert errs[5000] <= errs[500] / 2.0


class TestShannonEstimate:
    def test_is_q_to_one_limit(self, rng):
        pts = rng.standard_normal((100, 2))
        s = Sample(pts)
        h1 = shannon_estimate(s, 3).value
        for q in (1.0 + 1e-4, 1.0 - 1e-4):
            assert renyi_estimate(s, 3, q).value == pytest.approx(h1, abs=1e-3)

    def test_gaussian_consistency(self):
        spec = gaussian([0.0], [[1.0]])
        vals = [
            shannon_estimate(sample(spec, 5000, 8004, j), 3).value
            for j in range(50)
        ]
        assert np.mean(vals) == pytest.approx(1.4189385332046727, abs=0.03)

    def test_scaling_shift(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 4))
            pts = rng.standard_normal((50, m))
            c = float(rng.uniform(0.25, 4.0))
            h1 = shannon_estimate(Sample(pts), 2).value
            h2 = shannon_estimate(Sample(c * pts), 2).value
            assert h2 == pytest.approx(h1 + m * math.log(c), abs=1e-9)

    def test_permutation_bit_identical(self, rng):
        for m, n in _PERMUTATION_CASES:
            for _ in range(5):
                pts = rng.standard_normal((n, m))
                perm = rng.permutation(n)
                a = shannon_estimate(Sample(pts), 2).value
                assert shannon_estimate(Sample(pts[perm]), 2).value == a, (m, n)

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePointsError):
            shannon_estimate(_sample([[0.0], [0.0], [1.0]]), 1)


class TestBeyondTheNormalBallVolume:
    # the unit-ball volume is subnormal from m = 436 and 0.0 from m = 453;
    # both estimates take its log as 0.5 m log(pi) - lnGamma(m/2 + 1) there
    @pytest.mark.parametrize("m", [452, 800])
    def test_estimates_take_the_log_volume(self, rng, m):
        s = Sample(rng.standard_normal((20, m)))
        n, k, q = s.n, 3, 1.5
        log_rho = np.log(knn_distances(s, k).rho[:, k - 1])
        log_v = 0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m + 1.0)
        shannon = m * math.fsum(log_rho) / n + log_v + math.log(n - 1) - scipy_digamma(k)
        terms = (1.0 - q) * (m * log_rho + log_v + math.log(n - 1))
        log_g = np.logaddexp.reduce(terms) - math.log(n) + math.lgamma(k) - math.lgamma(k + 1.0 - q)
        assert shannon_estimate(s, k).value == pytest.approx(shannon, rel=1e-12)
        assert renyi_estimate(s, k, q).value == pytest.approx(log_g / (1.0 - q), rel=1e-12)


# gaps of about 1e200: their squares pass the double range, so the
# nearest-neighbour distances are inf in every kernel
_FAR_LINE = [[1e200], [-1e200], [3e200], [5.0], [7e199]]


# the sorted and brute kernels warn as they square such a gap
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
class TestOverflowingDistances:
    @pytest.mark.parametrize("method", [_SORTED, "tree", "brute"])
    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    def test_non_finite_estimate_rejected(self, monkeypatch, method, q):
        # unchecked, q = 0.5 gave nan and q = 1 gave inf; at q = 1.5 on two
        # such points every term of G underflows to 0, so its log is -inf
        monkeypatch.setattr(knn, "knn_distances", functools.partial(knn_distances, method=method))
        s = _sample(_FAR_LINE[1:3] if q > 1 else _FAR_LINE)
        assert np.isinf(knn_distances(s, 1, method=method).rho[:, 0]).any()
        with pytest.raises(DomainError, match="the entropy estimate is inf: a squared "
                                              "neighbour distance overflows the double range"):
            shannon_estimate(s, 1) if q == 1.0 else renyi_estimate(s, 1, q)

    @pytest.mark.parametrize("method", ["tree", "brute"])
    def test_plane_and_statistic(self, monkeypatch, method):
        # m = 2 and the goodness-of-fit statistic: W is never computed from
        # a non-finite estimate
        monkeypatch.setattr(knn, "knn_distances", functools.partial(knn_distances, method=method))
        s = _sample([[x, 1.0] for (x,) in _FAR_LINE])
        cov = sample_covariance(_sample([[0.0, 0.0], [1.0, 0.5], [0.5, 2.0]]))[1]
        for family, null_param in ((Family.STUDENT, 10.0), (Family.STUDENT, math.inf)):
            with pytest.raises(DomainError, match="the entropy estimate is inf"):
                statistic(s, family, null_param, 1, constraint=cov)


class TestStudentEntropyAgreement:
    def test_estimate_matches_closed_form_end_to_end(self):
        # Student nu=6, m=1 at the induced order q = 1 - 2/(nu+m)
        spec = student([0.0], [[1.0]], 6.0)
        q = 1.0 - 2.0 / 7.0
        target = renyi_entropy_closed_form(spec, q)
        vals = [
            renyi_estimate(sample(spec, 5000, 8005, j), 3, q).value
            for j in range(50)
        ]
        assert np.mean(vals) == pytest.approx(target, abs=0.03)

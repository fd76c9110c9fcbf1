import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from renyigof import sampler
from renyigof.distributions import gaussian, pearson2, student
from renyigof.errors import DomainError
from renyigof.sampler import (
    RngStream,
    Sample,
    read_csv,
    read_table,
    _sphere_block,
    sample,
    write_csv,
    write_table,
)


class TestRngStream:
    def test_same_key_replays_identically(self):
        a = RngStream(42, 7).generator.standard_normal(100)
        b = RngStream(42, 7).generator.standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).generator.standard_normal(100)
        b = RngStream(42, 1).generator.standard_normal(100)
        assert not np.array_equal(a, b)

    def test_order_independence(self):
        # consuming stream 5 first does not change stream 9
        s9_alone = sample(gaussian([0.0], [[1.0]]), 50, RngStream(1, 9))
        _ = sample(gaussian([0.0], [[1.0]]), 50, RngStream(1, 5))
        s9_after = sample(gaussian([0.0], [[1.0]]), 50, RngStream(1, 9))
        np.testing.assert_array_equal(s9_alone.points, s9_after.points)


_UINT64 = st.integers(0, 2**64 - 1) | st.sampled_from((0, 1, 2**63, 2**64 - 1))


def _same_state(a, b):
    """Bit generator states equal entry for entry, arrays by dtype and value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


class TestRngStreamKey:
    @settings(max_examples=200)
    @given(_UINT64, _UINT64)
    def test_same_generator_as_keyed_philox(self, seed, stream_id):
        ours = RngStream(seed, stream_id).generator
        ref = np.random.Generator(
            np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))
        assert _same_state(ours.bit_generator.state, ref.bit_generator.state)
        for draw in (lambda g: g.standard_normal(7), lambda g: g.chisquare(3.5, 7),
                     lambda g: g.beta(0.5, 3.0, 7)):
            np.testing.assert_array_equal(draw(ours), draw(ref))
        assert _same_state(ours.bit_generator.state, ref.bit_generator.state)

    def test_streams_own_their_generators(self):
        # interleaved draws from two live streams match each drawn alone
        a, b = RngStream(3, 1), RngStream(3, 2)
        mixed = [(a.generator.standard_normal(), b.generator.standard_normal())
                 for _ in range(5)]
        np.testing.assert_array_equal([x for x, _ in mixed],
                                      RngStream(3, 1).generator.standard_normal(5))
        np.testing.assert_array_equal([y for _, y in mixed],
                                      RngStream(3, 2).generator.standard_normal(5))

    @pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_identifiers_outside_uint64_rejected(self, seed, stream_id):
        # they once wrapped: seed -1 drew what seed 2**64 - 1 draws
        with pytest.raises(DomainError, match=r"must be an integer in \[0, 2\*\*64\)"):
            RngStream(seed, stream_id)

    @pytest.mark.parametrize("seed, stream_id", [(1.5, 0), (True, 0), ("7", 0),
                                                 (0, 2.0), (0, False), (0, "1")],
                             ids=["float-seed", "bool-seed", "str-seed",
                                  "float-stream", "bool-stream", "str-stream"])
    def test_non_integer_identifiers_rejected(self, seed, stream_id):
        # int() would read 1.5 and True as 1 and "7" as 7
        with pytest.raises(DomainError, match="must be an integer"):
            RngStream(seed, stream_id)

    def test_numpy_integer_identifiers(self):
        stream = RngStream(np.uint64(2**64 - 1), np.int32(5))
        assert (stream.seed, stream.stream_id) == (2**64 - 1, 5)
        assert type(stream.seed) is int and type(stream.stream_id) is int
        np.testing.assert_array_equal(stream.generator.standard_normal(5),
                                      RngStream(2**64 - 1, 5).generator.standard_normal(5))


class TestSphere:
    def test_unit_norm(self):
        for m in (1, 2, 3, 7):
            u = _sphere_block(m, 100, RngStream(3, m).generator)
            assert u.shape == (100, m)
            assert (np.abs(np.linalg.norm(u, axis=1) - 1.0) <= 1e-12).all()

    def test_m1_is_sign_flip(self):
        vals = _sphere_block(1, 10_000, RngStream(11).generator)[:, 0]
        assert set(np.unique(vals)) == {-1.0, 1.0}
        assert 0.47 <= np.mean(vals > 0) <= 0.53

    def test_m3_coordinates_centered(self):
        u = _sphere_block(3, 10_000, RngStream(12).generator)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
        assert (np.abs(u.mean(axis=0)) <= 0.02).all()

    def test_m2_angle_uniform(self):
        gen = RngStream(14).generator
        from renyigof.sampler import _sphere_block

        u = _sphere_block(2, 10_000, gen)
        angles = np.arctan2(u[:, 1], u[:, 0])
        counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
        chi2 = ((counts - 625.0) ** 2 / 625.0).sum()
        assert chi2 < stats.chi2.ppf(0.99, 15)


class TestSampleLaws:
    def test_gaussian_moments(self):
        s = sample(gaussian([0.0], [[1.0]]), 100_000, RngStream(21))
        assert abs(s.points.mean()) <= 0.02
        assert 0.98 <= s.points.var(ddof=1) <= 1.02

    def test_student_covariance_relation(self):
        # Cov = Sigma / (1 - 2/nu) = 5/3 for nu = 5
        s = sample(student([0.0], [[1.0]], 5.0), 100_000, RngStream(22))
        assert s.points.var(ddof=1) == pytest.approx(5.0 / 3.0, abs=0.1)

    def test_pearson_support_and_radial_law(self):
        spec = pearson2(np.zeros(2), np.eye(2), 1.0)
        s = sample(spec, 10_000, RngStream(23))
        r2 = (s.points**2).sum(axis=1)
        assert (r2 <= 1.0).all()
        ks = stats.kstest(r2, stats.beta(1.0, 2.0).cdf)
        assert ks.pvalue > 0.01

    def test_student_histogram_matches_density(self):
        # 30 equal-probability bins against the exact t(4) law
        nu = 4.0
        s = sample(student([0.0], [[1.0]], nu), 100_000, RngStream(24))
        edges = stats.t(nu).ppf(np.linspace(0.0, 1.0, 31))
        counts, _ = np.histogram(s.points[:, 0], bins=edges)
        expected = 100_000 / 30.0
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.999, 29)

    def test_affine_correctness(self, rng):
        # the same bytes as the standard draw mapped by hand; an identity
        # scale takes the branch that skips the matmul
        for m in (1, 2, 3):
            a = rng.standard_normal((m, m))
            loc = rng.standard_normal(m)
            for scale in (a @ a.T + m * np.eye(m), np.eye(m)):
                for spec_at in (
                    lambda l, s: gaussian(l, s),
                    lambda l, s: student(l, s, 6.0),
                    lambda l, s: pearson2(l, s, 2.0),
                ):
                    shifted = sample(spec_at(loc, scale), 200, RngStream(31, m))
                    base = sample(spec_at(np.zeros(m), np.eye(m)), 200, RngStream(31, m))
                    chol = np.linalg.cholesky(scale)
                    assert shifted.points.tobytes() == (base.points @ chol.T + loc).tobytes()

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_identity_scale_keeps_signed_zeros(self, m):
        # skipping core @ I keeps the bytes of core @ I + location even
        # for a signed zero in the draw and for a -0.0 location
        core = np.array([[-0.0] * m, [0.0] * m, [-0.0] + [3.0] * (m - 1), [-1.5] * m])

        class Planted:
            def standard_normal(self, size):
                return core.copy()

        for loc in (np.zeros(m), -np.zeros(m), np.full(m, -0.25)):
            stream = RngStream(1)
            stream._generator = Planted()
            got = sample(gaussian(loc, np.eye(m)), core.shape[0], stream).points
            assert got.tobytes() == (core @ np.eye(m) + loc).tobytes(), loc

    def test_determinism_bit_identical(self):
        spec = student(np.zeros(3), np.eye(3), 4.0)
        a = sample(spec, 500, RngStream(77, 3))
        b = sample(spec, 500, RngStream(77, 3))
        np.testing.assert_array_equal(a.points, b.points)

    @pytest.mark.parametrize("spec", [gaussian(np.zeros(2), np.eye(2)),
                                      student(np.zeros(2), np.eye(2), 4.0),
                                      pearson2(np.zeros(2), np.eye(2), 2.0)],
                             ids=["gaussian", "student", "pearson2"])
    def test_sample_size_must_be_an_integer(self, spec):
        # an integral type is a size; a float, bool or string never is,
        # even with an integral value
        want = sample(spec, 3, RngStream(5)).points
        for n in (np.int64(3), np.int32(3)):
            assert sample(spec, n, RngStream(5)).points.tobytes() == want.tobytes()
        for n in (2.5, 3.0, np.float64(3.0), True, "3", None, 0, -1):
            with pytest.raises(DomainError, match="sample size must be an integer >= 1"):
                sample(spec, n, RngStream(5))

    def test_sample_validation(self):
        with pytest.raises(DomainError):
            sample(gaussian([0.0], [[1.0]]), 0, RngStream(1))
        with pytest.raises(DomainError):
            Sample(np.array([[np.nan]]))
        with pytest.raises(DomainError):
            Sample(np.empty((0, 2)))
        with pytest.raises(DomainError, match=r"an \(n, m\) matrix, got ndim=1"):
            Sample(np.zeros(3))

    @pytest.mark.parametrize("points, refusal", [
        ([[True], [False], [True]], ", got dtype bool"),
        ([["1.5"], ["2.5"]], ", got dtype str96"),
        ([[b"1.5"], [b"2.5"]], ", got dtype bytes24"),
        ([[1.5 + 0j], [2.5 + 1j]], ", got dtype complex128"),
        (np.array([[1.5], [2.5]], dtype=object), ", got dtype object"),
        ([[1.0], [1.0, 2.0]], " in a rectangular array"),
        (np.array([[1, -2], [3, 2**53 + 1]]), None),
    ], ids=["bool", "str", "bytes", "complex", "object", "ragged", "int"])
    def test_points_must_be_real_numbers(self, points, refusal):
        # read by special._reals: integers give the floats
        # np.asarray(points, dtype=float) gives, any other kind is refused
        if refusal is None:
            got = Sample(points).points
            want = np.asarray(points, dtype=float)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            return
        with pytest.raises(DomainError, match=re.escape(
                f"sample points must be real numbers{refusal}")):
            Sample(points)

    @pytest.mark.parametrize("m, n", [(1, 2**23 + 1), (3, 2**23 // 3 + 1), (1, 2**30),
                                      (2, 2**31 - 1)])
    def test_draw_beyond_the_coordinate_limit_refused(self, m, n):
        # refused before the stream makes its generator, so nothing is drawn
        rng = RngStream(1)
        with pytest.raises(DomainError, match=re.escape(
                f"{n} points in m = {m} are {n * m} coordinates, "
                f"more than one draw may hold ({sampler._MAX_COORDINATES})")):
            sample(gaussian(np.zeros(m), np.eye(m)), n, rng)
        assert rng._generator is None


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path, rng):
        s = Sample(rng.standard_normal((50, 3)))
        path = tmp_path / "s.csv"
        write_csv(s, path)
        back = read_csv(path)
        np.testing.assert_array_equal(back.points, s.points)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3"

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DomainError):
            read_csv(path)

    def test_rejects_header_without_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("# comment\nx1,x2\n\n")
        with pytest.raises(DomainError, match=r"header\.csv: no data rows"):
            read_csv(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0\n")
        with pytest.raises(DomainError, match="expected 2 columns"):
            read_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1\n1.0\nfoo\n")
        with pytest.raises(DomainError, match="non-numeric"):
            read_csv(path)

    def test_rejects_missing_header(self, tmp_path):
        # a first row of numbers is a point, not a header to drop
        path = tmp_path / "bare.csv"
        path.write_text("# comment\n1.5\n2.5\n3.7\n4.1\n5.9\n")
        with pytest.raises(DomainError, match=r"bare\.csv:2: expected a header line"):
            read_csv(path)

    @pytest.mark.parametrize("metadata", [None, ["renyigof"]],
                             ids=["header-first", "comment-first"])
    def test_byte_order_mark_dropped(self, tmp_path, rng, metadata):
        s = Sample(rng.standard_normal((20, 2)))
        path = tmp_path / "marked.csv"
        write_csv(s, path, metadata=metadata)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        np.testing.assert_array_equal(read_csv(path).points, s.points)


class TestTable:
    def test_write_ends_every_line_in_lf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["tool 1", 'config {"a": 1, "b": 2}'], ("p", "q"),
                    [["1", "2"], ["3", ""]])
        assert path.read_bytes() == (b'# tool 1\n# config {"a": 1, "b": 2}\n'
                                     b"p,q\n1,2\n3,\n")

    def test_read_numbers_lines_and_keeps_comments_raw(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b'\xef\xbb\xbf# config {"a": 1, "b": 2}\r\n\r\np,q\r\n  \n1,"2"\n')
        assert list(read_table(path)) == [
            (1, '# config {"a": 1, "b": 2}', None),
            (3, "p,q", ["p", "q"]),
            (5, '1,"2"', ["1", "2"]),
        ]

    def test_undecodable_file_names_it(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"x1\n\xff\n")
        with pytest.raises(DomainError, match=r"bin\.csv: not UTF-8 text"):
            list(read_table(path))

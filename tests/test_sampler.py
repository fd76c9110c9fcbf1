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
    Sample,
    read_csv,
    read_table,
    _sphere_block,
    sample,
    write_csv,
    write_table,
)


_UINT64 = st.integers(0, 2**64 - 1) | st.sampled_from((0, 1, 2**63, 2**64 - 1))
_SPECS = [gaussian(np.zeros(2), np.eye(2)), student(np.zeros(2), np.eye(2), 4.0),
          pearson2(np.zeros(2), np.eye(2), 2.0)]
_SPEC_IDS = ["gaussian", "student", "pearson2"]


def _same_state(a, b):
    """Bit generator states equal entry for entry, arrays by dtype and value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _keyed_philox(seed, stream_id):
    """numpy's own Philox generator keyed by (seed, stream_id)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))


def _no_generator(seed, stream_id):
    raise AssertionError(f"a generator was keyed by ({seed}, {stream_id})")


class TestRngStream:
    # the Philox stream a (seed, stream_id) key selects, seen through sample

    @settings(max_examples=100)
    @given(st.sampled_from(_SPECS), _UINT64, _UINT64,
           st.lists(st.tuples(st.sampled_from(_SPECS), _UINT64, _UINT64), max_size=3))
    def test_same_key_replays_identically(self, spec, seed, stream_id, before):
        # the same key gives the same bytes, whatever was drawn before
        first = sample(spec, 30, seed, stream_id).points.tobytes()
        for other_spec, other_seed, other_stream in before:
            sample(other_spec, 30, other_seed, other_stream)
        assert sample(spec, 30, seed, stream_id).points.tobytes() == first

    def test_distinct_streams_differ(self):
        spec = gaussian([0.0], [[1.0]])
        assert not np.array_equal(sample(spec, 100, 42, 0).points, sample(spec, 100, 42, 1).points)
        assert not np.array_equal(sample(spec, 100, 42, 0).points, sample(spec, 100, 43, 0).points)

    def test_order_independence(self):
        # drawing stream 5 first does not change stream 9
        s9_alone = sample(gaussian([0.0], [[1.0]]), 50, 1, 9)
        _ = sample(gaussian([0.0], [[1.0]]), 50, 1, 5)
        s9_after = sample(gaussian([0.0], [[1.0]]), 50, 1, 9)
        np.testing.assert_array_equal(s9_alone.points, s9_after.points)

    def test_stream_id_defaults_to_zero(self):
        spec = student(np.zeros(2), np.eye(2), 4.0)
        assert sample(spec, 50, 9).points.tobytes() == sample(spec, 50, 9, 0).points.tobytes()


class TestRngStreamKey:
    @settings(max_examples=200)
    @given(_UINT64, _UINT64, st.integers(1, 40), st.integers(1, 3))
    def test_same_generator_as_keyed_philox(self, seed, stream_id, n, m):
        # at location 0 and identity scale a draw is numpy's keyed Philox
        # normals, but for the location add, which turns a drawn -0.0
        # into +0.0
        got = sample(gaussian(np.zeros(m), np.eye(m)), n, seed, stream_id).points
        want = _keyed_philox(seed, stream_id).standard_normal((n, m)) + 0.0
        assert got.tobytes() == want.tobytes()
        assert _same_state(sampler._generator(seed, stream_id).bit_generator.state,
                           _keyed_philox(seed, stream_id).bit_generator.state)

    def test_streams_own_their_generators(self):
        # interleaved draws from two keyed generators match each drawn alone
        a, b = sampler._generator(3, 1), sampler._generator(3, 2)
        mixed = [(a.standard_normal(), b.standard_normal()) for _ in range(5)]
        np.testing.assert_array_equal([x for x, _ in mixed],
                                      sampler._generator(3, 1).standard_normal(5))
        np.testing.assert_array_equal([y for _, y in mixed],
                                      sampler._generator(3, 2).standard_normal(5))

    @pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_identifiers_outside_uint64_rejected(self, monkeypatch, seed, stream_id):
        # they once wrapped: seed -1 drew what seed 2**64 - 1 draws
        monkeypatch.setattr(sampler, "_generator", _no_generator)
        what = "seed" if seed != 0 else "stream_id"  # the part that is not 0
        with pytest.raises(DomainError, match=re.escape(
                f"{what} must be an integer in [0, 2**64), got ")):
            sample(gaussian([0.0], [[1.0]]), 5, seed, stream_id)

    @pytest.mark.parametrize("seed, stream_id", [(1.5, 0), (True, 0), ("7", 0),
                                                 (0, 2.0), (0, False), (0, "1")],
                             ids=["float-seed", "bool-seed", "str-seed",
                                  "float-stream", "bool-stream", "str-stream"])
    def test_non_integer_identifiers_rejected(self, monkeypatch, seed, stream_id):
        # int() would read 1.5 and True as 1 and "7" as 7
        monkeypatch.setattr(sampler, "_generator", _no_generator)
        what = "seed" if seed != 0 else "stream_id"  # the part that is not 0
        with pytest.raises(DomainError, match=f"{what} must be an integer"):
            sample(gaussian([0.0], [[1.0]]), 5, seed, stream_id)

    @pytest.mark.parametrize("seed, stream_id, n, refusal", [
        (-1, -1, 0, "seed must be"),
        (0, -1, 0, "stream_id must be"),
        (0, 0, 0, "sample size must be an integer >= 1, got 0"),
    ], ids=["seed-first", "stream-before-size", "size"])
    def test_key_read_before_size(self, monkeypatch, seed, stream_id, n, refusal):
        monkeypatch.setattr(sampler, "_generator", _no_generator)
        with pytest.raises(DomainError, match=re.escape(refusal)):
            sample(gaussian([0.0], [[1.0]]), n, seed, stream_id)

    def test_numpy_integer_identifiers(self):
        spec = gaussian([0.0], [[1.0]])
        got = sample(spec, 5, np.uint64(2**64 - 1), np.int32(5)).points
        assert got.tobytes() == sample(spec, 5, 2**64 - 1, 5).points.tobytes()


class TestSphere:
    def test_unit_norm(self):
        for m in (1, 2, 3, 7):
            u = _sphere_block(m, 100, sampler._generator(3, m))
            assert u.shape == (100, m)
            assert (np.abs(np.linalg.norm(u, axis=1) - 1.0) <= 1e-12).all()

    def test_m1_is_sign_flip(self):
        vals = _sphere_block(1, 10_000, sampler._generator(11, 0))[:, 0]
        assert set(np.unique(vals)) == {-1.0, 1.0}
        assert 0.47 <= np.mean(vals > 0) <= 0.53

    def test_m3_coordinates_centered(self):
        u = _sphere_block(3, 10_000, sampler._generator(12, 0))
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
        assert (np.abs(u.mean(axis=0)) <= 0.02).all()

    def test_m2_angle_uniform(self):
        gen = sampler._generator(14, 0)
        from renyigof.sampler import _sphere_block

        u = _sphere_block(2, 10_000, gen)
        angles = np.arctan2(u[:, 1], u[:, 0])
        counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
        chi2 = ((counts - 625.0) ** 2 / 625.0).sum()
        assert chi2 < stats.chi2.ppf(0.99, 15)


class TestSampleLaws:
    def test_gaussian_moments(self):
        s = sample(gaussian([0.0], [[1.0]]), 100_000, 21)
        assert abs(s.points.mean()) <= 0.02
        assert 0.98 <= s.points.var(ddof=1) <= 1.02

    def test_student_covariance_relation(self):
        # Cov = Sigma / (1 - 2/nu) = 5/3 for nu = 5
        s = sample(student([0.0], [[1.0]], 5.0), 100_000, 22)
        assert s.points.var(ddof=1) == pytest.approx(5.0 / 3.0, abs=0.1)

    def test_pearson_support_and_radial_law(self):
        spec = pearson2(np.zeros(2), np.eye(2), 1.0)
        s = sample(spec, 10_000, 23)
        r2 = (s.points**2).sum(axis=1)
        assert (r2 <= 1.0).all()
        ks = stats.kstest(r2, stats.beta(1.0, 2.0).cdf)
        assert ks.pvalue > 0.01

    def test_student_histogram_matches_density(self):
        # 30 equal-probability bins against the exact t(4) law
        nu = 4.0
        s = sample(student([0.0], [[1.0]], nu), 100_000, 24)
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
                    shifted = sample(spec_at(loc, scale), 200, 31, m)
                    base = sample(spec_at(np.zeros(m), np.eye(m)), 200, 31, m)
                    chol = np.linalg.cholesky(scale)
                    assert shifted.points.tobytes() == (base.points @ chol.T + loc).tobytes()

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_identity_scale_keeps_signed_zeros(self, monkeypatch, m):
        # skipping core @ I keeps the bytes of core @ I + location even
        # for a signed zero in the draw and for a -0.0 location
        core = np.array([[-0.0] * m, [0.0] * m, [-0.0] + [3.0] * (m - 1), [-1.5] * m])

        class Planted:
            def standard_normal(self, size):
                return core.copy()

        monkeypatch.setattr(sampler, "_generator", lambda seed, stream_id: Planted())
        for loc in (np.zeros(m), -np.zeros(m), np.full(m, -0.25)):
            got = sample(gaussian(loc, np.eye(m)), core.shape[0], 1).points
            assert got.tobytes() == (core @ np.eye(m) + loc).tobytes(), loc

    def test_determinism_bit_identical(self):
        spec = student(np.zeros(3), np.eye(3), 4.0)
        a = sample(spec, 500, 77, 3)
        b = sample(spec, 500, 77, 3)
        np.testing.assert_array_equal(a.points, b.points)

    @pytest.mark.parametrize("spec", _SPECS, ids=_SPEC_IDS)
    def test_sample_size_must_be_an_integer(self, spec):
        # an integral type is a size; a float, bool or string never is,
        # even with an integral value
        want = sample(spec, 3, 5).points
        for n in (np.int64(3), np.int32(3)):
            assert sample(spec, n, 5).points.tobytes() == want.tobytes()
        for n in (2.5, 3.0, np.float64(3.0), True, "3", None, 0, -1):
            with pytest.raises(DomainError, match="sample size must be an integer >= 1"):
                sample(spec, n, 5)

    def test_sample_validation(self):
        with pytest.raises(DomainError):
            sample(gaussian([0.0], [[1.0]]), 0, 1)
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
    def test_draw_beyond_the_coordinate_limit_refused(self, monkeypatch, m, n):
        # refused before anything is drawn: no generator is even keyed
        monkeypatch.setattr(sampler, "_generator", _no_generator)
        with pytest.raises(DomainError, match=re.escape(
                f"{n} points in m = {m} are {n * m} coordinates, "
                f"more than one draw may hold ({sampler._MAX_COORDINATES})")):
            sample(gaussian(np.zeros(m), np.eye(m)), n, 1)


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
        with pytest.raises(DomainError, match=r"bad\.csv:3: expected a number, got 'foo'$"):
            read_csv(path)

    def test_rejects_missing_header(self, tmp_path):
        # a first row of numbers is a point, not a header to drop
        path = tmp_path / "bare.csv"
        path.write_text("# comment\n1.5\n2.5\n3.7\n4.1\n5.9\n")
        with pytest.raises(DomainError, match=r"bare\.csv:2: expected a header line"):
            read_csv(path)

    @pytest.mark.parametrize("first", ["1_0,2", "nan,1", "inf,3", "-Infinity,3", "1e999,0",
                                       "\u0663,4", "\uff11\uff10,5", " 1.5 ,2"])
    def test_first_row_float_reads_is_no_header(self, tmp_path, first):
        # a first row that float() reads is a misplaced point, even where
        # the one reader of number text refuses a cell, not a header to drop
        path = tmp_path / "bare.csv"
        path.write_text(f"{first}\n3,4\n5,6\n", encoding="utf-8")
        with pytest.raises(DomainError) as excinfo:
            read_csv(path)
        assert str(excinfo.value) == f"{path}:1: expected a header line, got a row of numbers"

    @pytest.mark.parametrize("header", ["x1,x2", "1st,2nd", "0x10,y", "1__0,2", "n,2", "1e,2",
                                        "\u0663x,4", "e1,2", ",2"])
    def test_header_float_does_not_read(self, tmp_path, header):
        # a first row with a cell float() refuses is a header, as it always was
        path = tmp_path / "g.csv"
        path.write_text(f"{header}\n3,4\n5,6\n", encoding="utf-8")
        assert read_csv(path).points.tolist() == [[3.0, 4.0], [5.0, 6.0]]

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

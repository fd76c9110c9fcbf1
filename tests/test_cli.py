import ast
import hashlib
import importlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import renyigof
from renyigof import cli, mc
from renyigof.cli import load_config, main
from renyigof.distributions import Family, gaussian
from renyigof.errors import DomainError
from renyigof.gof import statistic
from renyigof.knn import renyi_estimate
from renyigof.mc import ExperimentConfig
from renyigof.sampler import RngStream, read_csv, sample, write_csv


# sha256 of the file that TestSampleCommand.test_writes_deterministic_csv writes
_SAMPLE_SHA256 = "7e7c9bb2deaa0fae470fd963748f29002c81cc6d756016f8cb4b027ae1df135c"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _set_summary_field(path, column, text, n=None):
    """Rewrite one field of a summary CSV: `column` in the row of N = n
    (the first row for None)."""
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names = lines[header].split(",")
    for i in range(header + 1, len(lines)):
        row = lines[i].split(",")
        if n is None or row[names.index("N")] == str(n):
            row[names.index(column)] = text
            lines[i] = ",".join(row)
            break
    path.write_text("\n".join(lines) + "\n")


class TestSampleCommand:
    def test_writes_deterministic_csv(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        argv = ["sample", "--family", "student", "--nu", "5", "--dim", "2",
                "--n", "1000", "--seed", "7", "-o", str(path)]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert json.loads(out)["n"] == 1000
        first = path.read_bytes()
        lines = first.splitlines()
        # metadata comments, then the column header, then 1000 rows
        meta = [l for l in lines if l.startswith(b"#")]
        assert any(l.startswith(b"# renyigof") for l in meta)
        assert any(b"master_seed 7" in l for l in meta)
        assert lines[len(meta)] == b"x1,x2"
        assert len(lines) == len(meta) + 1001
        code, _, _ = _run(capsys, argv)
        assert code == 0
        assert path.read_bytes() == first
        # the bytes of sampler.write_table, which every output table shares
        assert hashlib.sha256(first).hexdigest() == _SAMPLE_SHA256, _toolchain_note()

    def test_invalid_eta_exits_2(self, tmp_path, capsys):
        code, _, err = _run(capsys, ["sample", "--family", "pearson2", "--eta", "-1",
                                     "--dim", "1", "--n", "10", "--seed", "1",
                                     "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "eta > 0" in err

    @pytest.mark.parametrize("dim, n", [("1", "1073741824"), ("3", "2796203")])
    def test_draw_beyond_the_coordinate_limit_exits_2(self, tmp_path, capsys, dim, n):
        # 2**30 points would be one 8 GiB draw; refused before anything is drawn
        path = tmp_path / "x.csv"
        code, out, err = _run(capsys, ["sample", "--family", "gaussian", "--dim", dim,
                                       "--n", n, "--seed", "1", "-o", str(path)])
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {n} points in m = {dim} are {int(n) * int(dim)} "
                                    "coordinates, more than one draw may hold (8388608)"]
        assert not path.exists()

    def test_missing_family_param_exits_2(self, tmp_path, capsys):
        code, _, err = _run(capsys, ["sample", "--family", "student", "--dim", "1",
                                     "--n", "10", "--seed", "1", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--nu" in err

    @pytest.mark.parametrize("family, flags, stray", [
        ("student", ["--nu", "5", "--eta", "2"], "--eta"),
        ("pearson2", ["--eta", "2", "--nu", "5"], "--nu"),
        ("gaussian", ["--nu", "5"], "--nu"),
        ("gaussian", ["--eta", "inf"], "--eta"),
    ])
    def test_other_family_param_exits_2(self, tmp_path, capsys, family, flags, stray):
        path = tmp_path / "x.csv"
        code, _, err = _run(capsys, ["sample", "--family", family, *flags, "--dim", "1",
                                     "--n", "10", "--seed", "1", "-o", str(path)])
        assert code == 2
        assert f"{stray} does not apply to --family {family}" in err
        assert not path.exists()

    @pytest.mark.parametrize("flags, message", [
        # explicit ids keep these cases' names as the suite knew them
        pytest.param(["--dim", "0"], "--dim must be an integer >= 1, got 0",
                     id="flags0---dim must be >= 1, got 0"),
        pytest.param(["--dim", "-1"], "--dim must be an integer >= 1, got -1",
                     id="flags1---dim must be >= 1, got -1"),
        (["--dim", "1", "--loc", "abc"], "--loc takes numbers, got 'abc'"),
        (["--dim", "2", "--scale", "1,0;0,x"], "--scale takes numbers, got '0,x'"),
        (["--dim", "2", "--loc", "1,2,3"], "--loc needs 2 comma-separated values, got 3"),
        (["--dim", "2", "--scale", "1,0;0"], "--scale needs an 2x2 matrix"),
        (["--dim", "2", "--scale", "1,0"], "--scale needs an 2x2 matrix"),
    ])
    def test_bad_shape_or_location_exits_2(self, tmp_path, capsys, flags, message):
        path = tmp_path / "x.csv"
        code, out, err = _run(capsys, ["sample", "--family", "gaussian", *flags,
                                       "--n", "10", "--seed", "1", "-o", str(path)])
        assert code == 2
        assert out == ""
        assert message in err
        assert not path.exists()

    def test_location_and_scale_applied(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        code, _, _ = _run(capsys, ["sample", "--family", "gaussian", "--dim", "2", "--n", "20",
                                   "--seed", "3", "--loc", "1,-2", "--scale", "2,0.5;0.5,1",
                                   "-o", str(path)])
        assert code == 0
        expected = sample(gaussian([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]]), 20, RngStream(3))
        np.testing.assert_array_equal(read_csv(path).points, expected.points)

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--seed", str(2**64)),
                                             ("--stream", "-1"), ("--stream", str(2**64))])
    def test_seed_outside_uint64_exits_2(self, tmp_path, capsys, flag, value):
        path = tmp_path / "x.csv"
        argv = ["sample", "--family", "gaussian", "--dim", "1", "--n", "10", "--seed", "1",
                "-o", str(path), flag, value]
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"must be an integer in [0, 2**64), got {value}" in err
        assert not path.exists()

    def test_nan_parameter_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--family", "student", "--nu", "nan", "--dim", "1", "--n", "5",
                  "--seed", "0", "-o", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2
        assert "expected a number or 'inf', got 'nan'" in capsys.readouterr().err

    def test_usage_error_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--family", "martian", "--dim", "1", "--n", "5",
                  "--seed", "0", "-o", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("dim, ok", [(2896, True), (2897, False), (1_000_000, False)])
    def test_dim_whose_scale_exceeds_the_coordinate_limit_exits_2(self, tmp_path, capsys,
                                                                  monkeypatch, dim, ok):
        # the m x m scale is refused before it is built; a scale that passes
        # stops at its build here, so nothing large is allocated either way
        def identity(m):
            raise DomainError(f"built a {m} x {m} scale")

        monkeypatch.setattr(cli.SpdMatrix, "identity", staticmethod(identity))
        path = tmp_path / "d.csv"
        code, out, err = _run(capsys, ["sample", "--family", "gaussian", "--dim", str(dim),
                                       "--n", "2", "--seed", "1", "-o", str(path)])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: built a {dim} x {dim} scale" if ok else
            f"error: --dim {dim} asks for a {dim} x {dim} scale matrix, more than the "
            "8388608 coordinates one draw may hold"]
        assert not path.exists()


class TestEntropyCommand:
    def test_matches_library_value(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("x1\n0.0\n1.0\n3.0\n")
        code, out, _ = _run(capsys, ["entropy", str(path), "--k", "1", "--q", "0.5"])
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(1.886528613653193, rel=1e-12)
        assert record == {"value": record["value"], "q": 0.5, "k": 1, "n": 3, "dim": 1}

    def test_q_one_takes_shannon_path(self, tmp_path, capsys, rng):
        path = tmp_path / "pts.csv"
        write_csv(sample(gaussian([0.0], [[1.0]]), 100, RngStream(5)), path)
        code, out, _ = _run(capsys, ["entropy", str(path), "--k", "3", "--q", "1"])
        assert code == 0
        h1 = json.loads(out)["value"]
        s = read_csv(path)
        for q in (1.0 + 1e-4, 1.0 - 1e-4):
            assert renyi_estimate(s, 3, q).value == pytest.approx(h1, abs=1e-3)

    def test_duplicates_exit_3(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("x1\n1.0\n1.0\n2.0\n")
        code, _, err = _run(capsys, ["entropy", str(path), "--k", "1", "--q", "0.5"])
        assert code == 3
        assert "duplicate points at indices 0, 1" in err

    @pytest.mark.parametrize("q", ["0.5", "1"])
    def test_overflowing_distance_exits_2(self, tmp_path, capsys, q):
        # gaps of about 1e200 square to inf: the estimate once printed as
        # NaN (q = 0.5) or Infinity (q = 1), which is not JSON, with exit 0
        path = tmp_path / "far.csv"
        path.write_text("x1\n1e200\n-1e200\n3e200\n5\n7e199\n")
        code, out, err = _run(capsys, ["entropy", str(path), "--k", "1", "--q", q])
        assert code == 2
        assert out == ""
        assert err == ("error: the entropy estimate is inf: a squared neighbour distance "
                       "overflows the double range\n")

    def test_k_below_q_minus_one_exit_2(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        path.write_text("x1\n0.0\n1.0\n3.0\n")
        code, _, _ = _run(capsys, ["entropy", str(path), "--k", "1", "--q", "2.5"])
        assert code == 2

    def test_empty_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, _ = _run(capsys, ["entropy", str(path), "--k", "1", "--q", "0.5"])
        assert code == 2

    def test_headerless_file_exit_2(self, tmp_path, capsys):
        # its first point is not dropped as a header
        path = tmp_path / "bare.csv"
        path.write_text("1.5\n2.5\n3.7\n4.1\n5.9\n")
        code, out, err = _run(capsys, ["entropy", str(path), "--k", "1", "--q", "0.8"])
        assert code == 2
        assert out == ""
        assert f"{path}:1: expected a header line" in err

    def test_headerless_file_with_byte_order_mark_exit_2(self, tmp_path, capsys):
        # the mark is not part of the first value, so that point is not
        # taken for a header either
        path = tmp_path / "bare.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.7\n4.1\n")
        code, out, err = _run(capsys, ["entropy", str(path), "--k", "1", "--q", "0.8"])
        assert code == 2
        assert out == ""
        assert f"{path}:1: expected a header line" in err


class TestTestCommand:
    def test_record_fields(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        write_csv(sample(gaussian(np.zeros(2), np.eye(2)), 500, RngStream(6)), path)
        code, out, _ = _run(capsys, ["test", str(path), "--family", "student",
                                     "--nu0", "inf", "--k", "3"])
        assert code == 0
        record = json.loads(out)
        assert record["null_param"] == "inf"
        assert record["q"] == 1.0
        assert record["m"] == 2 and record["n"] == 500

    @pytest.mark.parametrize("family, flag, param", [("student", "--nu0", "7"),
                                                     ("pearson2", "--eta0", "4"),
                                                     ("student", "--nu0", "inf")])
    def test_record_holds_the_two_terms(self, tmp_path, capsys, family, flag, param):
        path = tmp_path / "pts.csv"
        write_csv(sample(gaussian(np.zeros(2), np.eye(2)), 300, RngStream(6)), path)
        code, out, err = _run(capsys, ["test", str(path), "--family", family, flag, param,
                                       "--k", "3"])
        assert code == 0, err
        record = json.loads(out)
        stat = statistic(read_csv(path), Family(family), float(param), 3)
        assert list(record) == ["W", "h_max", "h_hat", "family", "null_param", "q", "k",
                                "n", "m", "l2_condition_ok"]
        assert (record["W"], record["h_max"], record["h_hat"]) == \
            (stat.value, stat.h_max, stat.h_hat)
        assert record["W"] == record["h_max"] - record["h_hat"]

    @pytest.mark.parametrize("eta0, k, ok", [("1", "2", False), ("2", "2", False),
                                            ("2", "3", True)])
    def test_l2_condition_covers_k_side(self, tmp_path, capsys, eta0, k, ok):
        # a Pearson II null has q = 1 + 1/eta0 > 1, where L2 also needs q < (k+1)/2
        path = tmp_path / "pts.csv"
        write_csv(sample(gaussian([0.0], [[1.0]]), 100, RngStream(6)), path)
        code, out, _ = _run(capsys, ["test", str(path), "--family", "pearson2",
                                     "--eta0", eta0, "--k", k])
        assert code == 0
        assert f'"l2_condition_ok": {str(ok).lower()}' in out

    def test_alpha_without_table_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        write_csv(sample(gaussian([0.0], [[1.0]]), 100, RngStream(6)), path)
        code, _, err = _run(capsys, ["test", str(path), "--family", "student",
                                     "--nu0", "inf", "--k", "3", "--alpha", "0.05"])
        assert code == 2
        assert "experiment" in err

    def test_invalid_nu0_exits_2(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        write_csv(sample(gaussian([0.0], [[1.0]]), 100, RngStream(6)), path)
        code, _, _ = _run(capsys, ["test", str(path), "--family", "student",
                                   "--nu0", "2", "--k", "3"])
        assert code == 2

    def test_nu0_one_ulp_above_two_at_m2(self, tmp_path, capsys):
        # the config accepts this nu0, so the statistic must compute: at the
        # maximiser b1 is (nu0 - 2)/2, not the q(nu0+m)/2 - m/2 that rounds to 0
        path = tmp_path / "pts.csv"
        write_csv(sample(gaussian(np.zeros(2), np.eye(2)), 100, RngStream(6)), path)
        code, out, err = _run(capsys, ["test", str(path), "--family", "student",
                                       "--nu0", "2.0000000000000004", "--k", "3"])
        assert code == 0, err
        assert math.isfinite(json.loads(out)["W"])

    @pytest.mark.parametrize("family, flag, huge, name", [
        ("student", "--nu0", 2**55, "Student nu"),
        ("pearson2", "--eta0", 2**53, "Pearson II eta"),
    ])
    def test_null_param_whose_order_rounds_to_one_exits_2(self, tmp_path, capsys, family,
                                                           flag, huge, name):
        # there 1 - q is 0, and the closed form once divided by it
        path = tmp_path / "g.csv"
        write_csv(sample(gaussian([0.0], [[1.0]]), 100, RngStream(6)), path)
        argv = ["test", str(path), "--family", family, "--k", "3", flag]
        code, out, err = _run(capsys, [*argv, str(huge)])
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {name} = {float(huge)} is too large in m = 1: "
                                    "the maximiser's Renyi order rounds to 1"]
        # one power of two lower, q is the double next to 1 and W is computed
        code, out, err = _run(capsys, [*argv, str(huge // 2)])
        assert code == 0, err
        assert math.isfinite(json.loads(out)["W"])

    @pytest.mark.parametrize("family, flag", [("student", "--nu0"), ("pearson2", "--eta0")])
    def test_missing_null_param_exits_2(self, tmp_path, capsys, family, flag):
        path = tmp_path / "pts.csv"
        write_csv(sample(gaussian([0.0], [[1.0]]), 100, RngStream(6)), path)
        code, _, err = _run(capsys, ["test", str(path), "--family", family, "--k", "3"])
        assert code == 2
        assert f"{flag} is required for --family {family}" in err

    @pytest.mark.parametrize("family, flags, stray", [
        ("student", ["--nu0", "5", "--eta0", "3"], "--eta0"),
        ("pearson2", ["--eta0", "3", "--nu0", "5"], "--nu0"),
    ])
    def test_other_family_null_param_exits_2(self, tmp_path, capsys, family, flags, stray):
        path = tmp_path / "pts.csv"
        write_csv(sample(gaussian([0.0], [[1.0]]), 100, RngStream(6)), path)
        code, out, err = _run(capsys, ["test", str(path), "--family", family, *flags,
                                       "--k", "3"])
        assert code == 2
        assert out == ""
        assert f"{stray} does not apply to --family {family}" in err

    @pytest.mark.parametrize("nu0", ["10", "inf"])
    def test_overflowing_distance_exits_2(self, tmp_path, capsys, nu0):
        # the covariance of these points is finite, but the last one's
        # nearest gap squares to inf: W once printed as NaN (nu0 = 10) or
        # -Infinity (nu0 = inf), with exit 0
        path = tmp_path / "far.csv"
        path.write_text("x1\n" + "".join(f"{i}\n" for i in range(99)) + "1.345e154\n")
        code, out, err = _run(capsys, ["test", str(path), "--family", "student",
                                       "--nu0", nu0, "--k", "1"])
        assert code == 2
        assert out == ""
        assert err == ("error: the entropy estimate is inf: a squared neighbour distance "
                       "overflows the double range\n")

    def test_sample_file_as_critical_table_names_it(self, tmp_path, capsys, monkeypatch):
        # a sample's `# config` line holds its draw settings, not an experiment
        # config; the error must name the table, not read like a config fault
        monkeypatch.chdir(tmp_path)
        code, _, _ = _run(capsys, ["sample", "--family", "student", "--nu", "5", "--dim", "1",
                                   "--n", "50", "--seed", "1", "-o", "d.csv"])
        assert code == 0
        code, out, err = _run(capsys, ["test", "d.csv", "--family", "student", "--nu0", "5",
                                       "--k", "3", "--critical-table", "d.csv"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: d.csv: unreadable config header: ")

    def test_decision_rows_against_table(self, tmp_path, capsys):
        config = {
            "schema_version": 1, "family": "student", "true_param": "inf",
            "null_param": "inf", "dim": 1, "n_grid": [500], "k": 3,
            "replicates": 100, "master_seed": 15,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, _, _ = _run(capsys, ["experiment", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == 0

        data = tmp_path / "pts.csv"
        write_csv(sample(gaussian([0.0], [[1.0]]), 500, RngStream(66)), data)
        code, out, _ = _run(capsys, ["test", str(data), "--family", "student",
                                     "--nu0", "inf", "--k", "3",
                                     "--critical-table", str(out_dir / "summary.csv"),
                                     "--alpha", "0.05", "--alpha", "0.1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            row = json.loads(line)
            assert set(row) == {"alpha", "critical", "reject"}

    def _null_table(self, tmp_path, capsys, **overrides):
        """Summary CSV of a small null run: Student nu = nu0 = 5, m = 1, k = 3, N = 50."""
        config = dict({
            "schema_version": 1, "family": "student", "true_param": 5.0,
            "null_param": 5.0, "dim": 1, "n_grid": [50], "k": 3,
            "replicates": 10, "master_seed": 23,
        }, **overrides)
        (tmp_path / "null.json").write_text(json.dumps(config))
        code, _, _ = _run(capsys, ["experiment", str(tmp_path / "null.json"),
                                   "--out-dir", str(tmp_path / "null_out"), "--workers", "1"])
        assert code == 0
        return tmp_path / "null_out" / "summary.csv"

    def _test_against(self, tmp_path, capsys, table, *flags):
        data = tmp_path / "pts.csv"
        write_csv(sample(gaussian([0.0], [[1.0]]), 50, RngStream(66)), data)
        return _run(capsys, ["test", str(data), "--family", "student", *flags,
                             "--critical-table", str(table)])

    @pytest.mark.parametrize("column, text", [("q05", "nan"), ("q01", "inf"),
                                              ("q10", "1e999"), ("q05", "-inf")])
    def test_non_finite_critical_value_exits_2(self, tmp_path, capsys, column, text):
        # a nan q05 once gave {"critical": NaN, "reject": false} with exit 0
        table = self._null_table(tmp_path, capsys)
        _set_summary_field(table, column, text)
        code, out, err = self._test_against(tmp_path, capsys, table, "--nu0", "5", "--k", "3",
                                            "--alpha", "0.05")
        assert code == 2
        assert out == ""
        assert err == f"error: {table}: {column} at N=50 is {float(text)}, not a finite number\n"

    def test_table_with_byte_order_mark_reads_alike(self, tmp_path, capsys):
        table = self._null_table(tmp_path, capsys)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
        outs = [self._test_against(tmp_path, capsys, path, "--nu0", "5", "--k", "3")
                for path in (table, marked)]
        assert outs[0][0] == 0
        assert outs[1] == outs[0]

    def test_table_from_other_null_exits_2(self, tmp_path, capsys):
        # a nu0 = 10, "fresh" table cannot judge W against nu0 = 3
        table = self._null_table(tmp_path, capsys, true_param=10.0, null_param=10.0,
                                 covariance_mode="fresh")
        code, out, err = self._test_against(tmp_path, capsys, table, "--nu0", "3", "--k", "3")
        assert code == 2
        assert out == ""
        assert "null_param '10.0' there, '3.0' here" in err
        assert "covariance_mode 'fresh' there, 'same' here" in err

    @pytest.mark.parametrize("key, value", [
        ("dim", 2), ("k", 4), ("family", "pearson2"), ("covariance_mode", "fresh"),
    ])
    def test_each_table_key_checked(self, tmp_path, capsys, key, value):
        table = self._null_table(tmp_path, capsys, **{key: value})
        code, out, err = self._test_against(tmp_path, capsys, table, "--nu0", "5", "--k", "3")
        assert code == 2
        assert out == ""
        assert f"{key} " in err
        others = [k for k in ("family", "null_param", "dim", "k", "covariance_mode") if k != key]
        assert not any(f"{k} " in err for k in others)

    def test_table_from_non_null_run_exits_2(self, tmp_path, capsys):
        # a power run's quantiles are those of W under its alternative
        table = self._null_table(tmp_path, capsys, true_param="inf")
        code, out, err = self._test_against(tmp_path, capsys, table, "--nu0", "5", "--k", "3",
                                            "--alpha", "0.05")
        assert code == 2
        assert out == ""
        assert "is not from a null run: true_param 'inf', null_param '5.0'" in err

    def test_headerless_data_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bare.csv"
        path.write_text("1.5\n2.5\n3.7\n4.1\n5.9\n")
        code, out, err = _run(capsys, ["test", str(path), "--family", "student",
                                       "--nu0", "5", "--k", "3"])
        assert code == 2
        assert out == ""
        assert f"{path}:1: expected a header line" in err

    def test_table_without_config_header_exits_2(self, tmp_path, capsys):
        (tmp_path / "bare.csv").write_text("N,q05\n50,0.1\n")
        code, out, err = self._test_against(tmp_path, capsys, tmp_path / "bare.csv",
                                            "--nu0", "5", "--k", "3")
        assert code == 2
        assert out == ""
        assert "no '# config' header" in err

    def test_untabulated_alpha_exits_2(self, tmp_path, capsys):
        table = self._null_table(tmp_path, capsys)
        code, out, err = self._test_against(tmp_path, capsys, table, "--nu0", "5", "--k", "3",
                                            "--alpha", "0.2")
        assert code == 2
        assert out == ""
        assert "got 0.2" in err

    def test_missing_table_row_exits_2(self, tmp_path, capsys):
        config = {
            "schema_version": 1, "family": "student", "true_param": "inf",
            "null_param": "inf", "dim": 1, "n_grid": [200], "k": 3,
            "replicates": 50, "master_seed": 16,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        _run(capsys, ["experiment", str(cfg_path), "--out-dir", str(out_dir)])
        data = tmp_path / "pts.csv"
        write_csv(sample(gaussian([0.0], [[1.0]]), 500, RngStream(66)), data)
        code, _, err = _run(capsys, ["test", str(data), "--family", "student",
                                     "--nu0", "inf", "--k", "3",
                                     "--critical-table", str(out_dir / "summary.csv"),
                                     "--alpha", "0.05"])
        assert code == 2
        assert "N=500" in err


class TestExperimentCommand:
    def test_smoke_run_emits_declared_files(self, tmp_path, capsys):
        config = {
            "schema_version": 1, "family": "pearson2", "true_param": 4.0,
            "null_param": 4.0, "dim": 1, "n_grid": [100, 200], "k": 3,
            "replicates": 10, "master_seed": 3, "include_replicates": True,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, out, _ = _run(capsys, ["experiment", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == 0
        written = json.loads(out)["written"]
        assert str(out_dir / "summary.csv") in written
        assert (out_dir / "hist_100.csv").exists()
        assert (out_dir / "hist_200.csv").exists()
        assert (out_dir / "replicates.json").exists()

    def test_rerun_byte_identical(self, tmp_path, capsys):
        config = {
            "schema_version": 1, "family": "student", "true_param": 5.0,
            "null_param": 5.0, "dim": 1, "n_grid": [100], "k": 3,
            "replicates": 10, "master_seed": 4, "include_replicates": True,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        _run(capsys, ["experiment", str(cfg_path), "--out-dir", str(out_a), "--workers", "1"])
        _run(capsys, ["experiment", str(cfg_path), "--out-dir", str(out_b), "--workers", "2"])
        for name in ("summary.csv", "hist_100.csv", "replicates.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_schema_violations_all_listed(self, tmp_path, capsys):
        config = {
            "schema_version": 1, "family": "student", "true_param": 1.0,
            "null_param": 1.0, "dim": 0, "n_grid": [10], "k": 0,
            "replicates": 1, "master_seed": 0,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = _run(capsys, ["experiment", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        for fragment in ("dim", "replicates", "k must be", "true_param", "null_param"):
            assert fragment in err

    def test_structural_violations_all_listed(self, tmp_path, capsys):
        config = {
            "schema_version": 1, "family": "student", "true_param": 5.0,
            "null_param": 5.0, "dim": 1.7, "n_grid": [10], "k": 3,
            "replicates": 4, "include_replicates": "false", "covarience_mode": "fresh",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = _run(capsys, ["experiment", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        for fragment in ("covarience_mode", "include_replicates", "dim must be an integer"):
            assert fragment in err
        assert not (tmp_path / "o").exists()

    def test_gaussian_family_exits_2(self, tmp_path, capsys):
        config = {
            "schema_version": 1, "family": "gaussian", "true_param": 5.0,
            "null_param": 5.0, "dim": 1, "n_grid": [50], "k": 3, "replicates": 4,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = _run(capsys, ["experiment", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "family must be student or pearson2, got 'gaussian'" in err

    def test_repeated_sample_size_exits_2(self, tmp_path, capsys):
        config = {
            "schema_version": 1, "family": "student", "true_param": 5.0,
            "null_param": 5.0, "dim": 1, "n_grid": [100, 100, 100], "k": 3,
            "replicates": 4, "master_seed": 0,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = _run(capsys, ["experiment", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "n_grid repeats sample sizes 100" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        code, out, err = _run(capsys, ["experiment", str(_REPO / "configs" / "smoke.json"),
                                       "--out-dir", str(tmp_path / "o"), "--workers", workers])
        assert code == 2
        assert out == ""
        assert f"workers must be an integer >= 1, got {workers}" in err
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code, _, err = _run(capsys, ["experiment", str(tmp_path / "nope.json"),
                                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert str(tmp_path / "nope.json") in err

    def test_config_with_byte_order_mark_loads(self, tmp_path, capsys):
        text = (_REPO / "configs" / "smoke.json").read_bytes()
        (tmp_path / "marked.json").write_bytes(b"\xef\xbb\xbf" + text)
        summaries = []
        for name, config in (("plain", _REPO / "configs" / "smoke.json"),
                             ("marked", tmp_path / "marked.json")):
            code, _, err = _run(capsys, ["experiment", str(config), "--out-dir",
                                         str(tmp_path / name), "--workers", "1"])
            assert code == 0, err
            summaries.append((tmp_path / name / "summary.csv").read_bytes())
        assert summaries[1] == summaries[0]

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text('{"schema_version": 1,')
        code, out, err = _run(capsys, ["experiment", str(tmp_path / "cfg.json"),
                                       "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert out == ""
        assert "config is not valid JSON" in err
        assert not (tmp_path / "o").exists()

    def test_over_long_integer_exits_2(self, tmp_path, capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for an
        # int literal past Python's 4300-digit limit; it once ended in a traceback
        (tmp_path / "cfg.json").write_text(
            '{"schema_version": 1, "family": "student", "true_param": 5.0, "null_param": 5.0, '
            '"dim": 1, "n_grid": [10], "k": 3, "replicates": 4, "master_seed": '
            + "7" * 5000 + "}")
        code, out, err = _run(capsys, ["experiment", str(tmp_path / "cfg.json"),
                                       "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert out == ""
        assert err.startswith("error: config is not valid JSON: Exceeds the limit (4300 digits)")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("overrides, message", [
        (dict(null_param=2**55), "null_param: Student nu = 3.602879701896397e+16 is too large "
                                 "in m = 1: the maximiser's Renyi order rounds to 1"),
        (dict(n_grid=[2**30]), "sample size 1073741824 in m = 1 exceeds the limit of 8388608 "
                               "coordinates per draw"),
        (dict(n_grid=[100, 200], replicates=2**31), "2 sample sizes x 2147483648 replicates "
                                                    "exceed the limit of 8388608 replicates per run"),
    ])
    def test_refused_before_any_replicate_runs(self, tmp_path, capsys, monkeypatch, overrides,
                                               message):
        # huge work, or a null parameter no replicate could use, exits 2
        # before the pool starts or a replicate runs
        def never(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(mc, "_replicate_outcome", never)
        config = {"schema_version": 1, "family": "student", "true_param": 5.0,
                  "null_param": 5.0, "dim": 1, "n_grid": [100], "k": 3, "replicates": 4,
                  **overrides}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code, out, err = _run(capsys, ["experiment", str(tmp_path / "cfg.json"),
                                       "--out-dir", str(tmp_path / "o"), "--workers", "2"])
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: invalid experiment config: {message}"]
        assert not (tmp_path / "o").exists()

    def test_fewer_than_two_valid_replicates_exits_2(self, tmp_path, capsys, monkeypatch):
        original = mc._replicate_value

        def flaky(config, n, j):
            if j == 1:
                raise DomainError("synthetic failure")
            return original(config, n, j)

        monkeypatch.setattr(mc, "_replicate_value", flaky)
        config = {
            "schema_version": 1, "family": "student", "true_param": 5.0,
            "null_param": 5.0, "dim": 1, "n_grid": [50], "k": 3,
            "replicates": 2, "max_failure_rate": 0.5,
        }
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        code, out, err = _run(capsys, ["experiment", str(tmp_path / "cfg.json"),
                                       "--out-dir", str(tmp_path / "o"), "--workers", "1"])
        assert code == 2
        assert out == ""
        assert "1/2 replicates failed at N=50" in err
        assert not (tmp_path / "o").exists()

    def test_failure_budget_exceeded_leaves_no_out_dir(self, tmp_path, capsys, monkeypatch):
        original = mc._replicate_value

        def flaky(config, n, j):
            if j == 1:
                raise DomainError("synthetic failure")
            return original(config, n, j)

        monkeypatch.setattr(mc, "_replicate_value", flaky)
        config = {
            "schema_version": 1, "family": "student", "true_param": 5.0,
            "null_param": 5.0, "dim": 1, "n_grid": [50], "k": 3,
            "replicates": 4, "max_failure_rate": 0.0,
        }
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out_dir = tmp_path / "nested" / "o"
        code, out, err = _run(capsys, ["experiment", str(tmp_path / "cfg.json"),
                                       "--out-dir", str(out_dir), "--workers", "1"])
        assert code == 2
        assert out == ""
        assert "1/4 replicates failed at N=50" in err
        assert not (tmp_path / "nested").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_unusable_out_dir_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                     below):
        # an existing file, or a path below one, is refused before any
        # replicate runs, and nothing is created or changed
        def never(config, n, j):
            pytest.fail("a replicate ran although --out-dir is unusable")

        monkeypatch.setattr(mc, "_replicate_value", never)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out_dir = afile / "sub" if below else afile
        code, out, err = _run(capsys, ["experiment", str(_REPO / "configs" / "smoke.json"),
                                       "--out-dir", str(out_dir), "--workers", "1"])
        assert code == 2
        assert out == ""
        assert f"--out-dir {out_dir}: {afile} is not a directory" in err
        assert list(tmp_path.iterdir()) == [afile]
        assert afile.read_text() == "kept\n"

    def test_power_reference_fills_power_column(self, tmp_path, capsys):
        null_config = {
            "schema_version": 1, "family": "student", "true_param": 5.0,
            "null_param": 5.0, "dim": 1, "n_grid": [200], "k": 3,
            "replicates": 100, "master_seed": 21,
        }
        (tmp_path / "null.json").write_text(json.dumps(null_config))
        _run(capsys, ["experiment", str(tmp_path / "null.json"),
                      "--out-dir", str(tmp_path / "null_out")])

        alt_config = dict(null_config, true_param="inf", master_seed=22,
                          power_reference="null_out/summary.csv")
        (tmp_path / "alt.json").write_text(json.dumps(alt_config))
        code, _, _ = _run(capsys, ["experiment", str(tmp_path / "alt.json"),
                                   "--out-dir", str(tmp_path / "alt_out")])
        assert code == 0
        rows = [l for l in (tmp_path / "alt_out" / "summary.csv").read_text().splitlines()
                if not l.startswith("#")]
        header = rows[0].split(",")
        row = dict(zip(header, rows[1].split(",")))
        power = float(row["power_at_005"])
        assert 0.0 <= power <= 1.0
        # rejection rate against the null table exceeds the nominal level
        assert power > 0.05

    def _power_run(self, tmp_path, capsys, **alt):
        """Exit code and stderr of a power run whose reference is a small null run."""
        null_config = {
            "schema_version": 1, "family": "student", "true_param": 5.0,
            "null_param": 5.0, "dim": 1, "n_grid": [50], "k": 3,
            "replicates": 10, "master_seed": 21,
        }
        (tmp_path / "null.json").write_text(json.dumps(null_config))
        code, _, _ = _run(capsys, ["experiment", str(tmp_path / "null.json"),
                                   "--out-dir", str(tmp_path / "null_out")])
        assert code == 0
        alt_config = dict(null_config, true_param="inf", master_seed=22,
                          power_reference="null_out/summary.csv", **alt)
        (tmp_path / "alt.json").write_text(json.dumps(alt_config))
        code, _, err = _run(capsys, ["experiment", str(tmp_path / "alt.json"),
                                     "--out-dir", str(tmp_path / "alt_out")])
        return code, err

    def test_non_finite_power_reference_exits_2(self, tmp_path, capsys):
        # a nan q05 would silently give a power of 0 at that N
        null_config = {
            "schema_version": 1, "family": "student", "true_param": 5.0,
            "null_param": 5.0, "dim": 1, "n_grid": [50, 60], "k": 3,
            "replicates": 10, "master_seed": 21,
        }
        (tmp_path / "null.json").write_text(json.dumps(null_config))
        code, _, _ = _run(capsys, ["experiment", str(tmp_path / "null.json"),
                                   "--out-dir", str(tmp_path / "null_out")])
        assert code == 0
        reference = tmp_path / "null_out" / "summary.csv"
        _set_summary_field(reference, "q05", "nan", n=60)
        alt_config = dict(null_config, true_param="inf", master_seed=22,
                          power_reference="null_out/summary.csv")
        (tmp_path / "alt.json").write_text(json.dumps(alt_config))
        code, out, err = _run(capsys, ["experiment", str(tmp_path / "alt.json"),
                                       "--out-dir", str(tmp_path / "alt_out")])
        assert code == 2
        assert out == ""
        assert err == f"error: {reference}: q05 at N=60 is nan, not a finite number\n"
        assert not (tmp_path / "alt_out").exists()

    def test_mismatched_power_reference_exits_2(self, tmp_path, capsys):
        code, err = self._power_run(tmp_path, capsys, null_param=10.0, k=4,
                                    covariance_mode="fresh")
        assert code == 2
        for key in ("null_param", "k", "covariance_mode"):
            assert key in err
        for key in ("family", "dim"):
            assert f"{key} " not in err
        assert not (tmp_path / "alt_out").exists()

    def test_power_reference_from_non_null_run_exits_2(self, tmp_path, capsys):
        # a power run's quantiles are those of W under its alternative
        power = {
            "schema_version": 1, "family": "student", "true_param": "inf",
            "null_param": 5.0, "dim": 1, "n_grid": [50], "k": 3,
            "replicates": 10, "master_seed": 21,
        }
        (tmp_path / "power.json").write_text(json.dumps(power))
        code, _, _ = _run(capsys, ["experiment", str(tmp_path / "power.json"),
                                   "--out-dir", str(tmp_path / "power_out")])
        assert code == 0
        again = dict(power, master_seed=22, power_reference="power_out/summary.csv")
        (tmp_path / "again.json").write_text(json.dumps(again))
        code, out, err = _run(capsys, ["experiment", str(tmp_path / "again.json"),
                                       "--out-dir", str(tmp_path / "again_out")])
        assert code == 2
        assert out == ""
        assert "is not from a null run: true_param 'inf', null_param '5.0'" in err
        assert not (tmp_path / "again_out").exists()

    @pytest.mark.parametrize("key, value", [("family", "pearson2"), ("dim", 2)])
    def test_each_reference_key_checked(self, tmp_path, capsys, key, value):
        code, err = self._power_run(tmp_path, capsys, **{key: value})
        assert code == 2
        assert f"{key} " in err

    def test_power_reference_without_config_header_exits_2(self, tmp_path, capsys):
        (tmp_path / "bare.csv").write_text("N,q05\n50,0.1\n")
        config = {
            "schema_version": 1, "family": "student", "true_param": "inf",
            "null_param": 5.0, "dim": 1, "n_grid": [50], "k": 3,
            "replicates": 10, "master_seed": 22, "power_reference": "bare.csv",
        }
        (tmp_path / "alt.json").write_text(json.dumps(config))
        code, _, err = _run(capsys, ["experiment", str(tmp_path / "alt.json"),
                                     "--out-dir", str(tmp_path / "alt_out")])
        assert code == 2
        assert "no '# config' header" in err

    @pytest.mark.parametrize("reference", [5, "", None])
    def test_power_reference_not_a_path_string_exits_2(self, tmp_path, capsys, reference):
        config = {
            "schema_version": 1, "family": "student", "true_param": "inf",
            "null_param": 5.0, "dim": 0, "n_grid": [50], "k": 3,
            "replicates": 10, "master_seed": 22, "power_reference": reference,
        }
        (tmp_path / "alt.json").write_text(json.dumps(config))
        code, out, err = _run(capsys, ["experiment", str(tmp_path / "alt.json"),
                                       "--out-dir", str(tmp_path / "alt_out")])
        assert code == 2
        assert out == ""
        # reported in one error with the config's other problems
        assert err == ("error: invalid experiment config: dim must be an integer >= 1, got 0; "
                       f"power_reference must be a non-empty path string, got {reference!r}\n")
        assert not (tmp_path / "alt_out").exists()

    @pytest.mark.parametrize("reference", [5, "", None])
    def test_power_reference_alone_exits_2(self, tmp_path, capsys, reference):
        config = dict(json.loads((_REPO / "configs" / "smoke.json").read_text()),
                      power_reference=reference)
        (tmp_path / "alt.json").write_text(json.dumps(config))
        code, out, err = _run(capsys, ["experiment", str(tmp_path / "alt.json"),
                                       "--out-dir", str(tmp_path / "alt_out")])
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid experiment config: power_reference must be")
        assert not (tmp_path / "alt_out").exists()


class TestWarnings:
    # a command's warnings are held until its exit code is known

    def test_failed_command_prints_only_its_error_line(self, tmp_path, capsys):
        # points 1e200 apart: the squared gaps (entropy) and the covariance's
        # products (test) overflow, each with a numpy RuntimeWarning
        path = tmp_path / "far.csv"
        path.write_text("x1\n0\n1e200\n2e200\n3.5e200\n")
        for argv, line in [
            (["entropy", str(path), "--k", "1", "--q", "0.5"],
             "error: the entropy estimate is inf: a squared neighbour distance overflows "
             "the double range"),
            (["test", str(path), "--family", "student", "--nu0", "5", "--k", "1"],
             "error: matrix entries must be finite"),
        ]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = _run(capsys, argv)
            assert (code, out, err, caught) == (2, "", line + "\n", [])

    def test_successful_command_issues_its_warnings_again(self, tmp_path, capsys, monkeypatch):
        def cmd_entropy(args):
            warnings.warn("an anomaly", RuntimeWarning)
            print("{}")
            return 0

        monkeypatch.setattr(cli, "cmd_entropy", cmd_entropy)
        argv = ["entropy", str(tmp_path / "s.csv"), "--k", "1", "--q", "1"]
        with pytest.warns(RuntimeWarning, match="an anomaly"):
            assert _run(capsys, argv)[:2] == (0, "{}\n")
        # through the caller's filters: this suite's turn it into an error
        with pytest.raises(RuntimeWarning, match="an anomaly"):
            main(argv)


class TestUndecodableInput:
    """Input files that are not UTF-8 text exit 2 naming the file."""

    @pytest.fixture
    def binary(self, tmp_path):
        path = tmp_path / "bin.dat"
        path.write_bytes(b"\xff\xfe\x00bad")
        return path

    def _assert_exit_2(self, capsys, argv, path):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert str(path) in err and "not UTF-8 text" in err

    def test_experiment_config(self, tmp_path, capsys, binary):
        self._assert_exit_2(capsys, ["experiment", str(binary), "--out-dir",
                                     str(tmp_path / "o"), "--workers", "1"], binary)
        assert sorted(tmp_path.iterdir()) == [binary]

    def test_power_reference(self, tmp_path, capsys, binary):
        config = dict(json.loads((_REPO / "configs" / "smoke.json").read_text()),
                      power_reference=binary.name)
        (tmp_path / "alt.json").write_text(json.dumps(config))
        self._assert_exit_2(capsys, ["experiment", str(tmp_path / "alt.json"), "--out-dir",
                                     str(tmp_path / "o"), "--workers", "1"], binary)
        assert not (tmp_path / "o").exists()

    def test_entropy_data(self, capsys, binary):
        self._assert_exit_2(capsys, ["entropy", str(binary), "--k", "3", "--q", "0.5"], binary)

    def test_test_data(self, capsys, binary):
        self._assert_exit_2(capsys, ["test", str(binary), "--family", "student",
                                     "--nu0", "10", "--k", "3"], binary)

    def test_critical_table(self, tmp_path, capsys, binary):
        path = tmp_path / "ok.csv"
        write_csv(sample(gaussian([0.0], [[1.0]]), 100, RngStream(6)), path)
        self._assert_exit_2(capsys, ["test", str(path), "--family", "student", "--nu0", "10",
                                     "--k", "3", "--critical-table", str(binary)], binary)


class TestPaperScaleDecisions:
    """Cross-checks of the test command at published-table scale."""

    def test_gaussian_sample_accepts_gaussian_null(self, tmp_path, capsys):
        # W below the N=5000 Gaussian critical value 0.030 nearly always
        below = 0
        spec = gaussian([0.0], [[1.0]])
        for seed in range(100):
            s = sample(spec, 5000, RngStream(12000, seed))
            path = tmp_path / "pts.csv"
            write_csv(s, path)
            code, out, _ = _run(capsys, ["test", str(path), "--family", "student",
                                         "--nu0", "inf", "--k", "3"])
            assert code == 0
            if json.loads(out)["W"] < 0.030:
                below += 1
        assert below >= 90

    def test_gaussian_sample_rejects_nu0_3(self, tmp_path, capsys):
        # against a nu0=3 critical table, Gaussian data rejects essentially always
        config = {
            "schema_version": 1, "family": "student", "true_param": 3.0,
            "null_param": 3.0, "dim": 1, "n_grid": [5000], "k": 3,
            "replicates": 200, "master_seed": 77,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "null3"
        code, _, _ = _run(capsys, ["experiment", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == 0

        rejects = 0
        spec = gaussian([0.0], [[1.0]])
        for seed in range(100):
            s = sample(spec, 5000, RngStream(12000, seed))
            path = tmp_path / "pts.csv"
            write_csv(s, path)
            code, out, _ = _run(capsys, ["test", str(path), "--family", "student",
                                         "--nu0", "3", "--k", "3",
                                         "--critical-table", str(out_dir / "summary.csv"),
                                         "--alpha", "0.05"])
            assert code == 0
            decision = json.loads(out.strip().splitlines()[1])
            rejects += bool(decision["reject"])
        assert rejects >= 95


_REPO = Path(__file__).resolve().parent.parent


class TestShippedConfigs:
    # strict parsing must still accept every config the repository ships
    # or the benchmark generates

    @pytest.mark.parametrize("path", sorted((_REPO / "configs").glob("*.json")),
                             ids=lambda p: p.name)
    def test_config_file_loads(self, path):
        load_config(path)

    def test_power_config_matches_its_reference(self):
        # the shipped power run is judged against the shipped null run's table
        power, reference = load_config(_REPO / "configs" / "power_gaussian_vs_nu0_10_m1.json")
        null, _ = load_config(_REPO / "configs" / "critical_values_nu10_m1.json")
        assert reference.name == "summary.csv"
        for key in ("family", "null_param", "dim", "k", "covariance_mode"):
            assert getattr(power, key) == getattr(null, key), key

    def test_benchmark_workload_configs_load(self, monkeypatch):
        monkeypatch.syspath_prepend(str(_REPO / "bench"))
        workloads = importlib.import_module("workloads")
        for workload in workloads.WORKLOADS.values():
            for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
                ExperimentConfig.from_dict(workload.config(seed, 0))


# the tools/output_digest.py totals (of result_to_json, and of the summary and
# histogram tables), recorded with numpy 2.4.6: numpy's Philox stream and
# float kernels set these bytes as much as the program does
_DIGEST_TOTAL = "7c4222418b2ed5648cf5b0dec3805cfa8575ffef291399444c2b3aab30874bf7"
_TABLES_TOTAL = "b20c4ed58ffae7b4e2a68bf7903b41fa3c996876c4216613ebfe7d89c6b15892"
_DIGEST_NUMPY = "2.4.6"


def _toolchain_note() -> str:
    return (f"recorded with numpy {_DIGEST_NUMPY}, running numpy {np.__version__}; "
            "under another numpy the bytes may differ without a program fault")


class TestOutputBytes:
    # the output bytes a speed-up or a refactor must keep, checked on every
    # test run rather than by hand

    def test_output_digest_total(self, monkeypatch, capsys):
        monkeypatch.syspath_prepend(str(_REPO / "tools"))
        output_digest = importlib.import_module("output_digest")
        assert output_digest.main(["--total"]) == 0
        totals = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert totals == [_DIGEST_TOTAL, _TABLES_TOTAL], _toolchain_note()

    def test_benchmark_gate_hashes(self, tmp_path, monkeypatch, capsys):
        # the summary.csv sha256 that the benchmark's correctness gate checks
        monkeypatch.syspath_prepend(str(_REPO / "bench"))
        workloads = importlib.import_module("workloads")
        for workload in workloads.WORKLOADS.values():
            for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
                config = tmp_path / f"{workload.name}-{seed}.json"
                config.write_text(json.dumps(workload.config(seed, 0, workload.gate_replicates)))
                out_dir = tmp_path / f"{workload.name}-{seed}"
                code, _, err = _run(capsys, ["experiment", str(config), "--out-dir",
                                             str(out_dir), "--workers", "1"])
                assert code == 0, err
                digest = hashlib.sha256((out_dir / "summary.csv").read_bytes()).hexdigest()
                assert digest == workload.summary_sha256[seed], \
                    f"{workload.name} seed {seed}: {_toolchain_note()}"


class TestReadmeCommands:
    def test_command_line_block_runs_as_written(self, tmp_path, capsys, monkeypatch):
        # the README's command-line block, run line by line from a directory
        # holding the config it names; it ends with a decision against a table
        text = (_REPO / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
        (tmp_path / "configs").mkdir()
        shutil.copy(_REPO / "configs" / "smoke.json", tmp_path / "configs")
        monkeypatch.chdir(tmp_path)
        # at most 2 worker processes
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for argv in commands:
            assert argv[0] == "renyigof"
            code, out, err = _run(capsys, argv[1:])
            assert code == 0, (argv, err)
        assert "--critical-table" in argv
        record, *decisions = out.strip().splitlines()
        assert json.loads(record)["n"] == 200
        assert len(decisions) == 1
        assert set(json.loads(decisions[0])) == {"alpha", "critical", "reject"}


class TestBenchmarkTracer:
    def test_traced_call_sites_resolve(self, monkeypatch):
        # bench/layers.py wraps these functions by name for its per-layer
        # spans; a refactor that drops one must fail here, not in the
        # traced benchmark run
        monkeypatch.syspath_prepend(str(_REPO / "bench"))
        layers = importlib.import_module("layers")
        for span, sites in layers.SPANS.items():
            for module, attr in sites:
                mod = importlib.import_module(f"renyigof.{module}")
                assert callable(getattr(mod, attr, None)), (span, module, attr)

    def test_direct_library_calls_run(self, monkeypatch):
        # bench/layers.py also times two library calls directly, outside any
        # traced span; a changed signature of check_estimator_conditions,
        # max_renyi_entropy, sample_covariance, SpdMatrix.identity, student or
        # pearson2 must fail here, on every workload, not in the traced run
        monkeypatch.syspath_prepend(str(_REPO / "bench"))
        layers = importlib.import_module("layers")
        workloads = importlib.import_module("workloads").WORKLOADS
        assert {w.family for w in workloads.values()} == {"student", "pearson2"}
        for workload in workloads.values():
            metrics = layers.distributions_calls(renyigof, workload)
            assert sorted(metrics) == ["distributions.check_estimator_conditions_ms",
                                       "distributions.max_renyi_entropy_ms"], workload.name
            assert all(unit == "ms" and 0 < value < math.inf
                       for value, unit in metrics.values()), workload.name

    def test_package_names_bench_reads_resolve(self):
        # bench/layers.py reads the package as `rg` (bench/run.py hands it
        # over); a name dropped from the package must fail here, not in
        # `bench/run.py --trace 1`
        read = {node.attr for name in ("layers.py", "run.py")
                for node in ast.walk(ast.parse((_REPO / "bench" / name).read_text()))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "rg"}
        assert {"knn_distances", "max_renyi_entropy"} <= read  # the walk sees the reads
        assert sorted(name for name in read if not hasattr(renyigof, name)) == []


def _loaded_names(source: str) -> set[str]:
    """Every name `source` loads, bare (`f`) or as an attribute (`x.f`)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _quick_tour() -> str:
    """The code block of the README's "Library quick tour"."""
    section = (_REPO / "README.md").read_text(encoding="utf-8").split("## Library quick tour")[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class TestPublicSurface:
    def test_every_export_has_a_caller(self):
        # a name stays public only if the package itself, the benchmark, an
        # acceptance criterion or the README's quick tour uses it; an
        # import alone is no use, and a name only its own tests call goes
        paths = [*(p for p in (_REPO / "src" / "renyigof").glob("*.py") if p.name != "__init__.py"),
                 *(_REPO / "bench").glob("*.py"), _REPO / "tests" / "test_acceptance.py"]
        sources = [p.read_text(encoding="utf-8") for p in paths] + [_quick_tour()]
        loaded = set().union(*map(_loaded_names, sources))
        assert {"RngStream", "empirical_quantile"} <= _loaded_names(_quick_tour())
        assert sorted(set(renyigof._MODULE_OF) - loaded) == []

    def test_dir_lists_the_lazy_names(self):
        # before and after any of them loads
        assert {"__version__", *renyigof._MODULE_OF} <= set(dir(renyigof))

    def test_only_the_package_lists_its_exports(self):
        # _MODULE_OF is the one list of public names: a submodule's own
        # __all__ would be a second list that nothing keeps in step
        def assigns_all(path):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            return any(isinstance(node, ast.Name) and node.id == "__all__"
                       and isinstance(node.ctx, ast.Store) for node in ast.walk(tree))
        paths = sorted((_REPO / "src" / "renyigof").glob("*.py"))
        assert [p.name for p in paths if p.name != "__init__.py" and assigns_all(p)] == []
        assert assigns_all(_REPO / "src" / "renyigof" / "__init__.py")


_LAZY_PRELUDE = """
import json, sys
from renyigof.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def experiment(dim, workers):
    config = {"schema_version": 1, "family": "student", "true_param": 10.0,
              "null_param": 10.0, "dim": dim, "n_grid": [40, 80], "k": 3,
              "replicates": 4, "covariance_mode": "fresh"}
    with open(f"m{dim}.json", "w") as fh:
        json.dump(config, fh)
    return main(["experiment", f"m{dim}.json", "--out-dir", f"m{dim}-{workers}",
                 "--workers", workers])
"""


def _fresh_python(script, cwd=None, blas_threads=None):
    """The JSON value on the last stdout line of `script`, run by a fresh
    interpreter on this checkout's src/.  OPENBLAS_NUM_THREADS is set to
    `blas_threads` if given and unset otherwise: this process has imported
    renyigof.cli, which sets it."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_REPO / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestLazyImports:
    @staticmethod
    def _run_script(tmp_path, script):
        return _fresh_python(_LAZY_PRELUDE + script, cwd=tmp_path)

    def test_m1_run_loads_neither_kd_tree_nor_linalg(self, tmp_path):
        # m = 1 needs no scipy module at all, ties included: ln_gamma and
        # digamma are pure Python, and the kd-tree and scipy.linalg load on
        # first use; a stray top-level import would load scipy into every run
        loaded = self._run_script(tmp_path, """
loaded = {"import": scipy_modules()}
codes = [
    main(["sample", "--family", "student", "--nu", "10", "--dim", "1", "--n", "60",
          "--seed", "1", "-o", "s.csv"]),
    main(["entropy", "s.csv", "--k", "3", "--q", "0.8"]),
    main(["entropy", "s.csv", "--k", "3", "--q", "1"]),
    main(["test", "s.csv", "--family", "student", "--nu0", "10", "--k", "3"]),
    main(["test", "s.csv", "--family", "pearson2", "--eta0", "inf", "--k", "3"]),
]
with open("tied.csv", "w") as fh:
    fh.write("x1\\n0.5\\n2.0\\n0.5\\n1.0\\n")
codes.append(main(["entropy", "tied.csv", "--k", "1", "--q", "0.8"]))
loaded["commands"] = [codes, scipy_modules()]
for dim in (1, 3):
    code = experiment(dim, "1")
    loaded[f"m{dim}"] = [code, scipy_modules()]
print(json.dumps(loaded))
""")
        assert loaded["import"] == []
        # a tie exits 3 without the kd-tree
        assert loaded["commands"] == [[0] * 5 + [3], []]
        assert loaded["m1"] == [0, []]
        code, modules = loaded["m3"]
        assert code == 0
        assert "scipy.spatial" in modules

    def test_pooled_run_imports_kd_tree_once_before_the_fork(self, tmp_path):
        # with 2 workers the parent builds no tree itself, so scipy.spatial is
        # in its modules only if it was imported once for all the workers
        loaded = self._run_script(tmp_path, """
loaded = {}
for dim in (1, 3):
    code = experiment(dim, "2")
    loaded[f"m{dim}"] = [code, "scipy.spatial" in sys.modules]
print(json.dumps(loaded))
""")
        assert loaded == {"m1": [0, False], "m3": [0, True]}


class TestFreshImport:
    # each check runs in a fresh interpreter: OpenBLAS reads its thread count
    # only when numpy first loads, and this process has loaded numpy already
    @staticmethod
    def _probe(script, blas_threads=None):
        return _fresh_python("import json, os, sys\n" + script, blas_threads=blas_threads)

    def test_package_import_leaves_numpy_and_blas_alone(self):
        loaded = self._probe("""
import renyigof
print(json.dumps(["numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS")]))
""")
        assert loaded == [False, None]

    def test_cli_import_runs_one_blas_thread(self):
        threads, tasks = self._probe("""
import renyigof.cli
tasks = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), tasks]))
""")
        assert threads == "1"
        if sys.platform.startswith("linux"):
            assert tasks == 1  # the main thread alone: no BLAS helper threads

    def test_preset_blas_threads_kept(self):
        threads = self._probe("""
import renyigof.cli
print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
""", blas_threads="2")
        assert threads == "2"

    def test_every_public_name_resolves(self):
        unlisted, missing = self._probe("""
import renyigof
listed = set(dir(renyigof))
missing = [name for name in renyigof.__all__ if not hasattr(renyigof, name)]
print(json.dumps([sorted(set(renyigof.__all__) - listed), missing]))
""")
        assert unlisted == [] and missing == []

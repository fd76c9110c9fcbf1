import importlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from renyigof import mc
from renyigof.cli import load_config, main
from renyigof.distributions import gaussian
from renyigof.errors import DomainError
from renyigof.knn import renyi_estimate
from renyigof.mc import ExperimentConfig
from renyigof.sampler import RngStream, read_csv, sample, write_csv


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_invalid_eta_exits_2(self, tmp_path, capsys):
        code, _, err = _run(capsys, ["sample", "--family", "pearson2", "--eta", "-1",
                                     "--dim", "1", "--n", "10", "--seed", "1",
                                     "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "eta > 0" in err

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
        (["--dim", "0"], "--dim must be >= 1, got 0"),
        (["--dim", "-1"], "--dim must be >= 1, got -1"),
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
        assert f"must lie in [0, 2**64), got {value}" in err
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
        assert "duplicate" in err

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
        for fragment in ("covarience_mode", "include_replicates", "dim: must be an integer"):
            assert fragment in err
        assert not (tmp_path / "o").exists()

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
        assert f"workers must be >= 1 (None for all CPUs), got {workers}" in err
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code, _, _ = _run(capsys, ["experiment", str(tmp_path / "nope.json"),
                                   "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text('{"schema_version": 1,')
        code, out, err = _run(capsys, ["experiment", str(tmp_path / "cfg.json"),
                                       "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert out == ""
        assert "config is not valid JSON" in err
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

    def test_mismatched_power_reference_exits_2(self, tmp_path, capsys):
        code, err = self._power_run(tmp_path, capsys, null_param=10.0, k=4,
                                    covariance_mode="fresh")
        assert code == 2
        for key in ("null_param", "k", "covariance_mode"):
            assert key in err
        for key in ("family", "dim"):
            assert f"{key} " not in err
        assert not (tmp_path / "alt_out").exists()

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
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # at most 2 worker processes
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


class TestLazyImports:
    def test_m1_run_loads_neither_kd_tree_nor_linalg(self, tmp_path):
        # m = 1 uses neither the kd-tree nor scipy.linalg, and both load on
        # first use; a stray top-level import would load them into every run
        script = """
import json, sys
from renyigof.cli import main
lazy = ("scipy.spatial", "scipy.linalg")
loaded = {"import": [m for m in lazy if m in sys.modules]}
for dim in (1, 3):
    config = {"schema_version": 1, "family": "student", "true_param": 10.0,
              "null_param": 10.0, "dim": dim, "n_grid": [40, 80], "k": 3,
              "replicates": 4, "covariance_mode": "fresh"}
    with open(f"m{dim}.json", "w") as fh:
        json.dump(config, fh)
    code = main(["experiment", f"m{dim}.json", "--out-dir", f"m{dim}", "--workers", "1"])
    loaded[f"m{dim}"] = [code, [m for m in lazy if m in sys.modules]]
print(json.dumps(loaded))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(_REPO / "src"), env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout.splitlines()[-1])
        assert loaded["import"] == []
        assert loaded["m1"] == [0, []]
        code, modules = loaded["m3"]
        assert code == 0
        assert "scipy.spatial" in modules

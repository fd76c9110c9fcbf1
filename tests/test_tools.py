import importlib
import json
import re
import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

from renyigof import __version__

_REPO = Path(__file__).resolve().parent.parent


def test_code_lines_counts_only_code(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(_REPO / "tools"))
    code_lines = importlib.import_module("code_lines")
    path = tmp_path / "small.py"
    path.write_text('"""A module docstring\nover two lines."""\n\n# a comment\n'
                    'x = 1  # a trailing comment\ny = """not a docstring"""\n')
    assert code_lines.main([str(path)]) == 0
    assert capsys.readouterr().out == f"     2  {path}\n     2  total\n"


def test_pyproject_takes_the_package_version():
    # one version string: pyproject.toml reads it from renyigof/_version.py
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        project = read_configuration(_REPO / "pyproject.toml")["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == __version__


def test_bench_records_carry_the_declared_metrics():
    # the committed benchmark records at the root: each workload's
    # --trace 0 run holds every end-to-end metric BENCHMARK.json declares,
    # its --trace 1 run every per-layer one, and the Tier-1 record the suite's
    # wall time and slowest tests; each names the commit it measured
    spec = json.loads((_REPO / "BENCHMARK.json").read_text())
    records = {p.name: json.loads(p.read_text()) for p in _REPO.glob("BENCH_*.json")}
    expected = {"BENCH_tier1.json"}
    for workload in spec["workloads"]:
        for suffix, trace, kind in ((".json", 0, "end_to_end"), (".trace1.json", 1, "per_layer")):
            name = f"BENCH_{workload['name']}{suffix}"
            expected.add(name)
            record = records[name]
            assert (record["workload"], record["trace"], record["correct"]) == \
                (workload["name"], trace, True), name
            assert {m["name"] for m in spec[kind]} <= set(record["metrics"]), name
    assert set(records) == expected
    tier1 = records["BENCH_tier1.json"]
    assert tier1["wall_s"] > 0 and tier1["passed"] > 0
    assert len(tier1["slowest"]) == 10
    for record in records.values():
        assert re.fullmatch(r"[0-9a-f]{40}", record["machine"]["git_commit"])


def test_tier1_record_parses_pytest_output(monkeypatch):
    monkeypatch.syspath_prepend(str(_REPO / "tools"))
    tier1_bench = importlib.import_module("tier1_bench")
    output = ("..F.\n============ slowest 2 durations ============\n"
              "7.21s call     tests/test_a.py::TestB::test_c[1]\n"
              "0.50s setup    tests/test_d.py::test_e\n"
              "FAILED tests/test_a.py::TestB::test_f - assert 1 == 2\n"
              "1 failed, 3 passed, 2 warnings in 9.87s\n")
    assert tier1_bench.parse(output) == {
        "passed": 3, "failed": 1, "errors": 0, "failures": ["tests/test_a.py::TestB::test_f"],
        "slowest": [{"seconds": 7.21, "phase": "call", "test": "tests/test_a.py::TestB::test_c[1]"},
                    {"seconds": 0.5, "phase": "setup", "test": "tests/test_d.py::test_e"}]}

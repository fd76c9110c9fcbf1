import importlib
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

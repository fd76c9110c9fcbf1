import importlib
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent


def test_code_lines_counts_only_code(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(_REPO / "tools"))
    code_lines = importlib.import_module("code_lines")
    path = tmp_path / "small.py"
    path.write_text('"""A module docstring\nover two lines."""\n\n# a comment\n'
                    'x = 1  # a trailing comment\ny = """not a docstring"""\n')
    assert code_lines.main([str(path)]) == 0
    assert capsys.readouterr().out == f"     2  {path}\n     2  total\n"

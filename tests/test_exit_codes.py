"""The exit-code contract of the command line, as one property test.

`renyigof sample`, `entropy`, `test` and `experiment` end in 0, 2
(usage or validation error) or 3 (data error) on any flags, sample file,
config or path, never in a traceback; a run that does not exit 0 prints
exactly one `error:` or `data error:` line on stderr and nothing else but
argparse's usage text, no warning.  A run that exits 0 prints nothing
on stderr: a warning it issues raises here, under the suite's
`error::RuntimeWarning` filter.

Samples and experiments stay small, so each example takes milliseconds.
The strategies still reach the largest values the parsers accept
(`replicates` up to 2**32 - 1, `n_grid` entries up to 2**31 - 1, tail
parameters up to 1e300, `sample --n` and `--dim` up to 2**70): the work limits and the maximiser-order check
must refuse those before anything is allocated.  Values between a small
run and the work limits are valid and only slow, so they are not drawn.
Each path may also be empty or name a directory.  An unreadable file is
not drawn: a process running as root reads a file of mode 000.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyigof import mc, sampler
from renyigof.cli import main

# the one line a failed run prints: main's own, or argparse's usage error
_ERROR_LINE = re.compile(r"^(renyigof[\w -]*: )?(data )?error: ")
# the first line of argparse's usage text, which precedes its error line
_USAGE_LINE = re.compile(r"^usage: renyigof\b")

# the null run of the critical table `test` and `experiment` may read
_TABLE_CONFIG = {"schema_version": 1, "family": "student", "true_param": 10.0,
                 "null_param": 10.0, "dim": 1, "n_grid": [8, 12, 20], "k": 3,
                 "replicates": 20, "master_seed": 5}


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process command-line run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv):
    code, out, err = _cli(argv)
    assert code in (0, 2, 3), (argv, code, err)
    errors = [line for line in err.splitlines() if _ERROR_LINE.match(line)]
    if code == 0:
        assert err == "", (argv, err)
        assert out
    else:
        assert len(errors) == 1, (argv, code, err)
        assert errors[0].startswith("data error: ") == (code == 3), (argv, code, err)
        # before the error line, at most argparse's usage text: a first
        # line "usage: renyigof ..." and its indented continuations
        *usage, last = err.splitlines()
        assert last == errors[0], (argv, err)
        if usage:
            assert _USAGE_LINE.match(usage[0]) and not last.startswith(("error", "data")), \
                (argv, err)
            assert all(line.startswith(" ") for line in usage[1:]), (argv, err)
    return code


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths the flags may name: a null run's summary table, a file that
    is no table, one that does not exist, a directory and the empty
    path."""
    root = tmp_path_factory.mktemp("exit-codes")
    (root / "table.json").write_text(json.dumps(_TABLE_CONFIG))
    assert _cli(["experiment", str(root / "table.json"), "--out-dir", str(root / "null"),
                 "--workers", "1"])[0] == 0
    (root / "text.csv").write_text("not a table\n")
    return {"table": str(root / "null" / "summary.csv"), "text": str(root / "text.csv"),
            "missing": str(root / "missing.csv"), "directory": str(root), "empty": ""}


_CELL_TEXT = ["nan", "inf", "-inf", "1e400", "-1e400", "4e-324", "0x10", "", " ", "1e200",
              "-1.7e308", "abc", "-0.0", "1_0", "\u0664"]


@st.composite
def _csv_bytes(draw):
    """A sample file: a well-formed one, or one with any of a BOM, CRLF,
    a row of numbers for a header, ragged rows, odd cells, stray bytes.
    A well-formed sample is scaled by a power of ten: points 1e155 or
    more apart overflow when a distance or a covariance entry is
    squared, and only the command's warning rule keeps numpy's warnings
    off stderr."""
    m = draw(st.integers(1, 3))
    dirty = draw(st.booleans())
    scale = 1.0 if dirty else draw(st.sampled_from([1.0, 1e100, 1e155, 1e200, 1e300]))
    number = st.floats(-10.0, 10.0).map(lambda x: repr(x * scale))
    cell = st.one_of(number, st.sampled_from(_CELL_TEXT)) if dirty else number
    widths = [m, m + 1, max(m - 1, 1)] if dirty and draw(st.booleans()) else [m]
    header = draw(st.sampled_from(["names", "numbers", "none"])) if dirty else "names"
    lines = ["# a comment"] if draw(st.booleans()) else []
    if header == "names":
        lines.append(",".join(f"x{j + 1}" for j in range(m)))
    elif header == "numbers":
        lines.append(",".join(["1.5"] * m))
    for _ in range(draw(st.integers(0, 25))):
        width = draw(st.sampled_from(widths))
        lines.append(",".join(draw(st.lists(cell, min_size=width, max_size=width))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = (newline.join(lines) + draw(st.sampled_from([newline, ""]))).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if dirty and draw(st.booleans()):
        data += b"\xff\xfe"
    return data


# a flag is given nine times in ten
_GIVEN = st.sampled_from([True] * 9 + [False])
# a usable value, or any the flag's parser may meet
_K = st.one_of(st.integers(1, 5), st.one_of(st.integers(-2, 12), st.integers(2**31, 2**70),
                                            st.sampled_from(["3.0", "x", ""]))).map(str)
_Q = st.one_of(st.sampled_from(["1", "0.5", "0.9", "1.5", "2", "1e-320"]), st.floats().map(repr))
_TAIL = st.one_of(st.sampled_from(["inf", "3", "10", "2.0000000000000004", "1e300",
                                   str(2**55), str(2**53)]),
                  st.floats(0.0, 1e300).map(repr),
                  st.sampled_from(["nan", "-inf", "2", "0", "-1", "abc", "", "1e999"]))


def _read_path(path):
    # the file a command reads, or in its place the empty path or a directory
    return st.sampled_from([path] * 8 + ["", str(Path(path).parent)])


@st.composite
def _entropy_argv(draw, path):
    argv = ["entropy", draw(_read_path(path))]
    if draw(_GIVEN):
        argv += ["--k", draw(_K)]
    if draw(_GIVEN):
        argv += ["--q", draw(_Q)]
    return argv


@st.composite
def _test_argv(draw, path, files):
    family = draw(st.sampled_from(["student", "pearson2"] * 4 + ["gaussian"]))
    argv = ["test", draw(_read_path(path)), "--family", family]
    if draw(_GIVEN):
        argv += ["--null-param", draw(_TAIL)]
    if draw(_GIVEN):
        argv += ["--k", draw(_K)]
    if draw(st.booleans()):
        argv += ["--critical-table", files[draw(st.sampled_from(sorted(files)))]]
    if not draw(_GIVEN):  # a flag the command does not take
        argv += [draw(st.sampled_from(["--nu0", "--eta0", "--alpha"])), draw(_TAIL)]
    return argv


def _anything():
    return st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.integers(-2**64, 2**65),
                     st.floats(), st.sampled_from(["inf", "student", "pearson2", "gaussian",
                                                   "same", "fresh", "x", ""]),
                     st.lists(st.integers(-2, 40), max_size=3), st.lists(st.floats(0, 1), max_size=3),
                     st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


_SMALL_OR_REFUSED_N = st.one_of(st.integers(1, 40),
                                st.integers(sampler._MAX_COORDINATES + 1, 2**31 - 1))
_FIELDS = {
    "schema_version": st.one_of(st.just(2), _anything()),
    "family": st.one_of(st.sampled_from(["student", "pearson2", "gaussian"]), _anything()),
    "true_param": st.one_of(st.floats(0.0, 1e300), _TAIL, _anything()),
    "null_param": st.one_of(st.floats(0.0, 1e300), _TAIL, _anything()),
    "dim": st.one_of(st.integers(1, 6), st.integers(7, 2**70), _anything()),
    "n_grid": st.one_of(st.lists(_SMALL_OR_REFUSED_N, min_size=0, max_size=3), _anything()),
    "k": st.one_of(st.integers(1, 8), st.integers(9, 2**70), _anything()),
    "replicates": st.one_of(st.integers(2, 30),
                            st.integers(mc._MAX_REPLICATES + 1, 2**32 - 1), _anything()),
    "alpha_levels": st.one_of(st.lists(st.floats(), max_size=3), _anything()),
    "master_seed": st.one_of(st.integers(0, 2**64 - 1), _anything()),
    "max_failure_rate": st.one_of(st.floats(), _anything()),
    "include_replicates": _anything(),
    "covariance_mode": st.one_of(st.sampled_from(["same", "fresh"]), _anything()),
    "unknown_field": _anything(),
}


@st.composite
def _config_bytes(draw):
    """The table's null run with one to three fields replaced or removed,
    or text that is no config object at all."""
    kind = draw(st.sampled_from(range(20)))
    if kind == 0:
        return draw(st.sampled_from([b"", b"[1, 2]", b'{"schema_version": 1,', b"\xff"]))
    config = dict(_TABLE_CONFIG, n_grid=[8, 12], replicates=6)
    for key in draw(st.lists(st.sampled_from(sorted(_FIELDS)), min_size=1, max_size=3,
                             unique=True)):
        if not draw(_GIVEN):
            config.pop(key, None)
        else:
            config[key] = draw(_FIELDS[key])
    data = json.dumps(config).encode()
    return b"\xef\xbb\xbf" + data if kind == 1 else data


@st.composite
def _experiment_argv(draw, config, out_dir, files):
    # an out dir below the example's own directory, that directory, a file or ""
    argv = ["experiment", draw(_read_path(config)), "--out-dir",
            draw(st.sampled_from([out_dir] * 8 + [str(Path(out_dir).parent), files["text"], ""])),
            "--workers", draw(st.sampled_from(["1"] * 7 + ["0", "-1", "x"]))]
    if draw(st.booleans()):
        argv += ["--critical-table", files[draw(st.sampled_from(sorted(files)))]]
    return argv


def _usually(valid, other):
    # a value from `valid` nine times in ten, else one from `other`
    return _GIVEN.flatmap(lambda ok: valid if ok else other)


# --dim small, or with an m x m scale past the coordinate limit; --n
# small, or past that limit in any m; and text no integer parser takes
_DIM = _usually(st.integers(1, 3), st.one_of(st.integers(2897, 2**70),
                                             st.sampled_from(["0", "-1", "x", ""]))).map(str)
_N = _usually(st.integers(1, 40), st.one_of(
    st.integers(sampler._MAX_COORDINATES + 1, 2**70), st.sampled_from(["0", "-1", "1.5"]))).map(str)
_SEED = _usually(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64, "x", ""])).map(str)
_CELL = _usually(st.floats(-3.0, 3.0).map(repr),
                 st.sampled_from(["0", "1", "1e-310", "1e200", "1e400", "nan", "x", ""]))


@st.composite
def _loc_text(draw, m):
    width = draw(st.sampled_from([m] * 4 + [m + 1, max(m - 1, 1)]))
    return ",".join(draw(st.lists(_CELL, min_size=width, max_size=width)))


@st.composite
def _scale_text(draw, m):
    """An m x m scale matrix as `--scale` text, positive definite or
    not, symmetric or not, or of the wrong shape or a cell no float."""
    size = draw(st.sampled_from([m] * 4 + [m + 1, max(m - 1, 1)]))
    kind = draw(st.sampled_from(["positive definite", "symmetric", "any"]))
    cells = [[draw(_CELL) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(i):
            if kind == "positive definite":  # diagonally dominant
                cells[i][j] = repr(draw(st.floats(-0.9, 0.9)))
            if kind != "any":
                cells[j][i] = cells[i][j]
        if kind == "positive definite":
            cells[i][i] = repr(draw(st.floats(float(size), 10.0)))
    if draw(st.integers(0, 9)) == 0:  # a ragged row
        cells[-1] = cells[-1][:-1] or ["1", "1"]
    return ";".join(",".join(row) for row in cells)


@st.composite
def _sample_argv(draw, output):
    family = draw(st.sampled_from(["gaussian", "student", "pearson2"]))
    dim = draw(_DIM)
    m = int(dim) if dim.isdigit() and int(dim) <= 3 else 1
    # a temporary file, that file's directory, the empty path, or a file
    # in a directory that does not exist
    out = draw(_usually(st.just(output), st.sampled_from(
        [str(Path(output).parent), "", str(Path(output).parent / "no" / "x.csv")])))
    argv = ["sample", "--family", family, "--dim", dim, "--n", draw(_N),
            "--seed", draw(_SEED), "-o", out]
    # gaussian refuses --param, and the other families require it
    if draw(st.booleans() if family == "gaussian" else _GIVEN):
        argv += ["--param", draw(_TAIL)]
    if draw(st.booleans()):
        argv += ["--stream", draw(_SEED)]
    # spelled --flag=text, since argparse takes text such as "-1,2" for a flag
    if draw(st.booleans()):
        argv.append("--loc=" + draw(_loc_text(m)))
    if draw(st.booleans()):
        argv.append("--scale=" + draw(_scale_text(m)))
    return argv


class TestExitCodeContract:
    # each subcommand draws its own examples, so each is exercised alike
    @settings(max_examples=150)
    @given(data=st.data())
    def test_sample(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            _assert_contract(data.draw(_sample_argv(str(Path(tmp) / "x.csv"))))

    @settings(max_examples=150)
    @given(data=st.data())
    def test_entropy(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_bytes(data.draw(_csv_bytes()))
            _assert_contract(data.draw(_entropy_argv(str(path))))

    @settings(max_examples=150)
    @given(data=st.data())
    def test_test(self, files, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_bytes(data.draw(_csv_bytes()))
            _assert_contract(data.draw(_test_argv(str(path), files)))

    @settings(max_examples=100)
    @given(data=st.data())
    def test_experiment(self, files, data):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_bytes(data.draw(_config_bytes()))
            _assert_contract(data.draw(_experiment_argv(str(config), str(Path(tmp) / "out"),
                                                        files)))

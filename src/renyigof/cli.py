"""Batch command-line front end.

Subcommands: `sample` draws a seeded sample to CSV, `entropy` runs the
nearest-neighbour estimator on a CSV, `test` evaluates a goodness-of-fit
statistic (and, given a null run's critical-value table, decides at
every level the table carries), and `experiment` runs a full Monte Carlo
experiment from a JSON config (and, given such a table, measures power
against it).  Both name the table by `--critical-table PATH`.  A tail
parameter has one flag, read as nu or eta by the family: `sample
--param`, `test --null-param`.
Flags are taken only as spelled in full (or as `--flag=value`); a
prefix of one, such as `--null` for `--null-param`, is a usage error.
Every numeric flag, and each entry of `--loc` and `--scale`, is read
by :func:`special._number`, the one reader of number text, so `1_0`,
non-ASCII digits, `nan` and `1e999` exit 2 naming the flag.

Exit codes: 0 success, 2 usage or validation error (an empty path and
a --scale that is not positive definite among them), 3 data error
(duplicate points, degenerate covariance).  stdout carries JSON
records; diagnostics go to stderr.  A command's warnings (numpy's
RuntimeWarnings, say) are held until it ends: a command that exits 2 or
3 drops them, so its one error line is all it prints, and one that
exits 0 issues them again through the caller's warning filters.

numpy runs BLAS on one thread in this process and in the workers it
starts, unless the caller has set OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from functools import partial
from pathlib import Path

# Replicates run in separate worker processes and no BLAS call here is large
# enough to gain from threads, yet OpenBLAS starts its threads when numpy
# loads and each one costs CPU.  OpenBLAS reads this only then, so it is set
# before the first numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from ._version import __version__
from . import mc
from .distributions import DistributionSpec, Family, SpdMatrix
from .errors import DomainError, DuplicatePointsError, NotPositiveDefiniteError
from .gof import sample_covariance, statistic
from .knn import renyi_estimate, shannon_estimate
from .sampler import _MAX_COORDINATES, read_csv, read_lines, sample, write_csv
from .special import _integer, _number, _reals

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _numeric(kind: type, text: str, inf: bool = False):
    """The flag's text read by :func:`special._number`, whose refusal
    becomes argparse's usage error naming the flag: the argparse type
    of every numeric flag, as :data:`_int_flag` or :data:`_tail_flag`."""
    try:
        return _number(text, kind, inf)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# an integer flag, and a tail parameter or Renyi order (a number or inf)
_int_flag, _tail_flag = partial(_numeric, int), partial(_numeric, float, inf=True)


def _path(text: str) -> str:
    # every path argument's type: Path("") would name the working directory
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


def _flag_reals(flag: str, text: str, m: int):
    """The text of `--loc` (1 x m, read as a location by
    :func:`special._reals`) or `--scale` (m x m, built as an SpdMatrix):
    rows split on ';' and entries on ',', each entry read by
    :func:`special._number`.  Every refusal is one DomainError,
    "<flag> '<text>': <reason>"."""
    rows = 1 if flag == "--loc" else m
    cells = [row.split(",") for row in text.split(";")]
    if [len(row) for row in cells] != [m] * rows:
        raise DomainError(f"{flag} {text!r}: needs {rows} x {m} numbers, "
                          "rows split by ';' and entries by ','")
    try:
        grid = [[_number(v) for v in row] for row in cells]
        return _reals("location", grid)[0] if flag == "--loc" else SpdMatrix(grid)
    except ValueError as exc:  # a NotPositiveDefiniteError too: the flag's fault, not the data's
        raise DomainError(f"{flag} {text!r}: {exc}") from None


def _build_spec(args):
    if (args.param is None) != (args.family == "gaussian"):
        need = "is required for" if args.param is None else "does not apply to"
        raise DomainError(f"--param {need} --family {args.family}")
    m = _integer("--dim", args.dim, 1)
    if m * m > _MAX_COORDINATES:  # refused before the m x m scale is built and factored
        raise DomainError(f"--dim {m} asks for a {m} x {m} scale matrix, more than "
                          f"the {_MAX_COORDINATES} coordinates one draw may hold")
    loc = np.zeros(m) if args.loc is None else _flag_reals("--loc", args.loc, m)
    scale = SpdMatrix.identity(m) if args.scale is None else _flag_reals("--scale", args.scale, m)
    return DistributionSpec(Family(args.family), loc, scale, args.param)


def cmd_sample(args) -> int:
    spec = _build_spec(args)
    s = sample(spec, args.n, args.seed, args.stream)
    resolved = {
        "family": args.family, "dim": args.dim,
        "param": None if args.param is None else mc._format_float(args.param),
        "n": args.n, "seed": args.seed, "stream": args.stream,
        "loc": args.loc, "scale": args.scale,
    }
    metadata = [
        f"renyigof {__version__}",
        "config " + json.dumps(resolved, sort_keys=True, default=str),
        f"master_seed {args.seed}",
    ]
    write_csv(s, args.output, metadata=metadata)
    print(json.dumps({"written": str(args.output), "n": s.n, "dim": s.dim,
                      "seed": args.seed, "stream": args.stream}))
    return EXIT_OK


def cmd_entropy(args) -> int:
    s = read_csv(args.data)
    est = shannon_estimate(s, args.k) if args.q == 1.0 else renyi_estimate(s, args.k, args.q)
    print(json.dumps({"value": est.value, "q": args.q, "k": args.k, "n": s.n, "dim": s.dim}))
    return EXIT_OK


def cmd_test(args) -> int:
    s = read_csv(args.data)
    stat = statistic(s, Family(args.family), args.null_param, args.k)
    null_text = mc._format_float(args.null_param)
    decisions = []
    if args.critical_table is not None:
        # W here constrains the maximum by the sample's own covariance
        critical = mc.read_summary(args.critical_table, {
            "family": args.family, "null_param": null_text, "dim": s.dim, "k": args.k,
            "covariance_mode": "same"})
        if s.n not in critical[0.05]:
            raise DomainError(f"critical table {args.critical_table} has no row for N={s.n}")
        decisions = [{"alpha": alpha, "critical": by_n[s.n], "reject": stat.value > by_n[s.n]}
                     for alpha, by_n in critical.items()]
    record = {
        "W": stat.value,
        "h_max": stat.h_max,
        "h_hat": stat.h_hat,
        "family": args.family,
        "null_param": null_text,
        "q": stat.q,
        "k": args.k,
        "n": s.n,
        "m": s.dim,
        "l2_condition_ok": stat.l2_ok,
    }
    if s.dim >= 2:  # where a critical table assumes the scatter is spherical
        record["scatter_condition"] = float(np.linalg.cond(sample_covariance(s)[1].matrix))
    for line in (record, *decisions):
        print(json.dumps(line))
    return EXIT_OK


def load_config(path: Path) -> mc.ExperimentConfig:
    """An experiment config file: JSON, read by :func:`sampler.read_lines`,
    built by :meth:`mc.ExperimentConfig.from_dict`.  Each JSON float is
    read by :func:`special._number`, so one past the double range is
    refused as JSON, not read as +-inf."""
    try:
        data = json.loads("".join(read_lines(path)), parse_float=_number)
    except ValueError as exc:  # a JSONDecodeError, an int past Python's digit limit, or 1e999
        raise DomainError(f"config is not valid JSON: {exc}") from None
    return mc.ExperimentConfig.from_dict(data)


def _check_out_dir(out_dir: Path) -> None:
    """Raise DomainError unless `out_dir` can be created as (or already is) a
    directory: it, and its nearest existing ancestor, must be directories."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise DomainError(f"--out-dir {out_dir}: {path} is not a directory")
            return


def cmd_experiment(args) -> int:
    config = load_config(Path(args.config))
    critical_by_n = None
    if args.critical_table is not None:  # read before the run, which a bad table would waste
        critical_by_n = mc.read_summary(args.critical_table, config.to_dict())[0.05]
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir)  # before the run, which an unusable path would waste

    result = mc.run_experiment(config, workers=mc.worker_count(args.workers, "--workers"))

    # created only now, so a run that fails leaves no empty directory
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "summary.csv"
    mc.write_summary_csv(result, summary_path, critical_by_n=critical_by_n)
    written = [str(summary_path)]
    for entry in result.per_n:
        hist_path = out_dir / f"hist_{entry.n}.csv"
        mc.write_histogram_csv(result, entry.n, hist_path)
        written.append(str(hist_path))
    if config.include_replicates or args.replicates_json:
        replicates_path = out_dir / "replicates.json"
        mc.write_replicates_json(result, replicates_path)
        written.append(str(replicates_path))
    print(json.dumps({"written": written, "config_hash": config.config_hash()}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # every parser takes its long flags spelled in full: with argparse's
    # abbreviations on, each unique prefix would be a second name for a
    # flag, and a flag added later could change what an old line means
    parser = argparse.ArgumentParser(
        prog="renyigof",
        allow_abbrev=False,
        description="Nearest-neighbour Renyi entropy estimation and "
        "maximum-entropy goodness-of-fit tests.",
    )
    parser.add_argument("--version", action="version", version=f"renyigof {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", allow_abbrev=False, help="draw a seeded sample to CSV")
    p.add_argument("--family", choices=["gaussian", "student", "pearson2"], required=True)
    p.add_argument("--param", type=_tail_flag,
                   help="tail parameter: Student nu (> 2) or Pearson II eta (> 0), or inf; "
                        "not for gaussian")
    p.add_argument("--dim", type=_int_flag, required=True)
    p.add_argument("--n", type=_int_flag, required=True)
    p.add_argument("--seed", type=_int_flag, required=True)
    p.add_argument("--stream", type=_int_flag, default=0)
    p.add_argument("--loc", help="comma-separated location (default 0); write -1,2 as --loc=-1,2")
    p.add_argument("--scale", help="scale matrix rows separated by ';' (default identity); "
                                   "a value starting with '-' is written --scale=VALUE")
    p.add_argument("-o", "--output", type=_path, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("entropy", allow_abbrev=False, help="estimate entropy of a CSV sample")
    p.add_argument("data", type=_path)
    p.add_argument("--k", type=_int_flag, required=True)
    p.add_argument("--q", type=_tail_flag, required=True, help="Renyi order, or inf; 1 selects Shannon")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("test", allow_abbrev=False,
                       help="goodness-of-fit statistic for a CSV sample")
    p.add_argument("data", type=_path)
    p.add_argument("--family", choices=["student", "pearson2"], required=True)
    p.add_argument("--null-param", type=_tail_flag, required=True,
                   help="null's tail parameter: Student nu0 (> 2) or Pearson II eta0 (> 0); "
                        "inf for the Gaussian limit")
    p.add_argument("--k", type=_int_flag, required=True)
    p.add_argument("--critical-table", type=_path,
                   help="summary CSV from a null-configuration experiment; a decision "
                        "record follows for each level it tabulates")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("experiment", allow_abbrev=False,
                       help="run a Monte Carlo experiment from a JSON config")
    p.add_argument("config", type=_path)
    p.add_argument("--out-dir", type=_path, required=True)
    p.add_argument("--workers", type=_int_flag, default=None,
                   help=f"worker processes, 1 to {mc._MAX_WORKERS} or to the CPUs this process may "
                        "run on, whichever is more (default: those CPUs); results identical "
                        "for any count")
    p.add_argument("--replicates-json", action="store_true",
                   help="also write full replicate arrays as JSON")
    p.add_argument("--critical-table", type=_path,
                   help="summary CSV from a null-configuration experiment; power_at_005 "
                        "is the rejection rate against its 5%% critical values")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.func(args)
        except (DuplicatePointsError, NotPositiveDefiniteError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            code = EXIT_DATA
        except (DomainError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_USAGE
    # a failed command's one error line says what went wrong; a command
    # that succeeded shows its warnings as the caller's filters ask
    if code == EXIT_OK:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

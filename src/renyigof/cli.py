"""Batch command-line front end.

Subcommands: `sample` draws a seeded sample to CSV, `entropy` runs the
nearest-neighbour estimator on a CSV, `test` evaluates a goodness-of-fit
statistic (optionally against a precomputed critical-value table), and
`experiment` runs a full Monte Carlo experiment from a JSON config.

Exit codes: 0 success, 2 usage or validation error, 3 data error
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
from .errors import (
    DomainError,
    DuplicatePointsError,
    ExperimentError,
    NotPositiveDefiniteError,
)
from .gof import statistic
from .knn import renyi_estimate, shannon_estimate
from .sampler import _MAX_COORDINATES, RngStream, read_csv, read_lines, sample, write_csv
from .special import _integer

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _param(text: str) -> float:
    try:
        return mc.parse_param(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _floats(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise DomainError(f"{flag} takes numbers, got {text!r}") from None


def _parse_vector(text: str, m: int) -> np.ndarray:
    vals = _floats(text, "--loc")
    if len(vals) != m:
        raise DomainError(f"--loc needs {m} comma-separated values, got {len(vals)}")
    return np.asarray(vals)


def _parse_matrix(text: str, m: int) -> np.ndarray:
    rows = [_floats(row, "--scale") for row in text.split(";")]
    if len(rows) != m or any(len(r) != m for r in rows):
        raise DomainError(f"--scale needs an {m}x{m} matrix as 'r1c1,r1c2;r2c1,...'")
    return np.asarray(rows)


def _tail_flag(args, flags: dict[str, str]):
    """The value of the tail-parameter flag of `args.family` among `flags`
    (family -> flag name; None for a family with no flag).  A missing
    own flag, or a flag of another family, raises DomainError."""
    for family, flag in flags.items():
        if family != args.family and getattr(args, flag) is not None:
            raise DomainError(f"--{flag} does not apply to --family {args.family}")
    own = flags.get(args.family)
    if own is None:
        return None
    if getattr(args, own) is None:
        raise DomainError(f"--{own} is required for --family {args.family}")
    return getattr(args, own)


def _build_spec(args):
    param = _tail_flag(args, {"student": "nu", "pearson2": "eta"})
    m = _integer("--dim", args.dim, 1)
    if m * m > _MAX_COORDINATES:  # refused before the m x m scale is built and factored
        raise DomainError(f"--dim {m} asks for a {m} x {m} scale matrix, more than "
                          f"the {_MAX_COORDINATES} coordinates one draw may hold")
    loc = _parse_vector(args.loc, m) if args.loc else np.zeros(m)
    scale = SpdMatrix(_parse_matrix(args.scale, m)) if args.scale else SpdMatrix.identity(m)
    return DistributionSpec(Family(args.family), loc, scale, param)


def cmd_sample(args) -> int:
    spec = _build_spec(args)
    s = sample(spec, args.n, RngStream(args.seed, args.stream))
    resolved = {
        "family": args.family, "dim": args.dim,
        "nu": None if args.nu is None else mc._format_float(args.nu),
        "eta": None if args.eta is None else mc._format_float(args.eta),
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
    if args.alpha and not args.critical_table:
        raise DomainError(
            "--alpha needs --critical-table; run `renyigof experiment` on the "
            "null configuration to produce one"
        )
    null_param = _tail_flag(args, {"student": "nu0", "pearson2": "eta0"})
    s = read_csv(args.data)
    stat = statistic(s, Family(args.family), null_param, args.k)
    null_text = mc._format_float(null_param)
    decisions = []
    if args.critical_table:
        # W here constrains the maximum by the sample's own covariance
        critical = mc.read_summary(args.critical_table, {
            "family": args.family, "null_param": null_text, "dim": s.dim, "k": args.k,
            "covariance_mode": "same"})
        for alpha in args.alpha or [0.05]:
            if alpha not in critical:
                raise DomainError(f"critical tables carry alpha in {sorted(critical)}, got {alpha}")
            crit = critical[alpha].get(s.n)
            if crit is None:
                raise DomainError(f"critical table {args.critical_table} has no row for N={s.n}")
            decisions.append({"alpha": alpha, "critical": crit, "reject": stat.value > crit})
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
    for line in (record, *decisions):
        print(json.dumps(line))
    return EXIT_OK


def load_config(path: Path) -> tuple[mc.ExperimentConfig, Path | None]:
    """An experiment config file (JSON, read by :func:`sampler.read_lines`)
    and its optional `power_reference` (a null-run summary CSV, resolved
    against the config's directory).  A reference that is not a
    non-empty string is reported in one error with the config's other
    problems."""
    text = "".join(read_lines(path))
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        raise ExperimentError(f"config is not valid JSON: {exc}") from None
    power_reference, problems = None, []
    if isinstance(data, dict) and "power_reference" in data:
        power_reference = data.pop("power_reference")
        if not isinstance(power_reference, str) or not power_reference:
            problems.append(
                f"power_reference must be a non-empty path string, got {power_reference!r}"
            )
    try:
        config = mc.ExperimentConfig.from_dict(data)
    except ExperimentError as exc:
        raise ExperimentError("; ".join([str(exc), *problems])) from None
    if problems:
        raise mc._invalid(problems)
    if power_reference is None:
        return config, None
    return config, path.parent / power_reference


def _check_out_dir(out_dir: Path) -> None:
    """Raise DomainError unless `out_dir` can be created as (or already is) a
    directory: it, and its nearest existing ancestor, must be directories."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise DomainError(f"--out-dir {out_dir}: {path} is not a directory")
            return


def cmd_experiment(args) -> int:
    config, power_reference = load_config(Path(args.config))
    critical_by_n = None
    if power_reference is not None:
        critical_by_n = mc.read_summary(power_reference, config.to_dict())[0.05]
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir)  # before the run, which an unusable path would waste

    result = mc.run_experiment(config, workers=args.workers)

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
        replicates_path.write_text(mc.result_to_json(result, include_replicates=True) + "\n")
        written.append(str(replicates_path))
    print(json.dumps({"written": written, "config_hash": config.config_hash()}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renyigof",
        description="Nearest-neighbour Renyi entropy estimation and "
        "maximum-entropy goodness-of-fit tests.",
    )
    parser.add_argument("--version", action="version", version=f"renyigof {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a seeded sample to CSV")
    p.add_argument("--family", choices=["gaussian", "student", "pearson2"], required=True)
    p.add_argument("--nu", type=_param, help="Student degrees of freedom (> 2 or inf)")
    p.add_argument("--eta", type=_param, help="Pearson II shape (> 0 or inf)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--loc", help="location as comma-separated values (default 0)")
    p.add_argument("--scale", help="scale matrix rows separated by ';' (default identity)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("entropy", help="estimate entropy of a CSV sample")
    p.add_argument("data")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=float, required=True, help="Renyi order; 1 selects Shannon")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("test", help="goodness-of-fit statistic for a CSV sample")
    p.add_argument("data")
    p.add_argument("--family", choices=["student", "pearson2"], required=True)
    p.add_argument("--nu0", type=_param, help="Student null parameter (> 2 or inf)")
    p.add_argument("--eta0", type=_param, help="Pearson II null parameter (> 0 or inf)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--critical-table", help="summary CSV from a null-configuration experiment")
    p.add_argument("--alpha", type=float, action="append",
                   help="significance level(s) to decide at (needs --critical-table)")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment from a JSON config")
    p.add_argument("config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: the CPUs this process may run on); "
                        "results identical for any count")
    p.add_argument("--replicates-json", action="store_true",
                   help="also write full replicate arrays as JSON")
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
        except (DomainError, ExperimentError, OSError) as exc:
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

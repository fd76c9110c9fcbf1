"""Monte Carlo experiment engine.

Draws M independent samples of each configured size from the true
distribution, evaluates the configured goodness-of-fit statistic
against the null parameter on each, and summarises the replicate
values: means and standard errors, empirical critical values, power
estimates against a critical value, and log-log convergence-rate fits.

Each replicate owns the stream keyed by (master_seed, sample size,
replicate index), so results are independent of worker count and
execution order, and extending the sample-size grid leaves existing
replicates untouched.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._version import __version__
from .distributions import Family, _maximiser_order, _standard_spec, check_pearson_k, tail_family
from .errors import (
    DomainError,
    DuplicatePointsError,
    ExperimentError,
    NotPositiveDefiniteError,
)
from .gof import pearson_statistic, sample_covariance, statistic, student_statistic
from .sampler import _MAX_COORDINATES, RngStream, read_table, sample, write_table
from .special import _got, _integer, _real, _reals

# only bench/layers.py reads these: its per-layer spans wrap them by name here
from .distributions import max_renyi_entropy  # noqa: F401
from .knn import renyi_estimate, shannon_estimate  # noqa: F401

CONFIG_SCHEMA_VERSION = 1

# significance level -> the summary column holding its critical value
ALPHA_COLUMNS = {0.05: "q05", 0.01: "q01", 0.10: "q10"}

# fixed column layout of the summary table
SUMMARY_COLUMNS = (
    "m",
    "true_param",
    "null_param",
    "N",
    "k",
    "mean",
    "stderr",
    *ALPHA_COLUMNS.values(),
    "power_at_005",
    "rate_b",
)

# the settings a statistic must share with the null run whose critical
# values judge it: W's null law depends on each of them
NULL_RUN_KEYS = ("family", "null_param", "dim", "k", "covariance_mode")

_QUANTILE_SCHEME = "order statistics, linear interpolation at h = (M-1)(1-alpha) + 1"

# the most replicates, len(n_grid) * replicates, one config may ask for: a
# run keeps about 210 bytes per replicate until it ends, so 2**23 of them
# stay under 2 GiB
_MAX_REPLICATES = 2**23


def _format_float(x: float) -> str:
    # the one float format of every output table and config: "inf" for +inf
    return repr(float(x))


def parse_param(value) -> float:
    """A tail parameter from a number or the string "inf" ("infinity").

    The one parser for tail parameters in configs and on the command
    line: a string is turned into a number by float(), and the number is
    read by :func:`special._real`.  Raises ValueError for anything else,
    NaN and -inf included.
    """
    try:
        x = _real("tail parameter", float(value) if isinstance(value, str) else value)
    except ValueError:  # a string float() refuses, or special._real's DomainError
        x = -math.inf
    if x == -math.inf:
        raise ValueError(f"expected a number or 'inf', got {_got(value)}")
    return x


def _whole(what: str, value, least: int, below: int | None = None) -> int:
    # an integer config field: special._integer, with the one JSON
    # allowance that an integral float (3.0, 1e3) counts as its integer
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _integer(what, value, least, below)


def _list_of(parse):
    def parse_list(value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"must be a list, got {_got(value)}")
        return tuple(parse(v) for v in value)

    return parse_list


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {_got(value)}")
    return value


def _family(value) -> Family:
    # a Family member or its string, of one of the two tested families
    try:
        family = Family(value)
    except ValueError:
        family = None
    if family not in (Family.STUDENT, Family.PEARSON2):
        raise DomainError(f"family must be student or pearson2, got {_got(value)}")
    return family


def _covariance_mode(value) -> str:
    if not (isinstance(value, str) and value in ("same", "fresh")):
        raise DomainError(f"covariance_mode must be 'same' or 'fresh', got {_got(value)}")
    return value


# config key -> parser of its value, run on every construction (tuples stand
# for JSON lists, a Family for its string)
_CONFIG_FIELDS = {
    "family": _family,
    "true_param": parse_param,
    "null_param": parse_param,
    "dim": lambda v: _whole("dim", v, 1),
    # the upper bounds keep _stream_id one-to-one
    "n_grid": _list_of(lambda v: _whole("each n_grid entry", v, 1, 2**31)),
    "k": lambda v: _whole("k", v, 1),
    "replicates": lambda v: _whole("replicates", v, 2, 2**32),
    "alpha_levels": _list_of(lambda v: _real("each alpha_levels entry", v)),
    "master_seed": lambda v: _whole("master_seed", v, 0, 2**64),
    "max_failure_rate": lambda v: _real("max_failure_rate", v),
    "include_replicates": _boolean,
    "covariance_mode": _covariance_mode,
}


def _check(values: dict) -> tuple[dict, list[str]]:
    """Each config value through its parser, then every rule whose fields
    all parsed: (parsed values, problems)."""
    parsed, problems = {}, []
    for key, value in values.items():
        try:
            parsed[key] = _CONFIG_FIELDS[key](value)
        except ValueError as exc:  # a DomainError names its field
            problems.append(str(exc) if isinstance(exc, DomainError) else f"{key}: {exc}")
    return parsed, problems + _rule_problems(parsed)


def _rule_problems(v: dict) -> list[str]:
    """Every value and cross-field rule on the config values in `v`.  A
    rule on a field that `v` lacks is skipped: it is never judged
    against a stand-in value."""
    problems: list[str] = []
    family = v.get("family")
    if "family" in v:
        tails = {}
        for name in ("true_param", "null_param"):
            if name in v:
                try:
                    tails[name] = tail_family(family, v[name])[0]
                except DomainError as exc:
                    problems.append(f"{name}: {exc}")
        if tails.get("null_param") is Family.PEARSON2 and "k" in v:
            try:
                check_pearson_k(v["k"], v["null_param"])
            except DomainError as exc:
                problems.append(str(exc))
        # a larger dim fails the coordinate limit below, and its int might
        # not convert to a float
        if tails.get("null_param") is family and v.get("dim", math.inf) <= _MAX_COORDINATES:
            try:
                _maximiser_order(family, v["null_param"], v["dim"])
            except DomainError as exc:
                problems.append(f"null_param: {exc}")
    n_grid = v.get("n_grid", ())
    if "n_grid" in v and not n_grid:
        problems.append("n_grid must be non-empty")
    repeated = sorted(n for n, count in collections.Counter(n_grid).items() if count > 1)
    if repeated:
        problems.append("n_grid repeats sample sizes " + ", ".join(map(str, repeated)))
    if "replicates" in v and len(n_grid) * v["replicates"] > _MAX_REPLICATES:
        problems.append(f"{len(n_grid)} sample sizes x {v['replicates']} replicates exceed "
                        f"the limit of {_MAX_REPLICATES} replicates per run")
    for n in n_grid:
        if "dim" in v and n < v["dim"] + 1:
            problems.append(f"sample size {n} below m+1 = {_got(v['dim'] + 1)}")
        if "dim" in v and n * v["dim"] > _MAX_COORDINATES:
            problems.append(f"sample size {n} in m = {_got(v['dim'])} exceeds the limit of "
                            f"{_MAX_COORDINATES} coordinates per draw")
        if "k" in v and n < v["k"] + 1:
            problems.append(f"sample size {n} too small for k = {_got(v['k'])}")
    for a in v.get("alpha_levels", ()):
        if not 0.0 < a < 1.0:
            problems.append(f"alpha level {a} outside (0, 1)")
    if "max_failure_rate" in v and not 0.0 <= v["max_failure_rate"] < 1.0:
        problems.append(f"max_failure_rate {v['max_failure_rate']} outside [0, 1)")
    return problems


def _invalid(problems: list[str]) -> ExperimentError:
    return ExperimentError("invalid experiment config: " + "; ".join(problems))


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one Monte Carlo experiment.

    `family` selects the test statistic (and the sampled family);
    `true_param` is the tail parameter of the sampled distribution and
    `null_param` the one the statistic tests against.  A parameter of
    +inf means Gaussian on either side.  Samples are drawn from
    the standardised distribution (location 0, scale identity).

    `covariance_mode` controls how the maximum-entropy side of the
    statistic is fed; both modes compute W with :func:`gof.statistic`.
    "same" (the default, and the statistic's actual definition)
    estimates the covariance from the sample under test.  "fresh"
    estimates it from an independent draw of the same size and passes
    it as the statistic's `constraint`, which removes the variance
    cancellation between the entropy estimate and the covariance term;
    published critical-value tables produced by harnesses that draw the
    constraint sample separately are only reproducible in this mode.

    The integer fields are read by :func:`special._integer`, so a numpy
    integer is its value, with one JSON allowance: an integral float
    (3.0) counts as its integer.  The real fields, `alpha_levels`
    entries and `max_failure_rate`, are read by :func:`special._real`,
    and the tail parameters by :func:`parse_param`, so a numpy scalar
    there is its value too.  `dim` and `k` are at least 1,
    `replicates` lies in [2, 2**32), each `n_grid` entry in [1, 2**31)
    and `master_seed` in [0, 2**64); a bool, a string or a fractional
    number is no integer.  Two limits bound the work: at most
    :data:`_MAX_REPLICATES` replicates in all (len(n_grid) * replicates),
    and at most :data:`sampler._MAX_COORDINATES` coordinates (N * dim)
    per draw.  The other fields state their own rule, `family` student
    or pearson2, `covariance_mode` "same" or "fresh", the lists and
    `include_replicates` their type, and name a rejected value by
    :func:`special._got`.  Every construction parses the fields, so a
    config built from numpy scalars equals, and hashes as, the one
    built from Python numbers.
    """

    family: Family
    true_param: float
    null_param: float
    dim: int
    n_grid: tuple[int, ...]
    k: int
    replicates: int
    alpha_levels: tuple[float, ...] = (0.01, 0.05, 0.10)
    master_seed: int = 0
    max_failure_rate: float = 0.01
    include_replicates: bool = False
    covariance_mode: str = "same"

    def __post_init__(self) -> None:
        parsed, problems = _check(vars(self))
        if problems:
            raise _invalid(problems)
        for key, value in parsed.items():
            object.__setattr__(self, key, value)

    def to_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            **vars(self),
            "family": self.family.value,
            "true_param": _format_float(self.true_param),
            "null_param": _format_float(self.null_param),
            "n_grid": list(self.n_grid),
            "alpha_levels": list(self.alpha_levels),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from its JSON form without coercing anything.

        Unknown or missing keys, a wrong `schema_version`, values of the
        wrong type (1.7 for an integer, "false" for a boolean) and every
        rule violation among the values that parse are collected and
        raised together as one ExperimentError.
        """
        if not isinstance(data, dict):
            raise ExperimentError("config must be a JSON object")
        problems = []
        version = data.get("schema_version")
        if version != CONFIG_SCHEMA_VERSION:
            problems.append(
                f"unsupported config schema_version {version!r}, expected {CONFIG_SCHEMA_VERSION}"
            )
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            problems.append("config missing required fields: " + ", ".join(missing))
        unknown = [key for key in data if key not in _CONFIG_FIELDS and key != "schema_version"]
        if unknown:
            problems.append("unknown config fields: " + ", ".join(map(repr, unknown)))
        given = {key: data[key] for key in _CONFIG_FIELDS if key in data}
        problems += _check(given)[1]
        if problems:
            raise _invalid(problems)
        return cls(**given)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


@dataclass(frozen=True)
class NResult:
    """Replicate statistic values at one sample size (None marks a
    replicate whose estimator preconditions failed)."""

    n: int
    values: tuple
    failures: tuple

    @property
    def valid_values(self) -> np.ndarray:
        return np.asarray([v for v in self.values if v is not None], dtype=float)


@dataclass(frozen=True)
class McResult:
    """Full outcome of a Monte Carlo experiment."""

    config: ExperimentConfig
    per_n: tuple[NResult, ...]

    def values_at(self, n: int) -> np.ndarray:
        for entry in self.per_n:
            if entry.n == n:
                return entry.valid_values
        raise KeyError(f"no results for sample size {n}")

    def mean_curve(self) -> list[tuple[int, float]]:
        """(N, replicate mean) pairs in grid order."""
        return [(e.n, summarize(e.valid_values)[0]) for e in self.per_n]


def _stream_id(n: int, j: int) -> int:
    # keyed by the sample size value, not its grid index, so extending
    # the grid never perturbs existing replicate streams; the config holds
    # n < 2**31 and j < 2**32, so no two (n, j) share an id and none sets
    # the fresh-covariance bit
    return (n << 32) | j


# high bit marks the auxiliary stream used by covariance_mode="fresh"
_FRESH_COV_BIT = 1 << 63


def _replicate_value(config: ExperimentConfig, n: int, j: int) -> float:
    true_spec = _standard_spec(config.family, config.true_param, config.dim)
    s = sample(true_spec, n, RngStream(config.master_seed, _stream_id(n, j)))
    if config.covariance_mode == "fresh":
        cov_stream = RngStream(config.master_seed, _stream_id(n, j) | _FRESH_COV_BIT)
        return _fresh_cov_statistic(config, s, sample(true_spec, n, cov_stream))
    gof_statistic = student_statistic if config.family is Family.STUDENT else pearson_statistic
    return gof_statistic(s, config.null_param, config.k).value


def _fresh_cov_statistic(config: ExperimentConfig, s, s_cov) -> float:
    _, cov = sample_covariance(s_cov)
    return statistic(s, config.family, config.null_param, config.k, constraint=cov).value


def _replicate_outcome(config: ExperimentConfig, n: int, j: int) -> tuple:
    # (W, None), or (None, "<ErrorType>: <message>") for a replicate whose
    # estimator preconditions failed
    try:
        return _replicate_value(config, n, j), None
    except (DomainError, DuplicatePointsError, NotPositiveDefiniteError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def worker_count(workers: int | None) -> int:
    """The number of worker processes `workers` asks for: for None, the
    CPUs this process may run on; anything but an integer >= 1 raises
    DomainError."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return _integer("workers", workers, 1)


def run_experiment(config: ExperimentConfig, workers: int | None = 1) -> McResult:
    """Run every replicate of the experiment, optionally in parallel.

    `workers` counts as in :func:`worker_count`, capped at the number of
    replicates.  Results are bit-identical for any worker count.  Raises
    ExperimentError if the fraction of failed replicates at any sample
    size exceeds config.max_failure_rate, or leaves fewer than 2 valid
    replicates.
    """
    m_rep = config.replicates
    ns, js = zip(*itertools.product(config.n_grid, range(m_rep)))
    # the pool forks all its workers at the first submit, so start no idle ones
    workers = min(worker_count(workers), len(ns))
    configs = itertools.repeat(config)
    if workers <= 1:
        outcomes = list(map(_replicate_outcome, configs, ns, js))
    else:
        if config.dim > 1:
            # the kd-tree's import, paid once here rather than in every forked worker
            import scipy.spatial  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = -(-m_rep // (4 * workers))
            outcomes = list(pool.map(_replicate_outcome, configs, ns, js, chunksize=chunksize))

    per_n = []
    # map keeps submission order, so each N's outcomes are one slice
    for start, n in zip(range(0, len(outcomes), m_rep), config.n_grid):
        at_n = outcomes[start:start + m_rep]
        values = tuple(v for v, _ in at_n)
        failures = tuple((j, err) for j, (_, err) in enumerate(at_n) if err is not None)
        # the summaries need at least 2 values, whatever the budget allows
        if len(failures) > config.max_failure_rate * m_rep or m_rep - len(failures) < 2:
            raise ExperimentError(
                f"{len(failures)}/{m_rep} replicates failed at N={n} (allowed: a share of "
                f"{config.max_failure_rate}, leaving at least 2); first failure: {failures[0][1]}"
            )
        per_n.append(NResult(n=n, values=values, failures=failures))
    return McResult(config=config, per_n=tuple(per_n))


def _values(values, least: int) -> np.ndarray:
    """Replicate values as a float64 array: the one reader of the
    summary helpers' values, by :func:`special._reals` (finite real
    numbers), then one size rule, a 1-d array of at least `least`."""
    vals = _reals("values", values)
    if vals.ndim != 1 or vals.size < least:
        raise DomainError(f"values need shape (M,) with M >= {least}, got {vals.shape}")
    return vals


def empirical_quantile(values: Sequence[float], alpha: float) -> float:
    """Upper-tail critical value: the empirical (1-alpha) quantile.

    Uses order statistics with linear interpolation at index
    h = (M-1)(1-alpha) + 1 (one-based).  `values` are read by
    :func:`_values`, and `alpha` by :func:`special._real`.
    """
    vals = np.sort(_values(values, 2))
    m_rep = vals.size
    alpha = _real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    h = (m_rep - 1) * (1.0 - alpha) + 1.0
    j = int(math.floor(h))
    if j >= m_rep:
        return float(vals[-1])
    return float(vals[j - 1] + (h - j) * (vals[j] - vals[j - 1]))


def estimate_power(values: Sequence[float], critical_value: float) -> float:
    """Proportion of values strictly exceeding the critical value: the
    values read by :func:`_values`, the critical value, which may be
    +-inf, by :func:`special._real`."""
    return float(np.mean(_values(values, 1) > _real("critical value", critical_value)))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(mean) = log_a + b log(N)."""

    log_a: float
    b: float
    r_squared: float
    excluded: tuple[tuple[int, float], ...] = ()


def fit_convergence_rate(pairs: Iterable[tuple[int, float]]) -> RateFit:
    """Convergence-rate estimate from (N, replicate mean) pairs.

    Each N is read by :func:`special._integer` (N >= 1) and each mean by
    :func:`special._real`.  Pairs whose mean is not positive and finite
    are excluded (and reported in the result) rather than folded in via
    absolute values: sign flips occur where the statistic has
    essentially converged and carry no rate information, and an
    infinite mean has no logarithm to fit.  At least 3 usable pairs
    with distinct N are required.
    """
    pairs = [(_integer("N", n, 1), _real("mean", w)) for n, w in pairs]
    usable = [(n, w) for n, w in pairs if 0 < w < math.inf]
    excluded = tuple((n, w) for n, w in pairs if not 0 < w < math.inf)
    distinct = len({n for n, _ in usable})
    if distinct < 3:
        raise DomainError(
            f"need at least 3 distinct N with positive mean, got {distinct} "
            f"({len(excluded)} pairs excluded)"
        )
    # loaded on first use, not by every process: it imports fractions and decimal
    from statistics import linear_regression

    x, y = np.log(np.array(usable, dtype=float).T)  # log N, log mean
    # least squares of log w on log N, from fsum means and cross-products
    b, log_a = linear_regression(x.tolist(), y.tolist())
    residual = y - (log_a + b * x)
    y_dev = y - math.fsum(y) / y.size
    ss_res = math.fsum(residual * residual)
    ss_tot = math.fsum(y_dev * y_dev)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(log_a=log_a, b=b, r_squared=r_squared, excluded=excluded)


def summarize(values: Sequence[float]) -> tuple[float, float]:
    """Mean and standard error s/sqrt(M) with the unbiased divisor, of
    the values read by :func:`_values`."""
    vals = _values(values, 2)
    m_rep = vals.size
    mean = math.fsum(vals) / m_rep
    var = math.fsum((vals - mean) * (vals - mean)) / (m_rep - 1)
    return mean, math.sqrt(var / m_rep)


def histogram_bins(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(edges, counts) with Freedman-Diaconis bin width, of the values
    read by :func:`_values`."""
    counts, edges = np.histogram(_values(values, 2), bins="fd")
    return edges, counts


# the comment that carries a run's config, read back by read_summary
_CONFIG_COMMENT = "config "


def _comments(config: ExperimentConfig) -> list[str]:
    return [
        f"renyigof {__version__}",
        f"{_CONFIG_COMMENT}{config.canonical_json()}",
        f"config_hash {config.config_hash()}",
        f"master_seed {config.master_seed}",
        f"quantile_scheme {_QUANTILE_SCHEME}",
    ]


def _per_n_rows(result: McResult, alphas: Iterable[float]) -> Iterator[tuple]:
    # one table row's numbers per N, in grid order: (entry, valid values,
    # mean, standard error, {alpha: critical value})
    for entry in result.per_n:
        vals = entry.valid_values
        mean, stderr = summarize(vals)
        yield entry, vals, mean, stderr, {a: empirical_quantile(vals, a) for a in alphas}


def _rate_or_none(pairs: list[tuple[int, float]]) -> float | None:
    try:
        return fit_convergence_rate(pairs).b
    except DomainError:
        return None


def result_to_json(result: McResult, include_replicates: bool | None = None) -> str:
    """Serialise a result deterministically.

    Replicate arrays are included when requested (default: the config's
    include_replicates flag); summaries are always present.
    """
    if include_replicates is None:
        include_replicates = result.config.include_replicates
    per_n = []
    for entry, _, mean, stderr, quantiles in _per_n_rows(result, result.config.alpha_levels):
        item = {
            "n": entry.n,
            "replicates": len(entry.values),
            "failed": len(entry.failures),
            "mean": mean,
            "std_error": stderr,
            "quantiles": {_format_float(a): q for a, q in quantiles.items()},
        }
        if entry.failures:
            item["failures"] = [{"replicate": j, "error": msg} for j, msg in entry.failures]
        if include_replicates:
            item["values"] = list(entry.values)
        per_n.append(item)
    doc = {
        "tool": "renyigof",
        "version": __version__,
        "config": result.config.to_dict(),
        "config_hash": result.config.config_hash(),
        "quantile_scheme": _QUANTILE_SCHEME,
        "rate_b": _rate_or_none([(item["n"], item["mean"]) for item in per_n]),
        "per_n": per_n,
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def write_summary_csv(result: McResult, path, critical_by_n: dict[int, float] | None = None) -> None:
    """Write the per-N summary table.

    `power_at_005` is the rejection rate against `critical_by_n` when a
    reference (null-run) critical table is supplied, and empty at an N
    the table has no row for; otherwise it is the rate against this
    run's own 5% critical value (a self-consistency check that sits near
    0.05 by construction).
    """
    config = result.config
    per_n = list(_per_n_rows(result, ALPHA_COLUMNS))
    rate_b = _rate_or_none([(entry.n, mean) for entry, _, mean, _, _ in per_n])
    rows = []
    for entry, vals, mean, stderr, quantiles in per_n:
        crit = quantiles[0.05] if critical_by_n is None else critical_by_n.get(entry.n)
        rows.append([
            str(config.dim),
            _format_float(config.true_param),
            _format_float(config.null_param),
            str(entry.n),
            str(config.k),
            *map(_format_float, (mean, stderr, *quantiles.values())),
            "" if crit is None else _format_float(estimate_power(vals, crit)),
            "" if rate_b is None else _format_float(rate_b),
        ])
    write_table(path, _comments(config), SUMMARY_COLUMNS, rows)


def write_histogram_csv(result: McResult, n: int, path) -> None:
    """Write Freedman-Diaconis histogram bins of the replicate values at N=n."""
    edges, counts = histogram_bins(result.values_at(n))
    rows = ([_format_float(left), _format_float(right), str(int(count))]
            for left, right, count in zip(edges[:-1], edges[1:], counts))
    write_table(path, [*_comments(result.config), f"sample_size {n}"],
                ("bin_left", "bin_right", "count"), rows)


def read_summary(path, settings: dict) -> dict[float, dict[int, float]]:
    """The critical values of the null-run summary CSV at `path`, written
    by :func:`write_summary_csv`, that may judge a statistic computed
    under `settings` (in :meth:`ExperimentConfig.to_dict` form): {alpha:
    {N: critical value}} at each level of :data:`ALPHA_COLUMNS`.

    The file is read once, through :func:`sampler.read_table`, and its
    run's config comes from the `# config` header line.  DomainError,
    naming the file, is raised for a file that does not decode, has no
    such line or no valid experiment config on it, or has no
    well-formed table; for a row whose N repeats an earlier row's or
    lies outside the config's `n_grid`, or whose critical value is not
    finite; for a run that is not a null run (one whose true_param
    equals its null_param); and for `settings` that differ from the run
    on a key of :data:`NULL_RUN_KEYS`, naming each such key.  A table
    may lack a row of its `n_grid`.
    """
    lines = list(read_table(path))
    prefix = "# " + _CONFIG_COMMENT
    configs = [line[len(prefix):] for _, line, _ in lines if line.startswith(prefix)]
    if not configs:
        raise DomainError(f"{path}: no '# config' header line")
    try:
        config = ExperimentConfig.from_dict(json.loads(configs[0]))
    except (ValueError, ExperimentError) as exc:  # ValueError: bad JSON or an over-long int
        raise DomainError(f"{path}: unreadable config header: {exc}") from None
    table = [row for _, _, row in lines if row is not None]
    needed = ("N", *ALPHA_COLUMNS.values())
    if not table or not set(needed) <= set(table[0]):
        raise DomainError(f"{path}: not a summary table (needs columns {', '.join(needed)})")
    critical = {alpha: {} for alpha in ALPHA_COLUMNS}
    grid = set(config.n_grid)
    for row in (dict(zip(table[0], cells)) for cells in table[1:]):
        try:
            n, values = int(row["N"]), [float(row[column]) for column in ALPHA_COLUMNS.values()]
        except (KeyError, ValueError) as exc:
            raise DomainError(f"{path}: unreadable summary row: {exc}") from None
        if n in critical[0.05] or n not in grid:
            where = "a second row" if n in grid else "a row outside its n_grid"
            raise DomainError(f"critical table {path} has {where} for N={n}")
        for (alpha, column), value in zip(ALPHA_COLUMNS.items(), values):
            if not math.isfinite(value):
                raise DomainError(f"{path}: {column} at N={n} is {value}, not a finite number")
            critical[alpha][n] = value
    theirs = config.to_dict()
    if config.true_param != config.null_param:
        raise DomainError(f"critical table {path} is not from a null run: true_param "
                          f"{theirs['true_param']!r}, null_param {theirs['null_param']!r}")
    differ = [key for key in NULL_RUN_KEYS if settings[key] != theirs[key]]
    if differ:
        raise DomainError(
            f"critical table {path} comes from a different null run: "
            + ", ".join(f"{key} {theirs[key]!r} there, {settings[key]!r} here" for key in differ)
        )
    return critical

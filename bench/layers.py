"""Per-layer numbers from a traced, single-process replay.

The replay runs the CLI's `experiment` command inside this process, with
one worker, on the first `trace_prefix` replicates of each N of a
workload's config; streams are keyed by (seed, N, replicate), so these
are the same replicates, in engine order, that the timed CLI run
computed.  Spans come from wrapping, for the duration of the replay, the
functions one layer module calls in another (plus the engine's
per-replicate function); nothing under `src/` is changed.  `special` is
too small to time and counts inside its callers.

Two micro-benchmarks complete the picture: the closed-form calls of the
`distributions` layer, and the kNN kernel grid, which times
`knn_distances(method="brute")` against `method="tree"` on fixed samples.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

# span name -> the (module, attribute) call sites it wraps
SPANS = {
    "mc.run_experiment": [("mc", "run_experiment")],
    "mc.write": [("mc", "write_summary_csv"), ("mc", "write_histogram_csv"),
                 ("mc", "result_to_json")],
    "mc.replicate": [("mc", "_replicate_value")],
    "sampler.sample": [("mc", "sample")],
    "gof.statistic": [("mc", "student_statistic"), ("mc", "pearson_statistic"),
                      ("mc", "_fresh_cov_statistic")],
    "gof.sample_covariance": [("gof", "sample_covariance"), ("mc", "sample_covariance")],
    "distributions.max_renyi_entropy": [("gof", "max_renyi_entropy"),
                                        ("mc", "max_renyi_entropy")],
    "distributions.check_estimator_conditions": [("gof", "check_estimator_conditions")],
    "knn.estimate": [("gof", "renyi_estimate"), ("gof", "shannon_estimate"),
                     ("mc", "renyi_estimate"), ("mc", "shannon_estimate")],
    "knn.knn_distances": [("knn", "knn_distances")],
}

KERNEL_DIMS = (1, 3)
KERNEL_SIZES = (100, 500, 1000, 5000)


def _size(args) -> int | None:
    """Sample size of a wrapped call: the first Sample's N or int argument."""
    for a in args:
        n = getattr(a, "n", a)
        if isinstance(n, int):
            return n
    return None


class Tracer:
    """In-memory spans [name, start, end, parent index, sample size]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, _size(args)]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        saved = []
        try:
            for name, sites in SPANS.items():
                for module, attr in sites:
                    mod = modules[module]
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(name, original))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def _timed_median(fn, min_reps: int, min_seconds: float, batch: int = 1) -> float:
    """Median seconds per call over at least `min_reps` batches and `min_seconds`."""
    times = []
    spent = 0.0
    while len(times) < min_reps or spent < min_seconds:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        t = time.perf_counter() - start
        spent += t
        times.append(t / batch)
    return statistics.median(times)


def kernel_grid(rg, min_reps: int) -> tuple[dict, list[str]]:
    """Brute and tree kNN kernel times (ms) side by side on fixed samples."""
    metrics: dict = {}
    problems = []
    for m in KERNEL_DIMS:
        for n in KERNEL_SIZES:
            s = rg.Sample(np.random.default_rng(1000 * m + n).standard_normal((n, m)))
            rho = {}
            for method in ("brute", "tree"):
                rho[method] = rg.knn_distances(s, 3, method=method).rho
                t = _timed_median(lambda: rg.knn_distances(s, 3, method=method), min_reps, 0.2)
                metrics[f"knn.{method}_ms.m{m}.n{n}"] = (1e3 * t, "ms")
            if not np.array_equal(rho["brute"], rho["tree"]):
                problems.append(f"brute and tree kNN distances differ at m={m}, N={n}")
    return metrics, problems


def distributions_calls(rg, workload) -> dict:
    """Per-call time (ms) of the two closed-form calls the statistic makes."""
    m = workload.dim
    family = rg.Family(workload.family)
    null = float(workload.null_param)
    _, cov = rg.sample_covariance(rg.Sample(np.random.default_rng(m).standard_normal((100, m))))
    q = rg.max_renyi_entropy(family, cov, null).q
    make_null = rg.student if family is rg.Family.STUDENT else rg.pearson2
    null_spec = make_null(np.zeros(m), rg.SpdMatrix.identity(m), null)
    h_max = _timed_median(lambda: rg.max_renyi_entropy(family, cov, null), 15, 0.05, batch=100)
    check = _timed_median(lambda: rg.check_estimator_conditions(null_spec, q, "L2"), 15, 0.05,
                          batch=100)
    return {
        "distributions.max_renyi_entropy_ms": (1e3 * h_max, "ms"),
        "distributions.check_estimator_conditions_ms": (1e3 * check, "ms"),
    }


def span_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer metrics and per-N detail from the replay's spans."""
    dur = [end - start for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    for (_, _, _, parent, _), d in zip(spans, dur):
        if parent is not None:
            children[parent] += d

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s[0] == name)

    def self_total(name):
        return sum(d - c for s, d, c in zip(spans, dur, children) if s[0] == name)

    rep = [d for s, d in zip(spans, dur) if s[0] == "mc.replicate"]
    n_rep = len(rep)
    rep_total = sum(rep)
    rep_ms = [1e3 * d for d in rep]
    pct = statistics.quantiles(rep_ms, n=100)

    def median_by_n(name):
        by_n: dict[int, list[float]] = {}
        for s, d in zip(spans, dur):
            if s[0] == name:
                by_n.setdefault(s[4], []).append(1e3 * d)
        return {n: statistics.median(v) for n, v in sorted(by_n.items())}

    knn_ms = median_by_n("knn.knn_distances")
    points = sum(s[4] for s in spans if s[0] == "sampler.sample")

    def per_rep_ms(x):
        return 1e3 * x / n_rep

    metrics = {
        "mc.replicate_ms.p50": (pct[49], "ms"),
        "mc.replicate_ms.p99": (pct[98], "ms"),
        "mc.self_ms": (per_rep_ms(self_total("mc.replicate")), "ms"),
        "mc.summary_write_s": (total("mc.write"), "s"),
        "cli.self_ms": (1e3 * self_total("cli.main"), "ms"),
        "sampler.sample_ms": (per_rep_ms(total("sampler.sample")), "ms"),
        "sampler.share": (total("sampler.sample") / rep_total, "fraction"),
        "sampler.points": (points / n_rep, "count"),
        "gof.sample_covariance_ms": (per_rep_ms(total("gof.sample_covariance")), "ms"),
        "gof.statistic_ms": (per_rep_ms(total("gof.statistic")), "ms"),
        "gof.self_ms": (per_rep_ms(self_total("gof.statistic")), "ms"),
        "knn.knn_distances_ms": (per_rep_ms(total("knn.knn_distances")), "ms"),
        "knn.knn_distances_ms.nmin": (knn_ms[min(knn_ms)], "ms"),
        "knn.knn_distances_ms.nmax": (knn_ms[max(knn_ms)], "ms"),
        "knn.reduction_ms": (
            per_rep_ms(total("knn.estimate") - total("knn.knn_distances")), "ms"),
        "knn.share": (total("knn.estimate") / rep_total, "fraction"),
    }
    detail = {
        "replicates": n_rep,
        "knn.knn_distances_ms.by_n": {f"n{n}": v for n, v in knn_ms.items()},
        "mc.replicate_ms.p50.by_n": {
            f"n{n}": v for n, v in median_by_n("mc.replicate").items()},
        "distributions.share": (
            (total("distributions.max_renyi_entropy")
             + total("distributions.check_estimator_conditions")) / rep_total),
        "run_experiment_s": total("mc.run_experiment"),
    }
    return metrics, detail


def trace(modules: dict, workload, config: dict, work: Path, parallel_rps: float,
          min_kernel_reps: int) -> tuple[dict, dict, dict, list[str]]:
    """Traced replay of the config's first `trace_prefix` replicates per N.

    Returns (metrics, detail, the replay's replicates.json document,
    correctness problems found by the kernel grid).
    """
    prefix = dict(config, replicates=workload.trace_prefix)
    prefix_path = work / "prefix.json"
    prefix_path.write_text(json.dumps(prefix))
    replicates = len(workload.n_grid) * workload.trace_prefix

    # plain single-process baseline, untraced
    cfg = modules["mc"].ExperimentConfig.from_dict(prefix)
    serial_s = _timed_median(lambda: modules["mc"].run_experiment(cfg, workers=1), 3, 0.0)
    serial_rps = replicates / serial_s

    tracer = Tracer()
    out = work / "replay"
    argv = ["experiment", str(prefix_path), "--out-dir", str(out), "--replicates-json",
            "--workers", "1"]
    with tracer.installed(modules), contextlib.redirect_stdout(io.StringIO()):
        code = tracer.wrap("cli.main", modules["cli"].main)(argv)
    if code != 0:
        raise RuntimeError(f"traced replay exited with {code}")
    replay = json.loads((out / "replicates.json").read_text())

    metrics, detail = span_metrics(tracer.spans)
    metrics["mc.serial_replicates_per_s"] = (serial_rps, "1/s")
    metrics["mc.parallel_speedup"] = (parallel_rps / serial_rps, "ratio")
    metrics.update(distributions_calls(modules["rg"], workload))
    grid, problems = kernel_grid(modules["rg"], min_kernel_reps)
    metrics.update(grid)
    detail.update(
        serial_s=serial_s,
        parallel_speedup_base="timed CLI run with --workers nproc (wall minus setup_s) over "
        "in-process run_experiment(workers=1) on the replayed prefix, untraced, median of 3",
        trace_overhead_frac=detail["run_experiment_s"] / serial_s - 1.0,
    )
    return metrics, detail, replay, problems

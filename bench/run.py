"""Benchmark for `renyigof experiment`, end to end and per layer.

    python3 bench/run.py --workload crit-m1-fresh --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Run from anywhere; the program is imported from `src/` of the checkout
that holds this file, and nothing is installed.  With `--trace 0` the
benchmark drives the CLI (`experiment <config> --out-dir ...
--replicates-json --workers <nproc>`) in a closed loop, one experiment
at a time, for `--seconds` seconds, and reports the end-to-end metrics.
With `--trace 1` it runs one such experiment and then the traced
single-process replay of `layers.py` for the per-layer metrics.

Every run first passes the correctness gate: the CLI run at the two gate
seeds must reproduce the recorded sha256 of `summary.csv`, and every
experiment's `replicates.json` must match an in-process replay bit for
bit.  Human-readable lines go to stdout, the full record (machine facts,
samples, per-N detail) to `bench/out/`, and the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 only when the gate passed.  See `bench/README.md`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

SETUP_REPS = 5  # `renyigof --version` runs per run; setup_s is their median
REPLAY_CHECK = 2  # replicates per N replayed in-process to check each timed experiment
KERNEL_REPS = 3  # minimum repetitions of each kernel-grid cell
DEADLINE_S = 170.0  # the whole run, gate and set-up included


class BenchError(Exception):
    """The benchmark cannot run here (missing source, program crash)."""


@dataclass(frozen=True)
class CliRun:
    returncode: int
    wall_s: float
    cpu_s: float  # user + system of the CLI and every worker it reaped
    sys_s: float  # the system part of cpu_s
    peak_rss_mb: float  # largest resident set of the CLI or any worker


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(args: list[str], log: Path, deadline: float) -> CliRun:
    """Run `renyigof <args>` from source, timed from start to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "renyigof.cli", *args], stdout=fh,
                                stderr=subprocess.STDOUT, env=env, start_new_session=True)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_stime,
                  usage.ru_maxrss / 1024)


def measure_setup(work: Path, reps: int, deadline: float) -> list[float]:
    """Wall times of `renyigof --version`: interpreter start plus full import."""
    log = work / "version.log"
    walls = []
    for i in range(reps + 1):  # the first run compiles bytecode and warms the page cache
        run = run_cli(["--version"], log, deadline)
        if run.returncode != 0:
            raise BenchError(f"`renyigof --version` exited {run.returncode}: {log.read_text()}")
        if i:
            walls.append(run.wall_s)
    return walls


def run_experiment(config: dict, exp: Path, nproc: int, deadline: float) -> CliRun:
    exp.mkdir(parents=True)
    path = exp / "config.json"
    path.write_text(json.dumps(config))
    args = ["experiment", str(path), "--out-dir", str(exp), "--replicates-json",
            "--workers", str(nproc)]
    return run_cli(args, exp / "cli.log", deadline)


def replay_mismatches(engine: dict, replay: dict, prefix: int) -> list[str]:
    """Replicate values of `replay` that differ from the engine's first `prefix` per N."""
    problems = []
    for e, r in zip(engine["per_n"], replay["per_n"], strict=True):
        want = [repr(v) for v in e["values"][:prefix]]
        got = [repr(v) for v in r["values"][:prefix]]
        if want != got:
            problems.append(f"N={e['n']}: replay {got} != engine {want}")
    return problems


def check_experiment(mc, config: dict, exp: Path, run: CliRun,
                     summary_sha256: str | None) -> tuple[int, list[str]]:
    """Correctness gate for one CLI experiment: (failed replicates, problems)."""
    if run.returncode != 0:
        log = (exp / "cli.log").read_text()[-2000:]
        return 0, [f"CLI exited {run.returncode}: {log}"]
    problems = []
    if summary_sha256 is not None:
        digest = hashlib.sha256((exp / "summary.csv").read_bytes()).hexdigest()
        if digest != summary_sha256:
            problems.append(f"summary.csv sha256 {digest} != recorded {summary_sha256}")
    engine = json.loads((exp / "replicates.json").read_text())
    if [e["n"] for e in engine["per_n"]] != config["n_grid"] or any(
            len(e["values"]) != config["replicates"] for e in engine["per_n"]):
        return 0, problems + ["replicates.json does not match the config's grid"]
    prefix = dict(config, replicates=REPLAY_CHECK)
    result = mc.run_experiment(mc.ExperimentConfig.from_dict(prefix), workers=1)
    replay = json.loads(mc.result_to_json(result, include_replicates=True))
    problems += replay_mismatches(engine, replay, REPLAY_CHECK)
    return sum(e["failed"] for e in engine["per_n"]), problems


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_facts(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_commit": _git_commit(),
    }


def _import_program() -> dict:
    if not (SRC / "renyigof" / "cli.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import renyigof
    from renyigof import cli, gof, knn, mc

    return {"rg": renyigof, "cli": cli, "gof": gof, "knn": knn, "mc": mc}


def run(workload, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """One benchmark run; returns the full record (see the module docstring)."""
    deadline = time.monotonic() + DEADLINE_S
    modules = _import_program()
    mc = modules["mc"]
    nproc = len(os.sched_getaffinity(0))
    reps_in = len(workload.n_grid)
    attempted = failed = 0
    problems: list[str] = []
    samples: dict[str, list[float]] = {
        "replicates_per_s": [], "cpu_ms_per_replicate": [], "peak_rss_mb": [], "sys_share": []}
    record: dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "machine": machine_facts(nproc)}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        work = Path(tmp)
        setup = measure_setup(work, 1 if quick else SETUP_REPS, deadline)
        setup_s = statistics.median(setup)

        for gate_seed in (DEFAULT_SEED, HELD_OUT_SEED):
            config = workload.config(gate_seed, 0, workload.gate_replicates)
            exp = work / f"gate-{gate_seed}"
            cli_run = run_experiment(config, exp, nproc, deadline)
            attempted += reps_in * config["replicates"]
            bad, found = check_experiment(mc, config, exp, cli_run,
                                          workload.summary_sha256[gate_seed])
            failed += bad
            problems += [f"gate seed {gate_seed}: {p}" for p in found]

        # closed loop: the next experiment starts when the previous one has
        # been written; stop before an experiment would overrun --seconds
        elapsed = last = 0.0
        index = 0
        while not problems and (index == 0 or (not trace and elapsed + last <= seconds)):
            config = workload.config(seed, index)
            exp = work / f"exp-{index}"
            cli_run = run_experiment(config, exp, nproc, deadline)
            replicates = reps_in * config["replicates"]
            attempted += replicates
            elapsed += cli_run.wall_s
            last = cli_run.wall_s
            bad, found = check_experiment(mc, config, exp, cli_run, None)
            failed += bad
            problems += [f"experiment {index}: {p}" for p in found]
            samples["replicates_per_s"].append(replicates / (cli_run.wall_s - setup_s))
            samples["cpu_ms_per_replicate"].append(1e3 * cli_run.cpu_s / replicates)
            samples["peak_rss_mb"].append(cli_run.peak_rss_mb)
            samples["sys_share"].append(cli_run.sys_s / cli_run.cpu_s)
            index += 1

        metrics: dict = {}
        if trace and not problems:
            import layers

            engine = json.loads((work / "exp-0" / "replicates.json").read_text())
            quick_workload = replace(workload, trace_prefix=2) if quick else workload
            metrics, detail, replay, found = layers.trace(
                modules, quick_workload, config, work, samples["replicates_per_s"][0],
                1 if quick else KERNEL_REPS)
            attempted += detail["replicates"]
            problems += found
            problems += [f"traced replay: {p}" for p in
                         replay_mismatches(engine, replay, quick_workload.trace_prefix)]
            record["layers"] = detail
        elif not problems:
            metrics = {
                "replicates_per_s": (statistics.median(samples["replicates_per_s"]), "1/s"),
                "cpu_ms_per_replicate": (
                    statistics.median(samples["cpu_ms_per_replicate"]), "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
            }

    if problems:
        failed = attempted
    record.update(
        correct=not problems, attempted=attempted, failed=failed, problems=problems,
        failed_frac=failed / attempted, setup_samples_s=setup, samples=samples,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return record


def report(record: dict) -> None:
    """Human-readable lines, the result file, and the final JSON line."""
    n_exp = len(record["samples"]["replicates_per_s"])
    for name, m in record["metrics"].items():
        count = len(record["setup_samples_s"]) if name == "setup_s" else n_exp
        base = f" (median of {count})" if not record["trace"] else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{base}")
    print(f"failed_frac = {record['failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} replicates)")
    for p in record["problems"]:
        print(f"CORRECTNESS: {p}")
    path = OUT / f"{record['workload']}.seed{record['seed']}.trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def self_test() -> int:
    """Every workload at a tiny size, both modes; then a deliberately corrupted output."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        print(f"self-test: BENCHMARK.json names unknown workloads {unknown}", file=sys.stderr)
        return 1
    errors = []
    for workload in WORKLOADS.values():
        tiny = replace(workload, replicates=4)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = run(tiny, DEFAULT_SEED, 0, trace, quick=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in record["metrics"].items()}
            if got != want or not record["correct"]:
                errors.append(f"{workload.name} trace={int(trace)}: metrics {got} != {want}, "
                              f"problems {record['problems']}")

    mc = _import_program()["mc"]
    workload = next(iter(WORKLOADS.values()))
    config = workload.config(DEFAULT_SEED, 0, workload.gate_replicates)
    sha = workload.summary_sha256[DEFAULT_SEED]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="selftest-") as tmp:
        exp = Path(tmp) / "gate"
        cli_run = run_experiment(config, exp, 1, time.monotonic() + DEADLINE_S)
        if check_experiment(mc, config, exp, cli_run, sha)[1]:
            errors.append("the gate fails on uncorrupted output")
        # the last digit of the summary table; the first digit after the
        # decimal point of the first replicate value
        for name, pattern in (("summary.csv", rb"(\d)\D*$"),
                              ("replicates.json", rb'"values": \[\s*-?\d+\.(\d)')):
            path = exp / name
            original = path.read_bytes()
            at = re.search(pattern, original).start(1)
            path.write_bytes(original[:at] + bytes([original[at] ^ 1]) + original[at + 1:])
            if not check_experiment(mc, config, exp, cli_run, sha)[1]:
                errors.append(f"the gate did not trip on a corrupted {name}")
            path.write_bytes(original)
    for e in errors:
        print(f"self-test: {e}", file=sys.stderr)
    print("self-test " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

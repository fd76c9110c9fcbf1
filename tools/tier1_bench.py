"""Time the Tier-1 suite and write its record to BENCH_tier1.json.

    python3 tools/tier1_bench.py             # run the suite, write the record
    python3 tools/tier1_bench.py --out FILE  # write it elsewhere

Runs `python -m pytest -q --continue-on-collection-errors --durations=10`
with `src/` on PYTHONPATH, in the root of the checkout that holds this
file, and writes one JSON object: the suite's wall time, its passed and
failed counts and failing test ids, the ten slowest test phases, and the
machine facts of `bench/run.py` (CPUs, CPU model, platform, Python,
numpy, scipy, git commit).  The exit code is the suite's.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=10", "-p", "no:cacheprovider"]

# "7.21s call     tests/test_x.py::TestY::test_z[1]"
_DURATION = re.compile(r"^(\d+\.\d+)s (setup|call|teardown) +(\S+)$")
# "2 failed, 624 passed, 3 warnings in 56.10s"
_COUNT = re.compile(r"(\d+) (passed|failed|error|errors|skipped|xfailed|xpassed)\b")


def parse(output: str) -> dict:
    """The counts, failing ids and slowest phases of pytest's -q output."""
    lines = output.splitlines()
    summary = next((line for line in reversed(lines) if " in " in line and _COUNT.search(line)),
                   "")
    counts = {word: int(n) for n, word in _COUNT.findall(summary)}
    slowest = [{"seconds": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(_DURATION.match, lines) if m]
    failures = [line.split(" ", 1)[1].split(" - ")[0] for line in lines
                if line.startswith(("FAILED ", "ERROR "))]
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "failures": failures, "slowest": slowest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_tier1.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "bench"))
    from run import machine_facts  # noqa: E402

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    done = subprocess.run(COMMAND, cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    sys.stdout.write(done.stdout[-2000:])
    record = {"suite": "tier1", "command": " ".join(["python", *COMMAND[1:]]),
              "wall_s": round(wall_s, 2), **parse(done.stdout),
              "machine": machine_facts(len(os.sched_getaffinity(0)))}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return done.returncode


if __name__ == "__main__":
    raise SystemExit(main())

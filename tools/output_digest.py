"""sha256 of the output bytes of a fixed grid of small experiments.

    python3 tools/output_digest.py          # one line per config, then the total
    python3 tools/output_digest.py --total  # the total only

Run from anywhere; the program is imported from `src/` of the checkout
that holds this file, and nothing is installed.  Each config's digest is
the sha256 of `mc.result_to_json(result, include_replicates=True)`, so it
covers every replicate's value; the total is the sha256 of all the
per-config lines.  A change that must keep output bytes (a speed-up, a
refactor) prints the same total before and after it.

The grid: both families with a finite and an infinite parameter on the
true or the null side, m = 1, 2, 3, both covariance modes, k = 1 and 3,
master seeds 1 and 2026, and N = 30, 199, 200, 201, 1000 (both sides of
the exact sum's size switch), 8 replicates each: 96 configs,
run in one process.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from renyigof import mc  # noqa: E402

# (family, true_param, null_param): finite on both sides, inf on one
LAWS = (
    ("student", 10.0, 10.0),
    ("student", "inf", 5.0),
    ("pearson2", 2.0, "inf"),
    ("pearson2", "inf", 2.0),
)
DIMS = (1, 2, 3)
MODES = ("same", "fresh")
KS = (1, 3)
SEEDS = (1, 2026)
N_GRID = (30, 199, 200, 201, 1000)
REPLICATES = 8


def grid() -> list[dict]:
    """The configs, in a fixed order."""
    return [
        {
            "schema_version": 1, "family": family, "true_param": true_param,
            "null_param": null_param, "dim": dim, "n_grid": list(N_GRID), "k": k,
            "replicates": REPLICATES, "master_seed": seed, "covariance_mode": mode,
        }
        for (family, true_param, null_param), dim, mode, k, seed
        in itertools.product(LAWS, DIMS, MODES, KS, SEEDS)
    ]


def digest(config: dict) -> str:
    result = mc.run_experiment(mc.ExperimentConfig.from_dict(config), workers=1)
    return hashlib.sha256(mc.result_to_json(result, include_replicates=True).encode()).hexdigest()


def label(config: dict) -> str:
    return ("{family} true={true_param} null={null_param} m={dim} {covariance_mode} "
            "k={k} seed={master_seed}".format(**config))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--total", action="store_true", help="print the total digest only")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for config in grid():
        line = f"{digest(config)}  {label(config)}"
        total.update(line.encode() + b"\n")
        if not args.total:
            print(line)
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

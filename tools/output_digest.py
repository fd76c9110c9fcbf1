"""sha256 of the output bytes of a fixed grid of small experiments.

    python3 tools/output_digest.py          # one line per config, then the totals
    python3 tools/output_digest.py --total  # the totals only

Run from anywhere; the program is imported from `src/` of the checkout
that holds this file, and nothing is installed.  Each config has two
digests.  Its JSON digest is the sha256 of
`mc.result_to_json(result, include_replicates=True)`, so it covers every
replicate's value.  Its tables digest is the sha256 of the bytes
`mc.write_summary_csv` writes (self-referenced, then against a reference
table whose only row is the first N, at critical value 0) followed by
those of `mc.write_histogram_csv` at each N.  Each total is the sha256
of the per-config lines of one kind, printed as "<total>  total" and
"<total>  tables total".  A change that must keep output bytes (a
speed-up, a refactor) prints the same totals before and after it.

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
import tempfile
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


def digests(config: dict, tmp: Path) -> tuple[str, str]:
    """The config's JSON digest and tables digest; the tables are written
    under `tmp`."""
    result = mc.run_experiment(mc.ExperimentConfig.from_dict(config), workers=1)
    json_digest = hashlib.sha256(mc.result_to_json(result, include_replicates=True).encode())
    tables = hashlib.sha256()
    for critical_by_n in (None, {config["n_grid"][0]: 0.0}):
        mc.write_summary_csv(result, tmp / "summary.csv", critical_by_n=critical_by_n)
        tables.update((tmp / "summary.csv").read_bytes())
    for n in config["n_grid"]:
        mc.write_histogram_csv(result, n, tmp / "hist.csv")
        tables.update((tmp / "hist.csv").read_bytes())
    return json_digest.hexdigest(), tables.hexdigest()


def label(config: dict) -> str:
    return ("{family} true={true_param} null={null_param} m={dim} {covariance_mode} "
            "k={k} seed={master_seed}".format(**config))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--total", action="store_true", help="print the totals only")
    args = parser.parse_args(argv)
    total, tables_total = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for config in grid():
            json_digest, tables_digest = digests(config, Path(tmp))
            total.update(f"{json_digest}  {label(config)}\n".encode())
            tables_total.update(f"{tables_digest}  {label(config)}\n".encode())
            if not args.total:
                print(f"{json_digest}  {tables_digest}  {label(config)}")
    print(f"{total.hexdigest()}  total")
    print(f"{tables_total.hexdigest()}  tables total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare the convergence-rate least squares of `mc.fit_convergence_rate`
with the running Python's `statistics.linear_regression`, bit for bit.

    python3 tools/rate_fit_crosscheck.py [--fits 20000] [--seed 1]

Standard library only, so any Python 3.10+ runs it, with numpy or
without.  Each fit is on the N grid of the `crit-m1-fresh` benchmark
workload, with log means y = log(1.5/N (1 + e)), e ~ Normal(0, 0.1) from
`random.gauss` after `random.seed(seed)`: the shape of a Gaussian null
mean.  It prints the Python version, the number of fits, how many
slopes and intercepts differ between the two, and the sha256 of the
fsum fits' bytes, which Python 3.10 to 3.13 print alike.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import platform
import random
import struct
from statistics import linear_regression

N_GRID = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000, 2000, 3000, 4000, 5000)


def fsum_fit(x: list[float], y: list[float]) -> tuple[float, float]:
    """(slope, intercept) of y on x from fsum means and fsum cross-products,
    the arithmetic of `mc.fit_convergence_rate` in Python floats."""
    x_bar = math.fsum(x) / len(x)
    y_bar = math.fsum(y) / len(y)
    dx = [xi - x_bar for xi in x]
    dy = [yi - y_bar for yi in y]
    b = math.fsum(u * v for u, v in zip(dx, dy)) / math.fsum(u * u for u in dx)
    return b, y_bar - b * x_bar


def differences(fits: int, seed: int) -> tuple[int, int, str]:
    """How many of `fits` random fits differ in slope, and in intercept,
    and the sha256 of the fsum fits as little-endian float64 pairs."""
    random.seed(seed)
    x = [math.log(n) for n in N_GRID]
    slopes = intercepts = 0
    digest = hashlib.sha256()
    for _ in range(fits):
        y = [math.log(1.5 / n * (1.0 + random.gauss(0.0, 0.1))) for n in N_GRID]
        ours, theirs = fsum_fit(x, y), linear_regression(x, y)
        slopes += ours[0] != theirs.slope
        intercepts += ours[1] != theirs.intercept
        digest.update(struct.pack("<2d", *ours))
    return slopes, intercepts, digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fits", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    slopes, intercepts, digest = differences(args.fits, args.seed)
    print(f"Python {platform.python_version()}: {args.fits} fits, "
          f"{slopes} slopes and {intercepts} intercepts differ from linear_regression; "
          f"fsum fits sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

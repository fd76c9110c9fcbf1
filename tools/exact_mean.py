"""The exact mean of W under a Gaussian null at m = 1, by quadrature.

    python3 tools/exact_mean.py

Run from anywhere; the program is imported from `src/` of the checkout
that holds this file, and nothing is installed.  For criterion 7's
case, k = 3 on its grid of N, it prints one line per N, "N  E[W]
N E[W]", and then the least-squares rate b of log E[W] on log N from
`mc.fit_convergence_rate`, the fit criterion 7 makes of the engine's
means: the value its b tends to as the replicates grow.  Other k and N
are `exact_mean(n, k)`.

At a Gaussian null (null parameter +inf) and m = 1, W = H_max(S) - H_hat
is linear in log S and in the log rho_k:

    W = 1/2 log(2 pi e S) - mean(log rho_k) - log 2 - log(N-1) + psi(k),

with S the sample variance (divisor N-1) and rho_k each point's k-th
neighbour distance.  Its mean is the same in both covariance modes,
because an independent draw's S has the same law.  Two terms are exact:

- (N-1) S is chi-squared with N-1 degrees of freedom, so
  E[log S] = psi((N-1)/2) + log 2 - log(N-1);
- the standard normal mass p = Phi(x+r) - Phi(x-r) of the ball of the
  k-th neighbour distance r around a point x is the k-th smallest of
  N-1 uniforms, Beta(k, N-k), whatever x is (Kozachenko & Leonenko
  1987), so E[log rho_k] = psi(k) - psi(N) + E[log(r/p)].

The last mean is a 2-D integral over x ~ N(0, 1) and p, taken by
Gauss-Hermite quadrature in x and Gauss-Legendre quadrature in p's Beta
quantile, with r solved from p by bisection.  log(r/p) is smooth: it
tends to -log(2 phi(x)) as p -> 0.  Where the Monte Carlo engine's
mean of W comes within a few standard errors of this value, the engine
computes W right; `tests/test_gof.py` checks that at small N.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import betaincinv, digamma, ndtr

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from renyigof import mc  # noqa: E402

# criterion 7's grid and neighbour (tests/test_acceptance.py, TestCriterion7Table1Rates)
GRID = (*range(100, 1000, 100), *range(1000, 6000, 1000))
K = 3
BISECTIONS = 110  # halvings of [0, |x| + 40]: r to within 1e-31
# Quadrature nodes in each of x and p.  Against 300 Hermite x 1000
# Legendre nodes, E[W] at N = 30 and on GRID is within 8.2e-6 relative
# at 160 nodes and 4.8e-5 at 80; b is -0.951636 at 160 and -0.951641 at 80.
NODES = 160


def ball_radius(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """r with Phi(x+r) - Phi(x-r) = p, elementwise, for 0 < p < 1.  The
    mass is taken as Phi(r-a) - Phi(-a-r) at a = |x|, so neither term
    is near 1 where the mass is small."""
    a, p = np.broadcast_arrays(np.abs(x), p)
    lo, hi = np.zeros_like(p), a + 40.0
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        low = ndtr(mid - a) - ndtr(-a - mid) < p
        lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
    return 0.5 * (lo + hi)


def mean_log_ratio(n: int, k: int) -> float:
    """E[log(r/p)] for x ~ N(0, 1) and p ~ Beta(k, N-k)."""
    x, wx = np.polynomial.hermite_e.hermegauss(NODES)  # weight exp(-x^2/2)
    t, wt = np.polynomial.legendre.leggauss(NODES)
    p = betaincinv(k, n - k, 0.5 * (t + 1.0))
    r = ball_radius(x[:, None], p[None, :])
    return float(wx @ np.log(r / p) @ (0.5 * wt)) / math.sqrt(2.0 * math.pi)


def exact_mean(n: int, k: int) -> float:
    """E[W] at a Gaussian null, m = 1, sample size n, neighbour k < n."""
    mean_log_s = digamma((n - 1) / 2.0) + math.log(2.0) - math.log(n - 1)
    mean_log_rho = digamma(k) - digamma(n) + mean_log_ratio(n, k)
    return (0.5 * (math.log(2.0 * math.pi * math.e) + mean_log_s) - mean_log_rho
            - math.log(2.0) - math.log(n - 1) + digamma(k))


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    means = [(n, exact_mean(n, K)) for n in GRID]
    for n, w in means:
        print(f"{n:6d}  {w:.10e}  {n * w:.6f}")
    fit = mc.fit_convergence_rate(means)
    print(f"b = {fit.b:.4f} (r2 = {fit.r_squared:.4f}), k = {K}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

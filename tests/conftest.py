import enum

import numpy as np
import pytest
from hypothesis import settings

# Property tests are derandomized and keep no example database, so a run
# is reproducible and leaves no files behind; each test sets its own
# max_examples on top of this profile.
settings.register_profile("renyigof", derandomize=True, database=None, deadline=None)
settings.load_profile("renyigof")


def pytest_make_parametrize_id(config, val, argname):
    """Name an enum member in a test id by its value, so a `Family`
    member reads "student", as the command line's --family does."""
    if isinstance(val, enum.Enum):
        return str(val.value)
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def dyadic_points(gen, n, m, scale=8.0, bits=20):
    """Random points snapped to a dyadic grid.

    Coordinates are multiples of 2^-bits with magnitude <= scale, so
    adding an integer translation (or any multiple of 2^-bits with a
    few spare mantissa bits) is exact in float64.  Bit-identity claims
    about translation invariance are only well-posed on such inputs.
    """
    raw = gen.uniform(-scale, scale, size=(n, m))
    return np.round(raw * 2.0**bits) / 2.0**bits


def random_orthogonal(gen, m):
    q, r = np.linalg.qr(gen.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def kernel_order(points, method):
    """The order in which `knn_distances(Sample(points), k, method)` lists
    the points: ascending x for the sorted kernel ("auto" at m = 1) and
    point order for every other kernel.  Indexing a point-order result,
    such as brute force's rho, with it puts both in one row order."""
    if method == "auto" and points.shape[1] == 1:
        return np.argsort(points[:, 0], kind="stable")
    return np.arange(points.shape[0])

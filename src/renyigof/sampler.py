"""Seeded, replayable sampling from the three elliptical families.

Streams are keyed by (seed, stream_id) through a counter-based Philox
generator, so distinct replicates of a Monte Carlo experiment can be
drawn in any order, on any number of workers, with identical results.

Student vectors use the classical normal/chi-square variance mixture
X = a + L Z sqrt(nu/W); Pearson II vectors use the stochastic
representation X = a + R L U with R^2 ~ Beta(m/2, eta+1) and U uniform
on the unit sphere (Johnson 1987).  Here L is the lower Cholesky factor
of Sigma.

The module also holds the one text-table format of every CSV the
package writes or reads (samples, summaries, histograms): `# ` comment
lines, a header line and comma-separated rows, each line ending in LF,
in UTF-8.  :func:`write_table` writes it and :func:`read_table` reads
it, through :func:`read_lines`, which also decodes JSON configs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .distributions import DistributionSpec, Family
from .errors import DomainError
from .special import _integer, _reals

# the most coordinates, n * m, one draw may hold: its costliest use,
# `renyigof sample` at m = 1, peaks at about 220 bytes per coordinate
# (the draw and its CSV text), so 2**23 of them stay under 2 GiB
_MAX_COORDINATES = 2**23


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A 128-bit Philox key, handed to Philox as the seed sequence it reads.

    Philox(key=k) first seeds a SeedSequence from OS entropy and then
    ignores it; Philox(_PhiloxKey(k)) reads k itself, so its state and
    draws are those of Philox(key=k), without that detour.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {dtype}")
        return self.key


class RngStream:
    """An independent random stream identified by (seed, stream_id).

    Both identifiers are integers in [0, 2**64), of any integral type
    but bool; anything else raises DomainError, a float or a string
    with an integral value included.  Reconstructing a stream with the
    same identifiers replays the same byte sequence; distinct stream_ids
    share no state.
    A stream is single-owner: draws advance it, so pass each consumer
    its own.
    """

    __slots__ = ("seed", "stream_id", "_generator")

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self.seed = _integer("seed", seed, 0, 2**64)
        self.stream_id = _integer("stream_id", stream_id, 0, 2**64)
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._generator = np.random.Generator(np.random.Philox(_PhiloxKey(key)))
        return self._generator

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True, eq=False)
class Sample:
    """An N x m matrix of observation points: finite real numbers, read
    by :func:`special._reals`."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = _reals("sample points", self.points)
        if pts.ndim != 2:
            raise DomainError(f"sample points must be an (n, m) matrix, got ndim={pts.ndim}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DomainError(f"sample must be non-empty, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _sphere_block(m: int, n: int, gen: np.random.Generator) -> np.ndarray:
    # n points uniform on the surface of the unit sphere in R^m
    u = gen.standard_normal((n, m))
    norms = np.linalg.norm(u, axis=1)
    while (norms == 0.0).any():  # pragma: no cover - probability zero
        bad = norms == 0.0
        u[bad] = gen.standard_normal((int(bad.sum()), m))
        norms = np.linalg.norm(u, axis=1)
    u /= norms[:, None]
    return u


def sample(spec: DistributionSpec, n: int, rng: RngStream) -> Sample:
    """Draw n independent points from `spec`.

    The result is a pure function of (spec, n, seed, stream_id) when the
    stream is freshly constructed.  A draw of more than
    :data:`_MAX_COORDINATES` coordinates (n * m) raises DomainError
    before anything is drawn.
    """
    n = _integer("sample size", n, 1)
    m = spec.dim
    if n * m > _MAX_COORDINATES:
        raise DomainError(f"{n} points in m = {m} are {n * m} coordinates, "
                          f"more than one draw may hold ({_MAX_COORDINATES})")
    gen = rng.generator

    # each step mixes in place, with the roundings of z * sqrt(nu / w)
    # and r * u
    if spec.family is Family.GAUSSIAN:
        core = gen.standard_normal((n, m))
    elif spec.family is Family.STUDENT:
        nu = spec.param
        core = gen.standard_normal((n, m))
        w = gen.chisquare(nu, n)
        np.divide(nu, w, out=w)
        np.sqrt(w, out=w)
        core *= w[:, None]
    else:
        eta = spec.param
        core = _sphere_block(m, n, gen)
        r = gen.beta(m / 2.0, eta + 1.0, n)
        np.sqrt(r, out=r)
        core *= r[:, None]

    # core @ I equals core up to the sign of a zero (and, at m >= 2, it
    # turns an inf into NaN, which fails the finiteness check all the
    # same); adding a location with no -0.0 entry, as spec.unit_scale
    # requires, gives such a zero the one sign the matmul path gives it,
    # so skipping the matmul keeps every byte.  The add stays even for a
    # zero location: without it a -0.0 in core would survive where
    # core @ I + 0 gives +0.0.
    if not spec.unit_scale:
        core = core @ spec.scale.chol.T
    core += spec.location
    return Sample(core)


def write_table(path, comments, header, rows) -> None:
    """Write a text table: each of `comments` as a '# ' line, then
    `header` and each of `rows` (sequences of strings) comma-joined,
    every line ending in LF, as UTF-8."""
    lines = [*(f"# {text}" for text in comments), ",".join(header), *map(",".join, rows)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 file, each ending in LF but perhaps the last,
    without a leading byte-order mark.  A file that does not decode
    raises DomainError naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text: {exc}") from None


def read_table(path) -> Iterator[tuple[int, str, list[str] | None]]:
    """The lines of a text table written by :func:`write_table`, read by
    :func:`read_lines`: (line number, line, fields) for each line that
    is not blank, with the line stripped of surrounding whitespace and
    its CSV fields, or None for a comment line (one starting with '#')."""
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if line:
            yield lineno, line, None if line.startswith("#") else next(csv.reader([line]))


def write_csv(s: Sample, path, metadata: list[str] | None = None) -> None:
    """Write a sample as a text table: header x1,...,xm, round-trip floats.

    `metadata` lines, if given, are written first as '#' comments.
    """
    header = [f"x{j + 1}" for j in range(s.dim)]
    write_table(path, metadata or (), header, (map(repr, row) for row in s.points.tolist()))


def read_csv(path) -> Sample:
    """Read a sample written by :func:`write_csv`, through :func:`read_table`.

    Raises DomainError for a file that does not decode, an empty file, a
    first row of numbers where the header belongs, ragged rows, or
    non-numeric entries.
    """
    rows, width = [], None
    for lineno, _, row in read_table(path):
        if row is None:
            continue
        if width is None:  # the header line
            width = len(row)
            try:
                [float(v) for v in row]
            except ValueError:
                continue
            raise DomainError(f"{path}:{lineno}: expected a header line, got a row of numbers")
        if len(row) != width:
            raise DomainError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError:
            raise DomainError(f"{path}:{lineno}: non-numeric value") from None
    if width is None:
        raise DomainError(f"{path}: empty file")
    if not rows:
        raise DomainError(f"{path}: no data rows")
    return Sample(np.asarray(rows, dtype=float))

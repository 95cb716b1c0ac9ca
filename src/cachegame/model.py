"""Core domain types, configuration handling and the Zipf popularity generator."""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROB_TOL = 1e-9
CAPACITY_TOL = 1e-6
# the most packets per file: float64 rounding keeps every count in [0, n]
MAX_FRAGMENTS = 2**52


def _probability_vector(values, name: str) -> np.ndarray:
    """`values` as a read-only probability vector; ValueError naming `name` if not."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty one-dimensional vector")
    # written so that a NaN entry fails the test: the minimum is then NaN
    if not (arr.min() >= 0 and abs(arr.sum() - 1.0) <= PROB_TOL):
        raise ValueError(f"{name} must be non-negative and sum to 1")
    arr.setflags(write=False)
    return arr


def _check_count(value, name: str, low: int, high: int | None = None) -> int:
    """`value` as a Python int; ValueError naming `name` unless it is an
    integer (numpy's pass, a bool does not) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low or (high is not None and value > high):
        raise ValueError(f"{name} must be >= {low}, got {value}" if high is None
                         else f"{name} must lie in [{low}, {high}], got {value}")
    return value


@dataclass(frozen=True)
class LibraryConfig:
    """File library of N files."""

    num_files: int

    def __post_init__(self):
        _check_count(self.num_files, "num_files", 1)


@dataclass(frozen=True)
class PopularityDist:
    """Request distribution over the library: the popularity or an adversary strategy."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs",
                           _probability_vector(self.probs, "request distribution"))

    @property
    def num_files(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class CoverageProfile:
    """gamma[d-1] = probability that a user is covered by exactly d SBSs.

    A user covered by d SBSs gets d q of a file cached at q, so the MBS
    sends the deficit h(q) = sum_d gamma_d max(1 - d q, 0) over the
    backhaul.  h is linear between the knots 0, 1/S, ..., 1/2, 1, and the
    profile keeps it as a curve, built once with the profile and kept beside
    gamma, not as a dataclass field: tuples of the knots, the value at each
    knot (the S products summed by math.fsum) and the slope of each piece.
    `deficit` interpolates it, `deficit_at` reads it at one float.
    """

    gamma: np.ndarray

    def __post_init__(self):
        gamma = _probability_vector(self.gamma, "gamma")
        object.__setattr__(self, "gamma", gamma)
        coefficients = list(enumerate(gamma.tolist(), start=1))
        knots = [0.0, *(1.0 / k for k in range(gamma.size, 0, -1))]
        values = [math.fsum([g * (1.0 - d * x) for d, g in coefficients if d * x < 1.0])
                  for x in knots]
        # np.interp's slope of each piece, term for term
        slopes = [(v1 - v0) / (x1 - x0) for x0, x1, v0, v1
                  in zip(knots, knots[1:], values, values[1:])]
        object.__setattr__(self, "_curve", (tuple(knots), tuple(values), tuple(slopes)))

    def deficit(self, q):
        """h(q) for a scalar or an array of q in [0, 1]: the stored knot
        value at each knot, within rounding of the S-term sum between them."""
        knots, values, _ = self._curve
        return np.interp(q, knots, values)

    def deficit_at(self, x: float) -> float:
        """h(x) at one float, the bits of `deficit(x)` without numpy: one
        bisection over the knots and np.interp's formula, the slope times
        the distance to the knot x_j at or below x plus h(x_j); the first
        or the last knot value at or past either end."""
        knots, values, slopes = self._curve
        if 0.0 < x < 1.0:
            j = bisect.bisect_right(knots, x) - 1
            return slopes[j] * (x - knots[j]) + values[j]
        # NaN stays NaN, as in np.interp
        return values[0] if x <= 0.0 else values[-1] if x >= 1.0 else x

    @property
    def max_coverage(self) -> int:
        return self.gamma.size


@dataclass(frozen=True)
class Placement:
    """Proportional placement q_j = m_j / n, limited by the SBS cache size M."""

    q: np.ndarray
    cache_size: float

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        if q.ndim != 1 or q.size < 1:
            raise ValueError("placement must be a non-empty vector")
        # the ufuncs of q.min(), q.max() and q.sum(), without their wrappers
        low, high = np.minimum.reduce(q), np.maximum.reduce(q)
        # written so that a NaN entry fails the test: min and max are then NaN
        if not (low >= -PROB_TOL and high <= 1.0 + PROB_TOL):
            raise ValueError("placement entries must lie in [0, 1]")
        # tolerate solver-level rounding at the box boundary
        if low < 0.0 or high > 1.0:
            q = np.clip(q, 0.0, 1.0)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        if not self.cache_size > 0:
            raise ValueError("cache size must be positive")
        if np.add.reduce(q) > self.cache_size + CAPACITY_TOL:
            raise ValueError("placement exceeds cache capacity")

    @property
    def num_files(self) -> int:
        return self.q.size

    @classmethod
    def uniform(cls, num_files: int, cache_size: float) -> "Placement":
        frac = min(cache_size / num_files, 1.0)
        return cls(q=np.full(num_files, frac), cache_size=cache_size)


@dataclass(frozen=True)
class GameConfig:
    """Full problem instance: adversary fraction plus library, demand and coverage."""

    alpha: float
    library: LibraryConfig
    popularity: PopularityDist
    coverage: CoverageProfile
    cache_size: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 < self.cache_size < self.library.num_files:
            raise ValueError("cache size must satisfy 0 < M < N")
        if self.popularity.num_files != self.library.num_files:
            raise ValueError("popularity size does not match the library")

    def with_alpha(self, alpha: float) -> "GameConfig":
        # the constructor runs the same checks as dataclasses.replace in
        # half the time
        return GameConfig(alpha, self.library, self.popularity, self.coverage,
                          self.cache_size)


@dataclass(frozen=True)
class RateBreakdown:
    """Per-request backhaul rates: legitimate, adversarial and their alpha-mix."""

    r_legit: float
    r_adv: float
    r_total: float


def zipf_popularity(num_files: int, exponent: float) -> PopularityDist:
    """Zipf popularity p_j proportional to 1/j^z; z = 0 gives a uniform demand."""
    num_files = _check_count(num_files, "num_files", 1)
    if not 0 <= exponent < math.inf:
        raise ValueError("Zipf exponent must be finite and non-negative")
    # a large exponent overflows j^z to inf, which gives the file weight 0
    with np.errstate(over="ignore"):
        weights = 1.0 / np.arange(1, num_files + 1, dtype=float) ** exponent
    return PopularityDist(probs=weights / weights.sum())


def quantize_placement(placement: Placement, n: int,
                       popularity: PopularityDist) -> np.ndarray:
    """Round q to integer packet counts m with sum(m) <= floor(M * n).

    Rounding is to the nearest integer; if the rounded counts overshoot the
    cache capacity, files that were rounded up lose one packet each, least
    popular first (ties towards the higher index), until the capacity holds.
    At a huge n, sum(q) can exceed M by more packets than rounding put on;
    the rest then comes off the least popular files that still hold packets.
    """
    n = _check_count(n, "n", 1, MAX_FRAGMENTS)
    q = placement.q
    if popularity.num_files != q.size:
        raise ValueError("popularity size does not match the placement")
    m = np.floor(q * n + 0.5).astype(np.int64)
    capacity = int(np.floor(placement.cache_size * n + 1e-9))
    excess = sum(m.tolist()) - capacity  # in Python ints, which cannot overflow
    if excess > 0:
        order = np.lexsort((-np.arange(q.size), popularity.probs))
        rounded_up = order[m[order] > q[order] * n + 1e-12]
        m[rounded_up[:excess]] -= 1
        excess -= rounded_up.size
        # the capacity is never negative, so the files hold what is left
        for j in order:
            if excess <= 0:
                break
            take = min(excess, int(m[j]))
            m[j] -= take
            excess -= take
    m.setflags(write=False)
    return m


DEFAULT_CONFIG = {
    "num_files": 200,
    "zipf_exponent": 0.7,
    "cache_size": 20.0,
    "alpha": 0.0,
    "fragments_per_file": 100,
    "mbs_radius_m": 500.0,
    "sbs_spacing_m": 60.0,
    "sbs_radius_m": 45.0,
    "user_density_per_m2": 0.05,
    "seed": 1,
}

# each key's type is its default's: keep float defaults written as floats
CONFIG_KEYS = {key: type(value) for key, value in DEFAULT_CONFIG.items()}


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """Read a `key = value` config file on top of the defaults.

    Lines are `key = value` (or `key: value`); blank lines and `#` comments
    are ignored.  Unknown keys and malformed values are rejected.
    """
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            sep = "=" if "=" in line else ":"
            if sep not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split(sep, 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                cfg[key] = CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    if overrides:
        for key, value in overrides.items():
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            if value is not None:
                cfg[key] = CONFIG_KEYS[key](value)
    return cfg

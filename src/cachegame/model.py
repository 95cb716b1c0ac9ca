"""Core domain types, configuration handling and the Zipf popularity generator."""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class LibraryConfig:
    """File library of N files."""

    num_files: int

    def __post_init__(self):
        if self.num_files < 1:
            raise ValueError("num_files must be >= 1")


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
    """gamma[d-1] = probability that a user is covered by exactly d SBSs."""

    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _probability_vector(self.gamma, "gamma"))

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
        low, high = q.min(), q.max()
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
        if q.sum() > self.cache_size + CAPACITY_TOL:
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
    if num_files < 1:
        raise ValueError("num_files must be >= 1")
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
    """
    if not 1 <= n <= MAX_FRAGMENTS:
        raise ValueError(f"n must lie in [1, {MAX_FRAGMENTS}]")
    q = placement.q
    if popularity.num_files != q.size:
        raise ValueError("popularity size does not match the placement")
    m = np.floor(q * n + 0.5).astype(np.int64)
    capacity = int(np.floor(placement.cache_size * n + 1e-9))
    excess = sum(m.tolist()) - capacity  # in Python ints, which cannot overflow
    if excess > 0:
        order = np.lexsort((-np.arange(q.size), popularity.probs))
        rounded_up = order[m[order] > q[order] * n + 1e-12]
        if rounded_up.size < excess:  # a huge n can outgrow the repair
            raise ValueError(f"capacity repair failed at n = {n}")
        m[rounded_up[:excess]] -= 1
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

"""Core domain types, configuration handling and the Zipf popularity generator."""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
import operator
from collections import namedtuple
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


def _check_cache_size(value, num_files=math.inf) -> None:
    """ValueError naming `value` unless it is a real number (numpy's pass, a
    bool does not) in (0, num_files), so finite and positive."""
    # written so that NaN fails the test; a float skips the slower ABC check
    if (type(value) is not float and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real))
            or not 0 < value < num_files):
        bound = ("be positive and finite" if num_files == math.inf
                 else f"satisfy 0 < M < N = {num_files}")
        raise ValueError(f"cache size must {bound}, got {value!r}")


def _entries(q: np.ndarray) -> np.ndarray:
    """q, read-only, with the solver-level rounding at the box boundary
    clipped to [0, 1]; ValueError if an entry lies further outside, NaN
    included."""
    # the ufuncs of q.min() and q.max(), without their wrappers
    low, high = np.minimum.reduce(q), np.maximum.reduce(q)
    # written so that a NaN entry fails the test: min and max are then NaN
    if not (low >= -PROB_TOL and high <= 1.0 + PROB_TOL):
        raise ValueError("placement entries must lie in [0, 1]")
    if low < 0.0 or high > 1.0:
        q = np.clip(q, 0.0, 1.0)
    q.setflags(write=False)
    return q


# runs of files at one value, read in `order`: values[i] on the counts[i]
# files order[ends[i] - counts[i]:ends[i]]; rank is the inverse of order,
# least[i] the least file index in order[i:] and greatest[i] the largest
# in order[:i + 1]
_Runs = namedtuple("_Runs", "values counts ends order rank least greatest")


@dataclass(frozen=True, eq=False)
class Placement:
    """Proportional placement q_j = m_j / n, limited by the SBS cache size M.

    The equilibrium solver builds its placements from runs (`_from_runs`),
    kept beside the fields as `_runs`, None for a placement built from q.
    Such a placement builds q on first read, once, and reads `num_files`,
    its least cached file, single entries, its distances and its last
    entry above a floor off the runs, in O(S) for S runs (the last entry
    above a floor in O(1) more).  Placements compare and hash by identity:
    compare their q arrays to compare their entries.
    """

    q: np.ndarray
    cache_size: float

    def __post_init__(self):
        _check_cache_size(self.cache_size)
        q = np.array(self.q, dtype=float)
        if q.ndim != 1 or q.size < 1:
            raise ValueError("placement must be a non-empty vector")
        object.__setattr__(self, "q", _entries(q))
        object.__setattr__(self, "_runs", None)
        if np.add.reduce(self.q) > self.cache_size + CAPACITY_TOL:
            raise ValueError("placement exceeds cache capacity")

    @classmethod
    def _from_runs(cls, values, counts, order: np.ndarray, rank: np.ndarray,
                   least: np.ndarray, greatest: np.ndarray,
                   cache_size: float) -> "Placement":
        """The placement that holds values[i] on the next counts[i] files
        of `order`, a permutation of the files with inverse `rank`, suffix
        minimum `least` and prefix maximum `greatest`, the values never
        increasing; its entries are checked and clipped as q's are, and its
        capacity on the exact sum of the runs, all in O(len(values))."""
        _check_cache_size(cache_size)
        values, counts = tuple(values), tuple(counts)
        # numpy only for entries outside the box; written so that NaN goes there
        if not all(0.0 <= value <= 1.0 for value in values):
            values = tuple(_entries(np.array(values, dtype=float)).tolist())
        if not (len(values) == len(counts) and min(counts) > 0
                and sum(counts) == order.size):
            raise ValueError("runs must cover every file once")
        if math.fsum(map(operator.mul, values, counts)) > cache_size + CAPACITY_TOL:
            raise ValueError("placement exceeds cache capacity")
        placement = object.__new__(cls)
        object.__setattr__(placement, "cache_size", cache_size)
        object.__setattr__(placement, "_runs", _Runs(
            values, counts, tuple(itertools.accumulate(counts)), order, rank, least,
            greatest))
        return placement

    def __getattr__(self, name):
        # only a placement built from runs lacks q: build it on first read
        runs = self.__dict__.get("_runs")
        if name != "q" or runs is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        q = np.empty(runs.order.size)
        q[runs.order] = np.repeat(runs.values, runs.counts)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        return q

    @property
    def num_files(self) -> int:
        return self.q.size if self._runs is None else self._runs.order.size

    def _argmin(self) -> int:
        """q.argmin(): the least index among the least entries."""
        runs = self._runs
        if runs is None:
            return int(self.q.argmin())
        # the files at the least value are the runs from its first on
        first = runs.values.index(runs.values[-1])
        return runs.least.item(runs.ends[first - 1] if first else 0)

    def _entry(self, j: int) -> float:
        """q[j] as a float; off the runs, by one bisection, when there are any."""
        runs = self._runs
        if runs is None:
            return self.q.item(j)
        return runs.values[bisect.bisect_right(runs.ends, runs.rank.item(j))]

    def _spread(self, ref: "Placement") -> tuple[float, float, float]:
        """The least and the largest entry of q and its infinity-norm
        distance to ref.q.  Two placements of runs over one order are read
        off the runs, whose ends merge in O(S); any other pair off the
        arrays, with the same bits."""
        runs, other = self._runs, ref._runs
        if runs is None or other is None or runs.order is not other.order:
            q = self.q
            return (float(np.minimum.reduce(q)), float(np.maximum.reduce(q)),
                    float(np.maximum.reduce(np.abs(q - ref.q))))
        values, ends, ref_values, ref_ends = runs.values, runs.ends, other.values, other.ends
        # each step covers the files up to the nearer of the two runs' ends
        distance, i, j, n = 0.0, 0, 0, ends[-1]
        while True:
            gap = abs(values[i] - ref_values[j])
            if gap > distance:
                distance = gap
            end, ref_end = ends[i], ref_ends[j]
            if end == ref_end:
                if end == n:
                    return values[-1], values[0], distance
                i, j = i + 1, j + 1
            elif end < ref_end:
                i += 1
            else:
                j += 1

    def _last_above(self, floor: float) -> float:
        """The last entry of q above `floor` in index order, or 0.0 when
        there is none."""
        runs = self._runs
        if runs is None:
            above = np.flatnonzero(self.q > floor)
            return self.q.item(above[-1]) if above.size else 0.0
        # the entries above the floor are those of a prefix of the order
        count = sum(value > floor for value in runs.values)
        if not count:
            return 0.0
        return self._entry(runs.greatest.item(runs.ends[count - 1] - 1))

    @classmethod
    def uniform(cls, num_files: int, cache_size: float) -> "Placement":
        """Every file cached in the same fraction, q_j = min(M / N, 1)."""
        num_files = _check_count(num_files, "num_files", 1)
        _check_cache_size(cache_size)
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
        alpha = self.alpha
        # a float skips the slower ABC check
        if type(alpha) is not float and (isinstance(alpha, bool)
                                         or not isinstance(alpha, numbers.Real)):
            raise ValueError(f"alpha must be a real number, got {alpha!r}")
        # written so that NaN fails the test
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        _check_cache_size(self.cache_size, self.library.num_files)
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

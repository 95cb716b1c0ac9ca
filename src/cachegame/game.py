"""Stackelberg game between the cache-filling MBS and congestion-seeking users.

The follower (the adversaries) best-responds by requesting the least cached
file, so the leader minimizes

    (1-a) * sum_j p_j h(q_j) + a * h(min(q)),   h(x) = sum_d gamma_d max(1 - d x, 0)

over the box-and-capacity polytope {0 <= q <= 1, sum q <= M}.  The objective
is convex and piecewise linear, and is minimized exactly by a greedy above a
floor mu = min q found in closed form (Dantzig; Ibaraki & Katoh, Resource
Allocation Problems, 1988):

- Per-file segments.  With c_k = sum_{d<=k} d gamma_d, h falls at rate c_k
  on segment k, [1/(k+1), 1/k] (segment S starts at 0), so segment k of file
  j weighs w_jk = p_j c_k.  All S*N segments are sorted once by weight,
  descending and stable, with the files laid out by popularity (ties in
  index order) and each file's segments in increasing q; the order depends
  on neither alpha, mu nor M, so it is built once per (popularity, coverage)
  pair and reused by every solve of a sweep.  So a more popular file never
  holds less than a less popular one: the equilibrium is ordered by
  popularity, with ties in index order.
- Value at a fixed floor mu = min q.  Since sum_j p_j = 1,
  V(mu) = h(mu) - (1-a) R(mu), where R(mu) is the greedy fill of the budget
  max(M - N mu, 0) over the parts of the segments that lie above mu.
- Floor.  V is convex with right derivative
  V'(mu+) = -a c_k + (1-a) c_k G(lam / c_k), G(x) = sum_j max(x - p_j, 0),
  where k is the level that contains (mu, mu + eps) and lam the weight of
  the last segment with a positive fill.  So V'(mu+) >= 0 exactly when
  lam >= c_k x_a, with the water level x_a = min_m (a/(1-a) + sum of the m
  smallest p) / m solving G(x_a) = a/(1-a) (0 at a = 0, infinite at a = 1).
  The segments of weight >= c_k x_a (all of them if c_k = 0) are heavy and
  a prefix of the order, so this holds when their length above mu, plus
  N mu, reaches M.  On level k that sum is a line, used_k + (N - heavy_k) mu
  with heavy_k the heavy segments of the level, so mu = (M - used_k) /
  (N - heavy_k), raised to the level's start.  The first level, in
  increasing q, on which it lands gives the floor, the smallest minimizer
  (ties where V is flat go to it); the greedy fills the heavy prefix.  The
  weights p_j c_l of one level l fall with popularity, so one binary search
  per level counts its heavy segments.  Past a = 1 - 1/(N p_max),
  x_a > p_max: nothing above mu is heavy, q* is uniform.
- Cost per solve.  What depends on the popularity alone (its order and the
  prefix sums P_m of the m smallest p) is memoised per popularity, the
  segment order per (popularity, coverage) pair.  The floor loop runs on
  Python numbers and bisects a level's column only on the levels it visits:
  S bisections of about log2 N steps per level.  So a solve makes a fixed
  few numpy calls, plus one dot per level visited, whatever N is.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import GameConfig, Placement, RateBreakdown
from .rate import AdversaryStrategy, adversary_rate, legit_rate, total_rate

# infinity-norm distance at which detect_thresholds calls two placements apart
DISTANCE_TOL = 1e-3


@dataclass(frozen=True)
class EquilibriumResult:
    q_star: Placement
    j_star: int
    rates: RateBreakdown
    solver_status: str


@dataclass(frozen=True)
class ThresholdResult:
    """Regime boundaries found in the equilibrium solves of an alpha grid.

    alpha_thr_1: first grid alpha where q*(alpha) leaves the no-adversary
    optimum; alpha_thr_2: first grid alpha where q*(alpha) reaches the
    uniform placement.  None marks a threshold absent on the grid.
    """

    alpha_thr_1: float | None
    alpha_thr_2: float | None


def best_response(placement: Placement) -> tuple[int, AdversaryStrategy]:
    """Adversary best response: point mass on the least cached file.

    Ties break to the lowest index; the achieved rate is tie-independent.
    """
    j_star = int(placement.q.argmin())
    return j_star, AdversaryStrategy.point_mass(placement.num_files, j_star)


def _rate(placement: Placement, cfg: GameConfig) -> tuple[int, RateBreakdown]:
    """evaluate, plus the adversaries' target j_star."""
    j_star, strategy = best_response(placement)
    return j_star, total_rate(cfg.alpha,
                              legit_rate(placement, cfg.popularity, cfg.coverage),
                              adversary_rate(placement, cfg.coverage, strategy))


def evaluate(placement: Placement, cfg: GameConfig) -> RateBreakdown:
    """Rates of a placement at cfg.alpha, the adversaries best-responding."""
    return _rate(placement, cfg)[1]


def _freeze(table) -> None:
    for array in vars(table).values():
        array.flags.writeable = False


@dataclass(frozen=True)
class _Library:
    """The part of the segment table that depends on the popularity alone.

    Every array is read-only.  by_popularity lists the files most popular
    first, ties in index order, and descending their probabilities;
    cumprobs[m - 1] is the sum P_m of the m smallest probabilities.
    """

    by_popularity: np.ndarray
    descending: np.ndarray
    cumprobs: np.ndarray


@functools.lru_cache(maxsize=1)
def _library(probs_bytes: bytes) -> _Library:
    """The popularity part of the segment table, keyed by the bytes of the
    float64 popularity vector; a radius sweep reuses it for every gamma."""
    probs = np.frombuffer(probs_bytes)
    by_popularity = np.argsort(-probs, kind="stable")
    library = _Library(by_popularity=by_popularity, descending=probs[by_popularity],
                       cumprobs=np.cumsum(np.sort(probs)))
    _freeze(library)
    return library


@dataclass(frozen=True)
class _Segments:
    """The sorted segment order of one (popularity, coverage) pair.

    Every array is read-only.  Level k spans [lo[k], hi[k]], of width
    width[k], and weighs c[k] per unit of popularity.  Sorted segment i
    belongs to file owner[i] and level segment[i + 1]; segment[0] is S, a
    level of length 0 that starts the running sums.  columns holds the negated
    weights -p_j c_l level by level, each level's N in popularity order, so
    ascending within a level.  cumprobs comes from _Library.
    """

    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    width: np.ndarray
    owner: np.ndarray
    segment: np.ndarray
    columns: np.ndarray
    cumprobs: np.ndarray


@functools.lru_cache(maxsize=1)
def _segments(probs_bytes: bytes, gamma_bytes: bytes) -> _Segments:
    """The segment table of the module docstring, keyed by the bytes of the
    float64 popularity and coverage vectors; it depends on nothing else."""
    library = _library(probs_bytes)
    gamma = np.frombuffer(gamma_bytes)
    s, n = gamma.size, library.descending.size
    hi = 1.0 / np.arange(s, 0, -1)                # segment ends, increasing q
    lo = np.append(0.0, hi[:-1])
    c = np.cumsum(np.arange(1, s + 1) * gamma)[::-1]      # c_k of each segment
    columns = np.multiply.outer(-c, library.descending).ravel()
    # the stable sort merges the S ascending levels, and ties come out level
    # by level; re-sorting each tie by file, then level, gives the order of
    # one stable sort over the weights laid out file by file
    order = np.argsort(columns, kind="stable")
    level, position = np.divmod(order, n)
    weights = columns[order]
    tied = weights[1:] == weights[:-1]
    if tied.any():
        tie = np.concatenate(([0], np.cumsum(~tied)))
        regroup = np.argsort((tie * n + position) * s + level, kind="stable")
        level, position = level[regroup], position[regroup]
    table = _Segments(c=c, lo=lo, hi=hi, width=hi - lo,
                      owner=library.by_popularity[position],
                      segment=np.concatenate(([s], level)),
                      columns=columns, cumprobs=library.cumprobs)
    _freeze(table)
    return table


def _greedy_placement(probs: np.ndarray, gamma: np.ndarray, alpha: float,
                      cache: float) -> np.ndarray:
    """Exact minimizer of the leader's objective: the greedy fill above the
    closed-form floor of the module docstring.  Equal weights fill in
    popularity order, ties in index order, so q is non-increasing in it.

    The segment order comes from the memoised _segments, and the floor loop
    runs on Python numbers; see the module docstring for the counts."""
    t = _segments(probs.tobytes(), gamma.tobytes())
    n, s = probs.size, gamma.size
    c, lo, hi = t.c.tolist(), t.lo.tolist(), t.hi.tolist()
    x_a = (0.0 if alpha == 0.0 else math.inf if alpha == 1.0 else
           float(np.min((alpha / (1.0 - alpha) + t.cumprobs)
                        / np.arange(1, n + 1))))
    columns = memoryview(t.columns)
    for k in range(s):                            # levels, increasing q
        # level-l segments weighing >= c_k x_a, all of them if c_k = 0
        bound = -(c[k] * x_a) if c[k] > 0 else -0.0
        count = [bisect.bisect_right(columns, bound, l * n, (l + 1) * n) - l * n
                 for l in range(s)]
        # numpy's dot, not a Python sum: the BLAS kernel may fuse the
        # multiply-adds, and the floor must keep those bits
        used = count[k] * hi[k] + float(np.dot(count[k + 1:], t.width[k + 1:]))
        mu = (max(lo[k], (cache - used) / (n - count[k])) if count[k] < n
              else lo[k] if used >= cache else math.inf)
        if mu <= hi[k]:
            break
    heavy = sum(count)
    # in floating point M - N*mu can come out as -eps
    budget = max(cache - n * mu, 0.0)
    # the sorted segments' lengths above mu, after a leading 0.0 (level s)
    length = np.array([max(h - max(l, mu), 0.0) for l, h in zip(lo, hi)]
                      + [0.0])[t.segment[:heavy + 1]]
    start = length[:-1].cumsum()                  # 0.0, then the running sums
    fill = np.minimum(np.maximum(budget - start, 0.0), length[1:])
    return mu + np.bincount(t.owner[:heavy], weights=fill, minlength=n)


def equilibrium_placement(cfg: GameConfig) -> EquilibriumResult:
    """Leader's equilibrium placement: the exact optimum with the least floor."""
    q = _greedy_placement(cfg.popularity.probs, cfg.coverage.gamma, cfg.alpha,
                          cfg.cache_size)
    placement = Placement(q=q, cache_size=cfg.cache_size)
    j_star, rates = _rate(placement, cfg)
    return EquilibriumResult(q_star=placement, j_star=j_star, rates=rates,
                             solver_status="optimal")


def no_adversary_placement(cfg: GameConfig) -> Placement:
    """Optimal placement against purely popularity-driven demand (alpha = 0).

    Each file's deficit is convex piecewise linear with breakpoints
    1/S, ..., 1/2, 1, so the optimum is a fractional knapsack over the
    per-file segments.  If no two segment slopes tie, every q_j lies in
    {0, 1/S, ..., 1/2, 1} except for at most one marginal file, which
    absorbs the capacity left after the last whole segment.
    """
    return equilibrium_placement(cfg.with_alpha(0.0)).q_star


def worst_case_rate(cfg: GameConfig) -> float:
    """Closed-form equilibrium rate when every user is an adversary.

    With alpha = 1 the leader plays uniformly, q_j = M/N, and the rate is
    sum_d gamma_d max(1 - d M/N, 0).
    """
    frac = cfg.cache_size / cfg.library.num_files
    d = np.arange(1, cfg.coverage.max_coverage + 1, dtype=float)
    return float(cfg.coverage.gamma @ np.maximum(1.0 - d * frac, 0.0))


def sweep_equilibria(cfg: GameConfig, alphas) -> list[EquilibriumResult]:
    """Equilibrium solves for each alpha on a grid, one per alpha; all of
    them share one segment table, so the segments are sorted once."""
    return [equilibrium_placement(cfg.with_alpha(float(a))) for a in alphas]


def detect_thresholds(cfg: GameConfig, alpha_grid,
                      results: list[EquilibriumResult]) -> ThresholdResult:
    """Locate the branching and gathering points of the placement trajectory.

    `results` are the equilibrium solves of the grid, one per alpha, for
    example from sweep_equilibria.  alpha_thr_1 is the smallest grid alpha
    whose placement moves more than DISTANCE_TOL (infinity norm) away from
    the no-adversary optimum; alpha_thr_2 the smallest grid alpha within
    DISTANCE_TOL of the uniform placement.
    """
    alphas = np.asarray(alpha_grid, dtype=float)
    if alphas.size == 0:
        raise ValueError("alpha grid must be non-empty")
    if np.any(np.diff(alphas) < 0):
        raise ValueError("alpha grid must be sorted")
    if alphas[0] < 0 or alphas[-1] > 1:
        raise ValueError("alpha grid must lie in [0, 1]")
    if len(results) != alphas.size:
        raise ValueError("results do not match the alpha grid")
    q_ref = no_adversary_placement(cfg).q
    q_uni = Placement.uniform(cfg.library.num_files, cfg.cache_size).q
    qs = np.array([res.q_star.q for res in results])
    branched = np.flatnonzero(np.abs(qs - q_ref).max(axis=1) > DISTANCE_TOL)
    gathered = np.flatnonzero(np.abs(qs - q_uni).max(axis=1) <= DISTANCE_TOL)
    return ThresholdResult(
        alpha_thr_1=float(alphas[branched[0]]) if branched.size else None,
        alpha_thr_2=float(alphas[gathered[0]]) if gathered.size else None)

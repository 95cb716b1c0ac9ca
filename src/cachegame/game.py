"""Stackelberg game between the cache-filling MBS and congestion-seeking users.

The follower (the adversaries) best-responds by requesting the least cached
file, so the leader minimizes

    (1-a) * sum_j p_j h(q_j) + a * h(min(q)),   h(x) = sum_d gamma_d max(1 - d x, 0)

over the box-and-capacity polytope {0 <= q <= 1, sum q <= M}, with h the
coverage profile's deficit curve (`CoverageProfile.deficit`), which rates
every placement; the solver below reads the slopes c_k instead.  The objective
is convex and piecewise linear, and is minimized exactly by a greedy above a
floor mu = min q found in closed form (Dantzig; Ibaraki & Katoh, Resource
Allocation Problems, 1988):

- Per-file segments.  With c_k = sum_{d<=k} d gamma_d, h falls at rate c_k
  on segment k, [1/(k+1), 1/k] (segment S starts at 0), so segment k of file
  j weighs w_jk = p_j c_k.  All S*N segments are sorted once by weight,
  descending and stable, laid out level by level in increasing q, each
  level's files by popularity (ties in index order): equal weights fill
  level by level, lower q first, and each level in popularity order.  The
  order depends on neither alpha, mu nor M, so it is built once per pair of
  popularity and coverage objects and reused by every solve of a sweep.  So
  a more popular file never holds less than a less popular one: the
  equilibrium is ordered by popularity, with ties in index order.
- Value at a fixed floor mu = min q.  Since sum_j p_j = 1,
  V(mu) = h(mu) - (1-a) R(mu), where R(mu) is the greedy fill of the budget
  max(M - N mu, 0) over the parts of the segments that lie above mu.  A
  file's segments sort in increasing q and a level's in popularity order,
  so a fill covers each file's levels from the bottom up and each level's
  first files: read in popularity order, q is a staircase of at most
  S + 2 runs, one per top filled level, one for the partial segment and
  one at mu.
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
- Cost per solve.  The module keeps one slot, keyed by the popularity and
  coverage objects themselves (compared with `is`), that holds their segment
  table; the greedy reads nothing else.  The water level is read off the
  table's steps g_m = m p_(m+1) - P_m (p ascending), which never decrease
  in exact arithmetic, so (a/(1-a) + P_m) / m is least at the first m with
  g_m >= a/(1-a): x_a is its value there, which one bisection over the
  running maximum of the computed steps and one division give, within a
  relative (N + 2) 2^-53 of the exact minimum.  The floor loop runs on
  Python numbers and bisects a level's column, about log2 N steps, only on
  the levels it visits.  The heavy length is summed exactly, in integers
  over one power-of-two denominator, and rounded once, so q* has the same
  bits on every CPU and BLAS build.  A floor strictly inside its level
  solves that level's equation, so the budget is the heavy length and
  every heavy segment fills whole: the floor's per-level counts are the
  runs, with no running sums.  A floor on a level end (a level start, or
  the end of its own level) has running sums over a window of N segments,
  doubled while the budget lies past its end; the segments that start
  below the budget are filled, all whole but the last, and one bincount of
  their levels gives the runs and the one partial file.  Each run's value
  is mu plus its levels' lengths, added bottom up as a per-file sum of the
  fills would add them, and its popularity mass a difference of two P_m;
  q* is written run by run through the popularity order, and legit_rate
  reads the runs in O(S).  So a solve makes a fixed few numpy calls and
  few passes over the N files (writing q*, Placement's checks and the best
  response), whatever N is, and the floor none.  q*(alpha) is piecewise
  constant, so the slot also keeps two solves on those objects, `last` and
  `noadv`, the last one at alpha = 0.  A call on the piece of either, by the
  rule at equilibrium_placement's reuse test, reuses its fill, placement,
  best response and rates, and mixes only the rates by its own alpha.
  with_alpha and dataclasses.replace share the objects, so an alpha or
  cache sweep hits; a replaced coverage, or a config built afresh from
  equal vectors, builds its own table.  The slot is one immutable record
  that a solve reads once and a miss replaces whole, so threads never mix
  two configs.  detect_thresholds reads the placements one at a time, on
  ufunc reductions, and stops at the second threshold.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import GameConfig, Placement, RateBreakdown
from .rate import adversary_rate, legit_rate, total_rate

# infinity-norm distance at which detect_thresholds calls two placements apart
DISTANCE_TOL = 1e-3


@dataclass(frozen=True)
class EquilibriumResult:
    """One equilibrium solve: q_star ordered by popularity, j_star the 0-based
    least cached file (ties go to the lowest index), rates at cfg.alpha, and
    solver_status always "optimal", kept because the frozen benchmark reads it."""

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


def best_response(placement: Placement) -> int:
    """Adversary best response: every adversary requests j_star, the least
    cached file.  Ties break to the lowest index; the rate is tie-independent.
    """
    return int(placement.q.argmin())


def _rate(placement: Placement, cfg: GameConfig,
          runs=None) -> tuple[int, RateBreakdown]:
    """evaluate, plus the adversaries' target j_star; legit_rate reads the
    placement's runs when they are given."""
    j_star = best_response(placement)
    return j_star, total_rate(cfg.alpha,
                              legit_rate(placement, cfg.popularity, cfg.coverage, runs),
                              adversary_rate(placement, cfg.coverage, j_star))


def evaluate(placement: Placement, cfg: GameConfig) -> RateBreakdown:
    """Rates of a placement at cfg.alpha, the adversaries best-responding."""
    return _rate(placement, cfg)[1]


@dataclass(frozen=True)
class _Segments:
    """The segment table of one (popularity, coverage) pair.

    Every field is read-only.  Level k spans [lo[k], hi[k]] and weighs c[k]
    per unit of popularity; hi[k] and its width hi[k] - lo[k] are exactly
    hi_exact[k] / scale and width_exact[k] / scale.  order lists the files
    most popular first, ties in index order.  Sorted segment i belongs to
    level segment[i + 1]; segment[0] is S, a level of length 0 that starts
    the running sums.  Equal weights sort level by level, lower q first.
    No per-segment file index is kept: each level's segments sort in
    popularity order, so a fill's segments of a level belong to the first
    files of order.  columns views the negated weights -p_j c_l level by
    level, each level's N in popularity order, so ascending within a level.
    cumprobs views P_m, the sum of the m smallest probabilities, at index
    m - 1; N is its length.  steps views the running maximum of the steps
    g_m = m p_(m+1) - P_m, m = 1 .. N-1, p ascending.
    """

    c: tuple[float, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    hi_exact: tuple[int, ...]
    width_exact: tuple[int, ...]
    scale: int
    order: np.ndarray
    segment: np.ndarray
    columns: memoryview
    cumprobs: memoryview
    steps: memoryview


def _segments(probs: np.ndarray, gamma: np.ndarray) -> _Segments:
    """The segment table of the module docstring for the float64 popularity
    and coverage vectors; it depends on nothing else."""
    s, n = gamma.size, probs.size
    # files most popular first, ties in index order
    by_popularity = np.argsort(-probs, kind="stable")
    descending = probs[by_popularity]
    hi = [1.0 / k for k in range(s, 0, -1)]       # segment ends, increasing q
    lo = [0.0, *hi[:-1]]
    c = (np.arange(1, s + 1) * gamma).cumsum()[::-1]      # c_k of each segment
    columns = np.multiply.outer(-c, descending).ravel()
    # the stable sort merges the S ascending levels; equal weights come out
    # level by level, lower q first, and each level's in popularity order
    segment = np.concatenate(([s], np.argsort(columns, kind="stable")))
    segment[1:] //= n                             # the level of each segment
    # the ascending probabilities, so the sums of np.sort(probs) bit for bit
    ascending = descending[::-1]
    cumprobs = ascending.cumsum()
    steps = np.maximum.accumulate(np.arange(1.0, n) * ascending[1:] - cumprobs[:-1])
    for array in (columns, by_popularity, segment, cumprobs, steps):
        array.setflags(write=False)
    # every float is an integer over a power of two, so the largest
    # denominator is a multiple of all the others
    ratios = [v.as_integer_ratio() for v in [*hi, *map(operator.sub, hi, lo)]]
    scale = max(den for _, den in ratios)
    exact = tuple(num * (scale // den) for num, den in ratios)
    return _Segments(c=tuple(c.tolist()), lo=tuple(lo), hi=tuple(hi),
                     hi_exact=exact[:s], width_exact=exact[s:], scale=scale,
                     order=by_popularity, segment=segment, columns=memoryview(columns),
                     cumprobs=memoryview(cumprobs), steps=memoryview(steps))


def _water_level(t: _Segments, alpha: float) -> float:
    """x_a = (a/(1-a) + P_m) / m on the segment table t, at the first rank m
    whose computed step g_m reaches a/(1-a), or m = N if none does."""
    if alpha == 0.0:
        return 0.0
    if alpha == 1.0:
        return math.inf
    a = alpha / (1.0 - alpha)
    # index i holds rank m = i + 1, and i = N - 1 when no step reaches a
    i = bisect.bisect_left(t.steps, a)
    return (a + t.cumprobs[i]) / (i + 1)


def _floor(t: _Segments, alpha: float,
           cache: float) -> tuple[float, int, list[int], int]:
    """The closed-form floor mu of the module docstring on the segment table
    t; the number of heavy segments, a prefix of the sorted order; the heavy
    segments of each level, the first files of the popularity order; and
    the level k of the floor."""
    n, s = len(t.cumprobs), len(t.c)
    c, lo, hi, columns = t.c, t.lo, t.hi, t.columns
    x_a = _water_level(t, alpha)
    for k in range(s):                            # levels, increasing q
        # level-l segments weighing >= c_k x_a, all of them if c_k = 0
        bound = -(c[k] * x_a) if c[k] > 0 else -0.0
        count = [bisect.bisect_right(columns, bound, l * n, (l + 1) * n) - l * n
                 for l in range(s)]
        # the exact sum, rounded once by the int / int division
        used = (count[k] * t.hi_exact[k]
                + sum(map(operator.mul, count[k + 1:], t.width_exact[k + 1:]))
                ) / t.scale
        mu = (max(lo[k], (cache - used) / (n - count[k])) if count[k] < n
              else lo[k] if used >= cache else math.inf)
        if mu <= hi[k]:
            break
    return mu, sum(count), count, k


def _fill(t: _Segments, mu: float, heavy: int, count: list[int], k: int,
          cache: float) -> tuple[np.ndarray, list[tuple[float, float]], int]:
    """The greedy fill of the budget M - N mu over the first `heavy` sorted
    segments, above mu, on the floor (mu, heavy, count, k) of _floor: q, its
    runs in popularity order, each (value, popularity mass), and the number
    of segments the fill covers.  Equal weights fill level by level, lower
    q first, and each level's in popularity order, ties in index order, so
    q is non-increasing in it."""
    n, s = len(t.cumprobs), len(t.c)
    # each level's length above mu
    lengths = [max(h - max(l, mu), 0.0) for l, h in zip(t.lo, t.hi)]
    partial = None
    if t.lo[k] < mu < t.hi[k]:
        # the floor's equation makes the budget the heavy length: every heavy
        # segment fills whole, and count gives each level's filled files
        filled, cut = count, heavy
    else:
        # the floor sits on a level end.  The fill ends at the first segment
        # that starts at or past the budget (at once if M - N*mu came out as
        # -eps); the rest would add 0.0.  cumsum adds in order, so a window's
        # running sums are the first ones of the whole heavy prefix, bit for
        # bit, and the window doubles only while every segment in it starts
        # below the budget; a 0.0 for level s leads the sorted segments
        budget = cache - n * mu
        level_length = np.array(lengths + [0.0])
        size = min(heavy, n)
        while True:
            length = level_length[t.segment[:size + 1]]
            start = length[:-1].cumsum()          # 0.0, then the running sums
            cut = int(start.searchsorted(budget))
            if cut < size or size == heavy:
                break
            size = min(2 * size, heavy)
        filled = np.bincount(t.segment[1:cut + 1], minlength=s).tolist()
        # only the last filled segment can be partial: before it fl(start[i] +
        # length[i + 1]) < budget, so fl(budget - start[i]) >= length[i + 1]
        if cut:
            level = int(t.segment[cut])
            partial = level, min(budget - start.item(cut - 1), lengths[level])
    # A file fills its levels from the bottom up, each level's filled files
    # are the first of the popularity order, and only the last filled
    # segment is partial.  So q in popularity order is a staircase: the
    # files whose top filled level is l hold mu plus the lengths of levels
    # 0 .. l, summed in that order as a per-file sum of the fills would be,
    # then the rest hold mu; the partial file ends its level's run.
    sums = list(itertools.accumulate(lengths, initial=0.0))
    values = [mu + v for v in reversed(sums)]
    counts = [*map(operator.sub, reversed(filled), [0, *reversed(filled[1:])]),
              n - filled[0]]
    if partial is not None:
        level, fill = partial
        counts[s - 1 - level] -= 1
        values.insert(s - level, mu + (sums[level] + fill))
        counts.insert(s - level, 1)
    # a run's mass is a difference of the sums of the smallest probabilities
    q, runs, end, above = np.empty(n), [], 0, t.cumprobs[n - 1]
    for value, size in zip(values, counts):
        end += size
        below = t.cumprobs[n - end - 1] if end < n else 0.0
        q[t.order[end - size:end]] = value
        runs.append((value, above - below))
        above = below
    return q, runs, cut


_Record = namedtuple("_Record", "popularity coverage table last noadv")
_Solve = namedtuple("_Solve", "cache mu heavy cut placement j_star rates")


class _Cache:
    """The module's one cache.  `record` is None or a _Record: the
    popularity and coverage objects of the last solve, their segment table,
    and the last solve and the last at alpha = 0 on them (`noadv`, the
    no-adversary optimum a sweep's thresholds ask for again), each a _Solve
    or None.  `hits` and `misses` count the solves that reused one or not."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.record, self.hits, self.misses = None, 0, 0


_last_solve = _Cache()


def equilibrium_placement(cfg: GameConfig) -> EquilibriumResult:
    """Leader's equilibrium placement: the exact optimum with the least floor."""
    popularity, coverage, cache = cfg.popularity, cfg.coverage, cfg.cache_size
    # Read once and replaced whole, so a solve never pairs one config's
    # table with another's solves, whatever other threads store meanwhile.
    # The record holds both objects, so their ids are never reused, and
    # each copies its vector read-only, so `is` implies equal vectors.
    record = _last_solve.record
    if (record is None or record.popularity is not popularity
            or record.coverage is not coverage):
        record = _Record(popularity, coverage,
                         _segments(popularity.probs, coverage.gamma), None, None)
    mu, heavy, count, k = _floor(record.table, cfg.alpha, cache)
    # A kept solve is reused exactly on an equal M, a floor with the same bits,
    # and its heavy count or both past its cut.  _fill sees alpha only through
    # (mu, heavy), count and k being the levels of the heavy prefix and, inside
    # a level, the level of mu; mu is never NaN or -0.0, so == compares its
    # bits, and it alone picks the path.  Inside a level every heavy segment
    # fills, the cut is the heavy count, and only an equal count reuses the
    # solve.  On a level end the running sums, added in order, do not depend on
    # the heavy prefix's length: two prefixes past a solve's cut stop at that
    # cut and fill alike.  j_star and both rates read only q, the popularity
    # and the coverage, so only their alpha mix changes.
    for solve in (record.last, record.noadv):
        if (solve is not None and solve.cache == cache and solve.mu == mu
                and (heavy == solve.heavy or solve.cut < min(heavy, solve.heavy))):
            _last_solve.hits += 1
            rates = total_rate(cfg.alpha, solve.rates.r_legit, solve.rates.r_adv)
            break
    else:
        q, runs, cut = _fill(record.table, mu, heavy, count, k, cache)
        placement = Placement(q=q, cache_size=cache)
        j_star, rates = _rate(placement, cfg, runs)
        solve = _Solve(cache, mu, heavy, cut, placement, j_star, rates)
        _last_solve.record = _Record(popularity, coverage, record.table, solve,
                                     solve if cfg.alpha == 0.0 else record.noadv)
        _last_solve.misses += 1
    return EquilibriumResult(q_star=solve.placement, j_star=solve.j_star, rates=rates,
                             solver_status="optimal")


def no_adversary_placement(cfg: GameConfig) -> Placement:
    """Optimal placement against purely popularity-driven demand (alpha = 0),
    a fractional knapsack over the per-file segments: if no two slopes tie,
    every q_j but one lies in {0, 1/S, ..., 1/2, 1}."""
    return equilibrium_placement(cfg.with_alpha(0.0)).q_star


def worst_case_rate(cfg: GameConfig) -> float:
    """Closed-form equilibrium rate when every user is an adversary.

    With alpha = 1 the leader plays uniformly, q_j = M/N, and the rate is
    h(M/N) = sum_d gamma_d max(1 - d M/N, 0), read off the coverage's curve;
    GameConfig's 0 < M < N keeps M/N inside (0, 1).
    """
    return cfg.coverage.deficit_at(cfg.cache_size / cfg.popularity.num_files)


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
    DISTANCE_TOL of the uniform placement.  The placements are read one at
    a time in grid order until both are found; no rows x N matrix is built.
    """
    alphas = [float(a) for a in alpha_grid]
    if not alphas:
        raise ValueError("alpha grid must be non-empty")
    # written so that NaN fails the test
    if not all(0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("alpha grid must lie in [0, 1]")
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be sorted")
    if len(results) != len(alphas):
        raise ValueError("results do not match the alpha grid")
    q_ref = no_adversary_placement(cfg).q
    uniform = cfg.cache_size / cfg.popularity.num_files
    branched = gathered = None
    for alpha, res in zip(alphas, results):
        q = res.q_star.q              # its own minimum, not res.j_star's entry
        if branched is None and np.maximum.reduce(np.abs(q - q_ref)) > DISTANCE_TOL:
            branched = alpha
        # max |q - uniform| <= DISTANCE_TOL, the lower side first
        if (gathered is None and uniform - np.minimum.reduce(q) <= DISTANCE_TOL
                and np.maximum.reduce(q) - uniform <= DISTANCE_TOL):
            gathered = alpha
        if branched is not None and gathered is not None:
            break
    return ThresholdResult(alpha_thr_1=branched, alpha_thr_2=gathered)

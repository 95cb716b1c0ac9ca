"""Test oracle: the vectorised greedy that `cachegame.game` used to run.

It is the module docstring's algorithm written with one numpy call per step:
the segment order is one stable sort per call over the weights laid out
level by level (lower q first, each level's files in popularity order), so
equal weights fill level by level, the water level x_a is read at the
first rank whose step reaches a/(1-a), found by a boolean `argmax`, the heavy
segments are counted by one `searchsorted` per level column, the floor loop
reads numpy scalars, and the length the heavy segments fill is summed as an
exact `Fraction`, rounded once to a float.  A floor strictly inside its
level solves the floor's equation, which makes the budget the heavy length,
so every heavy segment fills whole; on a level end the budget is filled by
running sums, the last segment clipped.  The greedy of `cachegame.game`
returns the runs of q, `game._fill(t, *game._floor(t, alpha, M), M)` on the
segment table t, as their values, counts, running counts, masses and the
fill's cut; written out by `eager_fill`, they must have the same bits on
every input; the tests compare the two with `np.array_equal`.
"""

from fractions import Fraction

import numpy as np


def water_level(probs: np.ndarray, alpha: float) -> float:
    """x_a = (a + P_m) / m, a = alpha/(1-alpha), at the first rank m whose step
    g_m = m p_(m+1) - P_m reaches a (p ascending, P_m the sum of the m
    smallest), or m = N if none does; 0 at alpha = 0, inf at alpha = 1."""
    if alpha in (0.0, 1.0):
        return 0.0 if alpha == 0.0 else np.inf
    ascending = np.sort(probs)
    cumprobs = np.cumsum(ascending)
    a = alpha / (1.0 - alpha)
    steps = np.arange(1, probs.size) * ascending[1:] - cumprobs[:-1]
    m = np.append(steps >= a, True).argmax() + 1
    return float((a + cumprobs[m - 1]) / m)


def greedy_placement(probs: np.ndarray, gamma: np.ndarray, alpha: float,
                     cache: float) -> np.ndarray:
    """Exact minimizer of the leader's objective; q in file index order."""
    n, s = probs.size, gamma.size
    hi = 1.0 / np.arange(s, 0, -1)                # segment ends, increasing q
    lo = np.append(0.0, hi[:-1])
    c = np.cumsum(np.arange(1, s + 1) * gamma)[::-1]      # c_k of each segment
    by_popularity = np.argsort(-probs, kind="stable")
    columns = np.outer(-c, probs[by_popularity])  # negated weights -p_j c_k
    order = np.argsort(columns.ravel(), kind="stable")
    segment, owner = np.divmod(order, n)
    owner = by_popularity[owner]
    x_a = water_level(probs, alpha)
    # count[k, l]: level-l segments weighing >= c_k x_a, all of them if c_k = 0
    bound = -np.multiply(c, x_a, out=np.zeros(s), where=c > 0)
    count = np.array([column.searchsorted(bound, side="right")
                      for column in columns]).T
    for k in range(s):                            # levels, increasing q
        used = float(Fraction(int(count[k, k])) * Fraction(hi[k])
                     + sum(Fraction(int(m)) * Fraction(w)
                           for m, w in zip(count[k, k + 1:], (hi - lo)[k + 1:])))
        mu = (max(lo[k], (cache - used) / (n - count[k, k])) if count[k, k] < n
              else lo[k] if used >= cache else np.inf)
        if mu <= hi[k]:
            break
    heavy = count[k].sum()
    length = np.maximum(hi - np.maximum(lo, mu), 0.0)[segment[:heavy]]
    if lo[k] < mu < hi[k]:
        fill = length
    else:
        # in floating point M - N*mu can come out as -eps
        budget = max(cache - n * mu, 0.0)
        end = np.cumsum(length)
        fill = np.clip(budget - np.concatenate(([0.0], end[:-1])), 0.0, length)
    return mu + np.bincount(owner[:heavy], weights=fill, minlength=n)


def eager_fill(order: np.ndarray, values, counts) -> np.ndarray:
    """q written run by run, values[i] on the next counts[i] files of the
    popularity order, as the solver wrote it before it kept the runs."""
    q, end = np.empty(order.size), 0
    for value, size in zip(values, counts):
        q[order[end:end + size]] = value
        end += size
    return q

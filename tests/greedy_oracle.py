"""Test oracle: the vectorised greedy that `cachegame.game` used to run.

It is the module docstring's algorithm written with one numpy call per step:
the segment order is sorted per call, the water level x_a is the minimum over
all N prefix sums, the heavy segments are counted by one `searchsorted` per
level column, and the floor loop reads numpy scalars.  `game._greedy_placement`
must return the same bits on every input; the tests compare the two with
`np.array_equal`.
"""

import numpy as np


def greedy_placement(probs: np.ndarray, gamma: np.ndarray, alpha: float,
                     cache: float) -> np.ndarray:
    """Exact minimizer of the leader's objective; q in file index order."""
    n, s = probs.size, gamma.size
    hi = 1.0 / np.arange(s, 0, -1)                # segment ends, increasing q
    lo = np.append(0.0, hi[:-1])
    c = np.cumsum(np.arange(1, s + 1) * gamma)[::-1]      # c_k of each segment
    by_popularity = np.argsort(-probs, kind="stable")
    columns = np.outer(-c, probs[by_popularity])  # negated weights -p_j c_k
    order = np.argsort(columns.T.ravel(), kind="stable")
    owner, segment = np.divmod(order, s)
    owner = by_popularity[owner]
    cumprobs = np.cumsum(np.sort(probs))
    x_a = (0.0 if alpha == 0.0 else np.inf if alpha == 1.0 else
           np.min((alpha / (1.0 - alpha) + cumprobs) / np.arange(1, n + 1)))
    # count[k, l]: level-l segments weighing >= c_k x_a, all of them if c_k = 0
    bound = -np.multiply(c, x_a, out=np.zeros(s), where=c > 0)
    count = np.array([column.searchsorted(bound, side="right")
                      for column in columns]).T
    for k in range(s):                            # levels, increasing q
        used = count[k, k] * hi[k] + count[k, k + 1:] @ (hi - lo)[k + 1:]
        mu = (max(lo[k], (cache - used) / (n - count[k, k])) if count[k, k] < n
              else lo[k] if used >= cache else np.inf)
        if mu <= hi[k]:
            break
    heavy = count[k].sum()
    # in floating point M - N*mu can come out as -eps
    budget = max(cache - n * mu, 0.0)
    length = np.maximum(hi - np.maximum(lo, mu), 0.0)[segment[:heavy]]
    end = np.cumsum(length)
    fill = np.clip(budget - np.concatenate(([0.0], end[:-1])), 0.0, length)
    return mu + np.bincount(owner[:heavy], weights=fill, minlength=n)

"""Test oracle: the leader's problem solved as a HiGHS linear program.

Epigraph form of the objective of `cachegame.game`: auxiliary
t_{d,j} >= max(1 - d q_j, 0), a scalar mu <= q_j for min(q), and
s_d >= max(1 - d mu, 0), over {0 <= q <= 1, sum q <= M}.  It runs at a tight
tolerance: at HiGHS's default of 1e-7 it can report `optimal` at a vertex
some 5e-8 above the optimum when segment weights nearly tie.

Even at 1e-9 it is exact only to about 1e-10 when M sits just past a segment
boundary (M = N/2 + 1e-9): there it has stopped up to 1.6e-10 above the
optimum, never below it.  Comparisons at 1e-12 hold away from such inputs.
"""

from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from cachegame import Placement, evaluate


@lru_cache(maxsize=16)
def _lp_constraints(num_files: int, max_cov: int):
    """Sparse A_ub for the epigraph LP; depends only on the problem shape.

    Variable layout: q (N), t (S*N, d-major), mu (1), s (S).
    """
    n, s = num_files, max_cov
    nvars = n + s * n + 1 + s
    mu_col = n + s * n
    rows, cols, vals = [], [], []
    ri = 0
    # t_{d,j} >= 1 - d q_j   <=>   -d q_j - t_{d,j} <= -1
    for d in range(1, s + 1):
        for j in range(n):
            rows += [ri, ri]
            cols += [j, n + (d - 1) * n + j]
            vals += [-float(d), -1.0]
            ri += 1
    # mu <= q_j
    for j in range(n):
        rows += [ri, ri]
        cols += [mu_col, j]
        vals += [1.0, -1.0]
        ri += 1
    # s_d >= 1 - d mu
    for d in range(1, s + 1):
        rows += [ri, ri]
        cols += [mu_col, mu_col + d]
        vals += [-float(d), -1.0]
        ri += 1
    # sum q <= M (rhs filled per instance)
    rows += [ri] * n
    cols += list(range(n))
    vals += [1.0] * n
    ri += 1
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(ri, nvars))
    bounds = [(0.0, 1.0)] * n + [(0.0, None)] * (s * n) + [(0.0, 1.0)] + [(0.0, None)] * s
    return a_ub, bounds


def lp_equilibrium(cfg, tol: float = 1e-9) -> tuple[np.ndarray, float]:
    """(q, R_total) of the LP optimum, R_total evaluated by `cachegame.evaluate`."""
    n = cfg.library.num_files
    s = cfg.coverage.max_coverage
    probs = cfg.popularity.probs
    gamma = cfg.coverage.gamma
    a_ub, bounds = _lp_constraints(n, s)
    b_ub = np.concatenate([-np.ones(s * n), np.zeros(n), -np.ones(s), [cfg.cache_size]])
    c = np.zeros(n + s * n + 1 + s)
    for d in range(s):
        c[n + d * n: n + (d + 1) * n] = (1.0 - cfg.alpha) * gamma[d] * probs
    c[n + s * n + 1:] = cfg.alpha * gamma
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": tol,
                           "dual_feasibility_tolerance": tol})
    if res.status != 0:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    placement = Placement(q=np.clip(res.x[:n], 0.0, 1.0), cache_size=cfg.cache_size)
    return placement.q, evaluate(placement, cfg).r_total

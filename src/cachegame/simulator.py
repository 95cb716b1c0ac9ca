"""Monte Carlo simulation of request counts with explicit MDS packet accounting.

An independent check of the closed-form rates: the caller passes the packet
counts m it deployed, and rates the same m.  A request's cost, the packet
deficit the MBS sends over the backhaul, depends only on its file and its
coverage count, so one multinomial draw over the (file, coverage) cells
gives the same counts as drawing every request on its own, in time and
memory that do not depend on the number of requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GameConfig, _check_count

# the most requests per call: the largest count the multinomial draw takes
# (int64)
MAX_REQUESTS = 2**63 - 1


@dataclass(frozen=True)
class SimReport:
    """Aggregate of a simulation run; the mean is in files per request."""

    requests: int
    backhaul_fraction_mean: float
    backhaul_fraction_stderr: float
    per_coverage_counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.per_coverage_counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "per_coverage_counts", counts)
        if counts.sum() != self.requests:
            raise ValueError("coverage counts must sum to the request count")


def simulate(packets, cfg: GameConfig, n: int, num_requests: int,
             seed: int) -> SimReport:
    """Simulate num_requests deliveries against the deployed packet counts
    `packets`, one integer m_j in [0, n] per file of n fragments.

    A request is adversarial with probability alpha; legitimate users draw a
    file from the popularity, adversaries all target the least cached file
    of m (the lowest index on ties).  A request for file j covered by d SBSs
    costs max(n - d*m_j, 0)/n; the counts of the N*S (file, coverage) cells
    are one multinomial draw, deterministic per seed.  The standard error
    needs at least two requests; n*S must fit int64, so n - d*m_j never wraps.
    """
    num_requests = _check_count(num_requests, "num_requests", 2, MAX_REQUESTS)
    gamma = cfg.coverage.gamma
    n = _check_count(n, "n", 1, (2**63 - 1) // gamma.size)
    seed = _check_count(seed, "seed", 0)
    m = np.asarray(packets)
    if (m.shape != (cfg.popularity.num_files,) or m.dtype.kind not in "iu"
            or not 0 <= m.min() <= m.max() <= n):
        raise ValueError("packets must hold one integer count in [0, n] per file")
    m = m.astype(np.int64, copy=False)
    rng = np.random.default_rng(seed)
    # the bits of (1 - alpha) p + alpha e_target
    p = (1.0 - cfg.alpha) * cfg.popularity.probs
    p[int(m.argmin())] += cfg.alpha
    d = np.arange(1, gamma.size + 1)

    cost = (np.maximum(n - np.outer(m, d), 0) / n).ravel()
    # the model lets a distribution sum to 1 within PROB_TOL, the draw only
    # within 1e-12
    cell_probs = np.outer(p, gamma).ravel()
    cells = rng.multinomial(num_requests, cell_probs / cell_probs.sum())
    mean = float(cells @ cost) / num_requests
    # centred, so equal costs give a standard error of exactly 0
    variance = float(cells @ (cost - mean) ** 2) / (num_requests - 1)
    return SimReport(
        requests=num_requests,
        backhaul_fraction_mean=mean,
        backhaul_fraction_stderr=math.sqrt(variance / num_requests),
        per_coverage_counts=cells.reshape(m.size, gamma.size).sum(axis=0),
    )

"""Monte Carlo simulation of request counts with explicit MDS packet accounting.

Serves as an independent check of the closed-form rates.  A request's cost,
the packet deficit the MBS has to send over the backhaul, depends only on
its file and its coverage count, so one multinomial draw over the
(file, coverage) cells gives the same counts as drawing every request on
its own, in time and memory that do not depend on the number of requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import best_response
from .model import GameConfig, Placement, quantize_placement


@dataclass(frozen=True)
class SimReport:
    """Aggregate of a simulation run; the mean is in files per request.

    packets holds the deployed per-file packet counts m the run served from.
    """

    requests: int
    backhaul_fraction_mean: float
    backhaul_fraction_stderr: float
    per_coverage_counts: np.ndarray
    packets: np.ndarray

    def __post_init__(self):
        counts = np.array(self.per_coverage_counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "per_coverage_counts", counts)
        if counts.sum() != self.requests:
            raise ValueError("coverage counts must sum to the request count")


def simulate(placement: Placement, cfg: GameConfig, n: int,
             num_requests: int, seed: int) -> SimReport:
    """Simulate num_requests deliveries against the quantized placement.

    A request is adversarial with probability alpha; legitimate users draw a
    file from the popularity, adversaries all target the least cached file
    of the deployed m (the lowest index on ties), which need not be the
    least cached file of q once rounding and the capacity repair apply.
    A request for file j covered by d SBSs costs max(n - d*m_j, 0)/n; the
    counts of the N*S (file, coverage) cells are one multinomial draw.  The
    standard error needs at least two requests.  Deterministic per seed.
    """
    if num_requests < 2:
        raise ValueError("need at least two requests for a standard error")
    rng = np.random.default_rng(seed)
    m = quantize_placement(placement, n, cfg.popularity)
    target = best_response(Placement(q=m / n, cache_size=placement.cache_size))
    # the bits of (1 - alpha) p + alpha e_target
    p = (1.0 - cfg.alpha) * cfg.popularity.probs
    p[target] += cfg.alpha
    gamma = cfg.coverage.gamma
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
        packets=m,
    )

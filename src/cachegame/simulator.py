"""Request-level Monte Carlo simulation with explicit MDS packet accounting.

Serves as an independent check of the closed-form rates: each request draws
a user type, a file and a coverage count, and accrues the packet deficit
the MBS has to send over the backhaul.
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
    The per-request cost is max(n - d*m_j, 0)/n; its standard error needs
    at least two requests.  Deterministic per seed.
    """
    if num_requests < 2:
        raise ValueError("need at least two requests for a standard error")
    rng = np.random.default_rng(seed)
    m = quantize_placement(placement, n, cfg.popularity)
    j_star, _ = best_response(Placement(q=m / n, cache_size=placement.cache_size))
    num_files = placement.num_files
    s = cfg.coverage.max_coverage

    is_adv = rng.random(num_requests) < cfg.alpha
    files = np.full(num_requests, j_star, dtype=np.int64)
    files[~is_adv] = rng.choice(num_files, size=int(np.count_nonzero(~is_adv)),
                                p=cfg.popularity.probs)
    coverage = rng.choice(np.arange(1, s + 1), size=num_requests, p=cfg.coverage.gamma)

    cost = np.maximum(n - coverage * m[files], 0) / n
    mean = float(cost.mean())
    stderr = float(cost.std(ddof=1) / math.sqrt(num_requests))
    counts = np.bincount(coverage, minlength=s + 1)[1:]
    return SimReport(
        requests=num_requests,
        backhaul_fraction_mean=mean,
        backhaul_fraction_stderr=stderr,
        per_coverage_counts=counts,
        packets=m,
    )

"""Test oracle: the simulator drawn one request at a time.

Each request draws a user type, a file and a coverage count, and accrues
the packet deficit max(n - d*m_j, 0)/n the MBS has to send over the
backhaul.  `cachegame.simulate` draws only the counts of the (file,
coverage) cells; this oracle checks its sampling, its packet accounting and
its deployed target independently.  Memory is about 34 bytes per request.
"""

import math

import numpy as np

from cachegame import Placement, SimReport, best_response, quantize_placement


def simulate_requests(placement, cfg, n: int, num_requests: int,
                      seed: int) -> tuple[SimReport, np.ndarray]:
    """(report, per-file request counts) of num_requests single draws.

    Same model as `cachegame.simulate`: adversaries target the least cached
    file of the deployed m, the lowest index on ties.
    """
    if num_requests < 2:
        raise ValueError("need at least two requests for a standard error")
    rng = np.random.default_rng(seed)
    m = quantize_placement(placement, n, cfg.popularity)
    j_star = best_response(Placement(q=m / n, cache_size=placement.cache_size))
    num_files = placement.num_files
    s = cfg.coverage.max_coverage

    is_adv = rng.random(num_requests) < cfg.alpha
    files = np.full(num_requests, j_star, dtype=np.int64)
    files[~is_adv] = rng.choice(num_files, size=int(np.count_nonzero(~is_adv)),
                                p=cfg.popularity.probs)
    coverage = rng.choice(np.arange(1, s + 1), size=num_requests, p=cfg.coverage.gamma)

    cost = np.maximum(n - coverage * m[files], 0) / n
    report = SimReport(
        requests=num_requests,
        backhaul_fraction_mean=float(cost.mean()),
        backhaul_fraction_stderr=float(cost.std(ddof=1) / math.sqrt(num_requests)),
        per_coverage_counts=np.bincount(coverage, minlength=s + 1)[1:],
        packets=m,
    )
    return report, np.bincount(files, minlength=num_files)

"""Closed-form backhaul rates for a given placement.

A user covered by d SBSs receives d*q_j of the requested file from the
caches; the MBS sends the deficit max(1 - d*q_j, 0) over the backhaul.
Rates are normalized per request and per file.
"""

from __future__ import annotations

import numpy as np

from .model import (CoverageProfile, Placement, PopularityDist, RateBreakdown,
                    PROB_TOL)

# the adversaries' request distribution; the best response is a point mass
AdversaryStrategy = PopularityDist


def deficit_rate(q: np.ndarray, weights: np.ndarray, gamma: np.ndarray) -> float:
    """sum_d sum_j gamma_d * w_j * max(1 - d*q_j, 0) on raw arrays."""
    d = np.arange(1, gamma.size + 1, dtype=float)
    deficit = np.maximum(1.0 - np.outer(d, q), 0.0)
    return float(gamma @ deficit @ weights)


def legit_rate(placement: Placement, popularity: PopularityDist,
               coverage: CoverageProfile) -> float:
    """Average backhaul rate of a legitimate user requesting by popularity."""
    if popularity.num_files != placement.num_files:
        raise ValueError("popularity size does not match the placement")
    return deficit_rate(placement.q, popularity.probs, coverage.gamma)


def adversary_rate(placement: Placement, coverage: CoverageProfile,
                   strategy: AdversaryStrategy) -> float:
    """Average backhaul rate of an adversary user with the given strategy."""
    if strategy.probs.size != placement.num_files:
        raise ValueError("strategy size does not match the placement")
    return deficit_rate(placement.q, strategy.probs, coverage.gamma)


def total_rate(alpha: float, r_legit: float, r_adv: float) -> RateBreakdown:
    """Mix the per-user rates by the adversary fraction alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not (-PROB_TOL <= r_legit <= 1.0 + PROB_TOL
            and -PROB_TOL <= r_adv <= 1.0 + PROB_TOL):
        raise ValueError("rates must lie in [0, 1]")
    r_legit = min(max(r_legit, 0.0), 1.0)
    r_adv = min(max(r_adv, 0.0), 1.0)
    return RateBreakdown(
        r_legit=r_legit,
        r_adv=r_adv,
        r_total=alpha * r_adv + (1.0 - alpha) * r_legit,
    )

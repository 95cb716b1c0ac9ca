"""Closed-form backhaul rates for a given placement.

A user covered by d SBSs receives d*q_j of the requested file from the
caches; the MBS sends the deficit max(1 - d*q_j, 0) over the backhaul.
Rates are normalized per request and per file.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (CoverageProfile, Placement, PopularityDist, RateBreakdown,
                    PROB_TOL)


def legit_rate(placement: Placement, popularity: PopularityDist,
               coverage: CoverageProfile) -> float:
    """Average backhaul rate of users requesting by `popularity` or a mixed
    strategy, sum_d sum_j gamma_d p_j max(1 - d q_j, 0)."""
    if popularity.num_files != placement.num_files:
        raise ValueError("popularity size does not match the placement")
    gamma = coverage.gamma
    d = np.arange(1, gamma.size + 1, dtype=float)
    # in place: at large N each fresh S x N temporary costs page faults
    deficit = np.multiply.outer(d, placement.q)
    np.subtract(1.0, deficit, out=deficit)
    np.maximum(deficit, 0.0, out=deficit)
    return float(gamma @ deficit @ popularity.probs)


def adversary_rate(placement: Placement, coverage: CoverageProfile,
                   target: int) -> float:
    """Backhaul rate of an adversary requesting file `target` (0-based),
    h(q_target) = sum_d gamma_d max(1 - d q_target, 0), summed by math.fsum."""
    if not 0 <= target < placement.num_files:
        raise ValueError("target file out of range")
    x = float(placement.q[target])
    return math.fsum([g * (1.0 - d * x) for d, g in
                      enumerate(coverage.gamma.tolist(), start=1) if d * x < 1.0])


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

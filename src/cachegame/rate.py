"""Closed-form backhaul rates for a given placement.

A user covered by d SBSs receives d*q_j of the requested file from the
caches; the MBS sends the deficit max(1 - d*q_j, 0) over the backhaul.
Averaged over the coverage profile, a request for file j costs h(q_j),
which both rates read off the profile's deficit curve
(`CoverageProfile.deficit`, or `deficit_at` at one float), the one
definition of h; no S x N matrix is built.  Rates are normalized per request
and per file.
"""

from __future__ import annotations

import math

from .model import (CoverageProfile, Placement, PopularityDist, RateBreakdown,
                    PROB_TOL)


def legit_rate(placement: Placement, popularity: PopularityDist,
               coverage: CoverageProfile, runs=None) -> float:
    """Average backhaul rate of users requesting by `popularity` or a mixed
    strategy, sum_j p_j h(q_j).

    `runs`, when given, lists the placement as (value, mass) pairs: a run
    of files that all hold `value`, and the popularity mass of those files.
    The rate is then math.fsum of mass * h(value), with no pass over the
    files; the equilibrium solver passes the runs of q*, at most S + 2.
    """
    if popularity.num_files != placement.num_files:
        raise ValueError("popularity size does not match the placement")
    if runs is not None:
        return math.fsum([mass * coverage.deficit_at(value) for value, mass in runs])
    return float(coverage.deficit(placement.q) @ popularity.probs)


def adversary_rate(placement: Placement, coverage: CoverageProfile,
                   target: int) -> float:
    """Backhaul rate of an adversary requesting file `target` (0-based),
    h(q_target)."""
    # any integer, numpy's too, has __index__; a bool has one but is no index
    if isinstance(target, bool) or not hasattr(target, "__index__"):
        raise ValueError(f"target must be an integer file index, got {target!r}")
    if not 0 <= target < placement.num_files:
        raise ValueError("target file out of range")
    # read off the placement's runs when it has them: q is not built
    return coverage.deficit_at(placement._entry(target))


def total_rate(alpha: float, r_legit: float, r_adv: float) -> RateBreakdown:
    """Mix the per-user rates by the adversary fraction alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    # legit_rate weighs by two sums that may each pass 1 by PROB_TOL
    top = 1.0 + 3 * PROB_TOL
    if not (-PROB_TOL <= r_legit <= top and -PROB_TOL <= r_adv <= top):
        raise ValueError("rates must lie in [0, 1]")
    r_legit = min(max(r_legit, 0.0), 1.0)
    r_adv = min(max(r_adv, 0.0), 1.0)
    return RateBreakdown(
        r_legit=r_legit,
        r_adv=r_adv,
        r_total=alpha * r_adv + (1.0 - alpha) * r_legit,
    )

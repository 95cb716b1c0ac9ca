"""Coverage geometry for a square SBS grid inside a circular MBS cell.

The coverage profile is computed on one interior grid cell with its four
corner SBS disks.  For sbs_spacing/sqrt(2) <= sbs_radius <= sbs_spacing every
point of the cell is covered by one to four disks, so the per-count areas
partition the cell exactly.  `coverage_areas` computes those areas in closed
form, and `coverage_profile` normalizes them into the distribution gamma.
The geometry draws no random numbers; the tests check the closed form
against Monte Carlo estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CoverageProfile, _check_real

MAX_COVERAGE = 4


@dataclass(frozen=True)
class NetworkGeometry:
    """MBS disk of radius D with a square SBS grid of pitch d_s and disk radius r."""

    mbs_radius: float
    sbs_spacing: float
    sbs_radius: float
    user_density: float

    def __post_init__(self):
        for name in ("mbs_radius", "sbs_spacing", "sbs_radius", "user_density"):
            value = getattr(self, name)
            if type(value) is not float:
                _check_real(value, name)
            # written so that NaN fails the test
            if name != "sbs_radius" and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        lo = self.sbs_spacing / math.sqrt(2.0)
        if not lo - 1e-9 <= self.sbs_radius <= self.sbs_spacing + 1e-9:
            raise ValueError(
                "sbs_radius must lie in [sbs_spacing/sqrt(2), sbs_spacing]"
            )


def coverage_areas(geom: NetworkGeometry) -> np.ndarray:
    """Exact area of the exactly-d coverage regions of the unit cell, d = 1..4.

    With d = sbs_spacing and r = sbs_radius, the four-fold area A4 is four
    times the part of a quarter cell within r of the opposite corner, and
    the inclusion-exclusion sums sum_k C(k, i) A_k for i = 0, 1, 2 are the
    cell area d^2, the four quarter disks pi r^2 (r <= d keeps them inside
    the cell) and the pairwise overlaps 2 Lens(d) + 2 Lens(d sqrt 2), where
    Lens(s) is the intersection of two r-disks s apart.  Those three sums
    fix A1, A2 and A3.  Arguments of sqrt, acos and asin are clamped so the
    radius tolerance of NetworkGeometry stays in their domains, and each
    area is clamped at 0: A3 = A4 = 0 at r = d/sqrt(2) and A1 = 0 at r = d.
    """
    d, r = geom.sbs_spacing, geom.sbs_radius
    r2 = r * r

    def under_arc(x):  # integral of sqrt(r^2 - u^2) from 0 to x, 0 <= x <= r
        return 0.5 * (x * math.sqrt(max(r2 - x * x, 0.0))
                      + r2 * math.asin(min(x / r, 1.0)))

    def lens(s):
        return (2.0 * r2 * math.acos(min(s / (2.0 * r), 1.0))
                - 0.5 * s * math.sqrt(max(4.0 * r2 - s * s, 0.0)))

    h = 0.5 * d
    t = math.sqrt(max(r2 - h * h, 0.0))
    a4 = max(4.0 * (under_arc(t) - under_arc(h) - h * (t - h)), 0.0)
    t0 = d * d - a4
    t1 = math.pi * r2 - 4.0 * a4
    t2 = 2.0 * lens(d) + 2.0 * lens(d * math.sqrt(2.0)) - 6.0 * a4
    a3 = t2 - (t1 - t0)
    a2 = t1 - t0 - 2.0 * a3
    a1 = t0 - a2 - a3
    areas = np.maximum([a1, a2, a3, a4], 0.0)
    areas.setflags(write=False)
    return areas


def coverage_profile(areas: np.ndarray) -> CoverageProfile:
    """Normalize the exactly-1..4 areas into the coverage distribution gamma.

    A negative area fails the check of CoverageProfile.
    """
    total = areas.sum()
    if total <= 0:
        raise ValueError("all coverage areas are zero")
    return CoverageProfile(gamma=areas / total)


def deployment_counts(geom: NetworkGeometry) -> tuple[int, int]:
    """Number of deployed SBSs and of users inside the MBS disk.

    An SBS at grid point (i*d_s, j*d_s) is deployed when its coverage disk
    intersects the MBS disk, i.e. its center is within D + r of the MBS.
    """
    num_users = round(geom.user_density * math.pi * geom.mbs_radius**2)
    reach = geom.mbs_radius + geom.sbs_radius
    kmax = int(reach // geom.sbs_spacing)
    idx = np.arange(-kmax, kmax + 1)
    xx, yy = np.meshgrid(idx, idx)
    dist2 = (xx.astype(float) ** 2 + yy.astype(float) ** 2) * geom.sbs_spacing**2
    num_sbs = int(np.count_nonzero(dist2 <= reach**2 + 1e-9))
    return num_sbs, num_users

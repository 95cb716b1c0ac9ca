"""Coverage geometry for a square SBS grid inside a circular MBS cell.

The coverage profile is estimated on one interior grid cell with its four
corner SBS disks.  For sbs_spacing/sqrt(2) <= sbs_radius <= sbs_spacing every
point of the cell is covered by one to four disks, so the per-count areas
partition the cell exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CoverageProfile

MAX_COVERAGE = 4
_CHUNK = 1 << 20


@dataclass(frozen=True)
class NetworkGeometry:
    """MBS disk of radius D with a square SBS grid of pitch d_s and disk radius r."""

    mbs_radius: float
    sbs_spacing: float
    sbs_radius: float
    user_density: float

    def __post_init__(self):
        for name in ("mbs_radius", "sbs_spacing", "user_density"):
            # written so that NaN fails the test
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        lo = self.sbs_spacing / math.sqrt(2.0)
        if not lo - 1e-9 <= self.sbs_radius <= self.sbs_spacing + 1e-9:
            raise ValueError(
                "sbs_radius must lie in [sbs_spacing/sqrt(2), sbs_spacing]"
            )


@dataclass(frozen=True)
class CoverageAreas:
    """Unit-cell areas covered by exactly 1..4 SBS disks.

    `hits` and `samples` keep the raw Monte Carlo tallies; the hit counts
    partition the samples exactly, which the float areas only do up to
    rounding.
    """

    areas: np.ndarray
    cell_area: float
    hits: np.ndarray | None = None
    samples: int | None = None

    def __post_init__(self):
        areas = np.array(self.areas, dtype=float)
        areas.setflags(write=False)
        object.__setattr__(self, "areas", areas)
        if np.any(areas < 0):
            raise ValueError("areas must be non-negative")
        if self.hits is not None:
            hits = np.array(self.hits, dtype=np.int64)
            hits.setflags(write=False)
            object.__setattr__(self, "hits", hits)


def coverage_areas_unit_cell(geom: NetworkGeometry, samples: int,
                             seed: int) -> CoverageAreas:
    """Monte Carlo area of the exactly-d coverage regions of the unit cell.

    Uniform points in [0, d_s]^2 are classified by how many of the four
    corner disks of radius r contain them.  The RNG is numpy's default
    PCG64 stream; results are bit-identical for a fixed (seed, samples).
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    ds = geom.sbs_spacing
    r2 = geom.sbs_radius**2
    rng = np.random.default_rng(seed)
    hits = np.zeros(MAX_COVERAGE + 1, dtype=np.int64)
    remaining = samples
    while remaining > 0:
        batch = min(_CHUNK, remaining)
        x = rng.random(batch) * ds
        y = rng.random(batch) * ds
        count = (
            (x * x + y * y <= r2).astype(np.int8)
            + (x * x + (y - ds) ** 2 <= r2)
            + ((x - ds) ** 2 + y * y <= r2)
            + ((x - ds) ** 2 + (y - ds) ** 2 <= r2)
        )
        hits += np.bincount(count, minlength=MAX_COVERAGE + 1)
        remaining -= batch
    # r >= d_s/sqrt(2) puts every sample within reach of some corner
    assert hits[0] == 0, "uncovered sample in the valid radius range"
    cell_area = ds * ds
    areas = cell_area * hits[1:] / samples
    return CoverageAreas(areas=areas, cell_area=cell_area, hits=hits[1:],
                         samples=samples)


def coverage_profile(areas: CoverageAreas) -> CoverageProfile:
    """Normalize the per-count areas into the coverage distribution gamma."""
    total = areas.areas.sum()
    if total <= 0:
        raise ValueError("all coverage areas are zero")
    return CoverageProfile(gamma=areas.areas / total)


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

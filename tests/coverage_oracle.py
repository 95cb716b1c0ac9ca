"""Test oracle: the coverage areas of the unit cell estimated by Monte Carlo.

The library computes the exactly-1..4 areas in closed form
(`cachegame.geometry.coverage_areas`); this estimator checks it and gives the
acceptance tests their seeded coverage profiles.
"""

import numpy as np

from cachegame.geometry import MAX_COVERAGE, NetworkGeometry

_CHUNK = 1 << 20


def coverage_areas_unit_cell(geom: NetworkGeometry, samples: int,
                             seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo area of the exactly-d coverage regions of the unit cell.

    Uniform points in [0, d_s]^2 are classified by how many of the four
    corner disks of radius r contain them.  The RNG is numpy's default
    PCG64 stream; results are bit-identical for a fixed (seed, samples).
    Returns the areas and the per-count hit tallies, d = 1..4; the hits
    partition the samples exactly, which the float areas only do up to
    rounding.
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
    areas = ds * ds * hits[1:] / samples
    return areas, hits[1:]

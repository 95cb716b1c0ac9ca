import math

import numpy as np
import pytest

from cachegame import (NetworkGeometry, coverage_areas, coverage_profile,
                       deployment_counts)
from coverage_oracle import coverage_areas_unit_cell


def independent_coverage_mc(spacing, radius, samples, seed):
    """Second, independently written coverage estimator.

    Uses the Philox bit generator and hypot-based disk tests so it shares
    no code path or random stream with the library implementation.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    counts = np.zeros(5, dtype=np.int64)
    done = 0
    while done < samples:
        batch = min(2_000_000, samples - done)
        x = rng.uniform(0.0, spacing, batch)
        y = rng.uniform(0.0, spacing, batch)
        hits = np.zeros(batch, dtype=np.int64)
        for cx, cy in ((0, 0), (0, spacing), (spacing, 0), (spacing, spacing)):
            hits += np.hypot(x - cx, y - cy) <= radius
        counts += np.bincount(hits, minlength=5)
        done += batch
    return counts[1:] / samples


def geom(radius, spacing=60.0):
    return NetworkGeometry(mbs_radius=500.0, sbs_spacing=spacing,
                           sbs_radius=radius, user_density=0.05)


class TestNetworkGeometry:
    def test_radius_window(self):
        NetworkGeometry(mbs_radius=500, sbs_spacing=60, sbs_radius=60 / math.sqrt(2),
                        user_density=0.05)
        with pytest.raises(ValueError):
            geom(40.0)
        with pytest.raises(ValueError):
            geom(61.0)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            NetworkGeometry(mbs_radius=0, sbs_spacing=60, sbs_radius=45,
                            user_density=0.05)
        with pytest.raises(ValueError):
            NetworkGeometry(mbs_radius=500, sbs_spacing=60, sbs_radius=45,
                            user_density=0)

    @pytest.mark.parametrize("field", ["mbs_radius", "sbs_spacing", "user_density"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fields(self, field, value):
        fields = dict(mbs_radius=500.0, sbs_spacing=60.0, sbs_radius=45.0,
                      user_density=0.05)
        with pytest.raises(ValueError, match=f"^{field} "):
            NetworkGeometry(**{**fields, field: value})


class TestCoverageAreas:
    def test_buckets_partition_the_cell(self):
        areas, hits = coverage_areas_unit_cell(geom(45.0), 100_000, seed=3)
        assert hits.sum() == 100_000
        assert areas.sum() == pytest.approx(60.0**2, rel=1e-12)

    def test_rejects_negative_area(self):
        # the one consumer of the areas checks them
        with pytest.raises(ValueError, match="non-negative"):
            coverage_profile(np.array([1.0, -0.5]))

    def test_seed_determinism(self):
        a, _ = coverage_areas_unit_cell(geom(50.0), 200_000, seed=9)
        b, _ = coverage_areas_unit_cell(geom(50.0), 200_000, seed=9)
        assert np.array_equal(a, b)

    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError):
            coverage_areas_unit_cell(geom(45.0), 100, seed=1)

    def test_near_minimal_radius(self):
        # just above spacing/sqrt(2) almost all mass sits on single and
        # double coverage; the four-fold region around the cell center is
        # ~3e-8 of the cell and needs a larger radius to be observable
        areas, _ = coverage_areas_unit_cell(geom(60 * 0.7072), 1_000_000, seed=12)
        gamma = coverage_profile(areas).gamma
        assert gamma.sum() == pytest.approx(1.0, abs=3e-3)
        assert gamma[0] + gamma[1] > 0.99
        wider = coverage_profile(
            coverage_areas_unit_cell(geom(45.0), 1_000_000, seed=12)[0]).gamma
        assert wider[3] > 0

    @pytest.mark.parametrize("radius", [45.0, 60.0])
    def test_matches_independent_oracle(self, radius):
        gamma = coverage_profile(
            coverage_areas_unit_cell(geom(radius), 1_000_000, seed=21)[0]).gamma
        oracle = independent_coverage_mc(60.0, radius, 1_000_000, seed=99)
        np.testing.assert_allclose(gamma, oracle, atol=3e-3)

    def test_overlap_grows_with_radius(self):
        stderr = 0.5 / math.sqrt(500_000)
        g_small = coverage_profile(
            coverage_areas_unit_cell(geom(45.0), 500_000, seed=4)[0]).gamma
        g_large = coverage_profile(
            coverage_areas_unit_cell(geom(55.0), 500_000, seed=4)[0]).gamma
        assert g_large[3] >= g_small[3] - 3 * stderr
        assert g_large[0] <= g_small[0] + 3 * stderr

    def test_convergence_when_doubling_samples(self):
        g1 = coverage_profile(
            coverage_areas_unit_cell(geom(50.0), 1_000_000, seed=6)[0]).gamma
        g2 = coverage_profile(
            coverage_areas_unit_cell(geom(50.0), 2_000_000, seed=7)[0]).gamma
        assert np.max(np.abs(g1 - g2)) < 3 * 0.5 / math.sqrt(1_000_000)


def lens(spacing, radius):
    """Area of the intersection of two disks of the radius, spacing apart."""
    return (2 * radius**2 * math.acos(spacing / (2 * radius))
            - spacing / 2 * math.sqrt(4 * radius**2 - spacing**2))


class TestExactCoverageAreas:
    """The closed form, checked against moment identities and Monte Carlo."""

    RADII = [43.0, 45.0, 50.0, 52.5, 55.0, 60.0]

    @pytest.mark.parametrize("radius", RADII)
    def test_moment_sums(self, radius):
        a = coverage_areas(geom(radius))
        k = np.arange(1, 5)
        # a disk pair overlaps inside the cell in half a lens along an edge
        # and in a whole lens along a diagonal
        pairs = 2 * lens(60.0, radius) + 2 * lens(60.0 * math.sqrt(2), radius)
        assert a.sum() == pytest.approx(60.0**2, rel=1e-9)
        assert (k * a).sum() == pytest.approx(math.pi * radius**2, rel=1e-9)
        assert (k * (k - 1) / 2 * a).sum() == pytest.approx(pairs, rel=1e-9)

    @pytest.mark.parametrize("radius", RADII)
    def test_matches_independent_oracle(self, radius):
        samples = 1_000_000
        exact = coverage_areas(geom(radius)) / 60.0**2
        oracle = independent_coverage_mc(60.0, radius, samples, seed=77)
        sigma = np.sqrt(exact * (1 - exact) / samples)
        assert np.all(np.abs(oracle - exact) <= 4 * sigma + 1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 0.5, 7.0, 1e4])
    def test_scale_invariance(self, scale):
        for radius in (45.0, 52.5):
            base = coverage_areas(geom(radius))
            scaled = coverage_areas(geom(scale * radius, spacing=scale * 60.0))
            np.testing.assert_allclose(scaled, scale**2 * base, rtol=1e-9,
                                       atol=1e-12 * scale**2 * 60.0**2)

    def test_overlap_grows_with_radius(self):
        radii = np.linspace(60.0 / math.sqrt(2), 60.0, 400)
        a = np.array([coverage_areas(geom(r)) for r in radii])
        assert np.all(np.diff(a[:, 3]) >= 0)
        assert np.all(np.diff(a[:, 0]) <= 0)

    @pytest.mark.parametrize("radius, zero", [
        (60.0 / math.sqrt(2) - 1e-9, [2, 3]), (60.0 / math.sqrt(2), [2, 3]),
        (60.0 / math.sqrt(2) + 1e-9, [2, 3]),
        (60.0 - 1e-9, [0]), (60.0, [0]), (60.0 + 1e-9, [0]),
    ])
    def test_window_edges(self, radius, zero):
        a = coverage_areas(geom(radius))
        assert not a.flags.writeable
        assert np.all(a >= 0)
        assert a.sum() == pytest.approx(60.0**2, rel=1e-9)
        np.testing.assert_allclose(a[zero], 0.0, atol=1e-9 * 60.0**2)


class TestCoverageProfile:
    def test_equal_areas(self):
        profile = coverage_profile(np.array([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(profile.gamma, 0.25)

    def test_degenerate_single_coverage(self):
        profile = coverage_profile(np.array([3600.0, 0.0, 0.0, 0.0]))
        assert profile.gamma.tolist() == [1, 0, 0, 0]

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            coverage_profile(np.zeros(4))


class TestDeploymentCounts:
    def test_user_count_matches_density(self):
        _, users = deployment_counts(geom(45.0))
        assert users == 39270

    def test_sbs_count_small_disk(self):
        # lattice points within 120 m of the center: origin, 4 at distance 60,
        # 4 diagonals at 60*sqrt(2) and 4 at 120
        g = NetworkGeometry(mbs_radius=60, sbs_spacing=60, sbs_radius=60,
                            user_density=0.05)
        num_sbs, _ = deployment_counts(g)
        assert num_sbs == 13

    def test_origin_always_deployed(self):
        g = NetworkGeometry(mbs_radius=1e-6, sbs_spacing=60, sbs_radius=45,
                            user_density=0.05)
        num_sbs, _ = deployment_counts(g)
        assert num_sbs >= 1

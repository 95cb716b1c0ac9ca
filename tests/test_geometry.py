import math

import numpy as np
import pytest

from cachegame import (NetworkGeometry, coverage_areas_unit_cell,
                       coverage_profile, deployment_counts)
from cachegame.geometry import CoverageAreas


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
        areas = coverage_areas_unit_cell(geom(45.0), 100_000, seed=3)
        assert areas.hits.sum() == areas.samples
        assert areas.areas.sum() == pytest.approx(areas.cell_area, rel=1e-12)

    def test_seed_determinism(self):
        a = coverage_areas_unit_cell(geom(50.0), 200_000, seed=9)
        b = coverage_areas_unit_cell(geom(50.0), 200_000, seed=9)
        assert np.array_equal(a.areas, b.areas)

    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError):
            coverage_areas_unit_cell(geom(45.0), 100, seed=1)

    def test_near_minimal_radius(self):
        # just above spacing/sqrt(2) almost all mass sits on single and
        # double coverage; the four-fold region around the cell center is
        # ~3e-8 of the cell and needs a larger radius to be observable
        areas = coverage_areas_unit_cell(geom(60 * 0.7072), 1_000_000, seed=12)
        gamma = coverage_profile(areas).gamma
        assert gamma.sum() == pytest.approx(1.0, abs=3e-3)
        assert gamma[0] + gamma[1] > 0.99
        wider = coverage_profile(
            coverage_areas_unit_cell(geom(45.0), 1_000_000, seed=12)).gamma
        assert wider[3] > 0

    @pytest.mark.parametrize("radius", [45.0, 60.0])
    def test_matches_independent_oracle(self, radius):
        gamma = coverage_profile(
            coverage_areas_unit_cell(geom(radius), 1_000_000, seed=21)).gamma
        oracle = independent_coverage_mc(60.0, radius, 1_000_000, seed=99)
        np.testing.assert_allclose(gamma, oracle, atol=3e-3)

    def test_overlap_grows_with_radius(self):
        stderr = 0.5 / math.sqrt(500_000)
        g_small = coverage_profile(
            coverage_areas_unit_cell(geom(45.0), 500_000, seed=4)).gamma
        g_large = coverage_profile(
            coverage_areas_unit_cell(geom(55.0), 500_000, seed=4)).gamma
        assert g_large[3] >= g_small[3] - 3 * stderr
        assert g_large[0] <= g_small[0] + 3 * stderr

    def test_convergence_when_doubling_samples(self):
        g1 = coverage_profile(
            coverage_areas_unit_cell(geom(50.0), 1_000_000, seed=6)).gamma
        g2 = coverage_profile(
            coverage_areas_unit_cell(geom(50.0), 2_000_000, seed=7)).gamma
        assert np.max(np.abs(g1 - g2)) < 3 * 0.5 / math.sqrt(1_000_000)


class TestCoverageProfile:
    def test_equal_areas(self):
        profile = coverage_profile(CoverageAreas(areas=[1, 1, 1, 1], cell_area=4))
        np.testing.assert_allclose(profile.gamma, 0.25)

    def test_degenerate_single_coverage(self):
        profile = coverage_profile(CoverageAreas(areas=[3600, 0, 0, 0], cell_area=3600))
        assert profile.gamma.tolist() == [1, 0, 0, 0]

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            coverage_profile(CoverageAreas(areas=[0, 0, 0, 0], cell_area=3600))


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

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr

from softrec.channel import (
    ChannelModel,
    log_output_density,
    output_cdf,
    output_density,
    output_quantile,
    output_sf,
    transmit,
)

# Frozen against a direct Gaussian-mixture evaluation (scipy.special.ndtr),
# PAM-4 {-3,-1,1,3}, uniform priors, sigma^2 = 2.5.
CDF_AT_1 = 0.6235734954517498
PDF_AT_HALF = 0.12373794870959541
QUANTILE_25 = -2.06524561942155


class TestChannelModel:
    def test_rejects_nonpositive_variance(self, pam4):
        with pytest.raises(ValueError):
            ChannelModel(pam4, 0.0)
        with pytest.raises(ValueError):
            ChannelModel(pam4, -1.0)

    def test_sigma_accessor(self, ch4_0db):
        assert ch4_0db.noise_variance == pytest.approx(2.5)


class TestTransmit:
    def test_shape_follows_input(self, ch4_0db, rng):
        x = rng.integers(0, 4, size=1000)
        y = transmit(x, ch4_0db, rng)
        assert y.shape == (1000,)
        assert y.dtype.kind == "f"

    def test_scalar_input(self, ch4_0db, rng):
        y = transmit(2, ch4_0db, rng)
        assert np.ndim(y) == 0

    def test_seeded_reproducibility(self, ch4_0db):
        x = np.tile(np.arange(4), 125)
        y1 = transmit(x, ch4_0db, np.random.default_rng(77))
        y2 = transmit(x, ch4_0db, np.random.default_rng(77))
        np.testing.assert_array_equal(y1, y2)

    def test_noise_moments(self, ch4_0db):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, size=200_000)
        y = transmit(x, ch4_0db, rng)
        w = y - ch4_0db.constellation.points[x]
        assert np.mean(w) == pytest.approx(0.0, abs=0.02)
        assert np.var(w) == pytest.approx(2.5, rel=0.02)

    def test_rejects_out_of_range_symbols(self, ch4_0db, rng):
        with pytest.raises(ValueError):
            transmit(np.array([0, 4]), ch4_0db, rng)
        with pytest.raises(ValueError):
            transmit(-1, ch4_0db, rng)


class TestOutputDensity:
    def test_frozen_value(self, ch4_0db):
        assert output_density(0.5, ch4_0db) == pytest.approx(PDF_AT_HALF, rel=1e-12)

    def test_matches_explicit_mixture(self, ch4_0db, rng):
        y = rng.uniform(-12, 12, size=64)
        s2 = ch4_0db.noise_variance
        expect = np.zeros_like(y)
        for a, w in zip(ch4_0db.constellation.points, ch4_0db.constellation.priors):
            expect += w * np.exp(-((y - a) ** 2) / (2 * s2)) / np.sqrt(2 * np.pi * s2)
        np.testing.assert_allclose(output_density(y, ch4_0db), expect, rtol=1e-12)

    def test_integrates_to_one(self, ch4_0db):
        y = np.linspace(-35, 35, 400_001)
        total = np.trapezoid(output_density(y, ch4_0db), y)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_log_density_consistent(self, ch4_0db):
        y = np.array([-8.0, -0.3, 2.2, 9.0])
        np.testing.assert_allclose(
            log_output_density(y, ch4_0db), np.log(output_density(y, ch4_0db)), rtol=1e-12
        )

    def test_log_density_survives_underflow(self, ch4_0db):
        # plain density underflows to 0 around |y| ~ 130 at sigma^2 = 2.5
        y = 200.0
        assert output_density(y, ch4_0db) == 0.0
        lo = log_output_density(y, ch4_0db)
        assert np.isfinite(lo) and lo < -500


class TestOutputCdf:
    def test_frozen_value(self, ch4_0db):
        assert output_cdf(1.0, ch4_0db) == pytest.approx(CDF_AT_1, rel=1e-12)

    def test_symmetry_at_zero(self, ch4_0db):
        assert output_cdf(0.0, ch4_0db) == pytest.approx(0.5, abs=1e-14)

    def test_limits_and_monotonicity(self, ch4_0db):
        y = np.linspace(-30, 30, 2001)
        f = output_cdf(y, ch4_0db)
        assert np.all(np.diff(f) >= 0)
        assert f[0] == pytest.approx(0.0, abs=1e-12)
        assert f[-1] == pytest.approx(1.0, abs=1e-12)

    def test_derivative_is_density(self, ch4_0db):
        y = np.array([-3.7, -0.9, 0.4, 2.6])
        h = 1e-6
        num = (output_cdf(y + h, ch4_0db) - output_cdf(y - h, ch4_0db)) / (2 * h)
        np.testing.assert_allclose(num, output_density(y, ch4_0db), rtol=1e-7)

    def test_sf_complements_cdf(self, ch4_0db):
        y = np.array([-6.0, 0.0, 4.5])
        np.testing.assert_allclose(
            output_sf(y, ch4_0db) + output_cdf(y, ch4_0db), 1.0, atol=1e-14
        )

    def test_sf_accurate_in_far_tail(self, ch4_0db):
        # 1 - cdf loses everything past ~ 8 sigma; sf must not
        y = 30.0
        sf = output_sf(y, ch4_0db)
        expect = np.mean(
            [ndtr(-(y - a) / np.sqrt(2.5)) for a in ch4_0db.constellation.points]
        )
        assert sf == pytest.approx(expect, rel=1e-10)
        assert sf > 0.0


class TestOutputQuantile:
    def test_frozen_value(self, ch4_0db):
        assert output_quantile(0.25, ch4_0db) == pytest.approx(QUANTILE_25, abs=1e-9)

    def test_roundtrip_with_cdf(self, ch4_0db, rng):
        p = rng.uniform(1e-6, 1 - 1e-6, size=40)
        y = output_quantile(p, ch4_0db)
        np.testing.assert_allclose(output_cdf(y, ch4_0db), p, atol=1e-10)

    def test_against_root_finder(self, ch4_0db):
        for p in (0.01, 0.37, 0.5, 0.93):
            ref = brentq(lambda t: output_cdf(t, ch4_0db) - p, -60.0, 60.0, xtol=1e-12)
            assert output_quantile(p, ch4_0db) == pytest.approx(ref, abs=1e-9)

    def test_median_is_zero(self, ch4_0db):
        assert output_quantile(0.5, ch4_0db) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_out_of_range(self, ch4_0db):
        with pytest.raises(ValueError):
            output_quantile(0.0, ch4_0db)
        with pytest.raises(ValueError):
            output_quantile(1.0, ch4_0db)

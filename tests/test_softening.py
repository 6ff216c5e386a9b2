from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from softrec.channel import ChannelModel, output_cdf, output_density, transmit
from softrec.constellation import decide, pam
from softrec.softening import (
    N_EPS,
    MonotonicityConfig,
    build_transform,
    enumerate_configs,
    inverse_and_jacobian,
    soften,
)

CONFIGS4 = list(enumerate_configs(4))


class TestMonotonicityConfig:
    def test_named_constructors(self):
        assert MonotonicityConfig.base(4).signs == (1, 1, 1, 1)
        assert MonotonicityConfig.alternating(4).signs == (1, -1, 1, -1)
        assert MonotonicityConfig.alternating(2).signs == (1, -1)

    def test_from_string(self):
        assert MonotonicityConfig.from_string("base", 4).signs == (1, 1, 1, 1)
        assert MonotonicityConfig.from_string("alternating", 4).signs == (1, -1, 1, -1)
        assert MonotonicityConfig.from_string("+-+-", 4).signs == (1, -1, 1, -1)
        assert MonotonicityConfig.from_string("-+--", 4).signs == (-1, 1, -1, -1)

    def test_names(self):
        assert MonotonicityConfig.base(4).name == "base"
        assert MonotonicityConfig.alternating(4).name == "alternating"
        assert MonotonicityConfig.from_string("--+-", 4).name == "--+-"

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            MonotonicityConfig.from_string("++", 4)
        with pytest.raises(ValueError):
            MonotonicityConfig.from_string("+x+-", 4)

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            MonotonicityConfig(signs=(1, 0, 1, 1))
        with pytest.raises(ValueError):
            MonotonicityConfig(signs=())

    def test_enumerate_counts(self):
        four = list(enumerate_configs(4))
        assert len(four) == 16
        assert len({c.signs for c in four}) == 16
        assert four[0].signs == (1, 1, 1, 1)
        assert four[-1].signs == (-1, -1, -1, -1)
        assert len(list(enumerate_configs(2))) == 4


class TestBuildTransform:
    def test_edges_are_region_cdf_values(self, ch4_0db, t_base):
        bounds = t_base.regions.boundaries
        inner = output_cdf(bounds, ch4_0db)
        np.testing.assert_allclose(t_base.cdf_edges[1:-1], inner, rtol=1e-12)
        assert t_base.cdf_edges[0] == 0.0
        assert t_base.cdf_edges[-1] == 1.0

    def test_deltas_sum_to_one(self, t_base, t_alt):
        for t in (t_base, t_alt):
            assert np.sum(t.deltas) == pytest.approx(1.0, abs=1e-14)
            assert np.all(t.deltas > 0)

    def test_config_normalized_from_string(self, ch4_0db):
        t = build_transform(ch4_0db, "alternating")
        assert t.config.signs == (1, -1, 1, -1)

    def test_default_config_is_base(self, ch4_0db):
        assert build_transform(ch4_0db).config.signs == (1, 1, 1, 1)

    def test_config_length_must_match_order(self, ch4_0db):
        with pytest.raises(ValueError):
            build_transform(ch4_0db, MonotonicityConfig(signs=(1, -1)))


class TestRoundtrip:
    @pytest.mark.parametrize("cfg", ["base", "alternating", "-++-", "---+"])
    def test_unsoften_inverts_soften(self, ch4_0db, cfg, rng):
        t = build_transform(ch4_0db, cfg)
        y = rng.uniform(-9, 9, size=400)
        n, i = soften(y, t)
        back, _ = inverse_and_jacobian(n, i, t)
        np.testing.assert_allclose(back, y, atol=1e-8)

    def test_decision_channel_consistency(self, ch4_0db, t_base, rng):
        # the region index returned by soften is the MAP decision
        y = rng.uniform(-9, 9, size=400)
        _, i = soften(y, t_base)
        np.testing.assert_array_equal(i, decide(y, t_base.regions))

    def test_scalar_path(self, t_base):
        n, i = soften(0.5, t_base)
        assert 0.0 <= float(n) <= 1.0
        y, _ = inverse_and_jacobian(float(n), int(i), t_base)
        assert y == pytest.approx(0.5, abs=1e-9)

    @given(
        st.sampled_from(CONFIGS4),
        st.floats(min_value=np.log(1e-4), max_value=np.log(250.0)),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.001, max_value=0.999, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_forward_roundtrip_property(self, cfg, log_var, i, n):
        # soften(inverse(n, i)) == (n, i) for every config and noise level,
        # well conditioned for any n away from the clamp, unlike the
        # y-space roundtrip in the far tails; on a grid of sorted n the
        # inverse runs with the piece's sign
        t = build_transform(ChannelModel(pam(4), float(np.exp(log_var))), cfg)
        grid = np.linspace(0.001, 0.999, 200)
        ns = np.append(grid, n)
        y, _ = inverse_and_jacobian(ns, np.full(ns.size, i), t)
        n2, i2 = soften(y, t)
        np.testing.assert_array_equal(i2, i)
        np.testing.assert_allclose(n2, ns, rtol=0, atol=1e-9)
        steps = cfg.signs[i] * np.diff(y[: grid.size])
        assert np.all(steps > 0)
class TestUniformity:
    @pytest.mark.parametrize("cfg", ["base", "alternating"])
    def test_n_uniform_conditioned_on_decision(self, ch4_0db, cfg):
        # the defining property: N | X_hat = i is U(0,1) for every i
        t = build_transform(ch4_0db, cfg)
        rng = np.random.default_rng(314)
        x = rng.integers(0, 4, size=60_000)
        y = transmit(x, ch4_0db, rng)
        n, i = soften(y, t)
        for region in range(4):
            sel = n[i == region]
            assert sel.size > 5_000
            p = kstest(sel, "uniform").pvalue
            assert p > 1e-4, f"region {region} KS p = {p}"

    def test_base_config_closed_form(self, ch4_0db, t_base):
        # base signs: n = (F(y) - F(edge_i)) / delta_i
        y = np.array([-4.2, -0.7, 1.3, 5.5])
        n, i = soften(y, t_base)
        f = output_cdf(y, ch4_0db)
        expect = (f - t_base.cdf_edges[i]) / t_base.deltas[i]
        np.testing.assert_allclose(n, expect, rtol=1e-10)

    def test_alternating_flips_descending_pieces(self, ch4_0db, t_alt):
        y = np.array([-0.7, 5.5])  # regions 1 and 3, both descending
        n, i = soften(y, t_alt)
        np.testing.assert_array_equal(i, [1, 3])
        f = output_cdf(y, ch4_0db)
        expect = (t_alt.cdf_edges[i + 1] - f) / t_alt.deltas[i]
        np.testing.assert_allclose(n, expect, rtol=1e-10)


class TestJacobian:
    @pytest.mark.parametrize("cfg", ["base", "alternating"])
    def test_matches_finite_difference(self, ch4_0db, cfg):
        # |g_i'(y)| is the reciprocal of d g_i^{-1} / dn
        t = build_transform(ch4_0db, cfg)
        n = np.array([0.15, 0.4, 0.65, 0.9])
        for i in range(4):
            ii = np.full(4, i)
            _, jac = inverse_and_jacobian(n, ii, t)
            h = 1e-7
            up, _ = inverse_and_jacobian(n + h, ii, t)
            down, _ = inverse_and_jacobian(n - h, ii, t)
            np.testing.assert_allclose(jac, 1.0 / np.abs((up - down) / (2 * h)), rtol=1e-4)
            assert np.all(jac > 0)

    def test_inverse_and_jacobian_agrees(self, ch4_0db, t_alt):
        # the inverse lands in region i, and both pieces share the Jacobian
        # f_Y(y) / dF_i, whatever their sign
        n = np.array([0.2, 0.8])
        i = np.array([0, 1])
        y, jac = inverse_and_jacobian(n, i, t_alt)
        np.testing.assert_array_equal(decide(y, t_alt.regions), i)
        np.testing.assert_allclose(jac, output_density(y, ch4_0db) / t_alt.deltas[i], rtol=1e-12)


class TestTailSaturation:
    def test_endpoint_of_unbounded_region_saturates(self, t_base):
        # n = 0 on the lowest region would map to -inf; the clamp holds it
        # at n = N_EPS instead
        y, jac = inverse_and_jacobian(0.0, 0, t_base)
        assert np.isfinite(y) and jac > 0
        assert y == inverse_and_jacobian(N_EPS, 0, t_base)[0]

    def test_rejects_out_of_range_inputs(self, t_base):
        with pytest.raises(ValueError):
            inverse_and_jacobian(1.5, 0, t_base)
        with pytest.raises(ValueError):
            inverse_and_jacobian(0.5, 4, t_base)
        with pytest.raises(ValueError):
            soften(np.nan, t_base)

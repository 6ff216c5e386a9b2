from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from softrec.constellation import bit_partitions
from softrec.infotheory import transition_matrix
from softrec.metrics import (
    LAPPR_CLAMP,
    joint_conditional_density,
    joint_density_ratio_form,
    lappr,
    lappr_batch,
    log_joint_conditional_density,
    posterior_decisions,
)


class TestJointConditionalDensity:
    def test_routes_agree(self, t_base, t_alt):
        # two independent factorizations of f(n, i | j) must coincide
        n = np.linspace(0.02, 0.98, 25)
        for t in (t_base, t_alt):
            for j in range(4):
                for i in range(4):
                    a = joint_conditional_density(n, i, j, t)
                    b = joint_density_ratio_form(n, i, j, t)
                    c = np.exp(log_joint_conditional_density(n, i, j, t))
                    np.testing.assert_allclose(a, b, rtol=1e-9)
                    np.testing.assert_allclose(a, c, rtol=1e-9)

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_integrates_to_transition_probability(self, t_base, j):
        # integrating out n recovers P(X_hat = i | X = j) from the plain
        # Gaussian tail calculation, tying the density to an external truth
        T = transition_matrix(t_base.channel, t_base.regions)
        for i in range(4):
            val, err = quad(
                lambda n: joint_conditional_density(n, i, j, t_base),
                0.0,
                1.0,
                limit=200,
            )
            assert val == pytest.approx(T[j, i], abs=max(1e-10, 10 * err))

    def test_total_probability(self, t_alt):
        # summing over i and integrating over n gives 1
        total = 0.0
        for i in range(4):
            val, _ = quad(
                lambda n: joint_conditional_density(n, i, 1, t_alt), 0.0, 1.0, limit=200
            )
            total += val
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative(self, t_base, rng):
        n = rng.uniform(0, 1, size=50)
        for i in range(4):
            assert np.all(joint_conditional_density(n, i, 2, t_base) >= 0)


class TestLappr:
    def test_matches_bayes_recomputation(self, t_base, t_alt):
        # lappr_l = log sum_{i: bit l of i is 0} f(n,i|j)
        #         - log sum_{i: bit l of i is 1} f(n,i|j)
        c = t_base.channel.constellation
        for t in (t_base, t_alt):
            for j in range(4):
                for n in (0.1, 0.5, 0.9):
                    dens = np.array(
                        [joint_conditional_density(n, i, j, t) for i in range(4)]
                    )
                    got = lappr(n, j, t)
                    for l in range(2):
                        zero, one = bit_partitions(c, l)
                        expect = np.log(dens[list(zero)].sum()) - np.log(
                            dens[list(one)].sum()
                        )
                        assert got[l] == pytest.approx(expect, rel=1e-8)

    def test_alpha_scales_linearly(self, t_alt):
        base = lappr(0.3, 2, t_alt, alpha=1.0)
        scaled = lappr(0.3, 2, t_alt, alpha=0.65)
        np.testing.assert_allclose(scaled, 0.65 * base, rtol=1e-12)

    def test_batch_matches_scalar(self, t_base, rng):
        n = rng.uniform(0.05, 0.95, size=16)
        j = rng.integers(0, 4, size=16)
        batch = lappr_batch(n, j, t_base)
        assert batch.shape == (16, 2)
        for k in range(16):
            single = lappr(float(n[k]), int(j[k]), t_base)
            np.testing.assert_allclose(batch[k], single, rtol=1e-10)

    def test_clamped_at_extremes(self, t_base):
        # deep in a tail one partition's mass underflows; the log ratio
        # must saturate at the clamp instead of overflowing
        vals = lappr(1e-12, 0, t_base)
        assert np.all(np.abs(vals) <= LAPPR_CLAMP + 1e-9)
        assert np.all(np.isfinite(vals))

    def test_rejects_bad_inputs(self, t_base):
        with pytest.raises(ValueError):
            lappr(1.5, 0, t_base)
        with pytest.raises(ValueError):
            lappr(0.5, 7, t_base)
        with pytest.raises(ValueError):
            lappr(0.5, 0, t_base, alpha=0.0)


class TestPosteriorDecisions:
    def test_sums_to_one(self, t_base, t_alt, rng):
        n = rng.uniform(0.05, 0.95, size=10)
        for t in (t_base, t_alt):
            for j in range(4):
                post = posterior_decisions(n, j, t)
                assert post.shape == (10, 4)
                np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)
                assert np.all(post >= 0)

    def test_proportional_to_joint_density(self, t_alt):
        n = np.array([0.42])
        j = 3
        dens = np.array([joint_conditional_density(0.42, i, j, t_alt) for i in range(4)])
        post = posterior_decisions(n, j, t_alt)[0]
        np.testing.assert_allclose(post, dens / dens.sum(), rtol=1e-9)

    def test_high_snr_concentrates_on_own_region(self, pam4):
        from softrec.channel import ChannelModel
        from softrec.softening import build_transform

        t = build_transform(ChannelModel(pam4, 0.05), "base")
        post = posterior_decisions(np.array([0.5]), 2, t)[0]
        assert post[2] > 0.999

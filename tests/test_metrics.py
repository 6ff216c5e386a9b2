from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from softrec.constellation import bit_partitions
from softrec.infotheory import transition_matrix
from softrec.metrics import (
    LAPPR_CLAMP,
    joint_density_ratio_form,
    lappr_batch,
    log_joint_conditional_density,
)


class TestJointConditionalDensity:
    def test_routes_agree(self, t_base, t_alt):
        # two independent factorizations of f(n, i | j) must coincide
        n = np.linspace(0.02, 0.98, 25)
        for t in (t_base, t_alt):
            for j in range(4):
                for i in range(4):
                    a = np.exp(log_joint_conditional_density(n, i, j, t))
                    b = joint_density_ratio_form(n, i, j, t)
                    np.testing.assert_allclose(a, b, rtol=1e-9)

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_integrates_to_transition_probability(self, t_base, j):
        # integrating out n recovers P(X_hat = i | X = j) from the plain
        # Gaussian tail calculation, tying the density to an external truth
        T = transition_matrix(t_base.channel, t_base.regions)
        for i in range(4):
            val, err = quad(
                lambda n: np.exp(log_joint_conditional_density(n, i, j, t_base)),
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
                lambda n: np.exp(log_joint_conditional_density(n, i, 1, t_alt)),
                0.0,
                1.0,
                limit=200,
            )
            total += val
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative(self, t_base, rng):
        n = rng.uniform(0, 1, size=50)
        for i in range(4):
            assert np.all(np.exp(log_joint_conditional_density(n, i, 2, t_base)) >= 0)


class TestLappr:
    def test_matches_bayes_recomputation(self, t_base, t_alt):
        # lappr_l = log sum_{i: bit l of i is 0} f(n,i|j)
        #         - log sum_{i: bit l of i is 1} f(n,i|j)
        c = t_base.channel.constellation
        n = np.repeat([0.1, 0.5, 0.9], 4)
        j = np.tile(np.arange(4), 3)
        for t in (t_base, t_alt):
            dens = np.exp(log_joint_conditional_density(n[:, None], np.arange(4), j[:, None], t))
            got = lappr_batch(n, j, t)
            for l in range(2):
                zero, one = bit_partitions(c, l)
                expect = np.log(dens[:, list(zero)].sum(axis=1)) - np.log(
                    dens[:, list(one)].sum(axis=1)
                )
                np.testing.assert_allclose(got[:, l], expect, rtol=1e-8)

    def test_alpha_scales_linearly(self, t_alt):
        base = lappr_batch([0.3], [2], t_alt, alpha=1.0)
        scaled = lappr_batch([0.3], [2], t_alt, alpha=0.65)
        np.testing.assert_allclose(scaled, 0.65 * base, rtol=1e-12)

    def test_batch_matches_scalar(self, t_base, rng):
        # a batch equals its one-slot slices, bit for bit
        n = rng.uniform(0.05, 0.95, size=16)
        j = rng.integers(0, 4, size=16)
        batch = lappr_batch(n, j, t_base)
        assert batch.shape == (16, 2)
        for k in range(16):
            single = lappr_batch(n[k : k + 1], j[k : k + 1], t_base)
            np.testing.assert_array_equal(batch[k : k + 1], single)

    def test_clamped_at_extremes(self, t_base):
        # deep in a tail one partition's mass underflows; the log ratio
        # must saturate at the clamp instead of overflowing
        vals = lappr_batch([1e-12], [0], t_base)
        assert np.all(np.abs(vals) <= LAPPR_CLAMP + 1e-9)
        assert np.all(np.isfinite(vals))

    def test_rejects_bad_inputs(self, t_base):
        with pytest.raises(ValueError):
            lappr_batch([1.5], [0], t_base)
        with pytest.raises(ValueError):
            lappr_batch([0.5], [7], t_base)
        with pytest.raises(ValueError):
            lappr_batch([0.5], [0], t_base, alpha=0.0)

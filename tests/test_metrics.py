from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import logsumexp

import reference_density
from softrec.constellation import bit_partitions
from softrec.infotheory import transition_matrix
from softrec.metrics import (
    LAPPR_CLAMP,
    _logsumexp,
    bit_lapprs,
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
                    b = reference_density.joint_density_ratio_form(n, i, j, t)
                    np.testing.assert_allclose(a, b, rtol=1e-9)

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_integrates_to_transition_probability(self, t_base, j):
        # integrating out n recovers P(X_hat = i | X = j) from the plain
        # Gaussian tail calculation, tying the density to an external truth
        T = transition_matrix(t_base.channel)
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
        # a huge finite alpha overflows the product, which clamps silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = lappr_batch([0.3, 0.5, 0.9], [0, 1, 2], t_base, alpha=1e308)
        assert np.all(np.abs(vals) == LAPPR_CLAMP)

    def test_rejects_bad_inputs(self, t_base):
        with pytest.raises(ValueError):
            lappr_batch([1.5], [0], t_base)
        with pytest.raises(ValueError):
            lappr_batch([0.5], [7], t_base)
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                lappr_batch([0.5], [0], t_base, alpha=bad)
        # j is one integer symbol index per slot of n: a shorter j would
        # broadcast j[0] to every slot, and a float or bool j would fail as
        # an index deep in the density
        for bad_j in ([1], [1, 2, 3, 0], [1.0, 2.0, 0.0], [True, False, True], [[1, 2, 0]]):
            with pytest.raises(ValueError, match="j must be integer indices shaped like n"):
                lappr_batch([0.3, 0.4, 0.5], bad_j, t_base)


class TestBitLapprs:
    def test_rejects_rows_without_a_ratio(self, pam4):
        # a row of -inf, a row with a NaN or a row of +inf leaves every bit
        # without a ratio: ValueError, with no "invalid value" warning first
        for row in ([-np.inf] * 4, [0.0, np.nan, 1.0, 2.0], [np.inf] * 4):
            logw = np.array([[0.0, 1.0, 2.0, 3.0], row])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="bit_lapprs: a log-weight row holds a NaN or leaves a bit no ratio"):
                    bit_lapprs(logw, pam4)

    def test_one_empty_side_clamps(self, pam4):
        # the 1-side (0-side) of a bit all -inf saturates at +clamp (-clamp)
        zeros, ones = bit_partitions(pam4, 0)
        logw = np.zeros((2, 4))
        logw[0, list(ones)] = -np.inf
        logw[1, list(zeros)] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bit_lapprs(logw, pam4)
        assert got[:, 0].tolist() == [LAPPR_CLAMP, -LAPPR_CLAMP]


@st.composite
def _logsumexp_cases(draw):
    """(a, axis, keepdims): a 3-D array with 1 to 8 entries on the summed
    axis; values repeat (ties), include -inf (+inf and NaNs of either sign
    too, where scipy's result is its log(sum(exp(a))) form), can fill a
    whole row with -inf, and spread past the 700 where exp over- and
    underflows."""
    axis = draw(st.sampled_from([-1, 1, 2]))
    shape = [draw(st.integers(1, 3)) for _ in range(3)]
    shape[axis] = draw(st.integers(1, 8))
    spread = draw(st.sampled_from([1.0, 40.0, 750.0]))
    value = st.floats(-spread, spread)
    pool = draw(st.lists(value, min_size=1, max_size=3))
    special = [-np.inf] + draw(st.sampled_from([[], [np.inf], [np.nan, -np.nan]]))
    a = draw(hnp.arrays(float, shape, elements=st.one_of(value, st.sampled_from(pool + special))))
    if draw(st.booleans()):
        row = [draw(st.integers(0, n - 1)) for n in shape]
        row[axis] = slice(None)
        a[tuple(row)] = -np.inf
    return a, axis, draw(st.booleans())


@given(_logsumexp_cases())
@settings(max_examples=300, deadline=None)
def test_logsumexp_has_scipys_bits(case):
    a, axis, keepdims = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(a, axis=axis, keepdims=keepdims)
    want = np.asarray(logsumexp(a, axis=axis, keepdims=keepdims))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

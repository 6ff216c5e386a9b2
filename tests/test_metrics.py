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
from softrec.channel import _logsumexp
from softrec.constellation import bit_partitions, pam
from softrec.harness import ExperimentSpec
from softrec.infotheory import transition_matrix
from softrec.metrics import (
    LAPPR_CLAMP,
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
        # broadcast j[0] to every slot, and a float or bool j is refused by
        # the density
        for bad_j in ([1], [1, 2, 3, 0], [[1, 2, 0]]):
            with pytest.raises(ValueError, match="j must be shaped like n"):
                lappr_batch([0.3, 0.4, 0.5], bad_j, t_base)
        for bad_j in ([1.0, 2.0, 0.0], [True, False, True]):
            with pytest.raises(ValueError, match="symbol index must be integers"):
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


# Every entry point that takes the LAPPR scaling, called with one alpha.
_ALPHA_TAKERS = {
    "ExperimentSpec": lambda t, alpha: ExperimentSpec(pam(4), (0.0,), alpha=alpha),
    "lappr_batch": lambda t, alpha: lappr_batch([0.5], [1], t, alpha=alpha),
    "bit_lapprs": lambda t, alpha: bit_lapprs(np.zeros((1, 4)), pam(4), alpha=alpha),
}


@pytest.mark.parametrize("entry", sorted(_ALPHA_TAKERS))
@pytest.mark.parametrize(
    "alpha",
    [True, np.True_, float("nan"), float("inf"), -float("inf"), 0.0, -1.0],
    ids=["True", "np.True_", "nan", "inf", "-inf", "zero", "negative"],
)
def test_alpha_rule(t_base, entry, alpha):
    # a bool would read as 1 (or 0) and a negative alpha would flip every sign
    with pytest.raises(ValueError, match="alpha must be finite and > 0"):
        _ALPHA_TAKERS[entry](t_base, alpha)


@st.composite
def _logsumexp_cases(draw):
    """(a, axis, kind): the layouts the callers of ``_logsumexp`` reduce,
    the last axis of an (S, M) array with M = 1 to 4 or 8, and axis 1 or 2
    of a (K, M, M) array; its columns come as contiguous copies, as strided
    views into ``a`` itself, or one after another in one reused array.
    Values repeat (ties), include -inf (+inf and NaNs of either sign too,
    where scipy's result is its log(sum(exp(a))) form), can fill a whole row
    with -inf, and spread past the 700 where exp over- and underflows."""
    m = draw(st.sampled_from([1, 2, 3, 4, 8]))
    if draw(st.booleans()):
        shape, axis = [draw(st.integers(1, 6)), m], 1
    else:
        shape, axis = [draw(st.integers(1, 3)), m, m], draw(st.sampled_from([1, 2]))
    spread = draw(st.sampled_from([1.0, 40.0, 750.0]))
    value = st.floats(-spread, spread)
    pool = draw(st.lists(value, min_size=1, max_size=3))
    special = [-np.inf] + draw(st.sampled_from([[], [np.inf], [np.nan, -np.nan]]))
    a = draw(hnp.arrays(float, shape, elements=st.one_of(value, st.sampled_from(pool + special))))
    if draw(st.booleans()):
        row = [draw(st.integers(0, n - 1)) for n in shape]
        row[axis] = slice(None)
        a[tuple(row)] = -np.inf
    return a, axis, draw(st.sampled_from(["copies", "views", "reused"]))


@given(_logsumexp_cases())
@settings(max_examples=400, deadline=None)
def test_logsumexp_has_scipys_bits(case):
    # Summed column by column, _logsumexp gives scipy's bits, NaN signs
    # included, wherever numpy sums the axis left to right: every axis of
    # length <= 4, and any non-last axis. Over a last axis of length 8 numpy
    # sums in blocks: a finite result lies within 4 ulps, and a NaN result
    # is a NaN whose sign can differ.
    a, axis, kind = case
    before = a.copy()

    def columns():
        if kind == "views":
            return (np.moveaxis(a, axis, 0)[k] for k in range(a.shape[axis]))
        if kind == "copies":
            return (np.take(a, k, axis=axis) for k in range(a.shape[axis]))
        return reused()

    def reused():
        col = np.empty(np.take(a, 0, axis=axis).shape)
        for k in range(a.shape[axis]):
            col[...] = np.take(a, k, axis=axis)
            yield col

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(columns)
    want = np.asarray(logsumexp(a, axis=axis))
    assert np.array_equal(a.view(np.uint64), before.view(np.uint64))
    assert got.shape == want.shape
    if a.shape[axis] <= 4 or axis < a.ndim - 1:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    else:
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        got, want = got[~nan], want[~nan]
        inf = np.isinf(want)
        assert np.array_equal(got[inf], want[inf])
        assert np.all(np.abs(got[~inf] - want[~inf]) <= 4 * np.spacing(np.abs(want[~inf])))

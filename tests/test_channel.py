from __future__ import annotations

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

import reference_solver
import softrec
import softrec.channel as channel
from softrec.channel import (
    QUANTILE_TOL,
    ChannelModel,
    QuantileWarning,
    log_output_density,
    output_cdf,
    output_density,
    output_quantile,
    transmit,
)
from softrec.constellation import Constellation, pam
from softrec.harness import noise_variance_for_snr_db
from softrec.metrics import lappr_batch
from softrec.softening import N_EPS, build_transform, soften

# Frozen against a direct Gaussian-mixture evaluation (scipy.special.ndtr),
# PAM-4 {-3,-1,1,3}, uniform priors, sigma^2 = 2.5.
CDF_AT_1 = 0.6235734954517498
PDF_AT_HALF = 0.12373794870959541
QUANTILE_25 = -2.06524561942155


class TestChannelModel:
    def test_rejects_nonpositive_variance(self, pam4):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="noise_variance must be finite and > 0"):
                ChannelModel(pam4, bad)

    def test_sigma_accessor(self, ch4_0db):
        assert ch4_0db.noise_variance == pytest.approx(2.5)

    def test_equal_and_hashable_by_value(self, pam4):
        ch = ChannelModel(pam4, 0.5)
        output_quantile(0.3, ch)  # the cached start is not compared
        twin = ChannelModel(pam(4), 0.5)
        assert ch == twin and hash(ch) == hash(twin)
        assert len({ch, twin}) == 1
        assert ch != ChannelModel(pam4, 0.25)
        assert ch != ChannelModel(pam(4, priors=[0.1, 0.4, 0.4, 0.1]), 0.5)
        assert ch != ChannelModel(pam(4, bitmap=["00", "01", "10", "11"]), 0.5)


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

    def test_log_density_at_infinity(self, ch4_0db):
        # every exponent is -inf there; the log density is -inf, without a
        # warning, for a scalar and inside an array
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_output_density(np.inf, ch4_0db) == -np.inf
            got = log_output_density(np.array([-np.inf, 0.3, np.inf]), ch4_0db)
        assert got[[0, 2]].tolist() == [-np.inf, -np.inf] and np.isfinite(got[1])


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
            channel._cdf(y, ch4_0db, -1.0) + output_cdf(y, ch4_0db), 1.0, atol=1e-14
        )

    def test_sf_accurate_in_far_tail(self, ch4_0db):
        # 1 - cdf loses everything past ~ 8 sigma; sf must not
        y = 30.0
        sf = channel._cdf(y, ch4_0db, -1.0)
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


SKEWED = (0.97, 0.01, 0.01, 0.01)
VAR_3_5_DB = noise_variance_for_snr_db(3.5, pam(4))


def _channel(priors, log_var):
    return ChannelModel(pam(4, priors=priors), 10.0**log_var)


def _probabilities(lowest, upper_floor, max_size=16):
    """Lists of p, log-spaced from 10**lowest up to 1/2 in the lower tail and
    from 1/2 up to 1 - 10**upper_floor in the upper one."""
    one = st.tuples(
        st.floats(min_value=lowest, max_value=float(np.log10(0.5))), st.booleans()
    ).map(lambda e: 1.0 - 10.0 ** max(e[0], upper_floor) if e[1] else 10.0 ** e[0])
    return st.lists(one, min_size=1, max_size=max_size).map(np.array)


# Below sigma^2 = 1e-4 one spacing of y near the points moves a far-tail
# mass by more than the tolerance, so there the bracket test ends the solve.
_CHANNELS = st.builds(
    _channel,
    st.sampled_from([None, SKEWED]),
    st.floats(min_value=-9.0, max_value=float(np.log10(250.0))),
)


def _tail_residual(y, p, ch):
    """sgn * (tail mass at y - target), in the tail the solver works in."""
    upper = p > 0.5
    tail = np.where(upper, channel._cdf(y, ch, -1.0), output_cdf(y, ch))
    return np.where(upper, -1.0, 1.0) * (tail - np.where(upper, 1.0 - p, p))


def _meets_contract(y, p, ch):
    """|F - p| <= 2 * QUANTILE_TOL * min(p, 1 - p), or the root lies within
    a machine-width bracket around y; elementwise."""
    target = np.minimum(p, 1.0 - p)
    met = np.abs(_tail_residual(y, p, ch)) <= 2.0 * QUANTILE_TOL * target
    d = 8.0 * np.spacing(np.abs(y))
    bracketed = (_tail_residual(y - d, p, ch) <= 0) & (_tail_residual(y + d, p, ch) >= 0)
    return met | bracketed


def _normal_score(p):
    """Phi^{-1}(p), taken on the upper tail where p > 1/2 as the solver does."""
    return np.where(p > 0.5, -ndtri(1.0 - p), ndtri(p))


def _frame_probabilities(ch, config="alternating"):
    """The 129,600 p of one 32,400-symbol frame's lappr_batch solve."""
    t = build_transform(ch, config)
    x = np.random.default_rng(11).integers(0, 4, size=32400)
    n, _ = soften(transmit(x, ch, np.random.default_rng(12)), t)
    i = np.broadcast_to(np.arange(4), (n.size, 4))
    nc = np.clip(n, N_EPS, 1.0 - N_EPS)[:, None]
    p = np.where(
        np.asarray(t.config.signs)[i] > 0,
        t.cdf_edges[i] + nc * t.deltas[i],
        t.cdf_edges[i + 1] - nc * t.deltas[i],
    )
    return np.clip(p, 1e-300, 1.0 - 1e-16).reshape(-1)


class TestQuantileSolver:
    @given(_probabilities(-300.0, -16.0), _CHANNELS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_elementwise_independent(self, p, ch, data):
        # Points leave the active set at different iterations, so each must
        # come out as if solved alone, whatever else shares the call.
        whole = output_quantile(p, ch)
        alone = np.concatenate([output_quantile(p[k : k + 1], ch) for k in range(p.size)])
        perm = np.array(data.draw(st.permutations(range(p.size))))
        permuted = output_quantile(p[perm], ch)
        assert np.array_equal(whole.view(np.uint64), alone.view(np.uint64))
        assert np.array_equal(permuted.view(np.uint64), whole[perm].view(np.uint64))

    @given(_probabilities(-300.0, -16.0), _CHANNELS)
    @settings(max_examples=60, deadline=None)
    def test_contract(self, p, ch):
        # QuantileWarning is an error in this suite (pyproject.toml).
        y = output_quantile(p, ch)
        met = _meets_contract(y, p, ch)
        assert met.all(), p[~met]
        # Every point stays inside its bracket from the outer points.
        a, sv = ch.constellation.points, ch.sigma * _normal_score(p)
        inside = (a[0] + sv <= y) & (y <= a[-1] + sv)
        assert inside.all(), p[~inside]

    @pytest.mark.parametrize("var", [1e-6, 1.0, 1e6])
    def test_one_point_constellation(self, var):
        # With one point the bracket is zero wide, so every p returns the
        # normal quantile a + sigma v, bit for bit.
        a = -1.3
        ch = ChannelModel(Constellation(points=[a], priors=[1.0], bitmap=()), var)
        lower = 10.0 ** np.linspace(-300.0, np.log10(0.5), 301)
        p = np.concatenate((lower, 1.0 - 10.0 ** np.linspace(-16.0, -0.31, 100)))
        want = a + ch.sigma * _normal_score(p)
        assert np.array_equal(_bits(output_quantile(p, ch)), _bits(want))

    def test_correction_below_spacing(self):
        # At sigma^2 = 1.5e-6 the start for 1e-250 sits within a spacing of
        # the root, where the Newton correction rounds away. A bisection step
        # from there would throw the point far above its root, where Newton
        # creeps back too slowly to finish within the iteration cap.
        p = np.array([1e-250])
        ch = ChannelModel(pam(2), 1.5e-6)
        assert _meets_contract(output_quantile(p, ch), p, ch).all()

    def test_empty_input(self, ch4_0db, monkeypatch):
        # Nothing to solve: neither the grid, the bracket nor the Newton loop
        # runs.
        def no_mixture(*args, **kwargs):
            raise AssertionError("empty input evaluated the mixture")

        monkeypatch.setattr(channel, "_cdf", no_mixture)
        monkeypatch.setattr(channel, "_components", no_mixture)
        for shape in [(0,), (0, 3)]:
            assert output_quantile(np.empty(shape), ch4_0db).shape == shape

    def test_warns_at_iteration_cap(self, pam4, monkeypatch):
        # At 3.5 dB on a start of 256 knots, p = 1e-200 stops on the first
        # pass and 0.3 needs a second one, so a cap of 1 leaves 0.3 unsolved
        # after one step. The channel is new, so it builds that start.
        monkeypatch.setattr(channel, "_KNOTS", 256)
        monkeypatch.setattr(channel, "_MAX_NEWTON", 1)
        ch = ChannelModel(pam4, VAR_3_5_DB)
        message = r"1 of 2 points unsolved after 1 Newton .*min\(p, 1 - p\) = "
        with pytest.warns(QuantileWarning, match=message):
            y = output_quantile(np.array([1e-200, 0.3]), ch)
        assert output_cdf(y[1], ch) == pytest.approx(0.3, rel=1e-11)
        assert softrec.QuantileWarning is QuantileWarning
        assert issubclass(QuantileWarning, RuntimeWarning)

    @given(_probabilities(-300.0, -16.0, max_size=20), _CHANNELS)
    @settings(max_examples=40, deadline=None)
    def test_blocks_are_invisible(self, p, ch):
        # Each block runs the whole solve on its own points; with blocks of
        # 3, a call of up to 20 points spans up to 7 of them.
        whole = output_quantile(p, ch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "_BLOCK", 3)
            blocked = output_quantile(p, ch)
        assert np.array_equal(blocked.view(np.uint64), whole.view(np.uint64))

    def test_one_warning_over_all_blocks(self, pam4, monkeypatch):
        # Blocks of 3 split the five points 3 + 2; on a start of 256 knots
        # the 0.3s stay unsolved in both blocks, and the call warns once
        # with the summed count.
        monkeypatch.setattr(channel, "_KNOTS", 256)
        monkeypatch.setattr(channel, "_BLOCK", 3)
        monkeypatch.setattr(channel, "_MAX_NEWTON", 1)
        ch = ChannelModel(pam4, VAR_3_5_DB)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            output_quantile(np.array([1e-200, 0.3, 0.3, 0.3, 1e-200]), ch)
        assert [w.category for w in caught] == [QuantileWarning]
        assert str(caught[0].message).startswith(
            "output_quantile: 3 of 5 points unsolved after 1 Newton iterations"
        )

    @pytest.mark.parametrize(
        "log_var, p",
        [
            (-6.577534003824496, [0.1, 0.2, 0.25]),
            (-6.470124472481013, [0.5, 0.6, 0.7]),
            (-6.347637230854115, [1.0 - 1e-16]),
        ],
    )
    def test_overflowing_start_segment(self, pam4, log_var, p):
        # At these sigma^2 the density underflows between the points, and a
        # segment of the start curve overflows. Its points started at NaN,
        # which became a bracket edge, and came back NaN with a
        # QuantileWarning.
        ch = ChannelModel(pam4, 10.0**log_var)
        p = np.array(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = output_quantile(p, ch)
        assert _meets_contract(y, p, ch).all()

    def test_frame_solve_does_not_warn(self, pam4):
        # One 32,400-symbol frame at 3.5 dB: lappr_batch solves 129,600 points.
        ch = ChannelModel(pam4, VAR_3_5_DB)
        t = build_transform(ch, "alternating")
        x = np.random.default_rng(11).integers(0, 4, size=32400)
        n, _ = soften(transmit(x, ch, np.random.default_rng(12)), t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(lappr_batch(n, x, t)).all()

    # Deep in the lower tail, Newton started far above the root creeps down
    # about sigma/|z| per step and stops at the iteration cap far from it.
    # The start from the dominant edge component lands close enough for a
    # few steps.
    @pytest.mark.parametrize(
        "priors, var, p",
        [
            (None, VAR_3_5_DB, 1e-100),
            (None, VAR_3_5_DB, 1e-200),
            (None, 2.5, 1e-200),
            (SKEWED, 1e-4, 1e-200),
        ],
    )
    def test_far_lower_tail_contract(self, priors, var, p):
        ch = ChannelModel(pam(4, priors=priors), var)
        y = output_quantile(p, ch)
        assert abs(output_cdf(y, ch) - p) <= 2.0 * QUANTILE_TOL * p


class TestQuantileStart:
    """The start that each channel builds once for its quantile solves."""

    @staticmethod
    def _by_binary_search(start, v):
        """The start's curve at v, each on its interval found by searchsorted."""
        i = np.clip(np.searchsorted(start.knots, v, "right") - 1, 0, start.knots.size - 2)
        c = start.coef[:, i]
        s = v - start.knots[i]
        y = c[0]
        for ck in c[1:]:
            y = y * s + ck
        return y

    @given(_CHANNELS, st.lists(st.floats(-40.0, 40.0), max_size=30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lookup_matches_binary_search(self, ch, vs, data):
        # Points anywhere, at the knots themselves and halfway between
        # neighbours, where a bucket can hold several knots.
        start = channel._build_start(ch)
        last = start.knots.size - 2
        k = np.array(data.draw(st.lists(st.integers(0, last), max_size=30)), dtype=int)
        v = np.concatenate((vs, start.knots[k], 0.5 * (start.knots[k] + start.knots[k + 1])))
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = start(v), self._by_binary_search(start, v)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("snr", [0.0, 3.5, 9.0, 15.0])
    def test_frame_solved_at_start(self, pam4, snr):
        # One residual pass per point: at least 99% of a frame's 129,600
        # points meet the tolerance at their start, and the frame's lookup
        # matches the binary search, fuller buckets included.
        ch = ChannelModel(pam4, noise_variance_for_snr_db(snr, pam4))
        p = _frame_probabilities(ch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            output_quantile(p, ch)
        start = ch._start
        assert start.points == p.size
        assert start.at_start >= 0.99 * p.size
        v = _normal_score(p)
        assert np.array_equal(_bits(start(v)), _bits(self._by_binary_search(start, v)))

    def test_built_once_per_channel(self, pam4, rng, monkeypatch):
        builds = []
        build = channel._build_start
        monkeypatch.setattr(channel, "_build_start", lambda ch: builds.append(ch) or build(ch))
        ch = ChannelModel(pam4, VAR_3_5_DB)
        # Nothing that stops short of a quantile solve builds it.
        t = build_transform(ch, "alternating")
        y = transmit(rng.integers(0, 4, size=50), ch, rng)
        n, _ = soften(y, t)
        output_cdf(y, ch), output_density(y, ch), log_output_density(y, ch)
        assert builds == []
        output_quantile(0.3, ch)
        output_quantile(np.array([1e-200, 0.5, 1.0 - 1e-16]), ch)
        lappr_batch(n, np.zeros(n.size, dtype=int), t)
        assert builds == [ch]
        # An equal channel is another instance, with its own start.
        twin = ChannelModel(pam4, VAR_3_5_DB)
        output_quantile(0.3, twin)
        assert len(builds) == 2 and builds[1] is twin

    def test_warm_solve_evaluates_only_its_points(self, pam4, monkeypatch):
        # A call on a warm channel builds nothing: it evaluates the mixture
        # on its own points only.
        ch = ChannelModel(pam4, VAR_3_5_DB)
        output_quantile(0.3, ch)
        sizes = []
        components = channel._components

        def counted(y, ch, sgn=None):
            sizes.append(np.size(y))
            return components(y, ch, sgn)

        monkeypatch.setattr(channel, "_components", counted)
        output_quantile(np.array([1e-200, 0.01, 0.3, 0.9]), ch)
        assert sizes and max(sizes) <= 4

    def test_pickle_leaves_start_out(self, pam4):
        ch = ChannelModel(pam4, VAR_3_5_DB)
        before = pickle.dumps(ch)
        p = np.array([1e-9, 0.3, 0.8])
        y = output_quantile(p, ch)
        assert "_start" in vars(ch)
        assert pickle.dumps(ch) == before
        twin = pickle.loads(before)
        assert twin.noise_variance == ch.noise_variance and "_start" not in vars(twin)
        assert np.array_equal(_bits(output_quantile(p, twin)), _bits(y))


class TestQuantileOracle:
    """The solver meets its contract wherever the earlier solver did."""

    @pytest.mark.parametrize("snr", [0.0, 3.5, 10.0])
    def test_frame(self, pam4, snr):
        ch = ChannelModel(pam4, noise_variance_for_snr_db(snr, pam4))
        p = _frame_probabilities(ch)
        reference = _meets_contract(reference_solver.output_quantile(p, ch), p, ch)
        assert reference.mean() > 0.999
        assert np.all(_meets_contract(output_quantile(p, ch), p, ch)[reference])

    @given(_probabilities(-300.0, -16.0), _CHANNELS)
    @settings(max_examples=60, deadline=None)
    def test_channels(self, p, ch):
        reference = _meets_contract(reference_solver.output_quantile(p, ch), p, ch)
        assert np.all(_meets_contract(output_quantile(p, ch), p, ch)[reference])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _pam_with_priors(order):
    weights = st.lists(st.floats(0.01, 1.0), min_size=order, max_size=order)
    return weights.map(lambda w: pam(order, priors=np.array(w) / np.sum(w)))


class TestKernelExactness:
    """The column-wise mixture kernels return the bits of the earlier
    (..., M) forms sum(priors * f(z), axis=-1) for M <= 4, and the log
    density those of scipy's ``logsumexp`` over the (..., M) exponents."""

    @given(
        st.one_of(_pam_with_priors(2), _pam_with_priors(4)),
        st.floats(min_value=-4.0, max_value=float(np.log10(250.0))),
        st.lists(st.floats(-400.0, 400.0), min_size=1, max_size=24),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_for_bit(self, c, log_var, ys):
        ch = ChannelModel(c, 10.0**log_var)
        y = np.array(ys)
        kernels = {
            "output_cdf": channel.output_cdf,
            "output_sf": lambda y, ch: channel._cdf(y, ch, -1.0),
            "output_density": channel.output_density,
            "log_output_density": channel.log_output_density,
        }
        for fn, new in kernels.items():
            old = getattr(reference_solver, fn)
            for arg in (y, y.reshape(-1, 1) * np.ones(3)):
                assert np.array_equal(new(arg, ch).view(np.uint64), old(arg, ch).view(np.uint64)), fn
            assert np.float64(new(y[0], ch)).view(np.uint64) == np.float64(old(y[0], ch)).view(
                np.uint64
            ), fn

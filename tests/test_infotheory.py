from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from softrec import infotheory
from softrec.channel import ChannelModel
from softrec.infotheory import (
    QUAD_ABS_TOL,
    QUAD_REL_TOL,
    MiResult,
    QuadratureWarning,
    leakage,
    mi_direct,
    mi_hard,
    mi_rrs,
    transition_matrix,
)
from softrec.softening import build_transform

# Frozen oracles, computed once from first principles:
#  - transition probabilities via scipy.special.ndtr on the region edges
#  - mi_hard from the discrete H(X_hat) - H(X_hat | X)
#  - mi_direct from H(Y) on a dense trapezoid grid minus 0.5 log2(2 pi e s2)
# PAM-4 {-3,-1,1,3} uniform, sigma^2 = 2.5 unless stated.
T_ROW0 = [0.736455371567231, 0.23465484287097038, 0.028107084432797413, 0.0007827011290012509]
MI_HARD_PAM4_0DB = 0.6868131070288033
MI_DIRECT_PAM4_0DB = 0.7715630318715463
# BPSK +-1, sigma^2 = 0.5: p = Q(1/sigma), I_hard = 1 - h2(p)
BSC_P = 0.07864960352514261
MI_HARD_BPSK = 0.6025969807153304
MI_DIRECT_BPSK = 0.7214515907903873


class TestTransitionMatrix:
    def test_rows_sum_to_one(self, ch4_0db):
        T = transition_matrix(ch4_0db)
        assert T.shape == (4, 4)
        np.testing.assert_allclose(T.sum(axis=1), 1.0, atol=1e-14)
        assert np.all(T >= 0)

    def test_frozen_first_row(self, ch4_0db):
        T = transition_matrix(ch4_0db)
        np.testing.assert_allclose(T[0], T_ROW0, rtol=1e-12)

    def test_symmetry_of_symmetric_channel(self, ch4_0db):
        T = transition_matrix(ch4_0db)
        np.testing.assert_allclose(T, T[::-1, ::-1], rtol=1e-12)

    def test_bpsk_closed_form(self, ch2_0db):
        T = transition_matrix(ch2_0db)
        p = 1.0 - ndtr(1.0 / np.sqrt(0.5))
        np.testing.assert_allclose(T, [[1 - p, p], [p, 1 - p]], rtol=1e-12)


class TestMiHard:
    def test_frozen_pam4(self, ch4_0db):
        assert mi_hard(ch4_0db) == pytest.approx(MI_HARD_PAM4_0DB, abs=1e-12)

    def test_bpsk_closed_form(self, ch2_0db):
        assert mi_hard(ch2_0db) == pytest.approx(MI_HARD_BPSK, abs=1e-12)

    def test_returns_builtin_float(self, ch4_0db):
        assert type(mi_hard(ch4_0db)) is float

    def test_vanishes_at_terrible_snr(self, pam4):
        assert mi_hard(ChannelModel(pam4, 1e8)) == pytest.approx(0.0, abs=1e-7)

    def test_saturates_at_log2m(self, pam4):
        assert mi_hard(ChannelModel(pam4, 1e-4)) == pytest.approx(2.0, abs=1e-9)


class TestMiDirect:
    def test_frozen_pam4(self, ch4_0db):
        assert mi_direct(ch4_0db) == pytest.approx(MI_DIRECT_PAM4_0DB, abs=1e-9)

    def test_frozen_bpsk(self, ch2_0db):
        assert mi_direct(ch2_0db) == pytest.approx(MI_DIRECT_BPSK, abs=1e-7)

    def test_with_error_reports_small_estimate(self, ch4_0db):
        val, err = mi_direct(ch4_0db, with_error=True)
        assert val == pytest.approx(MI_DIRECT_PAM4_0DB, abs=1e-9)
        assert 0 <= err < 1e-8

    def test_exceeds_hard_decision_rate(self, ch4_0db, ch2_0db):
        for ch in (ch4_0db, ch2_0db):
            assert mi_direct(ch) > mi_hard(ch)

    def test_monotone_in_snr(self, pam4):
        vals = [mi_direct(ChannelModel(pam4, s2)) for s2 in (10.0, 2.5, 0.6, 0.2)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestMiRrs:
    def test_between_hard_and_direct(self, ch4_0db, t_base, t_alt):
        lo = mi_hard(ch4_0db)
        hi = mi_direct(ch4_0db)
        for t in (t_base, t_alt):
            mid = mi_rrs(t)
            assert lo - 1e-9 <= mid <= hi + 1e-9

    def test_alternating_beats_base_here(self, t_base, t_alt):
        # at 0 dB the alternating configuration recovers more of the gap
        assert mi_rrs(t_alt) > mi_rrs(t_base)

    def test_with_error_tuple(self, t_base):
        val, err = mi_rrs(t_base, with_error=True)
        assert val == pytest.approx(mi_rrs(t_base), abs=1e-12)
        assert 0 <= err < 1e-6

    def test_bpsk_alternating_equals_direct(self, bpsk):
        # with mirror-image branches the disclosed value tells nothing
        # beyond Y itself, so the soft rate must equal the direct rate
        ch = ChannelModel(bpsk, 0.5)
        t = build_transform(ch, "alternating")
        assert mi_rrs(t) == pytest.approx(mi_direct(ch), abs=1e-7)


class TestLeakage:
    @pytest.mark.parametrize("cfg", ["base", "alternating", "-++-"])
    def test_zero_by_construction(self, ch4_0db, cfg):
        t = build_transform(ch4_0db, cfg)
        assert abs(leakage(t)) <= 1e-9

    def test_zero_across_snr(self, pam4):
        for s2 in (25.0, 2.5, 0.25):
            t = build_transform(ChannelModel(pam4, s2), "alternating")
            assert abs(leakage(t)) <= 1e-9

    def test_blind_to_a_broken_transform(self, t_base):
        # sum_j P_j f(n, i | j) = dF_i holds for any cdf_edges, so even a
        # transform whose regions no longer match its channel integrates to
        # zero; breakage is the audit's Monte-Carlo and KS checks' job
        edges = t_base.cdf_edges + np.array([0.0, 0.05, -0.05, 0.05, 0.0])
        bad = dataclasses.replace(t_base, cdf_edges=edges)
        assert abs(leakage(bad)) <= 1e-9


def _peaked(x):
    """A Lorentzian of half-width 1e-3 at 0.3 beside two smooth components."""
    return np.stack([1e-3 / ((x - 0.3) ** 2 + 1e-6), np.cos(7.0 * x), x**3], axis=1)


class TestGaussKronrodRule:
    def test_matches_quad_on_a_sharp_peak(self):
        res, err = infotheory._gk_integrate(_peaked, (0.0, 1.0))
        ref = [
            quad(lambda x, k=k: _peaked(np.array([x]))[0, k], 0.0, 1.0,
                 points=[0.3], epsabs=1e-13, epsrel=1e-12, limit=500)[0]
            for k in range(3)
        ]
        target = max(QUAD_ABS_TOL, QUAD_REL_TOL * np.linalg.norm(ref))
        assert err <= target
        assert np.linalg.norm(res - ref) <= target

    def test_panels_split_at_the_edges(self):
        # one starting panel per edge pair gives the same integral
        res, err = infotheory._gk_integrate(_peaked, (0.0, 0.3, 0.5, 1.0))
        whole, whole_err = infotheory._gk_integrate(_peaked, (0.0, 1.0))
        assert np.linalg.norm(res - whole) <= err + whole_err

    def test_exact_on_polynomials_over_one_panel(self, monkeypatch):
        # 15 Kronrod nodes integrate every polynomial of degree <= 22 exactly;
        # a limit of one panel keeps the first pass's value
        monkeypatch.setattr(infotheory, "QUAD_LIMIT", 1)
        a, b = -1.0, 2.0
        k = np.arange(23)
        res, _ = infotheory._gk_integrate(lambda x: x[:, None] ** k, (a, b))
        np.testing.assert_allclose(res, (b ** (k + 1) - a ** (k + 1)) / (k + 1), rtol=1e-14)

    def test_warns_when_the_panel_limit_binds(self, monkeypatch):
        monkeypatch.setattr(infotheory, "QUAD_LIMIT", 4)
        with pytest.warns(QuadratureWarning, match="peak quadrature"):
            _, err = infotheory._integrate(_peaked, (0.0, 1.0), "peak", 1e-6)
        assert err > 1e-6

    def test_warns_on_a_nan_integrand(self):
        # NaN panels never pass the error test, so they bisect up to the
        # limit; the NaN estimate they leave must not pass as small
        def half_nan(x):
            return np.where(x > 0.5, np.nan, 1.0)[:, None]

        with pytest.warns(QuadratureWarning, match="probe quadrature"):
            res, err = infotheory._integrate(half_nan, (0.0, 1.0), "probe", 1e-6)
        assert np.isnan(res).all() and np.isnan(err)


class TestQuadratureWarning:
    @pytest.mark.parametrize(
        "evaluate, label, err",
        [
            (leakage, "leakage", 2e-6),
            (mi_rrs, "rrs-MI", 2e-5),
            (lambda t: mi_direct(t.channel), "direct-MI", 2e-6),
        ],
    )
    def test_large_error_estimate_warns(self, t_base, monkeypatch, evaluate, label, err):
        # the integrands are smooth, so their own estimates stay far below
        # the thresholds; report a larger one to reach the warning
        rule = infotheory._gk_integrate
        monkeypatch.setattr(infotheory, "_gk_integrate", lambda f, edges: (rule(f, edges)[0], err))
        with pytest.warns(QuadratureWarning, match=label):
            evaluate(t_base)


class TestMiResult:
    def test_valid_row(self):
        r = MiResult(snr_db=0.0, scheme="rrs", config="base", value_bits=0.5, error_estimate=1e-9)
        assert r.scheme == "rrs"

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            MiResult(snr_db=0.0, scheme="fancy", config="", value_bits=0.5, error_estimate=0.0)

    def test_rejects_negative_information(self):
        with pytest.raises(ValueError):
            MiResult(snr_db=0.0, scheme="direct", config="", value_bits=-0.2, error_estimate=0.0)

    @pytest.mark.parametrize(
        "value, err",
        [(np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (0.5, np.nan), (0.5, np.inf)],
    )
    def test_rejects_non_finite_value_or_estimate(self, value, err):
        with pytest.raises(ValueError, match="must be finite"):
            MiResult(snr_db=0.0, scheme="rrs", config="base", value_bits=value, error_estimate=err)

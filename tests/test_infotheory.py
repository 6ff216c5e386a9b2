from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.special import ndtr

from softrec.channel import ChannelModel
from softrec.constellation import map_decision_regions, pam
from softrec.infotheory import (
    MiResult,
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

    def test_respects_explicit_regions(self, ch4_0db):
        r = map_decision_regions(ch4_0db.constellation, ch4_0db.noise_variance)
        np.testing.assert_allclose(
            transition_matrix(ch4_0db, r), transition_matrix(ch4_0db), rtol=1e-15
        )


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

"""Exact values of the soft-information layer, pinned across refactors.

Every number below was recorded before the mixture kernel, the inverse and
the bit marginaliser were folded into shared helpers; ``TestSolverPins``
was recorded before the quantile solve moved onto the shared CDF and
density kernels. The comparisons are exact float equality (or a digest of
the exact bytes): a refactor that reorders one floating-point operation
shows up here. Only names that exist on both sides of that
refactor are used, so the file runs unchanged on either; the hard-decision
table is reached through the hard scheme's per-frame step for that reason.
The inverse and Jacobian pins were recorded through wrappers that have since been deleted;
they returned the values of ``inverse_and_jacobian`` unchanged, so the same
floats are now read from it. ``TestInformationPins`` keeps the MI values
recorded on scipy's adaptive quadrature and compares them with today's
within the sum of both error estimates (a different rule cannot reproduce
their last bits), next to exact pins of the batched Gauss-Kronrod rule.

Every pin that passes through ``output_quantile`` was re-recorded when its
start moved from a moment-matched Gaussian to the Hermite grid, which moves
the last bits of each solved point: ``TestChannelPins.Q``, the inverse and
Jacobian, the LAPPR tables, the frame digests, ``SKEWED_Q`` and ``GK_RRS``.
The mixture functions, the direct and hard pins and ``GK_DIRECT`` held.

When the inverse began to return log|g'| and the joint density took it from
there, in place of a second mixture-density pass, the Jacobian row was
re-recorded in log form (its exp matches the old |g'| row to 1.3e-15
relative), and the LAPPR tables, the frame digests and the ``GK_RRS`` error
estimates and leakage moved by ulps: at most 8.9e-16 in the tables, 3.6e-15
in a frame, 1.1e-17 in an error estimate and 6.7e-17 in a leakage. The
``GK_RRS`` MI values, the quantile pins and the solved y held.

When the start became one quintic curve per channel, fine enough that a
point usually meets the tolerance at its start, every quantile-derived pin
was re-recorded again; largest moves:

- ``TestChannelPins.Q``: 7 of 12 entries, by at most 1.8e-15 (the median
  went from -2.3e-16 to 2.2e-16);
- the inverse's y row: one entry of 4, by 4.4e-16; the log|g'| row and
  the scalar call held;
- the LAPPR tables: ``BASE`` 31 of 48 entries, by at most 2.7e-15;
  ``ALTERNATING`` 36, by at most 7.1e-15; the alpha = 0.65 table 36, by at
  most 5.3e-15;
- the frame digests: 44,095, 45,027 and 45,391 of 64,800 LAPPRs, by at
  most 2.2e-11;
- ``SKEWED_Q``: at sigma^2 = 1e-4, the two flat-stretch roots (p = 0.97
  and 0.99) by 0.011 and 0.020, three more by at most 1.8e-14; at 250, 11
  of 14 by at most 7.9e-12;
- ``GK_RRS``: the MI values by at most 1.6e-14, their error estimates by at
  most 1.2e-13, the leakages by at most 8.7e-17; each value still lies
  within the recorded and new estimates of the quad-era value.

The 0 dB row of ``test_hard_rr_table`` was re-recorded when the hard table
moved onto the shared bit marginaliser: a log-sum-exp of log T in place of
the log of a sum of T moves three of its entries by one or two ulps (at most
2.2e-16). Its 30 dB row held.

When ``log_output_density`` moved from its own max-shifted sum,
max + log(sum exp(e - max)), onto scipy's rule in ``channel._logsumexp``,
log1p(s) + log(m) + max, log|g'| moved by ulps, and with it these pins,
re-recorded; largest moves:

- the ``log_output_density`` row: one entry of 8, by 4.4e-16 (the scalar
  call held);
- the LAPPR tables: ``BASE``, ``ALTERNATING`` and the alpha = 0.65 table 15
  of 48 entries each, by at most 8.9e-16, 4.4e-16 and 3.3e-16;
- the frame digests: 11,855 (``alternating``), 12,084 (``base``) and
  13,223 (``+--+``) of 64,800 LAPPRs, by at most 3.6e-15;
- ``GK_RRS``: the MI values held; their error estimates moved by at most
  3.1e-17 and the leakages by at most 4.6e-17.

``TestChannelPins.Q``, the inverse's rows, ``SKEWED_Q``, ``GK_DIRECT``, the
direct and hard pins and the ``output_density`` and ``output_cdf`` rows
held, and so did both ``TestGoldenOutputs`` digests, recorded before that
move.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import softrec.cli as cli
from softrec.channel import (
    ChannelModel,
    _cdf,
    log_output_density,
    output_cdf,
    output_density,
    output_quantile,
    transmit,
)
from softrec.constellation import pam
from softrec.harness import (
    ExperimentSpec,
    _Cell,
    _soft_inputs,
    direct_bit_llrs,
    noise_variance_for_snr_db,
)
from softrec.infotheory import leakage, mi_direct, mi_hard, mi_rrs
from softrec.metrics import lappr_batch
from softrec.softening import build_transform, inverse_and_jacobian, soften


class TestChannelPins:
    # PAM-4 at 0 dB (sigma^2 = 2.5). The third and the second-to-last p are
    # the inverse's clamp extremes for the base transform's edge regions,
    # cdf_edges[0] + N_EPS * dF_0 and cdf_edges[4] - N_EPS * dF_3; 1e-200
    # and 1e-30 push the lower bracket out.
    P = [
        1e-200, 1e-30, 2.574181216727e-13, 1e-06, 0.01, 0.37,
        0.5, 0.63, 0.93, 0.999999, 0.9999999999997425, 0.9999999999999999,
    ]
    Q = [
        -50.68669532827964, -20.935448170834206, -14.116058368118066, -10.060500090178568,
        -5.790957084290258, -1.0525795706541141, 2.220446049250313e-16, 1.0525795706541141,
        4.053672172929478, 10.060500090168837, 14.116021866151142, 15.714572610137903,
    ]
    Y = [-60.0, -7.5, -3.0, -0.4, 0.0, 1.3, 4.2, 60.0]

    def test_quantile(self, ch4_0db):
        assert output_quantile(np.array(self.P), ch4_0db).tolist() == self.Q
        q = output_quantile(0.37, ch4_0db)
        assert type(q) is float and q == self.Q[5]

    def test_clamp_extremes_match_transform(self, t_base):
        lo = t_base.cdf_edges[0] + 1e-12 * t_base.deltas[0]
        hi = t_base.cdf_edges[4] - 1e-12 * t_base.deltas[3]
        assert [float(lo), float(hi)] == [self.P[2], self.P[10]]

    @pytest.mark.parametrize(
        "fn, expect",
        [
            (
                output_density,
                [3.9384535649102876e-284, 0.0011124999402003105, 0.09403953054826451,
                 0.1238870832510197, 0.12414185952973868, 0.12080145107401837,
                 0.05571494425413322, 3.9384535649102876e-284],
            ),
            (
                log_output_density,
                [-652.5633782602616, -6.80114559767641, -2.3640400473658536,
                 -2.088384747185795, -2.0863303388133567, -2.1136069813514293,
                 -2.887506869037632, -652.5633782602616],
            ),
            (
                output_cdf,
                [1.7260657989695912e-285, 0.0005582504605950027, 0.15218288117855058,
                 0.45037687181501385, 0.5, 0.6600596801245961, 0.9385148985659365, 1.0],
            ),
        ],
    )
    def test_mixture_functions(self, ch4_0db, fn, expect):
        assert fn(np.array(self.Y), ch4_0db).tolist() == expect
        scalar = fn(1.3, ch4_0db)
        assert type(scalar) is float and scalar == expect[5]

    def test_survival_function(self, ch4_0db):
        # the upper-tail mass P(Y > y) is the private _cdf(y, ch, -1)
        expect = [1.0, 0.999441749539405, 0.8478171188214494, 0.5496231281849862, 0.5,
                  0.33994031987540385, 0.06148510143406345, 1.7260657989695912e-285]
        assert _cdf(np.array(self.Y), ch4_0db, -1.0).tolist() == expect
        assert _cdf(1.3, ch4_0db, -1.0) == expect[5]


class TestSofteningPins:
    N = [0.0, 0.25, 0.5, 1.0]
    I = [0, 1, 2, 3]

    # |g'| as recorded before the inverse returned it in log form
    JAC = [4.533106349356292e-12, 0.5101624735289266, 0.5046173913736024, 0.44340352613876594]

    def test_unsoften_and_jacobian(self, t_alt):
        y, log_jac = inverse_and_jacobian(np.array(self.N), np.array(self.I), t_alt)
        assert y.tolist() == [
            -14.116058368118066, -0.4890161376931178, 0.9813476057407698, 2.000000000002256,
        ]
        assert log_jac.tolist() == [
            -26.119613683103132, -0.6730260284512652, -0.6839547777060027, -0.8132750293309472,
        ]
        np.testing.assert_allclose(np.exp(log_jac), self.JAC, rtol=2e-15, atol=0)
        assert inverse_and_jacobian(0.25, 1, t_alt) == (-0.4890161376931178, -0.6730260284512652)


class TestLapprPins:
    # every (n, j) pair with n in {0, 1e-12, 0.1, 0.5, 0.9, 1}, j in 0..3
    N = np.repeat([0.0, 1e-12, 0.1, 0.5, 0.9, 1.0], 4)
    J = np.tile(np.arange(4), 6)

    BASE = [
        [2.8455380604496154, 0.6857927695311563], [-0.12532185516460526, -2.1919919426020646],
        [-2.2833960727060614, -0.05515250974038011], [-5.020572267855935, 1.699981240705522],
        [2.8455380604496154, 0.6857927695311563], [-0.12532185516460526, -2.1919919426020646],
        [-2.2833960727060614, -0.05515250974038011], [-5.020572267855935, 1.699981240705522],
        [3.0013539964553027, 0.7333228194364827], [0.20709386806990715, -1.679292531313688],
        [-2.046069845627683, -0.22341534776432836], [-4.759635534953928, 1.5764138744220455],
        [3.809406414489648, 1.1161241533332231], [1.1331734747213007, -0.9209063160905947],
        [-1.1331734747212998, -0.9209063160905955], [-3.8094064144896462, 1.1161241533332222],
        [4.759635534953926, 1.5764138744220468], [2.046069845627683, -0.22341534776432803],
        [-0.20709386806990748, -1.679292531313688], [-3.001353996455302, 0.7333228194364827],
        [5.020572267855934, 1.699981240705522], [2.2833960727069, -0.05515250974053898],
        [0.12532186195421835, -2.19199197427621], [-2.8455380624796485, 0.685792772416077],
    ]
    ALTERNATING = [
        [2.612526832573667, 1.8432014180545166], [0.00015742061448176248, -9.449632814040902],
        [-0.00015742521100425844, -9.449603615361404], [-2.6125268309034917, 1.8432014162521393],
        [2.612526832573667, 1.8432014180545166], [0.00015742061448176248, -9.449632814040902],
        [-0.00015742521100425844, -9.449603615361404], [-2.6125268309034917, 1.8432014162521393],
        [2.7955903161712436, 1.738025732390665], [0.32685609687507056, -2.2583163878070396],
        [-0.3268560968750709, -2.2583163878070396], [-2.7955903161712436, 1.738025732390664],
        [3.809406414489648, 1.1161241533332231], [1.1331734747213007, -0.9209063160905947],
        [-1.1331734747212998, -0.9209063160905955], [-3.8094064144896462, 1.1161241533332222],
        [4.760628628724346, 0.2766979257085582], [1.58646192129844, -0.12443428616714769],
        [-1.58646192129844, -0.12443428616714802], [-4.760628628724347, 0.2766979257085578],
        [4.800000000000312, 0.05936239947897759], [1.600000000000105, 0.05936239947497035],
        [-1.6000000000001031, 0.05936239947497024], [-4.800000000000311, 0.05936239947897792],
    ]
    ALTERNATING_065 = [
        [1.6981424411728834, 1.1980809217354358], [0.00010232339941314561, -6.142261329126586],
        [-0.00010232638715276798, -6.142242349984913], [-1.6981424400872696, 1.1980809205638905],
        [1.6981424411728834, 1.1980809217354358], [0.00010232339941314561, -6.142261329126586],
        [-0.00010232638715276798, -6.142242349984913], [-1.6981424400872696, 1.1980809205638905],
        [1.8171337055113084, 1.1297167260539323], [0.21245646296879586, -1.4679056520745757],
        [-0.21245646296879608, -1.4679056520745757], [-1.8171337055113084, 1.1297167260539316],
        [2.4761141694182713, 0.725480699666595], [0.7365627585688455, -0.5985891054588866],
        [-0.7365627585688449, -0.5985891054588871], [-2.47611416941827, 0.7254806996665945],
        [3.094408608670825, 0.17985365171056286], [1.0312002488439862, -0.080882286008646],
        [-1.0312002488439862, -0.08088228600864622], [-3.094408608670826, 0.17985365171056256],
        [3.1200000000002026, 0.038585559661335436], [1.0400000000000682, 0.03858555965873073],
        [-1.040000000000067, 0.03858555965873066], [-3.120000000000202, 0.03858555966133565],
    ]

    def test_base(self, t_base):
        assert lappr_batch(self.N, self.J, t_base).tolist() == self.BASE

    def test_alternating(self, t_alt):
        assert lappr_batch(self.N, self.J, t_alt).tolist() == self.ALTERNATING
        assert lappr_batch(self.N, self.J, t_alt, alpha=0.65).tolist() == self.ALTERNATING_065


class TestBaselineSoftInputPins:
    Y = np.array([-80.0, -3.0, -0.7, 0.0, 0.25, 2.0, 80.0])

    def test_direct_bit_llrs(self, pam4, ch4_0db):
        assert direct_bit_llrs(self.Y, ch4_0db).tolist() == [
            [50.0, 50.0], [3.5529507380299687, 0.7139101550978779],
            [0.7535143966143409, -1.320943850976436], [0.0, -1.6],
            [-0.26743979939237694, -1.5606509188957063],
            [-2.2531938473975153, -0.17570467355007113], [-50.0, 50.0],
        ]
        assert direct_bit_llrs(self.Y, ChannelModel(pam4, 0.01)).tolist() == [
            [50.0, 50.0], [50.0, 50.0], [50.0, -50.0], [0.0, -50.0],
            [-50.0, -50.0], [-50.0, 0.0], [-50.0, 50.0],
        ]

    @pytest.mark.parametrize(
        "point, table",
        [
            (
                0,  # 0 dB
                [[3.5149518760902807, 1.031662466623164],
                 [1.0276259172678341, -0.8835899104186811],
                 [-1.0276259172678341, -0.8835899104186813],
                 [-3.5149518760902825, 1.031662466623164]],
            ),
            (1, [[50.0, 50.0], [50.0, -50.0], [-50.0, -50.0], [-50.0, 50.0]]),  # 30 dB
        ],
    )
    def test_hard_rr_table(self, pam4, point, table):
        spec = ExperimentSpec(constellation=pam4, snr_grid_db=(0.0, 30.0))
        x = np.arange(4)
        _, soft, _ = _soft_inputs(_Cell(spec, point, "hard"), x, np.array([-3.0, -1.0, 1.0, 3.0]))
        assert soft.tolist() == table


class TestInformationPins:
    # Recorded on the earlier quadrature (scipy's quad and quad_vec, gk15):
    # snr_db -> (mi_direct, its error estimate, mi_hard)
    DIRECT_HARD = {
        0.0: (0.7715630318715458, 3.0604923504300905e-12, 0.6868131070288033),
        6.0: (1.464684674027522, 6.70061323344109e-10, 1.2877876328257432),
    }
    # (snr_db, config) -> (mi_rrs, its error estimate, leakage)
    RRS = {
        (0.0, "base"): (0.7427432800945326, 2.605921558796965e-09, -3.4043256052866076e-17),
        (0.0, "alternating"): (0.7678310568724607, 1.809686198937952e-09, -5.0882182103300274e-17),
        (6.0, "base"): (1.4445436695170815, 1.1432133424312609e-09, -1.0607810668753411e-16),
        (6.0, "alternating"): (1.4646843630035038, 5.452210004809574e-10, -5.974176777031397e-17),
    }
    # The batched Gauss-Kronrod rule's own values, exact: snr_db ->
    # (mi_direct, its error estimate); (snr_db, config) -> (mi_rrs, its
    # error estimate, leakage).
    GK_DIRECT = {
        0.0: (0.7715630318715467, 1.8546082720820738e-09),
        6.0: (1.4646846740275214, 1.8175169867533504e-09),
    }
    GK_RRS = {
        (0.0, "base"): (0.742743280094972, 8.612909308280986e-14, -1.436767508165836e-17),
        (0.0, "alternating"): (0.7678310568728901, 1.5355333134599068e-13, -5.89338326604079e-17),
        (6.0, "base"): (1.4445436695176432, 1.3391789582189334e-12, -7.999753390266356e-17),
        (6.0, "alternating"): (1.4646843630035378, 2.157652385216228e-12, -4.890087773005101e-17),
    }

    @pytest.mark.parametrize("snr", [0.0, 6.0])
    def test_mi_and_leakage(self, pam4, snr):
        ch = ChannelModel(pam4, noise_variance_for_snr_db(snr, pam4))
        value, err = mi_direct(ch, with_error=True)
        assert (value, err) == self.GK_DIRECT[snr]
        recorded, recorded_err, hard = self.DIRECT_HARD[snr]
        assert abs(value - recorded) <= recorded_err + err
        assert mi_hard(ch) == hard
        for cfg in ("base", "alternating"):
            t = build_transform(ch, cfg)
            value, err = mi_rrs(t, with_error=True)
            leak = leakage(t)
            assert (value, err, leak) == self.GK_RRS[(snr, cfg)]
            recorded, recorded_err, _ = self.RRS[(snr, cfg)]
            assert abs(value - recorded) <= recorded_err + err
            assert abs(leak) <= 1e-15


class TestSolverPins:
    # One 32,400-symbol PAM-4 frame at 3.5 dB; the metric is forced to 0, 1
    # and 1e-300 at three slots (the clamped ends and a subnormal-scale p).
    LAPPR_SHA256 = {
        "alternating": "6442c94e98024d92e1363953da6037a1e0554020f6334f6556a2358dea4b33a4",
        "base": "8305d8c4ff9d3b388f0678713b96ff200b1237f8c09f3c32992444f9bc65142d",
        "+--+": "d488fd9b65347b7231a120c00ab70d80e99668ff133193eb2bfa6a0c657ef550",
    }
    P = [
        1e-200, 1e-30, 1e-12, 1e-06, 0.01, 0.3, 0.5, 0.7,
        0.97, 0.975, 0.99, 0.999999, 1 - 1e-12, 0.9999999999999999,
    ]
    # PAM-4 with 0.97 of the prior on the lowest point: near-flat CDF
    # stretches at sigma^2 = 1e-4, a far-reaching lower tail at 250. At 1e-4,
    # p = 0.97 and 0.99 lie on flat stretches, where every y within the
    # tolerance is a root; the pins hold the one the solver reaches.
    SKEWED_Q = {
        1e-4: [
            -3.302045868682091, -3.1146138722285426, -3.070302352743008, -3.0474726516342856,
            -3.023148972354601, -3.0049789691614004, -2.9996122799516205, -2.994122513728479,
            -2.9144894968246216, -1.0, 1.078827552515877, 3.037190164854484,
            3.0636134429972577, 3.076371721053417,
        ],
        250.0: [
            -480.5765706711454, -184.22458850368707, -114.17183726217931, -78.09207078770014,
            -39.695818500571214, -11.181624999735229, -2.881758528566713, 5.419062477016476,
            26.89500513609691, 28.14879905702735, 33.951555711023595, 72.41557345830749,
            108.62163371856846, 127.30291836749628,
        ],
    }

    def test_frame_lapprs(self, pam4):
        ch = ChannelModel(pam4, noise_variance_for_snr_db(3.5, pam4))
        x = np.random.default_rng(20241).integers(0, 4, size=32400)
        for cfg, digest in self.LAPPR_SHA256.items():
            t = build_transform(ch, cfg)
            n, _ = soften(transmit(x, ch, np.random.default_rng(7)), t)
            n[[5, 16000, 32399]] = [0.0, 1.0, 1e-300]
            assert hashlib.sha256(lappr_batch(n, x, t).tobytes()).hexdigest() == digest, cfg

    @pytest.mark.parametrize("var", [1e-4, 250.0])
    def test_skewed_prior_quantile(self, var):
        ch = ChannelModel(pam(4, priors=[0.97, 0.01, 0.01, 0.01]), var)
        assert output_quantile(np.array(self.P), ch).tolist() == self.SKEWED_Q[var]


class TestGoldenOutputs:
    # The bytes of four CLI outputs: a small coded-BER sweep over all three
    # schemes, the stdout of one 64800-bit reconciliation frame, the MI
    # curves of the default schemes and configs with their SNR-at-MI table
    # (16 of its 24 rows ok), and a six-cell disclosure audit's stdout and
    # its ``audit-cell`` run-log records. The audit digests were recorded
    # before the cell sorted one key array and drew symbols by comparison.
    BER_ARGS = [
        "ber-sweep", "--snr", "3,6", "--code", "hamming74", "--frames", "8",
        "--schemes", "direct,hard,rrs", "--seed", "11",
    ]
    BER_SHA256 = "66ff03b82df79747ea0f50bae5276f5b6f1c47da0455b6b096294e8c870c4627"
    RECONCILE_ARGS = [
        "reconcile", "--code", "dvbs2-r12-64800", "--snr", "3.0",
        "--config", "alternating", "--seed", "0",
    ]
    RECONCILE_SHA256 = "28946ae7b818c00c3671a82ac9c839653e924d9750aec7521bfcda26613e7ba6"
    MI_ARGS = ["mi-sweep", "--snr=-6:14:2", "--seed", "0"]
    MI_SHA256 = {
        "mi.csv": "507f75462aa6f40e1c078d28bfdc6fc789a9899bb8d74f17079f62a22513138a",
        "snr_at_mi.csv": "f17e8047e97a6deaecc08f76c8295288903ef0c10b4c0b4cb84e19e252ef0219",
    }

    AUDIT_ARGS = [
        "audit", "--snr=-10,0,10", "--configs", "base,alternating",
        "--samples-per-decision", "100000", "--seed", "10",
    ]
    AUDIT_SHA256 = {
        "stdout": "5171169c950860796df594db5f098d73d3c088b63298be0ace9eb8b4548a46b4",
        "audit-cell": "a7d22a210d0116cff9c39d8b3b3e7c8f2d9f4d724742150fdf4b83f117228b2d",
    }

    def test_ber_csv(self, tmp_path):
        assert cli.main(self.BER_ARGS + ["--out", str(tmp_path)]) == 0
        body = (tmp_path / "ber.csv").read_bytes()
        assert hashlib.sha256(body).hexdigest() == self.BER_SHA256

    def test_reconcile_stdout(self, tmp_path, capsys):
        capsys.readouterr()
        assert cli.main(self.RECONCILE_ARGS + ["--out", str(tmp_path)]) == 0
        body = capsys.readouterr().out.encode()
        assert hashlib.sha256(body).hexdigest() == self.RECONCILE_SHA256

    def test_mi_sweep_csvs(self, tmp_path):
        assert cli.main(self.MI_ARGS + ["--out", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.MI_SHA256
        }
        assert digests == self.MI_SHA256

    def test_audit_stdout_and_cells(self, tmp_path, capsys):
        capsys.readouterr()
        assert cli.main(self.AUDIT_ARGS + ["--out", str(tmp_path)]) == 0
        stdout = capsys.readouterr().out.encode()
        lines = (tmp_path / "run_log.jsonl").read_bytes().splitlines(keepends=True)
        cells = b"".join(line for line in lines if json.loads(line)["event"] == "audit-cell")
        digests = {
            "stdout": hashlib.sha256(stdout).hexdigest(),
            "audit-cell": hashlib.sha256(cells).hexdigest(),
        }
        assert digests == self.AUDIT_SHA256

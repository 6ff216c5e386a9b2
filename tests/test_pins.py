"""Exact values of the soft-information layer, pinned across refactors.

Every number below was recorded before the mixture kernel, the inverse and
the bit marginaliser were folded into shared helpers; ``TestSolverPins``
was recorded before the quantile solve moved onto the shared CDF and
density kernels. The comparisons are exact float equality (or a digest of
the exact bytes): a refactor that reorders one floating-point operation
shows up here. Only names that exist on both sides of that
refactor are used, so the file runs unchanged on either; the hard-decision
table is reached through the hard scheme's per-frame step for that reason.
The one later name is ``QuantileWarning``, which the active-set solve added
to mark the pinned points that stop at the iteration cap. The inverse and
Jacobian pins were recorded through wrappers that have since been deleted;
they returned the values of ``inverse_and_jacobian`` unchanged, so the same
floats are now read from it. ``TestInformationPins`` keeps the MI values
recorded on scipy's adaptive quadrature and compares them with today's
within the sum of both error estimates (a different rule cannot reproduce
their last bits), next to exact pins of the batched Gauss-Kronrod rule.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext

import numpy as np
import pytest

from softrec.channel import (
    ChannelModel,
    QuantileWarning,
    log_output_density,
    output_cdf,
    output_density,
    output_quantile,
    output_sf,
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
        -45.80678391347634, -20.93544817083421, -14.116058368118066, -10.060500090178568,
        -5.790957084290142, -1.0525795706541143, 0.0, 1.052579570654114,
        4.0536721729294785, 10.060500090168837, 14.116021866151138, 15.714572610137902,
    ]
    Y = [-60.0, -7.5, -3.0, -0.4, 0.0, 1.3, 4.2, 60.0]

    def test_quantile(self, ch4_0db):
        # 1e-200 stops at the iteration cap (the far-lower-tail fault).
        with pytest.warns(QuantileWarning):
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
                 -2.0883847471857946, -2.0863303388133567, -2.1136069813514293,
                 -2.887506869037632, -652.5633782602616],
            ),
            (
                output_cdf,
                [1.7260657989695912e-285, 0.0005582504605950027, 0.15218288117855058,
                 0.45037687181501385, 0.5, 0.6600596801245961, 0.9385148985659365, 1.0],
            ),
            (
                output_sf,
                [1.0, 0.999441749539405, 0.8478171188214494, 0.5496231281849862, 0.5,
                 0.33994031987540385, 0.06148510143406345, 1.7260657989695912e-285],
            ),
        ],
    )
    def test_mixture_functions(self, ch4_0db, fn, expect):
        assert fn(np.array(self.Y), ch4_0db).tolist() == expect
        scalar = fn(1.3, ch4_0db)
        assert type(scalar) is float and scalar == expect[5]


class TestSofteningPins:
    N = [0.0, 0.25, 0.5, 1.0]
    I = [0, 1, 2, 3]

    def test_unsoften_and_jacobian(self, t_alt):
        y, jac = inverse_and_jacobian(np.array(self.N), np.array(self.I), t_alt)
        assert y.tolist() == [
            -14.116058368118066, -0.48901613768725294, 0.9813476057407698, 2.00000000000225,
        ]
        assert jac.tolist() == [
            4.533106349356292e-12, 0.5101624735289663, 0.5046173913736024, 0.44340352613876627,
        ]
        assert inverse_and_jacobian(0.25, 1, t_alt) == (-0.48901613768725294, 0.5101624735289663)


class TestLapprPins:
    # every (n, j) pair with n in {0, 1e-12, 0.1, 0.5, 0.9, 1}, j in 0..3
    N = np.repeat([0.0, 1e-12, 0.1, 0.5, 0.9, 1.0], 4)
    J = np.tile(np.arange(4), 6)

    BASE = [
        [2.845538060449283, 0.6857927695311052], [-0.12532185516469874, -2.191991942602115],
        [-2.2833960727060023, -0.055152509740285516], [-5.020572267855869, 1.69998124070585],
        [2.845538060449283, 0.6857927695311052], [-0.12532185516469874, -2.191991942602115],
        [-2.2833960727060023, -0.055152509740285516], [-5.020572267855869, 1.69998124070585],
        [3.0013539964552884, 0.7333228194364797], [0.20709386806990093, -1.6792925313136577],
        [-2.0460698456276867, -0.22341534776431404], [-4.759635534953909, 1.5764138744220375],
        [3.8094064144893824, 1.1161241533329271], [1.1331734747214077, -0.9209063160898382],
        [-1.1331734747214073, -0.9209063160898397], [-3.80940641448938, 1.116124153332926],
        [4.759635534953909, 1.5764138744220393], [2.0460698456276867, -0.2234153477643135],
        [-0.2070938680699007, -1.6792925313136575], [-3.001353996455287, 0.7333228194364795],
        [5.0205722678558695, 1.69998124070585], [2.283396072706841, -0.055152509740444056],
        [0.1253218619543115, -2.1919919742762612], [-2.8455380624793167, 0.6857927724160261],
    ]
    ALTERNATING = [
        [2.612526832573295, 1.843201418054517], [0.00015742061425016995, -9.449632814040902],
        [-0.00015742521077377614, -9.449603615361404], [-2.6125268309031204, 1.84320141625214],
        [2.612526832573295, 1.843201418054517], [0.00015742061425016995, -9.449632814040902],
        [-0.00015742521077377614, -9.449603615361404], [-2.6125268309031204, 1.84320141625214],
        [2.7955903161712303, 1.738025732390664], [0.3268560968750681, -2.2583163878070156],
        [-0.32685609687506834, -2.2583163878070156], [-2.795590316171229, 1.7380257323906627],
        [3.8094064144893824, 1.1161241533329271], [1.1331734747214077, -0.9209063160898382],
        [-1.1331734747214073, -0.9209063160898397], [-3.80940641448938, 1.116124153332926],
        [4.760628628724314, 0.276697925708543], [1.5864619212984294, -0.12443428616713126],
        [-1.586461921298429, -0.12443428616713137], [-4.760628628724313, 0.276697925708543],
        [4.800000000000298, 0.05936239947897759], [1.6000000000001005, 0.05936239947497013],
        [-1.600000000000099, 0.05936239947496991], [-4.8000000000002965, 0.0593623994789777],
    ]
    ALTERNATING_065 = [
        [1.6981424411726418, 1.1980809217354362], [0.00010232339926261047, -6.142261329126586],
        [-0.00010232638700295449, -6.142242349984913], [-1.6981424400870284, 1.198080920563891],
        [1.6981424411726418, 1.1980809217354362], [0.00010232339926261047, -6.142261329126586],
        [-0.00010232638700295449, -6.142242349984913], [-1.6981424400870284, 1.198080920563891],
        [1.8171337055112997, 1.1297167260539316], [0.21245646296879428, -1.4679056520745601],
        [-0.21245646296879442, -1.4679056520745601], [-1.8171337055112988, 1.1297167260539307],
        [2.4761141694180986, 0.7254806996664027], [0.7365627585689151, -0.5985891054583948],
        [-0.7365627585689147, -0.5985891054583958], [-2.4761141694180973, 0.7254806996664019],
        [3.094408608670804, 0.17985365171055295], [1.031200248843979, -0.08088228600863533],
        [-1.0312002488439789, -0.0808822860086354], [-3.0944086086708036, 0.17985365171055295],
        [3.120000000000194, 0.038585559661335436], [1.0400000000000653, 0.03858555965873058],
        [-1.0400000000000644, 0.038585559658730444], [-3.120000000000193, 0.038585559661335506],
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
                [[3.5149518760902807, 1.0316624666231637],
                 [1.0276259172678341, -0.8835899104186811],
                 [-1.0276259172678341, -0.8835899104186815],
                 [-3.5149518760902825, 1.0316624666231637]],
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
        (0.0, "base"): (0.7427432800948846, 1.1523653367312204e-13, -7.049485296966563e-18),
        (0.0, "alternating"): (0.7678310568728175, 1.6255320910239015e-13, 7.387602563970506e-18),
        (6.0, "base"): (1.444543669517813, 1.4403093444794578e-12, -8.988847047483267e-17),
        (6.0, "alternating"): (1.464684363003645, 2.210834066272772e-12, -2.6430657009764776e-17),
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
        "alternating": "9e0de20720b7b0b663ea88b8bc05ac5f633a809e13925099a8b46584db83598a",
        "base": "f15a53bed8abf408924e82b1e6485b6a7dfc343796b2ae0f3d50cd734e3df6a2",
        "+--+": "ea6e6f509ba06a9b95a6537188bb3182949b6554514a414fad27b93c39b2d3ed",
    }
    P = [
        1e-200, 1e-30, 1e-12, 1e-06, 0.01, 0.3, 0.5, 0.7,
        0.97, 0.975, 0.99, 0.999999, 1 - 1e-12, 0.9999999999999999,
    ]
    # PAM-4 with 0.97 of the prior on the lowest point: near-flat CDF
    # stretches at sigma^2 = 1e-4, a far-reaching lower tail at 250.
    SKEWED_Q = {
        1e-4: [
            -3.205336364080157, -3.1146138722285426, -3.070302352743009, -3.0474726516342856,
            -3.023148972354601, -3.0049789691614004, -2.9996122799516294, -2.994122513728479,
            -1.4906293603614476, -1.0, 2.0346270760079572, 3.037190164854484,
            3.0636134429972577, 3.076371721053417,
        ],
        250.0: [
            -480.57657067114536, -184.22458850368704, -114.17183726217932, -78.09207078770014,
            -39.69581850057022, -11.181624999735229, -2.881758528595339, 5.419062477016478,
            26.895005136096817, 28.148799057027162, 33.95155571102138, 72.41557345830749,
            108.62163371856843, 127.30291836749628,
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
        # At 1e-4, 1e-200 stops at the iteration cap (the far-lower-tail fault).
        with pytest.warns(QuantileWarning) if var == 1e-4 else nullcontext():
            assert output_quantile(np.array(self.P), ch).tolist() == self.SKEWED_Q[var]

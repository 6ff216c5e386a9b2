from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softrec.channel import transmit
from softrec.constellation import (
    bit_partitions,
    decide,
    demap,
    draw_symbols,
    gray_bitmap,
    map_decision_regions,
    pam,
)
from softrec.metrics import lappr_batch, log_joint_conditional_density
from softrec.softening import inverse_and_jacobian


class TestPam:
    def test_pam4_defaults(self, pam4):
        np.testing.assert_array_equal(pam4.points, [-3.0, -1.0, 1.0, 3.0])
        np.testing.assert_array_equal(pam4.priors, [0.25] * 4)
        assert pam4.bitmap == ("00", "01", "11", "10")
        assert pam4.order == 4
        assert pam4.average_power == pytest.approx(5.0)

    def test_bpsk_defaults(self, bpsk):
        np.testing.assert_array_equal(bpsk.points, [-1.0, 1.0])
        assert bpsk.bitmap == ("0", "1")
        assert bpsk.average_power == pytest.approx(1.0)

    def test_custom_amplitudes(self):
        c = pam(4, amplitudes=[-6, -2, 2, 6])
        np.testing.assert_array_equal(c.points, [-6.0, -2.0, 2.0, 6.0])
        assert c.average_power == pytest.approx(20.0)

    def test_custom_priors(self):
        c = pam(2, priors=[0.9, 0.1])
        np.testing.assert_allclose(c.priors, [0.9, 0.1])

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            pam(3)
        with pytest.raises(ValueError):
            pam(1)

    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            pam(2, priors=[0.7, 0.7])
        with pytest.raises(ValueError):
            pam(2, priors=[1.2, -0.2])

    def test_pam_sorts_amplitudes(self):
        c = pam(2, amplitudes=[1.0, -1.0])
        np.testing.assert_array_equal(c.points, [-1.0, 1.0])

    def test_constellation_rejects_unsorted_points(self):
        from softrec.constellation import Constellation

        with pytest.raises(ValueError):
            Constellation(
                points=np.array([1.0, -1.0]),
                priors=np.array([0.5, 0.5]),
                bitmap=("0", "1"),
            )


class TestEquality:
    def test_equal_by_value(self):
        a, b = pam(4), pam(4)
        assert a == b and not a != b and hash(a) == hash(b)
        assert pam(2, amplitudes=[-0.0, 1.0]) == pam(2, amplitudes=[0.0, 1.0])
        assert hash(pam(2, amplitudes=[-0.0, 1.0])) == hash(pam(2, amplitudes=[0.0, 1.0]))
        assert len({pam(4), pam(4), pam(2)}) == 2

    @pytest.mark.parametrize(
        "other",
        [
            pam(4, amplitudes=[-3.0, -1.0, 1.0, 3.5]),
            pam(4, priors=[0.1, 0.4, 0.4, 0.1]),
            pam(4, bitmap=["00", "01", "10", "11"]),
            pam(2),
        ],
    )
    def test_unequal(self, other):
        assert pam(4) != other and not pam(4) == other

    def test_other_types_are_unequal(self):
        assert pam(2) != (np.array([-1.0, 1.0]), np.array([0.5, 0.5]), ("0", "1"))


class TestGrayBitmap:
    def test_known_orders(self):
        assert gray_bitmap(2) == ("0", "1")
        assert gray_bitmap(4) == ("00", "01", "11", "10")
        assert gray_bitmap(8) == (
            "000",
            "001",
            "011",
            "010",
            "110",
            "111",
            "101",
            "100",
        )

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32])
    def test_adjacent_labels_differ_in_one_bit(self, order):
        labels = gray_bitmap(order)
        assert len(set(labels)) == order
        for a, b in zip(labels, labels[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1


class TestBitPartitions:
    def test_pam4_partitions(self, pam4):
        # msb first: bit 0 splits {00,01} from {11,10}
        assert bit_partitions(pam4, 0) == ((0, 1), (2, 3))
        assert bit_partitions(pam4, 1) == ((0, 3), (1, 2))

    def test_partition_is_disjoint_cover(self, pam4):
        for l in range(2):
            zero, one = bit_partitions(pam4, l)
            assert sorted(zero + one) == [0, 1, 2, 3]
            assert not set(zero) & set(one)

    def test_rejects_bad_level(self, pam4):
        with pytest.raises(ValueError):
            bit_partitions(pam4, 2)
        with pytest.raises(ValueError):
            bit_partitions(pam4, -1)


class TestDecisionRegions:
    def test_equiprobable_boundaries_are_midpoints(self, regions4):
        np.testing.assert_allclose(regions4.boundaries, [-2.0, 0.0, 2.0])

    def test_boundaries_scale_free_for_uniform_priors(self, pam4):
        # MAP boundaries of equiprobable AWGN do not depend on the noise power
        r1 = map_decision_regions(pam4, 0.1)
        r2 = map_decision_regions(pam4, 10.0)
        np.testing.assert_allclose(r1.boundaries, r2.boundaries)

    def test_map_shift_under_skewed_priors(self):
        # brute-force posterior argmax on a dense grid as the oracle
        c = pam(2, priors=[0.8, 0.2])
        nv = 0.5
        r = map_decision_regions(c, nv)
        y = np.linspace(-4, 4, 160_001)
        post = np.stack(
            [
                w * np.exp(-((y - a) ** 2) / (2 * nv))
                for a, w in zip(c.points, c.priors)
            ]
        )
        flips = y[np.flatnonzero(np.diff(np.argmax(post, axis=0)))]
        assert len(flips) == 1
        assert r.boundaries[0] == pytest.approx(flips[0], abs=1e-4)
        assert r.boundaries[0] > 0.0  # pushed toward the rarer symbol

    def test_rejects_nonpositive_variance(self, pam4):
        with pytest.raises(ValueError):
            map_decision_regions(pam4, 0.0)
        with pytest.raises(ValueError, match="noise_variance must be finite and > 0"):
            map_decision_regions(pam4, np.inf)


class TestDecideDemap:
    def test_decide_literals(self, regions4):
        y = np.array([-5.0, -1.2, 0.4, 7.0])
        np.testing.assert_array_equal(decide(y, regions4), [0, 1, 2, 3])

    def test_decide_on_boundary_goes_left(self, regions4):
        np.testing.assert_array_equal(
            decide(np.array([-2.0, 0.0, 2.0]), regions4), [0, 1, 2]
        )

    def test_decide_scalar(self, regions4):
        assert decide(2.5, regions4) == 3

    def test_demap_msb_first(self, pam4):
        np.testing.assert_array_equal(demap(np.array([0, 3]), pam4), [0, 0, 1, 0])
        np.testing.assert_array_equal(
            demap(np.array([0, 1, 2, 3]), pam4), [0, 0, 0, 1, 1, 1, 1, 0]
        )

    @given(st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_demap_matches_bitmap(self, idx):
        c = pam(4)
        bits = demap(np.array([idx]), c)
        assert "".join(str(b) for b in bits) == c.bitmap[idx]

    def test_noiseless_decide_recovers_symbols(self, pam4, regions4):
        idx = np.arange(4)
        np.testing.assert_array_equal(decide(pam4.points, regions4), idx)


def _oracle(y, regions):
    return np.searchsorted(regions.boundaries, y, side="left").astype(np.int64)


def _near_boundaries(regions):
    """Each threshold and its neighbouring doubles, the infinities, and 0."""
    b = regions.boundaries
    return np.concatenate(
        [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), [-np.inf, np.inf, 0.0]]
    )


class TestDecideMatchesSearchsorted:
    # decide counts the thresholds below y; the binary search is its oracle

    def test_at_thresholds_and_their_neighbours(self, regions4):
        y = _near_boundaries(regions4)
        got = decide(y, regions4)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _oracle(y, regions4))

    def test_scalar_and_empty(self, regions4):
        for y in _near_boundaries(regions4):
            got = decide(y, regions4)
            assert type(got) is int
            assert got == int(np.searchsorted(regions4.boundaries, y, side="left"))
        empty = decide(np.empty(0), regions4)
        assert empty.dtype == np.int64 and empty.shape == (0,)

    def test_keeps_the_shape(self, regions4):
        y = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        np.testing.assert_array_equal(decide(y, regions4), _oracle(y, regions4))

    def test_rejects_nan(self, regions4):
        with pytest.raises(ValueError, match="NaN"):
            decide(np.array([0.0, np.nan]), regions4)

    @given(
        order=st.sampled_from([2, 4, 8, 16]),
        log_var=st.floats(np.log(1e-4), np.log(250.0)),
        skew=st.floats(0.0, 1.0),
        y=st.lists(st.floats(-60.0, 60.0), max_size=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_on_pam_channels(self, order, log_var, skew, y):
        # geometric priors (uniform at skew 0) shift the MAP thresholds
        priors = np.exp(-skew * np.arange(order) / order)
        c = pam(order, priors=priors / priors.sum())
        regions = map_decision_regions(c, float(np.exp(log_var)))
        ys = np.concatenate([_near_boundaries(regions), c.points, y])
        np.testing.assert_array_equal(decide(ys, regions), _oracle(ys, regions))


# Every entry point that takes symbol or region indices, called on the PAM-4
# base transform with ``x`` in the index slot (and n shaped like it, as
# lappr_batch asks); each reaches constellation._indices.
_INDEX_TAKERS = {
    "transmit": lambda x, t, rng: transmit(x, t.channel, rng),
    "demap": lambda x, t, rng: demap(x, t.channel.constellation),
    "inverse_and_jacobian": lambda x, t, rng: inverse_and_jacobian(0.5, x, t),
    "log_joint_conditional_density": lambda x, t, rng: log_joint_conditional_density(0.5, 0, x, t),
    "lappr_batch": lambda x, t, rng: lappr_batch(np.full(np.shape(x), 0.5), x, t),
}


@pytest.mark.parametrize("entry", _INDEX_TAKERS)
@pytest.mark.parametrize(
    "x, match",
    [
        (True, "must be integers"),  # numpy reads a bool as a mask, an int cast as 1
        (np.array([True, False]), "must be integers"),
        (1.0, "must be integers"),  # numpy raises IndexError on a float
        (np.array([0.0, 2.9]), "must be integers"),  # an int cast reads 2.9 as 2
        ([], "must be integers"),  # an empty list's dtype is float
        (4, "out of range"),
        (np.array([0, -1]), "out of range"),  # numpy would wrap it to symbol 3
    ],
    ids=["bool", "bool array", "float", "float array", "empty list", "too large", "negative"],
)
def test_index_rule(t_base, entry, x, match):
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match=match):
        _INDEX_TAKERS[entry](x, t_base, rng)
    # transmit fails before it draws any noise
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


class TestDrawSymbols:
    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=64),
        size=st.integers(0, 3_000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(weights=[1.0] * 4, size=32_400, seed=7)  # one PAM-4 frame of the 64800-bit code
    def test_comparison_draw_is_choice(self, weights, size, seed):
        # Generator.choice's symbols and state, in the audit's smallest
        # unsigned type and its uint64 key array, and in the frame's intp
        priors = np.array(weights) / sum(weights)
        want_rng = np.random.default_rng(seed)
        want = want_rng.choice(priors.size, size=size, p=priors)
        for dtype in (np.min_scalar_type(priors.size - 1), np.uint64, np.intp):
            got_rng = np.random.default_rng(seed)
            out = np.empty(size, dtype=dtype)
            assert draw_symbols(got_rng, priors, out) is out
            assert out.tolist() == want.tolist()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

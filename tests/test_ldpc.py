from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_decoder
from softrec import harness
from softrec.constellation import pam
from softrec.ldpc import (
    _PRIORITY_HASH,
    PRESETS,
    LdpcCode,
    build_staircase_code,
    decode,
    dvbs2_r12,
    hamming74,
    load_code,
    parse_alist,
    syndrome,
    to_alist,
)


def degree_histograms(code: LdpcCode) -> tuple[dict, dict]:
    """{degree: count} over the checks and over the variables."""
    return tuple(
        dict(zip(*(v.tolist() for v in np.unique(deg, return_counts=True))))
        for deg in (np.diff(code.chk_ptr), np.bincount(code.chk_var, minlength=code.n))
    )


def dense_h(code: LdpcCode) -> np.ndarray:
    h = np.zeros((code.m, code.n), dtype=np.uint8)
    for c in range(code.m):
        h[c, code.chk_var[code.chk_ptr[c] : code.chk_ptr[c + 1]]] = 1
    return h


def coset_ml(code: LdpcCode, lam: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Exhaustive maximum-likelihood word in the coset, for small n only."""
    h = dense_h(code)
    words = ((np.arange(2**code.n)[:, None] >> np.arange(code.n)) & 1).astype(np.uint8)
    members = words[np.all(words @ h.T % 2 == target, axis=1)]
    # log P(b) = const - sum_v b_v * lam_v under the log P(0)/P(1) convention
    return members[np.argmin(members @ lam)]


class TestHamming74:
    def test_tanner_profile(self):
        # check c is adjacent to the 1-indexed columns whose binary
        # representation has bit c set; the classic single-error-correcting
        # layout
        code = hamming74()
        assert (code.n, code.m, code.edge_count) == (7, 3, 12)
        assert degree_histograms(code) == ({4: 3}, {1: 3, 2: 3, 3: 1})

    def test_adjacency_is_binary_index(self):
        h = dense_h(hamming74())
        for c in range(3):
            for v in range(7):
                assert h[c, v] == ((v + 1) >> c) & 1

    def test_code_dimension(self):
        # rank 3 over GF(2), so 16 codewords
        h = dense_h(hamming74())
        words = ((np.arange(128)[:, None] >> np.arange(7)) & 1).astype(np.uint8)
        zero = np.all(words @ h.T % 2 == 0, axis=1)
        assert zero.sum() == 16


class TestLdpcCodeValidation:
    def test_rejects_isolated_variable(self):
        with pytest.raises(ValueError):
            LdpcCode(n=3, m=1, chk_ptr=np.array([0, 2]), chk_var=np.array([0, 1]))

    def test_rejects_empty_check(self):
        with pytest.raises(ValueError):
            LdpcCode(n=2, m=2, chk_ptr=np.array([0, 2, 2]), chk_var=np.array([0, 1]))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            LdpcCode(n=2, m=1, chk_ptr=np.array([0, 2]), chk_var=np.array([0, 5]))

    @pytest.mark.parametrize("chk_var", [[1, 0, 0], [0, 1, 1], [1, 0]])
    def test_rejects_check_not_strictly_increasing(self, chk_var):
        # a repeated variable is a double edge: it would cancel in the
        # syndrome ([1, 0] has syndrome 0 under [1, 0, 0])
        with pytest.raises(ValueError, match="strictly increase"):
            LdpcCode(n=2, m=1, chk_ptr=[0, len(chk_var)], chk_var=chk_var)


class TestSyndrome:
    def test_exhaustive_against_dense_multiply(self):
        code = hamming74()
        h = dense_h(code)
        words = ((np.arange(128)[:, None] >> np.arange(7)) & 1).astype(np.uint8)
        for w in words:
            np.testing.assert_array_equal(syndrome(code, w), w @ h.T % 2)

    @given(st.integers(min_value=0, max_value=127), st.integers(min_value=0, max_value=127))
    @settings(max_examples=50, deadline=None)
    def test_gf2_linearity(self, a, b):
        code = hamming74()
        wa = (a >> np.arange(7)) & 1
        wb = (b >> np.arange(7)) & 1
        lhs = syndrome(code, wa ^ wb)
        rhs = syndrome(code, wa) ^ syndrome(code, wb)
        np.testing.assert_array_equal(lhs, rhs)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            syndrome(hamming74(), np.zeros(6, dtype=np.uint8))

    @pytest.mark.parametrize(
        "first",
        [2, -1, 0.9],  # a uint8 cast would give syndrome [2 0 0], a 255, a 0
        ids=["two", "negative", "float"],
    )
    def test_rejects_non_bits(self, first):
        with pytest.raises(ValueError, match="bits must be integers or bools in"):
            syndrome(hamming74(), [first, 0, 0, 0, 0, 0, 0])

    def test_bool_bits_are_bits(self):
        code = hamming74()
        w = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
        got = syndrome(code, w.astype(bool))
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, syndrome(code, w))


class TestAlist:
    def test_roundtrip_hamming(self):
        code = hamming74()
        back = parse_alist(to_alist(code))
        assert back.n == code.n and back.m == code.m
        np.testing.assert_array_equal(back.chk_ptr, code.chk_ptr)
        np.testing.assert_array_equal(back.chk_var, code.chk_var)

    def test_roundtrip_irregular(self):
        code = build_staircase_code([[0, 5], [2, 7]], group=4)
        back = parse_alist(to_alist(code))
        np.testing.assert_array_equal(back.chk_var, code.chk_var)
        np.testing.assert_array_equal(back.chk_ptr, code.chk_ptr)

    def test_zero_padding_tolerated(self):
        # fixed-width rows padded with zeros, as many published files are
        txt = to_alist(hamming74())
        assert " 0" in txt or "\n0" not in txt  # writer pads with zeros
        assert parse_alist(txt).n == 7

    def test_error_cites_line_number(self):
        txt = "4 2\n2 2\n1 1 1 1\n1 1\n1 2\n3 4\n1\n2\n1\n2\n"
        with pytest.raises(ValueError, match=r"line \d+"):
            parse_alist(txt)

    def test_rejects_truncated_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_alist("3 2\n")

    def test_rejects_out_of_range_index(self):
        txt = to_alist(hamming74()).replace("1 3 5 7", "1 3 5 9")
        with pytest.raises(ValueError):
            parse_alist(txt)

    def test_rejects_duplicate_entry(self):
        txt = to_alist(hamming74()).replace("1 3 5 7", "1 1 5 7")
        with pytest.raises(ValueError):
            parse_alist(txt)

    def test_rejects_row_column_mismatch(self):
        # corrupt one column adjacency so it disagrees with the row lists
        txt = to_alist(hamming74()).replace("2 3 6 7", "2 3 6 5")
        with pytest.raises(ValueError):
            parse_alist(txt)


class TestDecode:
    def strong_llrs(self, bits, mag=12.0):
        return mag * (1.0 - 2.0 * bits.astype(float))

    def test_already_satisfied_needs_no_iterations(self):
        code = hamming74()
        bits = np.array([1, 0, 1, 0, 1, 0, 1], dtype=np.uint8)
        out = decode(code, self.strong_llrs(bits), syndrome(code, bits))
        assert out.converged
        assert out.iterations_used == 0
        np.testing.assert_array_equal(out.bits, bits)

    def test_corrects_single_weak_flip(self):
        # one position flipped and marked unreliable: BP must restore it
        code = hamming74()
        rng = np.random.default_rng(42)
        ok = 0
        for _ in range(100):
            bits = rng.integers(0, 2, size=7).astype(np.uint8)
            tgt = syndrome(code, bits)
            lam = self.strong_llrs(bits, mag=8.0)
            pos = rng.integers(0, 7)
            lam[pos] = -0.8 * lam[pos] / 8.0  # flipped sign, low confidence
            out = decode(code, lam, tgt)
            if out.converged and np.array_equal(out.bits, bits):
                ok += 1
        assert ok == 100

    def test_matches_exhaustive_ml_on_noisy_channel_llrs(self):
        # LLRs drawn from an actual BPSK observation of a coset member;
        # loopy BP and brute-force ML then agree nearly always
        code = hamming74()
        rng = np.random.default_rng(2024)
        s2 = 0.35
        agree = 0
        trials = 200
        for _ in range(trials):
            bits = rng.integers(0, 2, size=7).astype(np.uint8)
            tgt = syndrome(code, bits)
            y = (1.0 - 2.0 * bits) + rng.normal(0.0, np.sqrt(s2), size=7)
            lam = 2.0 * y / s2
            out = decode(code, lam, tgt)
            ml = coset_ml(code, lam, tgt)
            if out.converged and np.array_equal(out.bits, ml):
                agree += 1
        assert agree / trials >= 0.97

    def test_coset_translation_symmetry(self):
        # decoding toward syndrome s + H t with inputs flipped at t equals
        # decoding toward s then flipping at t: bits and iteration counts
        code = hamming74()
        rng = np.random.default_rng(7)
        for _ in range(50):
            lam = rng.normal(0.0, 4.0, size=7)
            tgt = rng.integers(0, 2, size=3).astype(np.uint8)
            t = rng.integers(0, 2, size=7).astype(np.uint8)
            base = decode(code, lam, tgt)
            shifted = decode(code, lam * (1.0 - 2.0 * t), tgt ^ syndrome(code, t))
            np.testing.assert_array_equal(shifted.bits, base.bits ^ t)
            assert shifted.converged == base.converged
            assert shifted.iterations_used == base.iterations_used

    def test_deterministic(self):
        code = hamming74()
        rng = np.random.default_rng(11)
        lam = rng.normal(0.0, 2.0, size=7)
        tgt = np.array([1, 0, 1], dtype=np.uint8)
        a = decode(code, lam, tgt)
        b = decode(code, lam, tgt)
        np.testing.assert_array_equal(a.bits, b.bits)
        assert a.iterations_used == b.iterations_used

    def test_nonconvergence_reported_honestly(self):
        # all-zero LLRs carry no information; the decoder must say so
        code = hamming74()
        out = decode(code, np.zeros(7), np.array([1, 1, 1], dtype=np.uint8), max_iters=5)
        assert not out.converged
        assert out.iterations_used == 5

    def test_reports_converged_syndrome_match(self):
        code = hamming74()
        rng = np.random.default_rng(3)
        lam = rng.normal(0.0, 3.0, size=7)
        tgt = np.array([0, 1, 0], dtype=np.uint8)
        out = decode(code, lam, tgt)
        if out.converged:
            np.testing.assert_array_equal(syndrome(code, out.bits), tgt)

    def test_rejects_bad_inputs(self):
        code = hamming74()
        with pytest.raises(ValueError):
            decode(code, np.zeros(6), np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            decode(code, np.full(7, np.nan), np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            decode(code, np.zeros(7), np.zeros(2, dtype=np.uint8))
        with pytest.raises(ValueError):
            decode(code, np.zeros(7), np.zeros(3, dtype=np.uint8), max_iters=0)

    @pytest.mark.parametrize(
        "target",
        [[1.9, 0, 0], [2, 0, 0]],  # a uint8 cast would aim at [1 0 0] and [2 0 0]
        ids=["float", "two"],
    )
    def test_rejects_non_bit_target(self, target):
        code = hamming74()
        lam = self.strong_llrs(np.array([1, 0, 0, 0, 0, 0, 0]))
        with pytest.raises(ValueError, match="syndrome bits must be integers or bools in"):
            decode(code, lam, target)

    @pytest.mark.parametrize("max_iters", [True, 2.5], ids=["bool", "float"])
    def test_rejects_non_integer_max_iters(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            decode(hamming74(), np.zeros(7), np.zeros(3, dtype=np.uint8), max_iters=max_iters)


@st.composite
def random_codes(draw):
    """Small random codes: every variable in 1-3 checks, no empty check."""
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=1, max_value=20))
    cols = [
        draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=min(3, m)))
        for _ in range(n)
    ]
    rows = [sorted(v for v in range(n) if c in cols[v]) for c in range(m)]
    for row in rows:
        if not row:  # give an empty check a variable
            row.append(draw(st.integers(0, n - 1)))
    return LdpcCode(
        n=n, m=m, chk_ptr=np.cumsum([0] + [len(r) for r in rows]),
        chk_var=np.array([v for r in rows for v in r], dtype=np.int64),
    )


def check_layers(code: LdpcCode) -> None:
    """The layers partition the checks, and no layer repeats a variable."""
    assert code.layer_ptr[0] == 0 and code.layer_ptr[-1] == code.m
    assert np.all(np.diff(code.layer_ptr) >= 1)
    assert sorted(code.layer_chk.tolist()) == list(range(code.m))
    deg = np.diff(code.chk_ptr)[code.layer_chk]
    edge_ptr = np.concatenate(([0], np.cumsum(deg)))
    expect = np.concatenate(
        [code.chk_var[code.chk_ptr[c] : code.chk_ptr[c + 1]] for c in code.layer_chk]
    )
    np.testing.assert_array_equal(code.layer_var, expect)
    for c0, c1 in zip(code.layer_ptr[:-1], code.layer_ptr[1:]):
        var = code.layer_var[edge_ptr[c0] : edge_ptr[c1]]
        assert np.unique(var).size == var.size


def check_greedy(code: LdpcCode) -> None:
    """Each check's layer is the least one that no check of higher priority
    sharing one of its variables holds. A check's priority is its index
    times the odd multiplier, mod 2^64; the higher one comes first."""
    colour = np.empty(code.m, dtype=np.int64)
    colour[code.layer_chk] = np.repeat(np.arange(code.layer_ptr.size - 1), np.diff(code.layer_ptr))
    colour = colour.tolist()
    prio = [c * int(_PRIORITY_HASH) % 2**64 for c in range(code.m)]
    rows = [code.chk_var[a:b].tolist() for a, b in zip(code.chk_ptr[:-1], code.chk_ptr[1:])]
    checks_of = [[] for _ in range(code.n)]
    for c, row in enumerate(rows):
        for v in row:
            checks_of[v].append(c)
    for c, row in enumerate(rows):
        held = {colour[d] for v in row for d in checks_of[v] if prio[d] > prio[c]}
        assert colour[c] == min(set(range(len(held) + 1)) - held), c


class TestLayers:
    # sha256 of the preset's int64 layer arrays
    PRESET_SHA256 = {
        "layer_chk": "7b7eeae944726c2369e9565001231c2c7d0bcfa8990c882624eb8b8732dc5b29",
        "layer_ptr": "267a44786929362899742bea87ac044bbe1d0301e90eedabe1851388a1774a54",
    }

    def test_hamming74(self):
        # every check holds variable 7, so each layer is one check
        code = hamming74()
        check_layers(code)
        check_greedy(code)
        assert np.diff(code.layer_ptr).tolist() == [1, 1, 1]

    def test_preset(self):
        code = load_code("dvbs2-r12-64800")
        check_layers(code)
        check_greedy(code)
        assert code.layer_ptr.size - 1 == 17

    def test_preset_digest(self):
        code = load_code("dvbs2-r12-64800")
        digests = {
            name: hashlib.sha256(getattr(code, name).astype("<i8").tobytes()).hexdigest()
            for name in self.PRESET_SHA256
        }
        assert digests == self.PRESET_SHA256

    @given(random_codes())
    @settings(max_examples=60, deadline=None)
    def test_random_codes(self, code):
        check_layers(code)
        check_greedy(code)
        rebuilt = LdpcCode(n=code.n, m=code.m, chk_ptr=code.chk_ptr, chk_var=code.chk_var)
        np.testing.assert_array_equal(rebuilt.layer_chk, code.layer_chk)
        np.testing.assert_array_equal(rebuilt.layer_ptr, code.layer_ptr)

    def test_identical_across_rebuilds(self):
        a, b = dvbs2_r12(), dvbs2_r12()
        for name in ("layer_chk", "layer_ptr", "layer_var"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_more_than_64_colours(self):
        # one variable in 70 checks: every check shares it, so 70 layers,
        # more than one 64-bit word of colours
        m = 70
        code = LdpcCode(
            n=m + 1, m=m, chk_ptr=np.arange(0, 2 * m + 1, 2),
            chk_var=np.column_stack((np.zeros(m, dtype=np.int64), np.arange(1, m + 1))).ravel(),
        )
        check_layers(code)
        check_greedy(code)
        assert code.layer_ptr.size - 1 == m


class TestFloodingOracle:
    """The layered decoder against the flooding one it replaced."""

    @pytest.fixture(scope="class")
    def frames(self):
        # the benchmark's pinned rrs frames (PAM-4, alternating, 3.5 dB),
        # each decoded once by either decoder inside the harness
        runs = {}
        real = harness.decode
        try:
            for name, dec in (("layered", decode), ("flooding", reference_decoder.decode)):
                for seed in (101, 102):
                    outcomes = []

                    def capture(code, lapprs, target, max_iters=100, dec=dec, outcomes=outcomes):
                        out = dec(code, lapprs, target, max_iters=max_iters)
                        outcomes.append((out, np.array(target)))
                        return out

                    harness.decode = capture
                    (point,) = harness.ber_sweep(harness.ExperimentSpec(
                        constellation=pam(4), snr_grid_db=(3.5,), schemes=("rrs",),
                        configs=("alternating",), code="dvbs2-r12-64800", frames_per_point=1,
                        master_seed=seed,
                    ))
                    runs[name, seed] = (point, *outcomes)
        finally:
            harness.decode = real
        return runs

    @pytest.mark.parametrize("seed", [101, 102])
    def test_pinned_frames(self, frames, seed):
        code = load_code("dvbs2-r12-64800")
        sweeps = {}
        for name in ("layered", "flooding"):
            point, (out, target) = frames[name, seed]
            assert out.converged
            np.testing.assert_array_equal(syndrome(code, out.bits), target)
            assert (point.frames, point.bit_errors, point.frame_errors) == (1, 0, 0)
            sweeps[name] = out.iterations_used
        assert sweeps["layered"] <= sweeps["flooding"]


def _same_outcome(a, b) -> bool:
    return (
        np.array_equal(a.bits, b.bits)
        and a.converged == b.converged
        and a.iterations_used == b.iterations_used
    )


class TestLayeredOracle:
    """The half-scale decoder against the L-scale one it replaced, bit for bit."""

    @pytest.fixture(scope="class")
    def frames(self):
        # (lapprs, target) of rrs frames on the 64800-bit code: the
        # benchmark's two pinned frames, which converge at 3.5 dB, and two
        # that fail at 2.7 dB and run all 100 sweeps
        inputs = []
        real = harness.decode

        def capture(code, lapprs, target, max_iters=100):
            inputs.append((np.array(lapprs), np.array(target)))
            return real(code, lapprs, target, max_iters=max_iters)

        try:
            harness.decode = capture
            for snr, seed in ((3.5, 101), (3.5, 102), (2.7, 201), (2.7, 202)):
                harness.ber_sweep(harness.ExperimentSpec(
                    constellation=pam(4), snr_grid_db=(snr,), schemes=("rrs",),
                    configs=("alternating",), code="dvbs2-r12-64800", frames_per_point=1,
                    master_seed=seed,
                ))
        finally:
            harness.decode = real
        return inputs

    def test_frames(self, frames):
        code = load_code("dvbs2-r12-64800")
        outcomes = []
        for lapprs, target in frames:
            out = decode(code, lapprs, target)
            assert _same_outcome(out, reference_decoder.layered_decode(code, lapprs, target))
            outcomes.append((out.converged, out.iterations_used))
        assert [c for c, _ in outcomes] == [True, True, False, False]
        assert [k for c, k in outcomes if not c] == [100, 100]

    @given(random_codes(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_codes(self, code, data):
        # inputs from a grid that holds exact zeros, signed zeros, ties and
        # clamp-sized values, so checks see zero and saturated magnitudes
        values = st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0, -1.5, 3.0, -7.0, 50.0, -50.0])
        lam = np.array(data.draw(st.lists(values | st.floats(-60, 60), min_size=code.n,
                                          max_size=code.n)))
        target = np.array(data.draw(st.lists(st.integers(0, 1), min_size=code.m,
                                             max_size=code.m)), dtype=np.uint8)
        iters = data.draw(st.integers(1, 30))
        out = decode(code, lam, target, max_iters=iters)
        assert _same_outcome(out, reference_decoder.layered_decode(code, lam, target, iters))

    @pytest.mark.parametrize("halving_exact", [True, False])
    def test_zero_and_subnormal_inputs(self, halving_exact):
        # Mostly zero inputs: a check with two zero neighbours sends 0, so
        # a variable can keep its input as its posterior for good. Below
        # 2^-1021 an odd multiple of 2^-1074 does not halve exactly: -2^-1074
        # halves to -0.0, whose hard decision is 0 where the input's is 1.
        # The decoder must then keep the L scale.
        code = load_code("dvbs2-r12-64800")
        rng = np.random.default_rng(8)
        tiny = np.ldexp(1.0, -1074)
        odd = [-tiny, tiny, -3 * tiny, 5 * tiny]
        even = [-2 * tiny, 4 * tiny, np.ldexp(-1.0, -1022), np.ldexp(1.0, -1021)]
        lam = np.zeros(code.n)
        slots = rng.choice(code.n, 300, replace=False)
        lam[slots[:200]] = rng.choice(even + [2.5, -1.25], 200)
        if not halving_exact:
            lam[slots[200:]] = rng.choice(odd, 100)
        assert np.array_equal((lam * 0.5) * 2.0, lam) == halving_exact
        bits = (lam < 0).astype(np.uint8)
        for target in (syndrome(code, bits), syndrome(code, bits) ^ (rng.random(code.m) < 0.01)):
            out = decode(code, lam, target, max_iters=6)
            assert _same_outcome(out, reference_decoder.layered_decode(code, lam, target, 6))


class TestStaircase:
    def test_small_structure_by_hand(self):
        # group = 4, addresses [[0, 5], [2, 7]]: q = ceil(8/4) = 2, m = 8;
        # info var g*4+s joins check (a + s*q) mod 8; parity var c joins
        # checks c and c+1 (the accumulator chain), last one only check m-1
        code = build_staircase_code([[0, 5], [2, 7]], group=4)
        assert code.n == 2 * 4 + 8
        assert code.m == 8
        h = dense_h(code)
        for g, addrs in enumerate([[0, 5], [2, 7]]):
            for s in range(4):
                v = g * 4 + s
                expect = np.zeros(8, dtype=np.uint8)
                for a in addrs:
                    expect[(a + s * 2) % 8] ^= 1
                np.testing.assert_array_equal(h[:, v], expect)
        for c in range(8):
            p = 8 + c
            assert h[c, p] == 1
            assert h[:, p].sum() == (1 if c == 7 else 2)
            if c < 7:
                assert h[c + 1, p] == 1

    def test_rejects_empty_groups(self):
        with pytest.raises(ValueError):
            build_staircase_code([], group=4)

    def test_rejects_repeated_address(self):
        # one address twice in a group row would give every bit of the
        # group a double edge to the same check
        with pytest.raises(ValueError, match="strictly increase"):
            build_staircase_code([[0, 0]], group=4)


class TestWorkingSet:
    """Peaks of the memory traced during one call on one 3.5 dB frame."""

    def test_decode_keeps_layer_scratch(self, frame_35db, traced_peak):
        # per-edge v2c and sign buffers took a 7.34 MB peak; one scratch
        # buffer each, as wide as the widest layer, 4.07 MB
        code, _, _, _, lapprs, syn = frame_35db
        out = []
        assert traced_peak(lambda: out.append(decode(code, lapprs, syn))) < 5.5e6
        assert out[0].converged

    def test_code_build_sorts_one_key(self, traced_peak):
        # the chunk lists, a lexsort order and the sorted copies held
        # together took a 14.27 MB peak; one sorted int64 key, 7.49 MB
        assert traced_peak(dvbs2_r12) < 10e6


def _lexsort_build(group_addresses, group):
    """(chk_ptr, chk_var) of ``build_staircase_code`` by a lexsort of the
    (check, variable) pairs of every edge."""
    q = max(a for row in group_addresses for a in row) // group + 1
    m = q * group
    k = group * len(group_addresses)
    chk, var = [], []
    for g, row in enumerate(group_addresses):
        for s in range(group):
            chk += [(a + s * q) % m for a in row]
            var += [g * group + s] * len(row)
    chk += list(range(m)) + list(range(1, m))
    var += [k + c for c in range(m)] + [k + c for c in range(m - 1)]
    chk, var = np.array(chk), np.array(var)
    order = np.lexsort((var, chk))
    return np.concatenate(([0], np.cumsum(np.bincount(chk, minlength=m)))), var[order]


class TestStaircaseKey:
    @given(
        group=st.integers(1, 12),
        table=st.lists(st.sets(st.integers(0, 200), min_size=1, max_size=6), min_size=1,
                       max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_lexsort(self, group, table):
        # rows of distinct addresses in any order; the code's rules on
        # 4-cycles and degrees do not matter to the sort
        table = [sorted(row, key=lambda a: (a * 7919) % 211) for row in table]
        code = build_staircase_code(table, group=group)
        chk_ptr, chk_var = _lexsort_build(table, group)
        np.testing.assert_array_equal(code.chk_ptr, chk_ptr)
        np.testing.assert_array_equal(code.chk_var, chk_var)


class TestDvbs2Profile:
    def test_tanner_profile(self):
        code = dvbs2_r12()
        assert (code.n, code.m, code.edge_count) == (64800, 32400, 226799)
        assert degree_histograms(code) == (
            {7: 32399, 6: 1},
            {8: 12960, 3: 19440, 2: 32399, 1: 1},
        )

    def test_generator_is_deterministic(self):
        # two independent builds, not one cached object, both equal to the
        # code the seeded sampler built before its table was frozen
        a, b = dvbs2_r12(), dvbs2_r12()
        assert a is not b
        np.testing.assert_array_equal(a.chk_ptr, b.chk_ptr)
        np.testing.assert_array_equal(a.chk_var, b.chk_var)
        assert hashlib.sha256(a.chk_ptr.tobytes()).hexdigest() == (
            "953f936d8500711d307c39da7dde995ff57e0640519d2e36ef53469538c4ebf9"
        )
        assert hashlib.sha256(a.chk_var.tobytes()).hexdigest() == (
            "3e4132f7d15013dceeaa34615ccb88ffe61c6494ede7ba450693bceea435569d"
        )

    def test_first_group_addresses_frozen(self):
        # regression pin on the seeded construction: information column 0
        # connects to exactly these checks
        code = dvbs2_r12()
        h0 = sorted(
            int(c)
            for c in range(code.m)
            if 0 in code.chk_var[code.chk_ptr[c] : code.chk_ptr[c + 1]]
        )
        assert h0 == [5234, 9358, 12780, 13833, 20183, 22208, 24142, 25596]

    def test_four_cycle_free(self):
        # any two checks share at most one variable; computed with an
        # independent sparse matrix product, not the builder's own books
        code = dvbs2_r12()
        rows = np.repeat(np.arange(code.m), np.diff(code.chk_ptr))
        h = sp.csr_matrix(
            (np.ones(code.chk_var.size, dtype=np.int32), (rows, code.chk_var)),
            shape=(code.m, code.n),
        )
        gram = (h @ h.T).tocoo()
        off = gram.data[gram.row != gram.col]
        assert off.size == 0 or off.max() == 1


class TestLoadCode:
    def test_preset_names(self):
        assert set(PRESETS) == {"hamming74", "dvbs2-r12-64800"}
        assert load_code("hamming74").n == 7

    def test_inline_text(self):
        code = load_code(to_alist(hamming74()))
        assert (code.n, code.m) == (7, 3)

    def test_file_path(self, tmp_path):
        p = tmp_path / "tiny.alist"
        p.write_text(to_alist(hamming74()))
        assert load_code(p).n == 7
        assert load_code(str(p)).n == 7

    def test_each_source_built_once(self):
        assert load_code("hamming74") is load_code("hamming74")

    def test_unknown_source_rejected(self, tmp_path):
        # a directory, named by str or Path, is not an alist file
        for source in ("no-such-preset", tmp_path, str(tmp_path)):
            with pytest.raises(ValueError, match="unknown code source"):
                load_code(source)

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from softrec.ldpc import (
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
        dict(zip(*(v.tolist() for v in np.unique(np.diff(ptr), return_counts=True))))
        for ptr in (code.chk_ptr, code.var_ptr)
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


class TestDvbs2Profile:
    def test_tanner_profile(self):
        code = dvbs2_r12()
        assert (code.n, code.m, code.edge_count) == (64800, 32400, 226799)
        assert degree_histograms(code) == (
            {7: 32399, 6: 1},
            {8: 12960, 3: 19440, 2: 32399, 1: 1},
        )

    def test_generator_is_deterministic(self):
        # two independent builds, not one cached object
        a, b = dvbs2_r12(), dvbs2_r12()
        assert a is not b
        np.testing.assert_array_equal(a.chk_ptr, b.chk_ptr)
        np.testing.assert_array_equal(a.chk_var, b.chk_var)

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

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            load_code("no-such-preset")

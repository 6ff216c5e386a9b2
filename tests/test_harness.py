from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from softrec.channel import ChannelModel
from softrec import harness
from softrec.constellation import Constellation, pam
from softrec.harness import (
    MI_TARGETS,
    SCHEMES,
    _RUN_LOG_FIELDS,
    BerPoint,
    ExperimentSpec,
    ProtocolResult,
    Transcript,
    append_run_log,
    ber_sweep,
    direct_bit_llrs,
    hard_rr_lapprs,
    mi_sweep,
    noise_variance_for_snr_db,
    run_protocol,
    snr_at_mi,
    write_ber_csv,
    write_mi_csv,
)
from softrec.infotheory import MiResult
from softrec.ldpc import hamming74, syndrome

# log((1-p)/p) for the BPSK-induced BSC at sigma^2 = 0.5, p = Q(sqrt 2)
BSC_LLR = 2.4608378276113183


def tiny_spec(**kw):
    base = dict(
        constellation=pam(4),
        snr_grid_db=(8.0,),
        schemes=("rrs",),
        configs=("alternating",),
        code="hamming74",
        frames_per_point=2,
        master_seed=5,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestNoiseVariance:
    def test_frozen_values(self):
        c4, c2 = pam(4), pam(2)
        assert noise_variance_for_snr_db(0.0, c4) == pytest.approx(2.5)
        assert noise_variance_for_snr_db(10.0, c4) == pytest.approx(0.25)
        assert noise_variance_for_snr_db(0.0, c2) == pytest.approx(0.5)
        assert noise_variance_for_snr_db(3.0, c2) == pytest.approx(0.2505936168136362)

    def test_monotone_decreasing(self):
        c = pam(4)
        s = [noise_variance_for_snr_db(db, c) for db in (-10, 0, 10, 20)]
        assert all(a > b for a, b in zip(s, s[1:]))


class TestExperimentSpec:
    def test_defaults(self):
        spec = tiny_spec()
        assert spec.alpha == 1.0
        assert spec.workers == 1
        assert spec.max_iters == 100

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            tiny_spec(schemes=("direct", "soft"))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            tiny_spec(snr_grid_db=())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_snr(self, bad):
        with pytest.raises(ValueError, match="snr_grid_db must be finite"):
            tiny_spec(snr_grid_db=(0.0, bad))

    def test_rejects_bad_alpha(self):
        for bad in (0.0, -1.0, float("inf"), float("nan"), -float("inf"), True, np.True_):
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                tiny_spec(alpha=bad)

    @pytest.mark.parametrize("alpha", [1, np.float64(0.65)], ids=["int", "numpy float"])
    def test_alpha_is_stored_as_a_float(self, alpha, tmp_path):
        # ber.csv writes the alpha column as the CLI's float alpha reads
        spec = tiny_spec(alpha=alpha, frames_per_point=1)
        assert type(spec.alpha) is float and spec.alpha == alpha
        path = tmp_path / "ber.csv"
        write_ber_csv(ber_sweep(spec), path)
        assert path.read_text().splitlines()[1].split(",")[3] == repr(float(alpha))

    def test_rejects_bad_counts(self):
        # a float or bool count fails here, not inside a frame
        for field, bad in [
            ("frames_per_point", 0),
            ("workers", 0),
            ("max_iters", 2.5),
            ("frames_per_point", 2.5),
            ("workers", 1.5),
            ("frames_per_point", True),
            ("stop_bit_errors", -1),
        ]:
            with pytest.raises(ValueError, match=f"{field} must be a"):
                tiny_spec(**{field: bad})

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            tiny_spec(master_seed=seed)

    def test_accepts_numpy_seed(self):
        assert tiny_spec(master_seed=np.uint32(7)).master_seed == 7

    def test_config_strings_normalized(self):
        spec = tiny_spec(configs=("+-+-",))
        assert spec.configs[0].signs == (1, -1, 1, -1)

    def test_rejects_unknown_code_at_build(self):
        with pytest.raises(ValueError, match="unknown code source"):
            tiny_spec(code="no-such-preset")

    def test_rejects_code_directory_at_build(self, tmp_path):
        # a directory is not an alist file: a usage error, not IsADirectoryError
        with pytest.raises(ValueError, match="unknown code source"):
            tiny_spec(code=str(tmp_path))

    def test_scheme_catalog(self):
        assert SCHEMES == ("direct", "hard", "rrs")
        assert MI_TARGETS == (1.75, 1.0, 0.75, 0.3, 0.1, 0.01)


class TestDirectBitLlrs:
    def test_bpsk_closed_form(self):
        # LLR for the bit of a +-1 alphabet: log p(y|b=0)/p(y|b=1) = -2y/s2
        ch = ChannelModel(pam(2), 0.5)
        y = np.array([0.3, -0.3, 1.7])
        out = direct_bit_llrs(y, ch)
        np.testing.assert_allclose(out[:, 0], -2.0 * y / 0.5, rtol=1e-9)

    def test_pam4_shape_and_sign(self):
        ch = ChannelModel(pam(4), 0.25)
        out = direct_bit_llrs(np.array([-3.0, 3.0]), ch)
        assert out.shape == (2, 2)
        # leftmost symbol is labeled 00: both bit LLRs favor zero
        assert np.all(out[0] > 0)

    def test_finite_even_far_out(self):
        ch = ChannelModel(pam(4), 0.1)
        out = direct_bit_llrs(np.array([-80.0, 80.0]), ch)
        assert np.all(np.isfinite(out))


class TestHardBaseline:
    def test_bpsk_bsc_closed_form(self):
        c = pam(2)
        ch = ChannelModel(c, 0.5)
        table = hard_rr_lapprs(ch)
        assert table[0, 0] == pytest.approx(BSC_LLR, rel=1e-12)
        assert table[1, 0] == pytest.approx(-BSC_LLR, rel=1e-12)

    def test_symmetric_alphabet_antisymmetric_table(self):
        c = pam(4)
        ch = ChannelModel(c, 2.5)
        lo, hi = hard_rr_lapprs(ch)[[0, 3]]
        # mirrored symbols carry mirrored first-bit evidence
        assert lo[0] == pytest.approx(-hi[0], rel=1e-9)


class TestRunProtocol:
    def test_high_snr_reconciles_exactly(self):
        spec = tiny_spec(snr_grid_db=(14.0,), master_seed=3)
        res = run_protocol(spec)
        assert res.outcome.converged
        np.testing.assert_array_equal(res.alice_bits, res.bob_bits)

    def test_transcript_is_minimal(self):
        # the disclosed transcript carries the metric and the syndrome,
        # nothing else (no decisions, no raw outputs)
        assert [f.name for f in dataclasses.fields(Transcript)] == [
            "n_values",
            "syndrome",
        ]
        assert [f.name for f in dataclasses.fields(ProtocolResult)] == [
            "alice_bits",
            "bob_bits",
            "transcript",
            "outcome",
        ]

    def test_transcript_contents(self):
        spec = tiny_spec(snr_grid_db=(6.0,), master_seed=11)
        res = run_protocol(spec)
        code = hamming74()
        assert res.transcript.n_values.size >= code.n // 2
        assert np.all((res.transcript.n_values >= 0) & (res.transcript.n_values <= 1))
        np.testing.assert_array_equal(
            res.transcript.syndrome, syndrome(code, res.bob_bits)
        )

    def test_deterministic_given_seed(self):
        r1 = run_protocol(tiny_spec(master_seed=9))
        r2 = run_protocol(tiny_spec(master_seed=9))
        np.testing.assert_array_equal(r1.bob_bits, r2.bob_bits)
        np.testing.assert_array_equal(r1.transcript.n_values, r2.transcript.n_values)

    def test_runs_first_point_and_config(self):
        # a longer grid and config list do not change the frame
        one = run_protocol(tiny_spec(snr_grid_db=(14.0,), master_seed=3))
        many = run_protocol(
            tiny_spec(snr_grid_db=(14.0, 0.0), configs=("alternating", "base"), master_seed=3)
        )
        assert one.outcome.converged
        np.testing.assert_array_equal(one.transcript.n_values, many.transcript.n_values)
        np.testing.assert_array_equal(one.alice_bits, many.alice_bits)


class TestMissingBitmap:
    """Frames map symbols to bits, so they need a bitmap; MI curves do not."""

    def no_bitmap_spec(self):
        c = pam(4)
        return tiny_spec(constellation=Constellation(c.points, c.priors, bitmap=()))

    def test_frames_rejected_before_running(self):
        spec = self.no_bitmap_spec()
        with pytest.raises(ValueError, match="bitmap"):
            ber_sweep(spec)
        with pytest.raises(ValueError, match="bitmap"):
            run_protocol(spec)

    def test_mi_sweep_still_runs(self):
        res = mi_sweep(self.no_bitmap_spec())
        assert [(r.scheme, r.config) for r in res] == [("rrs", "alternating")]
        assert 0.0 < res[0].value_bits < 2.0


class TestMiSweepAndInversion:
    def test_rows_ordered_scheme_config_grid(self, tmp_path):
        spec = tiny_spec(
            schemes=("direct", "hard", "rrs"),
            configs=("base", "alternating"),
            snr_grid_db=(0.0, 5.0),
        )
        res = mi_sweep(spec, out_dir=tmp_path)
        keys = [(r.scheme, r.config, r.snr_db) for r in res]
        assert keys == [
            ("direct", "", 0.0),
            ("direct", "", 5.0),
            ("hard", "", 0.0),
            ("hard", "", 5.0),
            ("rrs", "base", 0.0),
            ("rrs", "base", 5.0),
            ("rrs", "alternating", 0.0),
            ("rrs", "alternating", 5.0),
        ]
        assert (tmp_path / "mi.csv").exists()
        assert (tmp_path / "snr_at_mi.csv").exists()
        header = (tmp_path / "mi.csv").read_text().splitlines()[0]
        assert header == "snr_db,scheme,config,mi_bits,err_est"

    def test_inversion_on_synthetic_monotone_data(self):
        # mi(snr) = snr/10 exactly, so snr_at_mi must invert to 10*target
        rows = [
            MiResult(snr_db=s, scheme="direct", config="", value_bits=s / 10.0, error_estimate=0.0)
            for s in np.arange(1.0, 11.0)
        ]
        out = snr_at_mi(rows, mi_targets=(0.35, 0.8))
        assert all(r["status"] == "ok" for r in out)
        assert out[0]["snr_db"] == pytest.approx(3.5, abs=1e-9)
        assert out[1]["snr_db"] == pytest.approx(8.0, abs=1e-9)

    def test_inversion_flags_out_of_range(self):
        rows = [
            MiResult(snr_db=s, scheme="direct", config="", value_bits=s / 10.0, error_estimate=0.0)
            for s in (1.0, 2.0, 3.0)
        ]
        out = snr_at_mi(rows, mi_targets=(1.9,))
        assert out[0]["status"] == "out-of-range"
        assert out[0]["snr_db"] is None

    def test_inversion_drops_points_below_an_earlier_one(self):
        # 1.99997 and 1.99998 each lie below 1.99999, though 1.99998 is above
        # its predecessor; only 10 and 11 dB stay on the curve.
        rows = [
            MiResult(snr_db=s, scheme="direct", config="", value_bits=v, error_estimate=0.0)
            for s, v in zip((10.0, 11.0, 12.0, 13.0), (1.9, 1.99999, 1.99997, 1.99998))
        ]
        out = snr_at_mi(rows, mi_targets=(1.95, 1.99998, 1.999995))
        line = PchipInterpolator([1.9, 1.99999], [10.0, 11.0])
        assert [r["status"] for r in out] == ["ok", "ok", "out-of-range"]
        assert out[0]["snr_db"] == float(line(1.95))
        assert out[1]["snr_db"] == float(line(1.99998))

    def test_inversion_needs_two_points(self):
        rows = [
            MiResult(snr_db=0.0, scheme="direct", config="", value_bits=0.5, error_estimate=0.0)
        ]
        out = snr_at_mi(rows, mi_targets=(0.5,))
        assert out[0]["status"] == "insufficient-grid"

    def test_one_point_grid_removes_stale_inversion_table(self, tmp_path):
        # an older grid's table would disagree with the new one-point mi.csv
        mi_sweep(tiny_spec(schemes=("hard",), snr_grid_db=(0.0, 5.0, 10.0)), out_dir=tmp_path)
        assert (tmp_path / "snr_at_mi.csv").exists()
        res = mi_sweep(tiny_spec(schemes=("hard",), snr_grid_db=(3.0,)), out_dir=tmp_path)
        assert not (tmp_path / "snr_at_mi.csv").exists()
        assert len((tmp_path / "mi.csv").read_text().splitlines()) == 1 + len(res) == 2

    @pytest.mark.parametrize("targets", [(float("nan"),), (0.5, float("inf")), (-np.inf,)])
    def test_inversion_rejects_non_finite_targets(self, targets):
        rows = [
            MiResult(snr_db=s, scheme="direct", config="", value_bits=s / 10.0, error_estimate=0.0)
            for s in (1.0, 2.0)
        ]
        with pytest.raises(ValueError, match="mi_targets must be finite"):
            snr_at_mi(rows, mi_targets=targets)

    def test_sweep_rejects_non_finite_targets_before_any_mi(self, tmp_path, monkeypatch):
        def no_mi(*args, **kwargs):
            raise AssertionError("MI computed before the targets were checked")

        monkeypatch.setattr(harness, "mi_hard", no_mi)
        spec = tiny_spec(schemes=("hard",), snr_grid_db=(0.0, 5.0))
        with pytest.raises(ValueError, match="mi_targets must be finite"):
            mi_sweep(spec, out_dir=tmp_path / "o", mi_targets=(0.5, float("nan")))
        assert not (tmp_path / "o").exists()


class TestBerSweep:
    def test_point_structure(self):
        spec = tiny_spec(
            schemes=("direct", "rrs"), snr_grid_db=(2.0, 8.0), frames_per_point=4
        )
        pts = ber_sweep(spec)
        assert [(p.snr_db, p.scheme) for p in pts] == [
            (2.0, "direct"),
            (2.0, "rrs"),
            (8.0, "direct"),
            (8.0, "rrs"),
        ]
        for p in pts:
            assert p.frames == 4
            assert 0.0 <= p.ber_ci_lo <= p.ber <= p.ber_ci_hi <= 1.0
            assert 0.0 <= p.fer <= 1.0
            assert p.undersampled  # 4 frames cannot reach the stop rules

    def test_reproducible_across_runs(self):
        spec = tiny_spec(schemes=("rrs",), snr_grid_db=(4.0,), frames_per_point=6)
        a = ber_sweep(spec)
        b = ber_sweep(spec)
        assert a == b

    def test_worker_count_does_not_change_results(self):
        s1 = tiny_spec(schemes=("rrs",), snr_grid_db=(4.0,), frames_per_point=6, workers=1)
        s2 = tiny_spec(schemes=("rrs",), snr_grid_db=(4.0,), frames_per_point=6, workers=2)
        assert ber_sweep(s1) == ber_sweep(s2)

    def test_wilson_interval_frozen(self):
        # 5 errors in 100 bits: interval from the closed-form score bounds
        spec = tiny_spec(schemes=("rrs",), snr_grid_db=(4.0,), frames_per_point=6)
        pts = ber_sweep(spec)
        p = pts[0]
        n = p.frames * 4  # hamming74 carries 7 bits/frame but n is total decoded bits
        # recompute the interval from the reported counts instead of pinning n
        k = p.bit_errors
        total = round(k / p.ber) if p.ber else None
        z = 1.959963984540054
        if total:
            ph = k / total
            den = 1 + z * z / total
            ctr = ph + z * z / (2 * total)
            hw = z * np.sqrt(ph * (1 - ph) / total + z * z / (4 * total * total))
            assert p.ber_ci_lo == pytest.approx((ctr - hw) / den, rel=1e-9)
            assert p.ber_ci_hi == pytest.approx((ctr + hw) / den, rel=1e-9)


class TestCellTransform:
    def test_one_transform_per_rrs_cell(self, monkeypatch):
        built = []
        real = harness.build_transform
        monkeypatch.setattr(harness, "build_transform", lambda *a: built.append(a) or real(*a))
        spec = tiny_spec(schemes=("direct", "hard", "rrs"), snr_grid_db=(3.0, 5.0),
                         configs=("base", "alternating"), frames_per_point=3)
        ber_sweep(spec)
        # one per rrs cell: two SNRs times two configs, none for the others
        assert len(built) == 4

    def test_pickle_unchanged_by_frames(self):
        # Workers get the cell pickled; the channel's quantile start stays
        # out of it, before and after frames have solved on it.
        spec = tiny_spec(schemes=("rrs",), snr_grid_db=(4.0,))
        cell = harness._Cell(spec, 0, "rrs")
        assert cell.transform.channel is cell.channel
        assert harness._Cell(spec, 0, "hard").transform is None
        before = pickle.dumps(cell)
        for k in range(3):
            harness._frame(cell, np.random.default_rng(k))
        assert "_start" in vars(cell.channel)
        assert pickle.dumps(cell) == before


class TestCrossCommitPin:
    """Exact harness output for fixed seeds, recorded before the frame
    pipeline was folded into one function, and again for the layered
    decoder; any change to the per-frame draw order, soft inputs, seeding
    or decoder shows up here. hamming74 has n=7 at 2 bits/symbol, so the
    last symbol's second bit is cut off every frame."""

    BER_POINTS = [
        (1.0, "direct", "", 1.0, 8, 11, 4, 0.19642857142857142, 0.11338595674323658, 0.31844607626458404, 0.5, True, 1, 3),
        (1.0, "hard", "", 1.0, 8, 15, 7, 0.26785714285714285, 0.16957305418501728, 0.39594555929155156, 0.875, True, 2, 5),
        (1.0, "rrs", "base", 0.8, 8, 14, 6, 0.25, 0.15517054688270684, 0.376926421476675, 0.75, True, 2, 4),
        (1.0, "rrs", "alternating", 0.8, 8, 2, 1, 0.03571428571428571, 0.00984942514823639, 0.12118780180490107, 0.125, True, 0, 1),
        (4.0, "direct", "", 1.0, 8, 5, 2, 0.08928571428571429, 0.03874214844958693, 0.19256001385511162, 0.25, True, 1, 1),
        (4.0, "hard", "", 1.0, 8, 0, 0, 0.0, 0.0, 0.06419393671876342, 0.0, True, 0, 0),
        (4.0, "rrs", "base", 0.8, 8, 0, 0, 0.0, 0.0, 0.06419393671876342, 0.0, True, 0, 0),
        (4.0, "rrs", "alternating", 0.8, 8, 3, 1, 0.05357142857142857, 0.018385781382109126, 0.14607309068821533, 0.125, True, 1, 0),
    ]

    def test_ber_sweep_points(self):
        spec = tiny_spec(
            snr_grid_db=(1.0, 4.0),
            schemes=SCHEMES,
            configs=("base", "alternating"),
            frames_per_point=8,
            alpha=0.8,
            master_seed=2024,
        )
        assert [dataclasses.astuple(p) for p in ber_sweep(spec)] == self.BER_POINTS

    def test_run_protocol_frame(self):
        # an undetected error: the decoder meets the syndrome with wrong bits
        res = run_protocol(tiny_spec(snr_grid_db=(1.0,), master_seed=19))
        assert res.transcript.n_values.tolist() == [
            0.02680506563359011,
            0.48439534082919533,
            0.08304591851832598,
            0.3060938647342002,
        ]
        assert res.transcript.syndrome.tolist() == [1, 1, 0]
        assert res.bob_bits.tolist() == [0, 1, 1, 1, 0, 1, 0]
        assert res.alice_bits.tolist() == [1, 1, 1, 0, 1, 1, 0]
        assert (res.outcome.converged, res.outcome.iterations_used) == (True, 1)


class TestRunLogOutcomes:
    def test_ber_point_splits_frame_errors(self, tmp_path):
        # the spec of TestCrossCommitPin; (undetected, not converged) per
        # cell, in the sweep's cell order
        spec = tiny_spec(
            snr_grid_db=(1.0, 4.0),
            schemes=SCHEMES,
            configs=("base", "alternating"),
            frames_per_point=8,
            alpha=0.8,
            master_seed=2024,
        )
        log = tmp_path / "run_log.jsonl"
        points = ber_sweep(spec, log_path=log)
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        # each record is a projection of its BerPoint, plus the sweep counts
        fields = {f.name for f in dataclasses.fields(BerPoint)}
        for r, p in zip(rows, points, strict=True):
            shared = fields & r.keys()
            assert shared == set(_RUN_LOG_FIELDS)
            assert {k: r[k] for k in shared} == {k: getattr(p, k) for k in shared}
            assert r.keys() - shared == {"event", "mean_iterations", "iterations_histogram"}
            assert r["frame_errors"] == r["undetected_frames"] + r["not_converged_frames"]
        assert [(r["undetected_frames"], r["not_converged_frames"]) for r in rows] == [
            (1, 3), (2, 5), (2, 4), (0, 1),
            (1, 1), (0, 0), (0, 0), (1, 0),
        ]

    def test_iterations_histogram(self, tmp_path):
        # frames counted by decoder sweeps, next to their mean; the run log
        # stays byte-identical for any worker count
        logs = []
        for workers in (1, 2):
            spec = tiny_spec(
                snr_grid_db=(1.0, 4.0),
                schemes=SCHEMES,
                configs=("base", "alternating"),
                frames_per_point=8,
                alpha=0.8,
                master_seed=2024,
                workers=workers,
            )
            log = tmp_path / f"run_log_{workers}.jsonl"
            ber_sweep(spec, log_path=log)
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]
        rows = [json.loads(line) for line in logs[0].decode().splitlines()]
        for r in rows:
            hist = {int(k): v for k, v in r["iterations_histogram"].items()}
            assert list(hist) == sorted(hist)
            assert all(v > 0 for v in hist.values())
            assert sum(hist.values()) == r["frames"]
            assert sum(k * v for k, v in hist.items()) / r["frames"] == r["mean_iterations"]
            # every unconverged frame ran the full sweep limit
            assert hist.get(spec.max_iters, 0) >= r["not_converged_frames"]


class TestCsvWriters:
    def test_mi_csv_bytes_are_stable(self, tmp_path):
        rows = [
            MiResult(snr_db=-2.5, scheme="rrs", config="base", value_bits=0.1234567890123, error_estimate=1e-9)
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_mi_csv(rows, p1)
        write_mi_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert "np.float64" not in text
        assert "0.1234567890123" in text

    def test_ber_csv_roundtrip_floats(self, tmp_path):
        pt = BerPoint(
            snr_db=3.1,
            scheme="rrs",
            config="alternating",
            alpha=0.65,
            frames=10,
            bit_errors=7,
            frame_errors=2,
            ber=7 / 324000,
            ber_ci_lo=1e-5,
            ber_ci_hi=4e-5,
            fer=0.2,
            undersampled=True,
            undetected_frames=1,
            not_converged_frames=1,
        )
        path = tmp_path / "ber.csv"
        write_ber_csv([pt], path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "snr_db,scheme,config,alpha,frames,bit_errors,ber,ber_ci_lo,ber_ci_hi,fer"
        )
        assert repr(7 / 324000) in lines[1]

    def test_run_log_is_json_lines(self, tmp_path):
        path = tmp_path / "run_log.jsonl"
        append_run_log(path, {"event": "config", "seed": 3})
        append_run_log(path, {"event": "done", "points": 2})
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["event"] == "config"
        assert rows[1]["points"] == 2

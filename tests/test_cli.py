from __future__ import annotations

import argparse
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import reference_audit
import softrec.cli as cli
from softrec.channel import ChannelModel, transmit
from softrec.constellation import pam
from softrec.harness import noise_variance_for_snr_db
from softrec.softening import build_transform


_FLAGS = {
    "mi-sweep": {"configs", "constellation", "log-level", "mi-targets", "out", "schemes", "seed", "snr"},
    "ber-sweep": {
        "alpha", "code", "configs", "constellation", "frames", "log-level",
        "max-iters", "out", "schemes", "seed", "snr", "workers",
    },
    "audit": {"configs", "constellation", "log-level", "out", "samples-per-decision", "seed", "snr"},
    "reconcile": {
        "alpha", "code", "config", "constellation", "log-level", "max-iters", "out", "seed", "snr",
    },
    "codegen": {"code", "log-level", "out"},
}

_COMMON = {"constellation": "pam4", "log_level": "info", "seed": 0}
_CONFIG_EVENTS = [
    (
        ["mi-sweep", "--snr", "0", "--schemes", "hard"],
        {**_COMMON, "snr": "0", "schemes": "hard", "configs": "base,alternating",
         "mi_targets": "1.75,1.0,0.75,0.3,0.1,0.01"},
    ),
    (
        ["ber-sweep", "--snr", "6", "--frames", "1"],
        {**_COMMON, "snr": "6", "frames": 1, "schemes": "direct,hard,rrs",
         "configs": "base,alternating", "code": "hamming74", "alpha": 1.0,
         "max_iters": 100, "workers": 1},
    ),
    (
        ["audit", "--snr", "0", "--samples-per-decision", "2000"],
        {**_COMMON, "snr": "0", "configs": "base,alternating", "samples_per_decision": 2000},
    ),
    (
        # reconcile's own snr default is part of the echo
        ["reconcile"],
        {**_COMMON, "snr": 3.0, "config": "base", "code": "hamming74", "alpha": 1.0,
         "max_iters": 100},
    ),
]


def run(argv, capsys=None):
    rc = cli.main(argv)
    return rc


class TestArgumentHandling:
    def test_missing_snr_is_usage_error(self, tmp_path, capsys):
        rc = run(["mi-sweep", "--out", str(tmp_path)])
        assert rc == 2
        assert "snr" in capsys.readouterr().err.lower()

    def test_bad_snr_spec(self, tmp_path, capsys):
        rc = run(["mi-sweep", "--snr", "5:1:banana", "--out", str(tmp_path)])
        assert rc == 2

    def test_unknown_code_preset(self, tmp_path, capsys):
        rc = run(
            [
                "ber-sweep",
                "--snr",
                "4",
                "--code",
                "turbo9000",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("command", ["mi-sweep", "ber-sweep", "audit", "reconcile"])
    def test_negative_seed_rejected_before_echo(self, tmp_path, capsys, command):
        rc = run([command, "--snr", "6", "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "run_log.jsonl").exists()

    @pytest.mark.parametrize("alpha", ["inf", "nan", "0"])
    def test_bad_alpha_rejected_before_echo(self, tmp_path, capsys, alpha):
        rc = run(["ber-sweep", "--snr", "3", "--alpha", alpha, "--out", str(tmp_path)])
        assert rc == 2
        assert "alpha must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "run_log.jsonl").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["reconcile", "--snr", "nan"],
            ["mi-sweep", "--snr", "inf", "--schemes", "hard"],
            # a range with a non-finite end is a usage error, not a traceback
            ["mi-sweep", "--snr=0:inf:1", "--schemes", "hard"],
            ["mi-sweep", "--snr=-inf:0:1", "--schemes", "hard"],
            ["mi-sweep", "--snr=0:1:nan", "--schemes", "hard"],
        ],
    )
    def test_non_finite_snr_rejected_before_echo(self, tmp_path, capsys, argv):
        assert run(argv + ["--out", str(tmp_path)]) == 2
        assert "snr_grid_db must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run_log.jsonl").exists()

    @pytest.mark.parametrize(
        "targets, message",
        [
            ("abc", "mi_targets: bad list 'abc'"),
            # an empty list would write a snr_at_mi.csv of its header alone
            (",", "mi_targets: empty list"),
            ("nan,inf", "mi_targets must be finite"),
        ],
    )
    def test_bad_mi_targets_rejected_before_echo(self, tmp_path, capsys, targets, message):
        argv = ["mi-sweep", "--snr", "0,5", "--schemes", "hard", "--mi-targets", targets]
        assert run(argv + ["--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run_log.jsonl").exists()

    @pytest.mark.parametrize("level, ok", [("WARNING", True), ("Error", True), ("warnig", False)])
    def test_log_level_names(self, tmp_path, capsys, level, ok):
        argv = ["mi-sweep", "--snr", "0", "--schemes", "hard", "--log-level", level]
        assert run(argv + ["--out", str(tmp_path)]) == (0 if ok else 2)
        if not ok:
            assert "log_level" in capsys.readouterr().err
            assert not (tmp_path / "run_log.jsonl").exists()

    def test_unknown_constellation(self, tmp_path):
        assert run(["mi-sweep", "--snr", "0", "--constellation", "qam64", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text,expect",
        [
            ("0:2:1", (0.0, 1.0, 2.0)),
            ("-3,-1,0.5", (-3.0, -1.0, 0.5)),
            ("7", (7.0,)),
        ],
    )
    def test_snr_grammar(self, text, expect):
        assert cli._parse_snr(text) == expect

    @pytest.mark.parametrize("value", ["-2:6:2", "-2,0", "-2", "-.5:0.5:0.5"])
    def test_negative_snr_as_separate_argument(self, tmp_path, value):
        # argparse alone reads "-2:6:2" after --snr as an option, not a value
        for argv, name in (([f"--snr={value}"], "eq"), (["--snr", value], "sep")):
            out = tmp_path / name
            assert run(["mi-sweep", *argv, "--schemes", "hard", "--out", str(out)]) == 0
            config = json.loads((out / "run_log.jsonl").read_text().splitlines()[0])
            assert config["snr"] == value
        assert (tmp_path / "sep" / "mi.csv").read_bytes() == (tmp_path / "eq" / "mi.csv").read_bytes()

    @pytest.mark.parametrize("command", [["codegen"], ["ber-sweep", "--snr", "1"]])
    def test_code_directory_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        assert run([*command, "--code", str(tmp_path), "--out", str(out)]) == 2
        assert "unknown code source" in capsys.readouterr().err
        assert not (out / "run_log.jsonl").exists()

    def test_snr_step_sign(self):
        with pytest.raises(ValueError):
            cli._parse_snr("5:1:0.5")
        with pytest.raises(ValueError):
            cli._parse_snr("1:5:0")


class TestConfigFilePrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("snr: '0:4:2'\nseed: 42\n")
        out = tmp_path / "out"
        rc = run(
            [
                "mi-sweep",
                "--config-file",
                str(cfg),
                "--seed",
                "7",
                "--out",
                str(out),
                "--schemes",
                "hard",
            ]
        )
        assert rc == 0
        events = [
            json.loads(line) for line in (out / "run_log.jsonl").read_text().splitlines()
        ]
        config = next(e for e in events if e.get("event") == "config")
        assert config["seed"] == 7  # flag wins
        assert config["snr"] == "0:4:2"  # file fills the gap
        assert config["constellation"] == "pam4"  # default

    def test_unknown_yaml_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("snr: '0'\nturbo: true\n")
        rc = run(["mi-sweep", "--config-file", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "turbo" in capsys.readouterr().err

    def test_key_for_other_command_rejected(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("snr: '0'\nframes: 5\n")  # frames is ber-sweep only
        assert run(["mi-sweep", "--config-file", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text, key",
        [("frames: 2.7", "frames"), ("seed: 1.9", "seed"), ("seed: true", "seed"),
         ("workers: null", "workers"), ("max_iters: [5]", "max_iters"),
         ("alpha: false", "alpha"), ("alpha: fast", "alpha"),
         ("out: true", "out"), ("out: [a]", "out"), ("out: {a: 1}", "out"),
         ("schemes: [direct]", "schemes"), ("code: {a: 1}", "code"), ("configs: true", "configs")],
    )
    def test_file_value_of_wrong_type_rejected(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"snr: 6\n{text}\n")
        assert run(["ber-sweep", "--config-file", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config key {key}:" in capsys.readouterr().err
        assert not (tmp_path / "run_log.jsonl").exists()

    @pytest.mark.parametrize("number", ["5", "0"])
    def test_file_number_for_out_is_the_directory_name(self, tmp_path, monkeypatch, number):
        # out: 5 in a file writes where --out 5 does, not a TypeError; 0 too
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.yaml").write_text(f"snr: 0\nout: {number}\nschemes: hard\n")
        assert run(["mi-sweep", "--config-file", "run.yaml"]) == 0
        assert run(["mi-sweep", "--snr", "0", "--schemes", "hard", "--out", "flag"]) == 0
        assert (tmp_path / number / "mi.csv").read_bytes() == (tmp_path / "flag" / "mi.csv").read_bytes()

    def test_file_values_take_the_option_type(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("snr: 6\nframes: 1.0\nalpha: 1\nseed: '3'\nschemes: direct\n")
        out = tmp_path / "o"
        assert run(["ber-sweep", "--config-file", str(cfg), "--out", str(out)]) == 0
        config = json.loads((out / "run_log.jsonl").read_text().splitlines()[0])
        # the echo is what ran: 1.0 frames is the int 1, alpha 1 the float 1.0
        assert [(config[k], type(config[k])) for k in ("frames", "alpha", "seed", "snr")] == [
            (1, int), (1.0, float), (3, int), (6, int),
        ]
        assert (out / "ber.csv").read_text().splitlines()[1].split(",")[4] == "1"

    def test_config_event_precedes_results(self, tmp_path):
        out = tmp_path / "o"
        assert run(["mi-sweep", "--snr", "0", "--schemes", "hard", "--out", str(out)]) == 0
        first = json.loads((out / "run_log.jsonl").read_text().splitlines()[0])
        assert first["event"] == "config"


class TestMiSweepCommand:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "mi"
        rc = run(
            [
                "mi-sweep",
                "--snr",
                "0:4:4",
                "--schemes",
                "direct,hard",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        mi = (out / "mi.csv").read_text().splitlines()
        assert mi[0] == "snr_db,scheme,config,mi_bits,err_est"
        assert len(mi) == 1 + 4  # two schemes, two grid points
        assert (out / "snr_at_mi.csv").exists()

    def test_one_point_sweep_removes_stale_table(self, tmp_path):
        # a one-point grid writes no snr_at_mi.csv, so an older one must go
        out = str(tmp_path)
        assert run(["mi-sweep", "--snr", "0,5,10", "--schemes", "hard", "--out", out]) == 0
        assert (tmp_path / "snr_at_mi.csv").exists()
        assert run(["mi-sweep", "--snr", "3", "--schemes", "hard", "--out", out]) == 0
        assert not (tmp_path / "snr_at_mi.csv").exists()
        assert (tmp_path / "mi.csv").read_text().splitlines()[1].startswith("3.0,hard,")

    def test_scheme_aliases(self, tmp_path):
        out = tmp_path / "alias"
        rc = run(["mi-sweep", "--snr", "0", "--schemes", "dr,hard-rr", "--out", str(out)])
        assert rc == 0
        body = (out / "mi.csv").read_text()
        assert "direct" in body and "hard" in body

    def test_outdir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOFTREC_OUTDIR", str(tmp_path / "envout"))
        rc = run(["mi-sweep", "--snr", "0", "--schemes", "hard"])
        assert rc == 0
        assert (tmp_path / "envout" / "mi.csv").exists()


class TestBerSweepCommand:
    def test_tiny_run(self, tmp_path):
        out = tmp_path / "ber"
        rc = run(
            [
                "ber-sweep",
                "--snr",
                "6",
                "--code",
                "hamming74",
                "--frames",
                "4",
                "--schemes",
                "rrs",
                "--configs",
                "alternating",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = (out / "ber.csv").read_text().splitlines()
        assert lines[0] == (
            "snr_db,scheme,config,alpha,frames,bit_errors,ber,ber_ci_lo,ber_ci_hi,fer"
        )
        assert len(lines) == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "ber-sweep",
            "--snr",
            "3,6",
            "--code",
            "hamming74",
            "--frames",
            "6",
            "--schemes",
            "direct,rrs",
            "--seed",
            "21",
        ]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args + ["--out", str(d1)]) == 0
        assert run(args + ["--out", str(d2)]) == 0
        assert (d1 / "ber.csv").read_bytes() == (d2 / "ber.csv").read_bytes()


class TestReconcileCommand:
    def test_json_transcript(self, tmp_path, capsys):
        rc = run(["reconcile", "--snr", "8", "--seed", "4", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(doc) == {
            "snr_db",
            "config",
            "transcript",
            "converged",
            "iterations",
            "residual_bit_errors",
        }
        assert set(doc["transcript"]) == {"n_values", "syndrome"}
        assert all(0.0 <= v <= 1.0 for v in doc["transcript"]["n_values"])

    def test_runs_without_flags_as_demo(self, tmp_path, capsys):
        # reconcile is the demo command; it falls back to a 3 dB point
        rc = run(["reconcile", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["snr_db"] == 3.0

    @pytest.mark.parametrize(
        "flag, value",
        [("--snr", "1,8"), ("--snr", "1:3:1"),
         ("--config", "alternating,base"), ("--config", "all")],
    )
    def test_one_snr_and_one_config(self, tmp_path, capsys, flag, value):
        # a frame has one operating point; extra values are an error, not dropped
        assert run(["reconcile", flag, value, "--out", str(tmp_path)]) == 2
        assert f"one {flag} value" in capsys.readouterr().err
        assert not (tmp_path / "run_log.jsonl").exists()


class TestCodegenCommand:
    def test_directory_out_names_the_file(self, tmp_path):
        from softrec.ldpc import parse_alist

        rc = run(["codegen", "--code", "hamming74", "--out", str(tmp_path)])
        assert rc == 0
        code = parse_alist((tmp_path / "hamming74.alist").read_text())
        assert (code.n, code.m) == (7, 3)

    def test_explicit_file_out(self, tmp_path):
        from softrec.ldpc import parse_alist

        target = tmp_path / "sub" / "tiny.alist"
        rc = run(["codegen", "--code", "hamming74", "--out", str(target)])
        assert rc == 0
        assert parse_alist(target.read_text()).n == 7

    def test_stdout_when_no_out(self, capsys):
        from softrec.ldpc import parse_alist

        assert run(["codegen", "--code", "hamming74"]) == 0
        assert parse_alist(capsys.readouterr().out).n == 7

    def test_number_out_from_config_file(self, tmp_path, monkeypatch):
        from softrec.ldpc import parse_alist

        monkeypatch.chdir(tmp_path)
        (tmp_path / "cg.yaml").write_text("code: hamming74\nout: 0\n")
        assert run(["codegen", "--config-file", "cg.yaml"]) == 0
        assert parse_alist((tmp_path / "0").read_text()).n == 7


class TestAuditCommand:
    def test_small_clean_audit_passes(self, tmp_path, capsys):
        rc = run(
            [
                "audit",
                "--snr",
                "0",
                "--configs",
                "alternating",
                "--samples-per-decision",
                "4000",
                "--seed",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        # stdout gives the analytic check's outcome, not the rounding noise
        # of a zero integral; the run log keeps the value
        line = capsys.readouterr().out.strip()
        assert line.startswith("audit snr=+0.00 config=alternating: analytic=ok mc=")
        assert line.endswith(" ok")
        records = [json.loads(r) for r in (tmp_path / "run_log.jsonl").read_text().splitlines()]
        cell = records[-1]
        assert cell["event"] == "audit-cell"
        assert abs(cell["analytic_bits"]) <= cli.ANALYTIC_LEAKAGE_MAX

    def test_negative_control_is_caught(self, tmp_path, monkeypatch, capsys):
        # inject a transform built for the wrong noise level; the disclosed
        # metric is then visibly non-uniform and the audit must exit 1
        def wrong_transform(ch, cfg):
            bad = ChannelModel(ch.constellation, ch.noise_variance * 4.0)
            return build_transform(bad, cfg)

        monkeypatch.setattr(cli, "build_transform", wrong_transform)
        rc = run(
            [
                "audit",
                "--snr",
                "0",
                "--configs",
                "base",
                "--samples-per-decision",
                "4000",
                "--seed",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 1
        assert "failed" in capsys.readouterr().err.lower()


def _near_edges(bins: int) -> list:
    """Every bin edge, and the doubles on either side of it, inside [0, 1]."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    near = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
    return sorted({float(v) for v in near if 0.0 <= v <= 1.0})


# With 7 bins, floor(n * bins) lands one bin low just above some edges; with
# the audit's 20 it lands one bin high just below some. The searchsorted
# counts must agree at all of them.
_BINS = (cli.MC_BINS, 7)
_NEAR_EDGES = sorted(set().union(*(_near_edges(b) for b in _BINS)))
_METRIC = st.one_of(st.floats(0.0, 1.0), st.sampled_from(_NEAR_EDGES))


class TestAuditCellShortcuts:
    # the audit cell's grouping, histogram and KS test against the numpy
    # and scipy routines they stand in for

    @staticmethod
    def _joint_counts_both_ways(d, n, bins):
        # one sort per decision, as the audit cell does it
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "MC_BINS", bins)
            got = [cli._bin_counts(np.sort(n[d == i])).tolist() for i in range(4)]
        want, _, _ = np.histogram2d(d, n, bins=[4, bins], range=[[-0.5, 3.5], [0.0, 1.0]])
        return got, want.tolist()

    @pytest.mark.parametrize("bins", _BINS)
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 3), _METRIC), min_size=1, max_size=300))
    def test_joint_counts_match_histogram2d(self, bins, pairs):
        d = np.array([p[0] for p in pairs])
        n = np.array([p[1] for p in pairs])
        got, want = self._joint_counts_both_ways(d, n, bins)
        assert got == want

    @pytest.mark.parametrize("bins", _BINS)
    def test_joint_counts_on_a_large_sample(self, bins):
        rng = np.random.default_rng(5)
        n = np.concatenate([rng.random(200_000), _NEAR_EDGES])
        got, want = self._joint_counts_both_ways(rng.integers(0, 4, n.size), n, bins)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_METRIC, min_size=1, max_size=400))
    def test_ks_matches_kstest(self, xs):
        x = np.array(xs)
        want = kstest(x, "uniform")
        assert cli._ks_uniform(np.sort(x)) == (want.statistic, want.pvalue)

    @pytest.mark.parametrize(
        "size, power",
        [(150_000, 1.0), (150_000, 1.02), (3, 1.0)]
        # around the KS pass's block edges: a short block, whole blocks only,
        # a one-sample last block and a short last block
        + [(k * cli.AUDIT_BLOCK + e, 1.0) for k, e in ((1, -1), (1, 0), (1, 1), (3, 5))],
    )
    def test_ks_matches_kstest_on_large_samples(self, size, power):
        x = np.random.default_rng(size).random(size) ** power
        want = kstest(x, "uniform")
        assert cli._ks_uniform(np.sort(x)) == (want.statistic, want.pvalue)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_METRIC, min_size=1, max_size=60))
    def test_ks_matches_kstest_over_many_blocks(self, xs):
        x = np.array(xs)
        want = kstest(x, "uniform")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "AUDIT_BLOCK", 7)
            assert cli._ks_uniform(np.sort(x)) == (want.statistic, want.pvalue)

    @pytest.mark.parametrize("cfg", ["base", "alternating"])
    @pytest.mark.parametrize("snr", [-10.0, 0.0, 10.0])
    def test_cell_matches_reference(self, snr, cfg):
        # the whole cell against the masks-and-binning form it replaced
        c = pam(4)
        ch = ChannelModel(c, noise_variance_for_snr_db(snr, c))
        t = build_transform(ch, cfg)
        got = cli._audit_cell(ch, t, np.random.default_rng(21), 20_000)
        want = reference_audit.audit_cell(ch, t, np.random.default_rng(21), 20_000)
        assert got == want

    @pytest.mark.parametrize("cfg", ["base", "alternating"])
    @pytest.mark.parametrize(
        "order, priors, snr",
        [
            (2, None, -10.0),
            (2, None, 10.0),
            # an uneven PAM-8 takes the split by d >> 2 into two key arrays;
            # at 0 dB and below its priors leave a MAP decision region empty
            (8, (0.16, 0.12, 0.14, 0.1, 0.13, 0.11, 0.09, 0.15), 10.0),
        ],
        ids=["pam2--10.0", "pam2-10.0", "pam8-skewed-10.0"],
    )
    def test_other_orders_match_reference(self, order, priors, snr, cfg):
        c = pam(order, priors=priors)
        ch = ChannelModel(c, noise_variance_for_snr_db(snr, c))
        t = build_transform(ch, cfg)
        got = cli._audit_cell(ch, t, np.random.default_rng(21), 20_000)
        want = reference_audit.audit_cell(ch, t, np.random.default_rng(21), 20_000)
        assert got == want

    @pytest.mark.parametrize("snr", [-10.0, 10.0])
    def test_blocked_cell_matches_reference(self, snr, monkeypatch):
        # Many blocks, a short last block and several draw rounds. The draws
        # favour the outer symbols and the transform is the uniform 10 dB
        # one, whose deltas overrate the inner decisions, so the first round
        # falls short of the quota: 2 rounds at -10 dB, 3 at 10 dB.
        monkeypatch.setattr(cli, "AUDIT_BLOCK", 4_096)
        c = pam(4)
        t = build_transform(ChannelModel(c, noise_variance_for_snr_db(10.0, c)), "alternating")
        ch = ChannelModel(pam(4, priors=(0.4, 0.1, 0.1, 0.4)), noise_variance_for_snr_db(snr, c))
        rounds = []
        soften = reference_audit.soften

        def counted(y, t):
            rounds.append(y.size)
            return soften(y, t)

        monkeypatch.setattr(reference_audit, "soften", counted)
        got = cli._audit_cell(ch, t, np.random.default_rng(21), 20_000)
        want = reference_audit.audit_cell(ch, t, np.random.default_rng(21), 20_000)
        assert got == want
        assert len(rounds) >= 2 and rounds[0] > 20 * cli.AUDIT_BLOCK

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 50), min_size=2, max_size=8),
        blocks=st.lists(st.integers(0, 3_000), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_draws_match_one_draw(self, weights, blocks, seed):
        # The audit cell relies on numpy's generator giving consecutive
        # blocks of choice(..., p=...) and of transmit's normal draws the
        # values of one full-size call, and leaving it in the same state.
        priors = np.array(weights) / sum(weights)
        c = pam(len(weights), priors=priors, bitmap=())
        ch = ChannelModel(c, 0.7)
        full = np.random.default_rng(seed)
        x = full.choice(c.order, size=sum(blocks), p=c.priors)
        y = transmit(x, ch, full)
        parts = np.random.default_rng(seed)
        xs = [parts.choice(c.order, size=k, p=c.priors) for k in blocks]
        assert np.concatenate(xs).tobytes() == x.tobytes()
        bounds = np.cumsum([0] + blocks)
        ys = [transmit(x[a:b], ch, parts) for a, b in zip(bounds[:-1], bounds[1:])]
        assert np.concatenate(ys).tobytes() == y.tobytes()
        assert parts.bit_generator.state == full.bit_generator.state

    def test_cell_memory_stays_blocked(self, traced_peak, monkeypatch):
        # The -10 dB cell draws 916,959 samples. Its keys take 8 bytes a
        # sample; with a symbol array beside them the peak was 11.93 MB
        # (13 bytes a sample), and with the symbols in the keys 8.26 MB.
        c = pam(4)
        ch = ChannelModel(c, noise_variance_for_snr_db(-10.0, c))
        t = build_transform(ch, "alternating")
        cli._audit_cell(ch, t, np.random.default_rng(0), 100)  # first-call allocations
        drawn = []

        def counted(x, ch, rng):
            drawn.append(x.size)
            return transmit(x, ch, rng)

        monkeypatch.setattr(cli, "transmit", counted)
        peak = traced_peak(lambda: cli._audit_cell(ch, t, np.random.default_rng(0), 100_000))
        assert peak < 8 * sum(drawn) + 2e6


class TestParserSmoke:
    @pytest.mark.parametrize(
        "argv", [[]] + [[c] for c in sorted(_FLAGS)], ids=["softrec"] + sorted(_FLAGS)
    )
    def test_help_exits_zero(self, argv):
        with pytest.raises(SystemExit) as e:
            cli.build_parser().parse_args(argv + ["--help"])
        assert e.value.code == 0

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["frobnicate"])


class TestCliSurface:
    """The flag set of each subcommand and the resolved configuration it echoes."""

    @pytest.mark.parametrize("command", sorted(_FLAGS))
    def test_option_strings(self, command):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {o for a in sub.choices[command]._actions for o in a.option_strings}
        assert options == {"--" + f for f in _FLAGS[command]} | {"--config-file", "-h", "--help"}

    @pytest.mark.parametrize("command", sorted(_FLAGS))
    def test_snr_help(self, command):
        # reconcile takes one SNR; the sweeps and the audit take a grid.
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        helps = {a.dest: a.help for a in sub.choices[command]._actions}
        expect = {
            "reconcile": "one dB value, default 3.0",
            "codegen": None,
        }.get(command, "grid start:stop:step, comma list, or single dB value")
        assert helps.get("snr") == expect

    @pytest.mark.parametrize("argv,expect", _CONFIG_EVENTS, ids=[a[0] for a, _ in _CONFIG_EVENTS])
    def test_config_event(self, argv, expect, tmp_path):
        out = tmp_path / "o"
        assert run(argv + ["--out", str(out)]) == 0
        first = json.loads((out / "run_log.jsonl").read_text().splitlines()[0])
        assert first == {"event": "config", "command": argv[0], "out": str(out), **expect}

    def test_codegen_code_from_config_file(self, tmp_path, capsys):
        from softrec.ldpc import parse_alist

        cfg = tmp_path / "cg.yaml"
        cfg.write_text("code: hamming74\n")
        assert run(["codegen", "--config-file", str(cfg)]) == 0
        assert parse_alist(capsys.readouterr().out).n == 7

from __future__ import annotations

import argparse
import json

import numpy as np
import pytest

import softrec.cli as cli
from softrec.channel import ChannelModel
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
         ("alpha: false", "alpha"), ("alpha: fast", "alpha")],
    )
    def test_file_value_of_wrong_type_rejected(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"snr: 6\n{text}\n")
        assert run(["ber-sweep", "--config-file", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"config key {key}:" in capsys.readouterr().err

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


class TestAuditCommand:
    def test_small_clean_audit_passes(self, tmp_path):
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

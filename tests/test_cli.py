"""CLI tests: config resolution, subcommand artifacts, reproducibility."""

import os

import numpy as np
import pytest

from ajscc.cli import ConfigError, RunConfig, main, parse_config

FAST_LINK = ["--nx", "4", "--ny", "4", "--nt", "4", "--s-p", "2", "--t-p", "2",
             "--n-samples", "512", "--seeds", "2", "--workers", "1"]


class TestParseConfig:
    def test_defaults_are_the_reference_operating_point(self):
        cfg = parse_config()
        assert cfg.k_gain == 155e-6
        assert cfg.v_th == 0.74
        assert cfg.lam == 0.037
        assert (cfg.vds_lo, cfg.vds_hi) == (5.0, 10.0)
        assert cfg.bandwidth == 410e3
        assert cfg.snr_db == -20.0
        assert (cfg.nx, cfg.ny, cfg.nt, cfg.s_p, cfg.t_p) == (20, 20, 20, 10, 10)
        assert cfg.doppler_fraction == 0.02
        assert cfg.delta is None

    def test_config_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nsnr_db = -30\nseed = 9\n")
        cfg = parse_config(str(path), {"seed": "11"})
        assert cfg.snr_db == -30.0
        assert cfg.seed == 11  # explicit override beats the file

    def test_environment_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AJSCC_SNR_DB", "-44")
        assert parse_config().snr_db == -44.0

    def test_unknown_key_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("snrr_db = -30\n")
        with pytest.raises(ConfigError, match="snrr_db"):
            parse_config(str(path))

    def test_bad_value_names_the_key(self):
        with pytest.raises(ConfigError, match="snr_db"):
            parse_config(None, {"snr_db": "abc"})

    def test_inconsistent_ranges_rejected(self):
        with pytest.raises(ConfigError, match="vds_lo"):
            parse_config(None, {"vds_lo": "10", "vds_hi": "5"})

    def test_delta_accepts_none_and_numbers(self):
        assert parse_config(None, {"delta": "none"}).delta is None
        assert parse_config(None, {"delta": "0.41"}).delta == 0.41

    def test_delta_grid_from_bounds(self):
        cfg = parse_config(None, {"delta_min": "0.1", "delta_max": "0.3",
                                  "delta_step": "0.1"})
        assert cfg.delta_grid() == [0.1, 0.2, 0.3]
        pinned = parse_config(None, {"delta": "0.41"})
        assert pinned.delta_grid() == [0.41]


class TestSubcommands:
    def test_encode_prints_reference_current(self, capsys):
        assert main(["encode", "--vgs", "1.0", "--vds", "5.0"]) == 0
        assert capsys.readouterr().out.strip() == "6.2082e-06"

    def test_decode_round_trip(self, capsys):
        assert main(["decode", "--ids1", "4.6907e-4", "--ids2", "4.7053e-4"]) == 0
        out = capsys.readouterr().out
        assert "vgs_hat=3" in out and "in_range=1" in out

    def test_noiseless_artifact(self, tmp_path, capsys):
        assert main(["noiseless", "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy=1 " in out
        lines = (tmp_path / "noiseless.csv").read_text().splitlines()
        assert lines[0].startswith("# ajscc ")
        assert lines[1] == "vgs_true,vds_true,vgs_hat,vds_hat,corrected"
        assert len(lines) == 2 + 250  # one row per (level, vds) grid point

    def test_sweep_lambda_artifact(self, tmp_path):
        assert main(["sweep-lambda", "--outdir", str(tmp_path),
                     "--lambda-grid", "0.01,0.05,0.2"]) == 0
        lines = (tmp_path / "sweep_lambda.csv").read_text().splitlines()
        assert lines[1] == "lambda,mse_pre,mse_post,accuracy_pre,accuracy_post"
        assert len(lines) == 2 + 3

    def test_sweep_delta_pinned_to_single_point(self, tmp_path, capsys):
        rc = main(["sweep-delta", "--outdir", str(tmp_path), "--delta", "0.41",
                   *FAST_LINK])
        assert rc == 0
        assert "delta_star=0.41" in capsys.readouterr().out
        lines = (tmp_path / "sweep_delta.csv").read_text().splitlines()
        assert lines[1] == "delta,mse_gs,mse_ds,mse_sum"
        assert len(lines) == 3

    def test_sweep_delta_row_count_matches_grid(self, tmp_path):
        rc = main(["sweep-delta", "--outdir", str(tmp_path), "--delta-min", "0.3",
                   "--delta-max", "0.6", "--delta-step", "0.1", *FAST_LINK])
        assert rc == 0
        lines = (tmp_path / "sweep_delta.csv").read_text().splitlines()
        assert len(lines) == 2 + 4

    def test_sweep_snr_artifact(self, tmp_path):
        rc = main(["sweep-snr", "--outdir", str(tmp_path), "--snr-min", "-30",
                   "--snr-max", "-10", "--snr-step", "20",
                   "--bandwidths", "50e3,410e3", *FAST_LINK])
        assert rc == 0
        lines = (tmp_path / "sweep_snr.csv").read_text().splitlines()
        assert lines[1] == "snr_db,bandwidth_hz,mse_sum"
        assert len(lines) == 2 + 4

    def test_gen_field_artifact(self, tmp_path):
        assert main(["gen-field", "--outdir", str(tmp_path), "--nx", "4",
                     "--ny", "4", "--nt", "2", "--s-p", "2", "--t-p", "2"]) == 0
        lines = (tmp_path / "field.csv").read_text().splitlines()
        assert lines[1] == "x,y,t,value"
        assert len(lines) == 2 + 4 * 4 * 2

    def test_failed_gen_field_keeps_previous_artifact(self, tmp_path, monkeypatch, capsys):
        args = ["gen-field", "--outdir", str(tmp_path), "--nx", "4", "--ny", "4",
                "--nt", "2", "--s-p", "2", "--t-p", "2"]
        assert main(args) == 0
        before = (tmp_path / "field.csv").read_bytes()

        def failing_write(field, path):
            with open(path, "w") as fh:
                fh.write("partial")
            raise OSError("disk full")

        monkeypatch.setattr("ajscc.cli.field_to_csv", failing_write)
        assert main([*args, "--seed", "43"]) == 1
        assert "disk full" in capsys.readouterr().err
        assert (tmp_path / "field.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["field.csv"]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["sweep-delta", "--outdir", str(out), "--delta", "0.5",
                         *FAST_LINK]) == 0
        assert (a / "sweep_delta.csv").read_bytes() == (b / "sweep_delta.csv").read_bytes()

    def test_invalid_value_exits_nonzero_without_artifacts(self, tmp_path, capsys):
        rc = main(["noiseless", "--outdir", str(tmp_path), "--snr-db", "abc"])
        assert rc == 1
        assert "snr_db" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_failing_run_leaves_no_partial_file(self, tmp_path, capsys):
        # grid extends outside the checked vds range -> run_noiseless raises
        rc = main(["noiseless", "--outdir", str(tmp_path),
                   "--noiseless-vds-start", "4.0"])
        assert rc == 1
        assert not (tmp_path / "noiseless.csv").exists()
        assert not any(p.suffix == ".tmp" for p in tmp_path.iterdir())

    def test_config_file_flag(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("noiseless_levels = 1,2,3\n")
        assert main(["noiseless", "--config", str(path), "--outdir", str(tmp_path)]) == 0
        lines = (tmp_path / "noiseless.csv").read_text().splitlines()
        assert len(lines) == 2 + 150

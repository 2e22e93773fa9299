"""CLI tests: config resolution, subcommand artifacts, reproducibility."""

import dataclasses
import hashlib
import multiprocessing
import os
import re
from pathlib import Path

import numpy as np
import pytest

from ajscc import experiments
from ajscc.cli import COMMANDS, ConfigError, RunConfig, dispatch, main, parse_config
from ajscc.experiments import LinkConfig

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

    def test_defaults_are_the_library_defaults(self):
        # workers differs by design: 0 (all processors) resolves to a count
        link = RunConfig().link()
        assert dataclasses.replace(link, workers=LinkConfig().workers) == LinkConfig()

    def test_zero_workers_counts_the_usable_processors(self, monkeypatch):
        # a CPU mask (taskset, a cgroup cpuset) may allow fewer than the host has
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
        cfg = RunConfig(workers=0)
        assert cfg.link().workers == 2
        assert "workers=0" in cfg.echo().split()
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cfg.link().workers == 64

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

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            parse_config(str(tmp_path / "absent.cfg"))

    def test_config_line_without_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nsnr_db -30\n")
        with pytest.raises(ConfigError, match=r"run.cfg:2: expected key = value"):
            parse_config(str(path))

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown key 'nope'"):
            parse_config(None, {"nope": 1})

    def test_bad_value_names_the_key(self):
        with pytest.raises(ConfigError, match="snr_db"):
            parse_config(None, {"snr_db": "abc"})

    def test_inconsistent_ranges_rejected(self):
        # resolving only converts; the accessor that reads the pair checks it
        cfg = parse_config(None, {"vds_lo": "10", "vds_hi": "5"})
        with pytest.raises(ConfigError, match="vds_lo"):
            cfg.vds_range()

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

    @pytest.mark.parametrize("vgs, vds", [("nan", "7"), ("3", "nan")])
    def test_encode_rejects_nan(self, capsys, vgs, vds):
        assert main(["encode", "--vgs", vgs, "--vds", vds]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

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

    @pytest.mark.parametrize("flag, value", [
        ("--snr-db", "nan"), ("--snr-db", "-inf"), ("--doppler-fraction", "nan"),
        ("--rician-k-db", "nan"), ("--delta", "nan"), ("--delta", "inf"),
        ("--snr-db", "-400"),
    ])
    def test_non_finite_link_parameter_exits_without_artifacts(self, tmp_path, capsys,
                                                              flag, value):
        out = tmp_path / "out"
        rc = main(["sweep-delta", "--outdir", str(out), "--delta", "0.5", *FAST_LINK,
                   f"{flag}={value}"])
        assert rc == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, key", [
        ("sweep-delta", ["--delta-step", "0"], "delta_step"),
        ("sweep-delta", ["--delta-step", "-0.1"], "delta_step"),
        ("sweep-delta", ["--delta-step", "nan"], "delta_step"),
        ("sweep-delta", ["--delta-min", "0.8", "--delta-max", "0.2"], "delta_min/delta_max"),
        ("sweep-delta", ["--delta-max", "inf"], "delta_min/delta_max"),
        ("sweep-delta", ["--delta-min", "0"], "delta_min"),
        ("sweep-snr", ["--snr-step", "0"], "snr_step"),
        ("sweep-snr", ["--snr-min", "nan"], "snr_min/snr_max"),
        ("sweep-snr", ["--snr-min", "0", "--snr-max", "-10"], "snr_min/snr_max"),
        ("sweep-snr", ["--bandwidths", "0"], "bandwidths"),
        ("sweep-snr", ["--bandwidths", "410e3,nan"], "bandwidths"),
        ("sweep-snr", ["--bandwidths", "-5"], "bandwidths"),
        ("sweep-delta", ["--seed", "-1"], "seed"),
        ("gen-field", ["--seed", "-5"], "seed"),
        ("sweep-snr", ["--workers", "-3"], "workers"),
        ("noiseless", ["--lam", "0"], "lam"),
        ("sweep-delta", ["--lam", "0"], "lam"),
        ("sweep-snr", ["--bandwidths", "410e3,abc"], "bandwidths"),
        ("sweep-snr", ["--bandwidths", ","], "bandwidths"),
    ])
    def test_bad_sweep_grid_exits_without_artifacts(self, tmp_path, capsys, command, flags,
                                                    key):
        out = tmp_path / "out"
        assert main([command, "--outdir", str(out), *FAST_LINK, *flags]) == 1
        assert f"error: invalid value for '{key}'" in capsys.readouterr().err
        assert not out.exists()

    # checked by the library, reported by the key that sets the value
    @pytest.mark.parametrize("flags, key, message", [
        (["--seeds", "0"], "seeds", "need at least one replicate"),
        (["--vgs-lo", "6", "--vgs-hi", "5"], "vgs_lo/vgs_hi", "must have finite lo < hi"),
    ])
    def test_library_checks_name_the_key(self, tmp_path, capsys, flags, key, message):
        out = tmp_path / "out"
        assert main(["sweep-delta", "--outdir", str(out), *FAST_LINK, *flags]) == 1
        err = capsys.readouterr().err
        assert f"error: invalid value for '{key}': " in err and message in err
        assert not out.exists()

    # rejected by the library, before any artifact is written; the output
    # directory is made only when an artifact is written
    @pytest.mark.parametrize("command, flags, message", [
        ("sweep-delta", ["--delta", "6"], "spacing 6.0 over (5.0, 10.0) yields 1 level(s)"),
        ("sweep-delta", ["--delta-min", "1", "--delta-max", "6", "--delta-step", "1"],
         "spacing 6.0 over (5.0, 10.0) yields 1 level(s)"),
        ("sweep-snr", ["--delta", "6"], "spacing 6.0 over (5.0, 10.0) yields 1 level(s)"),
        ("sweep-delta", ["--nx", "5", "--s-p", "10"], "s_p=10 exceeds grid 5x"),
        ("gen-field", ["--nx", "5", "--s-p", "10"], "s_p=10 exceeds grid 5x"),
        ("sweep-delta", ["--nt", "5", "--t-p", "10"], "t_p=10 exceeds nt=5"),
        ("sweep-delta", ["--nt", "1", "--t-p", "1"], "need at least 2 samples to decode"),
        ("noiseless", ["--noiseless-levels", "1,3,2"], "levels must be strictly ascending"),
        ("encode", ["--noiseless-levels", "1,3,2", "--vgs", "5", "--vds", "7"],
         "levels must be strictly ascending"),
        ("noiseless", ["--noiseless-vds-start", "20"], "vds_grid extends outside vds_range"),
        ("noiseless", ["--noiseless-vds-start", "4"], "vds_grid extends outside vds_range"),
        ("noiseless", ["--noiseless-vds-step", "nan"], "vds_grid extends outside vds_range"),
        ("sweep-lambda", ["--noiseless-vds-step", "nan"], "vds_grid extends outside vds_range"),
        ("sweep-delta", ["--vgs-lo", "0.5"], "levels must all exceed v_th"),
        ("noiseless", ["--noiseless-vds-count", "1"], "need at least 2 samples to decode"),
        ("noiseless", ["--v-th", "nan"], "v_th must be non-negative, got nan"),
        ("sweep-delta", ["--delta", "0.5", "--fm-headroom", "2"],
         "headroom must lie in (0, 1], got 2.0"),
        ("sweep-snr", ["--fm-headroom", "0"], "headroom must lie in (0, 1], got 0.0"),
        ("sweep-delta", ["--delta", "0.5", "--doppler-fraction", "1"],
         "doppler_fraction must lie in [0, 1), got 1.0"),
        ("noiseless", ["--noiseless-levels", "1,2,inf"], "levels must be finite"),
        ("encode", ["--noiseless-levels", "1,nan", "--vgs", "1", "--vds", "7"],
         "levels must be finite"),
        ("noiseless", ["--vds-hi", "inf"], "vds_range must have finite lo < hi"),
        ("decode", ["--ids1", "1e-3", "--ids2", "2e-3", "--vds-hi", "inf"],
         "vds_range must have finite lo < hi"),
        # below vds = -1/lam the curves carry non-positive currents
        ("decode", ["--ids1", "1e-3", "--ids2", "2e-3", "--vds-lo=-30"],
         "decoding needs vds_range above -1/lam"),
        ("noiseless", ["--k-gain", "inf"], "k_gain must be finite, got inf"),
        ("noiseless", ["--lam", "inf"], "lam must be finite, got inf"),
        ("gen-field", ["--vds-lo=-inf"], "need finite lo < hi, got (-inf, 10.0)"),
        ("gen-field", ["--vds-hi", "inf"], "need finite lo < hi, got (5.0, inf)"),
        # decode reads its two currents: each must be positive and finite
        ("decode", ["--ids1", "nan", "--ids2", "nan"], "invalid value for 'ids1'"),
        ("decode", ["--ids1", "-1", "--ids2", "1e-3"], "invalid value for 'ids1'"),
        ("decode", ["--ids1", "1e-3", "--ids2", "inf"], "invalid value for 'ids2'"),
        # a level whose drain current overflows is rejected before it warns
        ("noiseless", ["--noiseless-levels", "1e200,2e200"],
         "invalid value for 'noiseless_levels'"),
        ("sweep-lambda", ["--noiseless-levels", "1e200,2e200"],
         "invalid value for 'noiseless_levels'"),
        ("sweep-lambda", ["--lambda-grid", "0.1,0.05"], "invalid value for 'lambda_grid'"),
    ], ids=lambda v: v.split()[0] if isinstance(v, str) else None)
    def test_failing_input_exits_without_artifacts(self, tmp_path, capsys, command, flags,
                                                   message):
        out = tmp_path / "out"
        assert main([command, "--outdir", str(out), *FAST_LINK, *flags]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    # each command is checked on what it reads, not on values only another
    # command reads
    @pytest.mark.parametrize("command, flags, name", [
        ("sweep-delta", ["--vds-lo", "6"], "sweep_delta.csv"),
        ("sweep-snr", ["--vgs-lo", "5", "--vgs-hi", "6"], "sweep_snr.csv"),
        ("gen-field", ["--nt", "1", "--t-p", "1"], "field.csv"),
        ("noiseless", ["--vgs-lo", "5", "--vgs-hi", "5.5"], "noiseless.csv"),
        ("sweep-lambda", ["--nx", "5", "--s-p", "10"], "sweep_lambda.csv"),
        ("noiseless", ["--bandwidths", "0"], "noiseless.csv"),
        ("gen-field", ["--snr-db", "nan"], "field.csv"),
        ("sweep-delta", ["--bandwidths", "0", "--delta", "0.5"], "sweep_delta.csv"),
        ("sweep-snr", ["--bandwidth", "-5", "--snr-db", "nan", "--snr-min", "-10",
                       "--snr-max", "-10", "--bandwidths", "410e3"], "sweep_snr.csv"),
        ("noiseless", ["--delta-step", "0"], "noiseless.csv"),
        ("gen-field", ["--lambda-grid", "x"], "field.csv"),
        ("encode", ["--vgs", "5", "--vds", "7", "--snr-min", "nan"], None),
        ("noiseless", ["--delta", "nan", "--lambda-grid", ""], "noiseless.csv"),
        ("sweep-delta", ["--delta", "0.5", "--delta-step", "0"], "sweep_delta.csv"),
        ("sweep-snr", ["--delta-min", "0", "--snr-min", "-10", "--snr-max", "-10",
                       "--bandwidths", "410e3"], "sweep_snr.csv"),
        ("sweep-delta", ["--delta", "0.5", "--noiseless-levels", "0.5"], "sweep_delta.csv"),
        ("gen-field", ["--noiseless-vds-count", "0"], "field.csv"),
        ("noiseless", ["--seeds", "0"], "noiseless.csv"),
        ("noiseless", ["--nx", "0"], "noiseless.csv"),
        ("noiseless", ["--vgs-lo", "6", "--vgs-hi", "5"], "noiseless.csv"),
        ("gen-field", ["--lam", "0"], "field.csv"),
        ("gen-field", ["--k-gain", "-1"], "field.csv"),
        ("gen-field", ["--v-th", "nan"], "field.csv"),
        ("gen-field", ["--workers", "-1"], "field.csv"),
        ("noiseless", ["--seed", "-1"], "noiseless.csv"),
        ("noiseless", ["--workers", "-2"], "noiseless.csv"),
        ("encode", ["--vgs", "5", "--vds", "7", "--seed", "-1"], None),
        # the lambda grid sets lam
        ("sweep-lambda", ["--lam", "0"], "sweep_lambda.csv"),
    ])
    def test_values_other_commands_read_do_not_block(self, tmp_path, command, flags, name):
        # name: the artifact the command writes (encode writes none)
        assert main([command, "--outdir", str(tmp_path), *FAST_LINK, *flags]) == 0
        assert name is None or (tmp_path / name).exists()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the dying replicate is patched in, which only a fork inherits")
    def test_a_dead_worker_exits_without_traceback_or_artifacts(self, tmp_path, capsys,
                                                               monkeypatch):
        real = experiments._replicate_task
        monkeypatch.setattr(experiments, "_replicate_task",
                            lambda args: os._exit(3) if args[3] % 2 else real(args))
        out = tmp_path / "out"
        assert main(["sweep-delta", "--outdir", str(out), "--delta", "0.5", *FAST_LINK,
                     "--workers", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a sweep worker exited with code 3")
        assert "Traceback" not in err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_unknown_command_creates_no_outdir(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="bogus"):
            dispatch("bogus", parse_config(None, {"outdir": str(out)}))
        assert not out.exists()

    def test_readme_lists_exactly_the_commands(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert set(re.findall(r"^ajscc ([\w-]+)", readme, re.M)) == set(COMMANDS)

    def test_infinite_snr_and_k_factor_still_run(self, tmp_path):
        assert main(["sweep-delta", "--outdir", str(tmp_path), "--delta", "0.5",
                     *FAST_LINK, "--snr-db=inf", "--rician-k-db=-inf"]) == 0
        assert (tmp_path / "sweep_delta.csv").exists()

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


class TestGoldenArtifacts:
    """Exact default artifacts and decode output, recorded before the stream
    decoder moved to arrays."""

    @pytest.mark.parametrize("command, name, sha", [
        ("noiseless", "noiseless.csv",
         "2184416423944b7654e0ea8d567effa4b1564503a4cc9ee08e276ba08ac09353"),
        ("sweep-lambda", "sweep_lambda.csv",
         "f19d42e66ed35a39c3f502649b664680deeb094f446c082b9aee33f2e11ce5c4"),
    ])
    def test_noiseless_artifact_bytes(self, tmp_path, capsys, command, name, sha):
        assert main([command, "--outdir", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha

    @pytest.mark.parametrize("ids1, ids2, want", [
        ("0.00046907", "0.00047053",
         "vgs_hat=3 vds_hat_1=5.00005 vds_hat_2=5.09974 corrected=0 in_range=1"),
        ("0.00046907", "0.00046907",
         "vgs_hat=3 vds_hat_1=5.00005 vds_hat_2=5.00005 corrected=1 in_range=1"),
        ("1e-09", "0.02",
         "vgs_hat=5 vds_hat_1=-27.027 vds_hat_2=357.306 corrected=0 in_range=0"),
    ])
    def test_decode_stdout(self, capsys, ids1, ids2, want):
        assert main(["decode", "--ids1", ids1, "--ids2", ids2]) == 0
        assert capsys.readouterr().out == want + "\n"

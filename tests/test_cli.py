"""CLI tests: config resolution, subcommand artifacts, reproducibility."""

import dataclasses
import hashlib
import math
import multiprocessing
import os
import re
from pathlib import Path

import numpy as np
import pytest

from ajscc import experiments
from ajscc.cli import COMMANDS, ConfigError, RunConfig, dispatch, main, parse_config
from ajscc.codec import CodecConfig, build_levels, check_decodable, check_vds_range
from ajscc.experiments import LinkConfig
from ajscc.mosfet import MosfetParams
from ajscc.phenomenon import check_seed

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

    def test_link_carries_each_key_into_its_field(self):
        # every field is off its default, and values of one type differ, so a key
        # read into another field shows
        cfg = RunConfig(k_gain=2e-4, v_th=0.6, lam=0.05, vgs_lo=6.0, vgs_hi=9.0, vds_lo=5.5,
                        vds_hi=9.5, nx=12, ny=8, nt=6, s_p=4, t_p=3, bandwidth=300e3,
                        snr_db=-7.0, doppler_fraction=0.03, rician_k_db=4.0, n_samples=1024,
                        oversample=5.0, fm_headroom=0.6, seeds=3, seed=11, workers=2)
        link = cfg.link()
        assert link == LinkConfig(
            mosfet=MosfetParams(k_gain=2e-4, v_th=0.6, lam=0.05), vgs_range=(6.0, 9.0),
            vds_range=(5.5, 9.5), nx=12, ny=8, nt=6, s_p=4, t_p=3, bandwidth=300e3,
            snr_db=-7.0, doppler_fraction=0.03, rician_k_db=4.0, n_samples=1024,
            oversample=5.0, fm_headroom=0.6, n_seeds=3, seed=11, workers=2)
        assert all(getattr(link, f.name) != getattr(LinkConfig(), f.name)
                   for f in dataclasses.fields(LinkConfig))

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
        ("--snr-db", "-400"), ("--rician-k-db", "3100"),
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
        # the device takes no negative drain voltage
        ("decode", ["--ids1", "1e-3", "--ids2", "1.01e-3", "--vds-lo=-5", "--vds-hi=-1"],
         "vds_lo/vds_hi"),
        ("gen-field", ["--vds-lo=-5", "--vds-hi=-1"], "vds_lo/vds_hi"),
        ("sweep-delta", ["--vds-lo=-5", "--vds-hi=-1"], "vds_lo/vds_hi"),
        # 1 + lam * vds takes one float64 value over the whole drain range
        ("noiseless", ["--lam", "5e-324"], "lam"),
        ("decode", ["--ids1", "1e-3", "--ids2", "1.01e-3", "--lam", "5e-324"], "lam"),
        ("sweep-lambda", ["--lambda-grid", "1e-20,0.1"], "lambda_grid"),
        # faults raised by the delta sweep's channel and by a pinned spacing
        ("sweep-delta", ["--bandwidth", "0"], "bandwidth"),
        ("sweep-delta", ["--delta", "0.5", "--rician-k-db", "4000"], "rician_k_db"),
        ("sweep-delta", ["--delta", "0"], "delta"),
        ("sweep-snr", ["--delta", "0"], "delta"),
        # the coarsest grid spacing leaves one level
        ("sweep-delta", ["--delta-min", "1", "--delta-max", "6", "--delta-step", "1"],
         "delta_max"),
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
        ("sweep-delta", ["--delta", "5e-324"], "spacing 5e-324"),
        ("sweep-snr", ["--delta", "5e-324"], "spacing 5e-324"),
        ("sweep-delta", ["--nx", "5", "--s-p", "10"], "s_p=10 exceeds grid 5x"),
        ("gen-field", ["--nx", "5", "--s-p", "10"], "s_p=10 exceeds grid 5x"),
        ("sweep-delta", ["--nt", "5", "--t-p", "10"], "t_p=10 exceeds nt=5"),
        ("sweep-delta", ["--nt", "1", "--t-p", "1"], "need at least 2 samples to decode"),
        ("noiseless", ["--noiseless-levels", "1,3,2"], "levels must be strictly ascending"),
        ("encode", ["--noiseless-levels", "1,3,2", "--vgs", "5", "--vds", "7"],
         "levels must be strictly ascending"),
        ("noiseless", ["--noiseless-vds-start", "20"],
         "vds outside configured range (5.0, 10.0)"),
        ("noiseless", ["--noiseless-vds-start", "4"],
         "vds outside configured range (5.0, 10.0)"),
        ("noiseless", ["--noiseless-vds-step", "nan"],
         "vds outside configured range (5.0, 10.0)"),
        ("sweep-lambda", ["--noiseless-vds-step", "nan"],
         "vds outside configured range (5.0, 10.0)"),
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
        ("decode", ["--ids1", "1e-3", "--ids2", "2e-3", "--vds-lo", "0", "--lam", "2e6"],
         "decoding needs vds_range above -1/lam"),
        ("noiseless", ["--k-gain", "inf"], "k_gain must be finite, got inf"),
        ("noiseless", ["--lam", "inf"], "lam must be finite, got inf"),
        ("gen-field", ["--vds-lo=-inf"],
         "vds_range must have finite lo < hi, lo >= 0, got (-inf, 10.0)"),
        ("gen-field", ["--vds-hi", "inf"],
         "vds_range must have finite lo < hi, lo >= 0, got (5.0, inf)"),
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

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the dying replicate is patched in, which only a fork inherits")
    def test_a_dead_worker_exits_without_traceback_or_artifacts(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
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


def _config_file(tokens, path: Path, keys=None) -> str:
    """Write ``key=value`` tokens as a ``key = value`` config file, each key
    renamed by ``keys`` where it has an entry; returns the file's path."""
    pairs = (tok.split("=", 1) for tok in tokens)
    path.write_text("".join(f"{(keys or {}).get(k, k)} = {v}\n" for k, v in pairs))
    return str(path)


class TestRulesStatedOnce:
    """Each codec input rule has one statement, in the library object that owns it:
    every other layer asks that owner, so the layers cannot drift apart."""

    @pytest.mark.parametrize("vds_range", [(-5.0, -1.0), (10.0, 5.0), (5.0, math.inf)])
    def test_link_and_codec_reject_a_drain_range_alike(self, tmp_path, capsys, vds_range):
        with pytest.raises(ValueError) as rule:
            check_vds_range(vds_range)
        with pytest.raises(ValueError) as link:
            LinkConfig(vds_range=vds_range)
        with pytest.raises(ValueError) as codec:
            CodecConfig([5.0, 10.0], vds_range)
        assert str(link.value) == str(codec.value) == str(rule.value)
        # every command reports it under the keys that set the range
        required = {"encode": ["--vgs", "7", "--vds", "7"],
                    "decode": ["--ids1", "1e-3", "--ids2", "2e-3"]}
        out = tmp_path / "out"
        for command in COMMANDS:
            assert main([command, "--outdir", str(out), f"--vds-lo={vds_range[0]}",
                         f"--vds-hi={vds_range[1]}", *required.get(command, [])]) == 1
            err = capsys.readouterr().err
            assert err == f"error: invalid value for 'vds_lo/vds_hi': {rule.value}\n", command
            assert not out.exists()

    @pytest.mark.parametrize("lam", [0.0, 5e-324, 1e-20, math.inf, math.nan, 0.037])
    def test_lambda_grid_rejects_what_the_decoder_rejects(self, lam):
        cfg = RunConfig(lambda_grid=str(lam))
        try:
            check_decodable(MosfetParams(lam=lam), cfg.vds_range())
        except ValueError:
            with pytest.raises(ConfigError, match="invalid value for 'lambda_grid'"):
                cfg.lambda_list()
        else:
            assert cfg.lambda_list() == [lam]

    @pytest.mark.parametrize("flags", [["--k-gain", "0"], ["--v-th", "nan"]])
    def test_device_faults_are_not_lambda_grid_faults(self, tmp_path, capsys, flags):
        assert main(["sweep-lambda", "--outdir", str(tmp_path), *flags]) == 1
        err = capsys.readouterr().err
        assert "invalid value for 'k_gain/v_th/lam'" in err
        assert "'lambda_grid'" not in err

    @pytest.mark.parametrize("command, flags, key, owner", [
        ("gen-field", ["--seed", "-1"], "seed", lambda: check_seed(-1, tuples=False)),
        ("sweep-delta", ["--delta-min", "0"], "delta_min", lambda: build_levels((5.0, 10.0), 0.0)),
    ])
    def test_cli_reports_the_owners_message_by_key(self, tmp_path, capsys, command, flags,
                                                   key, owner):
        with pytest.raises(ValueError) as rule:
            owner()
        assert main([command, "--outdir", str(tmp_path / "out"), *flags]) == 1
        assert capsys.readouterr().err == f"error: invalid value for '{key}': {rule.value}\n"
        assert not (tmp_path / "out").exists()

    def test_snr_sweep_channel_faults_name_no_link_key(self, tmp_path, capsys):
        # sweep-snr sets its channels by snr_min/snr_max/bandwidths, never snr_db/bandwidth
        assert main(["sweep-snr", "--outdir", str(tmp_path / "out"), "--snr-min", "-400",
                     "--snr-max", "-400"]) == 1
        err = capsys.readouterr().err
        assert "'snr_db'" not in err and "'bandwidth'" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        ("noiseless", []),
        ("sweep-lambda", []),
        ("decode", ["--ids1", "1e-3", "--ids2", "2e-3"]),
    ])
    def test_an_unbounded_drain_range_is_not_a_lam_fault(self, tmp_path, capsys, command,
                                                          flags):
        assert main([command, "--outdir", str(tmp_path), "--vds-hi", "inf", *flags]) == 1
        err = capsys.readouterr().err
        assert "vds_range must have finite lo < hi" in err
        assert "'lam'" not in err and "'lambda_grid'" not in err


class TestWorkerCountInvariance:
    """A link sweep's rows are byte-identical at any worker count; only the
    echo line's ``workers=`` differs."""

    @pytest.mark.parametrize("command, name, flags", [
        ("sweep-delta", "sweep_delta.csv",
         ["--delta-min", "0.3", "--delta-max", "0.6", "--delta-step", "0.1"]),
        ("sweep-snr", "sweep_snr.csv",
         ["--snr-min", "-30", "--snr-max", "-10", "--snr-step", "20",
          "--bandwidths", "50e3,410e3"]),
    ])
    def test_rows_do_not_depend_on_the_worker_count(self, tmp_path, command, name, flags):
        echoes, bodies = set(), set()
        for workers in (1, 2, 3):  # three replicates, so three workers each take one
            out = tmp_path / str(workers)
            assert main([command, "--outdir", str(out), *FAST_LINK, *flags, "--seeds", "3",
                         "--workers", str(workers)]) == 0
            echo, body = (out / name).read_bytes().split(b"\n", 1)
            echoes.add(re.sub(rb" workers=\d+", b"", echo))
            bodies.add(body)
        assert len(echoes) == 1 and len(bodies) == 1


class TestReproducibleFromOutput:
    """A run is reproducible from its own output: the artifact's first line,
    written back as a config file, gives the same bytes and the same stdout."""

    @pytest.mark.parametrize("command, name, flags", [
        ("noiseless", "noiseless.csv", ["--lam", "0.05", "--noiseless-vds-count", "30"]),
        ("sweep-lambda", "sweep_lambda.csv",
         ["--lambda-grid", "0.01,0.05,0.2", "--noiseless-levels", "1,3,5"]),
        ("sweep-delta", "sweep_delta.csv",
         ["--delta-min", "0.3", "--delta-max", "0.6", "--delta-step", "0.1", "--seed", "7",
          *FAST_LINK]),
        ("sweep-snr", "sweep_snr.csv", ["--snr-min", "-30", "--snr-max", "-10", "--snr-step",
                                        "20", "--bandwidths", "50e3,410e3", "--seed", "7",
                                        *FAST_LINK]),
        ("sweep-lambda", "sweep_lambda.csv",
         ["--lambda-grid", "0.01, 0.05", "--noiseless-levels", "1, 3, 5"]),
    ])
    def test_rerun_from_the_echo_line(self, tmp_path, capsys, command, name, flags):
        assert main([command, "--outdir", str(tmp_path / "a"), "--workers", "1", *flags]) == 0
        out, first = capsys.readouterr().out, (tmp_path / "a" / name).read_bytes()
        echo = first.decode().splitlines()[0]
        assert echo.startswith("# ajscc ")
        cfg = _config_file(echo[len("# ajscc "):].split(), tmp_path / "echo.cfg")
        assert main([command, "--config", cfg, "--outdir", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out == out
        assert (tmp_path / "b" / name).read_bytes() == first

    def test_field_rerun_from_its_metadata_line(self, tmp_path, capsys):
        # field.csv starts with the field's own metadata, not the config echo
        assert main(["gen-field", "--outdir", str(tmp_path / "a"), "--nx", "4", "--ny", "6",
                     "--nt", "4", "--s-p", "2", "--t-p", "2", "--vds-lo", "1.5",
                     "--vds-hi", "2.5", "--seed", "7"]) == 0
        out, first = capsys.readouterr().out, (tmp_path / "a" / "field.csv").read_bytes()
        cfg = _config_file(first.decode().splitlines()[0][1:].split(), tmp_path / "field.cfg",
                           {"lo": "vds_lo", "hi": "vds_hi"})
        assert main(["gen-field", "--config", cfg, "--outdir", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out == out.replace(str(tmp_path / "a"), str(tmp_path / "b"))
        assert (tmp_path / "b" / "field.csv").read_bytes() == first


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

    @pytest.mark.parametrize("command, flags, name, sha", [
        ("gen-field", [], "field.csv",
         "6ce062e15597b5a1ecf50a318069abbe95787fc9fb950e788c8de9647aeb3aaa"),
        ("sweep-delta", ["--workers", "2"], "sweep_delta.csv",
         "cb97782cd4a35fafc4f46575b68fd9dbff0dc72c77d5cc4159a605b878624b56"),
        ("sweep-snr", ["--workers", "2"], "sweep_snr.csv",
         "780eb7633ae1b186d9bc3d2a085f5d0e3db37185444698c81d35bb8dfc57db0f"),
    ])
    def test_field_and_link_artifact_bytes(self, tmp_path, capsys, command, flags, name, sha):
        assert main([command, "--outdir", str(tmp_path), *flags]) == 0
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

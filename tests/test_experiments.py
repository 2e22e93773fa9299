"""Experiment-layer tests: block MSE, noiseless studies, link pipeline."""

import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ajscc
from ajscc import experiments
from ajscc.codec import RANGE_TOL, CodecConfig, build_levels, decode_pairs, encode, quantize
from ajscc.experiments import (
    DEFAULT_BANDWIDTHS,
    NOISELESS_LEVELS,
    SOURCE_RANGE,
    LinkConfig,
    MseReport,
    mse_averaged,
    run_link_point,
    run_noiseless,
    sweep_delta,
    sweep_lambda,
    sweep_snr,
)
from ajscc.mosfet import MosfetParams, drain_current
from ajscc.phenomenon import block_means, generate_field

P = MosfetParams()
# the field-pair rule's message for a (4, 4, 4) gate field and a (4, 4, 2) drain field
PAIR_4x4x4_4x4x2 = (r"the two fields must share block geometry and shape, got "
                    r"gs \(4, 4, 4\) with s_p=2, t_p=2 and ds \(4, 4, 2\) with s_p=2, t_p=2")


def tiny_link_cfg(**kw):
    base = dict(nx=4, ny=4, nt=4, s_p=2, t_p=2, n_samples=512, n_seeds=2, seed=5)
    base.update(kw)
    return LinkConfig(**base)


class TestMseAveraged:
    def test_perfect_estimates_give_zero(self):
        f = generate_field(8, 8, 4, 4, 2, 5.0, 10.0, seed=1)
        rpt = mse_averaged(f, f.values, f, f.values)
        assert rpt.mse_gs == 0.0 and rpt.mse_ds == 0.0 and rpt.mse_sum == 0.0
        assert rpt.n_blocks == 8

    def test_constant_offset_passes_through_block_means(self):
        f = generate_field(8, 8, 4, 4, 2, 5.0, 10.0, seed=2)
        rpt = mse_averaged(f, f.values + 0.3, f, f.values - 0.2)
        assert rpt.mse_gs == pytest.approx(0.09, rel=1e-12)
        assert rpt.mse_ds == pytest.approx(0.04, rel=1e-12)
        assert rpt.mse_sum == pytest.approx((0.09 + 0.04) / 2, rel=1e-12)

    def test_iid_noise_averages_down_by_block_size(self):
        # zero-mean per-sample noise with variance s2 over 5x5x5 blocks
        # should leave roughly s2/125 after block averaging
        f = generate_field(20, 20, 20, 5, 5, 5.0, 10.0, seed=3)
        rng = np.random.default_rng(4)
        s2 = 0.25
        noisy = f.values + rng.normal(0.0, math.sqrt(s2), f.values.shape)
        rpt = mse_averaged(f, noisy, f, f.values)
        assert 0.4 * s2 / 125 < rpt.mse_gs < 1.8 * s2 / 125

    def test_shape_mismatch_rejected(self):
        f = generate_field(4, 4, 2, 2, 2, 0.0, 1.0, seed=5)
        with pytest.raises(ValueError, match="shape"):
            mse_averaged(f, np.zeros((4, 4, 3)), f, f.values)

    def test_ds_shape_mismatch_rejected(self):
        # a (4, 4, 3) estimate has (2, 2, 2) block means, which broadcast
        # against the field's (2, 2, 1) without an error
        f = generate_field(4, 4, 2, 2, 2, 0.0, 1.0, seed=5)
        with pytest.raises(ValueError, match=r"ds estimate shape \(4, 4, 3\)"):
            mse_averaged(f, f.values, f, np.zeros((4, 4, 3)))

    def test_block_geometry_mismatch_rejected(self):
        a = generate_field(4, 4, 2, 2, 2, 0.0, 1.0, seed=6)
        b = generate_field(4, 4, 2, 2, 1, 0.0, 1.0, seed=6)
        with pytest.raises(ValueError, match="geometry"):
            mse_averaged(a, a.values, b, b.values)

    def test_fields_of_another_shape_rejected(self):
        # each field scored against its own estimate passed, and the report
        # gave the gate field's 8 blocks though the drain field has 4
        gs = generate_field(4, 4, 4, 2, 2, 5.0, 10.0, seed=1)
        ds = generate_field(4, 4, 2, 2, 2, 5.0, 10.0, seed=2)
        with pytest.raises(ValueError, match=PAIR_4x4x4_4x4x2):
            mse_averaged(gs, gs.values, ds, ds.values)

    def test_report_validates(self):
        with pytest.raises(ValueError):
            MseReport(-1.0, 0.0, 8)

    @pytest.mark.parametrize("mse_gs, mse_ds", [(0.1, 0.2), (1e-17, 3.0), (0.0, 0.0)])
    def test_report_sums_itself(self, mse_gs, mse_ds):
        rpt = MseReport(np.float64(mse_gs), mse_ds, np.int64(8))
        assert rpt.mse_sum == (mse_gs + mse_ds) / 2.0
        assert (type(rpt.mse_gs), type(rpt.mse_ds), type(rpt.n_blocks)) == (float, float, int)
        with pytest.raises(TypeError):
            MseReport(mse_gs, mse_ds, 0.0, 8)  # mse_sum is not an argument


class TestRunNoiseless:
    def test_corrected_decoding_is_exact(self):
        res = run_noiseless(P)
        assert res.accuracy == 1.0
        assert res.mse_gs == 0.0
        assert res.mse_ds < 1e-10
        assert res.vgs_true.size == 250

    def test_uncorrected_misdecodes_cluster_at_high_vds(self):
        res = run_noiseless(P)
        assert res.accuracy_pre < 1.0
        bad = res.vgs_hat_pre != res.vgs_true
        assert np.all(res.vds_true[bad] >= 9.5)
        assert set(res.vgs_true[bad]) == {4.0}
        # correction fires exactly on those pairs
        assert np.array_equal(res.corrected, bad)

    def test_small_lambda_needs_no_correction(self):
        res = run_noiseless(MosfetParams(lam=0.001))
        assert res.accuracy_pre == 1.0

    def test_grid_outside_range_rejected(self):
        with pytest.raises(ValueError, match="vds outside configured range"):
            run_noiseless(P, vds_grid=np.array([4.0, 5.0]))

    def test_nan_grid_point_rejected(self):
        with pytest.raises(ValueError, match="vds outside configured range"):
            run_noiseless(P, vds_grid=np.array([5.0, np.nan]))

    def test_encoder_and_study_share_the_range_tolerance(self):
        # one RANGE_TOL decides "in range" for the encoder and the study alike
        codec = CodecConfig(NOISELESS_LEVELS, SOURCE_RANGE)
        hi = SOURCE_RANGE[1]
        inside = np.array([5.0, 7.5, hi + RANGE_TOL / 2])
        encode(P, codec, codec.levels[:, None], inside)
        assert run_noiseless(P, vds_grid=inside).accuracy == 1.0
        outside = np.array([5.0, 7.5, hi + 2 * RANGE_TOL])
        with pytest.raises(ValueError) as enc:
            encode(P, codec, codec.levels[:, None], outside)
        with pytest.raises(ValueError) as study:
            run_noiseless(P, vds_grid=outside)
        assert str(study.value) == str(enc.value) == f"vds outside configured range {SOURCE_RANGE}"


class TestSweepLambda:
    def test_breakdown_beyond_point_zero_three(self):
        sw = sweep_lambda()
        pre = dict(zip(sw.lambdas, sw.mse_pre))
        post = dict(zip(sw.lambdas, sw.mse_post))
        low = max(v for k, v in pre.items() if k <= 0.02)
        high = max(v for k, v in pre.items() if 0.03 <= k <= 0.2)
        assert low < 1e-6
        assert high >= 100 * max(low, 1e-12)
        assert max(post.values()) < 1e-6

    def test_points_run_the_base_device_at_their_lam(self):
        # every constant of ``base`` but lam reaches each point's device
        base, lambdas = MosfetParams(k_gain=300e-6, v_th=0.5, lam=0.9), (0.05, 0.1)
        sw = sweep_lambda(lambdas, base=base)
        runs = [run_noiseless(dataclasses.replace(base, lam=lam)) for lam in lambdas]
        assert sw == experiments.LambdaSweep(
            lambdas, tuple((r.mse_gs_pre + r.mse_ds_pre) / 2.0 for r in runs),
            tuple((r.mse_gs + r.mse_ds) / 2.0 for r in runs),
            tuple(r.accuracy_pre for r in runs), tuple(r.accuracy for r in runs))
        assert sw != sweep_lambda(lambdas)  # the default device's sweep differs

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="ascending"):
            sweep_lambda([0.1, 0.05])
        with pytest.raises(ValueError):
            sweep_lambda([0.0, 0.1])


class TestLinkPipeline:
    def test_ideal_link_recovers_quantizer_exactly(self):
        # perfect current delivery: gate error is pure quantization, drain
        # error is float round-off only
        cfg = LinkConfig(vgs_range=(1.0, 5.0), vds_range=(5.0, 10.0),
                         nx=8, ny=8, nt=8, s_p=4, t_p=4, seed=9)
        gs, ds = cfg.fields(0)
        rpt = run_link_point(cfg, gs, ds, delta=1.0, chan=None, link_seed=0)
        levels = np.arange(1.0, 6.0)
        direct = np.mean((block_means(quantize(gs.values, levels), 4, 4)
                          - block_means(gs.values, 4, 4)) ** 2)
        assert rpt.mse_gs == pytest.approx(direct, rel=1e-12, abs=1e-30)
        assert rpt.mse_ds < 1e-20

    def test_noiseless_fm_loop_bounded_by_bin_width(self):
        # coarse levels, drain field kept inside the checked range so FFT
        # bin rounding cannot eject the true level at the boundaries
        cfg = LinkConfig(vgs_range=(3.0, 5.0), vds_range=(5.0, 10.0),
                         nx=6, ny=6, nt=4, s_p=3, t_p=2,
                         snr_db=math.inf, rician_k_db=math.inf,
                         doppler_fraction=0.0, seed=10)
        gs = generate_field(6, 6, 4, 3, 2, 3.0, 5.0, seed=11)
        ds = generate_field(6, 6, 4, 3, 2, 5.5, 9.5, seed=12)
        chan = cfg.channel()
        rpt = run_link_point(cfg, gs, ds, delta=1.0, chan=chan, link_seed=1)
        levels = np.arange(3.0, 6.0)
        direct = np.mean((block_means(quantize(gs.values, levels), 3, 2)
                          - block_means(gs.values, 3, 2)) ** 2)
        assert rpt.mse_gs == pytest.approx(direct, rel=1e-12, abs=1e-30)
        bin_current = chan.sample_rate / chan.n_samples / chan.fm_scale
        slope_min = P.lam * 0.5 * P.k_gain * (3.0 - P.v_th) ** 2
        vds_bound = 0.5 * bin_current / slope_min
        assert rpt.mse_ds <= vds_bound ** 2

    def test_quantization_term_grows_with_spacing(self):
        # alias-free spacings, perfect link: block MSE is the quantization
        # error, non-decreasing in the spacing (averaged over replicates)
        cfg = LinkConfig(nx=12, ny=12, nt=12, s_p=2, t_p=2, seed=13)
        means = []
        for delta in (0.7, 1.0, 1.25):
            vals = [run_link_point(cfg, *cfg.fields(rep), delta=delta, chan=None,
                                   link_seed=0).mse_gs for rep in range(10)]
            means.append(np.mean(vals))
        assert means[0] < means[1] < means[2]

    def test_vectorized_decode_matches_stream_reference(self):
        # the array decode path must agree with decoding each pair on its
        # own, including the range-informed vds policy and, for odd nt, the
        # tail pair that supplies the trailing sample
        from ajscc.channel import simulate_link
        for nt in (4, 5):
            cfg = tiny_link_cfg(nt=nt, snr_db=-15.0)
            gs, ds = cfg.fields(0)
            chan = cfg.channel()
            rpt = run_link_point(cfg, gs, ds, delta=0.5, chan=chan, link_seed=(5, 0))

            codec = CodecConfig(build_levels(cfg.vgs_range, 0.5), cfg.vds_range)
            ids = drain_current(P, quantize(gs.values, codec.levels), ds.values)
            ids_hat = simulate_link(ids.reshape(-1, nt), chan, (5, 0))
            est_gs = np.empty_like(ids_hat)
            est_ds = np.empty_like(ids_hat)

            def pair(row, a):
                g, v1, v2, _, ok = decode_pairs(P, codec, row[a:a + 1], row[a + 1:a + 2])
                if not ok[0]:
                    return g[0], (7.5, 7.5)
                return g[0], (np.clip(v1[0], 5.0, 10.0), np.clip(v2[0], 5.0, 10.0))

            for s, row in enumerate(ids_hat):
                for a in range(0, nt - 1, 2):
                    est_gs[s, a:a + 2], est_ds[s, a:a + 2] = pair(row, a)
                if nt % 2:  # the tail pair (nt-2, nt-1) supplies the last sample only
                    g, vds = pair(row, nt - 2)
                    est_gs[s, -1], est_ds[s, -1] = g, vds[1]
            ref = mse_averaged(gs, est_gs.reshape(gs.values.shape),
                               ds, est_ds.reshape(ds.values.shape))
            assert (rpt.mse_gs, rpt.mse_ds) == (ref.mse_gs, ref.mse_ds), nt

    def test_odd_stream_length_supported(self):
        cfg = LinkConfig(nx=3, ny=3, nt=5, s_p=3, t_p=2, n_samples=512,
                         n_seeds=1, seed=6)
        gs, ds = cfg.fields(0)
        rpt = run_link_point(cfg, gs, ds, delta=1.0, chan=cfg.channel(),
                             link_seed=(6, 0))
        assert rpt.mse_gs >= 0 and rpt.mse_ds >= 0

    @pytest.mark.parametrize("ds_geometry, match", [
        ((4, 4, 1, 2, 1), r"the two fields must share block geometry and shape, got gs "
                          r"\(4, 4, 4\) with s_p=2, t_p=2 and ds \(4, 4, 1\) with s_p=2, t_p=1"),
        ((4, 4, 4, 1, 1), "the two fields must share block geometry"),
        ((4, 4, 2, 2, 2), PAIR_4x4x4_4x4x2),
    ], ids=["other_shape", "other_blocks", "other_nt"])
    @pytest.mark.parametrize("link", ["perfect", "channel"])
    def test_fields_of_another_geometry_rejected(self, ds_geometry, match, link):
        # a (4, 4, 1) drain field broadcast against the gate field's currents and
        # was scored against block means of another shape; other blocks failed
        # in numpy's broadcast, naming neither field
        cfg = LinkConfig(nx=4, ny=4, nt=4, s_p=2, t_p=2, n_samples=512, seed=5)
        gs, _ = cfg.fields(0)
        ds = generate_field(*ds_geometry, 5.0, 10.0, seed=3)
        chan = cfg.channel() if link == "channel" else None
        with pytest.raises(ValueError, match=match):
            run_link_point(cfg, gs, ds, 0.5, chan, (5, 0))


class TestPerfectLinkFloor:
    def test_knee_config_pairs_are_degenerate_and_vds_is_worse_than_the_midpoint(self):
        # The knee test's config at 0.41 V spacing on a perfect link.  Both
        # fields are block-constant and no pair straddles a 10-instant block,
        # so every pair carries two equal currents: no slope score is
        # compared, and the decoder falls back to the lowest in-range level.
        cfg = LinkConfig(n_seeds=5)
        codec = CodecConfig(build_levels(cfg.vgs_range, 0.41), cfg.vds_range)
        shares, mse_ds = [], []
        for rep in range(cfg.n_seeds):
            gs, ds = cfg.fields(rep)
            ids = drain_current(cfg.mosfet, quantize(gs.values, codec.levels), ds.values)
            shares.append(np.mean(ids[..., 0::2] == ids[..., 1::2]))
            mse_ds.append(run_link_point(cfg, gs, ds, 0.41, None, None).mse_ds)
        assert np.mean(shares) == 1.0
        # above the variance of U(5, 10), the MSE of the midpoint estimate
        assert np.mean(mse_ds) > 25 / 12


class TestSweeps:
    def test_sweep_delta_result_structure(self):
        cfg = tiny_link_cfg()
        sw = sweep_delta((0.4, 0.8), cfg)
        assert sw.points == (0.4, 0.8)
        assert len(sw.reports) == 2
        assert sw.metadata.keys() == {"delta_star", "argmin_index"}
        assert sw.metadata["delta_star"] == sw.points[sw.metadata["argmin_index"]]
        for r in sw.reports:
            assert r.n_blocks == 8
            assert r.mse_sum == pytest.approx((r.mse_gs + r.mse_ds) / 2)

    def test_sweep_delta_deterministic(self):
        cfg = tiny_link_cfg()
        a = sweep_delta((0.4, 0.8), cfg)
        b = sweep_delta((0.4, 0.8), cfg)
        assert a == b
        c = sweep_delta((0.4, 0.8), tiny_link_cfg(seed=6))
        assert c != a

    def test_sweep_delta_worker_count_does_not_change_results(self):
        a = sweep_delta((0.4, 0.8), tiny_link_cfg(workers=1))
        b = sweep_delta((0.4, 0.8), tiny_link_cfg(workers=2))
        assert a == b

    def test_sweep_snr_worker_count_does_not_change_results(self):
        a = sweep_snr((-30.0, -10.0), (50e3, 410e3), 0.5, tiny_link_cfg(n_seeds=3, workers=1))
        b = sweep_snr((-30.0, -10.0), (50e3, 410e3), 0.5, tiny_link_cfg(n_seeds=3, workers=2))
        assert a == b

    @pytest.mark.parametrize("n_seeds, workers", [(1, 2), (3, 1), (2, 2), (2, 3), (3, 3)])
    def test_caller_computes_one_share(self, monkeypatch, n_seeds, workers):
        real, starts = multiprocessing.Process.start, []

        def counting(proc):
            starts.append(proc)
            real(proc)

        monkeypatch.setattr(multiprocessing.Process, "start", counting)
        sw = sweep_delta((0.4, 0.8), tiny_link_cfg(n_seeds=n_seeds, workers=workers))
        assert len(starts) == min(workers, n_seeds) - 1
        assert multiprocessing.active_children() == []
        assert sw == sweep_delta((0.4, 0.8), tiny_link_cfg(n_seeds=n_seeds, workers=1))

    def test_uneven_shares_do_not_change_results(self):
        cfg = tiny_link_cfg(n_seeds=5, workers=3)
        one = tiny_link_cfg(n_seeds=5, workers=1)
        assert sweep_delta((0.4, 0.8), cfg) == sweep_delta((0.4, 0.8), one)
        snr_args = ((-30.0, -10.0), (50e3, 410e3), 0.5)
        assert sweep_snr(*snr_args, cfg) == sweep_snr(*snr_args, one)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the failing replicate is patched in, which only a fork inherits")
    def test_a_childs_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
        real = experiments._replicate_task

        def fail_odd(args):
            if args[3] % 2:
                raise KeyError(f"replicate {args[3]} failed")
            return real(args)

        monkeypatch.setattr(experiments, "_replicate_task", fail_odd)
        with pytest.raises(KeyError, match="replicate 1 failed"):
            sweep_delta((0.4, 0.8), tiny_link_cfg(n_seeds=2, workers=2))
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the dying replicate is patched in, which only a fork inherits")
    def test_a_child_that_dies_is_reported_with_its_exit_code(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
        real = experiments._replicate_task

        def die_odd(args):
            if args[3] % 2:
                os._exit(3)
            return real(args)

        monkeypatch.setattr(experiments, "_replicate_task", die_odd)
        with pytest.raises(ChildProcessError, match="a sweep worker exited with code 3"):
            sweep_delta((0.4, 0.8), tiny_link_cfg(n_seeds=2, workers=2))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_every_start_method_gives_the_in_process_result(self, tmp_path, method):
        # macOS and Windows spawn their workers and Linux forkservers them from
        # Python 3.14: a worker then imports the package instead of inheriting it
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} is not available here")
        args = ((-30.0, -10.0), (50e3, 410e3), 0.5)
        want = sweep_snr(*args, tiny_link_cfg(n_seeds=3, workers=2))
        script = tmp_path / "start_method.py"
        script.write_text(
            "import multiprocessing, sys\n"
            "from ajscc import experiments\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method(sys.argv[1])\n"
            "    cfg = experiments.LinkConfig(nx=4, ny=4, nt=4, s_p=2, t_p=2, n_samples=512,\n"
            "                                 n_seeds=3, seed=5, workers=2)\n"
            f"    print(repr(experiments.sweep_snr(*{args!r}, cfg).reports))\n"
            "    print(multiprocessing.active_children())\n")
        env = {**os.environ, "PYTHONPATH": str(Path(ajscc.__file__).parents[1])}
        out = subprocess.run([sys.executable, str(script), method], capture_output=True,
                             text=True, env=env, timeout=60, check=True)
        assert out.stdout.splitlines() == [repr(want.reports), "[]"]

    def test_a_failing_caller_share_leaves_no_process(self, monkeypatch):
        real = experiments._replicate_task

        def fail_first(args):
            if args[3] == 0:
                raise KeyError("replicate 0 failed")
            return real(args)

        monkeypatch.setattr(experiments, "_replicate_task", fail_first)
        with pytest.raises(KeyError, match="replicate 0 failed"):
            sweep_delta((0.4, 0.8), tiny_link_cfg(n_seeds=3, workers=3))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("caller_fails", [False, True])
    def test_a_share_larger_than_the_pipe_buffer_completes(self, tmp_path, caller_fails):
        # each replicate sends the MSEs of 13000 points, about 200 kB, more than a
        # pipe buffers, so a caller that joined a child before receiving its share
        # would wait for ever
        script = tmp_path / "big_share.py"
        script.write_text(
            "import numpy as np\n"
            "from ajscc import experiments\n"
            "def big(args):\n"
            f"    if {caller_fails} and args[3] == 0:\n"
            "        raise KeyError('caller share failed')\n"
            "    return np.tile([1.0, 2.0], (len(args[1]), 1))\n"
            "experiments._replicate_task = big\n"
            "if __name__ == '__main__':\n"
            "    cfg = experiments.LinkConfig(nx=4, ny=4, nt=4, s_p=2, t_p=2, n_seeds=4,\n"
            "                                 workers=2)\n"
            "    try:\n"
            "        sw = experiments.sweep_delta(np.linspace(1.0, 4.0, 13_000), cfg)\n"
            "        print(sw.reports[-1].mse_sum)\n"
            "    except KeyError as exc:\n"
            "        print(exc)\n"
            "    import multiprocessing\n"
            "    print(multiprocessing.active_children())\n")
        env = {**os.environ, "PYTHONPATH": str(Path(ajscc.__file__).parents[1])}
        out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                             env=env, timeout=60, check=True)
        want = "'caller share failed'" if caller_fails else "1.5"
        assert out.stdout.split("\n")[:2] == [want, "[]"]

    def test_importing_the_cli_leaves_multiprocessing_out(self):
        code = "import sys, ajscc.cli; print('multiprocessing' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(ajscc.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("n_seeds, workers", [(1, 1), (3, 1), (3, 2), (3, 3), (8, 2)],
                             ids=["one_replicate", "three_replicates_1_worker",
                                  "three_replicates_2_workers", "three_replicates_3_workers",
                                  "eight_replicates_2_workers"])
    @pytest.mark.parametrize("axis", ["snr", "delta"])
    def test_sweep_points_are_link_points(self, axis, n_seeds, workers):
        # each point of a replicate is the one-point pipeline run at the
        # replicate's fields and link seed, and a sweep point is np.mean of
        # the replicates' MSEs, bit for bit: from 8 replicates on, a mean over
        # a strided axis sums in another order and differs in the last bit
        cfg = tiny_link_cfg(n_seeds=n_seeds, workers=workers)
        if axis == "snr":
            sw = sweep_snr((-30.0, -10.0), (50e3, 200e3, 410e3), 0.5, cfg)
            links = [(0.5, cfg.channel(bandwidth=bw, snr_db=snr)) for snr, bw in sw.points]
        else:
            sw = sweep_delta((0.4, 0.8), cfg)
            links = [(delta, cfg.channel()) for delta in sw.points]
        for (delta, chan), r in zip(links, sw.reports, strict=True):
            ones = [run_link_point(cfg, *cfg.fields(rep), delta, chan, link_seed=(cfg.seed, rep))
                    for rep in range(n_seeds)]
            assert (r.mse_gs, r.mse_ds) == (np.mean([one.mse_gs for one in ones]),
                                            np.mean([one.mse_ds for one in ones]))
            assert r.n_blocks == ones[0].n_blocks

    def test_equal_link_outputs_decode_once(self, monkeypatch):
        # 200 kHz is exactly 4 x 50 kHz, so the two links give bit-identical
        # estimates and each SNR's pair of points is decoded and scored once
        real, calls = experiments.decode_stream, []

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(experiments, "decode_stream", counting)
        sw = sweep_snr((-30.0, -10.0), (50e3, 200e3), 0.5, tiny_link_cfg(n_seeds=1))
        assert len(calls) == 2
        assert [bw for _, bw in sw.points] == [50e3, 200e3, 50e3, 200e3]
        for r50, r200 in zip(sw.reports[::2], sw.reports[1::2]):
            assert (r50.mse_gs, r50.mse_ds) == (r200.mse_gs, r200.mse_ds)

    def test_every_bandwidth_decodes_once(self, monkeypatch):
        # the four default bandwidths share fm_cycles, so their links give
        # bit-identical estimates: one decode per SNR per replicate
        real, calls = experiments.decode_stream, []

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(experiments, "decode_stream", counting)
        cfg = tiny_link_cfg(n_seeds=2)
        sw = sweep_snr((-30.0, -10.0, math.inf), DEFAULT_BANDWIDTHS, 0.5, cfg)
        assert len(DEFAULT_BANDWIDTHS) == 4
        assert len(calls) == 3 * cfg.n_seeds
        for i in range(0, len(sw.reports), 4):
            assert len({(r.mse_gs, r.mse_ds) for r in sw.reports[i:i + 4]}) == 1

    def test_a_sweep_builds_each_spacing_once(self, monkeypatch):
        # the sweep builds each spacing's codec where it starts, and every
        # replicate shares it
        real, calls = experiments.build_levels, []

        def counting(vgs_range, delta):
            calls.append(delta)
            return real(vgs_range, delta)

        monkeypatch.setattr(experiments, "build_levels", counting)
        grid = [0.3, 0.5, 0.9]
        sweep_delta(grid, tiny_link_cfg(n_seeds=3))
        assert calls == grid

    def test_sweep_delta_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            sweep_delta((0.0, 0.4), tiny_link_cfg())

    def test_sweep_snr_point_layout(self):
        cfg = tiny_link_cfg()
        sw = sweep_snr((-30.0, -10.0), (50e3, 410e3), 0.5, cfg)
        assert sw.points == ((-30.0, 50e3), (-30.0, 410e3),
                             (-10.0, 50e3), (-10.0, 410e3))
        assert len(sw.reports) == len(sw.points)
        assert sw.metadata == {}

    def test_sweep_snr_rejects_unsorted(self):
        with pytest.raises(ValueError, match="ascending"):
            sweep_snr((-10.0, -30.0), (410e3,), 0.5, tiny_link_cfg())

    @pytest.mark.parametrize("sweep, match", [
        (lambda: sweep_delta([0.5, 0.3], tiny_link_cfg()), "ascending"),
        (lambda: sweep_delta([], tiny_link_cfg()), "non-empty"),
        (lambda: sweep_delta([math.nan], tiny_link_cfg()), "positive"),
        (lambda: sweep_delta([0.5], tiny_link_cfg(n_seeds=0)), "replicate"),
        (lambda: sweep_snr((-10.0,), (410e3,), 0.5, tiny_link_cfg(n_seeds=0)), "replicate"),
        (lambda: sweep_snr((), (410e3,), 0.5, tiny_link_cfg()), "non-empty"),
        (lambda: sweep_snr((-10.0,), (), 0.5, tiny_link_cfg()), "non-empty"),
        (lambda: sweep_delta([6.0], tiny_link_cfg(workers=2)), "yields 1 level"),
        (lambda: sweep_delta([0.5, 6.0], tiny_link_cfg()), "yields 1 level"),
        (lambda: sweep_snr((-10.0,), (410e3,), 6.0, tiny_link_cfg()), "yields 1 level"),
        (lambda: sweep_delta([0.5], tiny_link_cfg(nt=1, t_p=1, workers=2)), "at least 2 samples"),
        (lambda: sweep_snr((-10.0,), (410e3,), 0.5, tiny_link_cfg(nt=1, t_p=1)),
         "at least 2 samples"),
        (lambda: sweep_delta([0.5], tiny_link_cfg(nx=3, s_p=4)), "s_p=4 exceeds grid"),
        (lambda: sweep_snr((-10.0,), (410e3,), 0.5, tiny_link_cfg(t_p=5)), "t_p=5 exceeds nt"),
        (lambda: sweep_delta([0.5], tiny_link_cfg(vds_range=(5.0, 5.0))), "vds_range"),
        (lambda: sweep_delta([0.5], tiny_link_cfg(vgs_range=(0.5, 10.0))), "exceed v_th"),
        (lambda: sweep_snr((-10.0,), (410e3,), 0.5, tiny_link_cfg(vgs_range=(0.74, 10.0))),
         "exceed v_th"),
        (lambda: sweep_delta([0.5], tiny_link_cfg(rician_k_db=3100.0)), "rician_k_db"),
        (lambda: sweep_delta([0.5], tiny_link_cfg(vds_range=(-5.0, -1.0), workers=2)),
         r"vds_range must have finite lo < hi, lo >= 0, got \(-5.0, -1.0\)"),
        (lambda: sweep_snr((-10.0,), (410e3,), 0.5, tiny_link_cfg(mosfet=MosfetParams(lam=0.0))),
         "decoding needs lam > 0"),
        (lambda: sweep_delta([0.5], tiny_link_cfg(mosfet=MosfetParams(lam=5e-324), workers=2)),
         "decoding needs lam > 0"),
    ], ids=["unsorted_deltas", "no_deltas", "nan_delta", "delta_no_seeds", "snr_no_seeds",
            "no_snrs", "no_bandwidths", "one_level_pool", "one_level_on_grid", "snr_one_level",
            "one_sample_pool", "snr_one_sample", "block_wider_than_grid",
            "snr_window_longer_than_nt", "empty_vds_range", "level_below_threshold",
            "snr_level_at_threshold", "k_factor_overflows", "negative_vds_range", "lam_zero",
            "lam_subnormal"])
    def test_sweeps_reject_bad_input_before_any_replicate(self, monkeypatch, sweep, match):
        def no_replicate(args):
            raise AssertionError("a replicate ran before the input was checked")

        channel_calls = []
        monkeypatch.setattr("ajscc.experiments._replicate_task", no_replicate)
        monkeypatch.setattr("ajscc.experiments.simulate_link_grid",
                            lambda *args, **kw: channel_calls.append(args))
        with pytest.raises(ValueError, match=match):
            sweep()
        assert channel_calls == []

    @pytest.mark.parametrize("sweep", [
        lambda cfg: sweep_delta([0.5], cfg),
        lambda cfg: sweep_snr((-10.0,), (410e3,), 0.5, cfg),
    ], ids=["delta", "snr"])
    @pytest.mark.parametrize("headroom", [2.0, 0.0, math.nan])
    def test_sweeps_reject_fm_headroom_before_any_replicate(self, monkeypatch, sweep, headroom):
        # a headroom above 1 maps the top currents outside the band, which
        # the link itself would find only inside a replicate
        def no_replicate(args):
            raise AssertionError("a replicate ran before the input was checked")

        channel_calls = []
        monkeypatch.setattr("ajscc.experiments._replicate_task", no_replicate)
        monkeypatch.setattr("ajscc.experiments.simulate_link_grid",
                            lambda *args, **kw: channel_calls.append(args))
        with pytest.raises(ValueError, match="headroom"):
            sweep(tiny_link_cfg(fm_headroom=headroom))
        assert channel_calls == []


class TestLinkConfig:
    @pytest.mark.parametrize("kw, match", [
        (dict(nt=1, t_p=1), "need at least 2 samples to decode"),
        (dict(n_seeds=0), "need at least one replicate"),
        (dict(nx=3, s_p=4), "s_p=4 exceeds grid 3x20"),
        (dict(nx=0), "nx must be >= 1"),
        (dict(vgs_range=(5.0, 5.0)), "vgs_range must have finite lo < hi"),
        (dict(vds_range=(10.0, 5.0)), "vds_range must have finite lo < hi"),
        (dict(vds_range=(5.0, math.inf)), "vds_range must have finite lo < hi"),
        (dict(vgs_range=(0.74, 10.0)), "levels must all exceed v_th=0.74 V"),
        (dict(workers=0), "need at least one worker, got workers=0"),
        (dict(workers=-4), "need at least one worker, got workers=-4"),
        (dict(seed=-1), "seed must be an integer >= 0, got -1"),
        (dict(nx=4.0, s_p=2), "nx must be an integer, got 4.0"),
        (dict(seed=1.5), "seed must be an integer >= 0, got 1.5"),
        (dict(n_seeds=2.0), "n_seeds must be an integer, got 2.0"),
        (dict(workers=2.0), "workers must be an integer, got 2.0"),
    ], ids=["one_sample", "no_replicates", "block_wider_than_grid", "empty_grid",
            "empty_vgs_range", "reversed_vds_range", "unbounded_vds_range",
            "level_at_threshold", "no_workers", "negative_workers", "negative_seed",
            "float_nx", "float_seed", "float_n_seeds", "float_workers"])
    def test_construction_rejects(self, kw, match):
        with pytest.raises(ValueError, match=match):
            LinkConfig(**kw)

    def test_negative_seed_starts_no_process(self, monkeypatch):
        real, starts = multiprocessing.Process.start, []

        def counting(proc):
            starts.append(proc)
            real(proc)

        monkeypatch.setattr(multiprocessing.Process, "start", counting)
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
            sweep_delta((0.4, 0.8), tiny_link_cfg(seed=-1, workers=2))
        assert starts == []
        assert multiprocessing.active_children() == []


# 12 x 12 sensors x 10 instants = 1440 symbols: one partial chunk of the link's
# 2048 (the chunk length changes no result: the chunked(...) tests in test_channel.py).
GOLDEN_CFG = LinkConfig(nx=12, ny=12, nt=10, s_p=6, t_p=5, n_samples=512, n_seeds=2, seed=7)


class TestGoldenSweeps:
    """Exact sweep results, re-recorded when the noise became keyed by symbol
    and when the sampler came to draw the 17 loudest noise values per symbol.

    Any change to the draws, their order or the float arithmetic of the
    link shows here as a changed digit.
    """

    def test_sweep_delta_values(self):
        sw = sweep_delta((0.2, 0.41, 0.9), GOLDEN_CFG)
        assert [(r.mse_gs, r.mse_ds) for r in sw.reports] == [
            (4.917055984828782, 2.7044254506869754),
            (4.833966920326713, 2.6920943661035146),
            (4.108640368358906, 2.685080628877234),
        ]

    def test_sweep_snr_values(self):
        sw = sweep_snr((-40.0, -10.0, math.inf), (123.456e3, 410e3), 0.41, GOLDEN_CFG)
        assert [(r.mse_gs, r.mse_ds) for r in sw.reports] == [
            (5.132725892957525, 2.706704344041097),
            (5.132725892957525, 2.706704344041097),
            (0.8557446196962284, 2.4196340346710508),
            (0.8557446196962284, 2.4196340346710508),
            (0.12661665971482286, 2.3390874877019616),
            (0.12661665971482286, 2.3390874877019616),
        ]

    def test_bandwidth_invariance_is_exact(self):
        # the sample rate and the FM scale both scale with the bandwidth, and
        # at these bandwidths their ratio, fm_cycles, is one float: the link
        # computes in cycles per sample, so every bandwidth gives the same
        # reports bit for bit
        bws = (50e3, 123.456e3, 200e3, 410e3, 500e3)
        assert len({GOLDEN_CFG.channel(bandwidth=bw).fm_cycles for bw in bws}) == 1
        sw = sweep_snr((-10.0, math.inf), bws, 0.41, GOLDEN_CFG)
        for i in range(0, len(sw.reports), len(bws)):
            block = sw.reports[i:i + len(bws)]
            assert len({(r.mse_gs, r.mse_ds, r.mse_sum) for r in block}) == 1


class TestGoldenDecodePaths:
    """Exact link-point and noiseless results, recorded before the stream
    decoder moved to arrays (the noisy link points re-recorded when the
    noise became keyed by symbol and again when the sampler came to draw the
    17 loudest noise values per symbol); odd stream lengths exercise the
    tail pair."""

    @pytest.mark.parametrize("nt, perfect, want", [
        (5, True, (0.5166974416319835, 0.24443260474771825)),
        (5, False, (1.2805547976579554, 1.0797944695713528)),
        (3, True, (1.7249525230832807, 0.21459973028456786)),
        (3, False, (2.4684117625543704, 1.7570671868543535)),
        (21, True, (0.3592831794293288, 1.8642142461522675)),
        (21, False, (0.8688456944545593, 1.3677853164970848)),
        (20, True, (0.024225027605808663, 1.1807126850971126)),
        (20, False, (0.7398524500622723, 0.9545780376921857)),
    ])
    def test_link_point_values(self, nt, perfect, want):
        cfg = LinkConfig(nx=6, ny=6, nt=nt, s_p=3, t_p=2, n_samples=512,
                         snr_db=-10.0, seed=11)
        gs, ds = cfg.fields(0)
        chan = None if perfect else cfg.channel()
        r = run_link_point(cfg, gs, ds, 0.41, chan, (11, 0))
        assert (r.mse_gs, r.mse_ds) == want

    @pytest.mark.parametrize("n, want", [
        (50, (1.0, 0.0, 6.222534820383341e-30, 0.984, 0.016, 3.7159898486686727)),
        (49, (1.0, 0.0, 6.285128518332306e-30, 0.9877551020408163,
              0.012244897959183673, 2.836130110712864)),
        (3, (1.0, 0.0, 5.784979971620753e-30, 1.0, 0.0, 5.784979971620753e-30)),
    ])
    def test_noiseless_values(self, n, want):
        r = run_noiseless(P, vds_grid=5.0 + 0.1 * np.arange(n))
        assert (r.accuracy, r.mse_gs, r.mse_ds,
                r.accuracy_pre, r.mse_gs_pre, r.mse_ds_pre) == want

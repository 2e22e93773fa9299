"""Experiment-layer tests: block MSE, noiseless studies, link pipeline."""

import math

import numpy as np
import pytest

from ajscc.codec import CodecConfig, decode_stream, quantize, stream_estimates
from ajscc.experiments import (
    LinkConfig,
    MseReport,
    SweepResult,
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

    def test_block_geometry_mismatch_rejected(self):
        a = generate_field(4, 4, 2, 2, 2, 0.0, 1.0, seed=6)
        b = generate_field(4, 4, 2, 2, 1, 0.0, 1.0, seed=6)
        with pytest.raises(ValueError, match="geometry"):
            mse_averaged(a, a.values, b, b.values)

    def test_report_validates(self):
        with pytest.raises(ValueError):
            MseReport.from_pair(-1.0, 0.0, 8)


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
        with pytest.raises(ValueError, match="vds_grid"):
            run_noiseless(P, vds_grid=np.array([4.0, 5.0]))


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
        # the even-length fast path must agree with the public per-sensor
        # stream decoding, including the range-informed vds policy
        cfg = tiny_link_cfg(snr_db=-15.0)
        gs, ds = cfg.fields(0)
        chan = cfg.channel()
        rpt = run_link_point(cfg, gs, ds, delta=0.5, chan=chan, link_seed=(5, 0))

        from ajscc.channel import simulate_link
        codec = CodecConfig.uniform(cfg.vgs_range, 0.5, cfg.vds_range)
        ids = drain_current(P, quantize(gs.values, codec.levels), ds.values)
        ids_hat = simulate_link(ids.reshape(-1, 4), chan, (5, 0))
        est_gs = np.empty_like(ids_hat)
        est_ds = np.empty_like(ids_hat)
        for s in range(ids_hat.shape[0]):
            pairs = decode_stream(P, codec, ids_hat[s])
            vg, vd = stream_estimates(pairs, 4)
            in_rng = np.repeat([pr.in_range for pr in pairs], 2)
            est_gs[s] = vg
            est_ds[s] = np.where(in_rng, np.clip(vd, 5.0, 10.0), 7.5)
        ref = mse_averaged(gs, est_gs.reshape(gs.values.shape),
                           ds, est_ds.reshape(ds.values.shape))
        assert rpt.mse_gs == ref.mse_gs and rpt.mse_ds == ref.mse_ds

    def test_odd_stream_length_supported(self):
        cfg = LinkConfig(nx=3, ny=3, nt=5, s_p=3, t_p=2, n_samples=512,
                         n_seeds=1, seed=6)
        gs, ds = cfg.fields(0)
        rpt = run_link_point(cfg, gs, ds, delta=1.0, chan=cfg.channel(),
                             link_seed=(6, 0))
        assert rpt.mse_gs >= 0 and rpt.mse_ds >= 0


class TestSweeps:
    def test_sweep_delta_result_structure(self):
        cfg = tiny_link_cfg()
        sw = sweep_delta((0.4, 0.8), cfg)
        assert sw.axis_name == "delta"
        assert sw.points == (0.4, 0.8)
        assert len(sw.reports) == 2
        assert sw.metadata["delta_star"] in (0.4, 0.8)
        assert sw.metadata["n_seeds"] == 2
        for d, r in zip(sw.points, sw.reports):
            assert r.params_echo["delta"] == d
            assert r.params_echo["snr_db"] == cfg.snr_db
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

    def test_sweep_points_are_link_points(self):
        # each point of a replicate is the one-point pipeline run at the
        # replicate's link seed
        cfg = tiny_link_cfg(n_seeds=1)
        gs, ds = cfg.fields(0)
        sw = sweep_snr((-30.0, -10.0), (50e3, 410e3), 0.5, cfg)
        for (snr, bw), r in zip(sw.points, sw.reports):
            chan = cfg.channel(bandwidth=bw, snr_db=snr)
            one = run_link_point(cfg, gs, ds, 0.5, chan, link_seed=(cfg.seed, 0))
            assert (r.mse_gs, r.mse_ds) == (one.mse_gs, one.mse_ds)

    def test_sweep_delta_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            sweep_delta((0.0, 0.4), tiny_link_cfg())

    def test_sweep_snr_point_layout(self):
        cfg = tiny_link_cfg()
        sw = sweep_snr((-30.0, -10.0), (50e3, 410e3), 0.5, cfg)
        assert sw.points == ((-30.0, 50e3), (-30.0, 410e3),
                             (-10.0, 50e3), (-10.0, 410e3))
        for (snr, bw), r in zip(sw.points, sw.reports):
            assert r.params_echo["snr_db"] == snr
            assert r.params_echo["bandwidth"] == bw

    def test_sweep_snr_rejects_unsorted(self):
        with pytest.raises(ValueError, match="ascending"):
            sweep_snr((-10.0, -30.0), (410e3,), 0.5, tiny_link_cfg())

    def test_sweep_result_validates(self):
        with pytest.raises(ValueError, match="one report"):
            SweepResult("delta", (0.1, 0.2), ())
        with pytest.raises(ValueError, match="ascending"):
            SweepResult("delta", (0.2, 0.1),
                        (MseReport.from_pair(0, 0, 8), MseReport.from_pair(0, 0, 8)))


# 12 x 12 sensors x 10 instants = 1440 symbols: one full 1024-symbol chunk
# and a partial one.
GOLDEN_CFG = LinkConfig(nx=12, ny=12, nt=10, s_p=6, t_p=5, n_samples=512, n_seeds=2, seed=7)


class TestGoldenSweeps:
    """Exact sweep results, recorded before the sweeps shared realisations.

    Any change to the draws, their order or the float arithmetic of the
    link shows here as a changed digit.
    """

    def test_sweep_delta_values(self):
        sw = sweep_delta((0.2, 0.41, 0.9), GOLDEN_CFG)
        assert [(r.mse_gs, r.mse_ds) for r in sw.reports] == [
            (4.824065256078146, 2.706735093364363),
            (4.723969131196883, 2.7315285494127886),
            (4.097071314379013, 2.7127001084460454),
        ]

    def test_sweep_snr_values(self):
        sw = sweep_snr((-40.0, -10.0, math.inf), (123.456e3, 410e3), 0.41, GOLDEN_CFG)
        assert [(r.mse_gs, r.mse_ds) for r in sw.reports] == [
            (5.084385331205676, 2.7362984855290673),
            (5.084385331205676, 2.7362984855290673),
            (0.8275618897954606, 2.523291533800435),
            (0.8275618897954606, 2.5232915338004354),
            (0.1359775817051201, 2.392007309520932),
            (0.1359775817051201, 2.392007309520932),
        ]

    def test_bandwidth_invariance_holds_to_rounding_only(self):
        # the sample rate and the FM scale both scale with the bandwidth, so
        # the MSE agrees across bandwidths up to float rounding of the tone
        # frequencies; it is not bit-exact, but the CSV's 10 digits agree
        bws = (50e3, 123.456e3, 200e3, 410e3, 500e3)
        sw = sweep_snr((-10.0,), bws, 0.41, GOLDEN_CFG)
        for attr in ("mse_gs", "mse_ds", "mse_sum"):
            vals = [getattr(r, attr) for r in sw.reports]
            assert max(vals) - min(vals) <= 1e-12 * min(vals)
            assert len({f"{v:.10g}" for v in vals}) == 1

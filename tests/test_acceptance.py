"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
captured output is shown for failures either way).

Criterion 4's knee-ratio clause is implemented faithfully and is expected
to fail: at 0.41 V spacing the decoder has a noise-free drain-voltage
floor.  Both fields are block-constant and no decode pair straddles a
10-instant block, so on a perfect link every pair carries two equal
currents and no slope score is compared at all.  The decoder falls back
to the lowest level whose implied vds is in range, and 10 of the 13
levels (those >= 6.23 V) lie inside the ambiguity window of the 5..10 V
gate range (see the codec caveat), so a pair often decodes to a lower
level and a biased vds.  The perfect-link mse_ds, 2.81, exceeds even the
25/12 variance of the uniform vds prior, and mse_sum is 1.43 there, while
a 10x knee needs mse_sum at -10 dB near 0.33
(``TestPerfectLinkFloor`` in test_experiments.py pins this floor).
"""

import math
import time

import numpy as np
import pytest

from ajscc.channel import modulate, received_spectrum, simulate_link
from ajscc.cli import main
from ajscc.codec import CodecConfig, build_levels, quantize
from ajscc.experiments import (
    DEFAULT_BANDWIDTHS,
    DEFAULT_LAMBDA_GRID,
    LinkConfig,
    run_link_point,
    run_noiseless,
    sweep_delta,
    sweep_lambda,
    sweep_snr,
)
from ajscc.mosfet import MosfetParams, curve_slope, drain_current, invert_vds
from ajscc.phenomenon import generate_field
from time_domain import transmit_block

P = MosfetParams()

# Grid for the delta-sweep criterion: spans [0.1, 1.25] around the nominal
# 0.41 optimum with 16 Monte-Carlo replicates.  Points are spaced so the
# argmin is resolvable: the two large-spacing anchors divide the source
# range exactly (no top-level truncation), and point-to-point differences
# beyond 0.8 are then dominated by the deterministic quantization growth
# rather than by replicate noise (the default 0.05-step grid needs far
# more replicates than the runtime budget allows to resolve its argmin).
CRITERION3_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0, 1.25)
CRITERION3_SEEDS = 16


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestCriterion1Noiseless:
    def test_noiseless_decode_accuracy(self):
        t0 = time.perf_counter()
        res = run_noiseless(P)
        dt = time.perf_counter() - t0
        bad = res.vgs_hat_pre != res.vgs_true
        ok = (
            res.accuracy == 1.0
            and res.mse_ds < 1e-10
            and res.accuracy_pre < 1.0
            and np.all(res.vds_true[bad] >= 9.5)
            and dt < 1.0
        )
        _check(
            "criterion-1 noiseless-accuracy", ok,
            f"accuracy={res.accuracy} mse_ds={res.mse_ds:.2e} "
            f"accuracy_uncorrected={res.accuracy_pre} "
            f"misdecoded_vds>=9.5={bool(np.all(res.vds_true[bad] >= 9.5))} "
            f"runtime={dt:.2f}s")


class TestCriterion2LambdaSweep:
    def test_lambda_sweep_shape(self):
        t0 = time.perf_counter()
        sw = sweep_lambda(DEFAULT_LAMBDA_GRID)
        dt = time.perf_counter() - t0
        pre = dict(zip(sw.lambdas, sw.mse_pre))
        low = max(v for k, v in pre.items() if k <= 0.02)
        high = max(v for k, v in pre.items() if 0.03 <= k <= 0.2)
        growth = high / max(low, 1e-12)
        ok = (low < 1e-6 and growth >= 100.0
              and max(sw.mse_post) < 1e-6 and dt < 10.0)
        _check(
            "criterion-2 lambda-sweep", ok,
            f"uncorrected_mse(lam<=0.02)={low:.2e} growth={growth:.1e}x "
            f"corrected_max={max(sw.mse_post):.2e} runtime={dt:.2f}s")


class TestCriterion3DeltaSweep:
    @pytest.mark.slow
    def test_delta_sweep_optimum(self):
        cfg = LinkConfig(n_seeds=CRITERION3_SEEDS)  # BW 410 kHz, SNR -20 dB
        t0 = time.perf_counter()
        sw = sweep_delta(CRITERION3_GRID, cfg)
        dt = time.perf_counter() - t0
        i = sw.metadata["argmin_index"]
        d_star = sw.metadata["delta_star"]
        star = sw.reports[i]
        interior = 0 < i < len(sw.points) - 1
        in_window = 0.2 <= d_star <= 0.8
        gs_ok = 1.2 / 3 <= star.mse_gs <= 1.2 * 3
        ds_ok = 0.3 / 3 <= star.mse_ds <= 0.3 * 3
        small_delta_ok = sw.reports[0].mse_ds > star.mse_ds
        ok = interior and in_window and gs_ok and ds_ok and small_delta_ok and dt < 300
        _check(
            "criterion-3 delta-sweep", ok,
            f"delta_star={d_star} interior={interior} "
            f"mse_gs={star.mse_gs:.3f} mse_ds={star.mse_ds:.3f} "
            f"mse_ds(0.1)={sw.reports[0].mse_ds:.3f} runtime={dt:.0f}s")


class TestCriterion4SnrKnee:
    @pytest.mark.slow
    def test_bandwidth_agreement_at_minus_10_db(self):
        sw = sweep_snr((-10.0,), DEFAULT_BANDWIDTHS, 0.41, LinkConfig(n_seeds=5))
        sums = [r.mse_sum for r in sw.reports]
        spread = max(sums) / min(sums)
        ok = spread <= 2.0
        _check("criterion-4 bandwidth-agreement", ok,
               f"mse_sum spread across bandwidths at -10 dB = {spread:.2f}x")

    @pytest.mark.slow
    def test_knee_ratio(self):
        t0 = time.perf_counter()
        sw = sweep_snr((-50.0, -10.0), DEFAULT_BANDWIDTHS, 0.41,
                       LinkConfig(n_seeds=5))
        dt = time.perf_counter() - t0
        by_bw = {}
        for (snr, bw), r in zip(sw.points, sw.reports):
            by_bw.setdefault(bw, {})[snr] = r.mse_sum
        ratios = {bw: v[-50.0] / v[-10.0] for bw, v in by_bw.items()}
        ok = all(r >= 10.0 for r in ratios.values()) and dt < 300
        _check(
            "criterion-4 snr-knee", ok,
            "ratio(-50dB/-10dB) per bandwidth = "
            + ", ".join(f"{bw/1e3:.0f}kHz:{r:.2f}" for bw, r in sorted(ratios.items()))
            + f" (need >= 10; blocked by the decoder's vds ambiguity floor at "
              f"0.41 V spacing, see notes) runtime={dt:.0f}s")


class TestCriterion5OracleSuite:
    def test_round_trip_10k_points(self):
        rng = np.random.default_rng(50)
        n = 10_000
        k = rng.uniform(1e-6, 1e-2, n)
        vth = rng.uniform(0.0, 2.0, n)
        lam = rng.uniform(1e-4, 0.5, n)
        vgs = vth + rng.uniform(0.01, 10.0, n)
        vds = rng.uniform(0.0, 20.0, n)
        worst = 0.0
        for kk, vt, lm, g, v in zip(k, vth, lam, vgs, vds):
            p = MosfetParams(k_gain=kk, v_th=vt, lam=lm)
            back = invert_vds(p, g, drain_current(p, g, v))
            worst = max(worst, abs(back - v) / max(abs(v), 1e-12))
        _check("criterion-5 round-trip", worst <= 1e-9,
               f"max relative error over {n} points = {worst:.2e}")

    def test_slope_vs_central_difference(self):
        h = 1e-4
        worst = 0.0
        for vgs in np.linspace(0.9, 9.5, 200):
            fd = (drain_current(P, vgs, 7.0 + h) - drain_current(P, vgs, 7.0 - h)) / (2 * h)
            worst = max(worst, abs(fd - curve_slope(P, vgs)) / curve_slope(P, vgs))
        _check("criterion-5 slope-fd", worst <= 1e-6,
               f"max relative deviation = {worst:.2e}")

    def test_pipeline_identity_over_1000_random_fields(self):
        # perfect-link pipeline on block fields with the coarse level set:
        # decoded gate voltages equal the quantizer output exactly.  The
        # geometry keeps decode pairs inside one correlation window (even
        # nt and t_p), which is the decoder's stated premise; a trailing
        # sample straddling two windows sits on two different curves and
        # voids the guarantee by construction.
        rng = np.random.default_rng(51)
        levels = np.arange(1.0, 6.0)
        t0 = time.perf_counter()
        for trial in range(1000):
            nx, ny = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            nt = int(2 * rng.integers(1, 5))
            s_p = int(rng.integers(1, min(nx, ny) + 1))
            t_p = int(2 * rng.integers(1, nt // 2 + 1))  # even window
            cfg = LinkConfig(vgs_range=(1.0, 5.0), vds_range=(5.0, 10.0),
                             nx=nx, ny=ny, nt=nt, s_p=s_p, t_p=t_p)
            gs = generate_field(nx, ny, nt, s_p, t_p, 1.0, 5.0, seed=1000 + trial)
            ds = generate_field(nx, ny, nt, s_p, t_p, 5.0, 10.0, seed=5000 + trial)
            rpt = run_link_point(cfg, gs, ds, delta=1.0, chan=None, link_seed=0)
            q = quantize(gs.values, levels)
            from ajscc.phenomenon import block_means
            want = float(np.mean((block_means(q, s_p, t_p)
                                  - block_means(gs.values, s_p, t_p)) ** 2))
            assert rpt.mse_gs == pytest.approx(want, rel=1e-12, abs=1e-30), trial
            assert rpt.mse_ds < 1e-18, trial
        dt = time.perf_counter() - t0
        _check("criterion-5 pipeline-identity", True,
               f"1000 random fields recovered exactly ({dt:.1f}s)")

    @staticmethod
    def _ideal_channel(snr_db):
        from ajscc.channel import ChannelConfig
        return ChannelConfig.for_current_range(
            LinkConfig().i_max, 410e3, snr_db, headroom=0.8, n_samples=4096,
            doppler_fraction=0.0, rician_k_db=math.inf)

    def test_modulate_demodulate_within_one_bin(self):
        cfg = self._ideal_channel(math.inf)
        rng = np.random.default_rng(52)
        ids = rng.uniform(0.02, 0.98, 256) * LinkConfig().i_max * 0.8
        out = simulate_link(ids, cfg, seed=1)
        bin_current = cfg.sample_rate / cfg.n_samples / cfg.fm_scale
        worst = np.max(np.abs(out - ids))
        _check("criterion-5 fm-inverse", worst <= bin_current,
               f"max |error| = {worst:.3e} A <= bin {bin_current:.3e} A")

    def test_configured_vs_empirical_snr(self):
        cfg = self._ideal_channel(-20.0)
        rng = np.random.default_rng(53)
        f = modulate(0.5 * LinkConfig().i_max, cfg)
        blocks = transmit_block(np.full(1000, f), cfg, rng)
        t = np.arange(cfg.n_samples) / cfg.sample_rate
        noise = blocks - np.exp(2j * np.pi * f * t)[None, :]
        p_inband = np.mean(np.abs(noise) ** 2) * cfg.bandwidth / cfg.sample_rate
        measured = 10 * np.log10(1.0 / p_inband)
        _check("criterion-5 snr-calibration", abs(measured + 20.0) <= 0.5,
               f"configured -20 dB, measured {measured:.3f} dB over 1000 symbols")

    def test_configured_vs_empirical_snr_of_received_spectrum(self):
        # the library's own sampler: its noise is the row at the configured
        # SNR minus the noise-free row of the same seed and symbols, and an
        # FFT bin of white noise carries n_samples times its per-sample power
        for snr_db in (-20.0, 0.0):
            cfg = self._ideal_channel(snr_db)
            freqs = np.full(1000, modulate(0.5 * LinkConfig().i_max, cfg))
            noise = (received_spectrum(freqs, cfg, 54)
                     - received_spectrum(freqs, self._ideal_channel(math.inf), 54))
            p_sample = np.mean(np.abs(noise.astype(complex)) ** 2) / cfg.n_samples
            measured = 10 * np.log10(1.0 / (p_sample * cfg.bandwidth / cfg.sample_rate))
            _check("criterion-5 spectrum-snr-calibration", abs(measured - snr_db) <= 0.5,
                   f"configured {snr_db:g} dB, measured {measured:.3f} dB over 1000 symbols")

    def test_seed_determinism_byte_identical_csv(self, tmp_path):
        args = ["--nx", "4", "--ny", "4", "--nt", "4", "--s-p", "2", "--t-p", "2",
                "--n-samples", "512", "--seeds", "2", "--workers", "1",
                "--delta", "0.5"]
        pair = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["sweep-delta", "--outdir", str(out), *args]) == 0
            pair.append((out / "sweep_delta.csv").read_bytes())
        _check("criterion-5 determinism", pair[0] == pair[1],
               f"two identical runs -> identical {len(pair[0])}-byte artifacts")

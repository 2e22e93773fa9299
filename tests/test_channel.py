"""Link tests: FM map, impairments, FFT-peak recovery, fast-path equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ajscc.channel as channel
from ajscc.channel import (
    ChannelConfig,
    demodulate_spectrum,
    modulate,
    received_spectrum,
    simulate_link,
    simulate_link_grid,
    transmit_block,
)
from ajscc.mosfet import MosfetParams, drain_current

I_MAX = drain_current(MosfetParams(), 10.0, 10.0)


def make_cfg(snr_db=-20.0, doppler=0.02, k_db=6.0, bandwidth=410e3, n=4096,
             i_max=I_MAX):
    return ChannelConfig.for_current_range(
        i_max, bandwidth, snr_db, headroom=0.8, n_samples=n,
        doppler_fraction=doppler, rician_k_db=k_db)


IDEAL = make_cfg(snr_db=math.inf, doppler=0.0, k_db=math.inf)


class TestConfig:
    def test_derived_quantities(self):
        cfg = make_cfg()
        assert cfg.n_samples == 4096
        assert cfg.sample_rate == 4 * 410e3
        assert cfg.n_bins == 1024
        assert cfg.fm_scale == pytest.approx(0.8 * 410e3 / I_MAX)

    def test_nyquist_guard(self):
        with pytest.raises(ValueError, match="sample_rate"):
            ChannelConfig(bandwidth=410e3, snr_db=0.0, fm_scale=1e8,
                          sample_rate=500e3, n_samples=4096)

    def test_block_length_must_be_integral(self):
        with pytest.raises(ValueError, match="integer"):
            ChannelConfig(bandwidth=100e3, snr_db=0.0, fm_scale=1e8,
                          sample_rate=400e3, n_samples=4000.5)

    def test_bad_scalars(self):
        with pytest.raises(ValueError):
            make_cfg(bandwidth=-1.0)
        with pytest.raises(ValueError):
            ChannelConfig(bandwidth=1e5, snr_db=0, fm_scale=-1.0,
                          sample_rate=4e5, n_samples=4000)
        with pytest.raises(ValueError):
            make_cfg(i_max=0.0)

    @pytest.mark.parametrize("kw, match", [
        (dict(snr_db=math.nan), "snr_db"),
        (dict(snr_db=-math.inf), "snr_db"),
        (dict(doppler=math.nan), "doppler_fraction"),
        (dict(doppler=math.inf), "doppler_fraction"),
        (dict(k_db=math.nan), "rician_k_db"),
        (dict(bandwidth=math.inf), "bandwidth"),
    ])
    def test_non_finite_parameters_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            make_cfg(**kw)

    def test_headroom_and_block_length_are_required(self):
        with pytest.raises(TypeError, match="headroom"):
            ChannelConfig.for_current_range(I_MAX, 410e3, 0.0, n_samples=4096)
        with pytest.raises(TypeError, match="n_samples"):
            ChannelConfig.for_current_range(I_MAX, 410e3, 0.0, headroom=0.8)


class TestModulate:
    def test_linear_scaling(self):
        cfg = ChannelConfig(bandwidth=410e3, snr_db=0, fm_scale=1e8,
                            sample_rate=4 * 410e3, n_samples=4096)
        assert modulate(1e-3, cfg) == pytest.approx(100e3)

    def test_reference_product(self):
        cfg = ChannelConfig(bandwidth=410e3, snr_db=0, fm_scale=2e8,
                            sample_rate=4 * 410e3, n_samples=4096)
        assert modulate(1.9268e-3, cfg) == pytest.approx(385.36e3)

    def test_nonpositive_current_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            modulate(0.0, IDEAL)

    def test_out_of_band_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            modulate(10 * I_MAX, IDEAL)


class TestTransmitDemodulate:
    """The time-domain reference: sample blocks and their FFT peak."""

    def test_degenerate_channel_is_identity(self):
        rng = np.random.default_rng(0)
        f = modulate(1e-3, IDEAL)
        block = transmit_block([f], IDEAL, rng)[0]
        t = np.arange(IDEAL.n_samples) / IDEAL.sample_rate
        np.testing.assert_allclose(block, np.exp(2j * np.pi * f * t), atol=1e-12)

    def test_peak_recovery_within_one_bin(self):
        ids = np.array([2e-4, 1e-3, 7e-3])
        out = simulate_link(ids, IDEAL, seed=1, time_domain=True)
        bin_current = IDEAL.sample_rate / IDEAL.n_samples / IDEAL.fm_scale
        np.testing.assert_allclose(out, ids, atol=bin_current)

    def test_loop_over_random_currents(self):
        rng = np.random.default_rng(2)
        ids = rng.uniform(0.05 * I_MAX, 0.95 * I_MAX, 64)
        out = simulate_link(ids, IDEAL, seed=5)
        bin_current = IDEAL.sample_rate / IDEAL.n_samples / IDEAL.fm_scale
        np.testing.assert_allclose(out, ids, atol=bin_current)

    def test_doppler_spreads_peak_within_fraction(self):
        cfg = make_cfg(snr_db=60.0, doppler=0.02, k_db=math.inf)
        ids = np.full(200, 100e3 / cfg.fm_scale)
        peaks = simulate_link(ids, cfg, seed=3, time_domain=True) * cfg.fm_scale
        bin_hz = cfg.sample_rate / cfg.n_samples
        assert peaks.min() >= 98e3 - bin_hz and peaks.max() <= 102e3 + bin_hz
        assert peaks.std() > 0  # the shift really is drawn per symbol

    def test_high_snr_current_error_bounded_by_doppler_plus_bin(self):
        cfg = make_cfg(snr_db=60.0, doppler=0.02, k_db=math.inf)
        ids = np.linspace(0.1, 0.9, 40) * I_MAX
        out = simulate_link(ids, cfg, seed=11)
        bin_current = cfg.sample_rate / cfg.n_samples / cfg.fm_scale
        assert np.all(np.abs(out - ids) <= 0.02 * ids + bin_current)

    def test_pure_noise_gives_inband_current(self):
        # at -60 dB the peak is the noise's; it is still searched in band only
        cfg = make_cfg(snr_db=-60.0)
        out = simulate_link(np.full(16, 0.5 * I_MAX), cfg, seed=4, time_domain=True)
        assert np.all(out > 0) and np.all(out <= cfg.bandwidth / cfg.fm_scale)

    def test_frequency_bounds_enforced(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="frequency"):
            transmit_block([0.0], IDEAL, rng)
        with pytest.raises(ValueError, match="frequency"):
            transmit_block([IDEAL.sample_rate / 2], IDEAL, rng)
        with pytest.raises(ValueError, match="integer >= 8"):
            make_cfg(n=4)


class TestStatistics:
    def test_empirical_snr_matches_configuration(self):
        # pure-LOS fading so the signal part is known exactly per symbol
        for snr_db in (-20.0, 0.0):
            cfg = make_cfg(snr_db=snr_db, doppler=0.0, k_db=math.inf)
            rng = np.random.default_rng(6)
            f = modulate(0.5 * I_MAX, cfg)
            blocks = transmit_block(np.full(1000, f), cfg, rng)
            t = np.arange(cfg.n_samples) / cfg.sample_rate
            noise = blocks - np.exp(2j * np.pi * f * t)[None, :]
            p_noise_inband = np.mean(np.abs(noise) ** 2) * cfg.bandwidth / cfg.sample_rate
            measured = 10 * np.log10(1.0 / p_noise_inband)
            assert abs(measured - snr_db) <= 0.5

    def test_rician_gain_has_unit_mean_power(self):
        cfg = make_cfg(snr_db=math.inf, doppler=0.0, k_db=6.0)
        rng = np.random.default_rng(7)
        blocks = transmit_block(np.full(2000, 100e3), cfg, rng)
        assert np.mean(np.abs(blocks) ** 2) == pytest.approx(1.0, abs=0.05)

    def test_rayleigh_at_minus_infinite_k_factor(self):
        # K = -inf dB has no line-of-sight part: pure Rayleigh fading
        cfg = make_cfg(snr_db=math.inf, doppler=0.0, k_db=-math.inf)
        gains = transmit_block(np.full(2000, 100e3), cfg, np.random.default_rng(14))[:, 0]
        assert abs(np.mean(gains)) < 0.1  # zero-mean, unlike any finite K
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, abs=0.1)

    def test_noise_disabled_at_infinite_snr(self):
        cfg = make_cfg(snr_db=math.inf, doppler=0.0, k_db=math.inf)
        rng = np.random.default_rng(8)
        blocks = transmit_block(np.full(4, 100e3), cfg, rng)
        assert np.all(np.abs(np.abs(blocks) - 1.0) < 1e-12)


class TestFastPath:
    def test_spectrum_matches_fft_of_exact_tone(self):
        cfg = make_cfg(snr_db=math.inf, doppler=0.0, k_db=math.inf)
        rng = np.random.default_rng(9)
        freqs = rng.uniform(0.05, 0.95, 8) * cfg.bandwidth
        spectrum = received_spectrum(freqs, cfg, np.random.default_rng(0))
        t = np.arange(cfg.n_samples) / cfg.sample_rate
        for row, f in zip(spectrum, freqs):
            # single-precision kernel: sidelobes match to ~1e-5 of the peak,
            # and the peak bin itself is recomputed in double precision
            ref = np.fft.fft(np.exp(2j * np.pi * f * t))[1:cfg.n_bins + 1]
            assert np.max(np.abs(row - ref)) / np.max(np.abs(ref)) < 1e-4
            k_peak = int(np.argmax(np.abs(ref)))
            assert abs(row[k_peak] - ref[k_peak]) / abs(ref[k_peak]) < 1e-6

    def test_on_bin_tone_handled_exactly(self):
        cfg = make_cfg(snr_db=math.inf, doppler=0.0, k_db=math.inf)
        f = 100 * cfg.sample_rate / cfg.n_samples  # exactly bin 100
        spectrum = received_spectrum(np.array([f]), cfg, np.random.default_rng(0))
        assert np.abs(spectrum[0, 99]) == pytest.approx(cfg.n_samples, rel=1e-9)
        ids = demodulate_spectrum(spectrum, cfg)[0]
        assert ids == pytest.approx(f / cfg.fm_scale, rel=1e-12)

    def test_fast_and_time_domain_paths_agree_statistically(self):
        cfg = make_cfg(snr_db=-20.0, n=1024)
        ids = np.random.default_rng(10).uniform(0.2, 0.9, 1500) * I_MAX
        fast = simulate_link(ids, cfg, seed=21)
        slow = simulate_link(ids, cfg, seed=21, time_domain=True)
        gross_fast = np.abs(fast / ids - 1) > 0.06
        gross_slow = np.abs(slow / ids - 1) > 0.06
        assert abs(gross_fast.mean() - gross_slow.mean()) < 0.05
        rms_fast = np.sqrt(np.mean((fast[~gross_fast] - ids[~gross_fast]) ** 2))
        rms_slow = np.sqrt(np.mean((slow[~gross_slow] - ids[~gross_slow]) ** 2))
        assert rms_fast == pytest.approx(rms_slow, rel=0.25)


class TestDeterminism:
    def test_same_seed_same_blocks(self):
        cfg = make_cfg()
        a = transmit_block([1e5, 2e5], cfg, np.random.default_rng(42))
        b = transmit_block([1e5, 2e5], cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_simulate_link_reproducible_per_seed(self):
        cfg = make_cfg(n=1024)
        ids = np.random.default_rng(11).uniform(0.2, 0.9, 300) * I_MAX
        a = simulate_link(ids, cfg, seed=33)
        b = simulate_link(ids, cfg, seed=33)
        np.testing.assert_array_equal(a, b)
        c = simulate_link(ids, cfg, seed=34)
        assert not np.array_equal(a, c)

    def test_tuple_seeds_give_independent_streams(self):
        cfg = make_cfg(n=1024)
        ids = np.full(64, 0.5 * I_MAX)
        a = simulate_link(ids, cfg, seed=(1, 0))
        b = simulate_link(ids, cfg, seed=(1, 1))
        assert not np.array_equal(a, b)

    def test_grid_points_equal_one_point_links(self):
        # several current arrays x configs with two bin counts, noisy and
        # noiseless SNRs, over three chunks (the last one partial)
        cfgs = [make_cfg(snr_db=snr, bandwidth=bw, n=n)
                for n in (256, 512) for bw in (50e3, 410e3)
                for snr in (-30.0, math.inf, 0.0)]
        rng = np.random.default_rng(12)
        ids_list = [rng.uniform(0.1, 0.9, (25, 10)) * I_MAX for _ in range(2)]
        grid = simulate_link_grid(ids_list, cfgs, (3, 1), chunk_symbols=100)
        assert grid.shape == (2, len(cfgs), 25, 10)
        for i, ids in enumerate(ids_list):
            for j, cfg in enumerate(cfgs):
                one = simulate_link(ids, cfg, (3, 1), chunk_symbols=100)
                assert np.array_equal(grid[i, j], one), (i, j)

    def test_grid_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            simulate_link_grid([np.full(4, 1e-3), np.full(5, 1e-3)], [IDEAL], 0)

    def test_received_spectrum_draws_what_the_link_draws(self):
        # one chunk: the spectrum sampler and the link consume one RNG
        # stream identically, so their peak decisions agree bit for bit
        for snr in (-20.0, math.inf):
            cfg = make_cfg(snr_db=snr, n=512)
            ids = np.random.default_rng(13).uniform(0.1, 0.9, 64) * I_MAX
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(4, 2), spawn_key=(0,)))
            spectrum = received_spectrum(modulate(ids, cfg), cfg, rng)
            assert np.array_equal(demodulate_spectrum(spectrum, cfg),
                                  simulate_link(ids, cfg, (4, 2)))


def full_search_link(ids, cfg, seed, chunk_symbols=1024):
    """Reference link: per chunk, the spectrum sampler's full rows and an argmax over every bin."""
    freqs = modulate(np.ravel(ids), cfg)
    out = np.empty(freqs.size)
    for ci, start in enumerate(range(0, freqs.size, chunk_symbols)):
        stop = min(start + chunk_symbols, freqs.size)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ci,)))
        out[start:stop] = demodulate_spectrum(received_spectrum(freqs[start:stop], cfg, rng), cfg)
    return out.reshape(np.shape(ids))


def edge_currents(cfg):
    """Currents whose tones sit exactly on bin 1 and on bin n_bins."""
    return np.array([1, cfg.n_bins]) * (cfg.sample_rate / cfg.n_samples) / cfg.fm_scale


class TestPrunedPeakSearch:
    """simulate_link searches candidate bins only; it must equal a full search bit for bit."""

    # 256 and 260 samples give 64 and 65 bins, where the ranked count
    # min(_TOP_NOISE, n_bins - 1) reaches _TOP_NOISE; 388 and 392 give 97 and
    # 98, on both sides of 2 _WINDOW + 1 + _TOP_NOISE candidate bins
    @pytest.mark.parametrize("n", [8192, 512, 16, 256, 260, 388, 392])
    @pytest.mark.parametrize("snr", [-50.0, -20.0, 10.0, math.inf])
    def test_matches_full_row_reference(self, n, snr):
        cfg = make_cfg(snr_db=snr, n=n)
        ids = np.random.default_rng(14).uniform(0.01, 1.0, 1500) * I_MAX
        ids[:2] = edge_currents(cfg)
        assert np.array_equal(simulate_link(ids, cfg, (5, 1)), full_search_link(ids, cfg, (5, 1)))

    @settings(max_examples=40, deadline=None)
    @given(
        snr=st.sampled_from([-60.0, -30.0, -10.0, 0.0, 20.0, math.inf]),
        k_db=st.sampled_from([-math.inf, 0.0, math.inf]),
        doppler=st.sampled_from([0.0, 0.02]),
        n=st.sampled_from([8, 16, 512, 8192]),
        n_sym=st.integers(1, 200),
        chunk=st.integers(1, 256),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_row_reference_everywhere(self, snr, k_db, doppler, n, n_sym, chunk,
                                                   seed):
        cfg = make_cfg(snr_db=snr, doppler=doppler, k_db=k_db, n=n)
        rng = np.random.default_rng(seed)
        ids = np.concatenate([edge_currents(cfg), rng.uniform(0.01, 1.0, n_sym) * I_MAX])
        rng.shuffle(ids)
        assert np.array_equal(simulate_link(ids, cfg, seed, chunk_symbols=chunk),
                              full_search_link(ids, cfg, seed, chunk_symbols=chunk))

    @staticmethod
    def count_fallback_rows(monkeypatch):
        """Count the rows that the pruned search hands to the full-row search."""
        rows = []
        full_search = channel._link_currents

        def counting(tone, noise, cfg):
            rows.append(tone.shape[0])
            return full_search(tone, noise, cfg)

        monkeypatch.setattr(channel, "_link_currents", counting)
        return rows

    def test_forced_fallback_stays_exact(self, monkeypatch):
        # with no window and a single loud bin the bound rarely holds
        monkeypatch.setattr(channel, "_WINDOW", 0)
        monkeypatch.setattr(channel, "_TOP_NOISE", 1)
        rows = self.count_fallback_rows(monkeypatch)
        ids = np.random.default_rng(15).uniform(0.01, 1.0, 700) * I_MAX
        for snr in (-20.0, 10.0, math.inf):
            cfg = make_cfg(snr_db=snr, n=512)
            rows.clear()
            assert np.array_equal(simulate_link(ids, cfg, 6, chunk_symbols=300),
                                  full_search_link(ids, cfg, 6, chunk_symbols=300))
            assert 0 < sum(rows) <= ids.size, snr

    def test_no_fallback_when_the_window_holds_every_bin(self, monkeypatch):
        # below 2 _WINDOW + 1 samples every in-band bin is a candidate
        rows = self.count_fallback_rows(monkeypatch)
        ids = np.random.default_rng(17).uniform(0.01, 1.0, 2000) * I_MAX
        cfgs = [make_cfg(snr_db=snr, n=16) for snr in (-20.0, 10.0, math.inf)]
        simulate_link_grid([ids], cfgs, 8)
        assert sum(rows) == 0

    def test_fallback_is_rare(self, monkeypatch):
        # the bound proves nearly every row at the default candidate counts
        rows = self.count_fallback_rows(monkeypatch)
        ids = np.random.default_rng(16).uniform(0.01, 1.0, 2000) * I_MAX
        cfgs = [make_cfg(snr_db=snr, n=8192) for snr in (-60.0, -20.0, 0.0, math.inf)]
        simulate_link_grid([ids], cfgs, 7)
        assert sum(rows) <= 0.01 * ids.size * len(cfgs)

"""Link tests: FM map, impairments, FFT-peak recovery, fast-path equivalence."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import ajscc.channel as channel
from ajscc.channel import (
    ChannelConfig,
    demodulate_spectrum,
    modulate,
    received_spectrum,
    simulate_link,
    simulate_link_grid,
)
from ajscc.codec import build_levels, quantize
from ajscc.experiments import LinkConfig
from ajscc.mosfet import MosfetParams, drain_current
import slot_plane
from time_domain import draw_gains, time_domain_link, transmit_block

I_MAX = drain_current(MosfetParams(), 10.0, 10.0)


def make_cfg(snr_db=-20.0, doppler=0.02, k_db=6.0, bandwidth=410e3, n=4096,
             i_max=I_MAX):
    return ChannelConfig.for_current_range(
        i_max, bandwidth, snr_db, headroom=0.8, n_samples=n,
        doppler_fraction=doppler, rician_k_db=k_db)


IDEAL = make_cfg(snr_db=math.inf, doppler=0.0, k_db=math.inf)


def chunked(n_symbols):
    """Run the link with the draws of ``n_symbols`` symbols held at once; a
    context, not a fixture, so Hypothesis examples can use it."""
    return mock.patch.object(channel, "_CHUNK_SYMBOLS", n_symbols)


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

    @pytest.mark.parametrize("doppler", [1.0, 1.5])
    def test_doppler_fraction_of_one_or_more_rejected(self, doppler):
        # a shift of the whole tone frequency can reach 0 Hz; the sample rate
        # meets Nyquist with the doppler margin, so only this check fires
        with pytest.raises(ValueError, match=r"doppler_fraction must lie in \[0, 1\)"):
            ChannelConfig(bandwidth=100e3, snr_db=0.0, fm_scale=1e8, sample_rate=1e6,
                          n_samples=4096, doppler_fraction=doppler)

    def test_band_narrower_than_one_bin_rejected(self):
        # 100 Hz at 400 kS/s over 8 samples is 0.002 of a bin
        with pytest.raises(ValueError, match="bandwidth spans less than one FFT bin"):
            ChannelConfig(bandwidth=100.0, snr_db=0.0, fm_scale=1e8, sample_rate=400e3,
                          n_samples=8)

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
        # below the floor the float32 noise power can overflow (at -340 dB the
        # peak landed on an inf bin; at -4000 dB the variance overflowed)
        for snr_db in (-340.0, -4000.0):
            with pytest.raises(ValueError, match="snr_db must be at least"):
                make_cfg(snr_db=snr_db, n=8192)

    def test_k_factor_needs_a_float64_linear_ratio(self):
        # above about 3082.55 dB, 10^(K/10) overflowed inside a replicate
        for k_db in (3082.5, math.inf, -math.inf, -1e300):
            cfg = make_cfg(k_db=k_db)
            assert cfg.rician_k_db == k_db
            assert all(math.isfinite(a) for a in channel._fading_scales(cfg))
        for k_db in (3082.6, 1e300):
            with pytest.raises(ValueError, match="rician_k_db must be at most 3082.547 dB"):
                make_cfg(k_db=k_db)

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

    @pytest.mark.parametrize("headroom", [0.0, -0.5, 1.5, 2.0, math.nan, math.inf])
    def test_headroom_outside_unit_interval_rejected(self, headroom):
        # a headroom above 1 puts the top currents' tones outside the band
        with pytest.raises(ValueError, match="headroom"):
            ChannelConfig.for_current_range(I_MAX, 410e3, 0.0, headroom=headroom,
                                            n_samples=4096, doppler_fraction=0.02,
                                            rician_k_db=6.0)

    def test_full_band_headroom_accepted(self):
        cfg = ChannelConfig.for_current_range(I_MAX, 410e3, 0.0, headroom=1.0, n_samples=4096,
                                              doppler_fraction=0.02, rician_k_db=6.0)
        assert modulate(I_MAX, cfg) == pytest.approx(410e3)

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

    @pytest.mark.parametrize("bad, match", [(math.nan, "positive"), (math.inf, "bandwidth")])
    def test_non_finite_current_rejected(self, bad, match):
        # NaN compares False both ways, so neither check may be written as a
        # search for failures
        ids = np.array([bad, 0.5 * I_MAX])
        with pytest.raises(ValueError, match=match):
            modulate(ids, IDEAL)
        with pytest.raises(ValueError, match=match):
            simulate_link(ids, make_cfg(), 0)


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
        out = time_domain_link(ids, IDEAL, seed=1)
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
        peaks = time_domain_link(ids, cfg, seed=3) * cfg.fm_scale
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
        out = time_domain_link(np.full(16, 0.5 * I_MAX), cfg, seed=4)
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
        spectrum = received_spectrum(freqs, cfg, 0)
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
        spectrum = received_spectrum(np.array([f]), cfg, 0)
        assert np.abs(spectrum[0, 99]) == pytest.approx(cfg.n_samples, rel=1e-9)
        ids = demodulate_spectrum(spectrum, cfg)[0]
        assert ids == pytest.approx(f / cfg.fm_scale, rel=1e-12)

    # a tone on a bin can make the complex64 kernel denominator exactly 0
    # there; that bin's value is computed apart, and nothing warns
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k_db", [math.inf, -math.inf])
    @pytest.mark.parametrize("n", [8, 16, 64, 512])
    def test_tone_on_every_bin_peaks_there(self, n, k_db):
        cfg = make_cfg(snr_db=math.inf, doppler=0.0, k_db=k_db, n=n)
        k = np.arange(1, cfg.n_bins + 1)
        ids = channel._bin_currents(k, cfg)
        assert np.array_equal(simulate_link(ids, cfg, 3), ids)
        assert np.array_equal(full_search_link(ids, cfg, 3), ids)
        spectrum = received_spectrum(k * (cfg.sample_rate / n), cfg, 3)
        assert np.array_equal(1 + np.argmax(np.abs(spectrum), axis=1), k)

    def test_fast_and_time_domain_paths_agree_statistically(self):
        cfg = make_cfg(snr_db=-20.0, n=1024)
        ids = np.random.default_rng(10).uniform(0.2, 0.9, 1500) * I_MAX
        fast = simulate_link(ids, cfg, seed=21)
        slow = time_domain_link(ids, cfg, seed=21)
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
        # noiseless SNRs, over three chunks (the last one partial), against
        # one-point links in one chunk
        cfgs = [make_cfg(snr_db=snr, bandwidth=bw, n=n)
                for n in (256, 512) for bw in (50e3, 410e3)
                for snr in (-30.0, math.inf, 0.0)]
        rng = np.random.default_rng(12)
        ids_list = [rng.uniform(0.1, 0.9, (25, 10)) * I_MAX for _ in range(2)]
        with chunked(100):
            grid = simulate_link_grid(ids_list, cfgs, (3, 1))
        assert grid.shape == (2, len(cfgs), 25, 10)
        for i, ids in enumerate(ids_list):
            for j, cfg in enumerate(cfgs):
                one = simulate_link(ids, cfg, (3, 1))
                assert np.array_equal(grid[i, j], one), (i, j)

    def test_grid_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            simulate_link_grid([np.full(4, 1e-3), np.full(5, 1e-3)], [IDEAL], 0)

    @pytest.mark.parametrize("ids_list, cfgs", [([], [IDEAL]), ([np.full(4, 1e-3)], [])],
                             ids=["no_currents", "no_configs"])
    def test_grid_rejects_empty_inputs(self, ids_list, cfgs):
        with pytest.raises(ValueError, match="need at least one current array and one link"):
            simulate_link_grid(ids_list, cfgs, 0)

    @pytest.mark.parametrize("seed", [1.5, np.float64(2.0), None, -1, "7", (1, 2.5), ()],
                             ids=repr)
    @pytest.mark.parametrize("entry, n_sym", [
        pytest.param(entry, n_sym, id=entry + ("" if n_sym else "-no_symbols"))
        for n_sym in (3, 0) for entry in ("simulate_link_grid", "simulate_link",
                                          "received_spectrum")])
    def test_seeds_outside_the_contract_rejected(self, entry, n_sym, seed):
        # None would draw fresh entropy per chunk, so two equal calls would
        # differ; with no symbols nothing is drawn, and the seed is still checked
        cfg = make_cfg(n=512)
        ids = np.full(n_sym, 0.5 * I_MAX)
        call = {"simulate_link_grid": lambda: simulate_link_grid([ids], [cfg], seed),
                "simulate_link": lambda: simulate_link(ids, cfg, seed),
                "received_spectrum": lambda: received_spectrum(modulate(ids, cfg), cfg, seed)}
        with pytest.raises(ValueError,
                           match="seed must be an integer >= 0 or a non-empty tuple of them"):
            call[entry]()

    def test_chunk_size_does_not_change_results(self):
        # every draw is keyed by (seed, symbol index), not by chunk
        ids = np.random.default_rng(13).uniform(0.01, 1.0, 1100) * I_MAX
        for snr in (-20.0, math.inf):
            cfg = make_cfg(snr_db=snr, n=512)
            want = simulate_link(ids, cfg, (4, 2))
            for chunk in (1, 7, 100, 5000, np.int64(64)):
                with chunked(chunk):
                    assert np.array_equal(simulate_link(ids, cfg, (4, 2)), want), (snr, chunk)

    def test_received_spectrum_rows_are_keyed_by_symbol(self):
        # a row depends on its symbol index only, not on the rows around it
        cfg = make_cfg(snr_db=-10.0, n=512)
        freqs = modulate(np.random.default_rng(18).uniform(0.1, 0.9, 40) * I_MAX, cfg)
        whole = received_spectrum(freqs, cfg, 9)
        assert np.array_equal(received_spectrum(freqs[25:31], cfg, 9, np.arange(25, 31)),
                              whole[25:31])
        assert not np.array_equal(received_spectrum(freqs[25:31], cfg, 9), whole[25:31])
        # a scattered, unordered index set, as the pruned search's fallback passes
        idx = np.array([37, 2, 19, 20, 5])
        assert np.array_equal(received_spectrum(freqs[idx], cfg, 9, idx), whole[idx])
        with pytest.raises(ValueError, match="need one symbol index per tone"):
            received_spectrum(freqs[:3], cfg, 9, [0, 1])
        # any numpy integer dtype indexes the same rows
        for dtype in (np.uint8, np.int32, np.uint64):
            assert np.array_equal(received_spectrum(freqs[idx], cfg, 9, idx.astype(dtype)),
                                  whole[idx])

    # a float would take the row of its truncation, -1 that of 2^64 - 1
    @pytest.mark.parametrize("symbols", [[1.5], [1.0], [-1], [np.nan], [True], ["1"]],
                             ids=repr)
    def test_received_spectrum_rejects_symbols_that_are_no_index(self, symbols):
        cfg = make_cfg(n=512)
        with pytest.raises(ValueError, match="symbols must be integer indices >= 0"):
            received_spectrum(modulate([0.5 * I_MAX], cfg), cfg, 9, symbols)


def full_search_link(ids, cfg, seed, chunk_symbols=1024):
    """Reference link: the materialised spectrum rows of the link's tones,
    fm_cycles * ids cycles per sample, and an argmax over every bin."""
    flat = np.ravel(ids)
    channel._check_tones(modulate(flat, cfg), cfg)
    cycles = cfg.fm_cycles * flat
    out = np.empty(flat.size)
    for start in range(0, flat.size, chunk_symbols):
        stop = min(start + chunk_symbols, flat.size)
        spectrum = channel._spectrum_rows(cycles[start:stop], cfg, seed, np.arange(start, stop))
        out[start:stop] = demodulate_spectrum(spectrum, cfg)
    return out.reshape(np.shape(ids))


def gaussian_link(ids, cfg, seed, chunk_symbols=1024):
    """Statistical reference: i.i.d. complex Gaussian unit noise drawn at every
    in-band bin in float32 from one numpy stream per chunk, after the doppler
    and fading draws, and an argmax over every bin (the full-row law the
    order-statistics sampler replaces)."""
    freqs = modulate(np.ravel(ids), cfg)
    cycles = cfg.fm_cycles * np.ravel(ids)
    roots = channel._bin_roots(cfg)
    scale = channel._noise_scale(cfg)
    out = np.empty(freqs.size)
    for ci, start in enumerate(range(0, freqs.size, chunk_symbols)):
        stop = min(start + chunk_symbols, freqs.size)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ci,)))
        factors = channel._tone_factors(cycles[start:stop], draw_gains(rng, stop - start), cfg)
        full_row = np.arange(1, roots.size + 1)[None, :]
        spectrum = channel._tone_spectrum(factors, roots, full_row.T).T
        if not math.isinf(cfg.snr_db):
            w = rng.standard_normal((stop - start, 2 * roots.size), dtype=np.float32)
            spectrum.real += scale * w[:, :roots.size]
            spectrum.imag += scale * w[:, roots.size:]
        out[start:stop] = demodulate_spectrum(spectrum, cfg)
    return out.reshape(np.shape(ids))


def edge_currents(cfg):
    """Currents whose tones sit exactly on bin 1 and on bin n_bins."""
    return np.array([1, cfg.n_bins]) * (cfg.sample_rate / cfg.n_samples) / cfg.fm_scale


class TestPrunedPeakSearch:
    """simulate_link searches candidate bins only; it must equal a full search bit for bit."""

    # 64, 68 and 72 samples give 16, 17 and 18 bins: the order statistics
    # cover the whole row up to _TOP_NOISE + 1 bins and only the loudest
    # above; 100, 104 and 108 give 25, 26 and 27 bins, around the
    # 2 _WINDOW + 1 + _TOP_NOISE + 1 candidate bins; 16 and 36 samples (4
    # and 9 bins) fit in one window, 40 (10 bins) is one bin more, and from
    # 256 samples (64 bins) most bins go unsearched
    @pytest.mark.parametrize("n", [8192, 512, 16, 256, 260, 264, 388, 392, 396,
                                   64, 68, 72, 100, 104, 108, 36, 40])
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
        n=st.sampled_from([8, 16, 36, 40, 512, 8192]),
        n_sym=st.integers(1, 200),
        chunk=st.integers(1, 256),
        seed=st.integers(0, 2**32 - 1),
    )
    # edge tones on the two bins of an 8-sample block, no Doppler
    @example(snr=-60.0, k_db=-math.inf, doppler=0.0, n=8, n_sym=1, chunk=1, seed=0)
    def test_matches_full_row_reference_everywhere(self, snr, k_db, doppler, n, n_sym, chunk,
                                                   seed):
        cfg = make_cfg(snr_db=snr, doppler=doppler, k_db=k_db, n=n)
        rng = np.random.default_rng(seed)
        ids = np.concatenate([edge_currents(cfg), rng.uniform(0.01, 1.0, n_sym) * I_MAX])
        rng.shuffle(ids)
        with chunked(chunk):
            got = simulate_link(ids, cfg, seed)
        assert np.array_equal(got, full_search_link(ids, cfg, seed, chunk_symbols=chunk))

    @staticmethod
    def count_fallback_rows(monkeypatch):
        """Count the rows that the pruned search searches over every bin."""
        rows = []
        full_row_peaks = channel._full_row_peaks

        def counting(factors, chunk_rows, *args):
            rows.append(np.size(chunk_rows))
            return full_row_peaks(factors, chunk_rows, *args)

        monkeypatch.setattr(channel, "_full_row_peaks", counting)
        return rows

    @staticmethod
    def count_draws(monkeypatch):
        """Record each gain draw's first symbol and each noise draw's (first
        symbol, bin count)."""
        gains, noise = [], []
        gain_draws, noise_draws = channel._gain_draws, channel._noise_draws

        def counting_gains(seed, symbols):
            gains.append(symbols[0])
            return gain_draws(seed, symbols)

        def counting_noise(seed, n_bins, symbols):
            noise.append((symbols[0], n_bins))
            return noise_draws(seed, n_bins, symbols)

        monkeypatch.setattr(channel, "_gain_draws", counting_gains)
        monkeypatch.setattr(channel, "_noise_draws", counting_noise)
        return gains, noise

    def test_forced_fallback_stays_exact(self, monkeypatch):
        # with no window and a single explicit loud bin the bound rarely holds
        monkeypatch.setattr(channel, "_WINDOW", 0)
        monkeypatch.setattr(channel, "_TOP_NOISE", 1)
        rows = self.count_fallback_rows(monkeypatch)
        ids = np.random.default_rng(15).uniform(0.01, 1.0, 700) * I_MAX
        for snr in (-20.0, 10.0, math.inf):
            cfg = make_cfg(snr_db=snr, n=512)
            rows.clear()
            with chunked(300):
                got = simulate_link(ids, cfg, 6)
            assert np.array_equal(got, full_search_link(ids, cfg, 6, chunk_symbols=300))
            assert 0 < sum(rows) <= ids.size, snr

    def test_no_fallback_when_the_window_holds_every_bin(self, monkeypatch):
        # up to 2 _WINDOW + 1 bins (4 and 9 here) every in-band bin is a candidate
        rows = self.count_fallback_rows(monkeypatch)
        ids = np.random.default_rng(17).uniform(0.01, 1.0, 2000) * I_MAX
        cfgs = [make_cfg(snr_db=snr, n=n) for n in (16, 36) for snr in (-20.0, 10.0, math.inf)]
        simulate_link_grid([ids], cfgs, 8)
        assert sum(rows) == 0

    def test_fallback_reads_the_chunk_draws(self, monkeypatch):
        # with most rows falling back, a sweep still draws each chunk's gains
        # once and its noise once per bin count: the full-row search reads
        # the chunk's own draws and draws nothing
        monkeypatch.setattr(channel, "_WINDOW", 0)
        monkeypatch.setattr(channel, "_TOP_NOISE", 1)
        rows = self.count_fallback_rows(monkeypatch)
        gains, noise = self.count_draws(monkeypatch)
        ids = np.random.default_rng(15).uniform(0.01, 1.0, 700) * I_MAX
        cfgs = [make_cfg(snr_db=snr, n=n) for n in (256, 512) for snr in (-20.0, 10.0, math.inf)]
        with chunked(300):
            simulate_link_grid([ids, 1.1 * ids], cfgs, 6)
        assert sum(rows) > 0
        assert gains == [0, 300, 600]
        assert sorted(noise) == [(start, n_bins) for start in (0, 300, 600) for n_bins in (64, 128)]

    def test_noiseless_bin_count_draws_no_noise(self, monkeypatch):
        # a bin count whose configs all lack noise draws none, while the
        # noisy one draws its noise once per chunk
        gains, noise = self.count_draws(monkeypatch)
        ids = np.random.default_rng(18).uniform(0.01, 1.0, 700) * I_MAX
        cfgs = [make_cfg(snr_db=-20.0, n=256), make_cfg(snr_db=math.inf, n=512)]
        with chunked(300):
            grid = simulate_link_grid([ids], cfgs, 6)
        assert gains == [0, 300, 600]
        assert noise == [(0, 64), (300, 64), (600, 64)]
        for j, cfg in enumerate(cfgs):
            assert np.array_equal(grid[0, j], simulate_link(ids, cfg, 6)), cfg

    def test_fallback_is_rare(self, monkeypatch):
        # the default candidate counts are sized so that at most 1e-3 of the
        # rows fall back, over SNR x block length x K-factor
        rows = self.count_fallback_rows(monkeypatch)
        ids = np.random.default_rng(16).uniform(0.01, 1.0, 2000) * I_MAX
        links = 0
        for n in (64, 1024, 8192):
            for k_db in (6.0, -math.inf, math.inf):
                cfgs = [make_cfg(snr_db=snr, k_db=k_db, n=n)
                        for snr in (-60.0, -20.0, -10.0, 0.0, math.inf)]
                simulate_link_grid([ids], cfgs, 7)
                links += len(cfgs)
        assert sum(rows) <= 1e-3 * ids.size * links

    def test_fallback_is_rare_at_the_worst_point(self, monkeypatch):
        # the aggregate above hides a single bad point: at -20 dB, 8192
        # samples and no fading, the measured worst, 10 000 symbols bound
        # the share at 1e-3 (a candidate set of 8 loud bins falls back on
        # about 7e-3 of them)
        rows = self.count_fallback_rows(monkeypatch)
        ids = np.random.default_rng(16).uniform(0.01, 1.0, 10_000) * I_MAX
        simulate_link_grid([ids], [make_cfg(snr_db=-20.0, k_db=math.inf, n=8192)], 7)
        assert sum(rows) <= 1e-3 * ids.size


class TestRepeatedCurrents:
    """simulate_link_grid searches each distinct (symbol, current) pair once
    and copies its estimates to every current array that holds it."""

    @staticmethod
    def arrays():
        # an array, an exact copy, a copy with half its symbols changed and a
        # scaled copy, which repeats no current
        rng = np.random.default_rng(19)
        ids = rng.uniform(0.01, 0.9, 300) * I_MAX
        half = ids.copy()
        changed = rng.permutation(ids.size)[:ids.size // 2]
        half[changed] = rng.uniform(0.01, 0.9, changed.size) * I_MAX
        return [ids, ids.copy(), half, 1.1 * ids]

    # 64 samples give 16 in-band bins, 8192 give 2048
    @pytest.mark.parametrize("n", [64, 8192])
    def test_every_entry_equals_its_own_link(self, n):
        ids_list = self.arrays()
        cfgs = [make_cfg(snr_db=snr, n=n) for snr in (-20.0, 10.0, math.inf)]
        want = [[simulate_link(ids, cfg, (2, 9)) for cfg in cfgs] for ids in ids_list]
        for chunk in (1, 7, 100, 5000):
            with chunked(chunk):
                grid = simulate_link_grid(ids_list, cfgs, (2, 9))
            assert np.array_equal(grid, want), chunk

    def test_forced_fallback_stays_exact(self, monkeypatch):
        monkeypatch.setattr(channel, "_WINDOW", 0)
        monkeypatch.setattr(channel, "_TOP_NOISE", 1)
        rows = TestPrunedPeakSearch.count_fallback_rows(monkeypatch)
        ids_list = self.arrays()
        cfgs = [make_cfg(snr_db=snr, n=512) for snr in (-20.0, 10.0, math.inf)]
        with chunked(100):
            grid = simulate_link_grid(ids_list, cfgs, 4)
        assert sum(rows) > 0
        for i, ids in enumerate(ids_list):
            for j, cfg in enumerate(cfgs):
                assert np.array_equal(grid[i, j], full_search_link(ids, cfg, 4)), (i, j)

    def test_repeats_add_no_work(self, monkeypatch):
        # three copies of one array hand the full-row fallback exactly the
        # rows that one copy does, in at most one call per (chunk, config)
        monkeypatch.setattr(channel, "_WINDOW", 0)
        monkeypatch.setattr(channel, "_TOP_NOISE", 1)
        rows = TestPrunedPeakSearch.count_fallback_rows(monkeypatch)
        ids = self.arrays()[0]
        cfgs = [make_cfg(snr_db=snr, n=512) for snr in (-20.0, 10.0, math.inf)]
        with chunked(100):
            simulate_link_grid([ids], cfgs, 4)
            once = list(rows)
            rows.clear()
            simulate_link_grid([ids, ids, ids], cfgs, 4)
        assert sum(once) > 0
        assert sum(rows) == sum(once)
        n_chunks = -(-ids.size // 100)
        assert len(rows) <= n_chunks * len(cfgs)

    # the search lays a batch out candidates x rows and reduces per row, so
    # how the distinct rows are split into batches and ordered changes nothing
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("batch_rows", [1, 7, 1024])
    def test_batches_and_array_order_do_not_change_results(self, monkeypatch, batch_rows,
                                                           forced):
        if forced:
            monkeypatch.setattr(channel, "_WINDOW", 0)
            monkeypatch.setattr(channel, "_TOP_NOISE", 1)
        ids_list = self.arrays()
        cfgs = [make_cfg(snr_db=snr, bandwidth=bw, n=n) for n in (64, 512)
                for bw in (50e3, 410e3) for snr in (-20.0, 10.0, math.inf)]
        want = [[simulate_link(ids, cfg, (3, 5)) for cfg in cfgs] for ids in ids_list]
        monkeypatch.setattr(channel, "_BATCH_ROWS", batch_rows)
        assert np.array_equal(simulate_link_grid(ids_list, cfgs, (3, 5)), want)
        order = [2, 0, 3, 1]
        grid = simulate_link_grid([ids_list[i] for i in order], cfgs, (3, 5))
        assert np.array_equal(grid, [want[i] for i in order])


class TestDistinct:
    """_distinct gives each symbol's distinct currents, as np.unique does per symbol."""

    @settings(max_examples=150, deadline=None)
    @given(n_arrays=st.integers(1, 8), n_sym=st.integers(1, 30), n_values=st.integers(1, 6),
           repeat=st.booleans(), equal_column=st.booleans(), distinct_column=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_symbol_unique(self, n_arrays, n_sym, n_values, repeat, equal_column,
                                       distinct_column, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(1, n_values + 1, (n_arrays, n_sym)) * 0.1
        if repeat:  # one array repeats another
            ids[rng.integers(n_arrays)] = ids[rng.integers(n_arrays)]
        if equal_column:
            ids[:, 0] = ids[0, 0]
        if distinct_column:
            ids[:, -1] = np.arange(1, n_arrays + 1) * 0.7
        rows, values, inverse = channel._distinct(ids)
        assert inverse.shape == ids.shape
        for s in range(n_sym):
            want, want_inverse = np.unique(ids[:, s], return_inverse=True)
            assert np.array_equal(np.sort(values[rows == s]), want)
            assert np.array_equal(values[inverse[:, s]], ids[:, s])
            assert np.all(rows[inverse[:, s]] == s)
            # equal entries, and only those, share an index
            assert len(set(zip(want_inverse.tolist(), inverse[:, s].tolist()))) == want.size


class TestBandwidthFanOut:
    """Configs that differ only in bandwidth and SNR, and share fm_cycles
    (the sample rate and the FM scale both scale with the bandwidth), share
    one tone evaluation and one search in simulate_link_grid and give
    bit-identical estimates at one SNR; a config whose fm_cycles differs by
    one ulp is evaluated and searched apart."""

    BANDWIDTHS = (50e3, 200e3, 410e3, 500e3)
    SNRS = (-20.0, 10.0, math.inf)
    # about 3 in 10 bandwidths in 1 kHz - 1 MHz get an fm_cycles one ulp
    # below that of the four above; this is one of them
    ULP_OFF = 109e3

    @classmethod
    def configs(cls, n, off_by_ulp):
        bws = cls.BANDWIDTHS + ((cls.ULP_OFF,) if off_by_ulp else ())
        cfgs = [make_cfg(snr_db=snr, bandwidth=bw, n=n) for snr in cls.SNRS for bw in bws]
        cycles = sorted({cfg.fm_cycles for cfg in cfgs})
        assert len(cycles) == 1 + off_by_ulp
        assert cycles[-1] - cycles[0] == off_by_ulp * np.spacing(cycles[0])
        return cfgs

    # 64 samples give 16 in-band bins, 8192 give 2048, at every bandwidth
    @pytest.mark.parametrize("off_by_ulp", [False, True])
    @pytest.mark.parametrize("n", [64, 8192])
    def test_every_config_equals_its_own_link(self, n, off_by_ulp):
        ids = np.random.default_rng(20).uniform(0.01, 0.9, 300) * I_MAX
        cfgs = self.configs(n, off_by_ulp)
        want = [simulate_link(ids, cfg, (2, 9)) for cfg in cfgs]
        for chunk in (1, 7, 100, 5000):
            with chunked(chunk):
                grid = simulate_link_grid([ids], cfgs, (2, 9))
            assert np.array_equal(grid[0], want), chunk
        # at each SNR every bandwidth of one fm_cycles gives the same estimates
        shared = [[w for w, cfg in zip(want, cfgs) if cfg.snr_db == snr
                   and cfg.bandwidth != self.ULP_OFF] for snr in self.SNRS]
        assert all(np.array_equal(w, ws[0]) for ws in shared for w in ws)
        if off_by_ulp:
            assert not np.array_equal(want[len(self.BANDWIDTHS)], want[0])

    @pytest.mark.parametrize("variants", [
        # 128 bins each, at block lengths 512, 1024 and 640: other kernel roots
        [dict(n_samples=512), dict(n_samples=1024, oversample=8.0),
         dict(n_samples=640, oversample=5.0)],
        [dict(doppler_fraction=0.02), dict(doppler_fraction=0.0), dict(doppler_fraction=0.01)],
        [dict(rician_k_db=6.0), dict(rician_k_db=math.inf), dict(rician_k_db=-math.inf)],
    ])
    def test_configs_of_one_bin_count_stay_exact(self, variants):
        ids = np.random.default_rng(21).uniform(0.01, 0.9, 400) * I_MAX
        base = dict(n_samples=512, doppler_fraction=0.02, rician_k_db=6.0)
        cfgs = [ChannelConfig.for_current_range(I_MAX, 410e3, snr, headroom=0.8,
                                                **{**base, **variant})
                for variant in variants for snr in (-10.0, math.inf)]
        assert len({cfg.n_bins for cfg in cfgs}) == 1
        with chunked(150):
            grid = simulate_link_grid([ids], cfgs, 5)
        for j, cfg in enumerate(cfgs):
            assert np.array_equal(grid[0, j], simulate_link(ids, cfg, 5)), cfg

    @pytest.mark.parametrize("off_by_ulp", [False, True])
    def test_extra_bandwidths_add_no_fallback_work(self, monkeypatch, off_by_ulp):
        # bandwidths of one fm_cycles hand the full-row fallback exactly the
        # rows of one bandwidth, from as many tone evaluations; one of
        # another fm_cycles adds exactly the work of its own link
        monkeypatch.setattr(channel, "_WINDOW", 0)
        monkeypatch.setattr(channel, "_TOP_NOISE", 1)
        rows = TestPrunedPeakSearch.count_fallback_rows(monkeypatch)
        calls = []
        tone_factors = channel._tone_factors

        def counting(cycles, *args):
            calls.append(np.size(cycles))
            return tone_factors(cycles, *args)

        monkeypatch.setattr(channel, "_tone_factors", counting)
        ids = np.random.default_rng(22).uniform(0.01, 0.9, 300) * I_MAX

        def work(cfgs):
            rows.clear()
            calls.clear()
            with chunked(100):
                simulate_link_grid([ids], cfgs, 4)
            return sorted(rows), sorted(calls)

        cfgs = self.configs(512, off_by_ulp)
        one = [cfg for cfg in cfgs if cfg.bandwidth == 410e3]
        off = [cfg for cfg in cfgs if cfg.bandwidth == self.ULP_OFF]
        want_rows, want_calls = work(one)
        if off_by_ulp:
            off_rows, off_calls = work(off)
            want_rows, want_calls = sorted(want_rows + off_rows), sorted(want_calls + off_calls)
        assert sum(want_rows) > 0
        assert work(cfgs) == (want_rows, want_calls)


class TestSamplerLaw:
    """The order-statistics sampler draws the law of i.i.d. complex Gaussian
    unit noise at every bin: checked against that law directly and against
    the full-row Gaussian reference (gaussian_link)."""

    @staticmethod
    def unit_power(n_bins, rows, seed):
        """u/2 of materialised rows and whether each bin was drawn explicitly."""
        noise = channel._noise_draws(seed, n_bins, np.arange(rows))
        re, im = (p.T for p in channel._unit_noise(noise, np.arange(1, n_bins + 1)[:, None]))
        half = (re.astype(float) ** 2 + im.astype(float) ** 2) / 2
        explicit = np.zeros((rows, n_bins), dtype=bool)
        np.put_along_axis(explicit, noise.bins.T - 1, True, axis=1)
        return half, explicit, noise.u_rest

    # alpha = 0.001; 300 rows x n_bins values (1200 at 4 bins, 614 400 at
    # 2048); up to _TOP_NOISE + 1 = 17 bins every bin is drawn explicitly
    @pytest.mark.parametrize("n_bins", [4, 17, 64, 65, 2048])
    def test_materialised_row_power_is_exponential(self, n_bins):
        half, _, _ = self.unit_power(n_bins, 300, 19)
        assert stats.kstest(half.ravel(), stats.expon.cdf).pvalue > 0.001

    # alpha = 0.001; 2000 rows of 512 bins
    def test_row_maximum_follows_the_order_statistic(self):
        n_bins = 512
        half, _, _ = self.unit_power(n_bins, 2000, 20)
        cdf = lambda x: (-np.expm1(-x)) ** n_bins  # noqa: E731
        assert stats.kstest(half.max(axis=1), cdf).pvalue > 0.001

    def bound_pvalue(self, n_bins):
        """KS p-value of exp(-u_rest / 2) over 2000 rows against its Beta law.

        u_rest / 2 is the m-th largest u/2 of the row, m = min(_TOP_NOISE +
        1, n_bins), so exp(-u_rest / 2) ~ Beta(m, n_bins - m + 1).
        """
        m = min(channel._TOP_NOISE + 1, n_bins)
        _, _, u_rest = self.unit_power(n_bins, 2000, 24)
        return stats.kstest(np.exp(-u_rest / 2), stats.beta(m, n_bins - m + 1).cdf).pvalue

    # alpha = 0.001; 2000 rows of 512 bins
    def test_bound_is_the_order_statistic(self):
        assert self.bound_pvalue(512) > 0.001

    # alpha = 0.001; up to _TOP_NOISE + 1 = 17 bins m = n_bins, so
    # Beta(n_bins, 1); at 65 bins m = 17, so Beta(17, 49)
    @pytest.mark.parametrize("n_bins", [4, 17, 65])
    def test_bound_is_the_order_statistic_when_every_bin_is_drawn(self, n_bins):
        assert self.bound_pvalue(n_bins) > 0.001

    def test_bins_not_drawn_explicitly_stay_below_the_bound(self):
        # the pruned search's proof rests on this, up to float32 rounding
        half, explicit, u_rest = self.unit_power(2048, 300, 21)
        assert np.all(explicit.sum(axis=1) == channel._TOP_NOISE + 1)
        rest = np.where(explicit, 0.0, half).max(axis=1)
        assert np.all(rest <= u_rest / 2 * (1 + 1e-6))
        assert np.all(np.where(explicit, half, np.inf).min(axis=1) >= u_rest / 2 * (1 - 1e-6))

    @staticmethod
    def check_peak_bin_error(cfg):
        """Two-sample KS and chi-square of the peak-bin error against
        gaussian_link, alpha = 0.001 each, 4000 symbols per side."""
        ids = np.random.default_rng(22).uniform(0.05, 1.0, 4000) * I_MAX
        to_bin = cfg.fm_scale * cfg.n_samples / cfg.sample_rate
        k_true = np.rint(ids * to_bin)
        err_new = np.rint(simulate_link(ids, cfg, 23) * to_bin) - k_true
        err_ref = np.rint(gaussian_link(ids, cfg, 23) * to_bin) - k_true
        assert stats.ks_2samp(err_new, err_ref).pvalue > 0.001
        # chi-square on the pooled deciles of the error
        edges = np.unique(np.quantile(np.concatenate([err_new, err_ref]), np.linspace(0, 1, 11)))
        table = np.array([np.histogram(e, np.append(edges[:-1], np.inf))[0]
                          for e in (err_new, err_ref)])
        table = table[:, table.sum(axis=0) > 0]
        assert table.shape[1] >= 2
        assert stats.chi2_contingency(table).pvalue > 0.001

    # 2048 bins
    @pytest.mark.parametrize("snr", [-60.0, -20.0, 0.0, math.inf])
    def test_peak_bin_error_matches_gaussian_reference(self, snr):
        self.check_peak_bin_error(make_cfg(snr_db=snr, n=8192))

    # 64 bins, 17 of them drawn explicitly
    @pytest.mark.parametrize("snr", [-60.0, -20.0, 0.0])
    def test_peak_bin_error_matches_gaussian_reference_at_64_bins(self, snr):
        self.check_peak_bin_error(make_cfg(snr_db=snr, n=256))


class TestExplicitBins:
    """Floyd's subset and the run lookup of the explicitly drawn bins give
    the sampler of the int8 slot plane (tests/slot_plane.py) exactly."""

    N_BINS = [1, 4, 16, 17, 18, 64, 65, 100, 2048]

    @settings(max_examples=150, deadline=None)
    @given(n_bins=st.sampled_from(N_BINS), b=st.integers(1, 40), m=st.integers(1, 40),
           start=st.integers(0, 10**6), seed=st.integers(0, 2**32 - 1))
    def test_subset_matches_slot_plane_reference(self, n_bins, b, m, start, seed):
        m = min(m, n_bins)
        keys = channel._symbol_keys(seed, n_bins, np.arange(start, start + b))
        assert np.array_equal(channel._subset(keys, n_bins, m).T,
                              slot_plane.subset(keys, n_bins, m)[0])

    @settings(max_examples=150, deadline=None)
    @given(n_bins=st.sampled_from(N_BINS), b=st.integers(1, 40), start=st.integers(0, 10**6),
           seed=st.integers(0, 2**32 - 1))
    def test_unit_noise_matches_slot_plane_reference(self, n_bins, b, start, seed):
        noise = channel._noise_draws(seed, n_bins, np.arange(start, start + b))
        full_row = np.arange(1, n_bins + 1)[None, :]
        for got, want in zip(channel._unit_noise(noise, full_row.T),
                             slot_plane.unit_noise(noise, n_bins, full_row)):
            assert np.array_equal(got.T, want)
        # repeated rows in any order, each read as a run of 9 bins (fewer
        # below 9 bins), as the candidate window is; each run holds a chosen
        # explicit bin at its first, middle or last slot, where the band allows
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, b, rng.integers(1, 30))
        k = min(2 * channel._WINDOW + 1, n_bins)
        explicit = noise.bins[rng.integers(0, noise.bins.shape[0], rows.size), rows]
        first = np.clip(explicit - rng.choice([0, k // 2, k - 1], rows.size), 1, n_bins - k + 1)
        bins = first[:, None] + np.arange(k)
        for got, want in zip(channel._unit_noise(noise.take(rows), bins.T),
                             slot_plane.unit_noise(noise, n_bins, bins, rows)):
            assert np.array_equal(got.T, want)

    def test_default_chunk_memory(self):
        # the criterion-3 shape: 10 spacings of 8000 symbols at 2048 bins and
        # -20 dB; 2048-symbol chunks may hold no more than 1024-symbol chunks
        # with a (b, n_bins) int8 plane did: a traced peak of 4.42 MB
        cfg = LinkConfig()
        gs, ds = cfg.fields(0)
        streams = [drain_current(cfg.mosfet, quantize(gs.values, build_levels(cfg.vgs_range, d)),
                                 ds.values)
                   for d in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0, 1.25)]
        chan = cfg.channel()
        assert (streams[0].size, chan.n_bins, chan.snr_db) == (8000, 2048, -20.0)
        tracemalloc.start()
        try:
            simulate_link_grid(streams, [chan], (cfg.seed, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.42e6

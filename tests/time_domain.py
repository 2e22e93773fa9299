"""Time-domain reference of the FM link: sample blocks and their FFT peak.

The library samples the received spectrum directly
(:func:`ajscc.channel.received_spectrum`).  This module builds what that
sampler stands in for: the received complex-baseband sample blocks
(rectangular window, FFT length = block length), with the same doppler,
fading and noise model, drawn from numpy ``Generator`` streams, one per
chunk of symbols derived from (seed, chunk index).  The tests check the
sampler against it statistically.
"""

import math

import numpy as np

import ajscc.channel as channel
from ajscc.channel import demodulate_spectrum, modulate


def draw_gains(rng, b):
    """Unit per-symbol draws in stream order: doppler d ~ U(-1, 1), fading z_re, z_im ~ N(0, 1)."""
    return rng.uniform(-1.0, 1.0, b), rng.standard_normal(b), rng.standard_normal(b)


def transmit_block(freqs, cfg, rng):
    """Received sample blocks, one row per tone frequency."""
    freqs = channel._check_tones(freqs, cfg)
    n = cfg.n_samples
    f_eff, h = channel._symbol_gains(freqs, draw_gains(rng, freqs.size), cfg)
    t = np.arange(n) / cfg.sample_rate
    blocks = h[:, None] * np.exp(2j * np.pi * np.outer(f_eff, t))
    # per-sample complex noise power whose in-band share is 10^(-snr/10)
    var = 10.0 ** (-cfg.snr_db / 10.0) * cfg.sample_rate / cfg.bandwidth
    if var > 0:
        scale = math.sqrt(var / 2.0)
        blocks += scale * rng.standard_normal((freqs.size, n))
        blocks += 1j * scale * rng.standard_normal((freqs.size, n))
    return blocks


def time_domain_link(ids, cfg, seed, chunk_symbols=1024):
    """Current estimates from the FFT peak of each symbol's transmitted block,
    with one RNG stream per chunk of ``chunk_symbols`` symbols derived from
    (seed, chunk index)."""
    ids = np.asarray(ids, dtype=float)
    freqs = modulate(ids.ravel(), cfg)
    out = np.empty(freqs.size)
    for ci, start in enumerate(range(0, freqs.size, chunk_symbols)):
        stop = min(start + chunk_symbols, freqs.size)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ci,)))
        spectrum = np.fft.fft(transmit_block(freqs[start:stop], cfg, rng), axis=1)
        out[start:stop] = demodulate_spectrum(spectrum[:, 1:cfg.n_bins + 1], cfg)
    return out.reshape(ids.shape)

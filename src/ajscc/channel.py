"""FM tone link: current -> frequency -> Rician/Doppler/AWGN -> FFT peak.

A current is mapped linearly to a tone frequency, transmitted as one
complex-baseband symbol block, and recovered as the frequency of the
largest-magnitude FFT bin inside the configured band, divided by the same
scale factor.  Impairments per symbol: a Doppler shift drawn uniformly in
+/- doppler_fraction of the tone frequency, a scalar Rician fading gain
(line-of-sight fraction set by the K-factor, diffuse part complex
Gaussian), and white complex Gaussian noise whose in-band power equals
signal power / 10^(snr_db/10).

Two equivalent realizations are provided:

* :func:`transmit` / :func:`demodulate` build the actual sample block
  (rectangular window, FFT length = block length).
* :func:`received_spectrum` / :func:`demodulate_spectrum` sample the
  received spectrum directly: the tone's transform is the closed-form
  geometric-series kernel, and the FFT of white Gaussian noise is again
  white Gaussian (variance scaled by the block length), so only the
  searched in-band bins need noise draws.  This is an exact sampler of the
  same peak statistic, roughly two orders of magnitude cheaper.

:func:`simulate_link` runs the spectrum sampler over a current sequence
in chunks with one RNG stream each; :func:`simulate_link_grid` does the
same for many current sequences and configs at once (the Monte-Carlo
sweeps' axis points), drawing each chunk once and sharing it.

Within one RNG stream draws are ordered doppler, fading, noise.  None of
them depends on the tone frequencies or the SNR: noise is drawn at unit
variance and scaled per config.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelConfig",
    "modulate",
    "transmit",
    "transmit_block",
    "demodulate",
    "received_spectrum",
    "demodulate_spectrum",
    "simulate_link",
    "simulate_link_grid",
]


@dataclass(frozen=True)
class ChannelConfig:
    """Link parameters; snr_db or rician_k_db may be +inf to disable noise/fading."""

    bandwidth: float          # occupied signal band [Hz]
    snr_db: float             # in-band SNR [dB]
    fm_scale: float           # current -> frequency map [Hz/A]
    sample_rate: float        # [Hz]
    symbol_duration: float    # [s]; product with sample_rate must be integral
    doppler_fraction: float = 0.02
    rician_k_db: float = 6.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if not self.fm_scale > 0:
            raise ValueError(f"fm_scale must be positive, got {self.fm_scale}")
        if self.doppler_fraction < 0:
            raise ValueError("doppler_fraction must be non-negative")
        nyquist_needed = 2.0 * self.bandwidth * (1.0 + self.doppler_fraction)
        if self.sample_rate < nyquist_needed:
            raise ValueError(
                f"sample_rate {self.sample_rate} below {nyquist_needed} needed for "
                f"band {self.bandwidth} Hz with doppler margin"
            )
        n_float = self.symbol_duration * self.sample_rate
        if abs(n_float - round(n_float)) > 1e-6 or round(n_float) < 8:
            raise ValueError(
                f"symbol_duration*sample_rate = {n_float} must be an integer >= 8"
            )
        if self.n_bins < 1:
            raise ValueError("bandwidth spans less than one FFT bin")

    @property
    def n_samples(self) -> int:
        """Samples per symbol = FFT length."""
        return int(round(self.symbol_duration * self.sample_rate))

    @property
    def n_bins(self) -> int:
        """Number of searched in-band FFT bins (bin 1 .. n_bins)."""
        return _inband_bins(self.bandwidth, self.sample_rate, self.n_samples)

    @classmethod
    def for_current_range(cls, i_max: float, bandwidth: float, snr_db: float, *,
                          headroom: float = 0.8, n_samples: int = 4096,
                          oversample: float = 4.0, doppler_fraction: float = 0.02,
                          rician_k_db: float = 6.0, seed: int = 0) -> "ChannelConfig":
        """Config whose FM scale maps i_max to ``headroom * bandwidth``."""
        if not i_max > 0:
            raise ValueError(f"i_max must be positive, got {i_max}")
        sample_rate = oversample * bandwidth
        return cls(
            bandwidth=float(bandwidth),
            snr_db=float(snr_db),
            fm_scale=headroom * bandwidth / i_max,
            sample_rate=sample_rate,
            symbol_duration=n_samples / sample_rate,
            doppler_fraction=doppler_fraction,
            rician_k_db=rician_k_db,
            seed=seed,
        )


def _inband_bins(bandwidth: float, sample_rate: float, n: int) -> int:
    return int(math.floor(bandwidth * n / sample_rate * (1.0 + 1e-12)))


def modulate(ids, cfg: ChannelConfig):
    """Tone frequency [Hz] for current ``ids``; must land inside the band."""
    ids = np.asarray(ids, dtype=float)
    if np.any(ids <= 0):
        raise ValueError("ids must be positive")
    freq = cfg.fm_scale * ids
    if np.any(freq > cfg.bandwidth * (1.0 + 1e-12)):
        raise ValueError(
            f"frequency {float(np.max(freq)):.6g} Hz exceeds bandwidth "
            f"{cfg.bandwidth:.6g} Hz; fm_scale inconsistent with current range"
        )
    return float(freq) if np.ndim(freq) == 0 else freq


def _fading_scales(cfg: ChannelConfig) -> tuple[float, float]:
    """(line-of-sight amplitude, diffuse amplitude); unit mean power."""
    if math.isinf(cfg.rician_k_db):
        return 1.0, 0.0
    k = 10.0 ** (cfg.rician_k_db / 10.0)
    return math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0))


def _noise_variance(cfg: ChannelConfig) -> float:
    """Per-sample complex noise power; in-band share then equals 10^(-snr/10)."""
    if math.isinf(cfg.snr_db):
        return 0.0
    return 10.0 ** (-cfg.snr_db / 10.0) * cfg.sample_rate / cfg.bandwidth


def _noisy(cfg: ChannelConfig) -> bool:
    """Whether the link adds noise (and so draws it)."""
    return _noise_variance(cfg) > 0


def _draw_gains(rng, b: int):
    """Unit per-symbol draws in stream order: doppler d ~ U(-1, 1), fading z_re, z_im ~ N(0, 1)."""
    d = rng.uniform(-1.0, 1.0, b)
    z_re = rng.standard_normal(b)
    z_im = rng.standard_normal(b)
    return d, z_re, z_im


def _symbol_gains(freqs: np.ndarray, draws, cfg: ChannelConfig):
    """Doppler-shifted frequencies and fading gains from the unit draws."""
    d, z_re, z_im = draws
    f_eff = freqs * (1.0 + cfg.doppler_fraction * d)
    los, diffuse = _fading_scales(cfg)
    h = los + diffuse * (z_re + 1j * z_im) / math.sqrt(2.0)
    return f_eff, h


def _draw_noise(rng, b: int, n_bins: int) -> np.ndarray:
    """Unit in-band noise, drawn after the gains: real parts [:, :n_bins], imaginary after."""
    return rng.standard_normal((b, 2 * n_bins), dtype=np.float32)


def _check_tones(freqs, cfg: ChannelConfig) -> np.ndarray:
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if np.any(freqs <= 0) or np.any(freqs >= cfg.sample_rate / 2):
        raise ValueError("tone frequency must lie in (0, sample_rate/2)")
    return freqs


def transmit_block(freqs, cfg: ChannelConfig, rng) -> np.ndarray:
    """Received sample blocks, one row per tone frequency."""
    freqs = _check_tones(freqs, cfg)
    n = cfg.n_samples
    f_eff, h = _symbol_gains(freqs, _draw_gains(rng, freqs.size), cfg)
    t = np.arange(n) / cfg.sample_rate
    blocks = h[:, None] * np.exp(2j * np.pi * np.outer(f_eff, t))
    var = _noise_variance(cfg)
    if var > 0:
        scale = math.sqrt(var / 2.0)
        blocks += scale * rng.standard_normal((freqs.size, n))
        blocks += 1j * scale * rng.standard_normal((freqs.size, n))
    return blocks


def transmit(freq: float, cfg: ChannelConfig, rng) -> np.ndarray:
    """One received symbol block for a single tone frequency."""
    return transmit_block([freq], cfg, rng)[0]


def demodulate(samples: np.ndarray, cfg: ChannelConfig) -> float:
    """Current estimate from one sample block via in-band FFT peak."""
    samples = np.asarray(samples)
    n = samples.size
    if n < 8:
        raise ValueError(f"block of {n} samples is too short")
    k_max = _inband_bins(cfg.bandwidth, cfg.sample_rate, n)
    spectrum = np.fft.fft(samples)
    k = 1 + int(np.argmax(np.abs(spectrum[1:k_max + 1])))
    return k * cfg.sample_rate / n / cfg.fm_scale


def _tone_kernel_exact(omega: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """Float64 geometric-series transform of a unit tone at bins ``k``."""
    phi = omega - 2.0 * np.pi * k / n
    num = 1.0 - np.exp(1j * omega * n)
    den = 1.0 - np.exp(1j * phi)
    on_bin = np.abs(phi) < 1e-9
    return np.where(on_bin, n + 0.0j, num / np.where(on_bin, 1.0, den))


def _tone_spectrum(freqs: np.ndarray, draws, cfg: ChannelConfig) -> np.ndarray:
    """Noise-free in-band spectrum rows (bins 1..n_bins) of the faded tones, complex64.

    The bin nearest each tone is recomputed in float64 since the kernel
    denominator loses precision there.
    """
    n = cfg.n_samples
    n_bins = cfg.n_bins
    f_eff, h = _symbol_gains(freqs, draws, cfg)

    omega = 2.0 * np.pi * f_eff / cfg.sample_rate
    hnum = (h * (1.0 - np.exp(1j * omega * n))).astype(np.complex64)
    z = np.exp(1j * omega).astype(np.complex64)
    roots = np.exp(-2j * np.pi * np.arange(1, n_bins + 1) / n).astype(np.complex64)
    spectrum = hnum[:, None] / (1.0 - z[:, None] * roots[None, :])

    k0 = np.rint(omega * n / (2.0 * np.pi)).astype(int)
    patch = (k0 >= 1) & (k0 <= n_bins)
    if np.any(patch):
        rows = np.nonzero(patch)[0]
        exact = h[rows] * _tone_kernel_exact(omega[rows], k0[rows].astype(float), n)
        spectrum[rows, k0[rows] - 1] = exact.astype(np.complex64)
    return spectrum


def _noisy_planes(tone: np.ndarray, w: np.ndarray, cfg: ChannelConfig):
    """Real and imaginary float32 planes of ``tone`` plus the unit noise ``w`` at cfg's SNR."""
    n_bins = tone.shape[1]
    scale = np.float32(math.sqrt(cfg.n_samples * _noise_variance(cfg) / 2.0))
    re = scale * w[:, :n_bins]
    re += tone.real
    im = scale * w[:, n_bins:]
    im += tone.imag
    return re, im


def received_spectrum(freqs, cfg: ChannelConfig, rng) -> np.ndarray:
    """In-band received spectrum rows (bins 1..n_bins), complex64.

    Statistically identical to ``fft(transmit_block(...))`` restricted to
    the searched bins; noise is drawn directly per bin.
    """
    freqs = _check_tones(freqs, cfg)
    spectrum = _tone_spectrum(freqs, _draw_gains(rng, freqs.size), cfg)
    if _noisy(cfg):
        re, im = _noisy_planes(spectrum, _draw_noise(rng, freqs.size, cfg.n_bins), cfg)
        spectrum.real = re
        spectrum.imag = im
    return spectrum


def _peak_currents(power: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Current estimates from the peak bin of each row of in-band bins 1..n."""
    k = 1 + np.argmax(power, axis=1)
    return k * (cfg.sample_rate / cfg.n_samples) / cfg.fm_scale


def demodulate_spectrum(spectrum: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Current estimates from in-band spectrum rows."""
    return _peak_currents(spectrum.real ** 2 + spectrum.imag ** 2, cfg)


def _link_currents(tone: np.ndarray, w, cfg: ChannelConfig) -> np.ndarray:
    """Current estimates at cfg's SNR from a shared tone spectrum and unit noise."""
    if not _noisy(cfg):
        return demodulate_spectrum(tone, cfg)
    re, im = _noisy_planes(tone, w, cfg)
    re **= 2
    im **= 2
    re += im
    return _peak_currents(re, cfg)


def simulate_link_grid(ids_list, cfgs, seed, *, chunk_symbols: int = 1024) -> np.ndarray:
    """Pass every current array through every link config on shared draws.

    Returns an array of shape ``(len(ids_list), len(cfgs), *ids.shape)``
    whose entry ``[i, j]`` is ``simulate_link(ids_list[i], cfgs[j], seed,
    chunk_symbols=chunk_symbols)``, bit for bit.  The draws of a chunk do
    not depend on the tone frequencies or the SNR, so each chunk draws its
    doppler, fading and (if any config has noise) unit noise once per bin
    count, computes one tone spectrum per current array and per config
    modulo SNR, and only rescales the noise and searches the peak per SNR.
    At most one chunk's noise, one tone spectrum and one noisy spectrum are
    alive at a time.
    """
    ids_list = [np.asarray(ids, dtype=float) for ids in ids_list]
    cfgs = list(cfgs)
    if not ids_list or not cfgs:
        raise ValueError("need at least one current array and one link config")
    shape = ids_list[0].shape
    if any(ids.shape != shape for ids in ids_list):
        raise ValueError("current arrays must share one shape")
    # bin count -> {config with its SNR set to inf: indices of the configs
    # that differ from it only in SNR}; such configs share a tone spectrum
    groups: dict[int, dict[ChannelConfig, list[int]]] = {}
    for j, cfg in enumerate(cfgs):
        tone_cfg = dataclasses.replace(cfg, snr_db=math.inf)
        groups.setdefault(cfg.n_bins, {}).setdefault(tone_cfg, []).append(j)
    freqs = {(i, tone_cfg): _check_tones(modulate(ids.ravel(), tone_cfg), tone_cfg)
             for tones in groups.values() for tone_cfg in tones
             for i, ids in enumerate(ids_list)}

    n_sym = ids_list[0].size
    out = np.empty((len(ids_list), len(cfgs), n_sym))
    for ci, start in enumerate(range(0, n_sym, chunk_symbols)):
        stop = min(start + chunk_symbols, n_sym)
        for n_bins, tones in groups.items():
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ci,)))
            draws = _draw_gains(rng, stop - start)
            w = None
            if any(_noisy(cfgs[j]) for js in tones.values() for j in js):
                w = _draw_noise(rng, stop - start, n_bins)
            for tone_cfg, js in tones.items():
                for i in range(len(ids_list)):
                    tone = _tone_spectrum(freqs[i, tone_cfg][start:stop], draws, tone_cfg)
                    for j in js:
                        out[i, j, start:stop] = _link_currents(tone, w, cfgs[j])
                    del tone  # freed before the next tone spectrum is built
            del w
    return out.reshape(len(ids_list), len(cfgs), *shape)


def simulate_link(ids, cfg: ChannelConfig, seed, *, chunk_symbols: int = 1024,
                  time_domain: bool = False) -> np.ndarray:
    """Pass a current sequence through the link, one symbol each.

    Symbols are processed in fixed-size chunks, each with its own RNG
    stream derived from (seed, chunk index), so results are reproducible
    and independent of any outer parallelisation.  ``seed`` may be an int
    or a tuple of ints.  The spectrum path is the one-point case of
    :func:`simulate_link_grid`; ``time_domain=True`` instead builds and
    transforms the sample blocks, as the reference for that sampler.
    """
    if not time_domain:
        return simulate_link_grid([ids], [cfg], seed, chunk_symbols=chunk_symbols)[0, 0]
    ids = np.asarray(ids, dtype=float)
    freqs = modulate(ids.ravel(), cfg)
    out = np.empty(freqs.size)
    for ci, start in enumerate(range(0, freqs.size, chunk_symbols)):
        stop = min(start + chunk_symbols, freqs.size)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ci,)))
        spectrum = np.fft.fft(transmit_block(freqs[start:stop], cfg, rng), axis=1)
        out[start:stop] = _peak_currents(np.abs(spectrum[:, 1:cfg.n_bins + 1]), cfg)
    return out.reshape(ids.shape)

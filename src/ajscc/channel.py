"""FM tone link: current -> frequency -> Rician/Doppler/AWGN -> FFT peak.

A current is mapped linearly to a tone frequency, transmitted as one
complex-baseband symbol block, and recovered as the frequency of the
largest-magnitude FFT bin inside the configured band, divided by the same
scale factor.  Impairments per symbol: a Doppler shift drawn uniformly in
+/- doppler_fraction of the tone frequency, a scalar Rician fading gain
(line-of-sight fraction set by the K-factor, diffuse part complex
Gaussian), and white complex Gaussian noise whose in-band power equals
signal power / 10^(snr_db/10).

:func:`received_spectrum` / :func:`demodulate_spectrum` sample the received
spectrum directly: the tone's transform is the closed-form geometric-series
kernel, and the FFT of white Gaussian noise is again white Gaussian
(variance scaled by the block length), so only the searched in-band bins
need noise draws.  This is an exact sampler of the peak statistic of the
actual sample blocks, roughly two orders of magnitude cheaper than building
them.  :func:`transmit_block` builds those blocks (rectangular window, FFT
length = block length), and ``simulate_link(..., time_domain=True)``
transforms them as the sampler's reference.

:func:`simulate_link` runs the spectrum sampler over a current sequence
in chunks with one RNG stream each; :func:`simulate_link_grid` does the
same for many current sequences and configs at once (the Monte-Carlo
sweeps' axis points), drawing each chunk once and sharing it.  Its peak
search is exact but pruned at every bin count: the power is evaluated
only at each symbol's candidate bins (those near the tone and those with
the loudest unit noise), a per-row bound on every other bin's tone
leakage plus noise proves that none of them can win, and a row without
that proof is searched in full, so the estimates equal a full search's.

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
    "OVERSAMPLE",
    "ChannelConfig",
    "modulate",
    "transmit_block",
    "received_spectrum",
    "demodulate_spectrum",
    "simulate_link",
    "simulate_link_grid",
]

OVERSAMPLE = 4.0  # default sample rate over bandwidth


@dataclass(frozen=True)
class ChannelConfig:
    """Link parameters; snr_db or rician_k_db may be +inf to disable noise/fading.

    rician_k_db = -inf is pure Rayleigh fading.  Every other parameter must
    be finite.  n_samples, an integer >= 8, is the samples per symbol and
    the FFT length; a symbol lasts n_samples / sample_rate seconds.
    """

    bandwidth: float          # occupied signal band [Hz]
    snr_db: float             # in-band SNR [dB]
    fm_scale: float           # current -> frequency map [Hz/A]
    sample_rate: float        # [Hz]
    n_samples: int            # samples per symbol = FFT length
    doppler_fraction: float = 0.02
    rician_k_db: float = 6.0

    def __post_init__(self) -> None:
        for name in ("bandwidth", "fm_scale", "sample_rate", "doppler_fraction"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be finite or +inf, got {self.snr_db}")
        if math.isnan(self.rician_k_db):
            raise ValueError("rician_k_db must not be NaN")
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
        if not isinstance(self.n_samples, (int, np.integer)) or self.n_samples < 8:
            raise ValueError(f"n_samples = {self.n_samples} must be an integer >= 8")
        if self.n_bins < 1:
            raise ValueError("bandwidth spans less than one FFT bin")

    @property
    def n_bins(self) -> int:
        """Number of searched in-band FFT bins (bin 1 .. n_bins)."""
        return _inband_bins(self.bandwidth, self.sample_rate, self.n_samples)

    @classmethod
    def for_current_range(cls, i_max: float, bandwidth: float, snr_db: float, *,
                          headroom: float, n_samples: int, oversample: float = OVERSAMPLE,
                          doppler_fraction: float, rician_k_db: float) -> "ChannelConfig":
        """Config whose FM scale maps i_max to ``headroom * bandwidth``."""
        if not i_max > 0:
            raise ValueError(f"i_max must be positive, got {i_max}")
        if not 0 < bandwidth < math.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
        return cls(
            bandwidth=float(bandwidth),
            snr_db=float(snr_db),
            fm_scale=headroom * bandwidth / i_max,
            sample_rate=oversample * bandwidth,
            n_samples=n_samples,
            doppler_fraction=doppler_fraction,
            rician_k_db=rician_k_db,
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
    if cfg.rician_k_db == math.inf:
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


def _draw_noise(rng, b: int, n_bins: int):
    """Unit in-band noise planes (real, imaginary), float32, drawn after the gains."""
    w = rng.standard_normal((b, 2 * n_bins), dtype=np.float32)
    return w[:, :n_bins], w[:, n_bins:]


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


def _tone_kernel_exact(omega: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """Float64 geometric-series transform of a unit tone at bins ``k``."""
    phi = omega - 2.0 * np.pi * k / n
    num = 1.0 - np.exp(1j * omega * n)
    den = 1.0 - np.exp(1j * phi)
    on_bin = np.abs(phi) < 1e-9
    return np.where(on_bin, n + 0.0j, num / np.where(on_bin, 1.0, den))


def _bin_roots(cfg: ChannelConfig) -> np.ndarray:
    """Kernel roots exp(-2 pi i k / n) of the in-band bins k = 1..n_bins, complex64."""
    k = np.arange(1, cfg.n_bins + 1)
    return np.exp(-2j * np.pi * k / cfg.n_samples).astype(np.complex64)


def _tone_factors(freqs: np.ndarray, draws, cfg: ChannelConfig):
    """Per-symbol factors of the faded tone kernel: (h, omega, hnum, z, k0).

    h is the fading gain, omega the Doppler-shifted angular frequency per
    sample, hnum = h (1 - e^{i omega n}) and z = e^{i omega} are the complex64
    numerator and ratio of the kernel, and k0 is the bin nearest the tone.
    """
    n = cfg.n_samples
    f_eff, h = _symbol_gains(freqs, draws, cfg)
    omega = 2.0 * np.pi * f_eff / cfg.sample_rate
    hnum = (h * (1.0 - np.exp(1j * omega * n))).astype(np.complex64)
    z = np.exp(1j * omega).astype(np.complex64)
    k0 = np.rint(omega * n / (2.0 * np.pi)).astype(int)
    return h, omega, hnum, z, k0


def _tone_spectrum(factors, cfg: ChannelConfig, roots: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Noise-free spectrum of the faded tones at 1-based in-band ``bins``, complex64.

    Row r holds bins ``bins[r]``; one index row, such as the full row
    ``np.arange(1, n_bins + 1)[None, :]``, serves every symbol.  The bin
    nearest each tone is recomputed in float64 since the kernel denominator
    loses precision there.
    """
    h, omega, hnum, z, k0 = factors
    spectrum = hnum[:, None] / (1.0 - z[:, None] * roots[bins - 1])
    rows, cols = np.nonzero(bins == k0[:, None])
    if rows.size:
        exact = h[rows] * _tone_kernel_exact(omega[rows], k0[rows].astype(float), cfg.n_samples)
        spectrum[rows, cols] = exact.astype(np.complex64)
    return spectrum


def _noise_scale(cfg: ChannelConfig) -> np.float32:
    """Amplitude of each unit-noise component at cfg's SNR."""
    return np.float32(math.sqrt(cfg.n_samples * _noise_variance(cfg) / 2.0))


def received_spectrum(freqs, cfg: ChannelConfig, rng) -> np.ndarray:
    """In-band received spectrum rows (bins 1..n_bins), complex64.

    Statistically identical to ``fft(transmit_block(...))`` restricted to
    the searched bins; noise is drawn directly per bin.
    """
    freqs = _check_tones(freqs, cfg)
    factors = _tone_factors(freqs, _draw_gains(rng, freqs.size), cfg)
    roots = _bin_roots(cfg)
    spectrum = _tone_spectrum(factors, cfg, roots, np.arange(1, roots.size + 1)[None, :])
    if _noisy(cfg):
        noise = _draw_noise(rng, freqs.size, cfg.n_bins)
        spectrum.real += _noise_scale(cfg) * noise[0]
        spectrum.imag += _noise_scale(cfg) * noise[1]
    return spectrum


def _bin_currents(k: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Current estimates from 1-based peak bins."""
    return k * (cfg.sample_rate / cfg.n_samples) / cfg.fm_scale


def _peak_currents(power: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Current estimates from the peak bin of each row of in-band bins 1..n."""
    return _bin_currents(1 + np.argmax(power, axis=1), cfg)


def demodulate_spectrum(spectrum: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Current estimates from in-band spectrum rows."""
    return _peak_currents(spectrum.real ** 2 + spectrum.imag ** 2, cfg)


def _power(tone: np.ndarray, noise, cfg: ChannelConfig) -> np.ndarray:
    """Float32 power of ``tone`` plus the unit ``noise`` planes at cfg's SNR."""
    if not _noisy(cfg):
        return tone.real ** 2 + tone.imag ** 2
    re, im = (_noise_scale(cfg) * plane for plane in noise)
    re += tone.real
    im += tone.imag
    re **= 2
    im **= 2
    re += im
    return re


def _link_currents(tone: np.ndarray, noise, cfg: ChannelConfig) -> np.ndarray:
    """Current estimates at cfg's SNR from a full-row tone spectrum and unit noise."""
    return _peak_currents(_power(tone, noise, cfg), cfg)


# Pruned peak search of simulate_link_grid.  Candidate bins are those
# within _WINDOW of a symbol's tone bin plus the _TOP_NOISE bins with the
# loudest unit noise (all but one bin when there are fewer).
_WINDOW = 16
_TOP_NOISE = 64
# Margin of the no-other-bin-wins bound over float32 rounding of the powers
_SAFETY = 1.01
# Above the rounding error of a complex64 kernel denominator 1 - z * root
_DEN_SLACK = 16 * float(np.finfo(np.float32).eps)
# Smallest peak power the relative margin covers (float32 underflow below)
_TINY_POWER = 1e-30


def _loudest_noise(noise):
    """Each row's _TOP_NOISE loudest unit-noise bins: (bins, noise planes there, u_rest).

    Bins are 1-based (a row of at most _TOP_NOISE bins ranks all but its
    quietest); u_rest, the next-loudest unit-noise power, bounds every other bin's.
    """
    u = noise[0] ** 2
    u += noise[1] ** 2
    kth = max(u.shape[1] - _TOP_NOISE - 1, 0)
    order = np.argpartition(u, kth, axis=1)
    u_rest = np.take_along_axis(u, order[:, kth:kth + 1], axis=1)[:, 0]
    top = order[:, kth + 1:]
    top_noise = tuple(np.take_along_axis(plane, top, axis=1) for plane in noise)
    return top + 1, top_noise, u_rest.astype(float)


def _candidate_currents(factors, noise, loud, tone_cfg: ChannelConfig, roots: np.ndarray,
                        cfgs) -> list:
    """Current estimates for each of ``cfgs`` (``tone_cfg`` at their SNRs),
    equal bit for bit to :func:`_link_currents` on the full rows.

    The power is evaluated exactly at each row's candidate bins: the
    window around its tone and, with noise, the bins of ``loud``
    (:func:`_loudest_noise`).  A bin outside the window lies at least
    _WINDOW + 1/2 bins from the tone, so its tone amplitude is at most
    ``eps = |hnum| / (2 sin(pi (_WINDOW + 1/2) / n) - _DEN_SLACK)``; a bin
    outside ``loud`` has noise amplitude at most ``scale * sqrt(u_rest)``.
    A row whose best candidate beats ``(scale * sqrt(u_rest) + eps)^2`` by
    the margin has its peak among the candidates (ties go to the lowest
    bin, as with ``np.argmax``); any other row is searched in full.
    """
    n_bins = roots.size
    hnum, k0 = factors[2], factors[4]
    bins = np.clip(k0[:, None] + np.arange(-_WINDOW, _WINDOW + 1), 1, n_bins)
    n_window = bins.shape[1]
    if loud is not None:
        top_bins, top_noise, u_rest = loud
        cand_noise = tuple(
            np.concatenate([np.take_along_axis(plane, bins - 1, axis=1), top], axis=1)
            for plane, top in zip(noise, top_noise))
        bins = np.concatenate([bins, top_bins], axis=1)
    tone = _tone_spectrum(factors, tone_cfg, roots, bins)
    # |x - k| / n lies in [(_WINDOW + 1/2) / n, 1/2] for the tone at bin
    # position x and every bin k outside the window, where sin increases;
    # below 2 _WINDOW + 1 samples the window holds every in-band bin, so eps = 0
    den = 2.0 * math.sin(math.pi * (_WINDOW + 0.5) / tone_cfg.n_samples) - _DEN_SLACK
    eps = np.abs(hnum.astype(complex)) / den if tone_cfg.n_samples > 2 * _WINDOW else 0.0
    estimates = []
    for cfg in cfgs:
        if _noisy(cfg):
            power = _power(tone, cand_noise, cfg)
            bound = (float(_noise_scale(cfg)) * np.sqrt(u_rest) + eps) ** 2
        else:
            power = _power(tone[:, :n_window], None, cfg)
            bound = eps ** 2
        best = power.max(axis=1)
        k = np.where(power == best[:, None], bins[:, :power.shape[1]], n_bins + 1).min(axis=1)
        est = _bin_currents(k, cfg)
        proven = (best > np.maximum(_SAFETY * bound, _TINY_POWER)) & np.isfinite(best)
        rows = np.nonzero(~proven)[0]
        if rows.size:
            full = _tone_spectrum(tuple(f[rows] for f in factors), tone_cfg, roots,
                                  np.arange(1, n_bins + 1)[None, :])
            rows_noise = None if noise is None else tuple(plane[rows] for plane in noise)
            est[rows] = _link_currents(full, rows_noise, cfg)
        estimates.append(est)
    return estimates


def simulate_link_grid(ids_list, cfgs, seed, *, chunk_symbols: int = 1024) -> np.ndarray:
    """Pass every current array through every link config on shared draws.

    Returns an array of shape ``(len(ids_list), len(cfgs), *ids.shape)``
    whose entry ``[i, j]`` is ``simulate_link(ids_list[i], cfgs[j], seed,
    chunk_symbols=chunk_symbols)``, bit for bit.  The draws of a chunk do
    not depend on the tone frequencies or the SNR, so per chunk and bin
    count the doppler, fading and (if any config has noise) unit noise are
    drawn once, and the noise's loudest bins are ranked once.  Per current
    array and config modulo SNR the tone is evaluated at each symbol's
    candidate bins only; per SNR only the noise is rescaled and the peak
    searched among the candidates, with a per-row proof that no other bin
    can win and the full row as the fallback (:func:`_candidate_currents`).
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
    roots = {tone_cfg: _bin_roots(tone_cfg) for tones in groups.values() for tone_cfg in tones}

    n_sym = ids_list[0].size
    out = np.empty((len(ids_list), len(cfgs), n_sym))
    for ci, start in enumerate(range(0, n_sym, chunk_symbols)):
        stop = min(start + chunk_symbols, n_sym)
        for n_bins, tones in groups.items():
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ci,)))
            draws = _draw_gains(rng, stop - start)
            noise = loud = None
            if any(_noisy(cfgs[j]) for js in tones.values() for j in js):
                noise = _draw_noise(rng, stop - start, n_bins)
                loud = _loudest_noise(noise)
            for tone_cfg, js in tones.items():
                link_cfgs = [cfgs[j] for j in js]
                for i in range(len(ids_list)):
                    factors = _tone_factors(freqs[i, tone_cfg][start:stop], draws, tone_cfg)
                    out[i, js, start:stop] = _candidate_currents(
                        factors, noise, loud, tone_cfg, roots[tone_cfg], link_cfgs)
    return out.reshape(len(ids_list), len(cfgs), *shape)


def simulate_link(ids, cfg: ChannelConfig, seed, *, chunk_symbols: int = 1024,
                  time_domain: bool = False) -> np.ndarray:
    """Pass a current sequence through the link, one symbol each.

    Symbols are processed in fixed-size chunks, each with its own RNG
    stream derived from (seed, chunk index), so results are reproducible
    and independent of any outer parallelisation, but depend on
    ``chunk_symbols``: another chunk size draws other noise.  ``seed`` may
    be an int or a tuple of ints.  The spectrum path is the one-point case of
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

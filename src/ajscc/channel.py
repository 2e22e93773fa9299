"""FM tone link: current -> frequency -> Rician/Doppler/AWGN -> FFT peak.

A current is mapped linearly to a tone frequency, transmitted as one
complex-baseband symbol block, and recovered as the frequency of the
largest-magnitude FFT bin inside the configured band, divided by the same
scale factor.  Both maps are computed in cycles per sample, with
fm_cycles = fm_scale / sample_rate, so bandwidths that share fm_cycles
give bit-identical links.  Impairments per symbol: a Doppler shift drawn
uniformly in +/- doppler_fraction of the tone frequency, a scalar Rician
fading gain (line-of-sight fraction set by the K-factor, diffuse part
complex Gaussian), and white complex Gaussian noise whose in-band power
equals signal power / 10^(snr_db/10).

:func:`received_spectrum` samples the received spectrum directly: the
tone's transform is the closed-form geometric-series kernel, and the FFT of
white Gaussian noise is again white Gaussian (variance scaled by the block
length), so each in-band bin carries i.i.d. complex Gaussian noise.  This is
an exact sampler of the peak statistic of the actual sample blocks
(rectangular window, FFT length = block length), roughly two orders of
magnitude cheaper than building them.  The package builds no blocks: the
test suite builds them as the reference the sampler is checked against.

Only the noise the peak search reads is drawn.  Per symbol, the power u of
a bin's unit noise has u/2 ~ Exp(1) and a uniform phase; at every bin
count the loudest min(_TOP_NOISE + 1, n_bins) = min(17, n_bins) values are
drawn directly from their order-statistics law at uniformly chosen bins,
and every other bin's value, Exp(1) truncated below the quietest of those,
is a pure function of (seed, symbol, bin), evaluated only where it is read
(:func:`_noise_draws`).

:func:`simulate_link_grid`, one flat loop over batches of shared draws,
searches each distinct (symbol, current) once per group of configs of one
(bin count, block length, fm_cycles, Doppler, K-factor), evaluating the
power only at each symbol's candidate bins: the 9 within +/- _WINDOW = 4
bins of the tone (shifted inside the band) and the 17 with explicitly drawn
loud noise.  A per-row bound proves that no other bin can win; a row without
that proof is searched over every bin of its chunk's draws, so the estimates
equal the peaks of the full-row reference bit for bit.  The two counts set
only how often a row falls back: at most 1e-3 of the rows at every SNR from
-60 dB to +inf, block length from 16 to 8192 samples and K-factor of 6 dB or
+/- inf.

Every draw (doppler, fading and noise) is keyed by the seed and the
symbol's index, the noise also by the bin count, so the results do not
depend on the chunking or on how the work is split.  None of them depends
on the tone frequencies or the SNR: noise is drawn at unit power and
scaled per config.  Every array drawn and searched is index x symbols (a
counter, explicit bin or candidate bin by the chunk's symbols), so each
symbol's max and lowest-bin tie-break reduce over axis 0, in contiguous memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .phenomenon import check_seed

__all__ = [
    "OVERSAMPLE",
    "ChannelConfig",
    "modulate",
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
    the FFT length, lasting n_samples / sample_rate seconds.  snr_db has a
    float32 floor (_UNIT_POWER_MAX): about -316 dB at 8192 samples, 4x oversampling,
    and a finite rician_k_db a float64 ceiling, about 3082.5 dB.
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
        try:  # the linear K-factor of _fading_scales; +inf and -inf give inf and 0
            10.0 ** (self.rician_k_db / 10.0)
        except OverflowError:
            top = 10.0 * math.log10(np.finfo(float).max)
            raise ValueError(f"rician_k_db must be at most {top:.7g} dB (float64 linear "
                             f"ratio), got {self.rician_k_db}") from None
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if not self.fm_scale > 0:
            raise ValueError(f"fm_scale must be positive, got {self.fm_scale}")
        # a shift of the whole tone frequency or more can reach 0 Hz
        if not 0 <= self.doppler_fraction < 1:
            raise ValueError(f"doppler_fraction must lie in [0, 1), got {self.doppler_fraction}")
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
        # noise power _noise_scale^2 u, in logs: 10^(-snr_db/10) can overflow
        floor = 10.0 * math.log10(self.n_samples * self.sample_rate / self.bandwidth
                                  * _UNIT_POWER_MAX / 2.0 / float(np.finfo(np.float32).max))
        if self.snr_db < floor:
            raise ValueError(f"snr_db must be at least {floor:.6g} dB at this block length "
                             f"and sample rate (float32 noise power), got {self.snr_db}")

    @property
    def n_bins(self) -> int:
        """Number of searched in-band FFT bins (bin 1 .. n_bins)."""
        return int(math.floor(self.bandwidth * self.n_samples / self.sample_rate * (1.0 + 1e-12)))

    @property
    def fm_cycles(self) -> float:
        """Current -> tone frequency map in cycles per sample [1/A]."""
        return self.fm_scale / self.sample_rate

    @classmethod
    def for_current_range(cls, i_max: float, bandwidth: float, snr_db: float, *,
                          headroom: float, n_samples: int, oversample: float = OVERSAMPLE,
                          doppler_fraction: float, rician_k_db: float) -> "ChannelConfig":
        """Config whose FM scale maps i_max to ``headroom * bandwidth``."""
        if not i_max > 0:
            raise ValueError(f"i_max must be positive, got {i_max}")
        if not 0 < headroom <= 1:
            raise ValueError(f"headroom must lie in (0, 1], got {headroom}")
        return cls(
            bandwidth=float(bandwidth),
            snr_db=float(snr_db),
            fm_scale=headroom * bandwidth / i_max,
            sample_rate=oversample * bandwidth,
            n_samples=n_samples,
            doppler_fraction=doppler_fraction,
            rician_k_db=rician_k_db,
        )


def modulate(ids, cfg: ChannelConfig):
    """Tone frequency [Hz] for current ``ids``; must land inside the band."""
    ids = np.asarray(ids, dtype=float)
    # written so that a NaN current fails too
    if not np.all(ids > 0):
        raise ValueError("ids must be positive")
    freq = cfg.fm_scale * ids
    if not np.all(freq <= cfg.bandwidth * (1.0 + 1e-12)):
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


def _symbol_gains(freqs: np.ndarray, draws, cfg: ChannelConfig):
    """Doppler-shifted ``freqs`` (in any unit) and fading gains from the unit draws."""
    d, z_re, z_im = draws
    f_eff = freqs * (1.0 + cfg.doppler_fraction * d)
    los, diffuse = _fading_scales(cfg)
    h = los + diffuse * (z_re + 1j * z_im) / math.sqrt(2.0)
    return f_eff, h


def _check_tones(freqs, cfg: ChannelConfig) -> np.ndarray:
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if np.any(freqs <= 0) or np.any(freqs >= cfg.sample_rate / 2):
        raise ValueError("tone frequency must lie in (0, sample_rate/2)")
    return freqs


def _bin_roots(cfg: ChannelConfig) -> np.ndarray:
    """Kernel roots exp(-2 pi i k / n) of the in-band bins k = 1..n_bins, complex64."""
    k = np.arange(1, cfg.n_bins + 1)
    return np.exp(-2j * np.pi * k / cfg.n_samples).astype(np.complex64)


def _tone_factors(cycles: np.ndarray, draws, cfg: ChannelConfig):
    """Per-symbol factors (hnum, z, k0, exact) of the faded tone kernel.

    For tones at ``cycles`` per sample, the fading gain h and the
    Doppler-shifted angular frequency omega per sample, hnum = h (1 - e^{i
    omega n}) and z = e^{i omega} are the complex64 numerator and ratio of
    the kernel, k0 is the bin nearest the tone and exact the complex64
    kernel there, computed in float64 since the denominator loses precision
    near the tone.  At one block length and bin count, equal factors give an
    equal spectrum.
    """
    n = cfg.n_samples
    c_eff, h = _symbol_gains(cycles, draws, cfg)
    omega = 2.0 * np.pi * c_eff
    num = 1.0 - np.exp(1j * omega * n)
    z = np.exp(1j * omega).astype(np.complex64)
    k0 = np.rint(omega * n / (2.0 * np.pi)).astype(np.int64)
    phi = omega - 2.0 * np.pi * k0.astype(float) / n
    on_bin = np.abs(phi) < 1e-9
    exact = h * np.where(on_bin, n + 0.0j, num / np.where(on_bin, 1.0, 1.0 - np.exp(1j * phi)))
    return (h * num).astype(np.complex64), z, k0, exact.astype(np.complex64)


def _tone_spectrum(factors, roots: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Noise-free spectrum of the faded tones at 1-based in-band ``bins``, complex64,
    candidates x symbols.

    Column r holds symbol r at bins ``bins[:, r]``; one index column, such as
    the full row ``np.arange(1, n_bins + 1)[:, None]``, serves every symbol.
    """
    hnum, z, k0, exact = factors
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 at an on-bin tone's k0
        spectrum = hnum / (1.0 - z * roots[bins - 1])
    np.copyto(spectrum, exact, where=bins == k0)
    return spectrum


def _noise_scale(cfg: ChannelConfig) -> np.float32 | None:
    """Amplitude of each unit-noise component: per-sample complex noise power
    10^(-snr/10) sample_rate / bandwidth puts 10^(-snr/10) in band.  None for
    a link without noise: +inf dB, or a 10^(-snr/10) that underflows."""
    variance = 10.0 ** (-cfg.snr_db / 10.0) * cfg.sample_rate / cfg.bandwidth
    return np.float32(math.sqrt(cfg.n_samples * variance / 2.0)) if variance > 0 else None


# The spectrum sampler's random values are pure functions of (seed, symbol
# index, stream, counter): the SplitMix64 finaliser, a bijection of uint64,
# applied to a per-symbol key plus a Weyl step per counter (the counter-based
# design of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC 2011).  A symbol's noise key also depends on the bin count.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# Counter streams of one key; counter = stream << 32 | index
_FAR, _SUBSET, _LEVEL, _PHASE, _GAMMA_TOP, _GAMMA_REST = range(6)
# Loudest unit-noise values drawn explicitly per symbol: _TOP_NOISE above
# the (_TOP_NOISE + 1)-th, which bounds every other bin
_TOP_NOISE = 16
# Above every unit power u drawn, so ChannelConfig's SNR floor keeps scale^2 u finite in
# float32: 53-bit uniforms give -log(1 - U) <= 53 ln 2 and _gamma variates in (2/3 e^-111.2,
# 91 shape), so t < 116.1 + ln n_bins and u <= 2 (t + 53 ln 2) < 394 below 2^63 bins
_UNIT_POWER_MAX = 512.0


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser of the uint64 array ``z``, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _symbol_keys(seed, tag: int, symbols: np.ndarray) -> np.ndarray:
    """Keys of symbol indices ``symbols``: tag 0 for the gains, n_bins for the noise."""
    base = np.random.SeedSequence(seed, spawn_key=(tag,)).generate_state(1, np.uint64)
    return _mix(base + _GOLDEN * (symbols.astype(np.uint64) + np.uint64(1)))


def _bits(keys: np.ndarray, stream: int, index) -> np.ndarray:
    """64 random bits per (index, symbol), index x symbols: ``index`` is (k, 1)
    for one index column of every key or (k, len(keys)) for one per key."""
    counters = (np.uint64(stream) << np.uint64(32)) + np.asarray(index, dtype=np.uint64)
    return _mix(keys + _GOLDEN * counters)


def _uniform(keys: np.ndarray, stream: int, index) -> np.ndarray:
    """Float64 uniforms on [0, 1) with 53 random bits, index x symbols (:func:`_bits`)."""
    return (_bits(keys, stream, index) >> np.uint64(11)) * 2.0 ** -53


def _uniform24(bits: np.ndarray, shift: int) -> np.ndarray:
    """Float32 uniforms on [0, 1) from the 24 bits of ``bits`` above bit ``shift``."""
    word = (bits >> np.uint64(shift)) & np.uint64(0xFFFFFF)
    return word.astype(np.int32).astype(np.float32) * np.float32(2.0 ** -24)


def _gain_draws(seed, symbols: np.ndarray) -> np.ndarray:
    """Unit draws of the indexed symbols, (3, len(symbols)): doppler d ~ U(-1, 1),
    fading z_re, z_im ~ N(0, 1)."""
    u = _uniform(_symbol_keys(seed, 0, symbols), 0, np.arange(3)[:, None])
    radius = np.sqrt(-2.0 * np.log1p(-u[1]))
    angle = 2.0 * np.pi * u[2]
    return np.array([2.0 * u[0] - 1.0, radius * np.cos(angle), radius * np.sin(angle)])


def _gamma(keys: np.ndarray, shape: float, stream: int) -> np.ndarray:
    """One Gamma(shape) variate per key, shape >= 1, by Marsaglia and Tsang's
    exact rejection method (ACM TOMS 26(3), 2000); attempt a of a key reads
    counters 3a..3a+2."""
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(keys.size)
    todo = np.arange(keys.size)
    attempt = 0
    while todo.size:
        u = _uniform(keys[todo], stream, 3 * attempt + np.arange(3)[:, None])
        x = np.sqrt(-2.0 * np.log1p(-u[0])) * np.cos(2.0 * np.pi * u[1])
        v = (1.0 + c * x) ** 3
        ok = v > 0
        ok[ok] = np.log1p(-u[2, ok]) < 0.5 * x[ok] ** 2 + d - d * v[ok] + d * np.log(v[ok])
        out[todo[ok]] = d * v[ok]
        todo = todo[~ok]
        attempt += 1
    return out


def _subset(keys: np.ndarray, n: int, m: int) -> np.ndarray:
    """A uniform m-subset of the 0-based bins 0..n-1 per key (Floyd's algorithm:
    Bentley and Floyd, "A sample of brilliance", CACM 30(9), 1987), picks x
    keys (m, len(keys)); a pick already taken is replaced by n - m + k."""
    picks = _uniform(keys, _SUBSET, np.arange(m)[:, None]) * np.arange(n - m + 1, n + 1)[:, None]
    picks = picks.astype(np.intp)
    for k in range(1, m):  # picks[k] is uniform on 0..n-m+k
        picks[k, (picks[:k] == picks[k]).any(axis=0)] = n - m + k
    return picks


class _Noise(NamedTuple):
    """Unit noise of a chunk of symbols at one bin count, drawn lazily.

    ``bins`` (1-based), explicit x symbols as every sampler array, hold the
    explicitly drawn values ``top_re``/``top_im``.  Every other bin's unit
    power is below ``u_rest``, generated on demand from ``keys`` with u/2 ~
    Exp(1) truncated to [0, u_rest / 2), which is ``-log1p(U * shrink)`` for
    a uniform U.  Reads are runs of consecutive bins (:func:`_unit_noise`).
    """

    keys: np.ndarray     # (b,) uint64
    shrink: np.ndarray   # (b,) float32, expm1(-u_rest / 2)
    bins: np.ndarray     # (m, b)
    top_re: np.ndarray   # (m, b) float32
    top_im: np.ndarray   # (m, b) float32
    u_rest: np.ndarray   # (b,) float64

    def take(self, rows) -> "_Noise":
        """The noise of the symbols at ``rows``."""
        return _Noise(*(a.take(rows, axis=-1) for a in self))


def _noise_draws(seed, n_bins: int, symbols: np.ndarray) -> _Noise:
    """Explicit unit noise of the indexed symbols at ``n_bins`` bins.

    Per symbol, u/2 of the n_bins bins is i.i.d. Exp(1) with a uniform phase
    (the power of a unit complex Gaussian).  The m = min(_TOP_NOISE + 1,
    n_bins) largest values are drawn directly, by the Renyi representation
    of exponential order statistics (Acta Math. Acad. Sci. Hung. 4, 1953):
    the m-th largest is t = -log B with B ~ Beta(m, n_bins - m + 1) =
    G_a / (G_a + G_b) for independent G_a ~ Gamma(m), G_b ~ Gamma(n_bins -
    m + 1), and the m - 1 above it are t plus i.i.d. Exp(1).  They sit at a
    uniform m-subset of the bins, t at a uniform member of it; given t,
    every other bin (none when m = n_bins) is Exp(1) truncated below t.
    """
    keys = _symbol_keys(seed, n_bins, symbols)
    m = min(_TOP_NOISE + 1, n_bins)
    t = np.log1p(_gamma(keys, n_bins - m + 1.0, _GAMMA_REST) / _gamma(keys, float(m), _GAMMA_TOP))
    level = t - np.log1p(-_uniform(keys, _LEVEL, np.arange(m)[:, None]))
    # Floyd's order is not uniform: draw the member that holds t
    level[(_uniform(keys, _LEVEL, [[m]])[0] * m).astype(np.intp), np.arange(keys.size)] = t
    angle = np.float32(2.0 * np.pi) * _uniform24(_bits(keys, _PHASE, np.arange(m)[:, None]), 0)
    radius = np.sqrt(2.0 * level).astype(np.float32)
    return _Noise(keys, np.expm1(-t).astype(np.float32), _subset(keys, n_bins, m) + 1,
                  radius * np.cos(angle), radius * np.sin(angle), 2.0 * t)


def _unit_noise(noise: _Noise, bins: np.ndarray):
    """Unit noise planes (real, imaginary), float32, (k, rows), of every row
    of ``noise`` at 1-based ``bins``: (k, rows), a run of k consecutive bins
    per row, or (k, 1), one run for all; an explicit bin is found by its offset."""
    bits = _bits(noise.keys, _FAR, bins)
    radius = np.sqrt(np.float32(-2.0) * np.log1p(_uniform24(bits, 40) * noise.shrink))
    angle = np.float32(2.0 * np.pi) * _uniform24(bits, 0)
    re, im = radius * np.cos(angle), radius * np.sin(angle)
    at = noise.bins - bins[0]  # explicit x symbols: offset in the row's run
    hit = np.flatnonzero((at >= 0) & (at < bins.shape[0]))  # 2-d np.nonzero is slower
    c, r = at.ravel()[hit], hit % at.shape[1]
    re[c, r] = noise.top_re.ravel()[hit]
    im[c, r] = noise.top_im.ravel()[hit]
    return re, im


def received_spectrum(freqs, cfg: ChannelConfig, seed, symbols=None) -> np.ndarray:
    """In-band received spectrum rows (bins 1..n_bins), complex64.

    Row r is symbol ``symbols[r]`` (default r) of a link run under
    ``seed``: the same draws :func:`simulate_link` makes for that symbol,
    materialised at every bin, for tones at ``freqs / sample_rate`` cycles
    per sample.  It is statistically identical to the FFT of the received
    sample blocks at the searched bins, which the test suite builds as its
    time-domain reference.  A ValueError names a ``seed`` other than an
    integer >= 0 or a non-empty tuple of them, and ``symbols`` other than
    integer indices >= 0.
    """
    check_seed(seed)
    freqs = _check_tones(freqs, cfg)
    symbols = np.arange(freqs.size) if symbols is None else np.atleast_1d(symbols)
    if symbols.dtype.kind not in "iu" or np.any(symbols < 0):
        raise ValueError(f"symbols must be integer indices >= 0, got {symbols}")
    if symbols.shape != freqs.shape:
        raise ValueError("need one symbol index per tone")
    return _spectrum_rows(freqs / cfg.sample_rate, cfg, seed, symbols)


def _spectrum_rows(cycles: np.ndarray, cfg: ChannelConfig, seed, symbols: np.ndarray):
    """:func:`received_spectrum` rows of the tones at ``cycles`` per sample; at the
    link's ``fm_cycles * ids``, the full-row reference its pruned search equals."""
    bins = np.arange(1, cfg.n_bins + 1)[:, None]
    factors = _tone_factors(cycles, _gain_draws(seed, symbols), cfg)
    spectrum = _tone_spectrum(factors, _bin_roots(cfg), bins)
    scale = _noise_scale(cfg)
    if scale is not None:
        re, im = _unit_noise(_noise_draws(seed, cfg.n_bins, symbols), bins)
        spectrum.real += scale * re
        spectrum.imag += scale * im
    return spectrum.T


def _bin_currents(k: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Current estimates from 1-based peak bins."""
    return k / (cfg.n_samples * cfg.fm_cycles)


def demodulate_spectrum(spectrum: np.ndarray, cfg: ChannelConfig) -> np.ndarray:
    """Current estimates from the peak bin of each in-band spectrum row (bins 1..n_bins)."""
    return _bin_currents(1 + np.argmax(spectrum.real ** 2 + spectrum.imag ** 2, axis=1), cfg)


def _power(tone: np.ndarray, noise, scale) -> np.ndarray:
    """Float32 power of ``tone`` plus the unit ``noise`` planes times ``scale`` (None: no noise)."""
    if scale is None:
        return tone.real ** 2 + tone.imag ** 2
    re, im = (scale * plane for plane in noise)
    re += tone.real
    im += tone.imag
    re **= 2
    im **= 2
    re += im
    return re


# Pruned peak search of simulate_link_grid.  Candidate bins are the run
# within _WINDOW of a symbol's tone bin plus the bins whose unit noise is
# drawn explicitly (_noise_draws: the min(_TOP_NOISE + 1, n_bins) loudest).
_WINDOW = 4
# Margin of the no-other-bin-wins bound over float32 rounding of the powers
_SAFETY = 1.01
# Above the rounding error of a complex64 kernel denominator 1 - z * root
_DEN_SLACK = 16 * float(np.finfo(np.float32).eps)
# Smallest peak power the relative margin covers (float32 underflow below)
_TINY_POWER = 1e-30
# Most distinct (symbol, current) rows searched at once; 512 and 2048 measured 9 and 14 % slower
_BATCH_ROWS = 1024
# Most symbols whose draws are held at once (17 explicit bins each per bin count); sets no result
_CHUNK_SYMBOLS = 2048


def _full_row_peaks(factors, rows: np.ndarray, noise: _Noise | None, roots: np.ndarray,
                    key) -> np.ndarray:
    """1-based peak bins of the :func:`_spectrum_rows` of the tones with
    ``factors`` at the rows ``rows`` of ``noise``: every bin read from those
    draws (taken, not drawn again) scaled by ``key`` (None: no noise)."""
    full_row = np.arange(1, roots.size + 1)[:, None]
    planes = None if key is None else _unit_noise(noise.take(rows), full_row)
    return 1 + np.argmax(_power(_tone_spectrum(factors, roots, full_row), planes, key), axis=0)


def _candidate_bins(factors, noise: _Noise | None, roots: np.ndarray, n: int, keys) -> dict:
    """1-based peak bins of the tones with ``factors``, one per row of their
    symbols' unit ``noise``, at block length ``n`` per noise key of ``keys``
    (None: no noise); equal bit for bit to the peak bins of their
    :func:`_spectrum_rows`.

    The power is evaluated exactly at each row's candidate bins: the
    window, the run of min(2 _WINDOW + 1, n_bins) bins from ``k0 -
    _WINDOW`` (shifted inside the band), which holds every in-band bin
    within _WINDOW of the tone's bin ``k0``, and, with noise, the
    explicitly drawn bins of ``noise``.  A window of every in-band bin
    leaves no other bin.  Otherwise a bin outside it lies at least
    _WINDOW + 1/2 bins from the tone, so its tone amplitude is at most
    ``eps = |hnum| / (2 sin(pi (_WINDOW + 1/2) / n) - _DEN_SLACK)``; a bin
    not drawn explicitly has noise amplitude at most
    ``scale * sqrt(u_rest)``.  A row whose best candidate beats
    ``(scale * sqrt(u_rest) + eps)^2`` by the margin has its peak among the
    candidates (ties go to the lowest bin, as with ``np.argmax``); any other
    row is searched over every bin from the same factors and noise
    (:func:`_full_row_peaks`).
    """
    n_bins = roots.size
    hnum, k0 = factors[0], factors[2]
    n_window = min(2 * _WINDOW + 1, n_bins)
    bins = np.clip(k0 - _WINDOW, 1, n_bins - n_window + 1) + np.arange(n_window)[:, None]
    if any(key is not None for key in keys):
        cand_noise = tuple(np.concatenate([near, top]) for near, top in
                           zip(_unit_noise(noise, bins), (noise.top_re, noise.top_im)))
        bins = np.concatenate([bins, noise.bins])
        root_u = np.sqrt(noise.u_rest)
    tone = _tone_spectrum(factors, roots, bins)
    # |x - k| / n lies in [(_WINDOW + 1/2) / n, 1/2] for the tone at bin
    # position x and every bin k outside the window, where sin increases
    eps = np.abs(hnum.astype(complex)) / (2.0 * math.sin(math.pi * (_WINDOW + 0.5) / n)
                                          - _DEN_SLACK)
    # a window of every in-band bin needs no bound
    whole_row = n_window == n_bins
    peaks = {}
    for key in dict.fromkeys(keys):  # each distinct key once
        if key is None:
            power = _power(tone[:n_window], None, None)
            bound = eps ** 2
        else:
            power = _power(tone, cand_noise, key)
            bound = (float(key) * root_u + eps) ** 2
        best = power.max(axis=0)
        k = np.where(power == best, bins[:power.shape[0]], n_bins + 1).min(axis=0)
        proven = whole_row | (best > np.maximum(_SAFETY * bound, _TINY_POWER))
        bad = np.nonzero(~(proven & np.isfinite(best)))[0]
        if bad.size:
            k[bad] = _full_row_peaks(tuple(f[bad] for f in factors), bad, noise, roots, key)
        peaks[key] = k
    return peaks


def _distinct(ids: np.ndarray):
    """Column indices and values of each column's distinct values of ``ids``
    (arrays x symbols), and each entry's index among them."""
    n, width = ids.shape
    first = np.repeat(np.arange(n)[:, None], width, axis=1)  # each entry's first equal array
    for a in range(n - 2, -1, -1):  # a lower equal array is written last
        np.copyto(first[a + 1:], a, where=ids[a + 1:] == ids[a])
    own = first == np.arange(n)[:, None]
    flat = np.flatnonzero(own)
    index = np.cumsum(own) - 1
    return flat % width, ids.ravel()[flat], index[first * width + np.arange(width)]


def simulate_link_grid(ids_list, cfgs, seed) -> np.ndarray:
    """Pass every current array through every link config on shared draws.

    Returns an array of shape ``(len(ids_list), len(cfgs), *ids.shape)``
    whose entry ``[i, j]`` is ``simulate_link(ids_list[i], cfgs[j], seed)``,
    bit for bit.  ``seed`` is an integer >= 0 or a non-empty tuple of them;
    a ValueError names any other seed, such as None, which would draw fresh
    entropy per call.  A symbol's draws depend on neither its tone nor the
    SNR, so per chunk the doppler and fading are drawn once, and the explicit
    unit noise once per bin count with a noisy config.  Each distinct
    (symbol, current) pair is searched once, in batches of at most
    _BATCH_ROWS = 1024 pairs that gather their draws once: configs of one
    bin count, block length, fm_cycles, Doppler and K-factor, such as the
    bandwidths of an SNR sweep, share one tone evaluation and one
    :func:`_candidate_bins` call, keyed by noise scales computed once per call.
    """
    check_seed(seed)  # here, not per draw: no symbols draw nothing
    ids_list = [np.asarray(ids, dtype=float) for ids in ids_list]
    cfgs = list(cfgs)
    if not ids_list or not cfgs:
        raise ValueError("need at least one current array and one link config")
    shape = ids_list[0].shape
    if any(ids.shape != shape for ids in ids_list):
        raise ValueError("current arrays must share one shape")
    flat = [ids.ravel() for ids in ids_list]
    # one check per tone map: the tones depend on fm_scale, bandwidth and sample_rate only
    for cfg in {(cfg.fm_scale, cfg.bandwidth, cfg.sample_rate): cfg for cfg in cfgs}.values():
        for ids in flat:
            _check_tones(modulate(ids, cfg), cfg)
    scales = [_noise_scale(cfg) for cfg in cfgs]  # each config's noise key
    noisy_bins = {cfg.n_bins for cfg, scale in zip(cfgs, scales) if scale is not None}
    # grouping key -> indices of the configs that share one tone evaluation and search
    groups: dict[tuple, list[int]] = {}
    for j, cfg in enumerate(cfgs):
        key = (cfg.n_bins, cfg.n_samples, cfg.fm_cycles, cfg.doppler_fraction, cfg.rician_k_db)
        groups.setdefault(key, []).append(j)
    searches = [(cfgs[js[0]], js, [scales[j] for j in js], _bin_roots(cfgs[js[0]]))
                for js in groups.values()]

    n_sym = flat[0].size
    out = np.empty((len(ids_list), len(cfgs), n_sym))
    for start in range(0, n_sym, _CHUNK_SYMBOLS):
        stop = min(start + _CHUNK_SYMBOLS, n_sym)
        symbols = np.arange(start, stop)
        rows, currents, inverse = _distinct(np.stack([ids[start:stop] for ids in flat]))
        est = np.empty((len(cfgs), currents.size))
        # equal batches of at most _BATCH_ROWS pairs (fewer array sizes, less heap)
        n_batches = -(-currents.size // _BATCH_ROWS)
        edges = np.arange(n_batches + 1) * currents.size // n_batches
        gains = _gain_draws(seed, symbols)
        noises = {n_bins: _noise_draws(seed, n_bins, symbols) for n_bins in noisy_bins}
        for part in map(slice, edges[:-1], edges[1:]):
            batch_gains = gains.take(rows[part], axis=1)
            batch_noises = {n_bins: noise.take(rows[part]) for n_bins, noise in noises.items()}
            for cfg, js, keys, roots in searches:
                # modulate, checked above
                factors = _tone_factors(cfg.fm_cycles * currents[part], batch_gains, cfg)
                peaks = _candidate_bins(factors, batch_noises.get(cfg.n_bins), roots,
                                        cfg.n_samples, keys)
                est[js, part] = [_bin_currents(peaks[s], cfg) for s in keys]
            # the next batch gathers with none of this batch's arrays alive
            del batch_gains, batch_noises, factors, peaks
        out[:, :, start:stop] = est[:, inverse].swapaxes(0, 1)
    return out.reshape(len(ids_list), len(cfgs), *shape)


def simulate_link(ids, cfg: ChannelConfig, seed) -> np.ndarray:
    """Pass a current sequence through the link, one symbol each: the one-point
    case of :func:`simulate_link_grid`, reproducible per ``seed`` (an int >= 0 or
    a tuple of them) and independent of the chunking and of parallelism."""
    return simulate_link_grid([ids], [cfg], seed)[0, 0]

"""End-to-end experiments: noiseless decode study and Monte-Carlo MSE sweeps.

The noiseless runs exercise encoder + decoder alone on a level/vds grid.
The link sweeps push two block-correlated fields (one per source) through
quantize -> encode -> FM link -> decode, then score space/time-averaged
MSE: decoded estimates are averaged inside each correlation block and
compared against the block's ground truth.

Randomness is fully seeded.  Each replicate derives its field and link
seeds from (seed, replicate); axis points within a replicate share the
channel realization (common random numbers, which sharpens point-to-point
comparisons such as the argmin) while replicates stay independent.
Replicates are the work units: one task evaluates every axis point of its
replicate, drawing each chunk's doppler, fading and noise once and reusing
them for all points (:func:`ajscc.channel.simulate_link_grid`).  With
``workers > 1`` replicates run in a process pool and are reduced in
replicate order, so results do not depend on scheduling.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .channel import ChannelConfig, simulate_link, simulate_link_grid
from .codec import CodecConfig, decode_pairs, decode_stream, quantize, stream_estimates
from .mosfet import MosfetParams, drain_current
from .phenomenon import Field, block_means, generate_field

__all__ = [
    "MseReport",
    "SweepResult",
    "NoiselessResult",
    "LambdaSweep",
    "LinkConfig",
    "mse_averaged",
    "run_noiseless",
    "sweep_lambda",
    "run_link_point",
    "sweep_delta",
    "sweep_snr",
    "DEFAULT_DELTA_GRID",
    "DEFAULT_LAMBDA_GRID",
    "DEFAULT_SNR_GRID",
    "DEFAULT_BANDWIDTHS",
    "NOISELESS_LEVELS",
    "noiseless_vds_grid",
]

DEFAULT_DELTA_GRID = tuple(np.round(np.arange(0.05, 1.2501, 0.05), 10))
DEFAULT_LAMBDA_GRID = (0.001, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05,
                       0.075, 0.1, 0.125, 0.15, 0.175, 0.2)
DEFAULT_SNR_GRID = tuple(float(s) for s in range(-100, 1, 10))
DEFAULT_BANDWIDTHS = (50e3, 200e3, 410e3, 500e3)
NOISELESS_LEVELS = (1.0, 2.0, 3.0, 4.0, 5.0)


def noiseless_vds_grid(start: float = 5.0, step: float = 0.1, count: int = 50) -> np.ndarray:
    """Drain-voltage sweep grid of the functional study (50 points per curve)."""
    return start + step * np.arange(count)


@dataclass(frozen=True)
class MseReport:
    """Space/time-averaged MSE [V^2] for one parameter point."""

    mse_gs: float
    mse_ds: float
    mse_sum: float  # (mse_gs + mse_ds) / 2
    n_blocks: int
    params_echo: dict = dc_field(default_factory=dict)

    @classmethod
    def from_pair(cls, mse_gs: float, mse_ds: float, n_blocks: int, **echo) -> "MseReport":
        if mse_gs < 0 or mse_ds < 0:
            raise ValueError("MSE cannot be negative")
        return cls(float(mse_gs), float(mse_ds), (float(mse_gs) + float(mse_ds)) / 2.0,
                   int(n_blocks), echo)


@dataclass(frozen=True)
class SweepResult:
    """One MseReport per axis point plus argmin metadata."""

    axis_name: str
    points: tuple
    reports: tuple
    metadata: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.points) != len(self.reports):
            raise ValueError("one report per axis point required")
        vals = [p for p in self.points if np.isscalar(p)]
        if len(vals) == len(self.points) and len(vals) > 1:
            if not all(a < b for a, b in zip(vals, vals[1:])):
                raise ValueError("axis values must be strictly ascending")


@dataclass(frozen=True)
class NoiselessResult:
    """Per-sample decode results over a (levels x vds grid), no channel.

    Plain fields hold the corrected decoder's outputs; ``*_pre`` fields the
    uncorrected (pure slope matching) ones.  MSEs here are per-sample, not
    block-averaged, since no phenomenon field is involved.
    """

    vgs_true: np.ndarray
    vds_true: np.ndarray
    vgs_hat: np.ndarray
    vds_hat: np.ndarray
    corrected: np.ndarray
    accuracy: float
    mse_gs: float
    mse_ds: float
    vgs_hat_pre: np.ndarray
    vds_hat_pre: np.ndarray
    accuracy_pre: float
    mse_gs_pre: float
    mse_ds_pre: float


def mse_averaged(truth_gs: Field, est_gs: np.ndarray, truth_ds: Field,
                 est_ds: np.ndarray, **params_echo) -> MseReport:
    """Block-averaged MSE of both decoded fields against their ground truth."""
    if truth_gs.values.shape != np.shape(est_gs):
        raise ValueError(
            f"gs estimate shape {np.shape(est_gs)} != field {truth_gs.values.shape}")
    if truth_ds.values.shape != np.shape(est_ds):
        raise ValueError(
            f"ds estimate shape {np.shape(est_ds)} != field {truth_ds.values.shape}")
    if (truth_gs.s_p, truth_gs.t_p) != (truth_ds.s_p, truth_ds.t_p):
        raise ValueError("the two fields must share block geometry")

    def one(truth: Field, est: np.ndarray) -> float:
        bm_est = block_means(np.asarray(est, dtype=float), truth.s_p, truth.t_p)
        bm_truth = block_means(truth.values, truth.s_p, truth.t_p)
        return float(np.mean((bm_est - bm_truth) ** 2))

    return MseReport.from_pair(one(truth_gs, est_gs), one(truth_ds, est_ds),
                               truth_gs.n_blocks, **params_echo)


def run_noiseless(p: MosfetParams, levels=NOISELESS_LEVELS, vds_grid=None,
                  vds_range: tuple[float, float] = (5.0, 10.0)) -> NoiselessResult:
    """Encode every (level, vds) grid point and decode each curve back.

    Each curve is processed independently as a stream of consecutive
    currents.  Reports scatter data plus accuracy and per-sample MSE for
    the decoder with and without range-check correction.
    """
    if vds_grid is None:
        vds_grid = noiseless_vds_grid()
    vds_grid = np.asarray(vds_grid, dtype=float)
    levels = np.asarray(levels, dtype=float)
    lo, hi = vds_range
    if np.any(vds_grid < lo - 1e-9) or np.any(vds_grid > hi + 1e-9):
        raise ValueError("vds_grid extends outside vds_range")
    cfg = CodecConfig(levels=levels, vgs_range=(levels[0], levels[-1]), vds_range=vds_range)

    g = vds_grid.size
    vgs_true = np.repeat(levels, g)
    vds_true = np.tile(vds_grid, levels.size)
    out = {}
    for range_check in (True, False):
        vgs_hat = np.empty(levels.size * g)
        vds_hat = np.empty(levels.size * g)
        corr = np.zeros(levels.size * g, dtype=bool)
        for i, lvl in enumerate(levels):
            ids = drain_current(p, lvl, vds_grid)
            pairs = decode_stream(p, cfg, ids, range_check=range_check)
            vg, vd = stream_estimates(pairs, g)
            sl = slice(i * g, (i + 1) * g)
            vgs_hat[sl], vds_hat[sl] = vg, vd
            for j in range(g // 2):
                corr[i * g + 2 * j] = corr[i * g + 2 * j + 1] = pairs[j].corrected
            if g % 2:
                corr[(i + 1) * g - 1] = pairs[-1].corrected
        out[range_check] = (
            vgs_hat, vds_hat, corr,
            float(np.mean(vgs_hat == vgs_true)),
            float(np.mean((vgs_hat - vgs_true) ** 2)),
            float(np.mean((vds_hat - vds_true) ** 2)),
        )
    post, pre = out[True], out[False]
    return NoiselessResult(
        vgs_true=vgs_true, vds_true=vds_true,
        vgs_hat=post[0], vds_hat=post[1], corrected=post[2],
        accuracy=post[3], mse_gs=post[4], mse_ds=post[5],
        vgs_hat_pre=pre[0], vds_hat_pre=pre[1],
        accuracy_pre=pre[3], mse_gs_pre=pre[4], mse_ds_pre=pre[5],
    )


@dataclass(frozen=True)
class LambdaSweep:
    """Noiseless decode quality versus the channel-length-modulation parameter."""

    lambdas: tuple
    mse_pre: tuple
    mse_post: tuple
    accuracy_pre: tuple
    accuracy_post: tuple


def sweep_lambda(lambdas=DEFAULT_LAMBDA_GRID, base: MosfetParams = MosfetParams(),
                 levels=NOISELESS_LEVELS, vds_grid=None,
                 vds_range: tuple[float, float] = (5.0, 10.0)) -> LambdaSweep:
    """Run the noiseless study for each lam value (combined MSE = mean of gs, ds)."""
    lambdas = [float(l) for l in lambdas]
    if any(l <= 0 for l in lambdas) or not all(a < b for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be positive and strictly ascending")
    mse_pre, mse_post, acc_pre, acc_post = [], [], [], []
    for lam in lambdas:
        p = MosfetParams(k_gain=base.k_gain, v_th=base.v_th, lam=lam)
        r = run_noiseless(p, levels=levels, vds_grid=vds_grid, vds_range=vds_range)
        mse_pre.append((r.mse_gs_pre + r.mse_ds_pre) / 2.0)
        mse_post.append((r.mse_gs + r.mse_ds) / 2.0)
        acc_pre.append(r.accuracy_pre)
        acc_post.append(r.accuracy)
    return LambdaSweep(tuple(lambdas), tuple(mse_pre), tuple(mse_post),
                       tuple(acc_pre), tuple(acc_post))


@dataclass(frozen=True)
class LinkConfig:
    """Shared configuration of the channel experiments."""

    mosfet: MosfetParams = MosfetParams()
    vgs_range: tuple[float, float] = (5.0, 10.0)
    vds_range: tuple[float, float] = (5.0, 10.0)
    nx: int = 20
    ny: int = 20
    nt: int = 20
    s_p: int = 10
    t_p: int = 10
    bandwidth: float = 410e3
    snr_db: float = -20.0
    doppler_fraction: float = 0.02
    rician_k_db: float = 6.0
    n_samples: int = 8192
    oversample: float = 4.0
    fm_headroom: float = 0.7
    n_seeds: int = 10
    seed: int = 42
    workers: int = 1

    @property
    def i_max(self) -> float:
        """Largest encodable current (both sources at their range maximum)."""
        return drain_current(self.mosfet, self.vgs_range[1], self.vds_range[1])

    def channel(self, bandwidth: float | None = None,
                snr_db: float | None = None) -> ChannelConfig:
        return ChannelConfig.for_current_range(
            self.i_max,
            self.bandwidth if bandwidth is None else bandwidth,
            self.snr_db if snr_db is None else snr_db,
            headroom=self.fm_headroom,
            n_samples=self.n_samples,
            oversample=self.oversample,
            doppler_fraction=self.doppler_fraction,
            rician_k_db=self.rician_k_db,
            seed=self.seed,
        )

    def fields(self, replicate: int) -> tuple[Field, Field]:
        """Ground-truth (vgs, vds) field pair for one Monte-Carlo replicate."""
        seeds = np.random.SeedSequence(entropy=(self.seed, replicate)).generate_state(2)
        gs = generate_field(self.nx, self.ny, self.nt, self.s_p, self.t_p,
                            *self.vgs_range, seed=int(seeds[0]))
        ds = generate_field(self.nx, self.ny, self.nt, self.s_p, self.t_p,
                            *self.vds_range, seed=int(seeds[1]))
        return gs, ds


def _encode_streams(cfg: LinkConfig, field_gs: Field, field_ds: Field,
                    codec: CodecConfig) -> np.ndarray:
    """Transmitted currents, one row per sensor's time series."""
    q = quantize(field_gs.values, codec.levels)
    return drain_current(cfg.mosfet, q, field_ds.values).reshape(-1, field_gs.nt)


def _decode_score(cfg: LinkConfig, field_gs: Field, field_ds: Field, codec: CodecConfig,
                  ids_hat: np.ndarray, **echo) -> MseReport:
    """Decode received sensor streams and score them against the fields."""
    p = cfg.mosfet
    nt = field_gs.nt
    lo, hi = cfg.vds_range
    mid = 0.5 * (lo + hi)
    if nt % 2 == 0:
        g, v1, v2, _, ok = decode_pairs(p, codec, ids_hat[:, 0::2].ravel(),
                                        ids_hat[:, 1::2].ravel())
        v1 = np.where(ok, np.clip(v1, lo, hi), mid)
        v2 = np.where(ok, np.clip(v2, lo, hi), mid)
        g = g.reshape(-1, nt // 2)
        est_gs = np.repeat(g, 2, axis=1)
        est_ds = np.empty_like(est_gs)
        est_ds[:, 0::2] = v1.reshape(-1, nt // 2)
        est_ds[:, 1::2] = v2.reshape(-1, nt // 2)
    else:
        est_gs = np.empty_like(ids_hat)
        est_ds = np.empty_like(ids_hat)
        for s in range(ids_hat.shape[0]):
            pairs = decode_stream(p, codec, ids_hat[s])
            vg, vd = stream_estimates(pairs, nt)
            in_rng = np.repeat([pr.in_range for pr in pairs], 2)[:nt]
            est_gs[s] = vg
            est_ds[s] = np.where(in_rng, np.clip(vd, lo, hi), mid)

    shape = field_gs.values.shape
    return mse_averaged(field_gs, est_gs.reshape(shape), field_ds, est_ds.reshape(shape),
                        **echo)


def run_link_point(cfg: LinkConfig, field_gs: Field, field_ds: Field, delta: float,
                   chan: ChannelConfig | None, link_seed) -> MseReport:
    """One full pipeline pass: quantize, encode, link, decode, block MSE.

    ``chan=None`` models a perfect link (currents delivered unchanged),
    used by identity checks.  Decoding pairs consecutive samples of each
    sensor's time-ordered stream.

    Drain-voltage estimates are range-informed before averaging: the
    receiver knows the transmitter's vds interval, so in-range decodes are
    clipped to it and pairs that failed the range check entirely (the
    decode carries no consistent vds information) are replaced by the
    interval midpoint, the minimum-MSE estimate under the uniform prior.
    Level estimates are reported as decoded.
    """
    codec = CodecConfig.uniform(cfg.vgs_range, delta, cfg.vds_range)
    streams = _encode_streams(cfg, field_gs, field_ds, codec)
    ids_hat = streams if chan is None else simulate_link(streams, chan, link_seed)
    echo = {"delta": float(delta), "lam": cfg.mosfet.lam}
    if chan is not None:
        echo.update(snr_db=chan.snr_db, bandwidth=chan.bandwidth)
    return _decode_score(cfg, field_gs, field_ds, codec, ids_hat, **echo)


def _replicate_task(args) -> np.ndarray:
    """(mse_gs, mse_ds) of every (delta, channel) point of one replicate, delta-major.

    Every point is the :func:`run_link_point` of its delta and channel.
    The link seed depends on the replicate only, not the axis point:
    common random numbers across axis points reduce the variance of
    point-to-point differences, stabilising the reported argmin.
    """
    cfg, deltas, chans, rep = args
    field_gs, field_ds = cfg.fields(rep)
    codecs = [CodecConfig.uniform(cfg.vgs_range, d, cfg.vds_range) for d in deltas]
    streams = [_encode_streams(cfg, field_gs, field_ds, codec) for codec in codecs]
    ids_hat = simulate_link_grid(streams, chans, (cfg.seed, rep))
    reports = [_decode_score(cfg, field_gs, field_ds, codec, ids_hat[i, j])
               for i, codec in enumerate(codecs) for j in range(len(chans))]
    return np.array([(r.mse_gs, r.mse_ds) for r in reports])


def _sweep_reports(cfg: LinkConfig, deltas, chans, echoes) -> tuple[MseReport, ...]:
    """Replicate-averaged report per (delta, channel) point, delta-major.

    Replicates run in a process pool of at most ``cfg.workers`` processes
    (one per replicate at most) and are reduced in replicate order.
    """
    tasks = [(cfg, deltas, chans, rep) for rep in range(cfg.n_seeds)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks))) as pool:
            per_rep = list(pool.map(_replicate_task, tasks))
    else:
        per_rep = [_replicate_task(t) for t in tasks]
    acc = np.stack(per_rep, axis=1)  # (point, replicate, gs/ds)
    n_blocks = cfg.fields(0)[0].n_blocks
    return tuple(MseReport.from_pair(acc[i, :, 0].mean(), acc[i, :, 1].mean(), n_blocks,
                                     **echo)
                 for i, echo in enumerate(echoes))


def sweep_delta(deltas=DEFAULT_DELTA_GRID, cfg: LinkConfig = LinkConfig()) -> SweepResult:
    """MSE versus level spacing at fixed bandwidth/SNR, averaged over replicates."""
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    echoes = [dict(delta=d, snr_db=cfg.snr_db, bandwidth=cfg.bandwidth, lam=cfg.mosfet.lam)
              for d in deltas]
    reports = _sweep_reports(cfg, deltas, [cfg.channel()], echoes)
    best = int(np.argmin([r.mse_sum for r in reports]))
    meta = {"delta_star": deltas[best], "mse_sum_star": reports[best].mse_sum,
            "argmin_index": best, "n_seeds": cfg.n_seeds}
    return SweepResult("delta", tuple(deltas), reports, meta)


def sweep_snr(snrs=DEFAULT_SNR_GRID, bandwidths=DEFAULT_BANDWIDTHS, delta: float = 0.41,
              cfg: LinkConfig = LinkConfig()) -> SweepResult:
    """MSE versus SNR, one curve per bandwidth, at fixed level spacing.

    Points are (snr_db, bandwidth) pairs, snr-major; each bandwidth derives
    its own FM scale so the band is always filled to the same headroom.
    The sample rate and FM scale both scale with the bandwidth, so the
    curves agree across bandwidths in exact arithmetic, but not bit for
    bit: the float rounding of the tone frequencies differs per bandwidth
    and moves the MSE in the last digits (relative differences near 1e-15).
    Each bandwidth therefore keeps its own tone spectrum instead of reusing
    another's result.
    """
    snrs = [float(s) for s in snrs]
    if not all(a < b for a, b in zip(snrs, snrs[1:])):
        raise ValueError("snrs must be strictly ascending")
    bandwidths = [float(b) for b in bandwidths]
    points = [(s, b) for s in snrs for b in bandwidths]
    chans = [cfg.channel(bandwidth=b, snr_db=s) for s, b in points]
    echoes = [dict(delta=float(delta), snr_db=s, bandwidth=b, lam=cfg.mosfet.lam)
              for s, b in points]
    reports = _sweep_reports(cfg, [float(delta)], chans, echoes)
    return SweepResult("snr_db", tuple(points), reports,
                       {"delta": float(delta), "n_seeds": cfg.n_seeds})

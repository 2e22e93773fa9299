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
Replicates are the work units: one pipeline pass encodes a replicate's
fields at every level spacing and links, decodes and scores all its axis
points (:func:`ajscc.channel.simulate_link_grid` draws each symbol's
doppler, fading and noise once, keyed by seed and symbol index);
:func:`run_link_point` is its one-point case.  Replicates are reduced in
replicate order at any worker count.  The default grids are written once, here.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

# simulate_link and decode_pairs are not called here; bench/tracing.py wraps them in this namespace
from .channel import OVERSAMPLE, ChannelConfig, simulate_link, simulate_link_grid  # noqa: F401
from .codec import (CodecConfig, build_levels, check_decodable, check_vds_range,  # noqa: F401
                    decode_pairs, decode_stream, encode, quantize)
from .mosfet import MosfetParams, drain_current
from .phenomenon import Field, block_grid, block_means, check_geometry, check_seed, generate_field

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

# Default ranges and grids; the command line's config defaults are these values and strings
SOURCE_RANGE = (5.0, 10.0)  # default range of both sources, the gate's and the drain's [V]
DELTA_AXIS = (0.05, 1.25, 0.05)  # level spacing min, max, step [V]
SNR_AXIS = (-100.0, 0.0, 10.0)  # in-band SNR min, max, step [dB]
LAMBDA_LIST = "0.001,0.005,0.01,0.02,0.03,0.04,0.05,0.075,0.1,0.125,0.15,0.175,0.2"
BANDWIDTH_LIST = "50e3,200e3,410e3,500e3"  # [Hz]
NOISELESS_LEVEL_LIST = "1,2,3,4,5"  # gate levels of the noiseless study [V]
NOISELESS_VDS_AXIS = (5.0, 0.1, 50)  # its drain-voltage start [V], step [V], count
SNR_SWEEP_DELTA = 0.41  # level spacing of the SNR sweep [V]


def float_list(text: str) -> tuple[float, ...]:
    """Floats of a comma-separated list; empty items are skipped."""
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def axis_points(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi, which is included up to rounding."""
    return [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]


def delta_points(lo: float, hi: float, step: float) -> list[float]:
    """Level spacings of an axis, rounded to 12 decimals to drop float residue."""
    return [round(d, 12) for d in axis_points(lo, hi, step)]


DEFAULT_DELTA_GRID = tuple(delta_points(*DELTA_AXIS))
DEFAULT_LAMBDA_GRID = float_list(LAMBDA_LIST)
DEFAULT_SNR_GRID = tuple(axis_points(*SNR_AXIS))
DEFAULT_BANDWIDTHS = float_list(BANDWIDTH_LIST)
NOISELESS_LEVELS = float_list(NOISELESS_LEVEL_LIST)


def noiseless_vds_grid(start: float, step: float, count: int) -> np.ndarray:
    """Drain-voltage sweep grid of the functional study: ``count`` points from ``start``."""
    return start + step * np.arange(count)


@dataclass(frozen=True)
class MseReport:
    """Space/time-averaged MSE [V^2] of one parameter point: of the decoded gate
    and drain fields' block means against the truth's, averaged over a sweep's
    replicates, and over both fields in ``mse_sum``."""

    mse_gs: float
    mse_ds: float
    mse_sum: float = dc_field(init=False)  # (mse_gs + mse_ds) / 2, set when built
    n_blocks: int  # correlation blocks of one field

    def __post_init__(self) -> None:
        if self.mse_gs < 0 or self.mse_ds < 0:
            raise ValueError("MSE cannot be negative")
        for name, cast in (("mse_gs", float), ("mse_ds", float), ("n_blocks", int)):
            object.__setattr__(self, name, cast(getattr(self, name)))
        object.__setattr__(self, "mse_sum", (self.mse_gs + self.mse_ds) / 2.0)


@dataclass(frozen=True)
class SweepResult:
    """One MseReport per axis point, in axis order.  ``points`` are the spacings of
    :func:`sweep_delta`, whose ``metadata`` holds ``argmin_index``, the point of
    least ``mse_sum``, and ``delta_star``, its spacing; or the (snr_db,
    bandwidth) pairs of :func:`sweep_snr`, whose ``metadata`` is empty."""

    points: tuple
    reports: tuple
    metadata: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class NoiselessResult:
    """Per-sample decode results over a (levels x vds) grid, no channel: plain
    fields from the corrected decoder, ``*_pre`` ones from the uncorrected (pure
    slope matching) one.  MSEs are per-sample: no phenomenon field is involved."""

    vgs_true: np.ndarray
    vds_true: np.ndarray
    vgs_hat: np.ndarray
    vds_hat: np.ndarray
    corrected: np.ndarray
    accuracy: float
    mse_gs: float
    mse_ds: float
    vgs_hat_pre: np.ndarray
    accuracy_pre: float
    mse_gs_pre: float
    mse_ds_pre: float


def _check_scored(field_gs: Field, field_ds: Field, *estimates) -> None:
    """Raise ValueError unless both fields share one shape and block geometry and
    the (gs, ds) estimates given have that shape."""
    geometry = [(f.values.shape, f.s_p, f.t_p) for f in (field_gs, field_ds)]
    if geometry[0] != geometry[1]:
        gs, ds = (f"{shape} with s_p={s_p}, t_p={t_p}" for shape, s_p, t_p in geometry)
        raise ValueError(f"the two fields must share block geometry and shape, got gs {gs} "
                         f"and ds {ds}")
    for name, est in zip(("gs", "ds"), estimates):
        if np.shape(est) != field_gs.values.shape:
            raise ValueError(f"{name} estimate shape {np.shape(est)} != field "
                             f"{field_gs.values.shape}")


def mse_averaged(truth_gs: Field, est_gs: np.ndarray, truth_ds: Field,
                 est_ds: np.ndarray) -> MseReport:
    """Block-averaged MSE of both decoded fields against their ground truth."""
    _check_scored(truth_gs, truth_ds, est_gs, est_ds)
    means = [block_means(f.values, f.s_p, f.t_p) for f in (truth_gs, truth_ds)]
    return MseReport(*_block_mse(means, truth_gs, est_gs, est_ds), truth_gs.n_blocks)


def _block_mse(truth_means, truth: Field, est_gs, est_ds) -> tuple[float, ...]:
    """(mse_gs, mse_ds) given both fields' block means (``truth`` has their geometry)."""
    return tuple(float(np.mean((block_means(np.asarray(est, dtype=float), truth.s_p, truth.t_p)
                                - bm) ** 2)) for est, bm in zip((est_gs, est_ds), truth_means))


def run_noiseless(p: MosfetParams, levels=NOISELESS_LEVELS, vds_grid=None,
                  vds_range: tuple[float, float] = SOURCE_RANGE) -> NoiselessResult:
    """Encode every (level, vds) grid point and decode each curve back.

    Each curve is decoded independently as a stream of consecutive
    currents.  Reports scatter data plus accuracy and per-sample MSE for
    the decoder with and without range-check correction.
    """
    if vds_grid is None:
        vds_grid = noiseless_vds_grid(*NOISELESS_VDS_AXIS)
    vds_grid = np.asarray(vds_grid, dtype=float)
    cfg = CodecConfig(levels, vds_range)
    levels = cfg.levels

    vgs_true = np.repeat(levels, vds_grid.size)
    vds_true = np.tile(vds_grid, levels.size)
    ids = encode(p, cfg, levels[:, None], vds_grid)  # rejects a grid point outside vds_range
    (vgs_hat, vds_hat, corr, _), (vgs_pre, vds_pre, _, _) = (
        [a.ravel() for a in decode_stream(p, cfg, ids, range_check=rc)] for rc in (True, False))

    def mse(est, truth) -> float:
        return float(np.mean((est - truth) ** 2))

    return NoiselessResult(
        vgs_true=vgs_true, vds_true=vds_true, vgs_hat=vgs_hat, vds_hat=vds_hat, corrected=corr,
        accuracy=float(np.mean(vgs_hat == vgs_true)), mse_gs=mse(vgs_hat, vgs_true),
        mse_ds=mse(vds_hat, vds_true), vgs_hat_pre=vgs_pre,
        accuracy_pre=float(np.mean(vgs_pre == vgs_true)), mse_gs_pre=mse(vgs_pre, vgs_true),
        mse_ds_pre=mse(vds_pre, vds_true))


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
                 vds_range: tuple[float, float] = SOURCE_RANGE) -> LambdaSweep:
    """Run the noiseless study for each lam value (combined MSE = mean of gs, ds); the
    lambdas ascend strictly, and a lam that check_decodable rejects fails its run."""
    lambdas = [float(l) for l in lambdas]
    if not all(a < b for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be strictly ascending")
    runs = [run_noiseless(replace(base, lam=lam), levels=levels, vds_grid=vds_grid,
                          vds_range=vds_range) for lam in lambdas]
    return LambdaSweep(tuple(lambdas), tuple((r.mse_gs_pre + r.mse_ds_pre) / 2.0 for r in runs),
                       tuple((r.mse_gs + r.mse_ds) / 2.0 for r in runs),
                       tuple(r.accuracy_pre for r in runs), tuple(r.accuracy for r in runs))


@dataclass(frozen=True)
class LinkConfig:
    """Shared configuration of the channel experiments.

    Checked when built (integer counts, ``seed`` >= 0, ``workers`` >= 1, a ``vds_range``
    that :func:`~ajscc.codec.check_vds_range` and :func:`~ajscc.codec.check_decodable`
    accept), so a sweep rejects it before any replicate runs or any process starts.
    ``vgs_range[0]``, the lowest level at every spacing, alone is checked
    against v_th; :meth:`channel` checks the channel, snr_db's floor included.
    """

    mosfet: MosfetParams = MosfetParams()
    vgs_range: tuple[float, float] = SOURCE_RANGE
    vds_range: tuple[float, float] = SOURCE_RANGE
    nx: int = 20
    ny: int = 20
    nt: int = 20
    s_p: int = 10
    t_p: int = 10
    bandwidth: float = 410e3
    snr_db: float = -20.0
    doppler_fraction: float = ChannelConfig.doppler_fraction
    rician_k_db: float = ChannelConfig.rician_k_db
    n_samples: int = 8192
    oversample: float = OVERSAMPLE
    fm_headroom: float = 0.7
    n_seeds: int = 10
    seed: int = 42
    workers: int = 1

    def __post_init__(self) -> None:
        check_geometry(self.nx, self.ny, self.nt, self.s_p, self.t_p)
        for name in ("n_seeds", "workers"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.nt < 2:
            raise ValueError(f"need at least 2 samples to decode, got nt={self.nt}")
        if self.n_seeds < 1:
            raise ValueError(f"need at least one replicate, got n_seeds={self.n_seeds}")
        check_seed(self.seed, tuples=False)
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got workers={self.workers}")
        if not -np.inf < self.vgs_range[0] < self.vgs_range[1] < np.inf:
            raise ValueError(f"vgs_range must have finite lo < hi, got {self.vgs_range}")
        check_vds_range(self.vds_range)
        check_decodable(self.mosfet, self.vds_range)  # every sweep decodes
        if not self.vgs_range[0] > self.mosfet.v_th:
            raise ValueError(f"levels must all exceed v_th={self.mosfet.v_th} V, "
                             f"got vgs_range {self.vgs_range}")

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
        )

    def fields(self, replicate: int) -> tuple[Field, Field]:
        """Ground-truth (vgs, vds) field pair for one Monte-Carlo replicate."""
        seeds = np.random.SeedSequence(entropy=(self.seed, replicate)).generate_state(2)
        gs = generate_field(self.nx, self.ny, self.nt, self.s_p, self.t_p,
                            *self.vgs_range, seed=int(seeds[0]))
        ds = generate_field(self.nx, self.ny, self.nt, self.s_p, self.t_p,
                            *self.vds_range, seed=int(seeds[1]))
        return gs, ds


def _link_points(cfg: LinkConfig, field_gs: Field, field_ds: Field, codecs,
                 chans, link_seed) -> np.ndarray:
    """Quantize, encode, link, decode and score each (codec, channel) point:
    one (mse_gs, mse_ds) row per point, codec-major.

    ``chans=None`` models a perfect link (currents delivered unchanged).
    Every point uses ``link_seed``: common random numbers across axis
    points stabilise the reported argmin.  Decoding pairs consecutive
    samples of each sensor's time-ordered stream; a codec's bit-identical
    estimate arrays are decoded and scored once.

    Drain-voltage estimates are range-informed before averaging: the
    receiver knows the transmitter's vds interval, so in-range decodes are
    clipped to it and pairs that failed the range check entirely (the
    decode carries no consistent vds information) are replaced by the
    interval midpoint, the minimum-MSE estimate under the uniform prior.
    Level estimates are reported as decoded.
    """
    streams = [drain_current(cfg.mosfet, quantize(field_gs.values, codec.levels),
                             field_ds.values).reshape(-1, field_gs.nt) for codec in codecs]
    ids_hat = ([[ids] for ids in streams] if chans is None
               else simulate_link_grid(streams, chans, link_seed))
    lo, hi = cfg.vds_range
    shape = field_gs.values.shape
    truth_means = [block_means(f.values, f.s_p, f.t_p) for f in (field_gs, field_ds)]
    rows = []
    for codec, links in zip(codecs, ids_hat):
        scored = []  # (estimates, MSEs) of this spacing's channels so far
        for ids in links:
            mse = next((m for seen, m in scored if np.array_equal(seen, ids)), None)
            if mse is None:
                est_gs, vds_hat, _, ok = decode_stream(cfg.mosfet, codec, ids)
                est_ds = np.where(ok, np.clip(vds_hat, lo, hi), 0.5 * (lo + hi))
                mse = _block_mse(truth_means, field_gs, est_gs.reshape(shape),
                                 est_ds.reshape(shape))
                scored.append((ids, mse))
            rows.append(mse)
    return np.array(rows)


def run_link_point(cfg: LinkConfig, field_gs: Field, field_ds: Field, delta: float,
                   chan: ChannelConfig | None, link_seed) -> MseReport:
    """One pass of the sweeps' pipeline (quantize, encode, link, decode, block
    MSE) at one point; ``chan=None`` models a perfect link, as in identity checks.
    A ValueError names both fields' shapes and blocks when they differ."""
    _check_scored(field_gs, field_ds)
    codec = CodecConfig(build_levels(cfg.vgs_range, delta), cfg.vds_range)
    mse = _link_points(cfg, field_gs, field_ds, [codec], None if chan is None else [chan],
                       link_seed)[0]
    return MseReport(*mse, field_gs.n_blocks)


def _replicate_task(args) -> np.ndarray:
    """(mse_gs, mse_ds) of every (codec, channel) point of one replicate, codec-major."""
    cfg, codecs, chans, rep = args
    return _link_points(cfg, *cfg.fields(rep), codecs, chans, (cfg.seed, rep))


def _share_task(share, conn, caller_end) -> None:
    """Send the MSEs of a share of replicates, or the exception that stopped it."""
    caller_end.close()  # then a send to a caller that died fails instead of blocking
    try:
        conn.send([_replicate_task(t) for t in share])
    except Exception as exc:
        conn.send(exc)


def _sweep_reports(cfg: LinkConfig, deltas, chans) -> tuple[MseReport, ...]:
    """Replicate-averaged report per (delta, channel) point, delta-major.

    The replicates are dealt round-robin into ``min(cfg.workers, n_seeds)``
    shares.  The caller computes the first share; each other share runs in a
    process started for this sweep, which sends back its MSEs or its
    exception through a pipe; a child that dies before it sends raises
    ChildProcessError with its exit code.  So at most ``cfg.workers``
    processes compute at once, and none is started for one worker or one
    replicate.  ``cfg`` checked itself when built, and each spacing's codec,
    which every replicate shares, is built here, before any replicate runs.

    The parent forks with one thread.  In ``/proc/self/task`` (python 3.11, numpy
    2.4, 2 CPUs) it has 1 before ``import numpy``, 2 after (an OpenBLAS worker)
    and 1 after the first 2-worker sweep: OpenBLAS's fork handler stops its pool
    before each fork and a BLAS call restarts it.  Python runs one thread.
    """
    codecs = [CodecConfig(build_levels(cfg.vgs_range, d), cfg.vds_range) for d in deltas]
    tasks = [(cfg, codecs, chans, rep) for rep in range(cfg.n_seeds)]
    workers = min(cfg.workers, len(tasks))
    children = []  # (process, receiving end of its pipe) per share after the first
    try:
        if workers > 1:
            import multiprocessing  # here: it costs every import of the package some 15 ms

            for w in range(1, workers):
                recv, send = multiprocessing.Pipe(duplex=False)
                proc = multiprocessing.Process(target=_share_task,
                                               args=(tasks[w::workers], send, recv))
                proc.start()
                send.close()  # the child holds the only send end, so its death ends recv
                children.append((proc, recv))
        per_share = [[_replicate_task(t) for t in tasks[::workers]]]
        for proc, recv in children:  # received before any join: a share can outgrow the pipe
            try:
                per_share.append(recv.recv())
            except EOFError:  # the child died before it sent anything
                proc.join()
                raise ChildProcessError(f"a sweep worker exited with code {proc.exitcode} "
                                        "before sending its reports") from None
            if isinstance(per_share[-1], Exception):
                raise per_share[-1]
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv in children:
            proc.join()
            recv.close()
    per_rep = [per_share[rep % workers][rep // workers] for rep in range(len(tasks))]
    # on the contiguous last axis a point's replicates sum in np.mean's order for a list
    mse = np.stack(per_rep, axis=-1).mean(axis=-1)
    n_blocks = np.prod(block_grid(cfg.nx, cfg.ny, cfg.nt, cfg.s_p, cfg.t_p))
    return tuple(MseReport(gs, ds, n_blocks) for gs, ds in mse)


def sweep_delta(deltas=DEFAULT_DELTA_GRID, cfg: LinkConfig = LinkConfig()) -> SweepResult:
    """MSE versus level spacing at fixed bandwidth/SNR, averaged over replicates; the
    spacings ascend strictly, and build_levels checks each before any replicate runs."""
    deltas = [float(d) for d in deltas]
    if not deltas or not all(a < b for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be non-empty and strictly ascending")
    reports = _sweep_reports(cfg, deltas, [cfg.channel()])
    best = int(np.argmin([r.mse_sum for r in reports]))
    return SweepResult(tuple(deltas), reports,
                       {"delta_star": deltas[best], "argmin_index": best})


def sweep_snr(snrs=DEFAULT_SNR_GRID, bandwidths=DEFAULT_BANDWIDTHS,
              delta: float = SNR_SWEEP_DELTA, cfg: LinkConfig = LinkConfig()) -> SweepResult:
    """MSE versus SNR, one curve per bandwidth, at fixed level spacing.

    Points are (snr_db, bandwidth) pairs, snr-major; each bandwidth derives
    its own FM scale so the band is always filled to the same headroom.
    Sample rate and FM scale both grow with the bandwidth; bandwidths that
    share their ratio fm_cycles (every default one) share one link search
    and give bit-identical curves, each SNR's points decoded and scored once.
    """
    snrs = [float(s) for s in snrs]
    bandwidths = [float(b) for b in bandwidths]
    if not snrs or not bandwidths or not all(a < b for a, b in zip(snrs, snrs[1:])):
        raise ValueError("snrs and bandwidths must be non-empty, snrs strictly ascending")
    points = [(s, b) for s in snrs for b in bandwidths]
    chans = [cfg.channel(bandwidth=b, snr_db=s) for s, b in points]
    return SweepResult(tuple(points), _sweep_reports(cfg, [float(delta)], chans))

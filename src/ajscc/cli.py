"""Command-line front end: config handling, experiment dispatch, CSV artifacts.

Configuration is a flat key=value namespace resolved in order: built-in
defaults, then a config file (``key = value`` lines, ``#`` comments), then
``AJSCC_<KEY>`` environment variables, then command-line flags.  Every CSV
artifact starts with a ``#`` line echoing the fully resolved configuration,
so a run is reproducible from its own output.

Subcommands: noiseless, sweep-lambda, sweep-delta, sweep-snr, gen-field,
encode, decode.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig
from .codec import CodecConfig, decode_pair, encode
from .experiments import (
    LinkConfig,
    run_noiseless,
    sweep_delta,
    sweep_lambda,
    sweep_snr,
)
from .mosfet import MosfetParams
from .phenomenon import field_to_csv, generate_field

ENV_PREFIX = "AJSCC_"

COMMANDS = ("noiseless", "sweep-lambda", "sweep-delta", "sweep-snr",
            "gen-field", "encode", "decode")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Flat, fully-defaulted view of every experiment parameter.

    Defaults reproduce the reference operating point: the 0.18 um device,
    both source ranges (5, 10) V, 410 kHz bandwidth at -20 dB SNR, a
    20 x 20 x 20 field with 10-cell/10-instant correlation blocks, and 2 %
    Doppler.
    """

    # device
    k_gain: float = 155e-6
    v_th: float = 0.74
    lam: float = 0.037
    # source ranges shared by codec and field generation
    vgs_lo: float = 5.0
    vgs_hi: float = 10.0
    vds_lo: float = 5.0
    vds_hi: float = 10.0
    delta: float | None = None  # set to pin sweep-delta to a single spacing
    # noiseless functional study
    noiseless_levels: str = "1,2,3,4,5"
    noiseless_vds_start: float = 5.0
    noiseless_vds_step: float = 0.1
    noiseless_vds_count: int = 50
    # field geometry
    nx: int = 20
    ny: int = 20
    nt: int = 20
    s_p: int = 10
    t_p: int = 10
    # channel
    bandwidth: float = 410e3
    snr_db: float = -20.0
    doppler_fraction: float = 0.02
    rician_k_db: float = 6.0
    n_samples: int = 8192
    oversample: float = 4.0
    fm_headroom: float = 0.7
    # sweep grids
    delta_min: float = 0.05
    delta_max: float = 1.25
    delta_step: float = 0.05
    lambda_grid: str = ("0.001,0.005,0.01,0.02,0.03,0.04,0.05,"
                        "0.075,0.1,0.125,0.15,0.175,0.2")
    snr_min: float = -100.0
    snr_max: float = 0.0
    snr_step: float = 10.0
    bandwidths: str = "50e3,200e3,410e3,500e3"
    # Monte-Carlo control
    seeds: int = 10
    seed: int = 42
    workers: int = 0  # 0 means one worker per available processor
    # output
    outdir: str = "."

    def mosfet(self) -> MosfetParams:
        return MosfetParams(k_gain=self.k_gain, v_th=self.v_th, lam=self.lam)

    def noiseless_level_list(self) -> np.ndarray:
        return np.array(_parse_float_list("noiseless_levels", self.noiseless_levels))

    def noiseless_vds_grid(self) -> np.ndarray:
        return self.noiseless_vds_start + self.noiseless_vds_step * np.arange(
            self.noiseless_vds_count)

    def delta_grid(self) -> list[float]:
        if self.delta is not None:
            return [self.delta]
        n = int(round((self.delta_max - self.delta_min) / self.delta_step)) + 1
        return [round(self.delta_min + i * self.delta_step, 12) for i in range(n)]

    def snr_grid(self) -> list[float]:
        n = int(round((self.snr_max - self.snr_min) / self.snr_step)) + 1
        return [self.snr_min + i * self.snr_step for i in range(n)]

    def bandwidth_list(self) -> list[float]:
        return _parse_float_list("bandwidths", self.bandwidths)

    def link(self) -> LinkConfig:
        return LinkConfig(
            mosfet=self.mosfet(),
            vgs_range=(self.vgs_lo, self.vgs_hi),
            vds_range=(self.vds_lo, self.vds_hi),
            nx=self.nx, ny=self.ny, nt=self.nt, s_p=self.s_p, t_p=self.t_p,
            bandwidth=self.bandwidth, snr_db=self.snr_db,
            doppler_fraction=self.doppler_fraction, rician_k_db=self.rician_k_db,
            n_samples=self.n_samples, oversample=self.oversample,
            fm_headroom=self.fm_headroom,
            n_seeds=self.seeds, seed=self.seed,
            workers=self.workers if self.workers > 0 else (os.cpu_count() or 1),
        )

    def echo(self) -> str:
        items = dataclasses.asdict(self)
        items.pop("outdir")  # does not affect results; keeps reruns byte-identical
        return " ".join(f"{k}={items[k]}" for k in sorted(items))


def _parse_float_list(key: str, text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid value for '{key}': {exc}") from None
    if not vals:
        raise ConfigError(f"invalid value for '{key}': empty list")
    return vals


def _coerce(key: str, raw, target_type) -> object:
    if raw is None:
        return None
    if isinstance(raw, str):
        raw = raw.strip()
    try:
        if target_type is float:
            return float(raw)
        if target_type is int:
            return int(raw)
        if target_type == float | None:
            if isinstance(raw, str) and raw.lower() in ("", "none"):
                return None
            return float(raw)
        return str(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value for '{key}': {raw!r}") from None


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_TYPE_OBJECTS = {"float": float, "int": int, "str": str, "float | None": float | None}


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Resolve defaults <- file <- environment <- explicit overrides."""
    values = dataclasses.asdict(RunConfig())
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in values:
                    raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
                values[key] = val
    for key in values:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            values[key] = env
    for key, val in (overrides or {}).items():
        if key not in values:
            raise ConfigError(f"unknown key '{key}'")
        if val is not None:
            values[key] = val

    coerced = {}
    for key, raw in values.items():
        coerced[key] = _coerce(key, raw, _TYPE_OBJECTS[str(_FIELD_TYPES[key])])
    cfg = RunConfig(**coerced)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Construct every module config so all invariants are checked up front."""
    try:
        p = cfg.mosfet()
    except ValueError as exc:
        raise ConfigError(f"invalid device parameters (k_gain/v_th/lam): {exc}") from None
    levels = cfg.noiseless_level_list()
    if np.any(levels <= p.v_th):
        raise ConfigError("invalid value for 'noiseless_levels': levels must exceed v_th")
    for key, lo, hi in (("vgs_lo/vgs_hi", cfg.vgs_lo, cfg.vgs_hi),
                        ("vds_lo/vds_hi", cfg.vds_lo, cfg.vds_hi)):
        if not lo < hi:
            raise ConfigError(f"invalid value for '{key}': need lo < hi")
    if cfg.delta is not None and cfg.delta <= 0:
        raise ConfigError("invalid value for 'delta': must be positive")
    for key, val in (("noiseless_vds_count", cfg.noiseless_vds_count),
                     ("nx", cfg.nx), ("ny", cfg.ny), ("nt", cfg.nt),
                     ("s_p", cfg.s_p), ("t_p", cfg.t_p), ("seeds", cfg.seeds)):
        if val < 1:
            raise ConfigError(f"invalid value for '{key}': must be >= 1")
    cfg.bandwidth_list()
    _parse_float_list("lambda_grid", cfg.lambda_grid)
    try:
        cfg.link().channel()
    except ValueError as exc:
        raise ConfigError(f"invalid channel configuration: {exc}") from None


@contextlib.contextmanager
def _atomic_path(path: str):
    """Yield a temporary path that replaces ``path`` only if the block succeeds.

    A failed run leaves neither a partial artifact nor the temporary file,
    and an earlier artifact at ``path`` stays as it was.
    """
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_csv(path: str, echo: str, header: str, rows) -> None:
    """Write one CSV artifact atomically: config echo line, header, rows."""
    with _atomic_path(path) as tmp:
        with open(tmp, "w") as fh:
            fh.write(f"# ajscc {echo}\n")
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.10g}"
    return str(v)


def _cmd_noiseless(cfg: RunConfig) -> int:
    res = run_noiseless(cfg.mosfet(), levels=cfg.noiseless_level_list(),
                        vds_grid=cfg.noiseless_vds_grid(),
                        vds_range=(cfg.vds_lo, cfg.vds_hi))
    rows = zip(res.vgs_true, res.vds_true, res.vgs_hat, res.vds_hat, res.corrected)
    _write_csv(os.path.join(cfg.outdir, "noiseless.csv"), cfg.echo(),
               "vgs_true,vds_true,vgs_hat,vds_hat,corrected", rows)
    print(f"accuracy={res.accuracy:.6g} accuracy_uncorrected={res.accuracy_pre:.6g} "
          f"mse_gs={res.mse_gs:.6g} mse_ds={res.mse_ds:.6g}")
    return 0


def _cmd_sweep_lambda(cfg: RunConfig) -> int:
    lambdas = _parse_float_list("lambda_grid", cfg.lambda_grid)
    sw = sweep_lambda(lambdas, base=cfg.mosfet(), levels=cfg.noiseless_level_list(),
                      vds_grid=cfg.noiseless_vds_grid(),
                      vds_range=(cfg.vds_lo, cfg.vds_hi))
    rows = zip(sw.lambdas, sw.mse_pre, sw.mse_post, sw.accuracy_pre, sw.accuracy_post)
    _write_csv(os.path.join(cfg.outdir, "sweep_lambda.csv"), cfg.echo(),
               "lambda,mse_pre,mse_post,accuracy_pre,accuracy_post", rows)
    print(f"lambda_points={len(sw.lambdas)} max_mse_pre={max(sw.mse_pre):.6g} "
          f"max_mse_post={max(sw.mse_post):.6g}")
    return 0


def _cmd_sweep_delta(cfg: RunConfig) -> int:
    sw = sweep_delta(cfg.delta_grid(), cfg.link())
    rows = ((d, r.mse_gs, r.mse_ds, r.mse_sum)
            for d, r in zip(sw.points, sw.reports))
    _write_csv(os.path.join(cfg.outdir, "sweep_delta.csv"), cfg.echo(),
               "delta,mse_gs,mse_ds,mse_sum", rows)
    star = sw.reports[sw.metadata["argmin_index"]]
    # mse_sum is the mean of the two MSEs; the literal sum is echoed as well
    print(f"delta_star={sw.metadata['delta_star']:.6g} "
          f"mse_sum={star.mse_sum:.6g} mse_total={star.mse_gs + star.mse_ds:.6g}")
    return 0


def _cmd_sweep_snr(cfg: RunConfig) -> int:
    delta = cfg.delta if cfg.delta is not None else 0.41
    sw = sweep_snr(cfg.snr_grid(), cfg.bandwidth_list(), delta, cfg.link())
    rows = ((s, b, r.mse_sum) for (s, b), r in zip(sw.points, sw.reports))
    _write_csv(os.path.join(cfg.outdir, "sweep_snr.csv"), cfg.echo(),
               "snr_db,bandwidth_hz,mse_sum", rows)
    best = min(r.mse_sum for r in sw.reports)
    worst = max(r.mse_sum for r in sw.reports)
    print(f"delta={delta:.6g} best_mse_sum={best:.6g} worst_mse_sum={worst:.6g}")
    return 0


def _cmd_gen_field(cfg: RunConfig) -> int:
    field = generate_field(cfg.nx, cfg.ny, cfg.nt, cfg.s_p, cfg.t_p,
                           cfg.vds_lo, cfg.vds_hi, seed=cfg.seed)
    path = os.path.join(cfg.outdir, "field.csv")
    with _atomic_path(path) as tmp:
        field_to_csv(field, tmp)
    print(f"field {cfg.nx}x{cfg.ny}x{cfg.nt} blocks={field.n_blocks} -> {path}")
    return 0


def _noiseless_codec(cfg: RunConfig) -> CodecConfig:
    levels = cfg.noiseless_level_list()
    return CodecConfig(levels=levels, vgs_range=(levels[0], levels[-1]),
                       vds_range=(cfg.vds_lo, cfg.vds_hi))


def _cmd_encode(cfg: RunConfig, vgs: float, vds: float) -> int:
    ids = encode(cfg.mosfet(), _noiseless_codec(cfg), vgs, vds)
    print(f"{ids:.5g}")
    return 0


def _cmd_decode(cfg: RunConfig, ids1: float, ids2: float) -> int:
    pair = decode_pair(cfg.mosfet(), _noiseless_codec(cfg), ids1, ids2)
    print(f"vgs_hat={pair.vgs_hat:.6g} vds_hat_1={pair.vds_hat_1:.6g} "
          f"vds_hat_2={pair.vds_hat_2:.6g} corrected={int(pair.corrected)} "
          f"in_range={int(pair.in_range)}")
    return 0


def dispatch(command: str, cfg: RunConfig, **extra) -> int:
    """Run one subcommand; returns a process exit status."""
    os.makedirs(cfg.outdir, exist_ok=True)
    if command == "noiseless":
        return _cmd_noiseless(cfg)
    if command == "sweep-lambda":
        return _cmd_sweep_lambda(cfg)
    if command == "sweep-delta":
        return _cmd_sweep_delta(cfg)
    if command == "sweep-snr":
        return _cmd_sweep_snr(cfg)
    if command == "gen-field":
        return _cmd_gen_field(cfg)
    if command == "encode":
        return _cmd_encode(cfg, extra["vgs"], extra["vds"])
    if command == "decode":
        return _cmd_decode(cfg, extra["ids1"], extra["ids2"])
    raise ConfigError(f"unknown command '{command}'")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key = value config file")
    for f in dataclasses.fields(RunConfig):
        common.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                            metavar="V", help=f"override {f.name}")
    parser = argparse.ArgumentParser(
        prog="ajscc",
        description="Two-voltages-over-one-current simulator and experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name, parents=[common])
        if name == "encode":
            sp.add_argument("--vgs", type=float, required=True)
            sp.add_argument("--vds", type=float, required=True)
        if name == "decode":
            sp.add_argument("--ids1", type=float, required=True)
            sp.add_argument("--ids2", type=float, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    field_names = {f.name for f in dataclasses.fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items()
                 if k in field_names and v is not None}
    extra = {k: v for k, v in vars(args).items() if k in ("vgs", "vds", "ids1", "ids2")}
    try:
        cfg = parse_config(args.config, overrides)
        return dispatch(args.command, cfg, **extra)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: config handling, experiment dispatch, CSV artifacts.

Configuration is a flat key=value namespace resolved in order: built-in
defaults, then a config file (``key = value`` lines, ``#`` comments), then
``AJSCC_<KEY>`` environment variables, then command-line flags.  Every CSV but
``field.csv`` (which starts with the field's metadata) starts with a ``#`` line
echoing the resolved configuration, so a run is reproducible from its output.

The subcommands are the keys of :data:`COMMANDS`.  Resolving only converts
each value to its type; a command checks the values it reads when it reads
them, and a fault names the key that set the value, with its owner's message.
"""

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .codec import (CodecConfig, build_levels, check_decodable, check_vds_range, decode_stream,
                    encode)
from .experiments import (
    BANDWIDTH_LIST, DELTA_AXIS, LAMBDA_LIST, NOISELESS_LEVEL_LIST, NOISELESS_VDS_AXIS,
    SNR_AXIS, SNR_SWEEP_DELTA, LinkConfig, axis_points, delta_points, float_list,
    noiseless_vds_grid, run_noiseless, sweep_delta, sweep_lambda, sweep_snr,
)
from .mosfet import MosfetParams
from .phenomenon import field_to_csv, generate_field

ENV_PREFIX = "AJSCC_"


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_LINK = LinkConfig()  # the library defaults, the one source of RunConfig's scalar defaults
# LinkConfig fields set by differently named keys; every other one has a key of its name
_LINK_KEYS = {"n_seeds": "seeds", "vgs_range": "vgs_lo/vgs_hi", "vds_range": "vds_lo/vds_hi"}


@contextlib.contextmanager
def _keyed(key: str | None = None):
    """Re-raise a library ValueError as ``invalid value for '<key>': <message>``, by default
    under the keys of the LinkConfig fields it names (none: unprefixed); ConfigError as is."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        keys = [key] if key else [_LINK_KEYS.get(f.name, f.name)
                                  for f in dataclasses.fields(LinkConfig)
                                  if re.search(rf"\b{f.name}\b", str(exc))]
        raise ConfigError(f"invalid value for '{'/'.join(keys)}': {exc}" if keys
                          else str(exc)) from None


@dataclass
class RunConfig:
    """Flat, fully-defaulted view of every experiment parameter.

    Defaults reproduce the reference operating point: the 0.18 um device,
    both source ranges (5, 10) V, 410 kHz bandwidth at -20 dB SNR, a
    20 x 20 x 20 field with 10-cell/10-instant correlation blocks, and 2 %
    Doppler.  Device, range, geometry, channel, Monte-Carlo and grid
    defaults are read from :class:`LinkConfig` and :mod:`ajscc.experiments`.
    """

    # device
    k_gain: float = _LINK.mosfet.k_gain
    v_th: float = _LINK.mosfet.v_th
    lam: float = _LINK.mosfet.lam
    # source ranges shared by codec and field generation
    vgs_lo: float = _LINK.vgs_range[0]
    vgs_hi: float = _LINK.vgs_range[1]
    vds_lo: float = _LINK.vds_range[0]
    vds_hi: float = _LINK.vds_range[1]
    delta: float | None = None  # set to pin the delta sweep to a single spacing
    # noiseless functional study
    noiseless_levels: str = NOISELESS_LEVEL_LIST
    noiseless_vds_start: float = NOISELESS_VDS_AXIS[0]
    noiseless_vds_step: float = NOISELESS_VDS_AXIS[1]
    noiseless_vds_count: int = NOISELESS_VDS_AXIS[2]
    # field geometry
    nx: int = _LINK.nx
    ny: int = _LINK.ny
    nt: int = _LINK.nt
    s_p: int = _LINK.s_p
    t_p: int = _LINK.t_p
    # channel
    bandwidth: float = _LINK.bandwidth
    snr_db: float = _LINK.snr_db
    doppler_fraction: float = _LINK.doppler_fraction
    rician_k_db: float = _LINK.rician_k_db
    n_samples: int = _LINK.n_samples
    oversample: float = _LINK.oversample
    fm_headroom: float = _LINK.fm_headroom
    # sweep grids
    delta_min: float = DELTA_AXIS[0]
    delta_max: float = DELTA_AXIS[1]
    delta_step: float = DELTA_AXIS[2]
    lambda_grid: str = LAMBDA_LIST
    snr_min: float = SNR_AXIS[0]
    snr_max: float = SNR_AXIS[1]
    snr_step: float = SNR_AXIS[2]
    bandwidths: str = BANDWIDTH_LIST
    # Monte-Carlo control
    seeds: int = _LINK.n_seeds
    seed: int = _LINK.seed
    workers: int = 0  # 0 means one worker per available processor
    # output
    outdir: str = "."

    def mosfet(self) -> MosfetParams:
        with _keyed("k_gain/v_th/lam"):
            p = MosfetParams(k_gain=self.k_gain, v_th=self.v_th, lam=self.lam)
        with _keyed("lam"):  # the decoder's one rule; a bad range keeps its own key
            check_decodable(p, self.vds_range())
        return p

    def vds_range(self) -> tuple[float, float]:
        with _keyed("vds_lo/vds_hi"):
            check_vds_range((self.vds_lo, self.vds_hi))
        return self.vds_lo, self.vds_hi

    def noiseless_level_list(self, p: MosfetParams) -> np.ndarray:
        """The gate levels; a finite one whose drain current on device ``p`` overflows
        at vds_hi fails (CodecConfig rejects the levels that are not finite)."""
        levels = np.array(_parse_float_list("noiseless_levels", self.noiseless_levels))
        # not drain_current: its vgs >= v_th and vds >= 0 checks would change what fails here
        with np.errstate(over="ignore", invalid="ignore"):  # reported here, by key
            top = 0.5 * p.k_gain * (levels - p.v_th) ** 2 * (1.0 + p.lam * self.vds_range()[1])
        if np.any(np.isfinite(levels) & ~np.isfinite(top)):
            raise ConfigError("invalid value for 'noiseless_levels': drain current overflow")
        return levels

    def lambda_list(self) -> list[float]:
        vals = _parse_float_list("lambda_grid", self.lambda_grid)
        # stated here: sweep_lambda, which owns the order, states it only in its run
        if not all(a < b for a, b in zip(vals, vals[1:])):
            raise ConfigError("invalid value for 'lambda_grid': need strictly ascending values")
        with _keyed("lambda_grid"):  # the decoder's rule, on the default device
            for lam in vals:
                check_decodable(MosfetParams(lam=lam), self.vds_range())
        return vals

    def noiseless_vds_grid(self) -> np.ndarray:
        return noiseless_vds_grid(self.noiseless_vds_start, self.noiseless_vds_step,
                                  self.noiseless_vds_count)

    def _axis(self, axis: str) -> tuple[float, float, float]:
        """``<axis>_min/_max/_step``, checked to be a valid sweep axis."""
        lo, hi, step = (getattr(self, f"{axis}_{end}") for end in ("min", "max", "step"))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"invalid value for '{axis}_min/{axis}_max': "
                              "need finite bounds with min <= max")
        if not 0 < step < math.inf:
            raise ConfigError(f"invalid value for '{axis}_step': must be positive and finite")
        return lo, hi, step

    def delta_grid(self) -> list[float]:
        keys, deltas = ((["delta"], [self.delta]) if self.delta is not None  # grid unread
                        else (["delta_min", "delta_max"], delta_points(*self._axis("delta"))))
        for key, d in zip(keys, (deltas[0], deltas[-1])):  # the finest and coarsest spacing
            with _keyed(key):
                build_levels((self.vgs_lo, self.vgs_hi), d)
        return deltas

    def bandwidth_list(self) -> list[float]:
        vals = _parse_float_list("bandwidths", self.bandwidths)
        for b in vals:  # stated here: ChannelConfig, which owns the rule, is built whole
            if not 0 < b < math.inf:
                raise ConfigError(f"invalid value for 'bandwidths': {b} is not positive "
                                  "and finite")
        return vals

    def link(self) -> LinkConfig:
        """The link sweeps' library config; a fault is keyed by the fields its message names."""
        kw = dict(mosfet=self.mosfet(), vds_range=self.vds_range(),  # each reports its keys
                  vgs_range=(self.vgs_lo, self.vgs_hi), n_seeds=self.seeds,
                  workers=self.workers or _usable_cpus())
        with _keyed():  # every other field is set by the key of its name
            return LinkConfig(**kw, **{f.name: getattr(self, f.name)
                                       for f in dataclasses.fields(LinkConfig) if f.name not in kw})

    def echo(self) -> str:
        items = dataclasses.asdict(self)
        items.pop("outdir")  # does not affect results; keeps reruns byte-identical
        return " ".join(f"{k}={items[k]}" for k in sorted(items))


def _usable_cpus() -> int:
    """Processors this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_float_list(key: str, text: str) -> list[float]:
    with _keyed(key):
        vals = list(float_list(text))
    if not vals:
        raise ConfigError(f"invalid value for '{key}': empty list")
    return vals


def _coerce(key: str, raw, field_type) -> object:
    """``raw`` converted to ``field_type``; ``float | None`` also takes none or empty.
    A list's items lose their surrounding whitespace, which would split the echo."""
    if isinstance(raw, str):
        raw = raw.strip()
        if key in ("noiseless_levels", "lambda_grid", "bandwidths"):
            raw = ",".join(item.strip() for item in raw.split(","))
    if field_type == float | None:
        if raw is None or str(raw).lower() in ("", "none"):
            return None
        field_type = float
    try:
        return field_type(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value for '{key}': {raw!r}") from None


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

    return RunConfig(**{f.name: _coerce(f.name, values[f.name], f.type)
                         for f in dataclasses.fields(RunConfig)})


@contextlib.contextmanager
def _atomic_path(path: str):
    """Yield a temporary path that replaces ``path`` only if the block succeeds.

    The directory is made here, when the artifact is written, so a run that
    fails before that leaves no output directory.  A failed write leaves
    neither a partial artifact nor the temporary file, and an earlier
    artifact at ``path`` stays as it was.
    """
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_csv(cfg: RunConfig, name: str, header: str, rows) -> None:
    """Write ``name`` in the output directory atomically: config echo line, header,
    rows of numbers (a flag as 1 or 0), each to 10 significant digits."""
    with _atomic_path(os.path.join(cfg.outdir, name)) as tmp:
        with open(tmp, "w") as fh:
            fh.write(f"# ajscc {cfg.echo()}\n")
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(f"{float(v):.10g}" for v in row) + "\n")


def _cmd_noiseless(cfg: RunConfig) -> int:
    p = cfg.mosfet()
    res = run_noiseless(p, levels=cfg.noiseless_level_list(p),
                        vds_grid=cfg.noiseless_vds_grid(), vds_range=cfg.vds_range())
    rows = zip(res.vgs_true, res.vds_true, res.vgs_hat, res.vds_hat, res.corrected)
    _write_csv(cfg, "noiseless.csv", "vgs_true,vds_true,vgs_hat,vds_hat,corrected", rows)
    print(f"accuracy={res.accuracy:.6g} accuracy_uncorrected={res.accuracy_pre:.6g} "
          f"mse_gs={res.mse_gs:.6g} mse_ds={res.mse_ds:.6g}")
    return 0


def _cmd_sweep_lambda(cfg: RunConfig) -> int:
    lambdas = cfg.lambda_list()
    p = dataclasses.replace(cfg, lam=lambdas[-1]).mosfet()  # levels checked at the top lam
    sw = sweep_lambda(lambdas, base=p, levels=cfg.noiseless_level_list(p),
                      vds_grid=cfg.noiseless_vds_grid(), vds_range=cfg.vds_range())
    rows = zip(sw.lambdas, sw.mse_pre, sw.mse_post, sw.accuracy_pre, sw.accuracy_post)
    _write_csv(cfg, "sweep_lambda.csv", "lambda,mse_pre,mse_post,accuracy_pre,accuracy_post", rows)
    print(f"lambda_points={len(sw.lambdas)} max_mse_pre={max(sw.mse_pre):.6g} "
          f"max_mse_post={max(sw.mse_post):.6g}")
    return 0


def _cmd_sweep_delta(cfg: RunConfig) -> int:
    link = cfg.link()  # before the spacing: a bad vgs_lo/vgs_hi keeps its own key
    with _keyed():  # the channel, built in the sweep, names its keys too
        sw = sweep_delta(cfg.delta_grid(), link)
    rows = ((d, r.mse_gs, r.mse_ds, r.mse_sum)
            for d, r in zip(sw.points, sw.reports))
    _write_csv(cfg, "sweep_delta.csv", "delta,mse_gs,mse_ds,mse_sum", rows)
    star = sw.reports[sw.metadata["argmin_index"]]
    # mse_sum is the mean of the two MSEs; the literal sum is echoed as well
    print(f"delta_star={sw.metadata['delta_star']:.6g} "
          f"mse_sum={star.mse_sum:.6g} mse_total={star.mse_gs + star.mse_ds:.6g}")
    return 0


def _cmd_sweep_snr(cfg: RunConfig) -> int:
    link = cfg.link()  # before the spacing: a bad vgs_lo/vgs_hi keeps its own key
    delta = SNR_SWEEP_DELTA if cfg.delta is None else cfg.delta_grid()[0]
    sw = sweep_snr(axis_points(*cfg._axis("snr")), cfg.bandwidth_list(), delta, link)
    rows = ((s, b, r.mse_sum) for (s, b), r in zip(sw.points, sw.reports))
    _write_csv(cfg, "sweep_snr.csv", "snr_db,bandwidth_hz,mse_sum", rows)
    best = min(r.mse_sum for r in sw.reports)
    worst = max(r.mse_sum for r in sw.reports)
    print(f"delta={delta:.6g} best_mse_sum={best:.6g} worst_mse_sum={worst:.6g}")
    return 0


def _cmd_gen_field(cfg: RunConfig) -> int:
    with _keyed():  # its geometry and seed faults name the keys, as LinkConfig's do
        field = generate_field(cfg.nx, cfg.ny, cfg.nt, cfg.s_p, cfg.t_p, *cfg.vds_range(),
                               seed=cfg.seed)
    path = os.path.join(cfg.outdir, "field.csv")
    with _atomic_path(path) as tmp:
        field_to_csv(field, tmp)
    print(f"field {cfg.nx}x{cfg.ny}x{cfg.nt} blocks={field.n_blocks} -> {path}")
    return 0


def _cmd_encode(cfg: RunConfig, vgs: float, vds: float) -> int:
    p = cfg.mosfet()
    codec = CodecConfig(cfg.noiseless_level_list(p), cfg.vds_range())
    ids = encode(p, codec, vgs, vds)
    print(f"{ids:.5g}")
    return 0


def _cmd_decode(cfg: RunConfig, ids1: float, ids2: float) -> int:
    for key, ids in (("ids1", ids1), ("ids2", ids2)):
        if not 0 < ids < math.inf:
            raise ConfigError(f"invalid value for '{key}': must be positive and finite")
    p = cfg.mosfet()
    codec = CodecConfig(cfg.noiseless_level_list(p), cfg.vds_range())
    vgs, vds, corrected, in_range = decode_stream(p, codec, [ids1, ids2])
    print(f"vgs_hat={vgs[0]:.6g} vds_hat_1={vds[0]:.6g} vds_hat_2={vds[1]:.6g} "
          f"corrected={int(corrected[0])} in_range={int(in_range[0])}")
    return 0


# command name -> (handler, the float arguments it takes after the config)
COMMANDS = {
    "noiseless": (_cmd_noiseless, ()),
    "sweep-lambda": (_cmd_sweep_lambda, ()),
    "sweep-delta": (_cmd_sweep_delta, ()),
    "sweep-snr": (_cmd_sweep_snr, ()),
    "gen-field": (_cmd_gen_field, ()),
    "encode": (_cmd_encode, ("vgs", "vds")),
    "decode": (_cmd_decode, ("ids1", "ids2")),
}


def dispatch(command: str, cfg: RunConfig, **extra) -> int:
    """Run ``command``; returns a process exit status."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    return COMMANDS[command][0](cfg, **extra)


@functools.cache  # once per process: building it is most of an in-process call's overhead
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
    for name, (_, extras) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common])
        for arg in extras:
            sp.add_argument(f"--{arg}", type=float, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)}
    extra = {k: getattr(args, k) for k in COMMANDS[args.command][1]}
    try:
        cfg = parse_config(args.config, overrides)
        return dispatch(args.command, cfg, **extra)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

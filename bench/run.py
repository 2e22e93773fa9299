"""Benchmark of the ajscc Monte-Carlo link simulator.

Usage (from the repository root):

    python3 bench/run.py --workload snr_grid --seed 1 --seconds 50 --trace 0

Workloads: delta_sweep and snr_grid, the two in BENCHMARK.json, and
link_free, which is run by hand (see bench/README.md for why each exists,
why link_free is not in BENCHMARK.json, and what every metric means).  The program is imported from
the checkout's own ``src/`` directory, never from an installed copy, and
is driven only through the public functions of its modules.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs a fixed amount of the workload once untraced and once under the span
tracer of ``bench/tracing.py`` and reports the per-layer metrics.  Either
way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
human-readable table and the run's environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

if not os.path.isfile(os.path.join(SRC, "ajscc", "__init__.py")):
    sys.exit(f"error: no ajscc sources under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import ajscc  # noqa: E402
import ajscc.cli as cli  # noqa: E402
import ajscc.experiments as experiments  # noqa: E402
import ajscc.phenomenon as phenomenon  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# Criterion-3 grid of the acceptance suite: 0.1 ... 1.25 V, 51 down to 5 levels.
DELTA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0, 1.25)
DELTA_REPLICATES = 1
# Reduced default sweep-snr: 2 of the 11 SNR points, all four bandwidths.
SNR_ARGS = ["--snr-min", "-40", "--snr-max", "-10", "--snr-step", "30"]
SNR_POINTS = (-40.0, -10.0)
SNR_BANDWIDTHS = (50e3, 200e3, 410e3, 500e3)  # the CLI default
SNR_REPLICATES = 2
SNR_WORKERS = 2
WARMUP_SEED = 20190701  # fixed, so the warm-up result is comparable across runs
SETUP_PROBES = 5
LINK_FREE_TRACE_CYCLES = 25  # one pass over the 25-point default delta grid
SMOKE_GEOMETRY = {"nx": 10, "ny": 10, "nt": 10, "s_p": 5, "t_p": 5, "n_samples": 512}


def derive_seed(*key: int) -> int:
    """Independent 32-bit seed for one unit of work."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


def n_blocks(nx, ny, nt, s_p, t_p) -> int:
    return -(-nx // s_p) * -(-ny // s_p) * -(-nt // t_p)


def report_ok(r, blocks: int) -> bool:
    """Invariants the test suite asserts on every MseReport."""
    return (math.isfinite(r.mse_gs) and math.isfinite(r.mse_ds)
            and r.mse_gs >= 0 and r.mse_ds >= 0
            and r.mse_sum == (r.mse_gs + r.mse_ds) / 2.0
            and r.n_blocks == blocks)


@dataclass
class Unit:
    """Outcome of one unit of work: a sweep, or one cycle of link_free ops."""

    wall: float = 0.0
    ops: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)
    mse_sums: list = field(default_factory=list)
    digest: str = ""
    csv_bytes: int = 0
    key: int = 0  # units with the same key repeat the same work on other inputs


def failed_unit(ops: int, wall: float) -> Unit:
    traceback.print_exc(file=sys.stderr)
    return Unit(wall=wall, ops=ops, failed=ops, latencies_ms=[1e3 * wall / ops])


class DeltaSweep:
    """experiments.sweep_delta over the criterion-3 grid, serial."""

    name = "delta_sweep"
    workers = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.geometry = SMOKE_GEOMETRY if smoke else {}
        self.grid = DELTA_GRID[3::6] if smoke else DELTA_GRID
        g = {**dict(nx=20, ny=20, nt=20, s_p=10, t_p=10), **self.geometry}
        self.blocks = n_blocks(g["nx"], g["ny"], g["nt"], g["s_p"], g["t_p"])

    def run(self, k: int, *, workers: int = 1, warmup: bool = False,
            tracer: Tracer | None = None) -> Unit:
        if tracer is not None:
            tracer.op_id += 1
        grid = (0.41,) if warmup else self.grid
        seed = WARMUP_SEED if warmup else derive_seed(self.seed, k)
        cfg = experiments.LinkConfig(n_seeds=DELTA_REPLICATES, seed=seed, workers=workers,
                                     **self.geometry)
        ops = len(grid) * DELTA_REPLICATES
        t0 = time.perf_counter()
        try:
            sw = experiments.sweep_delta(grid, cfg)
        except Exception:
            return failed_unit(ops, time.perf_counter() - t0)
        wall = time.perf_counter() - t0
        bad = [not report_ok(r, self.blocks) for r in sw.reports]
        sums = [r.mse_sum for r in sw.reports]
        best = int(np.argmin(sums))
        if (tuple(sw.points) != tuple(grid) or sw.metadata["argmin_index"] != best
                or sw.metadata["delta_star"] != grid[best]):
            bad = [True] * len(grid)
        return Unit(wall=wall, ops=ops, failed=sum(bad) * DELTA_REPLICATES,
                    latencies_ms=[1e3 * wall / ops], mse_sums=sums,
                    digest=digest([(r.mse_gs, r.mse_ds) for r in sw.reports]))


class SnrGrid:
    """The sweep-snr CLI, in-process, with its process pool."""

    name = "snr_grid"
    workers = SNR_WORKERS

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.extra = []
        for key, val in (SMOKE_GEOMETRY if smoke else {}).items():
            self.extra += [f"--{key.replace('_', '-')}", str(val)]

    def run(self, k: int, *, workers: int = SNR_WORKERS, warmup: bool = False,
            tracer: Tracer | None = None) -> Unit:
        if tracer is not None:
            tracer.op_id += 1
        if warmup:
            snrs, bws, reps, seed = (-10.0,), (410e3,), 1, WARMUP_SEED
            grid = ["--snr-min", "-10", "--snr-max", "-10", "--bandwidths", "410e3"]
        else:
            snrs, bws, reps = SNR_POINTS, SNR_BANDWIDTHS, SNR_REPLICATES
            seed, grid = derive_seed(self.seed, k), SNR_ARGS
        outdir = os.path.join(WORK, f"tmp-{os.getpid()}", f"snr-{k}-{workers}")
        argv = ["sweep-snr", *grid, "--seeds", str(reps), "--workers", str(workers),
                "--seed", str(seed), "--outdir", outdir, *self.extra]
        ops = len(snrs) * len(bws) * reps
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except Exception:
            return failed_unit(ops, time.perf_counter() - t0)
        wall = time.perf_counter() - t0
        path = os.path.join(outdir, "sweep_snr.csv")
        if rc != 0 or "best_mse_sum=" not in out.getvalue() or not os.path.isfile(path):
            return Unit(wall=wall, ops=ops, failed=ops, latencies_ms=[1e3 * wall / ops])
        with open(path) as fh:
            lines = fh.read().splitlines()
        echo = lines[0] if lines else ""
        echo_ok = echo.startswith("# ajscc ") and all(
            f" {kv}" in echo for kv in (f"seed={seed}", f"seeds={reps}", f"workers={workers}"))
        rows = [line.split(",") for line in lines[2:]]
        sums, bad_rows = [], len(snrs) * len(bws)
        if echo_ok and lines[1:2] == ["snr_db,bandwidth_hz,mse_sum"] and len(rows) == bad_rows:
            bad_rows = 0
            for i, s in enumerate(snrs):
                block = rows[i * len(bws):(i + 1) * len(bws)]
                try:
                    vals = [float(r[2]) for r in block]
                    ok = (all(float(r[0]) == s and float(r[1]) == b
                              for r, b in zip(block, bws))
                          and all(math.isfinite(v) and v >= 0 for v in vals)
                          # bandwidth cancels exactly: every bandwidth gives the same MSE
                          and len({r[2] for r in block}) == 1)
                except (ValueError, IndexError):
                    vals, ok = [], False
                sums += vals
                bad_rows += 0 if ok else len(bws)
        unit = Unit(wall=wall, ops=ops, failed=bad_rows * reps, latencies_ms=[1e3 * wall / ops],
                    mse_sums=sums, csv_bytes=os.path.getsize(path),
                    digest=hashlib.sha256("\n".join(lines[1:]).encode()).hexdigest()[:16])
        shutil.rmtree(outdir, ignore_errors=True)
        return unit


class LinkFree:
    """Codec, device and field paths with the channel bypassed.

    One unit is a cycle of four ops: a perfect-link point with even nt
    (array decode path), the same with odd nt (per-sensor decode_stream
    path), a noiseless lambda sweep, and a field CSV round trip.
    """

    name = "link_free"
    workers = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.offset = seed % len(experiments.DEFAULT_DELTA_GRID)
        self.path = os.path.join(WORK, f"tmp-{os.getpid()}", "field.csv")

    def _op(self, fn, unit: Unit) -> None:
        t0 = time.perf_counter()
        try:
            ok = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        dt = time.perf_counter() - t0
        unit.wall += dt
        unit.ops += 1
        unit.failed += 0 if ok else 1
        unit.latencies_ms.append(1e3 * dt)

    def run(self, k: int, *, workers: int = 1, warmup: bool = False,
            tracer: Tracer | None = None) -> Unit:
        seed = WARMUP_SEED if warmup else derive_seed(self.seed, k)
        grid = experiments.DEFAULT_DELTA_GRID
        unit, values = Unit(key=0 if warmup else (k + self.offset) % len(grid)), []
        delta = grid[unit.key]

        def link_point(nt):
            def op():
                cfg = experiments.LinkConfig(nt=nt, seed=seed)
                gs, ds = cfg.fields(0)
                r = experiments.run_link_point(cfg, gs, ds, delta, None, None)
                values.extend((r.mse_gs, r.mse_ds))
                unit.mse_sums.append(r.mse_sum)
                return report_ok(r, n_blocks(20, 20, nt, 10, 10))
            return op

        def noiseless():
            vds = np.sort(np.random.default_rng(seed).uniform(5.0, 10.0, 50))
            sw = experiments.sweep_lambda(vds_grid=vds)
            values.extend(sw.mse_post + sw.mse_pre)
            return (all(a == 1.0 for a in sw.accuracy_post)
                    and all(math.isfinite(v) and v >= 0 for v in sw.mse_post + sw.mse_pre))

        def csv_round_trip():
            f = phenomenon.generate_field(20, 20, 20, 10, 10, 5.0, 10.0, seed=seed)
            phenomenon.field_to_csv(f, self.path)
            g = phenomenon.field_from_csv(self.path)
            return (np.array_equal(f.values, g.values)
                    and (f.nx, f.ny, f.nt, f.s_p, f.t_p, f.lo, f.hi, f.seed)
                    == (g.nx, g.ny, g.nt, g.s_p, g.t_p, g.lo, g.hi, g.seed))

        for op in (link_point(20), link_point(21), noiseless, csv_round_trip):
            if tracer is not None:
                tracer.op_id += 1
            self._op(op, unit)
        unit.digest = digest(values)
        return unit


WORKLOADS = {w.name: w for w in (DeltaSweep, SnrGrid, LinkFree)}


def run_units(wl, seconds: float) -> list[Unit]:
    """Run units until ``seconds`` is used up.

    A new unit starts while it would end nearer the target than stopping
    now, so the measured time is within half a unit of ``seconds``.
    """
    units: list[Unit] = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start + units[-1].wall / 2 <= seconds:
        units.append(wl.run(len(units)))
    return units


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def setup_probe(workload: str, seed: int, smoke: bool) -> tuple[float, bool]:
    """Seconds from starting a fresh process to its first timed op."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--smoke"] if smoke else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    return elapsed, rc == 0 and line.strip() == "ready ok"


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child [MB]."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment(args) -> dict:
    model = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")), model)
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=10).stdout.strip()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "ajscc": ajscc.__version__, "commit": commit}


def measure(wl, args, warm: Unit) -> tuple[dict, int, int]:
    units = run_units(wl, args.seconds)
    rss = peak_rss_mb()  # before the set-up probes, whose children would count
    probes = [setup_probe(args.workload, args.seed, args.smoke) for _ in range(SETUP_PROBES)]
    ops = sum(u.ops for u in units)
    unit_failed = sum(u.failed for u in units)
    # Each distinct op recurs once per pass, on fresh inputs; its time is its
    # fastest pass.  On a shared 2-CPU host the speed drifts by up to 1.7x
    # over tens of seconds, which moves a run's medians far more than its
    # fastest passes.
    if wl.name == "link_free":
        # A distinct op is a (delta, op kind) pair: 100 of them.
        best: dict = {}
        for u in units:
            for i, x in enumerate(u.latencies_ms):
                best[u.key, i] = min(best.get((u.key, i), math.inf), x)
        lat = list(best.values())
        walls = [1e-3 * sum(best[key, i] for i in range(4)) for key in {u.key for u in units}]
        passes = len(units) / len(walls)
        wall_note = (f"median of {len(walls)} cycles of 4 ops, "
                     f"each op its fastest of {passes:.1f} passes")
        lat_note = f"n={len(lat)} distinct ops, each its fastest of {passes:.1f} passes"
        rate = (len(lat), sum(walls))
    else:
        # The one distinct op is the sweep: its link points run inside
        # experiments or a pool and cannot be timed singly from outside, so
        # both percentiles read the fastest sweep's wall per link point.
        fastest = min(units, key=lambda u: u.wall)
        lat = [1e3 * fastest.wall / fastest.ops]
        walls = [fastest.wall]
        wall_note = f"fastest of {len(units)} sweeps"
        lat_note = (f"n=1 distinct op: fastest of {len(units)} sweeps / "
                    f"{fastest.ops} link points")
        rate = (fastest.ops - fastest.failed, fastest.wall)
    metrics = {
        "setup_s": (statistics.median(t for t, _ in probes), "s",
                    f"median of {len(probes)} fresh processes"),
        "wall_s": (statistics.median(walls), "s", wall_note),
        "ops_per_s": (rate[0] / rate[1], "1/s", f"{rate[0]} ops in {rate[1]:.3f} s"),
        "op_p50_ms": (percentile(lat, 50), "ms", lat_note),
        "op_p90_ms": (percentile(lat, 90), "ms", lat_note),
        "peak_rss_mb": (rss, "MB", "getrusage self + largest child"),
    }
    print(f"digests warm-up {warm.digest} first-unit {units[0].digest}")
    attempted = warm.ops + ops + len(probes)
    failed = warm.failed + unit_failed + sum(not ok for _, ok in probes)
    return metrics, attempted, failed


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def trace(wl, args, warm: Unit) -> tuple[dict, int, int]:
    n = LINK_FREE_TRACE_CYCLES if wl.name == "link_free" else 1
    if args.smoke:
        n = min(n, 2)
    # Untraced and traced passes alternate unit by unit, so a slow stretch
    # of the host does not land on one side only.
    tracer = Tracer()
    untraced, serial, traced = [], [], []
    for k in range(n):
        untraced.append(wl.run(k))
        if wl.workers > 1:
            serial.append(wl.run(k, workers=1))
        with tracer.installed():
            traced.append(wl.run(k, workers=1, tracer=tracer))
    traced_wall = sum(u.wall for u in traced)
    untraced_wall = sum(u.wall for u in untraced)
    serial_wall = sum(u.wall for u in serial) if serial else untraced_wall

    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"trace-{wl.name}-seed{args.seed}.jsonl"))
    m, bases = layer_metrics(tracer)
    busy = tracer.busy()
    if wl.name == "link_free":
        pool, bases["experiments.pool_efficiency"] = 0.0, "no sweep, no pool"
    else:
        pool = busy["experiments.run_link_point"] / (wl.workers * untraced_wall)
        bases["experiments.pool_efficiency"] = (
            f"traced link-point busy {busy['experiments.run_link_point']:.3f} s / "
            f"({wl.workers} workers x untraced wall {untraced_wall:.3f} s)")
    sums = [x for u in traced for x in u.mse_sums]
    ref = {} if args.smoke else load_reference().get(wl.name, {})
    checks = [(warm.digest, ref.get("warmup"))]
    checks.append((traced[0].digest, ref.get("seeds", {}).get(str(args.seed))))
    checks = [(got, want) for got, want in checks if want is not None]
    same = sum(got == want for got, want in checks)
    m.update({
        "experiments.pool_efficiency": (pool, "fraction"),
        "experiments.mse_sum_mean": (statistics.fmean(sums) if sums else 0.0, "V2"),
        "experiments.bitexact_share": (same / len(checks) if checks else 0.0, "fraction"),
        "cli.csv_bytes": (sum(u.csv_bytes for u in traced), "B"),
        "trace.overhead_s": (traced_wall - serial_wall, "s"),
        "trace.wall_s": (traced_wall, "s"),
    })
    bases["experiments.mse_sum_mean"] = f"{len(sums)} results"
    bases["experiments.bitexact_share"] = f"{len(checks)} recorded results"
    bases["trace.overhead_s"] = f"traced {traced_wall:.3f} s - untraced serial {serial_wall:.3f} s"
    bases["trace.wall_s"] = (f"spans cover {tracer.top_level_busy() / traced_wall:.1%}; "
                             f"channel.simulate_link {busy['channel.simulate_link'] / traced_wall:.1%}")
    metrics = {k: (v, unit, bases.get(k, "")) for k, (v, unit) in m.items()}
    units = untraced + serial + traced
    attempted = warm.ops + sum(u.ops for u in units)
    failed = warm.failed + sum(u.failed for u in units)
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny fields and grids, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # The CLI layers AJSCC_* environment variables over its defaults; clear
    # them so the inputs depend on --seed alone.
    for key in [k for k in os.environ if k.startswith("AJSCC_")]:
        del os.environ[key]

    tmp = os.path.join(WORK, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.smoke)
        warm = wl.run(0, warmup=True)
        if args.setup_probe:
            print("ready ok" if warm.failed == 0 else "ready failed", flush=True)
            return 0
        if args.trace:
            metrics, attempted, failed = trace(wl, args, warm)
        else:
            metrics, attempted, failed = measure(wl, args, warm)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit:9s} {note}")
    print(f"  {'error_rate':38s} {failed / attempted:14.6g} {'fraction':9s} "
          f"{failed} failed / {attempted} attempted")
    print("env " + json.dumps(environment(args)))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

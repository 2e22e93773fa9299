"""Span tracing of ajscc from outside the package.

The tracer replaces public functions of the ajscc modules by timing
wrappers for the duration of a ``with tracer.installed():`` block and puts
the originals back afterwards.  A function is wrapped at every module
namespace it is looked up in (``experiments.simulate_link`` is the name
the experiments module calls, not ``channel.simulate_link``), so calls
between modules are caught without any hook inside the package.

Every call becomes a span (name, start, end, parent, op id) kept in
memory; :meth:`Tracer.write` dumps them as JSON lines at the end of a run.
Counters are taken at the same boundaries from each call's arguments and
results.  Only single-process runs are traced: spans recorded in pool
children would be lost.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import ajscc.channel as channel
import ajscc.cli as cli
import ajscc.codec as codec
import ajscc.experiments as experiments
import ajscc.phenomenon as phenomenon


def _count_simulate_link(tr, args, kwargs, out):
    ids, cfg = np.asarray(args[0], dtype=float), args[1]
    to_bin = cfg.fm_scale * cfg.n_samples / cfg.sample_rate
    k_true = np.rint(ids * to_bin)
    k_hat = np.rint(np.asarray(out) * to_bin)
    tr.counts["channel.peak_hits"] += int(np.count_nonzero(k_hat == k_true))


def _count_received_spectrum(tr, args, kwargs, out):
    freqs, cfg = np.atleast_1d(args[0]), args[1]
    symbols, n_bins = freqs.size, cfg.n_bins
    tr.counts["channel.chunks"] += 1
    tr.counts["channel.symbols"] += symbols
    tr.counts["channel.bins_searched"] += symbols * n_bins
    tr.counts["channel.spectrum_bytes_computed"] += symbols * n_bins * 8  # complex64
    if not math.isinf(cfg.snr_db):
        tr.counts["channel.noise_bytes_computed"] += symbols * 2 * n_bins * 4  # float32


def _count_decode_pairs(tr, args, kwargs, out):
    cfg = args[1]
    _, _, _, corrected, in_range = out
    tr.counts["codec.pairs"] += int(corrected.size)
    tr.counts["codec.candidates"] += int(corrected.size) * int(cfg.levels.size)
    tr.counts["codec.corrected"] += int(np.count_nonzero(corrected))
    tr.counts["codec.in_range"] += int(np.count_nonzero(in_range))


def _count_calls(key):
    def count(tr, args, kwargs, out):
        tr.counts[key] += 1
    return count


def _count_csv_bytes(path_arg):
    def count(tr, args, kwargs, out):
        tr.counts["phenomenon.csv_bytes"] += os.path.getsize(args[path_arg])
    return count


# (module, attribute, span name, counter hook).  A function that several
# modules import is listed once per namespace it is called through.
WRAPPED = [
    (experiments, "sweep_delta", "experiments.sweep", None),
    (cli, "sweep_snr", "experiments.sweep", None),
    (experiments, "run_link_point", "experiments.run_link_point", None),
    (experiments, "sweep_lambda", "experiments.sweep_lambda", None),
    (experiments, "run_noiseless", "experiments.run_noiseless", None),
    (cli, "main", "cli.main", None),
    (experiments, "simulate_link", "channel.simulate_link", _count_simulate_link),
    (channel, "received_spectrum", "channel.received_spectrum", _count_received_spectrum),
    (channel, "demodulate_spectrum", "channel.demodulate_spectrum", None),
    (experiments, "quantize", "codec.quantize", None),
    (experiments, "decode_pairs", "codec.decode_pairs", _count_decode_pairs),
    (codec, "decode_pairs", "codec.decode_pairs", _count_decode_pairs),
    (experiments, "decode_stream", "codec.decode_stream", None),
    (experiments, "drain_current", "mosfet.drain_current", _count_calls("mosfet.drain_current.calls")),
    (codec, "drain_current", "mosfet.drain_current", _count_calls("mosfet.drain_current.calls")),
    (experiments, "generate_field", "phenomenon.generate_field", None),
    (phenomenon, "generate_field", "phenomenon.generate_field", None),
    (experiments, "block_means", "phenomenon.block_means", _count_calls("phenomenon.block_means.calls")),
    (phenomenon, "field_to_csv", "phenomenon.csv", _count_csv_bytes(1)),
    (phenomenon, "field_from_csv", "phenomenon.csv", _count_csv_bytes(0)),
]


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1, op id)
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.op_id)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in WRAPPED; restore the originals on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPPED]
        try:
            for (mod, attr, name, hook), (_, _, fn) in zip(WRAPPED, saved):
                setattr(mod, attr, self._wrap(name, fn, hook))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def busy(self) -> dict[str, float]:
        """Summed span duration per name."""
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, _, _ in self.spans:
            out[name] += t1 - t0
        return out

    def self_time(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover, per name.

        Spans come from one thread and nest strictly, so the coverage of a
        span's children is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def top_level_busy(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def write(self, path: str) -> None:
        """Write all spans as JSON lines, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0 - base, "end": t1 - base,
                                     "parent": parent, "op": op}) + "\n")


def ratio(num: float, base: float) -> float:
    """num / base, or 0.0 when the base is empty (the base is always reported)."""
    return num / base if base else 0.0


def layer_metrics(tr: Tracer) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Per-layer metrics from the spans and counts of one traced run.

    Returns ({name: (value, unit)}, {name: base of a ratio}).  Run-level
    metrics (experiments.pool_efficiency, experiments.mse_sum_mean,
    experiments.bitexact_share, cli.csv_bytes, trace.*) are added by the
    caller, which knows the untraced wall time and the results.
    """
    busy, own, c = tr.busy(), tr.self_time(), tr.counts
    chunks, symbols, pairs = c["channel.chunks"], c["channel.symbols"], c["codec.pairs"]
    m = {
        "channel.simulate_link.busy_s": (busy["channel.simulate_link"], "s"),
        "channel.received_spectrum.busy_s": (busy["channel.received_spectrum"], "s"),
        "channel.demodulate_spectrum.busy_s": (busy["channel.demodulate_spectrum"], "s"),
        "channel.chunks": (chunks, "count"),
        "channel.symbols": (symbols, "count"),
        "channel.ms_per_chunk": (1e3 * ratio(busy["channel.simulate_link"], chunks), "ms"),
        "channel.bins_searched": (c["channel.bins_searched"], "count"),
        "channel.noise_bytes_computed": (c["channel.noise_bytes_computed"], "B"),
        "channel.spectrum_bytes_computed": (c["channel.spectrum_bytes_computed"], "B"),
        "channel.peak_hit_share": (ratio(c["channel.peak_hits"], symbols), "fraction"),
        "codec.quantize.busy_s": (busy["codec.quantize"], "s"),
        "codec.decode_pairs.busy_s": (busy["codec.decode_pairs"], "s"),
        "codec.decode_stream.busy_s": (busy["codec.decode_stream"], "s"),
        "codec.pairs": (pairs, "count"),
        "codec.candidates": (c["codec.candidates"], "count"),
        "codec.in_range_share": (ratio(c["codec.in_range"], pairs), "fraction"),
        "codec.corrected_share": (ratio(c["codec.corrected"], pairs), "fraction"),
        "mosfet.drain_current.calls": (c["mosfet.drain_current.calls"], "count"),
        "mosfet.drain_current.busy_s": (busy["mosfet.drain_current"], "s"),
        "phenomenon.generate_field.busy_s": (busy["phenomenon.generate_field"], "s"),
        "phenomenon.block_means.busy_s": (busy["phenomenon.block_means"], "s"),
        "phenomenon.block_means.calls": (c["phenomenon.block_means.calls"], "count"),
        "phenomenon.csv.busy_s": (busy["phenomenon.csv"], "s"),
        "phenomenon.csv_bytes": (c["phenomenon.csv_bytes"], "B"),
        "experiments.run_link_point.self_s": (own["experiments.run_link_point"], "s"),
        "experiments.sweep.self_s": (own["experiments.sweep"], "s"),
        "cli.main.self_s": (own["cli.main"], "s"),
    }
    bases = {
        "channel.ms_per_chunk": f"{chunks} chunks",
        "channel.peak_hit_share": f"{symbols} symbols",
        "codec.in_range_share": f"{pairs} pairs",
        "codec.corrected_share": f"{pairs} pairs",
    }
    return m, bases

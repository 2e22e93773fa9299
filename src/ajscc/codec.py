"""2:1 compression of two voltages into one drain current, and back.

Encoding quantizes the first reading to a discrete set of gate levels and
drives the transistor with (level, second reading), transmitting only the
resulting current.  Decoding takes two consecutive received currents that
are assumed to lie on one output curve and recovers the level by slope
matching: the slope implied by the currents themselves, lam * (i1 + i2) / 2,
is compared with each level's curve slope.  Candidates are tried in
ascending score order and the first whose implied drain voltages both fall
inside the transmitter's known vds interval wins; picking anything but the
score-minimal candidate is flagged as a correction.

A stream of currents is decoded in non-overlapping consecutive pairs
(0,1), (2,3), ...; an odd trailing sample is decoded through the extra
pair (n-2, n-1).  :func:`decode_stream` does this for a whole array of
streams in one :func:`decode_pairs` call and returns per-sample arrays.

Candidate search.  Each curve is a straight line in vds, so the two-point
slope (i2 - i1) / (v2 - v1) of the pair's implied drain voltages on a level
is its curve slope (:func:`curve_slope`) in exact arithmetic.  Scoring the
curve slope spares the cancellation of v2 - v1: currents a few ulps apart
decode like any other pair, not by rounding noise.  The slope never falls
with the level and IEEE subtraction is monotone, so the float score falls,
then rises along the levels, which gives a closed form:

* The pick is the better of the two levels whose slopes bracket the pair's
  (one searchsorted); the lower level wins a tie, as in the stable sort.
* The in-range levels form one run [A, B], as the float implied vds
  v = (i / base_L - 1) / lam falls with the level and rises with the
  current; A and B are estimated by searchsorted and confirmed in float.
  The in-range pick is the pick clipped to [A, B].
* Equal currents score inf at every level: level 0, or A in range.

The full computation scores every level and stays as the reference.  It
decodes the pairs whose run ends the estimate misses, those with a
non-positive or non-finite current, and those whose pick's score the next
lower level ties (levels a few ulps apart), which the stable sort would take.

Caveat on fine level spacing: two consecutive currents constrain the curve
only up to the family of levels whose implied vds stays in range.  If
adjacent levels are spaced closer than that ambiguity window, i.e.

    (1 + delta / (level - v_th))**2  <=  (1 + lam * vds_hi) / (1 + lam * vds_lo)

for some level, a noiseless pair can decode to a neighbouring level.  Equal
currents (each pair inside a block-constant field block, on a perfect
link) leave no slope to score: the pair takes the lowest level whose
implied vds is in range, below the level sent if that lies in the window.
The exact-recovery guarantees therefore hold only for configurations
whose spacing exceeds this window (all coarse-level setups here do).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mosfet import MosfetParams, curve_slope, drain_current

__all__ = [
    "RANGE_TOL",
    "CodecConfig",
    "build_levels",
    "quantize",
    "encode",
    "decode_pairs",
    "decode_stream",
]

# Tolerance on the vds_range boundaries so exact-endpoint decodes stay
# in range under floating-point round-off.
RANGE_TOL = 1e-6


def build_levels(vgs_range: tuple[float, float], delta: float) -> np.ndarray:
    """Uniform level set {lo, lo+delta, ...} up to the largest value <= hi.

    Raises ValueError unless the spacing is positive and finite and admits
    at least two levels, since the decoder needs two to discriminate.
    """
    lo, hi = float(vgs_range[0]), float(vgs_range[1])
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if hi < lo:
        raise ValueError(f"empty vgs_range {vgs_range}")
    n = int(np.floor((hi - lo) / delta * (1.0 + 1e-12) + 1e-12)) + 1
    if n < 2:
        raise ValueError(f"spacing {delta} over {vgs_range} yields {n} level(s); need at least 2")
    levels = lo + delta * np.arange(n)
    levels[-1] = min(levels[-1], hi)
    return levels


@dataclass(frozen=True)
class CodecConfig:
    """Level set and drain-voltage interval shared by transmitter and receiver.

    levels must be strictly ascending.  vds_range is the drain-voltage
    interval the transmitter guarantees, which the decoder uses for range
    checking.
    """

    levels: np.ndarray
    vds_range: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", np.asarray(self.levels, dtype=float))
        if self.levels.ndim != 1 or self.levels.size == 0:
            raise ValueError("levels must be a non-empty 1-d sequence")
        if self.levels.size > 1 and not np.all(np.diff(self.levels) > 0):
            raise ValueError("levels must be strictly ascending")
        if not self.vds_range[0] < self.vds_range[1]:
            raise ValueError(f"invalid vds_range {self.vds_range}")


def quantize(value, levels):
    """Nearest level to ``value``; exact ties break toward the lower level."""
    levels = np.asarray(levels, dtype=float)
    if levels.size == 0:
        raise ValueError("levels must be non-empty")
    value = np.asarray(value, dtype=float)
    idx = np.searchsorted(levels, value)
    lo = np.clip(idx - 1, 0, levels.size - 1)
    hi = np.clip(idx, 0, levels.size - 1)
    take_lo = np.abs(value - levels[lo]) <= np.abs(levels[hi] - value)
    out = np.where(take_lo, levels[lo], levels[hi])
    return float(out) if np.ndim(out) == 0 else out


def _check_levels_on(p: MosfetParams, cfg: CodecConfig) -> None:
    if cfg.levels[0] <= p.v_th:
        raise ValueError(f"levels must all exceed v_th={p.v_th} V")


def encode(p: MosfetParams, cfg: CodecConfig, vgs_raw, vds):
    """Encoded drain current for raw inputs (vgs_raw, vds).

    vds must lie inside cfg.vds_range; vgs_raw is snapped to the level set,
    so +-inf take the end levels.  NaN fails both checks.
    """
    _check_levels_on(p, cfg)
    vgs_raw, vds = np.asarray(vgs_raw, dtype=float), np.asarray(vds, dtype=float)
    lo, hi = cfg.vds_range
    if not np.all((vds >= lo - RANGE_TOL) & (vds <= hi + RANGE_TOL)):
        raise ValueError(f"vds outside configured range {cfg.vds_range}")
    if not np.all(vgs_raw >= -np.inf):
        raise ValueError("vgs_raw must not be NaN")
    return drain_current(p, quantize(vgs_raw, cfg.levels), vds)


def decode_pairs(p: MosfetParams, cfg: CodecConfig, ids1, ids2, range_check: bool = True):
    """Vectorized slope-matching decode of current pairs.

    Takes the pairs' first and second currents as equal-length 1-d arrays
    (or scalars) and returns (vgs_hat, vds_hat_1, vds_hat_2, corrected,
    in_range) arrays of that length.  Degenerate pairs (ids1 == ids2)
    leave no slope to score, so the range check alone selects the lowest
    level in range.  Non-positive currents are tolerated: their implied vds
    is far out of range.  Needs lam > 0: flat curves have no slope to match.

    The closed form (module docstring) gives bit for bit the result of
    scoring every level by its curve slope and stably sorting the scores
    (:func:`_decode_full`), which decodes the pairs it does not cover.
    """
    _check_levels_on(p, cfg)
    if not p.lam > 0:
        raise ValueError(f"decoding needs lam > 0, got {p.lam}")
    ids1 = np.atleast_1d(np.asarray(ids1, dtype=float))
    ids2 = np.atleast_1d(np.asarray(ids2, dtype=float))
    if ids1.shape != ids2.shape or ids1.ndim != 1:
        raise ValueError("ids1 and ids2 must be 1-d arrays of one length")

    lam, levels, n = p.lam, cfg.levels, cfg.levels.size
    base = 0.5 * p.k_gain * (levels - p.v_th) ** 2  # current at vds = 0, per level
    slope = np.concatenate(([np.nan], curve_slope(p, levels)))  # slope[L + 1] of level L
    rlo, rhi = cfg.vds_range[0] - RANGE_TOL, cfg.vds_range[1] + RANGE_TOL
    imin, imax = np.minimum(ids1, ids2), np.maximum(ids1, ids2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = lam * (ids1 + ids2) / 2.0

        def score(L):  # NaN below level 0, so it ties nothing
            return np.abs(slope.take(L + 1) - c)
        # levels j - 1 and j bracket c; equal currents take level 0
        j = np.minimum(np.searchsorted(slope[1:], c), n - 1)
        g = np.where(ids1 == ids2, 0, np.where(score(j) < score(j - 1), j, np.maximum(j - 1, 0)))
        # the in-range run [a, b], confirmed in float; base 0 and inf pin its ends
        a = np.searchsorted(base, imax / (1.0 + lam * rhi))
        b = np.searchsorted(base, imin / (1.0 + lam * rlo), "right") - 1
        bz = np.concatenate(([0.0], base, [np.inf])).take(np.array([a, a + 1, b + 1, b + 2]))
        vz = (np.array([imax, imin])[:, None] / bz.reshape(2, 2, -1) - 1.0) / lam
        run_ok = (vz[0, 0] > rhi) & (vz[0, 1] <= rhi) & (vz[1, 0] >= rlo) & (vz[1, 1] < rlo)
        r = np.where(a <= b, np.minimum(np.maximum(g, a), b), g)  # the in-range pick
        sel = r if range_check else g
        corrected, in_range = sel != g, (a <= b) & (sel == r)
        proven = run_ok & (imin > 0) & np.isfinite(c) \
            & (score(g - 1) != score(g)) & (score(sel - 1) != score(sel))
        bs = base.take(sel)
        out = [levels.take(sel), (ids1 / bs - 1.0) / lam, (ids2 / bs - 1.0) / lam,
               corrected, in_range]
    rows = ~proven
    if rows.any():
        for o, full in zip(out, _decode_full(p, cfg, ids1[rows], ids2[rows], range_check)):
            o[rows] = full
    return tuple(out)


def _decode_full(p: MosfetParams, cfg: CodecConfig, ids1: np.ndarray, ids2: np.ndarray,
                 range_check: bool):
    """:func:`decode_pairs` of 1-d current arrays by scoring every level: the
    reference, and the path of the pairs the closed form does not cover."""
    levels = cfg.levels
    base = 0.5 * p.k_gain * (levels - p.v_th) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v1 = (ids1[:, None] / base - 1.0) / p.lam
        v2 = (ids2[:, None] / base - 1.0) / p.lam
        score = np.abs(curve_slope(p, levels) - (p.lam * (ids1 + ids2) / 2.0)[:, None])
    degenerate = (ids2 == ids1)[:, None] | ~np.isfinite(score)
    score = np.where(degenerate, np.inf, score)
    # stable sort: ties (and the all-inf degenerate case) go to the lower level
    order = np.argsort(score, axis=1, kind="stable")

    rlo, rhi = cfg.vds_range
    ok = (v1 >= rlo - RANGE_TOL) & (v1 <= rhi + RANGE_TOL) \
        & (v2 >= rlo - RANGE_TOL) & (v2 <= rhi + RANGE_TOL)

    rows = np.arange(ids1.shape[0])
    if range_check:
        ok_sorted = np.take_along_axis(ok, order, axis=1)
        any_ok = ok_sorted.any(axis=1)
        pos = np.where(any_ok, np.argmax(ok_sorted, axis=1), 0)
        sel = np.take_along_axis(order, pos[:, None], axis=1)[:, 0]
        corrected = any_ok & (pos > 0)
        in_range = any_ok
    else:
        sel = order[:, 0]
        corrected = np.zeros(ids1.shape[0], dtype=bool)
        in_range = ok[rows, sel]

    return levels[sel], v1[rows, sel], v2[rows, sel], corrected, in_range


def decode_stream(p: MosfetParams, cfg: CodecConfig, ids, range_check: bool = True):
    """Decode current streams along the last axis as consecutive pairs.

    ``ids`` has shape ``(..., n)`` with ``n >= 2``.  Samples pair as (0,1),
    (2,3), ..., plus (n-2, n-1) for odd n, and all pairs are decoded in one
    :func:`decode_pairs` call.  Returns per-sample (vgs_hat, vds_hat,
    corrected, in_range) arrays of ``ids.shape``: each sample carries its
    pair's level and flags and its own vds estimate; an odd trailing sample
    takes the tail pair's level, flags and second vds estimate.
    """
    ids = np.asarray(ids, dtype=float)
    n = ids.shape[-1] if ids.ndim else 0
    if n < 2:
        raise ValueError(f"need at least 2 samples to decode, got {n}")
    first = np.arange(0, n - 1, 2)
    if n % 2:
        first = np.append(first, n - 2)
    out = decode_pairs(p, cfg, ids.take(first, axis=-1).ravel(),
                       ids.take(first + 1, axis=-1).ravel(), range_check=range_check)
    g, v1, v2, corrected, in_range = (a.reshape(*ids.shape[:-1], first.size) for a in out)
    # take(), not fancy indexing: the results must be C-ordered, because
    # block means sum in memory order and the MSEs would move in the last ulp
    pair = np.arange(n) // 2
    second = np.arange(n) % 2 == 1
    second[-1] = True
    vds_hat = np.where(second, v2.take(pair, axis=-1), v1.take(pair, axis=-1))
    return (g.take(pair, axis=-1), vds_hat,
            corrected.take(pair, axis=-1), in_range.take(pair, axis=-1))

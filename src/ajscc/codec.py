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
decode like any other pair, not by rounding noise.  The decode is defined by
stably sorting every level's score, but the slope never falls with the level
and IEEE subtraction is monotone, so the float score falls, then rises along
the levels, and one closed form gives that result for every input:

* The pick is the better of the two levels whose slopes bracket the pair's
  (one searchsorted), walked down while the next lower level ties its score.
  Flat pairs (equal currents or a non-finite implied slope) take level 0.
* The in-range levels form one run [A, B]: the float implied vds
  v = (i / base_L - 1) / lam of a positive current falls with the level, and
  a non-positive current is never in range, as vds_range lies above -1/lam.
  A and B are searchsorted estimates, stepped a level at a time until the
  range test confirms them on both sides.
* The in-range pick is the pick clipped to [A, B], walked down within it
  while the next lower level ties its score.

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
:func:`check_decodable` is the decoder's precondition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mosfet import MosfetParams, curve_slope, drain_current

__all__ = [
    "RANGE_TOL",
    "CodecConfig",
    "build_levels",
    "check_decodable",
    "check_vds_range",
    "quantize",
    "encode",
    "decode_pairs",
    "decode_stream",
]

# Tolerance on the vds_range boundaries so exact-endpoint decodes stay
# in range under floating-point round-off.
RANGE_TOL = 1e-6
_MAX_LEVELS = 2**20  # the most levels build_levels makes


def build_levels(vgs_range: tuple[float, float], delta: float) -> np.ndarray:
    """Uniform level set {lo, lo+delta, ...} up to the largest value <= hi.

    Raises ValueError unless the spacing is positive and finite and yields from
    two levels (the decoder needs two to discriminate) to 2**20, 8 MB of
    float64: the finest default spacing has 101, and without a cap a spacing
    such as 1e-9 V over (5, 10) V would allocate some 40 GB before anything
    else could reject it.
    """
    lo, hi = float(vgs_range[0]), float(vgs_range[1])
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if hi < lo:
        raise ValueError(f"empty vgs_range {vgs_range}")
    n = float(np.floor((hi - lo) / delta * (1.0 + 1e-12) + 1e-12)) + 1  # may be inf
    if not 2 <= n <= _MAX_LEVELS:
        raise ValueError(f"spacing {delta} over {vgs_range} yields {n:.7g} level(s); need at "
                         f"least 2 and at most {_MAX_LEVELS}")
    levels = lo + delta * np.arange(int(n))
    levels[-1] = min(levels[-1], hi)
    return levels


def _checked_levels(levels, empty: str = "levels must be a non-empty 1-d sequence") -> np.ndarray:
    """``levels`` as floats: non-empty (else ``empty``), 1-d, finite, strictly ascending."""
    try:
        levels = np.asarray(levels, dtype=float)
    except ValueError as exc:  # ragged nesting: numpy's message would not name the levels
        raise ValueError("levels must be a non-empty 1-d sequence") from exc
    if levels.size == 0:
        raise ValueError(empty)
    if levels.ndim != 1:
        raise ValueError("levels must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(levels)):
        raise ValueError(f"levels must be finite, got {levels}")
    if not np.all(np.diff(levels) > 0):
        raise ValueError("levels must be strictly ascending")
    return levels


def check_vds_range(vds_range: tuple[float, float]) -> None:
    """Raise ValueError unless ``vds_range`` is finite with 0 <= lo < hi (vds is never < 0)."""
    if not 0 <= vds_range[0] < vds_range[1] < np.inf:
        raise ValueError(f"vds_range must have finite lo < hi, lo >= 0, got {vds_range}")


@dataclass(frozen=True)
class CodecConfig:
    """Level set and drain-voltage interval shared by transmitter and receiver.

    levels must be finite and strictly ascending.  vds_range is the
    drain-voltage interval the transmitter guarantees (:func:`check_vds_range`),
    which the decoder uses for range checking.
    """

    levels: np.ndarray
    vds_range: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", _checked_levels(self.levels))
        check_vds_range(self.vds_range)


def quantize(value, levels):
    """Nearest level to ``value``; exact ties break toward the lower level and +-inf
    take the end levels.  Rejects a NaN value and levels :class:`CodecConfig` rejects."""
    levels = _checked_levels(levels, empty="levels must be non-empty")
    value = np.asarray(value, dtype=float)
    if np.isnan(value).any():
        raise ValueError("value must not be NaN")
    idx = np.searchsorted(levels, value)
    lo = np.clip(idx - 1, 0, levels.size - 1)
    hi = np.clip(idx, 0, levels.size - 1)
    take_lo = np.abs(value - levels[lo]) <= np.abs(levels[hi] - value)
    out = np.where(take_lo, levels[lo], levels[hi])
    return float(out) if np.ndim(out) == 0 else out


def check_decodable(p: MosfetParams, vds_range: tuple[float, float]) -> None:
    """Raise ValueError unless 1 + lam * vds differs at the ends of ``vds_range`` in float64
    (lam > 0: flat curves have no slope to match) and vds_range - RANGE_TOL lies above -1/lam."""
    if not 1.0 + p.lam * vds_range[0] < 1.0 + p.lam * vds_range[1]:
        raise ValueError(f"decoding needs lam > 0 to separate vds_range {vds_range}, got {p.lam}")
    if not vds_range[0] - RANGE_TOL > -1.0 / p.lam:
        raise ValueError(f"decoding needs vds_range above -1/lam = {-1.0 / p.lam}")


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
    in_range) arrays of that length.  Flat pairs (equal currents, or a
    non-finite implied slope) leave no slope to score: the range check alone
    selects the lowest level in range.  Non-positive and non-finite currents
    are tolerated: their implied vds is out of range.  Needs :func:`check_decodable`.

    For every input the closed form (module docstring) gives bit for bit the
    result of stably sorting every level's curve-slope score.
    """
    _check_levels_on(p, cfg)
    check_decodable(p, cfg.vds_range)
    lam, levels, n = p.lam, cfg.levels, cfg.levels.size
    rlo, rhi = cfg.vds_range[0] - RANGE_TOL, cfg.vds_range[1] + RANGE_TOL
    ids1, ids2 = (np.atleast_1d(np.asarray(i, dtype=float)) for i in (ids1, ids2))
    if ids1.shape != ids2.shape or ids1.ndim != 1:
        raise ValueError("ids1 and ids2 must be 1-d arrays of one length")

    base = drain_current(p, levels, 0.0)  # current at vds = 0, per level
    slope = np.concatenate(([np.nan], curve_slope(p, levels)))  # slope[L + 1] of level L
    imin, imax = np.minimum(ids1, ids2), np.maximum(ids1, ids2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = lam * (ids1 + ids2) / 2.0

        def vds(i, L):  # the implied drain voltage of current i on level L
            return (i / base.take(L, mode="clip") - 1.0) / lam

        def score(L, c):  # NaN below level 0, so it ties nothing
            return np.abs(slope.take(L + 1) - c)

        def tied(rows, L):  # the next lower level scores as L does
            return score(L - 1, c[rows]) == score(L, c[rows])

        def first(L, i, holds):  # L stepped to the first level in [0, n] where holds(i, level)
            return _settle(L, lambda rows, L: ((L < n) & ~holds(i[rows], L)).astype(np.intp)
                           - ((L > 0) & holds(i[rows], L - 1)))
        # levels j - 1 and j bracket c, and the lowest of tied levels wins; flat pairs take 0
        j = np.minimum(np.searchsorted(slope[1:], c), n - 1)
        g = np.where((ids1 == ids2) | ~np.isfinite(c), 0,
                     np.where(score(j, c) < score(j - 1, c), j, np.maximum(j - 1, 0)))
        g = _settle(g, lambda rows, L: 0 - tied(rows, L))
        # the in-range run [a, b]: searchsorted estimates, stepped to two monotone float tests
        a = first(np.searchsorted(base, imax / (1.0 + lam * rhi)), imax,
                  lambda i, L: vds(i, L) <= rhi)
        # count(base <= imin / (1 + lam * rlo)), which is 0 for NaN
        b = first(n - np.searchsorted(-base[::-1], imin / -(1.0 + lam * rlo)), imin,
                  lambda i, L: ~(vds(i, L) >= rlo)) - 1
        # the in-range pick: g clipped to the run, the lowest of tied levels inside it
        r = np.where(a <= b, np.minimum(np.maximum(g, a), b), g)
        r = _settle(r, lambda rows, L: 0 - ((L > a[rows]) & tied(rows, L)))
        sel = r if range_check else g
        return (levels.take(sel), vds(ids1, sel), vds(ids2, sel), sel != g,
                (a <= b) & (sel == r))


def _settle(L, move):
    """L with each entry moved by move(rows, L[rows]) (-1, 0 or +1) until none
    moves: one pass over every entry, then only over those that moved."""
    s = move(slice(None), L)
    rows = np.flatnonzero(s)
    while rows.size:
        L[rows] += s[s != 0]
        s = move(rows, L[rows])
        rows = rows[s != 0]
    return L


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

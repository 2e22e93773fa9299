"""2:1 compression of two voltages into one drain current, and back.

Encoding quantizes the first reading to a discrete set of gate levels and
drives the transistor with (level, second reading), transmitting only the
resulting current.  Decoding takes two consecutive received currents that
are assumed to lie on one output curve and recovers the level by slope
matching: the slope implied by the currents themselves, lam * (i1 + i2) / 2,
is compared with the two-point slope each candidate level would produce.
Candidates are tried in ascending score order and the first whose implied
drain voltages both fall inside the transmitter's known vds interval wins;
picking anything but the score-minimal candidate is flagged as a
correction.

A stream of currents is decoded in non-overlapping consecutive pairs
(0,1), (2,3), ...; an odd trailing sample is decoded through the extra
pair (n-2, n-1).  :func:`decode_stream` does this for a whole array of
streams in one :func:`decode_pairs` call and returns per-sample arrays.

Candidate search.  Only a few levels can win a pair.  With base_L the
current of level L at vds = 0, the implied vds is v = (i / base_L - 1) / lam,
and in exact arithmetic level L scores lam * |base_L - m|, m = (i1 + i2) / 2.
:func:`decode_pairs` evaluates the full computation's float formulas at a
few levels per pair and proves that no other level scores as low:

* The in-range levels form one run [A, B]: base never falls with the
  level, and IEEE division and subtraction are monotone, so the float v
  falls with the level and rises with the current.  A and B are estimated by searchsorted
  and confirmed in float at A - 1, A, B and B + 1.
* The two levels whose bases bracket m are scored, and the two next to m
  inside [A, B]; the lower level wins a tie, as in the stable sort.
* A pick is proven if its float score is below lam * gap * (1 - 8u) - err,
  u = 2^-53, gap the distance from m to the nearest unscored base (inside
  [A, B] for the in-range pick), err = 1.1 lam u ((t + 3) max(base) + 6 m)
  and t = (3 (i1 + i2) + 4 max(base)) / |i2 - i1|.  With every operation
  exact up to a factor 1 + e, |e| <= u, the float v2 - v1 is off by a
  relative R <= u t (1 + u)^2, the slope by (R + 3u) / ((1 - R)(1 - u)),
  lam m by 2u + u^2, and rounding m and gap costs lam u m, so every
  unscored level scores at least lam * gap * (1 - 2u) - err in float,
  above the threshold after its own rounding.  This needs R <= 2^-10 and
  no underflow or overflow, so only pairs with t <= 2^43 and currents,
  bases and lam in [2^-100, 2^100] are proven.
* Equal currents score inf at every level, so the pick is A if the pair
  has an in-range level and level 0 otherwise: a closed form.

Other pairs, such as non-positive or nearly equal currents, take the full
computation, which stays as the reference.

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

from .mosfet import MosfetParams, drain_current

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

# Unit roundoff of float64, and the limits inside which the candidate
# search's error bound holds (module docstring)
_U = 2.0 ** -53
_TINY = 2.0 ** -100
_MAX_CANCEL = 2.0 ** 43


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

    vds must lie inside cfg.vds_range; vgs_raw is snapped to the level set.
    """
    _check_levels_on(p, cfg)
    vds = np.asarray(vds, dtype=float)
    lo, hi = cfg.vds_range
    if np.any(vds < lo - RANGE_TOL) or np.any(vds > hi + RANGE_TOL):
        raise ValueError(f"vds outside configured range {cfg.vds_range}")
    return drain_current(p, quantize(vgs_raw, cfg.levels), vds)


def decode_pairs(p: MosfetParams, cfg: CodecConfig, ids1, ids2, range_check: bool = True):
    """Vectorized slope-matching decode of current pairs.

    Takes the pairs' first and second currents as equal-length 1-d arrays
    (or scalars) and returns (vgs_hat, vds_hat_1, vds_hat_2, corrected,
    in_range) arrays of that length.  Degenerate pairs (ids1 == ids2)
    leave the two-point slope undefined; their candidate order falls back to
    ascending levels so the range check alone selects the lowest level in
    range.  Non-positive currents are tolerated: their implied vds is far
    out of range and the pair resolves through the fallback path.  Needs
    lam > 0: with flat saturation curves there is no slope to match.

    The results are bit for bit those of scoring every level and stably
    sorting the scores (:func:`_decode_full`), which decodes the pairs the
    candidate search (module docstring) cannot prove.
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
    rlo, rhi = cfg.vds_range[0] - RANGE_TOL, cfg.vds_range[1] + RANGE_TOL
    imin, imax, total = np.minimum(ids1, ids2), np.maximum(ids1, ids2), ids1 + ids2
    m = total / 2.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # estimates of the in-range run [a, b] and of the level j of the mean current
        a, j = np.searchsorted(base, imax / (1.0 + lam * rhi)), np.searchsorted(base, m)
        b = np.searchsorted(base, imin / (1.0 + lam * rlo), "right") - 1
        # scored: [g_lo, g_hi] next to m and [r_lo, r_hi] next to m inside [a, b]; each
        # gap bounds |base[L] - m| from below over the levels L outside its window
        g_lo, g_hi = np.maximum(j - 1, 0), np.minimum(j, n - 1)
        r_lo, r_hi = np.minimum(np.maximum(j - 1, a), b), np.minimum(np.maximum(j, a), b)
        bp = np.concatenate(([-np.inf], base, [np.inf]))  # bp[L + 1] = base[L]
        gap = np.minimum(m - bp.take(np.array([g_lo, np.where(r_lo > a, r_lo, 0)])),
                         bp.take(np.array([g_hi + 2, np.where(r_hi < b, r_hi + 2, -1)])) - m)
        at = base.take(np.array([g_lo, g_hi, r_lo, r_hi]))
        v1, v2 = (ids1 / at - 1.0) / lam, (ids2 / at - 1.0) / lam
        score = np.abs((ids2 - ids1) / (v2 - v1) - lam * total / 2.0)  # NaN fails the proof
        t = (3.0 * total + 4.0 * base[-1]) / np.abs(ids2 - ids1)
        err = 1.1 * lam * _U * ((t + 3.0) * base[-1] + 6.0 * m)
        g_ok, r_ok = np.minimum(score[0::2], score[1::2]) < lam * (1.0 - 8 * _U) * gap - err
        # a and b confirmed in float; base 0 below level 0 and inf above the last pin the ends
        bz = np.concatenate(([0.0], base, [np.inf])).take(np.array([a, a + 1, b + 1, b + 2]))
        vz = (np.array([imax, imin])[:, None] / bz.reshape(2, 2, -1) - 1.0) / lam
        run_ok = (vz[0, 0] > rhi) & (vz[0, 1] <= rhi) & (vz[1, 0] >= rlo) & (vz[1, 1] < rlo)
        safe = (_TINY <= min(lam, base[0]) and max(lam, base[-1]) <= 1.0 / _TINY) \
            & (imin >= _TINY) & (imax <= 1.0 / _TINY) & (t <= _MAX_CANCEL)
        # ties go to the lower level, as in the stable sort; equal currents score inf
        # at every level, so they take level 0, or a in range
        equal = ids1 == ids2
        g = np.where(equal, 0, np.where(score[1] < score[0], g_hi, g_lo))
        r = np.where(equal, a, np.where(score[3] < score[2], r_hi, r_lo))
        g_ok, r_ok = equal | safe & g_ok, equal | safe & r_ok
        any_ok = a <= b
        g_in = any_ok & (a <= g) & (g <= b)
        if range_check:
            sel, corrected, in_range = np.where(any_ok, r, g), any_ok & ~g_in, any_ok
            proven = g_ok & (r_ok | ~any_ok)
        else:
            sel, corrected, in_range = g, np.zeros(ids1.shape, dtype=bool), g_in
            proven = g_ok
        proven &= run_ok & (imin > 0)

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
    reference, and the path of the pairs the candidate search cannot prove."""
    levels = cfg.levels
    base = 0.5 * p.k_gain * (levels - p.v_th) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        v1 = (ids1[:, None] / base - 1.0) / p.lam
        v2 = (ids2[:, None] / base - 1.0) / p.lam
        slope1 = p.lam * (ids1 + ids2) / 2.0
        slope2 = (ids2 - ids1)[:, None] / (v2 - v1)
        score = np.abs(slope2 - slope1[:, None])
    degenerate = (ids2 == ids1)[:, None] | ~np.isfinite(score)
    score = np.where(degenerate, np.inf, score)

    # Stable sort: equal scores (and the all-inf degenerate case) keep
    # ascending level order, so ties break toward the lower level.
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

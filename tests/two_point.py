"""Full-computation references of the pair decoder: every level scored, the scores stably sorted.

The library finds each pair's level in closed form (:func:`ajscc.codec.decode_pairs`).
This module keeps what that stands in for: every level scored against the
slope lam * (i1 + i2) / 2 the pair implies, the scores stably sorted, and the
first level in range taken.  :func:`decode_curve` scores each level by its
curve slope, as the library does, and the tests check the closed form
against it bit for bit.  :func:`decode_full` scores it by the two-point slope
(i2 - i1) / (v2 - v1) between the pair's implied drain voltages, which
equals the curve slope in exact arithmetic; the tests check that both decode
every pair of a wide input set alike.
"""

import numpy as np

from ajscc.codec import RANGE_TOL, CodecConfig
from ajscc.mosfet import MosfetParams, curve_slope


def decode_sorted(p: MosfetParams, cfg: CodecConfig, ids1: np.ndarray, ids2: np.ndarray,
                  range_check: bool, level_slope):
    """The (vgs_hat, vds_hat_1, vds_hat_2, corrected, in_range) of
    :func:`ajscc.codec.decode_pairs` for 1-d current arrays, each level scored
    by ``level_slope(v1, v2)``: the (pairs, levels) slope it gives each level
    from the pair's implied drain voltages on that level."""
    levels = cfg.levels
    base = 0.5 * p.k_gain * (levels - p.v_th) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v1 = (ids1[:, None] / base - 1.0) / p.lam
        v2 = (ids2[:, None] / base - 1.0) / p.lam
        score = np.abs(level_slope(v1, v2) - (p.lam * (ids1 + ids2) / 2.0)[:, None])
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


def decode_curve(p: MosfetParams, cfg: CodecConfig, ids1: np.ndarray, ids2: np.ndarray,
                 range_check: bool):
    """:func:`decode_sorted` with each level scored by its curve slope."""
    return decode_sorted(p, cfg, ids1, ids2, range_check,
                         lambda v1, v2: curve_slope(p, cfg.levels))


def decode_full(p: MosfetParams, cfg: CodecConfig, ids1: np.ndarray, ids2: np.ndarray,
                range_check: bool):
    """:func:`decode_sorted` with each level scored by its two-point slope."""
    return decode_sorted(p, cfg, ids1, ids2, range_check,
                         lambda v1, v2: (ids2 - ids1)[:, None] / (v2 - v1))

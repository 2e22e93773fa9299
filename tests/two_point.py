"""Two-point reference of the pair decoder: the slope between the implied drain voltages.

The library scores each level by its curve slope (:func:`ajscc.codec.decode_pairs`).
This module keeps the formula that stands in for: the slope implied by the
pair's two drain voltages on the level's curve, (i2 - i1) / (v2 - v1), which
equals the curve slope in exact arithmetic.  The tests check that both
decode every pair of a wide input set alike.
"""

import numpy as np

from ajscc.codec import RANGE_TOL, CodecConfig
from ajscc.mosfet import MosfetParams


def decode_full(p: MosfetParams, cfg: CodecConfig, ids1: np.ndarray, ids2: np.ndarray,
                range_check: bool):
    """The (vgs_hat, vds_hat_1, vds_hat_2, corrected, in_range) of
    :func:`ajscc.codec.decode_pairs` for 1-d current arrays, each level scored
    by its two-point slope and the scores stably sorted."""
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

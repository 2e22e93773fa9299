"""Level-1 nMOS saturation model with channel-length modulation.

For a gate drive above threshold the drain current is

    ids = 0.5 * k_gain * (vgs - v_th)**2 * (1 + lam * vds)

so each vgs defines a straight line in vds whose slope grows with vgs.
That per-curve slope is what the decoder exploits, and the exact algebraic
inverse in vds is what reconstructs the second source value.

All functions are pure, broadcast over numpy arrays, and return Python
floats for scalar inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MosfetParams",
    "drain_current",
    "invert_vds",
    "curve_slope",
    "in_saturation",
]


@dataclass(frozen=True)
class MosfetParams:
    """Device constants of the saturation-current equation.

    k_gain is the lumped transconductance factor W*mu*Cox/L [A/V^2],
    v_th the threshold voltage [V], and lam the channel-length-modulation
    parameter [1/V]; k_gain and lam must be finite.  Defaults are the
    0.18 um n-channel device used throughout the experiments.
    """

    k_gain: float = 155e-6
    v_th: float = 0.74
    lam: float = 0.037

    def __post_init__(self) -> None:
        if not self.k_gain > 0:
            raise ValueError(f"k_gain must be positive, got {self.k_gain}")
        if not self.v_th >= 0:  # written so that NaN fails too
            raise ValueError(f"v_th must be non-negative, got {self.v_th}")
        if not self.lam >= 0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        for name in ("k_gain", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def _ret(x: np.ndarray):
    """Return 0-d arrays as plain floats, everything else unchanged."""
    return float(x) if np.ndim(x) == 0 else x


def drain_current(p: MosfetParams, vgs, vds):
    """Drain current [A] at gate drive ``vgs`` and drain voltage ``vds``.

    Requires vgs >= v_th (device on) and vds >= 0.  Strictly increasing in
    both arguments when vgs > v_th and lam > 0.
    """
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    if np.any(vgs < p.v_th):
        raise ValueError(f"vgs below threshold {p.v_th} V: device off")
    if np.any(vds < 0):
        raise ValueError("vds must be non-negative")
    return _ret(0.5 * p.k_gain * (vgs - p.v_th) ** 2 * (1.0 + p.lam * vds))


def invert_vds(p: MosfetParams, vgs, ids):
    """Drain voltage [V] that produces current ``ids`` on the ``vgs`` curve.

    Exact algebraic inverse of :func:`drain_current`; the result may lie
    outside any physically meaningful range (callers interpret that via
    range checking).  Undefined for vgs <= v_th, ids <= 0, or lam == 0.
    """
    vgs = np.asarray(vgs, dtype=float)
    ids = np.asarray(ids, dtype=float)
    if p.lam == 0:
        raise ValueError("inverse undefined for lam == 0 (flat saturation)")
    if np.any(vgs <= p.v_th):
        raise ValueError(f"vgs must exceed threshold {p.v_th} V")
    if np.any(ids <= 0):
        raise ValueError("ids must be positive")
    base = 0.5 * p.k_gain * (vgs - p.v_th) ** 2
    return _ret((ids / base - 1.0) / p.lam)


def curve_slope(p: MosfetParams, vgs):
    """Slope d(ids)/d(vds) [A/V] of the output curve at gate drive ``vgs``.

    Independent of vds: each curve is a straight line in vds.
    """
    vgs = np.asarray(vgs, dtype=float)
    if np.any(vgs < p.v_th):
        raise ValueError(f"vgs below threshold {p.v_th} V: device off")
    return _ret(p.lam * 0.5 * p.k_gain * (vgs - p.v_th) ** 2)


def in_saturation(p: MosfetParams, vgs, vds):
    """Diagnostic: True where the operating point satisfies vds > vgs - v_th.

    The current equation is applied unconditionally elsewhere; this flag
    only reports whether the saturation assumption behind it holds.
    """
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    out = vds > (vgs - p.v_th)
    return bool(out) if np.ndim(out) == 0 else out

"""Int8 slot-plane reference of the explicit-bin sampler.

The library keeps only each symbol's explicitly drawn noise bins
(:func:`ajscc.channel._subset`, Floyd's algorithm with each pick checked
against the earlier picks) and reads runs of consecutive bins, finding an
explicit bin by its offset from the run's first bin.  This module keeps a
plain form with a plane: Floyd's algorithm over a ``(b, n)`` int8 plane
holding 1 + each bin's column in the subset (0 if none), and the unit-noise
lookup that reads the column from it at any bins.  The tests require the
library's sampler to equal it exactly.
"""

import numpy as np

import ajscc.channel as channel


def subset(keys, n, m):
    """A uniform m-subset of the 0-based bins 0..n-1 per key (Floyd's
    algorithm), (len(keys), m), and its (len(keys), n) int8 slot plane."""
    picks = channel._uniform(keys, channel._SUBSET, np.arange(m)[:, None])
    picks = (picks * np.arange(n - m + 1, n + 1)[:, None]).astype(np.intp)
    rows = np.arange(keys.size)
    slot = np.zeros((keys.size, n), dtype=np.int8)
    out = np.empty((keys.size, m), dtype=np.intp)
    for k in range(m):  # picks[k] is uniform on 0..n-m+k
        pick = np.where(slot[rows, picks[k]], n - m + k, picks[k])
        slot[rows, pick] = k + 1
        out[:, k] = pick
    return out, slot


def unit_noise(noise, n_bins, bins, rows=None):
    """Unit noise planes (real, imaginary) of ``noise`` (drawn at ``n_bins``
    bins) at 1-based ``bins`` of ``rows``, each explicit value found by the
    slot plane."""
    rows = np.arange(noise.keys.size) if rows is None else rows
    _, slot = subset(noise.keys, n_bins, min(channel._TOP_NOISE + 1, n_bins))
    bits = channel._bits(noise.keys[rows], channel._FAR, bins.T).T
    shrunk = channel._uniform24(bits, 40) * noise.shrink[rows, None]
    radius = np.sqrt(np.float32(-2.0) * np.log1p(shrunk))
    angle = np.float32(2.0 * np.pi) * channel._uniform24(bits, 0)
    re, im = radius * np.cos(angle), radius * np.sin(angle)
    slot = slot[rows[:, None], bins - 1]
    r, c = np.nonzero(slot)
    top = slot[r, c] - 1
    re[r, c] = noise.top_re[top, rows[r]]
    im[r, c] = noise.top_im[top, rows[r]]
    return re, im

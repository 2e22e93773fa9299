"""Block-correlated ground-truth fields for the sensed voltages.

A field is an nx x ny grid of sensors observed at nt time instants.  The
phenomenon is correlated over s_p x s_p spatial blocks and t_p-instant time
windows; inside each (space block x time block) the value is constant,
drawn i.i.d. uniform on [lo, hi].  Block boundaries align with the grid
origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Field", "check_geometry", "check_seed", "generate_field", "block_means",
           "field_to_csv", "field_from_csv"]


@dataclass(frozen=True)
class Field:
    """A sampled field, checked when built: its geometry, finite lo < hi, and
    values of shape (nx, ny, nt), all within [lo, hi]."""

    nx: int
    ny: int
    nt: int
    s_p: int  # spatial correlation block side [cells]
    t_p: int  # temporal correlation window [instants]
    lo: float
    hi: float
    seed: int
    values: np.ndarray  # (nx, ny, nt) voltages

    def __post_init__(self) -> None:
        check_geometry(self.nx, self.ny, self.nt, self.s_p, self.t_p)
        _check_bounds(self.lo, self.hi)
        if self.values.shape != (self.nx, self.ny, self.nt):
            raise ValueError(
                f"values shape {self.values.shape} != {(self.nx, self.ny, self.nt)}"
            )
        if not np.all((self.values >= self.lo) & (self.values <= self.hi)):  # NaN fails
            raise ValueError(f"values must lie within [lo, hi] = [{self.lo}, {self.hi}]")

    @property
    def n_blocks(self) -> int:
        return (
            -(-self.nx // self.s_p) * (-(-self.ny // self.s_p)) * (-(-self.nt // self.t_p))
        )


def check_geometry(nx: int, ny: int, nt: int, s_p: int, t_p: int) -> None:
    """Raise ValueError unless the grid and its blocks are integer sizes >= 1 that fit."""
    for name, dim in (("nx", nx), ("ny", ny), ("nt", nt), ("s_p", s_p), ("t_p", t_p)):
        if not isinstance(dim, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {dim!r}")
        if dim < 1:
            raise ValueError(f"{name} must be >= 1, got {dim}")
    if s_p > nx or s_p > ny:
        raise ValueError(f"s_p={s_p} exceeds grid {nx}x{ny}")
    if t_p > nt:
        raise ValueError(f"t_p={t_p} exceeds nt={nt}")


def check_seed(seed, *, tuples: bool = True) -> None:
    """Raise ValueError unless ``seed`` is an integer >= 0 or, with ``tuples``, a
    non-empty tuple of them: the entropy every draw of the package is keyed by."""
    items = seed if tuples and isinstance(seed, tuple) else (seed,)
    if not items or not all(isinstance(s, (int, np.integer)) and s >= 0 for s in items):
        kind = "an integer >= 0" + (" or a non-empty tuple of them" if tuples else "")
        raise ValueError(f"seed must be {kind}, got {seed!r}")


def _check_bounds(lo: float, hi: float) -> None:
    if not -np.inf < lo < hi < np.inf:  # written so that NaN fails too
        raise ValueError(f"need finite lo < hi, got ({lo}, {hi})")


def generate_field(nx: int, ny: int, nt: int, s_p: int, t_p: int,
                   lo: float, hi: float, seed: int) -> Field:
    """Draw a block-constant random field; deterministic per ``seed``, an
    integer >= 0 (a ValueError names any other seed)."""
    check_geometry(nx, ny, nt, s_p, t_p)
    _check_bounds(lo, hi)  # before the draw, which would turn bad bounds into NaN
    check_seed(seed, tuples=False)  # Field.seed and its CSV line hold one integer

    bx, by, bt = -(-nx // s_p), -(-ny // s_p), -(-nt // t_p)
    rng = np.random.default_rng(seed)
    blocks = lo + (hi - lo) * rng.random((bx, by, bt))
    values = blocks.repeat(s_p, axis=0).repeat(s_p, axis=1).repeat(t_p, axis=2)
    values = values[:nx, :ny, :nt]
    return Field(nx, ny, nt, s_p, t_p, float(lo), float(hi), int(seed), values)


def block_means(values: np.ndarray, s_p: int, t_p: int) -> np.ndarray:
    """Mean over each (s_p x s_p x t_p) block; edge blocks may be partial."""
    nx, ny, nt = values.shape
    bx, by, bt = -(-nx // s_p), -(-ny // s_p), -(-nt // t_p)
    out = np.empty((bx, by, bt))
    for i in range(bx):
        for j in range(by):
            for k in range(bt):
                out[i, j, k] = values[
                    i * s_p:(i + 1) * s_p, j * s_p:(j + 1) * s_p, k * t_p:(k + 1) * t_p
                ].mean()
    return out


def field_to_csv(field: Field, path) -> None:
    """Write the field as rows (x, y, t, value) with a metadata comment line."""
    with open(path, "w") as fh:
        fh.write(
            f"# nx={field.nx} ny={field.ny} nt={field.nt} s_p={field.s_p} "
            f"t_p={field.t_p} lo={float(field.lo)!r} hi={float(field.hi)!r} "
            f"seed={field.seed}\n"
        )
        fh.write("x,y,t,value\n")
        for x in range(field.nx):
            for y in range(field.ny):
                for t in range(field.nt):
                    fh.write(f"{x},{y},{t},{float(field.values[x, y, t])!r}\n")


def field_from_csv(path) -> Field:
    """Read a field written by :func:`field_to_csv`.

    Every grid cell must appear exactly once; a malformed row, a row
    outside the grid or a repeated cell is rejected with its line number,
    as is a metadata line with a missing or malformed key or a geometry
    :func:`check_geometry` rejects; any other violation of :class:`Field`'s
    checks is reported with the path.
    """
    with open(path) as fh:
        meta_line = fh.readline()
        if not meta_line.startswith("#"):
            raise ValueError(f"{path}: missing metadata line")
        tokens = meta_line[1:].split()
        stray = [kv for kv in tokens if "=" not in kv]
        if stray:
            raise ValueError(f"{path}:1: metadata token {stray[0]!r} is not key=value")
        meta = dict(kv.split("=", 1) for kv in tokens)
        try:
            nx, ny, nt, s_p, t_p, seed = (int(meta[k])
                                          for k in ("nx", "ny", "nt", "s_p", "t_p", "seed"))
            lo, hi = float(meta["lo"]), float(meta["hi"])
            check_geometry(nx, ny, nt, s_p, t_p)
        except KeyError as exc:
            raise ValueError(f"{path}:1: missing metadata key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}:1: bad metadata: {exc}") from None
        header = fh.readline().strip()
        if header != "x,y,t,value":
            raise ValueError(f"{path}: unexpected header {header!r}")
        values = np.empty((nx, ny, nt))
        filled = np.zeros((nx, ny, nt), dtype=bool)
        for lineno, line in enumerate(fh, 3):
            fields = line.strip().split(",")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields x,y,t,value, "
                                 f"got {len(fields)}")
            try:
                cell = (int(fields[0]), int(fields[1]), int(fields[2]))
                value = float(fields[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not (0 <= cell[0] < nx and 0 <= cell[1] < ny and 0 <= cell[2] < nt):
                raise ValueError(f"{path}:{lineno}: cell {cell} outside the "
                                 f"{nx}x{ny}x{nt} grid")
            if filled[cell]:
                raise ValueError(f"{path}:{lineno}: duplicate cell {cell}")
            filled[cell] = True
            values[cell] = value
        seen = int(np.count_nonzero(filled))
        if seen != nx * ny * nt:
            raise ValueError(f"{path}: expected {nx * ny * nt} rows, got {seen}")
    try:
        return Field(nx, ny, nt, s_p, t_p, lo, hi, seed, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

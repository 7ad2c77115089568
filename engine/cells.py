"""H3/S2-analogue integer cell index (north-rule operator).

A quadtree-style quantized grid over a square world of side 2**17 m (power of
two, so every cell size is a dyadic rational and coordinate/cell arithmetic is
exact).  Cell ids pack (resolution, ix, iy) into one int64:

    cell = (res << 52) | (ix << 26) | iy          (ix, iy < 2**26, res <= 26)

API mirrors what H3 offers and what the reference needs implicitly for
blocking (the reference's KDTree/faiss search — /root/reference/blocking.py:106-118 —
is replaced at scale by a cell-partitioned shuffle): ``cell_of``, ``ring``,
``disk``, ``cover_bbox``.  Expressible 1:1 in SQL for oracle checks.
"""

from __future__ import annotations

import numpy as np

WORLD_SIZE = 131072.0  # 2**17 m
_RES_SHIFT = 52
_IX_SHIFT = 26
_MASK = (1 << 26) - 1


def cell_size(res: int) -> float:
    return WORLD_SIZE / (1 << res)


def encode(res: int, ix, iy):
    """Pack (res, ix, iy) -> int64 cell id (vectorized).  An index outside
    [0, 2**res) would overwrite the other fields: ``ValueError``."""
    ix, iy = np.asarray(ix, dtype=np.int64), np.asarray(iy, dtype=np.int64)
    if ((ix < 0) | (iy < 0) | (ix >> res > 0) | (iy >> res > 0)).any():
        raise ValueError(f"cell index outside [0, 2**{res}) at res {res}")
    return (np.int64(res) << _RES_SHIFT) | (ix << _IX_SHIFT) | iy


def decode(cell):
    cell = np.asarray(cell, dtype=np.int64)
    res = cell >> _RES_SHIFT
    ix = (cell >> _IX_SHIFT) & _MASK
    iy = cell & _MASK
    return res, ix, iy


def cell_of(x, y, res: int):
    """Cell containing point(s) (x, y) at resolution ``res`` (vectorized)."""
    cs = cell_size(res)
    ix = np.floor(np.asarray(x, dtype=np.float64) / cs).astype(np.int64)
    iy = np.floor(np.asarray(y, dtype=np.float64) / cs).astype(np.int64)
    return encode(res, ix, iy)


def disk(cell: int, k: int) -> np.ndarray:
    """All cells within Chebyshev distance k (the H3 'grid_disk' analogue),
    including the center.  Clipped to the world."""
    res, ix, iy = decode(cell)
    res, ix, iy = int(res), int(ix), int(iy)
    n = 1 << int(res)
    xs = np.arange(max(0, ix - k), min(n, ix + k + 1), dtype=np.int64)
    ys = np.arange(max(0, iy - k), min(n, iy + k + 1), dtype=np.int64)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return encode(res, gx.ravel(), gy.ravel())


def ring(cell: int, k: int) -> np.ndarray:
    """Cells at exactly Chebyshev distance k (H3 'grid_ring' analogue)."""
    if k == 0:
        return np.asarray([cell], dtype=np.int64)
    res, ix, iy = decode(cell)
    res, ix, iy = int(res), int(ix), int(iy)
    n = 1 << res
    out = []
    for dx in range(-k, k + 1):
        for dy in range(-k, k + 1):
            if max(abs(dx), abs(dy)) != k:
                continue
            x, y = ix + dx, iy + dy
            if 0 <= x < n and 0 <= y < n:
                out.append((x, y))
    if not out:
        return np.empty(0, dtype=np.int64)
    arr = np.asarray(out, dtype=np.int64)
    return encode(res, arr[:, 0], arr[:, 1])


def cover_bbox(xmin, ymin, xmax, ymax, res: int):
    """All cells intersecting the closed bbox — the raster side of the
    raster<->vector tiling operator.  Vectorized over one bbox."""
    cs = cell_size(res)
    ix0 = int(np.floor(xmin / cs))
    ix1 = int(np.floor(xmax / cs))
    iy0 = int(np.floor(ymin / cs))
    iy1 = int(np.floor(ymax / cs))
    xs = np.arange(ix0, ix1 + 1, dtype=np.int64)
    ys = np.arange(iy0, iy1 + 1, dtype=np.int64)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return encode(res, gx.ravel(), gy.ravel())


def parent(cell, parent_res: int):
    """Ancestor cell at a coarser resolution (H3 'cell_to_parent'
    analogue; vectorized).  Pure bit arithmetic on the packed id — exact,
    and 1:1 expressible in SQL (ix >> s == ix // 2^s for ix >= 0)."""
    res, ix, iy = decode(cell)
    shift = res - np.int64(parent_res)
    if np.any(shift < 0):
        raise ValueError("parent_res coarser than cell res required")
    return encode(parent_res, ix >> shift, iy >> shift)


def children(cell: int) -> np.ndarray:
    """The four child cells one resolution finer (quadtree split; H3
    'cell_to_children' analogue)."""
    res, ix, iy = decode(cell)
    res, ix, iy = int(res) + 1, int(ix) << 1, int(iy) << 1
    gx, gy = np.meshgrid([ix, ix + 1], [iy, iy + 1], indexing="ij")
    return encode(res, gx.ravel(), gy.ravel())

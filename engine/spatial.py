"""North-rule spatial operators: raster<->vector tiling, point-in-polygon
join, and an exact kNN join over a broadcast index side.

The reference only needs these implicitly (its blocking is a KDTree / faiss
search over feature vectors — /root/reference/blocking.py:62-118); our engine
promotes them to first-class distributed operators over the cell grid
(engine.cells), which is the partitioning scheme that replaces a global
spatial index at 10^12-document scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from engine import cells, gates, storage
from engine.blocking import centroid_knn, centroid_side
from engine.joins import SIDE, shuffle_groups


# ---------------------------------------------------------------------------
# Tiling: object footprint -> covering cell set (raster side of raster<->vector)
# ---------------------------------------------------------------------------

def _batch_cover(ex0, ey0, ex1, ey1, cs):
    """Vectorized bbox -> covering cell-index explode shared by
    tiles_dataset / tile_stats / range_join: returns (row_idx, ix, iy) with
    one output row per (input row, covered cell)."""
    ix0 = np.floor(ex0 / cs).astype(np.int64)
    ix1 = np.floor(ex1 / cs).astype(np.int64)
    iy0 = np.floor(ey0 / cs).astype(np.int64)
    iy1 = np.floor(ey1 / cs).astype(np.int64)
    nx, ny = ix1 - ix0 + 1, iy1 - iy0 + 1
    counts = nx * ny
    row = np.repeat(np.arange(len(ex0)), counts)
    local = np.concatenate([np.arange(c) for c in counts]) \
        if len(counts) else np.empty(0, dtype=np.int64)
    ix = ix0[row] + local // ny[row]
    iy = iy0[row] + local % ny[row]
    return row, ix, iy


def tiles_dataset(props: ray.data.Dataset, res: int = 11) -> ray.data.Dataset:
    """(doc_id, x0, y0, bounding_box_width/length) -> (doc_id, cell) rows.

    Fully vectorized bbox cover per batch: a flat_map expressed as one
    map_batches (np.repeat expansion), then downstream cell shuffles
    co-partition by tile.  Output = the 'tile assignment table' of FIXTURES §5.
    """
    cs = cells.cell_size(res)

    def cover(batch: pa.Table) -> pa.Table:
        x0 = batch.column("x0").to_numpy()
        y0 = batch.column("y0").to_numpy()
        w = batch.column("bounding_box_width").to_numpy()
        l = batch.column("bounding_box_length").to_numpy()
        row_idx, ix, iy = _batch_cover(x0, y0, x0 + w, y0 + l, cs)
        doc_ids = np.asarray(batch.column("doc_id").to_pylist(),
                             dtype=object)[row_idx]
        cell = cells.encode(res, ix, iy)
        return pa.table({
            "doc_id": pa.array(doc_ids.tolist(), type=pa.string()),
            "cell": pa.array(cell, type=pa.int64()),
        })

    return props.map_batches(cover, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Point-in-polygon join (cell co-partition + exact ray-crossing refinement)
# ---------------------------------------------------------------------------

def pip_join(points: ray.data.Dataset, polygons: ray.data.Dataset,
             res: int = 11) -> ray.data.Dataset:
    """Join (p_id, px, py) to (doc_id, poly:list<double> [x1,y1,x2,y2,...])
    where the point is strictly inside the polygon.

    Physical plan: polygons replicate to every covering cell (vectorized
    bbox cover over the Arrow list offsets), points map to their containing
    cell, and the two sides co-partition on the cell (``shuffle_groups``).
    Grouping by raw cell was the r04 geo_pip regression: ~10^5 occupied
    cells meant ~10^5 per-group pandas invocations (23 s CPU for ~1.4 s of
    useful PIP math).  Per call the exact ray-crossing
    refinement pairs each polygon replica with its cell's points via two
    searchsorted probes into the call's cell-sorted point arrays — a
    point lives in exactly one cell and a polygon covers each cell once,
    so no pair is tested twice.  No global index.
    """
    import pyarrow.compute as pc
    from engine.geometry import points_in_polygon

    cs = cells.cell_size(res)

    def poly_cells(batch: pa.Table) -> pa.Table:
        arr = batch.column("poly")
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        flat = arr.values.to_numpy(zero_copy_only=False)
        offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        # coordinates come in (x, y) pairs, so every list length — and
        # therefore every offset — is even: global even/odd striding is the
        # per-vertex x/y split.
        xs, ys = flat[0::2], flat[1::2]
        starts = offs[:-1] // 2
        if len(starts):
            xmin = np.minimum.reduceat(xs, starts)
            xmax = np.maximum.reduceat(xs, starts)
            ymin = np.minimum.reduceat(ys, starts)
            ymax = np.maximum.reduceat(ys, starts)
        else:
            xmin = xmax = ymin = ymax = np.empty(0, dtype=np.float64)
        row_idx, ix, iy = _batch_cover(xmin, ymin, xmax, ymax, cs)
        cell = np.asarray(cells.encode(res, ix, iy), dtype=np.int64)
        take = pa.array(row_idx, type=pa.int64())
        return pa.table({
            "doc_id": pc.take(batch.column("doc_id"), take),
            "cell": pa.array(cell, type=pa.int64()),
            "poly": arr.take(take),
        })

    def point_cells(batch: pa.Table) -> pa.Table:
        px = batch.column("px").to_numpy()
        py = batch.column("py").to_numpy()
        cell = np.asarray(cells.cell_of(px, py, res), dtype=np.int64)
        return pa.table({
            "cell": pa.array(cell, type=pa.int64()),
            "p_id": batch.column("p_id"),
            "px": batch.column("px"),
            "py": batch.column("py"),
        })

    def local_pip(g: pd.DataFrame) -> pd.DataFrame:
        side = g[SIDE].to_numpy()
        pls = g[side == 0]
        pts = g[side == 1]
        if pts.empty or pls.empty:
            return pd.DataFrame({"p_id": pd.Series([], dtype="int64"),
                                 "doc_id": pd.Series([], dtype="object")})
        order = np.argsort(pts["cell"].to_numpy(), kind="stable")
        pcell = pts["cell"].to_numpy()[order]
        px = pts["px"].to_numpy()[order]
        py = pts["py"].to_numpy()[order]
        pid = pts["p_id"].to_numpy()[order]
        plcell = pls["cell"].to_numpy()
        lo = np.searchsorted(pcell, plcell, side="left")
        hi = np.searchsorted(pcell, plcell, side="right")
        keep = np.nonzero(hi > lo)[0]
        out_p, out_d = [], []
        doc_ids = pls["doc_id"].to_numpy()
        polys = pls["poly"].to_numpy()
        for j in keep:
            flat = np.asarray(polys[j])
            poly = np.stack([flat[0::2], flat[1::2]], axis=1)
            s, e = lo[j], hi[j]
            m = points_in_polygon(px[s:e], py[s:e], poly)
            if m.any():
                out_p.extend(pid[s:e][m].tolist())
                out_d.extend([doc_ids[j]] * int(m.sum()))
        return pd.DataFrame({"p_id": pd.Series(out_p, dtype="int64"),
                             "doc_id": pd.Series(out_d, dtype="object")})

    return shuffle_groups(
        [(polygons.map_batches(poly_cells, batch_format="pyarrow"), ["cell"]),
         (points.map_batches(point_cells, batch_format="pyarrow"), ["cell"])],
        local_pip)


# ---------------------------------------------------------------------------
# kNN join (broadcast index side, exact centroid scan)
# ---------------------------------------------------------------------------

def knn_join(cands: ray.data.Dataset, index_df: "pd.DataFrame",
             k: int = 5) -> ray.data.Dataset:
    """Exact 2D kNN join: for each cand centroid, the k nearest index
    centroids by squared euclidean distance, ties broken by numeric doc id
    (cand_id, index_id, rank, dist2).

    The index side (ids, (cx, cy) f64, numeric ids) is broadcast once and
    every cand batch ranks against it through blocking.centroid_knn, the
    exact scan centroid_nn_dataset runs, so both give the same bits."""
    side = storage.broadcast(centroid_side(index_df))

    def knn_fn(batch: pa.Table) -> pa.Table:
        cxy = np.column_stack([batch.column("cx").to_numpy(),
                               batch.column("cy").to_numpy()])
        return centroid_knn(batch.column("doc_id").to_pylist(), cxy,
                            side(), k)

    return cands.map_batches(knn_fn, batch_format="pyarrow", batch_size=1024)


def geom_pair_features(cands: ray.data.Dataset,
                       index_df: pd.DataFrame) -> ray.data.Dataset:
    """Geometric pair features (the north-rule match-feature trio): for every
    cand with a same-key index entity, the centroid distance, the
    footprint-bbox IoU (the generative corpus's buildings are axis-aligned
    rectangles, so the axis-aligned box IS the oriented bounding box here;
    for rotated footprints swap in the eigen-aligned extents from the
    property stage), and the exact rectangle Hausdorff distance (closed form for convex rectangles: the max over both
    directions of the farthest corner-to-rectangle distance — for convex
    sets h(A,B) is attained at a vertex of A).

    Every input coordinate is a dyadic rational (exact in f64), so all
    adds/muls/max are exact and only the final sqrt / division round —
    one IEEE op each, replicated 1:1 by the SQL oracle.  Physical shape:
    the matched index rectangles broadcast once, cands
    stream; no shuffle."""
    cols = ["x0", "y0", "bounding_box_width", "bounding_box_length",
            "cx", "cy"]
    ids = index_df["doc_id"].to_numpy().astype(str)
    order = np.argsort(ids, kind="stable")
    side = storage.broadcast(
        (ids[order], index_df[cols].to_numpy(dtype=np.float64)[order]))

    def feats(batch: pa.Table) -> pa.Table:
        look, m = side()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(str)
        keep = gates.sorted_member(look, ids)
        ids = ids[keep]
        rows = gates.sorted_positions(look, ids, "geom_pair_features")
        A = np.column_stack([batch.column(c).to_numpy()[keep] for c in cols])
        B = m[rows]
        ax0, ay0, aw, al, acx, acy = A.T
        bx0, by0, bw, bl, bcx, bcy = B.T
        ax1, ay1 = ax0 + aw, ay0 + al
        bx1, by1 = bx0 + bw, by0 + bl
        dx, dy = acx - bcx, acy - bcy
        centroid_dist = np.sqrt(dx * dx + dy * dy)
        ix = np.maximum(np.minimum(ax1, bx1) - np.maximum(ax0, bx0), 0.0)
        iy = np.maximum(np.minimum(ay1, by1) - np.maximum(ay0, by0), 0.0)
        inter = ix * iy
        union = aw * al + bw * bl - inter
        bbox_iou = inter / union

        def corner_to_rect(px, py, rx0, ry0, rx1, ry1):
            mx = np.maximum(np.maximum(rx0 - px, px - rx1), 0.0)
            my = np.maximum(np.maximum(ry0 - py, py - ry1), 0.0)
            return np.sqrt(mx * mx + my * my)

        h = np.zeros(len(rows))
        for px, py in ((ax0, ay0), (ax1, ay0), (ax0, ay1), (ax1, ay1)):
            h = np.maximum(h, corner_to_rect(px, py, bx0, by0, bx1, by1))
        for px, py in ((bx0, by0), (bx1, by0), (bx0, by1), (bx1, by1)):
            h = np.maximum(h, corner_to_rect(px, py, ax0, ay0, ax1, ay1))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.string()),
            "centroid_dist": pa.array(centroid_dist, type=pa.float64()),
            "bbox_iou": pa.array(bbox_iou, type=pa.float64()),
            "hausdorff": pa.array(h, type=pa.float64()),
        })

    return cands.map_batches(feats, batch_format="pyarrow")


def tile_stats(props: ray.data.Dataset, res: int = 11) -> ray.data.Dataset:
    """Per-tile raster statistics over the bbox tile cover: object count,
    total footprint area, mean footprint area — the zonal-statistics half
    of the raster<->vector story (tiles_dataset is the assignment half).

    Combiner shape: each batch pre-aggregates its (cell -> n, area) sums so
    the groupby shuffles #blocks x #cells-per-block rows, never the cover
    explode.  Footprint areas are dyadic rationals (exact f64), so the sums
    are order-independent and the single mean division replicates in SQL."""
    from ray.data.aggregate import Sum
    cs = cells.cell_size(res)

    def partial(batch: pa.Table) -> pa.Table:
        x0 = batch.column("x0").to_numpy()
        y0 = batch.column("y0").to_numpy()
        w = batch.column("bounding_box_width").to_numpy()
        l = batch.column("bounding_box_length").to_numpy()
        row_idx, ix, iy = _batch_cover(x0, y0, x0 + w, y0 + l, cs)
        cell = cells.encode(res, ix, iy)
        area = (w * l)[row_idx]
        u, inv = np.unique(cell, return_inverse=True)
        n = np.zeros(len(u), dtype=np.int64)
        a = np.zeros(len(u), dtype=np.float64)
        np.add.at(n, inv, 1)
        np.add.at(a, inv, area)
        return pa.table({"cell": pa.array(u, type=pa.int64()),
                         "n": pa.array(n),
                         "area": pa.array(a, type=pa.float64())})

    agg = props.map_batches(partial, batch_format="pyarrow") \
        .groupby("cell").aggregate(Sum("n", alias_name="n_objects"),
                                   Sum("area", alias_name="footprint_area"))

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n_objects").to_numpy()
        a = b.column("footprint_area").to_numpy()
        return pa.table({
            "cell": b.column("cell"),
            "n_objects": b.column("n_objects"),
            "footprint_area": b.column("footprint_area"),
            "mean_area": pa.array(a / n, type=pa.float64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def range_join(props: ray.data.Dataset, d: float = 8.0,
               res: int = 11) -> ray.data.Dataset:
    """Distance-based spatial self-join: all pairs of objects whose
    footprint rectangles are within euclidean gap ``d`` of each other
    (touching/overlapping = distance 0), with the exact distance.

    The third member of the join trio (kNN join, PIP join, range join).
    Scale shape: every bbox EXPANDED by d/2 is covered with res-``res``
    cells (cell 64 m >= d, so two rects with gap <= d share a covered cell
    — lossless by the grid argument), pairs are generated locally per cell
    after a cell ``shuffle_groups``, and verified with the closed-form
    rectangle-distance (exact dyadic clamps, one sqrt).  A pair is kept
    only in its reference cell, (max of the two first cell columns, max of
    the two first cell rows): that cell lies in both covers whenever they
    share any cell, so each pair is emitted exactly once with no distinct
    pass (integer arithmetic, no float hazard).  Cells are keyed by their
    (column, row) indices, not ``cells.encode``: a box expanded past the
    world's edge covers row -1, whose encoded ids all collapse to -1.  No driver state; group
    size is bounded by per-cell object density (sparse world) — salt hot
    cells upstream if a real corpus clusters."""
    cs = cells.cell_size(res)
    half = d / 2.0

    def cover(batch: pa.Table) -> pa.Table:
        x0 = batch.column("x0").to_numpy()
        y0 = batch.column("y0").to_numpy()
        w = batch.column("bounding_box_width").to_numpy()
        l = batch.column("bounding_box_length").to_numpy()
        row, ix, iy = _batch_cover(x0 - half, y0 - half,
                                   x0 + w + half, y0 + l + half, cs)
        ids = np.asarray(batch.column("doc_id").to_pylist(), dtype=object)
        return pa.table({
            "ix": pa.array(ix, type=pa.int64()),
            "iy": pa.array(iy, type=pa.int64()),
            "ix0": pa.array(np.floor((x0 - half) / cs).astype(np.int64)[row]),
            "iy0": pa.array(np.floor((y0 - half) / cs).astype(np.int64)[row]),
            "k": pa.array([int(i) for i in ids[row]], type=pa.int64()),
            "x0": pa.array(x0[row], type=pa.float64()),
            "y0": pa.array(y0[row], type=pa.float64()),
            "x1": pa.array((x0 + w)[row], type=pa.float64()),
            "y1": pa.array((y0 + l)[row], type=pa.float64()),
        })

    def pairs_in_cell(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on=["ix", "iy"])
        m = m[(m.k_x < m.k_y) & (m.ix == np.maximum(m.ix0_x, m.ix0_y))
              & (m.iy == np.maximum(m.iy0_x, m.iy0_y))]
        if m.empty:
            return pd.DataFrame({"a_id": pd.Series([], dtype="int64"),
                                 "b_id": pd.Series([], dtype="int64"),
                                 "dist": pd.Series([], dtype="float64")})
        mx = np.maximum(np.maximum(m.x0_y.to_numpy() - m.x1_x.to_numpy(),
                                   m.x0_x.to_numpy() - m.x1_y.to_numpy()),
                        0.0)
        my = np.maximum(np.maximum(m.y0_y.to_numpy() - m.y1_x.to_numpy(),
                                   m.y0_x.to_numpy() - m.y1_y.to_numpy()),
                        0.0)
        dist = np.sqrt(mx * mx + my * my)
        keep = dist <= d
        return pd.DataFrame({"a_id": m.k_x.to_numpy()[keep],
                             "b_id": m.k_y.to_numpy()[keep],
                             "dist": dist[keep]})

    return shuffle_groups(
        [(props.map_batches(cover, batch_format="pyarrow"), ["ix", "iy"])],
        pairs_in_cell)


def cell_hierarchy(props: ray.data.Dataset, res: int = 11,
                   parent_res: int = 8) -> ray.data.Dataset:
    """Multi-resolution cell rollup (the hierarchical half of the H3/S2
    index story: cell_to_parent + group-by-parent): the res-``res`` tile
    cover of every footprint rolled up to ``parent_res`` ancestors, with
    per-parent distinct-child-cell and assignment counts.

    Combiner shape: each batch covers its footprints and collapses to
    (cell -> n) locally, one groupby(cell) merges block partials, the
    parent is derived by bit arithmetic (no second explode), and a final
    groupby(parent) reduces #child-cells rows — both shuffles carry tiny
    pre-aggregated tables, never the cover explode.  All-integer, so the
    whole table replicates in SQL."""
    from ray.data.aggregate import Count, Sum
    cs = cells.cell_size(res)
    shift = res - parent_res

    def partial(batch: pa.Table) -> pa.Table:
        x0 = batch.column("x0").to_numpy()
        y0 = batch.column("y0").to_numpy()
        w = batch.column("bounding_box_width").to_numpy()
        l = batch.column("bounding_box_length").to_numpy()
        row_idx, ix, iy = _batch_cover(x0, y0, x0 + w, y0 + l, cs)
        u, n = np.unique(cells.encode(res, ix, iy), return_counts=True)
        return pa.table({"cell": pa.array(u, type=pa.int64()),
                         "n": pa.array(n.astype(np.int64))})

    per_cell = props.map_batches(partial, batch_format="pyarrow") \
        .groupby("cell").aggregate(Sum("n", alias_name="n"))

    def parentify(b: pa.Table) -> pa.Table:
        cell = b.column("cell").to_numpy()
        return pa.table({
            "parent_cell": pa.array(cells.parent(cell, parent_res),
                                    type=pa.int64()),
            "n": b.column("n"),
        })

    return per_cell.map_batches(parentify, batch_format="pyarrow") \
        .groupby("parent_cell").aggregate(
            Count(alias_name="n_cells"),
            Sum("n", alias_name="n_assignments"))

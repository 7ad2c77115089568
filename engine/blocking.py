"""BKAFI blocking: feature-importance-selected property vectors -> RobustScaler
-> exact kNN -> ranked candidate-pair table.

Reference: /root/reference/blocking.py.  Mapping:

* RobustScaler fit on cands / transform index (blocking.py:107-112) -> exact
  median/IQR quantiles computed over the (narrow) selected cand columns, then
  broadcast as constants.  At 10^12 rows this becomes a t-digest sketch
  aggregate; the two-pass shape is identical (SURVEY.md §7.4.2).
* KDTree.query(k=21) (blocking.py:113-118) -> a stateless task pool that
  scans the broadcast scaled index matrix per batch (topk_l2_f32).
  Tie-break: (distance, numeric index id) — defined semantics, the KDTree's
  tie order is unspecified.
* Every dense exact kNN here and in spatial.py (bkafi in f32 and exact
  f64, centroid, the spatial kNN join, embedding) ranks through one
  selection (topk_by_key) and one chunked scan (topk_scan); each caller
  only computes its distance blocks, and knn_rows builds every ranked
  table.
* incremental k-prefix pair lists (blocking.py:211-230) -> one ranked nn
  table; pairs for any k are `rank <= k` filters (no recompute).
* SDR factor (blocking.py:166-174): cand columns scaled by the train
  property-ratio means before the search.
* bkafi_criterion 'feature_importance' vs 'std' (blocking.py:135-142).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from engine import gates, storage
from engine.joins import list_column_matrix, shuffle_groups

NN_PARAM = 21  # config.py:60-61: max cand pairs per item (20) + 1


def robust_scale_stats(X: np.ndarray):
    """(median, iqr) per column of the driver-side matrix ``X``, from the
    same per-column (value, count) distribution and arithmetic as
    robust_scale_stats_ds, so the two are bit-equal on the same rows."""
    dists = []
    for j in range(X.shape[1]):
        v, n = np.unique(X[:, j], return_counts=True)
        keep = ~np.isnan(v)   # the distributed groupby drops NaN keys
        dists.append((v[keep], n[keep]))
    return scale_stats_from_counts(dists)


def weighted_percentile(values: np.ndarray, counts: np.ndarray, q: float) -> float:
    """np.percentile(method='linear') over a weighted (value, count)
    distribution, replicating numpy's virtual-index + lerp arithmetic
    bit-for-bit (numpy _quantile: virtual = q/100 * (n-1); lerp uses
    b - (b-a)*(1-t) for t >= 0.5).  ``values`` must be sorted ascending."""
    n = int(counts.sum())
    virtual = (q / 100.0) * (n - 1)
    lo = int(np.floor(virtual))
    t = virtual - lo
    cum = np.cumsum(counts)
    a = float(values[np.searchsorted(cum, lo, side="right")])
    hi = min(lo + 1, n - 1)
    b = float(values[np.searchsorted(cum, hi, side="right")])
    diff = b - a
    if t >= 0.5:
        return b - diff * (1.0 - t)
    return a + diff * t


def scale_stats_from_counts(dists: list[tuple[np.ndarray, np.ndarray]],
                            sdr: np.ndarray | None = None):
    """sklearn RobustScaler stats (centering=median, scale=q75-q25; an iqr
    of 0 degrades to 1 like sklearn) from one ascending (values, counts)
    distribution per column.  ``sdr``: positive per-column factors applied
    to the values BEFORE the percentiles (the reference's
    fit-on-sdr-scaled-cands semantics)."""
    sdr = np.ones(len(dists)) if sdr is None else np.asarray(sdr, dtype=np.float64)
    med, q25, q75 = (np.empty(len(dists)) for _ in range(3))
    for j, (vals, cnt) in enumerate(dists):
        vals = vals * sdr[j]
        med[j] = weighted_percentile(vals, cnt, 50)
        q75[j] = weighted_percentile(vals, cnt, 75)
        q25[j] = weighted_percentile(vals, cnt, 25)
    iqr = q75 - q25
    iqr[iqr == 0.0] = 1.0
    return med, iqr


def robust_scale_stats_ds(ds: ray.data.Dataset, cols: list[str],
                          sdr: np.ndarray | None = None):
    """Distributed RobustScaler stats: per-block (col, value) count partials
    merged on the driver -> exact weighted percentiles from the merged
    distribution.  Driver memory is O(distinct values), never O(rows), and
    the result is bit-equal to np.percentile over the collected column
    (tested).  At 10^12 rows the exact count merge becomes a t-digest
    sketch; the two-pass fit->broadcast shape is unchanged (SURVEY §7.4.2).
    ``sdr`` as in scale_stats_from_counts."""
    def counts(batch: pa.Table) -> pa.Table:
        outs = []
        for j, c in enumerate(cols):
            v, n = np.unique(batch.column(c).to_numpy(), return_counts=True)
            outs.append(pa.table({
                "col": pa.array(np.full(len(v), j, dtype=np.int32)),
                "value": pa.array(v, type=pa.float64()),
                "n": pa.array(n.astype(np.int64)),
            }))
        return pa.concat_tables(outs)

    # two-phase aggregate: per-block unique+count partials (combiner) are
    # collected and merged on the driver — a full (col, value) groupby
    # shuffle costs a ~20s all-to-all here for zero benefit, since the
    # merged distribution must land on the driver anyway
    partials = ds.select_columns(cols) \
        .map_batches(counts, batch_format="pyarrow").to_pandas()
    agg = partials.groupby(["col", "value"], as_index=False)["n"].sum()
    dists = []
    for j in range(len(cols)):
        g = agg[agg.col == j].sort_values("value")
        dists.append((g["value"].to_numpy(), g["n"].to_numpy()))
    return scale_stats_from_counts(dists, sdr)


def select_blocking_features(feature_importances: list[tuple[str, float]],
                             property_ratios: dict[str, dict],
                             bkafi_dim: int,
                             criterion: str = "feature_importance") -> list[str]:
    """Top-d property names.  'feature_importance': by model importance desc
    (blocking.py:139-141); 'std': by train property-ratio std asc
    (blocking.py:136-138; ratios are pre-sorted by std in classifier.py:231)."""
    if criterion == "std":
        return [p for p in list(property_ratios)[:bkafi_dim]]
    return [f.split("_ratio")[0] for f, _ in feature_importances[:bkafi_dim]]


def _within(d: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``d`` that can rank at or before ``thr`` (one
    per row, a column) in the (d, key) order with NaN after every number:
    ``d <= thr``, and every entry of a row whose ``thr`` is NaN."""
    return (d <= thr) | np.isnan(thr)


# A row wider than BOUND_COLS * k entries is first cut by a bound on its
# kth smallest value: the kth smallest of its BOUND_COLS-column block minima.
BOUND_COLS = 32


def _row_heads(order: np.ndarray, row: np.ndarray, n: int,
               k: int) -> np.ndarray:
    """The first k positions of each of the n rows in ``order``, an
    ordering of flat entries whose first key is their ``row``: one bincount
    of the rows gives each row's start.  Every row must hold at least k
    entries.  Returns (n, k)."""
    counts = np.bincount(row, minlength=n)
    return order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]


def topk_by_key(d: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Column positions of the ``k`` smallest entries of each row of the 2D
    ``d``, ordered by (d, key) with NaN after every number and NaNs by key,
    the order np.lexsort gives; ``keys`` holds one key per column or one
    per entry.  Tie-complete: each row keeps every entry at or below a
    bound on its kth smallest value, and one lexsort of all rows' survivors
    cuts them to k, so ties at the kth value go to the smallest keys, never
    to an arbitrary subset of them.  The bound is the kth smallest value
    itself (a partition) for a row of at most BOUND_COLS * k entries, and
    above that the kth smallest of its BOUND_COLS-column block minima
    (NaN-ignoring), never below the kth value since k distinct entries are
    at or below it; a NaN bound keeps the whole row."""
    kk = min(k, d.shape[1])
    if kk == 0:
        return np.empty((len(d), 0), dtype=np.int64)
    lows = d
    if d.shape[1] > BOUND_COLS * kk:
        lows = np.fmin.reduceat(d, np.arange(0, d.shape[1], BOUND_COLS),
                                axis=1)
    r, c = np.nonzero(_within(d, np.partition(lows, kk - 1, axis=1)
                              [:, kk - 1:kk]))
    kc = np.broadcast_to(keys, d.shape)[r, c]
    return c[_row_heads(np.lexsort((kc, d[r, c], r)), r, len(d), kk)]


def topk_scan(blocks, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k over a stream of distance blocks, ranked like
    topk_by_key.

    ``blocks`` yields ``(d, keys, vals)`` per run of index rows: ``d`` (n, m)
    the distances of the n query rows to those m rows, ``keys`` (m,) their
    numeric ids and ``vals`` (m,) what to return for each (positions, ids).
    Blocks are selected whole until k entries are held.  Each later block
    keeps only the entries at or before the running kth-best (a filter, one
    SIMD compare, tie-complete like topk_by_key's bound) and ranks those
    rare survivors together with the held k of every row by one lexsort.
    Returns (vals, d), each (n, min(k, entries seen)), rows ranked."""
    best = None
    for d, keys, vals in blocks:
        keys, vals = (np.broadcast_to(a, d.shape) for a in (keys, vals))
        if best is None or best[0].shape[1] < k:
            if best is not None:
                d, keys, vals = (np.concatenate(p, axis=1)
                                 for p in zip(best, (d, keys, vals)))
            top = topk_by_key(d, keys, k)
            best = [np.take_along_axis(a, top, axis=1)
                    for a in (d, keys, vals)]
            continue
        hit_r, hit_c = np.nonzero(_within(d, best[0][:, -1:]))
        if not len(hit_r):
            continue
        n = len(d)
        row = np.concatenate([np.repeat(np.arange(n), k), hit_r])
        flat = [np.concatenate([b.ravel(), a[hit_r, hit_c]])
                for b, a in zip(best, (d, keys, vals))]
        top = _row_heads(np.lexsort((flat[1], flat[0], row)), row, n, k)
        best = [a[top] for a in flat]
    return best[2], best[0]


def _spans(n: int, chunk: int):
    """``chunk``-row spans of n rows; no rows is one empty span, so a scan
    over an empty index still yields (n, 0) results."""
    return ((s, min(s + chunk, n)) for s in range(0, max(n, 1), chunk))


def _by_tile(X: np.ndarray, tile: int, topk):
    """``topk`` over each ``tile`` rows of ``X``, its outputs concatenated;
    a ``X`` without rows is one empty tile, so the outputs keep their
    shape."""
    parts = [topk(X[s:s + tile]) for s in range(0, max(len(X), 1), tile)]
    return tuple(np.concatenate(p, axis=0) for p in zip(*parts))


# float32 like the reference's vectors (blocking.py:109-110).  Tile sizes
# keep the distance block (tile*chunk*4B ~ 1 MiB) L2-resident: the kNN is
# DRAM-bandwidth-bound when run on every core, and large temporaries
# collapse multi-worker scaling (measured 13x on 16 workers).
KNN_TILE, KNN_CHUNK = 64, 4096


def topk_l2_f32(X32: np.ndarray, idx32: np.ndarray, idx_sq: np.ndarray,
                idx_num: np.ndarray, k: int):
    """Exact k-NN of the f32 rows ``X32`` among the index rows ``idx32``
    (``idx_sq`` their squared norms), ranked by (d2, idx_num): topk_scan
    over KNN_CHUNK-row index blocks, d2 = |x|^2 - 2 x.y + |y|^2 by one GEMM
    per KNN_TILE cands x chunk block.  Per cand tile only the first chunk
    pays a selection (an introselect per chunk measured 2x slower).
    Returns (top index positions, sqrt distances) shaped (n, min(k,
    n_idx))."""
    def tile_topk(Xt):
        x_sq = (Xt * Xt).sum(1)[:, None]
        top, d2 = topk_scan(
            ((x_sq - 2.0 * (Xt @ idx32[s:e].T) + idx_sq[None, s:e],
              idx_num[s:e], np.arange(s, e))
             for s, e in _spans(len(idx32), KNN_CHUNK)), k)
        return top, np.sqrt(np.maximum(d2, 0.0))
    return _by_tile(X32, KNN_TILE, tile_topk)


def topk_l2_exact(X: np.ndarray, idx: np.ndarray, idx_num: np.ndarray,
                  k: int):
    """Exact-f64 k-NN, ranked by (d2, idx_num): d2 accumulates per feature
    in declared order, 0.0 + (x_0 - y_0)^2 + (x_1 - y_1)^2 + ..., a
    left-associated IEEE chain SQL replicates 1:1.  Same topk_scan as
    topk_l2_f32.  Returns (top index positions, d2)."""
    def block(Xt, s, e):
        d2 = np.zeros((len(Xt), e - s))
        for f in range(X.shape[1]):
            d = Xt[:, f][:, None] - idx[None, s:e, f]
            d2 += d * d
        return d2
    return _by_tile(X, KNN_TILE, lambda Xt: topk_scan(
        ((block(Xt, s, e), idx_num[s:e], np.arange(s, e))
         for s, e in _spans(len(idx), KNN_CHUNK)), k))


def knn_rows(cand_ids, index_ids: np.ndarray, name: str,
             values: np.ndarray) -> pa.Table:
    """The ranked kNN table (cand_id, index_id, rank, <name>): one row per
    entry of the (n, k) ``index_ids``, each cand's k neighbours in rank
    order from 1, ``values`` (n, k) their distances or scores as f64."""
    n, kk = index_ids.shape
    return pa.table({
        "cand_id": pa.array(np.repeat(np.asarray(cand_ids, dtype=object),
                                      kk).tolist(), type=pa.string()),
        "index_id": pa.array(index_ids.ravel().tolist(), type=pa.string()),
        "rank": pa.array(np.tile(np.arange(1, kk + 1, dtype=np.int32), n)),
        name: pa.array(np.asarray(values, dtype=np.float64).ravel(),
                       type=pa.float64()),
    })


def centroid_knn(cand_ids, cxy: np.ndarray, side: tuple,
                 k: int) -> pa.Table:
    """The centroid kNN table (cand_id, index_id, rank, dist2) of the cand
    centroids ``cxy`` (n, 2) among ``side`` = (index ids, index (cx, cy)
    f64, numeric index ids): topk_l2_exact over the two columns."""
    ids, ixy, num = side
    top, d2 = topk_l2_exact(cxy, ixy, num, k)
    return knn_rows(cand_ids, ids[top], "dist2", d2)


def centroid_side(index_df: pd.DataFrame) -> tuple:
    """centroid_knn's index side of ``index_df`` (doc_id, cx, cy)."""
    return (index_df["doc_id"].to_numpy(),
            index_df[["cx", "cy"]].to_numpy(dtype=np.float64),
            index_df["doc_id"].astype(np.int64).to_numpy())


class BkafiKnn:
    """The bkafi kNN kernel over one scaled index side: the map UDF of
    bkafi_nn_dataset and, called directly, its driver-side form."""

    def __init__(self, side, features: list[str], sdr: np.ndarray,
                 nn_param: int, exact: bool):
        self.idx_mat, self.idx_ids, self.idx_num, self.med, self.iqr = side
        self.features, self.sdr = features, sdr
        self.nn_param, self.exact = nn_param, exact
        self.idx32 = np.ascontiguousarray(self.idx_mat, dtype=np.float32)
        self.idx_sq = (self.idx32 * self.idx32).sum(1)

    def search(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(index row positions, distances), each (n, min(nn_param, index
        rows)) and ranked, for the raw selected-feature rows ``X``."""
        X = (X * self.sdr - self.med) / self.iqr
        if self.exact:
            top, d2 = topk_l2_exact(X, self.idx_mat, self.idx_num,
                                    self.nn_param)
            return top, np.sqrt(d2)
        return topk_l2_f32(X.astype(np.float32), self.idx32, self.idx_sq,
                           self.idx_num, self.nn_param)

    def __call__(self, batch: pa.Table, bkafi_dim: int) -> pa.Table:
        top, dtop = self.search(np.column_stack(
            [batch.column(c).to_numpy() for c in self.features]))
        rows = knn_rows(batch.column("doc_id").to_pylist(),
                        self.idx_ids[top], "dist", dtop)
        return rows.add_column(0, "bkafi_dim", pa.array(
            np.full(rows.num_rows, bkafi_dim, dtype=np.int32)))


def bkafi_knn(index_df: pd.DataFrame, features: list[str], stats: tuple,
              nn_param: int = NN_PARAM) -> BkafiKnn:
    """bkafi_nn_dataset's f32 kernel over ``index_df`` (doc_id + selected
    columns) scaled by ``stats`` = (med, iqr), to call on the driver."""
    return BkafiKnn(_knn_side(index_df, features, *stats), features,
                    np.ones(len(features)), nn_param, exact=False)


def _knn_side(index_df: pd.DataFrame, features: list[str], med, iqr):
    return ((index_df[features].to_numpy(dtype=np.float64) - med) / iqr,
            index_df["doc_id"].to_numpy(),
            index_df["doc_id"].astype(np.int64).to_numpy(), med, iqr)


def bkafi_nn_dataset(cand_props: ray.data.Dataset, index_df: pd.DataFrame,
                     features: list[str], bkafi_dim: int,
                     sdr_factors: np.ndarray | None = None,
                     nn_param: int = NN_PARAM,
                     stats: tuple | None = None,
                     exact: bool = False) -> ray.data.Dataset:
    """kNN of every cand against the index in the selected feature space.

    ``cand_props`` streams; ``index_df`` (doc_id + selected columns, pandas)
    is scaled and broadcast (the small side by design — the shuffle
    alternative is cell_blocking).  Scaler stats are fit on the cand side
    with the DISTRIBUTED exact-quantile aggregate (never collects the
    column), on the sdr-scaled cand values (reference blocking.py:154-174 +
    107-112 multiplies cand vectors by the factor BEFORE fit_transform, so
    the factor's net effect falls on the index transform while cand query
    points are unchanged).  ``stats``: optional precomputed (med, iqr).

    ``exact``: f64 precision-parameterized variant of the same operator —
    distances accumulate elementwise per feature in declared order
    (sum((c_f - i_f)^2), left-associated) so every d2/dist is a
    deterministic IEEE chain replicable 1:1 in SQL (topk_l2_exact).  This
    is the path the DuckDB oracle checks bit-for-bit; the default f32-tile
    path is the throughput configuration (same ranking semantics up to
    precision).
    Returns the nn dataset (bkafi_dim, cand_id, index_id, rank, dist).
    """
    sdr = np.ones(len(features)) if sdr_factors is None else np.asarray(
        sdr_factors, dtype=np.float64)
    med, iqr = stats if stats is not None else robust_scale_stats_ds(
        cand_props, features, sdr=sdr)
    # stateless TASK pool, the index tiles built once per worker — no actor
    # ramp, fully elastic
    knn = storage.broadcast(
        _knn_side(index_df, features, med, iqr),
        build=lambda side: BkafiKnn(side, features, sdr, nn_param, exact))

    def knn_fn(batch: pa.Table) -> pa.Table:
        return knn()(batch, bkafi_dim)

    # one block per cluster CPU: every block is one task
    cands = cand_props.select_columns(["doc_id", *features]) \
        .repartition(storage.cluster_cpus() or os.cpu_count() or 1)
    return cands.map_batches(knn_fn, batch_format="pyarrow", batch_size=1024)


def pairs_from_nn(nn: ray.data.Dataset, k: int) -> ray.data.Dataset:
    """Candidate pairs at cutoff k = rank<=k filter over the ranked nn table
    (the reference's incremental prefix dicts, blocking.py:211-230).
    Adds the key-equality label (pipelines.py:433-434)."""
    import pyarrow.compute as pc

    def cut(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less_equal(batch.column("rank"), pa.scalar(k)))
        lbl = pc.cast(pc.equal(batch.column("cand_id"), batch.column("index_id")),
                      pa.int8())
        return batch.append_column("label", lbl)

    return nn.map_batches(cut, batch_format="pyarrow")


def centroid_nn_dataset(cand_df: pd.DataFrame, index_df: pd.DataFrame,
                        nn_param: int = NN_PARAM,
                        transform: bool = False) -> pd.DataFrame:
    """The 'centroid' / 'centroid_with_transform' exhaustive blockers
    (blocking.py:62-92): brute-force L2 over 2D world centroids, optional
    Kabsch/SVD rigid alignment of the cand cloud onto the index cloud.

    Distances are EXACT elementwise (cx-ix)^2 + (cy-iy)^2 in f64
    (topk_l2_exact over the two columns) — on the dyadic-rational corpus
    every d2 is an exact dyadic value, so the output (incl. dist2) is
    bit-checkable against the DuckDB window-SQL oracle."""
    cxy = cand_df[["cx", "cy"]].to_numpy(dtype=np.float64)
    side = centroid_side(index_df)
    if transform:
        cxy = kabsch_transform(cxy, side[1])
    return centroid_knn(cand_df["doc_id"].to_numpy(), cxy, side,
                        nn_param).to_pandas()


def kabsch_transform(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """SVD rigid alignment + isotropic scale of ``source`` onto ``target``'s
    frame (the reference's centroid_with_transform step, blocking.py:78-92:
    global means -> covariance H -> SVD -> rotation with det fix -> scale)."""
    src_mean = source.mean(axis=0)
    tgt_mean = target.mean(axis=0)
    sc = source - src_mean
    tc = target - tgt_mean
    m = min(len(sc), len(tc))
    H = sc[:m].T @ tc[:m]
    U, S, Vt = np.linalg.svd(H)
    R = U @ Vt
    if np.linalg.det(R) < 0:
        Vt[-1, :] *= -1
        R = U @ Vt
    s = np.linalg.norm(tc[:m]) / np.linalg.norm(sc[:m])
    return s * (sc @ R) + tgt_mean


def inner_products(cv: np.ndarray, iv: np.ndarray) -> np.ndarray:
    """(len(cv), len(iv)) dot products of the rows of cv with the rows of
    iv, by numpy's own einsum loop (``optimize=False`` keeps BLAS out):
    each output is one accumulation over its two rows in a fixed order, so
    a score depends only on its two vectors.  A BLAS GEMM (``cv @ iv.T``)
    rounds a row by where it sits in its tile, and cand rows reach a batch
    in completion order.  About 2x a GEMM's time on one core."""
    return np.einsum("id,jd->ij", cv, iv, optimize=False)


def _embedding_shard(t: pa.Table, exact: bool) -> tuple:
    """(vectors, ids, numeric ids, norms in exact mode) of index rows."""
    id_list = t.column("doc_id").to_pylist()
    return (list_column_matrix(t.column("raw" if exact else "feature")),
            np.asarray(id_list, dtype=object),
            np.asarray(id_list).astype(np.int64),
            t.column("norm").to_numpy(zero_copy_only=False) if exact
            else None)


def _embedding_nn(cand_emb: ray.data.Dataset, shards: list, nn_param: int,
                  exact: bool) -> ray.data.Dataset:
    """The embedding blocker's kernel: each cand batch folds the index
    ``shards`` (handles that return _embedding_shard tuples) through
    topk_scan on the negated score, so ties rank by numeric doc id and a
    NaN score (a zero-norm vector in exact mode) after every number."""
    feat_col = "raw" if exact else "feature"

    def topk(batch: pa.Table) -> pa.Table:
        cv = list_column_matrix(batch.column(feat_col))
        cnorm = batch.column("norm").to_numpy(zero_copy_only=False) \
            if exact else None

        def neg_scores():
            for shard in shards:
                iv, ids, num, inorm = shard()
                if len(num) == 0:
                    continue
                sim = inner_products(cv, iv)
                if exact:
                    sim = sim / (cnorm[:, None] * inorm[None, :])
                yield -sim, num, ids
            # a zero-width last block: an empty index ranks (n, 0)
            yield np.empty((len(cv), 0)), np.empty(0, np.int64), \
                np.empty(0, object)

        ids, neg = topk_scan(neg_scores(), nn_param)
        return knn_rows(batch.column("doc_id").to_pylist(), ids, "score",
                        -neg)

    return cand_emb.map_batches(topk, batch_format="pyarrow", batch_size=1024)


def embedding_nn_auto(cand_emb: ray.data.Dataset,
                      index_emb: ray.data.Dataset,
                      nn_param: int = NN_PARAM,
                      exact: bool = False) -> ray.data.Dataset:
    """Embedding blocker (the reference's ViT path, blocking.py:176-191):
    inner-product top-k of every streamed cand (doc_id, feature) over the
    index embeddings, ties by numeric doc id like every other blocker.

    Size-gated in ONE streaming pass over the index side: within
    ``gates.MAX_BROADCAST_INDEX_ROWS`` the index is one shard broadcast
    through storage.broadcast (the reference's faiss-index shape); past it,
    the collected prefix plus the rest of the SAME stream become
    object-store shards, one per block, that each cand batch folds one at a
    time (a worker holds one shard; never an O(index) driver collect and
    never a second execution).  Both placements run the same kernel, so
    their output is bit-identical.  At 10^12 index rows route through the
    approximate siblings (similarity.lsh_knn / ivf_knn) or cell_blocking.

    ``exact``: SQL-replicable cosine precision mode — expects integer-valued
    ``raw`` feature vectors plus a precomputed ``norm`` column on both sides
    and scores cosine as int_dot / (norm_c * norm_i).  The integer dot is
    exact in f64 regardless of summation order, and the two remaining
    roundings (one multiply, one divide) are single IEEE operations, so a
    DuckDB oracle reproduces every score bit-for-bit.  The default mode dots
    the pre-normalized float vectors (the shape a real CLIP/ViT encoder
    output takes)."""
    cols = ["doc_id", "raw", "norm"] if exact else ["doc_id", "feature"]
    index_t, blocks = gates.collect_under_budget(
        index_emb.select_columns(cols), "embedding_nn_auto",
        gates.MAX_BROADCAST_INDEX_ROWS, None)
    if index_t is not None:
        shards = [storage.broadcast(_embedding_shard(index_t, exact))]
    else:
        # a plain get, not storage.broadcast: memoizing the shards would
        # hold them all in one worker
        shards = [lambda ref=ray.put(_embedding_shard(b, exact)): ray.get(ref)
                  for b in blocks]
    return _embedding_nn(cand_emb, shards, nn_param, exact)


# ---------------------------------------------------------------------------
# Blocker registry — the reference's name -> method dispatch (blocking.py:47-56)
# ---------------------------------------------------------------------------

BLOCKER_REGISTRY = {
    "bkafi": bkafi_nn_dataset,             # feature-space kNN (task pool)
    "centroid": centroid_nn_dataset,       # exhaustive 2D centroid L2
    "centroid_with_transform": lambda c, i, **kw: centroid_nn_dataset(
        c, i, transform=True, **kw),
    "embedding": embedding_nn_auto,        # ViT/CLIP-slot inner-product top-k
}


def get_blocker(name: str):
    try:
        return BLOCKER_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown blocking method {name!r}; "
                         f"available: {sorted(BLOCKER_REGISTRY)}")


# ---------------------------------------------------------------------------
# Cell-partitioned candidate generation (the 10^12-scale blocking path)
# ---------------------------------------------------------------------------

def cell_blocking(props: ray.data.Dataset, res: int = 9, ring: int = 1,
                  salt_threshold: int = 2000, nn_param: int = NN_PARAM) -> ray.data.Dataset:
    """Candidate pairs via spatial-cell co-partitioning — no broadcast index.

    Replaces the global KDTree with a shuffle (SURVEY.md §2.5 J3(b)): every
    object maps to its centroid's cell; cands additionally replicate to the
    Chebyshev ring (so near-boundary matches are not lost); one
    ``shuffle_groups`` on the cell co-partitions both sources; per cell,
    each cand takes its top-`nn_param` nearest index objects locally; a
    final per-cand re-reduce merges cell-local candidates (rank re-assigned
    globally).

    Skew handling: a hot cell (more rows than ``salt_threshold``) is split by
    a stable hash of the *index* id into sub-cells, and the cands of that
    cell replicate to every sub-cell — same output as unsalted, bounded
    group size (tested).  Output: cand_id, index_id, rank, dist2.
    """
    import pyarrow.compute as pc

    from engine import cells as cell_mod
    from engine.joins import fast_hash64

    cs = cell_mod.cell_size(res)

    R = 2 * ring + 1
    dxy = np.array([(dx, dy) for dx in range(-ring, ring + 1)
                    for dy in range(-ring, ring + 1)], dtype=np.int64)

    def assign(batch: pa.Table) -> pa.Table:
        """Vectorized cell assignment: index rows -> their cell; cand rows
        -> the full Chebyshev ring (np.repeat explode + Table.take — no
        per-row Python, same shape as spatial.tiles_dataset)."""
        import pyarrow.compute as pc
        cx = batch.column("cx").to_numpy()
        cy = batch.column("cy").to_numpy()
        is_cand = pc.equal(batch.column("source"), pa.scalar("cands")) \
            .to_numpy(zero_copy_only=False)
        ix = np.floor(cx / cs).astype(np.int64)
        iy = np.floor(cy / cs).astype(np.int64)
        n_side = 1 << res
        idx_rows = np.nonzero(~is_cand)[0]
        cand_rows = np.nonzero(is_cand)[0]
        jx = ix[cand_rows][:, None] + dxy[None, :, 0]
        jy = iy[cand_rows][:, None] + dxy[None, :, 1]
        valid = ((jx >= 0) & (jx < n_side) & (jy >= 0) & (jy < n_side)).ravel()
        take_c = np.repeat(cand_rows, R * R)[valid]
        cell_c = cell_mod.encode(res, jx.ravel()[valid], jy.ravel()[valid])
        cell_i = cell_mod.encode(res, ix[idx_rows], iy[idx_rows])
        out = batch.take(pa.array(np.concatenate([idx_rows, take_c])))
        return out.append_column(
            "cell", pa.array(np.concatenate([cell_i, cell_c]),
                             type=pa.int64()))

    # pinned to the object store: feeds both the hot-cell count and the salt
    # stage (lazy branches would re-execute the assignment twice)
    assigned = props.select_columns(["doc_id", "source", "cx", "cy"]) \
        .map_batches(assign, batch_format="pyarrow").materialize()

    # hot-cell salting: count per cell, broadcast the hot set, split index
    # rows into sub-cells (cands replicate to all salts of their cell)
    from ray.data.aggregate import Count
    counts = assigned.groupby("cell").aggregate(Count(alias_name="n")).to_pandas()
    hot = {int(c): int(np.ceil(n / salt_threshold))
           for c, n in zip(counts.cell, counts.n) if n > salt_threshold}
    hot_side = storage.broadcast(hot)

    def salt(batch: pa.Table) -> pa.Table:
        """Vectorized hot-cell salting: index rows hash into one sub-cell,
        cand rows of hot cells replicate to every sub-cell (np.repeat
        index arithmetic + Table.take — no per-row .as_py())."""
        hot_map = hot_side()
        if not hot_map:
            return batch.append_column(
                "salted", pc.cast(pc.shift_left(batch.column("cell"),
                                                pa.scalar(6)), pa.int64()))
        cell = batch.column("cell").to_numpy()
        is_cand = pc.equal(batch.column("source"), pa.scalar("cands")) \
            .to_numpy(zero_copy_only=False)
        h = fast_hash64(batch.column("doc_id").to_pylist())
        n_salt = pd.Series(cell).map(hot_map).fillna(1).to_numpy(np.int64)
        reps = np.where(is_cand, n_salt, 1)
        idx = np.repeat(np.arange(batch.num_rows), reps)
        start = np.cumsum(reps) - reps
        # per-replica offset 0..reps_i-1 (cand rows enumerate sub-cells)
        offset = np.arange(int(reps.sum()), dtype=np.int64) \
            - np.repeat(start, reps)
        base = (h % n_salt.astype(np.uint64)).astype(np.int64)
        salt_vals = np.where(np.repeat(is_cand, reps), offset,
                             np.repeat(base, reps))
        salted = (np.repeat(cell, reps).astype(np.int64) << 6) | salt_vals
        out = batch.take(pa.array(idx))
        return out.append_column("salted", pa.array(salted, type=pa.int64()))

    salted = assigned.map_batches(salt, batch_format="pyarrow")

    _EMPTY = {"cand_id": pd.Series([], dtype="object"),
              "index_id": pd.Series([], dtype="object"),
              "dist2": pd.Series([], dtype="float64")}

    def local_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """Vectorized per-cell candidate generation for one shuffle call:
        ONE cands⋈index merge on the cell key replaces per-cell slicing
        (cell cross-products are bounded by the salting cap), then a
        cumcount top-k per (cell, cand)."""
        C = g[g.source == "cands"][["doc_id", "salted", "cx", "cy"]] \
            .rename(columns={"doc_id": "cand_id", "cx": "ccx", "cy": "ccy"})
        I = g[g.source == "index"][["doc_id", "salted", "cx", "cy"]] \
            .rename(columns={"doc_id": "index_id", "cx": "icx", "cy": "icy"})
        m = C.merge(I, on="salted")
        if m.empty:
            return pd.DataFrame(_EMPTY)
        dx = m.ccx.to_numpy() - m.icx.to_numpy()
        dy = m.ccy.to_numpy() - m.icy.to_numpy()
        m["dist2"] = dx * dx + dy * dy
        m["_num"] = m.index_id.astype(np.int64)
        m = m.sort_values(["salted", "cand_id", "dist2", "_num"],
                          kind="mergesort")
        rk = m.groupby(["salted", "cand_id"], sort=False).cumcount()
        m = m[rk.to_numpy() < nn_param]
        return m[["cand_id", "index_id", "dist2"]].reset_index(drop=True)

    local = shuffle_groups([(salted, ["salted"])], local_pairs)

    def rerank(g: pd.DataFrame) -> pd.DataFrame:
        """Fully vectorized per-cand top-k within the call: dedup, sort by
        (cand, dist2, numeric id), cumcount rank, cut at nn_param."""
        g = g.drop_duplicates(["cand_id", "index_id"]).copy()
        g["_num"] = g.index_id.astype(np.int64)
        g = g.sort_values(["cand_id", "dist2", "_num"], kind="mergesort")
        g["rank"] = (g.groupby("cand_id", sort=False).cumcount() + 1) \
            .astype(np.int32)
        g = g[g["rank"] <= nn_param]
        return g.drop(columns=["_num"]).reset_index(drop=True)

    return shuffle_groups([(local, ["cand_id"])], rerank)

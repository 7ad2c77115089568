"""Query registry: every entry in __ray_entry__.queries() is implemented here.

Each query is a function ``fn(sf_dir)`` registered by ``@query`` with the
DuckDB SQL in engine.oracles that checks its output bit-for-bit, or with
none (rows-only).  It returns a Dataset / DataFrame / Arrow table whose
column names match that SQL exactly (the driver's value-hash sorts columns
by name).  Geo queries run over the deterministic interleaved-document
corpus derived from the sf's `documents` table (engine.corpus);
relational/dedup/text/similarity queries run over the sf parquet tables
directly.  An input several queries share is built once per sf through a
``_Memo``.
"""

from __future__ import annotations

import os
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from engine import blocking as blk
from engine import (contrastive, dedup, gates, joins, matching, metrics,
                    multimodal, pairs, relational, similarity, spatial,
                    splits, storage, text)
from engine import oracles as o
from engine.contamination import contaminate
from engine.corpus import corpus_dataset, read_size_aware
from engine.geometry import PROPERTY_NAMES
from engine.pairs import RATIO_FEATURE_NAMES
from engine.pipeline import (matching_inference_pipeline, prep_train,
                             prepare_state, run_flagship, side_dataset,
                             side_frame, split_cands_dataset,
                             train_test_features)
from engine.properties import properties_dataset
from engine.render import render_dataset
from engine.storage import read_parquet_clean

QUERIES: dict[str, Callable] = {}  # name -> query; sweep order at the end


def query(oracle: str | None = None):
    """Register the decorated ``fn(sf_dir)`` in QUERIES under its name, with
    ``oracle``, the DuckDB SQL that checks it (None: rows-only)."""
    def register(fn):
        fn.oracle = oracle
        QUERIES[fn.__name__] = fn
        return fn
    return register


def oracle_sql() -> dict[str, str]:
    """name -> DuckDB oracle SQL of every oracle-checked query."""
    return {n: f.oracle for n, f in QUERIES.items() if f.oracle}


class _Memo:
    """Decorator: a driver-side memo of one materialization that several
    queries share, keyed by sf dir.  It counts its hits and misses, which
    ``memo_counts`` reports (bench.py tags each query cold or warm)."""

    registry: dict[str, _Memo] = {}

    def __init__(self, build):
        self.build, self.cache = build, {}
        self.hits = self.misses = 0
        _Memo.registry[build.__name__.lstrip("_")] = self

    def __call__(self, sf_dir: str):
        if sf_dir in self.cache:
            self.hits += 1
        else:
            self.misses += 1
            self.cache[sf_dir] = self.build(sf_dir)
        return self.cache[sf_dir]


def memo_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of every memo, by name."""
    return {n: (m.hits, m.misses) for n, m in _Memo.registry.items()}


@_Memo
def _props(sf_dir: str) -> ray.data.MaterializedDataset:
    """The 25-property table of both sources."""
    return properties_dataset(corpus_dataset(sf_dir)).materialize()


# the operators workload's set-up (perfbench/workloads.py) drops the
# property memo by this name
_PROPS_CACHE = _props.cache


@_Memo
def _prep(sf_dir: str):
    """(props, prep): the one preparatory training pass that the matching,
    recall-grid, std-criterion and contamination queries derive from."""
    props = _props(sf_dir)
    return props, prep_train(props, seed=1)


@_Memo
def _ttf(sf_dir: str):
    """(train_df, test_df, prep): blocking-based train and test pair
    features over the shared preparatory pass."""
    props, prep = _prep(sf_dir)
    return train_test_features(sf_dir, seed=1, props=props, prep=prep)


@_Memo
def _state(sf_dir: str) -> dict:
    """The apply-path state over the shared preparatory pass.  Never the
    pickled prepare_state cache, whose key holds the sf dir's basename and
    not the inputs."""
    props, prep = _prep(sf_dir)
    return prepare_state(sf_dir, props=props, prep=prep)


@_Memo
def _render(sf_dir: str) -> ray.data.MaterializedDataset:
    """Rendered PNG bytes (doc_id, source, png) of the corpus: geo_render,
    multimodal_real and media_resize share this render pass, the dominant
    cost of each.  ~1-2 KB per 64x64 grayscale PNG."""
    return render_dataset(corpus_dataset(sf_dir)).materialize()


@_Memo
def _emb_pairs(sf_dir: str) -> ray.data.MaterializedDataset:
    """Verified embedding near-dup pairs (one LSH band -> bucket -> verify
    chain), shared by dedup_embedding and dedup_semantic."""
    return dedup.embedding_near_dup(
        dedup.planted_neardup_embeddings(_emb(sf_dir)),
        threshold=0.98).materialize()


@_Memo
def _ngram_pairs(sf_dir: str) -> ray.data.MaterializedDataset:
    """Verified ngram-Jaccard pairs, shared by dedup_ngram and
    dedup_clusters."""
    return dedup.ngram_jaccard_pairs(
        dedup.planted_dup_corpus(_docs(sf_dir)),
        threshold=0.6).materialize()


def _emb(sf_dir: str) -> ray.data.Dataset:
    # single parquet file -> size-aware SplitBlocks so vectorized embedding
    # stages parallelize without tiny-input task overhead (same as _docs)
    p = os.path.join(sf_dir, "embeddings.parquet")
    return read_size_aware(p, 32, columns=["vec_id", "embedding"])


def _docs(sf_dir: str) -> ray.data.Dataset:
    # the table is one parquet file -> one read block; size-aware
    # SplitBlocks gives every downstream map_batches stage real parallelism
    # (measured 6x on the minhash chain — a single-block source serializes
    # the whole stage) without over-tasking tiny sf inputs
    p = os.path.join(sf_dir, "documents.parquet")
    return read_size_aware(p, 32, columns=["doc_id", "text"])


EXACT_PROP_COLS = [
    "bounding_box_width", "bounding_box_length", "area", "perimeter",
    "perimeter_ind", "volume", "convex_hull_area", "convex_hull_volume",
    "height_diff", "num_floors", "axes_symmetry", "compactness_2d",
    "compactness_3d", "density", "shape_ind", "hemisphericality",
    "num_vertices",
]
_FIXED_BLOCK_FEATURES = ["volume", "area", "height_diff", "bounding_box_width",
                         "bounding_box_length", "convex_hull_volume"]


def _flat(b: pa.Table) -> pa.Table:
    """Flat-roof rows (key % 5 == 0): the generative subset whose geometry
    the exact oracles replicate in closed form."""
    ids = pc.cast(b.column("doc_id"), pa.int64()).to_numpy()
    return b.filter(pa.array(ids % 5 == 0))


def _flat_side(props: ray.data.Dataset, source: str,
               cols: list[str] | None = None) -> ray.data.Dataset:
    """Flat-roof rows of one side, narrowed to ``cols`` (None: all)."""
    return side_dataset(props, source, cols).map_batches(
        _flat, batch_format="pyarrow")


def _flat_blocker(sf_dir: str) -> tuple[ray.data.Dataset, pd.DataFrame]:
    """(cands, index_df): the flat-roof cands (streamed) and index frame
    over the fixed 6-key set — the inputs of the exact-f64 blocker whose
    ranks and distances the DuckDB oracles replicate bit-for-bit."""
    props = _props(sf_dir)
    cols = ["doc_id", *_FIXED_BLOCK_FEATURES]
    return (_flat_side(props, "cands", cols),
            _flat_side(props, "index", cols).to_pandas())


def _exact_nn(cands: ray.data.Dataset, index_df: pd.DataFrame,
              dim: int = 6) -> ray.data.Dataset:
    """Rank-21 nn table (bkafi_dim, cand_id, index_id, rank, dist) of the
    exact-f64 blocker over the first ``dim`` fixed keys."""
    return blk.bkafi_nn_dataset(cands, index_df, _FIXED_BLOCK_FEATURES[:dim],
                                bkafi_dim=dim, exact=True)


def _overlap(cands: ray.data.Dataset,
             index_df: pd.DataFrame) -> tuple[int, int]:
    """(|cands|, |cands ∩ index|) in one pass over the cands, each block
    probing the broadcast sorted index ids."""
    idx_ids = storage.broadcast(
        np.sort(index_df["doc_id"].astype(np.int64).to_numpy()))

    def count(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column("doc_id"), pa.int64()).to_numpy()
        hit = gates.sorted_member(idx_ids(), ids)
        return pa.table({"n": [len(ids)], "hit": [int(hit.sum())]})

    agg = cands.map_batches(count, batch_format="pyarrow") \
        .aggregate(Sum("n"), Sum("hit"))
    return int(agg["sum(n)"]), int(agg["sum(hit)"])


def _test_cands(sf_dir: str) -> tuple[ray.data.Dataset, dict]:
    """(test cands with all 25 properties, materialized; prep): the
    held-out cands the trained-prep recall tables block."""
    props, prep = _prep(sf_dir)
    return split_cands_dataset(
        side_dataset(props, "cands", ["doc_id", *PROPERTY_NAMES]),
        prep["split_ref"], prep["seed"], train=False).materialize(), prep


# ---------------------------------------------------------------------------
# geo queries
# ---------------------------------------------------------------------------

@query(o.GEO_PROPERTIES)
def geo_properties(sf_dir: str):
    """SQL-exact subset: 17 closed-form property columns, flat-roof cands."""
    return _flat_side(_props(sf_dir), "cands", ["doc_id", *EXACT_PROP_COLS])


@query()
def geo_properties_all(sf_dir: str):
    """All 25 properties, both sources (rows-only check)."""
    return _props(sf_dir).select_columns(["doc_id", "source", *PROPERTY_NAMES])


@query(o.GEO_PROPERTIES_ROOFS)
def geo_properties_roofs(sf_dir: str):
    """All-roof-type SQL-exact subset: bbox, height_diff, EXACT volume (all
    five roof archetypes incl. hipped/pyramidal), vertex/floor counts —
    checks the 3D volume kernel on non-box geometry bit-for-bit."""
    def pick(b: pa.Table) -> pa.Table:
        ks = pc.cast(b.column("doc_id"), pa.int64()).to_numpy()
        b = b.append_column("roof", pa.array((ks % 5).astype(np.int32)))
        return b.select(["doc_id", "roof", "bounding_box_width",
                         "bounding_box_length", "height_diff", "volume",
                         "num_vertices", "num_floors"])

    return side_dataset(_props(sf_dir), "cands").map_batches(
        pick, batch_format="pyarrow")


@query(o.GEO_CENTROIDS)
def geo_centroids(sf_dir: str):
    return _flat_side(_props(sf_dir), "cands", ["doc_id", "cx", "cy"])


@query(o.GEO_TILES)
def geo_tiles(sf_dir: str):
    """Raster<->vector tiling: footprint bbox cover at res 11 (64 m cells)."""
    return spatial.tiles_dataset(side_dataset(_props(sf_dir), "cands"),
                                 res=11)


@query(o.GEO_CELL_HIERARCHY)
def geo_cell_hierarchy(sf_dir: str):
    """Hierarchical H3/S2-style index rollup: res-11 tile cover ->
    cell_to_parent(res 8) -> per-parent distinct-cell / assignment counts
    (two tiny pre-aggregated shuffles).  Oracle-exact."""
    return spatial.cell_hierarchy(side_dataset(_props(sf_dir), "cands"),
                                  res=11, parent_res=8)


@query(o.GEO_RANGE_JOIN)
def geo_range_join(sf_dir: str):
    """Spatial range self-join (gap <= 2000 m — sized to the sparse test
    world's density; exact rectangle distance): expanded-bbox cell cover at
    res 5 (4096 m cells >= d, the lossless grid bound) -> cell shuffle ->
    per-cell pair generation, each pair kept only in its reference cell ->
    exact verify.  Oracle-exact."""
    return spatial.range_join(side_dataset(_props(sf_dir), "cands"),
                              d=2000.0, res=5)


@query(o.TILE_STATS)
def geo_tile_stats(sf_dir: str):
    """Per-tile zonal statistics (count / total / mean footprint area per
    64 m tile) — the aggregate half of the raster<->vector story, combiner
    pre-aggregation before the cell groupby.  Oracle-exact (dyadic sums +
    one mean division)."""
    return spatial.tile_stats(side_dataset(_props(sf_dir), "cands"), res=11)


@query(o.GEO_PIP)
def geo_pip(sf_dir: str):
    """Point-in-polygon join: per-doc probe points vs all cand footprints."""
    cands = side_dataset(_props(sf_dir), "cands")

    def mk_points(b: pa.Table) -> pa.Table:
        ks = pc.cast(b.column("doc_id"), pa.int64()).to_numpy()
        x0 = b.column("x0").to_numpy()
        y0 = b.column("y0").to_numpy()
        px = x0 + ((ks * 48271 + 11) % 320) / 8.0 + 0.0625
        py = y0 + ((ks * 69621 + 13) % 320) / 8.0 + 0.0625
        return pa.table({"p_id": pa.array(ks, type=pa.int64()),
                         "px": pa.array(px, type=pa.float64()),
                         "py": pa.array(py, type=pa.float64())})

    def mk_polys(b: pa.Table) -> pa.Table:
        x0 = b.column("x0").to_numpy()
        y0 = b.column("y0").to_numpy()
        w = b.column("bounding_box_width").to_numpy()
        l = b.column("bounding_box_length").to_numpy()
        rings = [[float(a), float(c), float(a + ww), float(c),
                  float(a + ww), float(c + ll), float(a), float(c + ll)]
                 for a, c, ww, ll in zip(x0, y0, w, l)]
        return pa.table({"doc_id": b.column("doc_id"),
                         "poly": pa.array(rings, type=pa.list_(pa.float64()))})

    points = cands.map_batches(mk_points, batch_format="pyarrow")
    polys = cands.map_batches(mk_polys, batch_format="pyarrow")
    return spatial.pip_join(points, polys, res=11)


@query(o.GEO_KNN)
def geo_knn_spatial(sf_dir: str):
    """Spatial kNN join (ring expansion): flat cands -> 5 nearest flat index
    docs by world centroid.  Cands stream; the index side is the narrow
    broadcast side of the ring-expansion join."""
    props = _props(sf_dir)
    cands = _flat_side(props, "cands", ["doc_id", "cx", "cy"])
    index_df = _flat_side(props, "index", ["doc_id", "cx", "cy"]).to_pandas()
    return spatial.knn_join(cands, index_df, k=5, res=8)


@query(o.GEO_PAIR_FEATURES)
def geo_pair_features(sf_dir: str):
    """Geometric pair features over matched flat-roof pairs (the north-rule
    match-feature trio): centroid distance, axis-aligned footprint-bbox IoU,
    exact rectangle Hausdorff distance.  Index side broadcast, cands stream.
    Oracle-exact (all-dyadic inputs; one sqrt / one division per value)."""
    props = _props(sf_dir)
    cols = ["doc_id", "x0", "y0", "bounding_box_width",
            "bounding_box_length", "cx", "cy"]
    cands = _flat_side(props, "cands", cols)
    index_df = _flat_side(props, "index", cols).to_pandas()
    return spatial.geom_pair_features(cands, index_df)


@query(o.GEO_BLOCK_BKAFI)
def geo_block_bkafi(sf_dir: str):
    """Feature-space kNN blocking table (fixed 6-dim key set, scaler fit on
    cands): (bkafi_dim, cand_id, index_id, rank, dist).  Cands stream; the
    index feature matrix is the broadcast small side.  Runs the operator's
    exact-f64 precision mode over the flat-roof generative subset so the
    RobustScaler fit + kNN ranking + distances are checked bit-for-bit by
    the DuckDB window-SQL oracle (reference blocking.py:106-133)."""
    return _exact_nn(*_flat_blocker(sf_dir))


@query()
def geo_match(sf_dir: str):
    """End-to-end blocking->matching: candidate pairs with label + prediction
    (rows-only; quality asserted in tests)."""
    props, prep = _prep(sf_dir)
    res = run_flagship(sf_dir, seed=1, bkafi_dim=6, k=5, props=props,
                       prep=prep)
    return res["scored"].select_columns(
        ["cand_id", "index_id", "rank", "label", "pred"])


@query()
def geo_blocking_recall_grid(sf_dir: str):
    """Blocking recall over a (bkafi_dim x k) grid with one trained prep —
    the reference's full evaluation sweep (pipelines.py:381-394 over
    bkafi_dim_list x cand_pairs_per_item_list).  Rows-only."""
    cands, prep = _test_cands(sf_dir)
    n_inter = prep["n_test"]  # test cands ⊆ index by construction
    frames = []
    # the reference's FULL sweep: bkafi_dim 1..24 x cand_pairs_per_item 1..20
    # (pipelines.py:381-394 over config.py:60-61's lists); each dim is one
    # blocker pass, ks are free rank-table filters on the rank-21 nn table
    for dim in range(1, 25):
        feats = blk.select_blocking_features(prep["importances"],
                                             prep["ratios"], dim)
        index_df = prep["index_df"][["doc_id", *feats]]
        nn = blk.bkafi_nn_dataset(cands, index_df, feats, dim)
        frames.append(metrics.blocking_recall(
            nn.materialize(), n_inter, ks=list(range(1, 21))))
    return pd.concat(frames, ignore_index=True)


@query(o.GEO_RECALL_GRID_EXACT)
def geo_recall_grid_exact(sf_dir: str):
    """Blocking-recall GRID over the exact-f64 flat-subset blocker: bkafi
    dims 1..6 (prefixes of the fixed feature order, standing in for the
    importance ranking) x k 1..20 — the reference's full evaluation sweep
    machinery (pipelines.py:381-394), with every rank table and recall
    division DuckDB-oracle-checked bit-for-bit.  The trained-prep grid over
    all 25 properties stays reported by geo_blocking_recall_grid."""
    cands, index_df = _flat_blocker(sf_dir)
    _, n_inter = _overlap(cands, index_df)
    return pd.concat([metrics.blocking_recall(
        _exact_nn(cands, index_df, dim), n_inter, ks=list(range(1, 21)),
        digits=None) for dim in range(1, 7)], ignore_index=True)


@query(o.GEO_RATIO_STD)
def geo_ratio_std(sf_dir: str):
    """Property-ratio mean/std table — the 'std' bkafi-criterion statistic
    (A1, reference classifier.py:224-233) in an ORDER-INSENSITIVE exact
    form: each matched-pair ratio (index/cand, one IEEE division) is
    quantized to 2^-20 (floor(r * 2^20), exact int), so the two moment
    sums are integer-exact under any accumulation order and the
    mean/std formula is a fixed chain of single IEEE ops — bit-replicable
    in SQL (the raw np.std variant the prep path uses is
    float-accumulation-order-bound and stays rows-only).  Emits one row
    per fixed blocking feature with the std-ascending rank the criterion
    sorts by."""
    QUANT = float(1 << 20)
    feats = _FIXED_BLOCK_FEATURES
    cands, index_df = _flat_blocker(sf_dir)
    index = storage.broadcast((
        np.sort(index_df["doc_id"].astype(np.int64).to_numpy()),
        index_df.sort_values("doc_id", key=lambda s: s.astype(np.int64))
        [feats].to_numpy(dtype=np.float64)))

    def partial(b: pa.Table) -> pa.Table:
        idx_ids, idx_mat = index()
        ids = pc.cast(b.column("doc_id"), pa.int64()).to_numpy()
        m = gates.sorted_member(idx_ids, ids)
        pos = np.searchsorted(idx_ids, ids[m])
        rows = []
        for k, f in enumerate(feats):
            vc = b.column(f).to_numpy()[m]
            vi = idx_mat[pos, k]
            rq = np.floor((vi / vc) * QUANT).astype(np.int64)
            s2 = int((rq.astype(object) ** 2).sum())
            # moment sums ride the shuffle split into 31-bit limbs so the
            # int64 Ray Sum cannot wrap at any corpus size (the driver
            # recombines with exact Python ints, matching the oracle's
            # HUGEINT sums bit-for-bit)
            s1 = int(rq.sum())
            rows.append((k, len(rq), s1 >> 31, s1 & 0x7FFFFFFF,
                         s2 >> 31, s2 & 0x7FFFFFFF))
        return pa.table({
            "fi": pa.array([r[0] for r in rows], type=pa.int64()),
            "n": pa.array([r[1] for r in rows], type=pa.int64()),
            "s1_hi": pa.array([r[2] for r in rows], type=pa.int64()),
            "s1_lo": pa.array([r[3] for r in rows], type=pa.int64()),
            "s2_hi": pa.array([r[4] for r in rows], type=pa.int64()),
            "s2_lo": pa.array([r[5] for r in rows], type=pa.int64()),
        })

    agg = cands.map_batches(partial, batch_format="pyarrow") \
        .groupby("fi").aggregate(Sum("n", alias_name="n"),
                                 Sum("s1_hi", alias_name="s1_hi"),
                                 Sum("s1_lo", alias_name="s1_lo"),
                                 Sum("s2_hi", alias_name="s2_hi"),
                                 Sum("s2_lo", alias_name="s2_lo")) \
        .to_pandas().sort_values("fi")
    out = []
    for _, r in agg.iterrows():
        n = int(r.n)
        s1 = (int(r.s1_hi) << 31) + int(r.s1_lo)
        s2 = (int(r.s2_hi) << 31) + int(r.s2_lo)
        mean = (float(s1) / n) / QUANT
        a = (float(s2) / n) / (QUANT * QUANT)
        var = a - mean * mean
        out.append({"feature": feats[int(r.fi)], "n_pairs": n,
                    "mean_ratio_q": mean,
                    "std_ratio_q": float(np.sqrt(max(var, 0.0)))})
    df = pd.DataFrame(out).sort_values(
        ["std_ratio_q", "feature"]).reset_index(drop=True)
    df["rnk"] = np.arange(1, len(df) + 1)
    return df


@query(o.GEO_BLOCKING_METRICS)
def geo_blocking_metrics(sf_dir: str):
    """Blocking recall / PC@K table (pipelines.py:369-394) over the exact-f64
    flat-subset bkafi blocker — the same rank-21 nn table geo_block_bkafi
    checks — so the recall arithmetic itself (distinct-true-pair best ranks,
    |cands∩index| denominator) is DuckDB-oracle-checked bit-for-bit.  The
    full-corpus flagship recalls stay reported by geo_blocking_recall_grid /
    _std (rows-only: the f32-tile fast path is not SQL arithmetic)."""
    cands, index_df = _flat_blocker(sf_dir)
    _, n_inter = _overlap(cands, index_df)
    return metrics.blocking_recall(_exact_nn(cands, index_df), n_inter,
                                   ks=[1, 5, 10, 20], digits=None)


# ---------------------------------------------------------------------------
# relational / text / dedup / similarity / multimodal
# ---------------------------------------------------------------------------


@query(o.REL_LINEITEM_AGG)
def q_lineitem_agg(sf_dir: str):
    return relational.lineitem_agg(sf_dir)


@query(o.REL_ORDERS_BY_NATION)
def q_orders_by_nation(sf_dir: str):
    return relational.orders_by_nation(sf_dir)


@query(o.REL_TOP_ORDERS)
def q_top_orders(sf_dir: str):
    return relational.top_orders(sf_dir)


@query(o.SHIPPING_PRIORITY)
def q_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape (3-way star join + top-k): segment custkeys broadcast,
    per-block revenue combiner, bucketed orderkey join, distributed top-10.
    Integer-cents revenue, so oracle-exact."""
    return relational.shipping_priority(sf_dir)


@query(o.REL_EVENTS_HOURLY)
def q_events_hourly(sf_dir: str):
    return relational.events_hourly(sf_dir)


@query(o.REL_CUSTOMERS_WITH_ORDERS)
def q_customers_with_orders(sf_dir: str):
    return relational.customers_with_orders(sf_dir)


@query(o.REL_CUSTOMERS_WITH_ORDERS)
def q_customers_bloom(sf_dir: str):
    """Exact semi join via a distributed-Bloom prefilter + bucketed verify
    (the 100-TB join shape); rows identical to q_customers_with_orders, so
    the same SQL is the oracle."""
    return relational.customers_with_orders_bloom(sf_dir)


@query(o.REL_CUSTOMERS_WITHOUT_ORDERS)
def q_customers_without_orders(sf_dir: str):
    return relational.customers_with_orders(sf_dir, anti=True)


@query(o.REL_PART_BRAND_AGG)
def q_part_brand_agg(sf_dir: str):
    return relational.supplier_part_join(sf_dir)


@query(o.REL_EVENTS_SLIDING)
def q_events_sliding(sf_dir: str):
    return relational.events_sliding(sf_dir)


@query(o.REL_EVENTS_RUNNING)
def q_events_running(sf_dir: str):
    return relational.events_running(sf_dir)


@query(o.EVENTS_SESSIONS)
def q_events_sessions(sf_dir: str):
    """Gap-based sessionization (30-min gap): per-event session id + size,
    user shuffle with one vectorized pass per call.
    Oracle-exact (all-int output)."""
    return relational.events_sessions(sf_dir)


@query(o.REL_EVENTS_ASOF)
def q_events_asof(sf_dir: str):
    return relational.events_asof_join(sf_dir)


@query(o.EVENTS_INTERVAL)
def q_events_interval(sf_dir: str):
    """Interval (band) self join: every unordered same-user event pair
    within ±30 min — user co-partition + one vectorized
    rank-composite searchsorted window match per call (no per-row loop,
    no cross product).  All-integer gap, oracle-exact."""
    return relational.events_interval_join(sf_dir)


@query(o.EVENTS_QUANTILES)
def q_events_quantiles(sf_dir: str):
    """Exact grouped percentiles (q25/median/q75 of value per event_type)
    via the distributed value-histogram combiner + np.percentile-exact
    weighted lerp.  Oracle-exact (window-SQL rank arithmetic)."""
    return relational.events_quantiles(sf_dir)


@query(o.EVENTS_HEAVY_HITTERS)
def q_events_heavy_hitters(sf_dir: str):
    """Misra-Gries heavy hitters over events.user_id (count*129 > n), exact
    counts via the sketch -> tracked-undercount candidates -> exact-verify
    pattern; only bounded sketch entries ever ride a shuffle.  Oracle-exact
    (plain GROUP BY / HAVING)."""
    ds = read_parquet_clean(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id"])
    return relational.heavy_hitters(ds, col="user_id", denom=129,
                                    capacity=2048)


@query(o.GEO_BLOCK_CENTROID)
def geo_block_centroid(sf_dir: str):
    """Exhaustive centroid blocker (reference 'centroid' method,
    blocking.py:62-76): top-21 nearest index centroids per cand, exact
    dyadic squared distances — over the flat-roof generative subset so the
    full ranking is checked bit-for-bit by the DuckDB window-SQL oracle."""
    props = _props(sf_dir)
    cand_df = _flat_side(props, "cands", ["doc_id", "cx", "cy"]).to_pandas()
    index_df = _flat_side(props, "index", ["doc_id", "cx", "cy"]).to_pandas()
    return blk.get_blocker("centroid")(cand_df, index_df)


@query(o.GEO_THRESHOLD_SWEEP)
def geo_threshold_sweep(sf_dir: str):
    """Percentile threshold sweep over the nn table
    (bkafi_with_threshold.py:131-141, 232-269): for each percentile of the
    matched-pair distances, candidate-pair count + recall + reduction ratio.

    Runs the exact-f64 blocker over the flat generative subset so thresholds
    (np.percentile arithmetic), counts and the exact ratio columns are all
    checked bit-for-bit by the DuckDB oracle."""
    cands, index_df = _flat_blocker(sf_dir)
    nn = _exact_nn(cands, index_df).materialize()
    # matched-pair distances: distributed filter, tiny collect
    match_d = nn.map_batches(
        lambda b: b.filter(pc.equal(b.column("cand_id"), b.column("index_id"))),
        batch_format="pyarrow").select_columns(["dist"]).to_pandas()["dist"].to_numpy()
    thr = metrics.percentile_threshold_table(match_d, num_points=200)
    n_cands, n_inter = _overlap(cands, index_df)

    def sweep_counts(b: pa.Table) -> pa.Table:
        d = b.column("dist").to_numpy()
        pos = pc.equal(b.column("cand_id"), b.column("index_id")) \
            .to_numpy(zero_copy_only=False)
        keep = d[None, :] <= thr[:, None]
        return pa.table({
            "ti": pa.array(np.arange(len(thr), dtype=np.int32)),
            "kept": pa.array(keep.sum(1).astype(np.int64)),
            # a true pair appears at most once per cand, so this count equals
            # the distinct-cand recall numerator
            "pos": pa.array((keep & pos[None, :]).sum(1).astype(np.int64)),
        })

    agg = nn.map_batches(sweep_counts, batch_format="pyarrow") \
        .groupby("ti").aggregate(Sum("kept", alias_name="kept"),
                                 Sum("pos", alias_name="pos")) \
        .to_pandas().sort_values("ti")
    rows = []
    for (_, a), pct in zip(agg.iterrows(), np.linspace(0, 100, 200)):
        rows.append({
            "percentile": float(pct),
            "threshold": float(thr[int(a.ti)]),
            "cand_pairs": int(a.kept),
            # exact int ratios (unrounded) so the oracle hash-compares
            "recall": int(a.pos) / n_inter,
            "reduction_ratio": metrics.reduction_ratio(
                int(a.kept), n_cands, len(index_df)),
        })
    return pd.DataFrame(rows)


@query(o.GEO_BLOCK_CELLS)
def geo_block_cells(sf_dir: str):
    """Cell-partitioned blocking (the 10^12-scale shuffle path with hot-cell
    salting): candidate pairs from spatial co-partitioning.  Runs over the
    flat-roof generative subset so the ring-restricted top-21 ranking and
    exact dyadic squared distances are checked bit-for-bit by the DuckDB
    window-SQL oracle (the geo_block_centroid technique); the full-corpus
    cell path is exercised in bench and the salting tests."""
    flat_props = _props(sf_dir).select_columns(["doc_id", "source", "cx", "cy"]) \
        .map_batches(_flat, batch_format="pyarrow")
    return blk.cell_blocking(flat_props, res=9, ring=1)


@query(o.GEO_BLOCK_EMBEDDING)
def geo_block_embedding(sf_dir: str):
    """Embedding blocker over per-doc media-span features (the reference's
    ViT-B/32 baseline slot: encoder stage -> faiss IndexFlatIP top-k,
    blocking.py:176-191).  Runs the operator's exact-cosine precision mode
    (integer dot / norm product) so the whole stage — stub encode, cosine,
    top-5 ranking with numeric-id ties — is DuckDB-oracle-checked
    bit-for-bit."""
    feats = multimodal.media_features(corpus_dataset(sf_dir)).materialize()
    # cands stream; the index side broadcasts only under the declared row
    # bound (else it stages shard-by-shard — same rows bit-for-bit)
    return blk.embedding_nn_auto(side_dataset(feats, "cands"),
                                 side_dataset(feats, "index"), nn_param=5,
                                 exact=True)


@query()
def multimodal_real(sf_dir: str):
    """Real-bytes media blocking — T7 end to end (reference ViT path,
    utils.py:45-67,100-163): wireframe render -> REAL PNG bytes -> stdlib
    decode -> numpy patch-embedding encoder (seeded projection loaded once
    per worker) -> cosine top-5 against the broadcast index embedding
    matrix.  Rows-only: PNG rasterization + zlib round-trip + random
    projection are not SQL-expressible; pinned by the planted-recall and
    codec round-trip tests."""
    emb = multimodal.patch_embeddings(_render(sf_dir)).materialize()
    # size-gated: index broadcasts only within the
    # gates.MAX_BROADCAST_INDEX_ROWS budget, else shard-staged exact top-k
    # (bit-identical; pinned by test)
    return blk.embedding_nn_auto(side_dataset(emb, "cands"),
                                 side_dataset(emb, "index"), nn_param=5)


@query()
def media_resize(sf_dir: str):
    """Media resize stage (the decode -> resize half of a media pipeline):
    render -> real PNG bytes -> stdlib decode -> nearest-neighbor 64->16
    downsample -> re-encode, task pool; emits per-doc in/out byte sizes +
    CRC (payloads stay in the pipeline).  Rows-only (zlib bytes).  Consumes
    the shared render memo (_render)."""
    return multimodal.media_resize(_render(sf_dir), out_size=16)


@query()
def media_frames(sf_dir: str):
    """Frame sampling over each doc's media-span sequence (every 2nd media
    span, order preserved) — the video frame-sample slot as a stateless
    vectorizable map.  Rows-only (spans are engine-derived)."""
    return multimodal.frame_sample(corpus_dataset(sf_dir), stride=2)


@query(o.MEDIA_AUDIO)
def media_audio(sf_dir: str):
    """Audio modality slot: declared-stub waveform decode (square wave keyed
    by md5(media_ref) — no audio libs in this container) + REAL vectorized
    DSP per span (energy sum-of-squares, zero-crossing scan, exact minimal
    lag periodicity).  All-integer waveform, so every feature is exact and
    the oracle replicates via closed forms over the same md5."""
    return multimodal.audio_features(corpus_dataset(sf_dir))


@query(o.MEDIA_VIDEO)
def media_video(sf_dir: str):
    """Video modality slot: declared-stub clip decode (8-frame moving-edge
    clip keyed by md5(media_ref) — no video libs in this container) + REAL
    vectorized frame ops per span (per-frame sum, edge-column detection on
    the pixel array, L1 frame-difference motion energy).  All-integer
    frames, so every feature is exact and the oracle replicates in closed
    form over the same md5."""
    return multimodal.video_features(corpus_dataset(sf_dir))


@query()
def geo_contamination(sf_dir: str):
    """Contamination robustness (contamination_experiments.py:67-85):
    contaminate 20% of test pair features, rescore, report flips.  Rows-only."""
    state = _state(sf_dir)
    scored = matching_inference_pipeline(corpus_dataset(sf_dir), state)
    # rebuild features deterministically, contaminate, re-predict
    feat = pairs.pair_features_join(
        scored.select_columns(["cand_id", "index_id", "label", "pred"]),
        _props(sf_dir))
    cont = contaminate(feat, fraction=0.2, seed=1)
    rescored = matching.predict_dataset(
        cont.drop_columns(["pred"]), state["matcher"], RATIO_FEATURE_NAMES)
    return rescored.select_columns(
        ["cand_id", "index_id", "label", "pred", "contaminated"])


@query()
def matching_models_eval(sf_dir: str):
    """Per-model-family matching evaluation — the reference's Table 6 loop
    (classifier.py:106-176 over config.py:75-76's six-family model_list,
    plus LogisticRegression as an extra): for each of the 7 families,
    deterministic grid-search CV fit on the blocking-based train matrix,
    then P/R/F1 + train/inference seconds on the held-out test matrix.
    GEO_FULL_GRIDS=1 switches to the reference-scale FULL_GRIDS
    (config.py:79-128); the default grids keep the correctness driver
    bounded.  Rows-only (timings are environment-dependent)."""
    import time

    from engine.matching import (DEFAULT_GRIDS, FULL_GRIDS, MODEL_REGISTRY,
                                 f1_binary, grid_search_fit)
    grids = FULL_GRIDS if os.environ.get("GEO_FULL_GRIDS") == "1" \
        else DEFAULT_GRIDS
    tr, te, _ = _ttf(sf_dir)
    Xtr = tr[RATIO_FEATURE_NAMES].to_numpy(dtype=np.float64)
    ytr = tr["label"].to_numpy(dtype=np.int8)
    Xte = te[RATIO_FEATURE_NAMES].to_numpy(dtype=np.float64)
    yte = te["label"].to_numpy(dtype=np.int8)
    rows = []
    for name in MODEL_REGISTRY:
        t0 = time.time()
        model, best, cv_f1 = grid_search_fit(
            name, grids[name], Xtr, ytr, seed=1)
        train_sec = time.time() - t0
        t0 = time.time()
        pred = model.predict(Xte)
        inference_sec = time.time() - t0
        f1, p, r = f1_binary(yte, pred)
        rows.append({
            "model": name, "precision": round(p, 4), "recall": round(r, 4),
            "f1": round(f1, 4), "cv_f1": round(cv_f1, 4),
            "train_sec": round(train_sec, 3),
            "inference_sec": round(inference_sec, 4),
            "best_params": str(best),
        })
    return pd.DataFrame(rows)


@query()
def contamination_retrain(sf_dir: str):
    """Contamination retraining experiment (reference
    contamination_experiments.py:137-161): contaminate a sweep of TRAIN
    feature fractions, retrain the matcher on each, evaluate every model on
    the same CLEAN test matrix; reports the clean-vs-contaminated F1
    degradation.  Rows-only."""
    from engine.matching import RandomForest, f1_binary
    tr, te, _ = _ttf(sf_dir)
    Xte = te[RATIO_FEATURE_NAMES].to_numpy(dtype=np.float64)
    yte = te["label"].to_numpy(dtype=np.int8)
    rows = []
    for fraction in (0.0, 0.2, 0.5):
        if fraction == 0.0:
            tdf = tr
        else:
            # from_arrow with stripped metadata: from_pandas would attach
            # the b'pandas' schema-metadata dict, whose unhashable schema
            # defeats Ray's shuffle-side schema dedup (see storage.py)
            tds = ray.data.from_arrow(
                pa.Table.from_pandas(tr, preserve_index=False)
                .replace_schema_metadata(None)).repartition(8)
            tdf = contaminate(tds, fraction=fraction, seed=1).to_pandas() \
                .sort_values(["cand_id", "index_id"]).reset_index(drop=True)
        model = RandomForest(random_state=1).fit(
            tdf[RATIO_FEATURE_NAMES].to_numpy(dtype=np.float64),
            tdf["label"].to_numpy(dtype=np.int8))
        f1, p, r = f1_binary(yte, model.predict(Xte))
        rows.append({"train_fraction_contaminated": fraction,
                     "precision": round(p, 4), "recall": round(r, 4),
                     "f1": round(f1, 4)})
    base = rows[0]["f1"]
    for row in rows:
        row["f1_delta_vs_clean"] = round(row["f1"] - base, 4)
    return pd.DataFrame(rows)


@query()
def geo_blocking_recall_std(sf_dir: str):
    """Blocking recall under the 'std' bkafi criterion (blocking keys =
    properties with LOWEST train ratio std, reference blocking.py:136-138 /
    classifier.py:224-233) side by side with the default
    feature-importance keys.  Rows-only."""
    cands, prep = _test_cands(sf_dir)
    n_inter = prep["n_test"]  # test cands ⊆ index by construction
    frames = []
    for crit in ("feature_importance", "std"):
        feats = blk.select_blocking_features(
            prep["importances"], prep["ratios"], 6, criterion=crit)
        index_df = prep["index_df"][["doc_id", *feats]]
        nn = blk.bkafi_nn_dataset(cands, index_df, feats, 6)
        rec = metrics.blocking_recall(nn.materialize(), n_inter,
                                      ks=[1, 5, 10, 20])
        rec.insert(0, "criterion", crit)
        frames.append(rec)
    return pd.concat(frames, ignore_index=True)


@query()
def geo_match_concat(sf_dir: str):
    """End-to-end matching with the CONCATENATION pair-feature variant
    (reference process_pairs.py:30-40: [cand props..., index props...]
    instead of ratios): train + score on concatenated features over the
    blocking-based pairs.  Rows-only."""
    from engine.matching import RandomForest, f1_binary
    tr, te, prep = _ttf(sf_dir)
    cand_df = side_frame(_props(sf_dir), "cands", ["doc_id", *PROPERTY_NAMES])
    index_df = prep["index_df"]
    cols = [f"{p}_cand" for p in PROPERTY_NAMES] + \
        [f"{p}_index" for p in PROPERTY_NAMES]

    def concat_feats(pairs_df):
        ds = ray.data.from_arrow(
            pa.Table.from_pandas(
                pairs_df[["cand_id", "index_id", "label"]],
                preserve_index=False)
            .replace_schema_metadata(None)).repartition(8)
        out = pairs.concatenation_features_dataset(ds, cand_df, index_df)
        return out.to_pandas().sort_values(
            ["cand_id", "index_id"]).reset_index(drop=True)

    trc, tec = concat_feats(tr), concat_feats(te)
    model = RandomForest(random_state=1).fit(
        trc[cols].to_numpy(dtype=np.float64),
        trc["label"].to_numpy(dtype=np.int8))
    pred = model.predict(tec[cols].to_numpy(dtype=np.float64))
    tec = tec[["cand_id", "index_id", "label"]].copy()
    tec["pred"] = pred.astype(np.int8)
    return tec


@query()
def contrastive_matching(sf_dir: str):
    """Contrastive-head matching baseline (reference
    contrastive_training_matching_with contamination.py:74-131: Siamese
    encoder -> |emb_a - emb_b| -> Linear(d,128)->ReLU->Linear(128,1), BCE on
    blocking-based train pairs, scored on blocking-based test pairs).  The
    encoder is the declared media-feature stub; the head is the seeded
    deterministic MLP.  Emits (cand_id, index_id, label, pred).  Rows-only;
    quality floor + contamination delta asserted in tests."""
    tr, te, _ = _ttf(sf_dir)
    cand_feats, index_feats = contrastive.media_feature_frames(
        multimodal.media_features(corpus_dataset(sf_dir)))
    head = contrastive.fit_contrastive_head(tr, cand_feats, index_feats,
                                            seed=1)
    return contrastive.score_pairs(head, te, cand_feats, index_feats)


@query(o.GEO_BLOCKING_DIRTY)
def geo_blocking_dirty(sf_dir: str):
    """Dirty-split blocking evaluation (reference data_partition_dirty.py:
    112-127): 60% of cands∩index are sampled as test cands, then 20% of
    those are REMOVED from the index side, making them unmatched queries;
    recall is reported over the matchable subset.  Runs over the exact-f64
    flat-roof subset (like geo_block_bkafi / geo_blocking_metrics) so the
    whole chain — md5 dirty split, scaler fit on the FILTERED cand side,
    kNN ranking, exact recall division — is DuckDB-oracle-checked
    bit-for-bit."""
    cands_all, index_df = _flat_blocker(sf_dir)
    cands_all = cands_all.materialize()
    cand_ids = cands_all.select_columns(["doc_id"]).to_pandas()[
        "doc_id"].tolist()
    test_cands, index_keep, removed = splits.dirty_blocking_split(
        cand_ids, index_df["doc_id"].tolist(), seed=1)
    cands = joins.broadcast_semi_join(cands_all, "doc_id", test_cands)
    index_df = index_df[index_df.doc_id.isin(set(index_keep))] \
        .reset_index(drop=True)
    nn_hits = _exact_nn(cands, index_df).map_batches(
        lambda b: b.filter(pc.equal(b.column("cand_id"),
                                    b.column("index_id"))),
        batch_format="pyarrow").select_columns(["cand_id", "rank"]).to_pandas()
    best = nn_hits.groupby("cand_id")["rank"].min()
    matchable = len(test_cands) - len(removed)
    rows = []
    for k in (1, 5, 10, 20):
        rows.append({
            "k": k,
            "n_test_cands": len(test_cands),
            "n_unmatched": len(removed),
            # exact IEEE division — the oracle pins this value bit-for-bit
            "recall_matchable": float((best <= k).sum()) / matchable,
        })
    return pd.DataFrame(rows)


@query()
def geo_render(sf_dir: str):
    """PNG mesh renders (the reference's K5 figure stage, utils.py:134-163 /
    generate_png_figs.py): per-doc deterministic wireframe PNG via the
    task-pool render stage; emits (doc_id, source, png_size, png_crc) —
    the binary payload itself stays in the pipeline.  Rows-only.  Consumes
    the shared render memo (_render)."""
    import zlib as _z

    def meta(b: pa.Table) -> pa.Table:
        pngs = b.column("png").to_pylist()
        return pa.table({
            "doc_id": b.column("doc_id"),
            "source": b.column("source"),
            "png_size": pa.array([len(p) for p in pngs], type=pa.int64()),
            "png_crc": pa.array([_z.crc32(p) for p in pngs],
                                type=pa.int64()),
        })

    return _render(sf_dir).map_batches(meta, batch_format="pyarrow")


@query(o.TEXT_STATS)
def text_stats(sf_dir: str):
    return text.text_stats(_docs(sf_dir))


@query(o.TEXT_LANGID)
def text_langid(sf_dir: str):
    return text.lang_id(_docs(sf_dir))


@query(o.TEXT_FINGERPRINT)
def text_fingerprint(sf_dir: str):
    return text.fingerprint(_docs(sf_dir))


@query(o.TEXT_TOKENS)
def text_tokens(sf_dir: str):
    """Whitespace + BPE-ish-regex token counting (compiled-regex task
    stage); int columns, oracle-exact."""
    return text.token_counts(_docs(sf_dir))


@query(o.QUALITY_FILTER)
def quality_filter(sf_dir: str):
    """Gopher-style rule-based quality gate (length / mean-word-length /
    stopword / lexical-diversity rules, all integer comparisons) — one row
    per doc with per-rule booleans and the final keep flag.  Oracle-exact."""
    return text.quality_filter(_docs(sf_dir))


@query(o.CORPUS_SAMPLE)
def corpus_sample(sf_dir: str):
    """Deterministic stratified sampling: downsample 'en' (the
    over-represented stratum) to 25%, keep other languages at 75%, via a
    pure md5-per-row keep rule — identical membership at any parallelism.
    Oracle-exact (md5_number_upper replicates stable_hash64)."""
    docs = read_parquet_clean(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "source", "n_chars"])
    return text.stratified_sample(docs, rates={"en": 0.25},
                                  default_rate=0.75, seed=1)


@query(o.CURATION_PIPELINE)
def curation_pipeline(sf_dir: str):
    """End-to-end training-data curation as ONE composed streaming flow —
    the 'a user of this engine curates a pre-training corpus' showcase:
    Gopher quality gate (passthrough) -> exact-dedup keep-first (digest
    combiner + digest shuffle, then a bucketed semi join back to the
    kept stream) -> benchmark n-gram decontamination (broadcast
    membership) -> the surviving docs' (doc_id, n_grams).  Every stage is
    the engine's own operator; the oracle chains their SQL as CTEs.
    Benchmark convention: doc_id % 97 == 0 (the DECONTAM oracle's)."""
    docs = read_parquet_clean(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])

    def keepers(b: pa.Table) -> pa.Table:
        b = b.filter(b.column("keep"))
        return b.select(["doc_id", "text"])

    kept = text.quality_filter(docs, passthrough=True) \
        .map_batches(keepers, batch_format="pyarrow")
    firsts = dedup.exact_dedup(kept).select_columns(["doc_id"])
    surv = joins.bucketed_semi_join(kept, firsts, "doc_id", "doc_id")

    def side(bench: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy()
            is_b = (ids % 97) == 0
            return b.filter(pa.array(is_b if bench else ~is_b))
        return f

    bench = docs.map_batches(side(True), batch_format="pyarrow")
    train = surv.map_batches(side(False), batch_format="pyarrow")
    flags = dedup.decontaminate(train, bench, n=3)

    def finish(b: pa.Table) -> pa.Table:
        b = b.filter(pc.invert(b.column("contaminated")))
        return b.select(["doc_id", "n_grams"])

    return flags.map_batches(finish, batch_format="pyarrow")


@query(o.RESERVOIR_SAMPLE)
def reservoir_sample(sf_dir: str):
    """Deterministic per-group reservoir sample: exactly min(50, |group|)
    docs per language, the 50 smallest stable hashes each — bounded-state
    per-block combiner then one tiny groupby merge.  Oracle-exact
    (md5_number_upper replicates stable_hash64; ROW_NUMBER replicates the
    hash rank)."""
    docs = read_parquet_clean(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang"])
    return text.reservoir_per_group(docs, group_col="lang", k=50, seed=1)


@query(o.LM_QUALITY)
def lm_quality(sf_dir: str):
    """Unigram LM-cost quality filter (CCNet/KenLM archetype, integer-exact
    dyadic code lengths): per-doc bits, bits-per-token, keep at 9 bits/token.
    Oracle-exact including the model fit."""
    return text.lm_quality(_docs(sf_dir))


@query(o.MIXTURE_SAMPLE)
def mixture_sample(sf_dir: str):
    """Temperature-scaled multilingual mixture sampling (mT5/XLM-R tau=2):
    keep rate sqrt(n_lang/n_max) with md5 membership; bounded #langs driver
    collect.  Oracle-exact."""
    p = os.path.join(sf_dir, "documents.parquet")
    docs = read_size_aware(p, 32,
                           columns=["doc_id", "lang", "source", "n_chars"])
    return text.mixture_sample(docs, seed=1)


@query(o.DECONTAM)
def decontam(sf_dir: str):
    """Benchmark n-gram decontamination (GPT-3 appx C / Llama 2 §A.6): docs
    with doc_id % 97 == 0 stand in as the eval benchmark; every other doc is
    flagged if it shares any distinct word 3-gram with the benchmark.
    Broadcast small-side membership, streaming train side.  Oracle-exact."""
    docs = _docs(sf_dir)

    def split(is_bench: bool):
        def f(b: pa.Table) -> pa.Table:
            m = b.column("doc_id").to_numpy() % 97 == 0
            return b.filter(pa.array(m if is_bench else ~m))
        return docs.map_batches(f, batch_format="pyarrow")

    return dedup.decontaminate(split(False), split(True), n=3)


@query(o.DEDUP_EXACT)
def dedup_exact(sf_dir: str):
    return dedup.exact_dedup(dedup.planted_dup_corpus(_docs(sf_dir)))


@query(o.DEDUP_NGRAM)
def dedup_ngram(sf_dir: str):
    return dedup._dedup_keyed_rows(_ngram_pairs(sf_dir), ["a_id", "b_id"])


@query(o.DEDUP_SUBSTRING)
def dedup_substring(sf_dir: str):
    """Substring-level duplication profile (Lee et al. 2022 ExactSubstr
    signal, 8-token windows) over the planted-dup corpus: per-doc duplicated
    positions, exact fraction, removal flag.  Oracle-exact."""
    return dedup.substring_dup_stats(dedup.planted_dup_corpus(_docs(sf_dir)),
                                     w=8)


@query(o.DEDUP_CLUSTERS)
def dedup_clusters(sf_dir: str):
    """Near-dup clustering: connected components (distributed min-label
    propagation) over the verified ngram-Jaccard pairs; one row per doc in a
    dup pair, cluster_id = min doc id of its component — the canonical
    representative a dedup pass keeps."""
    return dedup.dup_clusters(_ngram_pairs(sf_dir))


@query(o.DEDUP_MINHASH)
def dedup_minhash(sf_dir: str):
    return dedup._dedup_keyed_rows(
        dedup.minhash_lsh_pairs(dedup.planted_dup_corpus(_docs(sf_dir)),
                                threshold=0.5), ["a_id", "b_id"])


@query(o.DEDUP_SIMHASH)
def dedup_simhash(sf_dir: str):
    return dedup.simhash_signatures(dedup.planted_dup_corpus(_docs(sf_dir)))


@query(o.DEDUP_SIMHASH_PAIRS)
def dedup_simhash_pairs(sf_dir: str):
    """SimHash near-dup pairs: banded blocking (pigeonhole-lossless for
    hamming <= 3) + popcount verify over the planted-dup corpus — equals the
    oracle's brute-force popcount join bit-for-bit."""
    return dedup._dedup_keyed_rows(
        dedup.simhash_pairs(dedup.planted_dup_corpus(_docs(sf_dir))),
        ["a_id", "b_id"])


@query(o.DEDUP_EMBEDDING)
def dedup_embedding(sf_dir: str):
    """Embedding near-dup over a corpus with planted jittered copies
    (cosine ~0.999); natural pairs are near-orthogonal."""
    return dedup._dedup_keyed_rows(_emb_pairs(sf_dir), ["a_id", "b_id"])


@query(o.DEDUP_SEMANTIC)
def dedup_semantic(sf_dir: str):
    """SemDeDup-style corpus-level removal: embedding near-dup pairs ->
    connected components -> keep each component's min-id representative;
    returns the kept vec_ids of the planted corpus (bucketed anti-join —
    the exclusion side never collects to the driver)."""
    return dedup.semantic_dedup_ids(
        dedup.planted_neardup_embeddings(_emb(sf_dir)),
        pairs=_emb_pairs(sf_dir))


@query(o.CORPUS_STATS)
def corpus_stats(sf_dir: str):
    """Per-language corpus curation report (doc/token/char budgets, stopword
    fraction, lexical diversity): language-ID + tokenization fused into a
    per-batch partial-sum combiner, then a tiny groupby over #blocks x #langs
    rows — the canonical pre-filter report of a training-data pipeline."""
    return text.corpus_stats(_docs(sf_dir))


@query(o.TFIDF_TOPK)
def text_tfidf(sf_dir: str):
    """Per-doc top-5 terms by rational tf-idf (tf * N / df — log-free so
    every score is one exact IEEE division): explode → combiner-pre-aggregated
    df groupby → bucketed term join → doc-shuffle vectorized top-k.
    Oracle-exact (row_number over the identical total order)."""
    return text.tfidf_topk(_docs(sf_dir), k=5)


@query(o.TEXT_REPETITION)
def text_repetition(sf_dir: str):
    """Gopher repetition rules (Rae et al. 2021 §A1.1): duplicate-bigram
    fraction + most-common-word fraction per doc, keep flags by integer
    cross-multiplication.  Stateless map_batches; oracle-exact."""
    return text.repetition_stats(_docs(sf_dir))


@query(o.VOCAB_MERGE_PAIRS)
def vocab_merge_pairs(sf_dir: str):
    """One BPE merge-selection round (Sennrich et al. 2016): corpus-wide
    adjacent-token pair counts, global top-50 under the deterministic
    (count desc, left, right) total order.  Combiner partial counts ->
    pair shuffle -> lossless per-call top-k -> (calls x 50)-row driver
    merge.  Oracle-exact."""
    return text.merge_pair_counts(_docs(sf_dir))


@query(o.TEXT_PII_SCRUB)
def text_pii_scrub(sf_dir: str):
    """PII detection + redaction (the scrub stage of a CCNet/Dolma-style
    curation pipeline) over the planted-PII corpus: per-doc match counts
    per class (email / phone / internal IP), post-redaction length, and a
    has_pii flag — all pyarrow.compute RE2 kernels, zero per-row Python.
    DuckDB shares the RE2 engine, so every count and the redacted length
    are oracle-exact."""
    return text.pii_scrub(text.planted_pii_corpus(_docs(sf_dir)))


@query(o.INVERTED_INDEX)
def inverted_index(sf_dir: str):
    """Distributed inverted-index build: term → df + first-32 ascending
    posting list (comma-joined), per-doc distinct explode → term
    shuffle → one vectorized segment slice per call.  Oracle-exact."""
    return text.inverted_index(_docs(sf_dir), max_postings=32)


@query(o.PACK_SEQUENCES)
def pack_sequences(sf_dir: str):
    """Sequence packing (contiguous GPT-style data-loader layout): global
    token prefix sum in doc_id order via 64 doc_id ranges + a driver-side
    64-entry cumsum, window_id = start_offset // 256.  Oracle-exact
    (SQL window cumsum)."""
    return text.pack_sequences(_docs(sf_dir), window=256)


@query(o.APPROX_DISTINCT)
def approx_distinct(sf_dir: str):
    """KMV distinct-count sketch over the 3-gram shingle space (k=256):
    per-block k-min combiner -> two-level lossless merge -> one-row
    estimate.  Deterministic md5 hashing, so oracle-exact."""
    return text.approx_distinct_kmv(_docs(sf_dir), k=256, n=3)


@query(o.SIM_KNN)
def sim_knn_cosine(sf_dir: str):
    emb = _emb(sf_dir)
    return similarity.brute_knn(emb, query_ids=list(range(20)), k=10)


@query(o.SIM_KNN_LSH)
def sim_knn_lsh(sf_dir: str):
    emb = _emb(sf_dir)
    return similarity.lsh_knn(emb, query_ids=list(range(20)), k=10)


@query()
def sim_knn_ivf(sf_dir: str):
    """IVF-bucketed approximate kNN (faiss IndexIVFFlat analogue: coarse
    k-means quantizer + probe-limited scan).  Rows-only; recall vs brute
    asserted in tests."""
    emb = _emb(sf_dir)
    return similarity.ivf_knn(emb, query_ids=list(range(20)), k=10)


@query(o.MULTIMODAL_FEATURES)
def multimodal_features(sf_dir: str):
    """Media-span feature stage with the feature vector flattened to
    SQL-exact f0..f7 columns (the stub decode — md5 bytes, L2-normalized —
    is integer/correctly-rounded arithmetic, so the whole stage is
    oracle-checked bit-for-bit; the list-typed `media_features` table stays
    the internal API for the embedding blocker / contrastive head)."""
    feats = multimodal.media_features(corpus_dataset(sf_dir))

    def flat(b: pa.Table) -> pa.Table:
        m = joins.list_column_matrix(b.column("feature"))
        cols = {"doc_id": b.column("doc_id"), "source": b.column("source"),
                "media_ref": b.column("media_ref"),
                "offset": b.column("offset")}
        for j in range(multimodal.FEATURE_DIM):
            vals = m[:, j] if m.size else np.empty(0)
            cols[f"f{j}"] = pa.array(vals, type=pa.float64())
        return pa.table(cols)

    return feats.map_batches(flat, batch_format="pyarrow")


# Sweep order: these entries first, then definition order.  The external
# correctness driver records only the first ~50 entries per round; these are
# the plans rewritten after their last recorded row.
_LEAD = ("text_tfidf", "geo_knn_spatial", "dedup_substring", "dedup_ngram",
         "media_resize", "q_shipping_priority")
QUERIES = {n: QUERIES[n] for n in (*_LEAD, *QUERIES)}

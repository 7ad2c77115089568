"""Flagship end-to-end pipeline: ingest -> properties -> split -> prep-train
-> blocking -> pair features -> matching -> metrics.

Mirrors the reference lifecycle (SURVEY.md §3): PipelineManager's stages
(/root/reference/pipelines.py:408-420, 589-626) as one composable Ray flow.

Residency policy (scale-first): the document stream, the property table and
every per-row stage are ray.data Datasets end to end.  What reaches the
driver in the set-up (prep_train + prepare_state), after the property table
is materialized:

(a) the index side, doc_id + 25 properties, collected once (side_frame): the
    broadcast small side of this physical plan (the reference's KDTree and
    property dict, blocking.py:106-118);
(b) the train cands, doc_id + 25 properties + their sampled negatives, and
    the test-cand count, from one pass over the cands side (never a test id
    or a test row);
(c) the (value, count) distribution of each selected feature over all cands
    (blocking.robust_scale_stats_ds);
(d) above ``gates.MAX_DRIVER_KNN_CELLS``, the train kNN's narrow rank table.

Both train matrices, both fits (the reference fits on the driver,
classifier.py:150-163), the ratio statistics and the train kNN below that
gate run in numpy over (a) and (b).  The evaluation side (run_flagship's
test split, train_test_features' test pairs) streams its cands, but its
pair features go through pairs.pair_features_join, whose driver plan
collects both sides' property tables (doc_id + 25 properties) within
``gates.BROADCAST_MAX_SIDE_ROWS``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from engine import blocking as blk
from engine import gates, matching, metrics, pairs, splits, storage
from engine.corpus import corpus_dataset
from engine.geometry import PROPERTY_NAMES
from engine.pairs import RATIO_FEATURE_NAMES, ratio_features
from engine.properties import _props_batch, properties_dataset


STATE_VERSION = "r4"  # bump when the state's semantics or classes change


def property_table(sf_dir: str, n_cands: int | None = None,
                   log_transform: bool = False) -> ray.data.Dataset:
    """docs -> materialized property Dataset (stays distributed; nothing is
    collected here)."""
    docs = corpus_dataset(sf_dir, n_cands)
    return properties_dataset(docs, log_transform=log_transform).materialize()


def side_dataset(props: ray.data.Dataset, source: str,
                 cols: list[str] | None = None) -> ray.data.Dataset:
    """One side ('cands'|'index') of the two-source property table."""
    def pick(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("source"), pa.scalar(source)))
        return b.select(cols) if cols else b

    return props.map_batches(pick, batch_format="pyarrow")


def side_frame(props: ray.data.Dataset, source: str,
               cols: list[str] | None) -> pd.DataFrame:
    """Collect the ``cols`` of one side to the driver (all columns for
    None).  The set-up calls it once, for the index side's doc_id + 25
    properties, which ``prep["index_df"]`` then carries; the cands side is
    collected only by the test helpers and the geo_match_concat query."""
    return side_dataset(props, source, cols).to_pandas()


def side_ids(props: ray.data.Dataset) -> tuple[list[str], list[str]]:
    """Narrow (doc_id, source) collect — test-fixture helper only; the prep
    path applies the split predicate dataset-side and never collects the
    cands id column."""
    pdf = props.select_columns(["doc_id", "source"]).to_pandas()
    return (pdf[pdf.source == "cands"].doc_id.tolist(),
            pdf[pdf.source == "index"].doc_id.tolist())


def split_cands_dataset(cands: ray.data.Dataset, index_sorted_ref,
                        seed: int, train: bool) -> ray.data.Dataset:
    """cands ∩ index restricted to one side of the hash-bucket train/test
    split, with BOTH predicates applied inside map_batches: membership via
    searchsorted against the sorted-int64 index-id array broadcast by
    ``index_sorted_ref`` (a ``storage.broadcast`` handle; the
    declared small side — the same side the KDTree and the negative-sampling
    space already broadcast), split via splits.split_bucket on the id
    strings.  Set-identical to the old driver-side
    ``sorted(set(cands) & set(index))`` + train_test_ids path, but no
    O(corpus) cands-id collect ever reaches the driver."""
    def f(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        if not ids:
            return b
        in_idx = gates.sorted_member(
            index_sorted_ref(),
            np.asarray([int(i) for i in ids], dtype=np.int64))
        tr = splits.split_bucket(ids, seed)
        return b.filter(pa.array(in_idx & (tr if train else ~tr)))

    return cands.map_batches(f, batch_format="pyarrow")


def _id_order(ids: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """(stable argsort, sorted values) of the numeric ids of ``ids``: the
    index side's order for membership tests, negative draws and lookups."""
    num = ids.astype(np.int64).to_numpy()
    order = np.argsort(num, kind="stable")
    return order, num[order]


def _train_pass(props: ray.data.Dataset, split_ref, n_index: int,
                seed: int, neg_num: int) -> tuple[pd.DataFrame, np.ndarray,
                                                  int]:
    """The one pass over the cands side.  Per batch it keeps the cands in
    the index (searchsorted against ``split_ref``, the broadcast sorted
    index ids) on the train side of the hash split, draws each one's
    seeded negatives (splits.negative_draws), and counts the test side.
    Returns the train rows (doc_id + 25 properties, sorted by numeric id),
    their draws (positions into the sorted index ids) and the test count;
    no test id leaves the workers."""
    m = min(neg_num, n_index)
    negs = [f"neg{j}" for j in range(m)]

    def tag(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        in_idx = gates.sorted_member(
            split_ref(), np.asarray([int(i) for i in ids], dtype=np.int64))
        tr = splits.split_bucket(ids, seed)
        b = b.filter(pa.array(in_idx & tr))
        draws = splits.negative_draws(b.column("doc_id").to_pylist(),
                                      n_index, neg_num, seed)
        for j, name in enumerate(negs):
            b = b.append_column(name, pa.array(draws[:, j]))
        b = b.append_column("n_test", pa.array(np.zeros(b.num_rows,
                                                        dtype=np.int64)))
        # one count row per batch, told apart by its null doc_id
        count = {f.name: pa.nulls(1, f.type) for f in b.schema}
        count["n_test"] = pa.array([int((in_idx & ~tr).sum())])
        return pa.concat_tables([b, pa.table(count, schema=b.schema)])

    out = side_dataset(props, "cands", ["doc_id", *PROPERTY_NAMES]) \
        .map_batches(tag, batch_format="pyarrow")
    t = pa.concat_tables(list(out.iter_batches(batch_size=None,
                                               batch_format="pyarrow")))
    is_count = pc.is_null(t.column("doc_id"))
    n_test = int(pc.sum(t.filter(is_count).column("n_test")).as_py() or 0)
    t = t.filter(pc.invert(is_count))
    t = t.take(np.argsort(pc.cast(t.column("doc_id"), pa.int64()).to_numpy(),
                          kind="stable"))
    draws = np.column_stack([t.column(c).to_numpy() for c in negs]) if negs \
        else np.empty((t.num_rows, 0), dtype=np.int64)
    return t.select(["doc_id", *PROPERTY_NAMES]).to_pandas(), draws, n_test


def _pair_frame(cand_rows: pd.DataFrame, index_df: pd.DataFrame,
                ci: np.ndarray, ii: np.ndarray) -> pd.DataFrame:
    """Train pairs (cand row ``ci``, index row ``ii``) -> the fit matrix:
    cand_id, index_id, the key-equality label and the 25 ratio features,
    canonically sorted by (cand_id, index_id) so the fit is independent of
    any upstream parallelism (SURVEY.md §7.4.6)."""
    cand = cand_rows["doc_id"].to_numpy()[ci]
    index = index_df["doc_id"].to_numpy()[ii]
    feats = ratio_features(
        cand_rows[PROPERTY_NAMES].to_numpy(dtype=np.float64)[ci],
        index_df[PROPERTY_NAMES].to_numpy(dtype=np.float64)[ii])
    df = pd.DataFrame({"cand_id": cand, "index_id": index,
                       "label": (cand == index).astype(np.int8),
                       **dict(zip(RATIO_FEATURE_NAMES, feats.T))})
    return df.sort_values(["cand_id", "index_id"]).reset_index(drop=True)


def prep_train(props: ray.data.Dataset, seed: int = 1,
               neg_num: int = 2, model_name: str = "RandomForest",
               grid: bool = False):
    """Preparatory phase (pipelines.py:601-616): negative-sampled train pairs
    -> ratio features -> fit model -> feature importances + property
    ratios, in two executions: the index-side collect and one pass over the
    cands side (_train_pass).  ``grid`` enables the deterministic
    grid-search CV (classifier.py:150-163).

    Driver-side it holds the index side (doc_id + 25 properties, carried
    as ``index_df``) and the train cands (doc_id + 25 properties, carried
    as ``train_rows``); the cands side is never collected whole.
    BROADCAST-SIZE CONTRACT: the index SIDE of this pipeline is the small
    side by design (the reference's index/candidate asymmetry) — its id
    array and scaled matrix are broadcast once and read per worker.  When
    the index side itself is corpus-scale (10^9+ rows), this prep is the
    wrong plan: route blocking through blocking.cell_blocking (spatial
    co-partitioning, no broadcast) and the split through
    split_cands_dataset with a bucketed semi-join instead of the
    searchsorted membership.
    """
    index_df = side_frame(props, "index", ["doc_id", *PROPERTY_NAMES])
    order, index_sorted = _id_order(index_df["doc_id"])
    split_ref = storage.broadcast(index_sorted)
    train, draws, n_test = _train_pass(props, split_ref, len(index_df), seed,
                                       neg_num)
    # positives pair each cand with its own index row; a negative that
    # draws the cand itself is dropped (the reference drops self-pairs)
    n, m = draws.shape
    index_ids = index_df["doc_id"].to_numpy()
    cand_rep = np.repeat(np.arange(n), m)
    neg_rows = order[draws.ravel()]
    keep = index_ids[neg_rows] != train["doc_id"].to_numpy()[cand_rep]
    own = order[gates.sorted_positions(
        index_sorted, train["doc_id"].astype(np.int64).to_numpy(),
        "prep_train")]
    train_df = _pair_frame(train, index_df,
                           np.concatenate([np.arange(n), cand_rep[keep]]),
                           np.concatenate([own, neg_rows[keep]]))
    X = train_df[RATIO_FEATURE_NAMES].to_numpy(dtype=np.float64)
    y = train_df["label"].to_numpy(dtype=np.int8)
    if grid:
        model, _, _ = matching.grid_search_fit(
            model_name, matching.DEFAULT_GRIDS[model_name], X, y, seed=seed)
    else:
        model = matching.MODEL_REGISTRY[model_name](random_state=seed).fit(X, y)
    importances = sorted(zip(RATIO_FEATURE_NAMES, model.feature_importances_),
                         key=lambda kv: kv[1], reverse=True)
    ratios = metrics.property_ratio_stats(train, index_df, PROPERTY_NAMES)
    return {
        "model": model, "importances": importances, "ratios": ratios,
        "train_ids": train["doc_id"].tolist(), "train_df": train_df,
        "index_ids": index_df["doc_id"].tolist(), "n_test": n_test,
        "seed": seed, "split_ref": split_ref,
        "index_df": index_df, "train_rows": train,
    }


def blocking_train_pairs(prep: dict, features: list[str], bkafi_dim: int,
                         k: int) -> pd.DataFrame:
    """The blocking-based train matrix (the reference's
    matching_cands_generation='blocking-based', pipelines.py:426-432): the
    bkafi kNN of the train cands against the index, scaled by the train
    cands' own RobustScaler stats, cut at rank ``k``, as _pair_frame rows.

    The kNN runs on the driver over ``prep``'s train rows and index frame
    while train cands x index rows stays within
    ``gates.MAX_DRIVER_KNN_CELLS``; above it, as the distributed
    bkafi_nn_dataset map fed from the same train rows."""
    train, index_df = prep["train_rows"], prep["index_df"]
    X = train[features].to_numpy(dtype=np.float64)
    stats = blk.robust_scale_stats(X)
    index_feat = index_df[["doc_id", *features]]
    if gates.driver_route("train_knn", len(train) * len(index_df),
                          gates.MAX_DRIVER_KNN_CELLS):
        top = blk.bkafi_knn(index_feat, features, stats).search(X)[0][:, :k]
        return _pair_frame(train, index_df,
                           np.repeat(np.arange(len(train)), top.shape[1]),
                           top.ravel())
    cands = ray.data.from_arrow(pa.Table.from_pandas(
        train[["doc_id", *features]], preserve_index=False)
        .replace_schema_metadata(None))
    nn = blk.bkafi_nn_dataset(cands, index_feat, features, bkafi_dim,
                              stats=stats)
    nn = nn.select_columns(["cand_id", "index_id", "rank"]).map_batches(
        lambda b: b.filter(pc.less_equal(b.column("rank"), k)),
        batch_format="pyarrow").to_pandas()
    order, index_sorted = _id_order(index_df["doc_id"])
    return _pair_frame(
        train, index_df,
        gates.sorted_positions(train["doc_id"].astype(np.int64).to_numpy(),
                               nn["cand_id"].astype(np.int64).to_numpy(),
                               "train_knn"),
        order[gates.sorted_positions(
            index_sorted, nn["index_id"].astype(np.int64).to_numpy(),
            "train_knn")])


def run_flagship(sf_dir: str, n_cands: int | None = None, seed: int = 1,
                 bkafi_dim: int = 6, k: int = 10, neg_num: int = 2,
                 train_mode: str = "blocking-based",
                 log_transform: bool = False,
                 model_name: str = "RandomForest", grid: bool = False,
                 props: ray.data.Dataset | None = None,
                 prep: dict | None = None):
    """Full blocking->matching pipeline; returns dict of results/datasets.

    ``train_mode``: 'blocking-based' trains the matcher on pairs produced by
    running the blocker over the *train* cands (hard negatives — the
    reference's matching_cands_generation='blocking-based',
    pipelines.py:426-432 / data_partition.py:401-415); 'negative_sampling'
    uses the random negatives from the preparatory phase only.
    ``log_transform`` runs the property stage under log1p normalization (the
    reference default, config.py:52).  ``props``/``prep`` let callers share
    ONE materialized property table and preparatory training pass across
    several evaluation queries (engine.queries._prep) instead of refitting.
    """
    if props is None:
        props = property_table(sf_dir, n_cands, log_transform=log_transform)
    if prep is None:
        prep = prep_train(props, seed=seed, neg_num=neg_num,
                          model_name=model_name, grid=grid)

    features = blk.select_blocking_features(
        prep["importances"], prep["ratios"], bkafi_dim)
    index_feat_df = prep["index_df"][["doc_id", *features]]
    cands_all = side_dataset(props, "cands", ["doc_id", *PROPERTY_NAMES])

    matcher = prep["model"]
    if train_mode == "blocking-based":
        tdf = blocking_train_pairs(prep, features, bkafi_dim, k)
        matcher = matching.MODEL_REGISTRY[model_name](random_state=seed).fit(
            tdf[RATIO_FEATURE_NAMES].to_numpy(dtype=np.float64),
            tdf["label"].to_numpy(dtype=np.int8))

    # test split (blocking evaluation runs on held-out cands, all index) —
    # dataset-side split predicate, no test-id list on the driver
    test_cands = split_cands_dataset(cands_all, prep["split_ref"],
                                     prep["seed"], train=False)
    nn = blk.bkafi_nn_dataset(
        test_cands, index_feat_df, features, bkafi_dim).materialize()

    pair_ds = blk.pairs_from_nn(nn, k)
    feat_ds = pairs.pair_features_join(pair_ds, props)
    scored = matching.predict_dataset(feat_ds, matcher, RATIO_FEATURE_NAMES)
    scored = scored.materialize()

    # every test cand is in the index by construction (test ⊆ cands ∩ index),
    # so the recall denominator equals the distributed test count
    n_inter = prep["n_test"]
    recall = metrics.blocking_recall(nn, n_inter, ks=[1, 5, 10, 20])
    prf = metrics.precision_recall_f1(scored)
    return {
        "props": props, "prep": prep, "nn": nn, "scored": scored,
        "blocking_recall": recall, "matching": prf,
        "n_test_cands": prep["n_test"],
        "n_index": len(prep["index_ids"]),
    }


STATE_CACHE_DIR = "/tmp/ray_geo_state"


def state_cache_path(sf_dir: str, n_cands, seed, bkafi_dim, k, neg_num,
                     log_transform) -> str:
    """The pickle ``prepare_state(cache=True)`` reads and writes.  Its name
    holds STATE_VERSION (bumped when the engine's semantics change), the
    parameters and a digest of the absolute sf path and of each of its
    files' name, size and mtime: another directory with the same basename,
    or an edited corpus file, gets another state."""
    import hashlib
    import os
    sf = os.path.abspath(sf_dir)
    h = hashlib.sha256(sf.encode())
    paths = [os.path.join(sf, n) for n in sorted(os.listdir(sf))] \
        if os.path.isdir(sf) else [sf]
    for path in filter(os.path.isfile, paths):
        st = os.stat(path)
        h.update(f"\0{os.path.basename(path)}\0{st.st_size}"
                 f"\0{st.st_mtime_ns}".encode())
    tag = (f"{STATE_VERSION}_{os.path.basename(sf)}_{h.hexdigest()[:16]}"
           f"_n{n_cands}_s{seed}_d{bkafi_dim}_k{k}_g{neg_num}"
           f"_l{int(log_transform)}")
    return os.path.join(STATE_CACHE_DIR, f"{tag}.pkl")


def prepare_state(sf_dir: str, n_cands: int | None = None, seed: int = 1,
                  bkafi_dim: int = 6, k: int = 5, neg_num: int = 2,
                  cache: bool = False,
                  log_transform: bool = False,
                  props: ray.data.Dataset | None = None,
                  prep: dict | None = None) -> dict:
    """Train/prepare everything the apply-path needs (model, blocking
    features, scaler stats, scaled index matrix, index property matrix).

    This is the analogue of everything the reference does *before* its timed
    blocking run (Table 3 times only the search — blocking.py:129-132): the
    returned state is broadcast to the fused inference pipeline.  With
    ``cache`` the (deterministic) state is pickled under /tmp and reused —
    bench runs at different CPU counts then share one training pass.
    """
    import os
    import pickle
    cache_path = None
    if cache:
        cache_path = state_cache_path(sf_dir, n_cands, seed, bkafi_dim, k,
                                      neg_num, log_transform)
        if os.path.exists(cache_path):
            with open(cache_path, "rb") as f:
                return pickle.load(f)
    if props is None:
        props = property_table(sf_dir, n_cands, log_transform=log_transform)
    if prep is None:
        prep = prep_train(props, seed=seed, neg_num=neg_num)
    features = blk.select_blocking_features(
        prep["importances"], prep["ratios"], bkafi_dim)
    tdf = blocking_train_pairs(prep, features, bkafi_dim, k)
    matcher = matching.RandomForest(random_state=seed).fit(
        tdf[RATIO_FEATURE_NAMES].to_numpy(dtype=np.float64),
        tdf["label"].to_numpy(dtype=np.int8))

    # scaler stats fit on ALL cands, distributed exact quantiles
    med, iqr = blk.robust_scale_stats_ds(
        side_dataset(props, "cands", features), features)
    feat_idx = [PROPERTY_NAMES.index(f) for f in features]
    # the index side is the broadcast small side of this physical plan (the
    # reference's in-memory KDTree/property dict); at 10^12 index rows the
    # cell-shuffle blocker replaces the broadcast (blocking.cell_blocking)
    index_df = prep["index_df"]
    idx_props = index_df[PROPERTY_NAMES].to_numpy(dtype=np.float64)
    idx_scaled = np.ascontiguousarray(
        (idx_props[:, feat_idx] - med) / iqr, dtype=np.float32)
    state = {
        "features": features, "feat_idx": feat_idx, "med": med, "iqr": iqr,
        "matcher": matcher, "k": k, "log_transform": log_transform,
        "idx_ids": index_df["doc_id"].to_numpy(),
        "idx_num": index_df["doc_id"].astype(np.int64).to_numpy(),
        "idx_scaled": idx_scaled, "idx_props": idx_props,
        "n_index": len(index_df),
    }
    if cache_path:
        os.makedirs(os.path.dirname(cache_path), exist_ok=True)
        tmp = cache_path + ".tmp"
        with open(tmp, "wb") as f:
            pickle.dump(state, f)
        os.replace(tmp, cache_path)
    return state


def fused_apply_batch(batch: pa.Table, s: dict, idx_sq: np.ndarray,
                      log_transform: bool) -> pa.Table:
    """The fused per-batch work: parse + 25 properties -> scale -> kNN ->
    ratio features -> classify.  Module-level (not a closure) so the
    hardware-envelope control (jobs/envelope_control.py) can run EXACTLY
    this function under bare multiprocessing — no Ray, no object store —
    and bound what any scheduler could achieve on the same machine.

    Index documents are filtered out before parsing: their properties live
    in the prepared state, so only the cands this batch emits are parsed
    and measured."""
    import pyarrow.compute as pc
    batch = batch.filter(pc.equal(batch.column("source"), pa.scalar("cands")))
    out = _props_batch(batch, log_transform)
    if out.num_rows == 0:
        return pa.table({
            "cand_id": pa.array([], type=pa.string()),
            "index_id": pa.array([], type=pa.string()),
            "rank": pa.array([], type=pa.int32()),
            "dist": pa.array([], type=pa.float64()),
            "label": pa.array([], type=pa.int8()),
            "pred": pa.array([], type=pa.int8()),
        })
    try:
        # contract: the fused path requires int64-castable doc_ids (the
        # corpus generator emits numeric strings); numeric ids are what let
        # the kernel and the label compare stay allocation-free.
        ids_num = pc.cast(out.column("doc_id"), pa.int64()).to_numpy()
    except pa.ArrowInvalid as e:
        raise ValueError(
            "fused pipeline requires numeric-string doc_ids (int64-"
            "castable); corpora with arbitrary string ids must route "
            "through the unfused stages (properties_dataset -> "
            "bkafi_nn_dataset -> pairs.pair_features_join)") from e
    P = np.column_stack([out.column(c).to_numpy() for c in PROPERTY_NAMES])
    Xs = ((P[:, s["feat_idx"]] - s["med"]) / s["iqr"]).astype(np.float32)
    top, dist = blk.topk_l2_f32(Xs, s["idx_scaled"], idx_sq,
                                s["idx_num"], s["k"])
    n, kk = top.shape
    cand_rep = np.repeat(np.arange(n), kk)
    flat = top.ravel()
    feats = ratio_features(P[cand_rep], s["idx_props"][flat])
    pred = s["matcher"].predict(feats)
    # numeric ids end to end: the label compare and the string columns
    # are vectorized int64 ops / Arrow casts — no per-pair Python
    # string objects ride through the allocator
    cand_num = np.repeat(ids_num, kk)
    index_num = s["idx_num"][flat]
    label = (cand_num == index_num).astype(np.int8)
    return pa.table({
        "cand_id": pc.cast(pa.array(cand_num), pa.string()),
        "index_id": pc.cast(pa.array(index_num), pa.string()),
        "rank": pa.array(np.tile(np.arange(1, kk + 1, dtype=np.int32), n)),
        "dist": pa.array(dist.ravel().astype(np.float64), type=pa.float64()),
        "label": pa.array(label, type=pa.int8()),
        "pred": pa.array(pred.astype(np.int8), type=pa.int8()),
    })


# The state the last matching_inference_pipeline call shipped, the Ray
# session it was put in and its broadcast handle.
_shipped = (None, None, None)


def _ship_state(state: dict):
    """``storage.broadcast`` of the fused pass's state and its squared
    index row norms, memoized on the state object in one slot: the same
    state in the same Ray session keeps its handle."""
    global _shipped
    session = None   # before ray.init: the put below starts the session
    if ray.is_initialized():
        ctx = ray.get_runtime_context()
        session = (ctx.get_node_id(), ctx.get_job_id())
    held, held_session, shipped = _shipped
    if held is not state or held_session != session:
        shipped = storage.broadcast(
            state, build=lambda s: (s, (s["idx_scaled"] ** 2).sum(1)))
        _shipped = (state, session, shipped)
    return shipped


def matching_inference_pipeline(docs: ray.data.Dataset,
                                state: dict) -> ray.data.Dataset:
    """The fused apply path: interleaved docs -> parse + 25 properties ->
    kNN blocking -> ratio features -> match classification, in ONE streaming
    execution.  Output: (cand_id, index_id, rank, dist, label, pred) pairs.

    Physical form: a stateless TASK pool with the prepared state and its
    squared index row norms shipped by ``storage.broadcast`` (zero-copy
    plasma reads), so they are fetched and built once per worker whichever
    way the engine modules are shipped, and stay pinned there until evicted
    (see ``storage.broadcast``).  The state is put once per state object:
    a call with the state the last call shipped reuses its handle, so a
    later pass finds the state already built in its workers.  A shipped
    state must therefore not be mutated, and the driver keeps the last
    shipped state's plasma copy pinned until a call ships another.

    The pass runs one task per input block and one kernel call per block
    (``batch_size=None``; ``_props_batch`` still cuts a block's payload at
    ``KERNEL_CHUNK_BYTES``).  Read the docs with
    ``corpus.size_aware_blocks`` so that is at most one block per CPU: on
    one CPU a one-file corpus is then read inside the kernel's own task, and
    ``storage.read_parquet_clean`` hands that task its row groups as one
    block, cut only at Ray's target block size, so the kernel runs once per
    read task.
    Measured 35% faster than the equivalent actor pool on this host — task
    pools have no ramp and stay fully elastic; actor pools remain the right
    shape when per-actor setup is expensive (model load), which a plasma get
    is not.
    """
    import pyarrow as pa

    shipped = _ship_state(state)
    log_transform = bool(state.get("log_transform", False))

    def fused(batch: pa.Table) -> pa.Table:
        s, idx_sq = shipped()
        return fused_apply_batch(batch, s, idx_sq, log_transform)

    return docs.map_batches(fused, batch_format="pyarrow", batch_size=None)


def train_test_features(sf_dir: str, seed: int = 1, bkafi_dim: int = 6,
                        k: int = 5, neg_num: int = 2,
                        log_transform: bool = False,
                        props: ray.data.Dataset | None = None,
                        prep: dict | None = None):
    """Blocking-based train + test pair-feature matrices — the matching
    evaluation inputs (reference pipelines.py:426-432, 516-523: train pairs
    from a blocker pass over train cands, test pairs over test cands).
    Returns (train_df, test_df, prep) with canonical (cand_id, index_id)
    ordering.  ``props``/``prep`` share one training pass (see run_flagship)."""
    if props is None:
        props = property_table(sf_dir, log_transform=log_transform)
    if prep is None:
        prep = prep_train(props, seed=seed, neg_num=neg_num)
    features = blk.select_blocking_features(
        prep["importances"], prep["ratios"], bkafi_dim)
    test_cands = split_cands_dataset(
        side_dataset(props, "cands", ["doc_id", *PROPERTY_NAMES]),
        prep["split_ref"], prep["seed"], train=False)
    nn = blk.bkafi_nn_dataset(test_cands,
                              prep["index_df"][["doc_id", *features]],
                              features, bkafi_dim)
    test = pairs.pair_features_join(
        blk.pairs_from_nn(nn, k).select_columns(
            ["cand_id", "index_id", "label"]), props).to_pandas() \
        .sort_values(["cand_id", "index_id"]).reset_index(drop=True)
    return (blocking_train_pairs(prep, features, bkafi_dim, k),
            test, prep)


def seed_averaged_eval(sf_dir: str, seeds=(1, 2, 3), n_cands: int | None = None,
                       bkafi_dim: int = 6, k: int = 5,
                       normalizations=(False, True)) -> pd.DataFrame:
    """Multi-seed evaluation averaged like the reference (main.py:32-36,
    utils.py:280-346): per seed and normalization mode (raw vs the reference
    default log_transform, config.py:52), blocking recall at each k and
    matching P/R/F1; mean across seeds per mode (seed == -1 rows)."""
    rows = []
    for log_transform in normalizations:
        norm = "log_transform" if log_transform else "raw"
        for seed in seeds:
            res = run_flagship(sf_dir, n_cands=n_cands, seed=seed,
                               bkafi_dim=bkafi_dim, k=k,
                               log_transform=log_transform)
            rec = res["blocking_recall"]
            m = res["matching"]
            row = {"normalization": norm, "seed": seed,
                   "precision": m["precision"],
                   "recall": m["recall"], "f1": m["f1"]}
            for _, r in rec.iterrows():
                row[f"blocking_recall_at_{int(r.k)}"] = r.blocking_recall
            rows.append(row)
    df = pd.DataFrame(rows)
    means = []
    for norm, g in df.groupby("normalization"):
        mean = g.drop(columns=["seed", "normalization"]).mean().to_dict()
        mean["seed"] = -1  # -1 = average row
        mean["normalization"] = norm
        means.append(mean)
    return pd.concat([df, pd.DataFrame(means)], ignore_index=True)

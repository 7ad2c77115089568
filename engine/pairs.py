"""Pair feature stage: (cand_id, index_id) pairs -> ratio feature vectors.

Reference semantics (/root/reference/process_pairs.py:42-66): for each of the
25 properties, feature = min(1000, round(cand_val / index_val, 3)); any error
(division by zero) -> 0.0.  Feature order = property order
(utils.get_feature_name_list / config.py:44-49).

Physical plan: property tables are broadcast as sorted doc ids plus their
float64[25] rows (broadcast once, read zero-copy per worker — the reference
re-ships its whole dict per Pool task, object_properties.py:43-48, which we
avoid) and the ratio kernel is fully vectorized per batch.  For index sides
too large to broadcast, use joins.bucketed_hash_join twice instead
(documented scale path).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from engine import gates, storage
from engine.geometry import PROPERTY_NAMES

RATIO_CAP = 1000.0  # reference config.py:23 (MAX_RATIO_VAL)
RATIO_FEATURE_NAMES = [f"{p}_ratio" for p in PROPERTY_NAMES]


def props_matrix(props_df: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Sorted doc ids (as strings: this path accepts non-numeric ids) + the
    float64 (n, 25) property matrix in that order, from a property table."""
    ids = props_df["doc_id"].to_numpy().astype(str)
    order = np.argsort(ids, kind="stable")
    return ids[order], props_df[PROPERTY_NAMES].to_numpy(
        dtype=np.float64)[order]


def _rows(batch: pa.Table, col: str, ids: np.ndarray, gate: str) -> np.ndarray:
    """Rows of ``batch[col]``'s ids in the sorted ``ids``; raises a
    RuntimeError naming ``gate`` on an id that is not there."""
    probe = batch.column(col).to_numpy(zero_copy_only=False).astype(str)
    return gates.sorted_positions(ids, probe, gate)


def ratio_features(cand_vals: np.ndarray, index_vals: np.ndarray) -> np.ndarray:
    """Vectorized reference ratio kernel: min(1000, round(c/i, 3)).

    Reference values are numpy float64 scalars, so i == 0 never raises
    (the except-branch at process_pairs.py:51-53 is dead for the division
    operator): c/0 -> inf -> min(1000, inf) = 1000, and 0/0 -> nan ->
    Python min(1000, nan) = 1000.  We reproduce exactly that."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = cand_vals / index_vals
    r = np.round(r, 3)
    r[np.isnan(r)] = RATIO_CAP
    return np.minimum(r, RATIO_CAP)


def pair_features_dataset(pairs: ray.data.Dataset,
                          cand_props: pd.DataFrame,
                          index_props: pd.DataFrame) -> ray.data.Dataset:
    """pairs (cand_id, index_id, ...) -> + 25 `<prop>_ratio` columns."""
    c_ids, c_mat = props_matrix(cand_props)
    i_ids, i_mat = props_matrix(index_props)

    # stateless TASK pool, the side matrices fetched once per worker — no
    # actor ramp, no ray#53727 surface, fully elastic across whatever cores
    # the executor has free
    sides = storage.broadcast((c_ids, c_mat, i_ids, i_mat))

    def ratio_fn(batch: pa.Table) -> pa.Table:
        c_ids, c_mat, i_ids, i_mat = sides()
        feats = ratio_features(
            c_mat[_rows(batch, "cand_id", c_ids, "pair_features")],
            i_mat[_rows(batch, "index_id", i_ids, "pair_features")])
        for j, name in enumerate(RATIO_FEATURE_NAMES):
            batch = batch.append_column(
                name, pa.array(feats[:, j], type=pa.float64()))
        return batch

    return pairs.map_batches(ratio_fn, batch_format="pyarrow",
                             batch_size=16384)


def pair_features_join(pairs: ray.data.Dataset,
                       props: ray.data.Dataset) -> ray.data.Dataset:
    """Dataset-native pair feature stage with a size gate.

    Broadcast plan (both property sides within twice
    ``gates.BROADCAST_MAX_SIDE_ROWS``): the narrow (doc_id + 25 props)
    table is collected once, each side's matrix is broadcast once, and
    pairs stream through a no-shuffle vectorized ratio map.

    Join plan (the 10^12 path): pairs ⋈ props(cands) on cand_id, ⋈
    props(index) on index_id via two explicit bucketed hash joins
    (SURVEY §7.3); no property table ever lands on the driver.
    Both plans produce identical rows (tested).
    """
    import pyarrow.compute as pc

    from engine.joins import bucketed_hash_join

    # ONE narrow collect for both sides
    side_t, _ = gates.collect_under_budget(
        props.select_columns(["doc_id", "source", *PROPERTY_NAMES]),
        "pair_features_join", 2 * gates.BROADCAST_MAX_SIDE_ROWS, None)
    if side_t is not None:
        pdf = side_t.to_pandas()
        return pair_features_dataset(pairs,
                                     pdf[pdf.source == "cands"],
                                     pdf[pdf.source == "index"])

    def side(source: str, suffix: str) -> ray.data.Dataset:
        def pick(b: pa.Table) -> pa.Table:
            b = b.filter(pc.equal(b.column("source"), pa.scalar(source)))
            cols = {"doc_id": b.column("doc_id")}
            for p in PROPERTY_NAMES:
                cols[p + suffix] = b.column(p)
            return pa.table(cols)
        return props.map_batches(pick, batch_format="pyarrow")

    j = bucketed_hash_join(pairs, side("cands", "__c"),
                           "cand_id", "doc_id").drop_columns(["doc_id"])
    j = bucketed_hash_join(j, side("index", "__i"),
                           "index_id", "doc_id").drop_columns(["doc_id"])
    tmp_cols = [p + s for p in PROPERTY_NAMES for s in ("__c", "__i")]

    def ratio(batch: pa.Table) -> pa.Table:
        c = np.column_stack([batch.column(p + "__c").to_numpy()
                             for p in PROPERTY_NAMES])
        i = np.column_stack([batch.column(p + "__i").to_numpy()
                             for p in PROPERTY_NAMES])
        feats = ratio_features(c, i)
        batch = batch.drop_columns(tmp_cols)
        for k, name in enumerate(RATIO_FEATURE_NAMES):
            batch = batch.append_column(
                name, pa.array(feats[:, k], type=pa.float64()))
        return batch

    return j.map_batches(ratio, batch_format="pyarrow")


def concatenation_features_dataset(pairs: ray.data.Dataset,
                                   cand_props: pd.DataFrame,
                                   index_props: pd.DataFrame) -> ray.data.Dataset:
    """The reference's 'concatenation' operator variant
    (process_pairs.py:30-40): [cand props..., index props...] columns."""
    c_ids, c_mat = props_matrix(cand_props)
    i_ids, i_mat = props_matrix(index_props)
    sides = storage.broadcast((c_ids, c_mat, i_ids, i_mat))

    def attach(batch: pa.Table) -> pa.Table:
        c_ids_, c_mat_, i_ids_, i_mat_ = sides()
        ci = _rows(batch, "cand_id", c_ids_, "concatenation_features")
        ii = _rows(batch, "index_id", i_ids_, "concatenation_features")
        for j, p in enumerate(PROPERTY_NAMES):
            batch = batch.append_column(f"{p}_cand",
                                        pa.array(c_mat_[ci, j], type=pa.float64()))
        for j, p in enumerate(PROPERTY_NAMES):
            batch = batch.append_column(f"{p}_index",
                                        pa.array(i_mat_[ii, j], type=pa.float64()))
        return batch

    return pairs.map_batches(attach, batch_format="pyarrow", batch_size=16384)

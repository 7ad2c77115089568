"""Evaluation aggregates: blocking recall / PC@K, reduction ratio, P/R/F1,
property-ratio stats, percentile threshold tables.

Reference semantics cited per function.  All heavy counting runs as Ray
aggregates; the final few-row tables land on the driver like the reference's
CSV writer (utils.py:280-346).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def blocking_recall(nn: ray.data.Dataset, n_intersection: int,
                    ks: list[int], digits: int | None = 3) -> pd.DataFrame:
    """recall@k = |{distinct true pairs found within rank<=k}| / |cands∩index|
    (pipelines.py:369-394).  One pass: true hits' ranks -> histogram.
    ``digits=None`` keeps the exact IEEE division (SQL-oracle mode); the
    default 3 matches the reference's CSV rounding."""
    hits = nn.map_batches(
        lambda b: b.filter(pc.equal(b.column("cand_id"), b.column("index_id"))),
        batch_format="pyarrow").select_columns(["bkafi_dim", "cand_id", "rank"]).to_pandas()
    # distinct (pair) before counting (pipelines.py:385): keep best rank per cand
    hits = hits.groupby(["bkafi_dim", "cand_id"], as_index=False)["rank"].min()
    out = []
    for dim, g in hits.groupby("bkafi_dim"):
        for k in ks:
            found = int((g["rank"] <= k).sum())
            r = found / n_intersection
            out.append({"bkafi_dim": int(dim), "k": int(k),
                        "blocking_recall": round(r, digits)
                        if digits is not None else r})
    return pd.DataFrame(out)


def reduction_ratio(num_pairs: int, n_cands: int, n_index: int) -> float:
    """1 - |candidate pairs| / (|cands| * |index|) (bkafi_with_threshold.py:257-269)."""
    return 1.0 - num_pairs / (n_cands * n_index)


def precision_recall_f1(ds: ray.data.Dataset) -> dict:
    """Binary P/R/F1 of the ``pred`` column against ``label`` via
    distributed confusion counts (classifier.py:165-176 ->
    ds.aggregate(Sum) + driver formula)."""
    def conf(batch: pa.Table) -> pa.Table:
        y = batch.column("label").to_numpy()
        p = batch.column("pred").to_numpy()
        return pa.table({
            "tp": pa.array([int(((y == 1) & (p == 1)).sum())], type=pa.int64()),
            "fp": pa.array([int(((y == 0) & (p == 1)).sum())], type=pa.int64()),
            "fn": pa.array([int(((y == 1) & (p == 0)).sum())], type=pa.int64()),
            "tn": pa.array([int(((y == 0) & (p == 0)).sum())], type=pa.int64()),
        })

    from ray.data.aggregate import Sum
    agg = ds.map_batches(conf, batch_format="pyarrow").aggregate(
        Sum("tp"), Sum("fp"), Sum("fn"), Sum("tn"))
    tp, fp, fn = agg["sum(tp)"], agg["sum(fp)"], agg["sum(fn)"]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1,
            "tp": tp, "fp": fp, "fn": fn, "tn": agg["sum(tn)"]}


def property_ratio_stats(cand_props: pd.DataFrame, index_props: pd.DataFrame,
                         property_names: list[str]) -> dict[str, dict]:
    """Per-property mean/std (rounded to 3) of index/cand value ratios over
    matched ids, sorted by std asc (classifier.py:224-233)."""
    merged = cand_props.merge(index_props, on="doc_id", suffixes=("_c", "_i"))
    out = {}
    for p in property_names:
        ratio = merged[f"{p}_i"].to_numpy() / merged[f"{p}_c"].to_numpy()
        out[p] = {"mean": round(float(np.mean(ratio)), 3),
                  "std": round(float(np.std(ratio)), 3)}
    return dict(sorted(out.items(), key=lambda kv: kv[1]["std"]))


def percentile_threshold_table(train_match_dists: np.ndarray,
                               num_points: int = 200) -> np.ndarray:
    """np.percentile at `num_points` evenly spaced percentiles of the train
    matched-pair distances (bkafi_with_threshold.py:131-141)."""
    qs = np.linspace(0, 100, num_points)
    return np.percentile(train_match_dists, qs)


def pc_at_k(nn: ray.data.Dataset, n_intersection: int, ks: list[int]) -> pd.DataFrame:
    """PC@K (pair completeness) — identical computation to blocking recall
    over the ranked table; kept as its own entry point for the report's
    Tables 4-5 metric naming."""
    return blocking_recall(nn, n_intersection, ks).rename(
        columns={"blocking_recall": "pc_at_k"})

"""Output checks that need no per-run oracle.

Operators: a query's output is reduced to a digest of its canonical form
(columns sorted by name, rows sorted by every column, the ordering of
``jobs/check_queries.py``) and compared with the digest of the query's DuckDB
oracle over the same inputs.  Apply passes: structural checks on every pass
plus a digest of the pair table compared with the one stored for the seed.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pandas as pd

STORED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "digests.json")


def stored_digests() -> dict:
    with open(STORED) as f:
        return json.load(f)


def _canon_column(s: pd.Series) -> pd.Series:
    """One representation per value whatever the producer's dtype: integral
    floats become int64 (DuckDB counts vs engine float sums), other floats
    stay float64, everything else becomes str."""
    k = s.dtype.kind
    if k in "iub":
        return s.astype(np.int64)
    if k == "M":
        return s.astype("datetime64[ns]").astype(np.int64)
    if k == "f":
        v = s.to_numpy(dtype=np.float64)
        fin = np.isfinite(v)
        if fin.all() and (np.abs(v) < 2.0 ** 53).all() and (v == np.floor(v)).all():
            return pd.Series(v.astype(np.int64), index=s.index)
        return pd.Series(v, index=s.index)
    return s.astype(str)


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = pd.DataFrame({c: _canon_column(df[c]) for c in df.columns})
    return df.sort_values(list(df.columns), kind="mergesort") \
        .reset_index(drop=True)


def digest(df: pd.DataFrame) -> str:
    """sha256 over the column names and the row hashes of the canonical
    frame; equal for equal outputs, whatever their row order.  Every empty
    result has one digest: the engine returns an empty Dataset without a
    schema where DuckDB keeps the column names."""
    if len(df) == 0:
        return hashlib.sha256(b"empty").hexdigest()
    c = canon(df)
    h = hashlib.sha256(json.dumps(list(c.columns)).encode())
    h.update(pd.util.hash_pandas_object(c, index=False).to_numpy().tobytes())
    return h.hexdigest()


def to_pandas(res) -> pd.DataFrame:
    """Collect a query result (Dataset, Arrow table or DataFrame)."""
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()


def check_pairs(df: pd.DataFrame, cand_ids: np.ndarray, k: int) -> list[str]:
    """Structural checks of one apply pass: exactly k rows per streamed cand,
    ranks 1..k, and label == (cand_id == index_id)."""
    issues = []
    got = df["cand_id"].astype(np.int64).to_numpy()
    counts = pd.Series(got).value_counts()
    if set(counts.index) != set(cand_ids.tolist()):
        issues.append(f"{len(counts)} cands streamed, expected {len(cand_ids)}")
    if len(counts) and (counts != k).any():
        issues.append(f"{int((counts != k).sum())} cands without exactly {k} rows")
    ranks = df.sort_values(["cand_id", "rank"])["rank"].to_numpy()
    if len(ranks) == k * len(counts) and \
            not (ranks.reshape(-1, k) == np.arange(1, k + 1)).all():
        issues.append("ranks are not 1..k per cand")
    label = (df["cand_id"] == df["index_id"]).astype(np.int8).to_numpy()
    if not (label == df["label"].to_numpy()).all():
        issues.append("label != (cand_id == index_id)")
    return issues


def pair_digest(df: pd.DataFrame) -> str:
    """Digest of the pair table without the float32 distances, whose last
    digits may depend on the BLAS build."""
    return digest(df[["cand_id", "index_id", "rank", "label", "pred"]])


def quality(df: pd.DataFrame, matched: np.ndarray) -> dict:
    """recall_at_5: share of matched cands whose true index copy is among
    their top-5 rows.  match_f1: F1 of ``pred`` against the true matches
    (a matched cand missed by blocking counts as a false negative)."""
    top5 = df[df["rank"] <= 5]
    hit = top5.loc[top5["label"] == 1, "cand_id"].astype(np.int64).unique()
    n_true = int(len(matched))
    tp = int(df.loc[(df["pred"] == 1) & (df["label"] == 1), "cand_id"].nunique())
    fp = int(((df["pred"] == 1) & (df["label"] == 0)).sum())
    fn = n_true - tp
    return {
        "recall_at_5": len(np.intersect1d(hit, matched)) / max(n_true, 1),
        "match_f1": 2 * tp / max(2 * tp + fp + fn, 1),
    }

"""Deterministic train/test partitioning + negative sampling.

Replaces the reference's pickled partition dicts
(/root/reference/data_partition.py:31-148) with shuffle-free seeded hash
bucketing: membership is a pure function of (doc_id, seed), so any worker can
evaluate it without coordination and results are identical at any parallelism.

Negative sampling reproduces data_partition.py:55-60 semantics — per cand, n
index ids drawn without replacement, seeded by (seed, cand_id) — with a
*stable* hash instead of Python's salted builtin.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from engine import storage
from engine.joins import stable_hash64


def split_bucket(doc_ids, seed: int, train_pct: int = 50) -> np.ndarray:
    """True where doc belongs to the train split."""
    h = stable_hash64([f"{d}|{seed}" for d in doc_ids])
    return (h % 100) < train_pct


def train_test_ids(intersection_ids: list[str], seed: int,
                   train_pct: int = 50) -> tuple[list[str], list[str]]:
    mask = split_bucket(intersection_ids, seed, train_pct)
    ids = np.asarray(intersection_ids, dtype=object)
    return ids[mask].tolist(), ids[~mask].tolist()


def dirty_blocking_split(cand_ids, index_ids, seed: int,
                         ratio: float = 0.6, non_matched_rat: float = 0.2):
    """The reference's DIRTY blocking split (data_partition_dirty.py:112-127):
    sample test cands from cands∩index, then REMOVE ``non_matched_rat`` of
    them from the index side — those cands become unmatched ('dirty')
    queries with no true entity in the index, so blocking recall must be
    evaluated over the matchable subset and the matcher sees true
    out-of-index entities.  Deterministic hash-bucket sampling replaces the
    reference's np.random.choice.

    Returns (test_cand_ids, index_keep_ids, removed_ids).
    """
    inter = sorted(set(cand_ids) & set(index_ids), key=int)
    take = stable_hash64([f"{d}|dirty|{seed}" for d in inter]) % 100 \
        < int(ratio * 100)
    test_cands = [d for d, t in zip(inter, take) if t]
    rm = stable_hash64([f"{d}|rm|{seed}" for d in test_cands]) % 100 \
        < int(non_matched_rat * 100)
    removed = {d for d, r in zip(test_cands, rm) if r}
    index_keep = [d for d in index_ids if d not in removed]
    return test_cands, index_keep, sorted(removed, key=int)


def negative_draws(cand_ids: list[str], n_index: int, neg_num: int,
                   seed: int) -> np.ndarray:
    """Per cand, ``min(neg_num, n_index)`` distinct positions into the index
    ids sorted by numeric id: the draws of data_partition.py:55-60, from a
    per-cand RNG seeded by the stable hash of (seed, cand_id).  Shape
    (len(cand_ids), min(neg_num, n_index)), int64."""
    m = min(neg_num, n_index)
    out = np.empty((len(cand_ids), m), dtype=np.int64)
    for r, h in enumerate(stable_hash64(cand_ids)):
        # modulo on the uint64 SCALAR, as the draws were defined: NumPy 1.x
        # takes it through float64, so the array modulo gives other seeds
        rng = np.random.default_rng(seed + int(h % 1_000_000))
        out[r] = rng.choice(n_index, size=m, replace=False)
    return out


def negative_sample_pairs(cand_ids: ray.data.Dataset | list,
                          index_ids: list[str], neg_num: int,
                          seed: int) -> ray.data.Dataset:
    """(cand_id, cand_id) positive + ``neg_num`` sampled negatives per cand
    (negative_draws), labels included.  Distributed map_batches with the
    index id list broadcast (deterministic)."""
    index_sorted = storage.broadcast(
        np.asarray(sorted(index_ids, key=int), dtype=object))

    def sample(batch: pa.Table) -> pa.Table:
        idx = index_sorted()
        cids = batch.column("cand_id").to_pylist()
        cands, indexes, labels = [], [], []
        for cid, draws in zip(cids, negative_draws(cids, len(idx), neg_num,
                                                   seed)):
            cands.append(cid)
            indexes.append(cid)
            labels.append(1)
            for nid in idx[draws]:
                if nid != cid:  # reference drops accidental self-pairs
                    cands.append(cid)
                    indexes.append(nid)
                    labels.append(0)
        return pa.table({
            "cand_id": pa.array(cands, type=pa.string()),
            "index_id": pa.array(indexes, type=pa.string()),
            "label": pa.array(labels, type=pa.int8()),
        })

    if isinstance(cand_ids, list):
        cand_ids = ray.data.from_arrow(
            pa.table({"cand_id": pa.array(cand_ids, type=pa.string())}))
    # sampling is seeded per cand id, so the block count changes no row
    cand_ids = cand_ids.repartition(storage.cluster_cap(16))
    return cand_ids.map_batches(sample, batch_format="pyarrow", batch_size=2048)

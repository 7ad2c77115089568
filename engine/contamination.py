"""Contamination injector (robustness experiments).

Reference: /root/reference/contamination_experiments.py:67-85 — for a random
fraction of feature rows, every nonzero feature value x is replaced with
min(1/x, 1000).  Our version is deterministic per row: the coin flip is a
stable hash of (cand_id, index_id, seed), so results are identical at any
parallelism (the reference's np.random over the whole matrix is a
driver-bound artifact)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from engine.joins import stable_hash64
from engine.pairs import RATIO_CAP, RATIO_FEATURE_NAMES


def contaminate(ds: ray.data.Dataset, fraction: float, seed: int = 1,
                feature_cols: list[str] | None = None) -> ray.data.Dataset:
    cols = feature_cols or RATIO_FEATURE_NAMES
    cut = int(fraction * 10_000)

    def inject(batch: pa.Table) -> pa.Table:
        keys = [f"{c}|{i}|{seed}" for c, i in
                zip(batch.column("cand_id").to_pylist(),
                    batch.column("index_id").to_pylist())]
        hit = (stable_hash64(keys) % 10_000) < cut
        mat = np.column_stack([batch.column(c).to_numpy() for c in cols])
        mat = mat.copy()
        rows = np.nonzero(hit)[0]
        sub = mat[rows]
        nz = sub != 0.0
        with np.errstate(divide="ignore"):
            inv = np.minimum(1.0 / sub, RATIO_CAP)
        sub[nz] = inv[nz]
        mat[rows] = sub
        out = {name: batch.column(name) for name in batch.column_names
               if name not in cols}
        for j, c in enumerate(cols):
            out[c] = pa.array(mat[:, j], type=pa.float64())
        out["contaminated"] = pa.array(hit)
        return pa.table(out)

    return ds.map_batches(inject, batch_format="pyarrow")

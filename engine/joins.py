"""Join strategies.

Two physical plans, chosen by side size (ray_guide.md patterns):

* ``broadcast`` — the small side is shipped once (``storage.broadcast``)
  and looked up inside ``map_batches`` (no shuffle).  Replaces the
  reference's dict-of-dict lookups (reference process_pairs.py:62-66).
* ``bucketed`` — both sides large: add ``bucket = stable_hash(key) % B`` to
  both, union with a side tag, ``groupby(bucket).map_groups`` doing a local
  hash join per bucket.  B and hot-key salting are explicit (SURVEY.md §7.3).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from engine import storage


def stable_hash64(values) -> np.ndarray:
    """Deterministic (process-independent) 64-bit hash of strings.

    Replaces the reference's salted builtin ``hash`` in its seeded negative
    sampler (/root/reference/data_partition.py:55-60) with a stable digest so
    results are reproducible across runs and cluster sizes.
    """
    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        d = hashlib.md5(str(v).encode()).digest()
        out[i] = np.frombuffer(d[:8], dtype=np.uint64)[0]
    return out


def fast_hash64(values) -> np.ndarray:
    """Vectorized FNV-1a-style 64-bit hash over UTF-32 codepoints.

    Used where only the DISTRIBUTION matters (join bucketing, hot-cell
    salting) — no per-value Python loop; `stable_hash64`'s md5 stays on the
    semantic paths (splits, sampling, contamination) whose values define
    reproducible experiment membership."""
    arr = np.asarray(values, dtype="U")
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    w = max(1, arr.dtype.itemsize // 4)
    codes = arr.view(np.uint32).reshape(len(arr), w).astype(np.uint64)
    h = np.full(len(arr), np.uint64(14695981039346656037))
    prime = np.uint64(1099511628211)
    for j in range(w):
        c = codes[:, j]
        # skip NUL padding so the hash is independent of the batch-local
        # fixed width (same key must land in the same bucket in every batch)
        h = np.where(c != 0, (h ^ c) * prime, h)
    return h


def list_column_matrix(col, dtype=np.float64) -> np.ndarray:
    """Zero-copy flatten of a fixed-width ``list<float>`` Arrow column into an
    (n, dim) numpy matrix: values-buffer view + offsets arithmetic, no
    ``to_pylist`` materialization (the idiom from the dedup verify kernel).
    Falls back to the slow path for ragged lists."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), dtype=dtype)
    off = arr.offsets.to_numpy(zero_copy_only=False)
    dim = int(off[1] - off[0])
    if dim <= 0 or not np.all(np.diff(off) == dim):
        return np.asarray(arr.to_pylist(), dtype=dtype)
    vals = arr.values.to_numpy(zero_copy_only=False)
    return vals[off[0]:off[-1]].reshape(n, dim).astype(dtype, copy=False)


def broadcast_lookup(ds: ray.data.Dataset, key: str, lookup: dict,
                     out_cols: dict[str, str], default=None) -> ray.data.Dataset:
    """Attach columns from a broadcast {key -> tuple} mapping.

    ``out_cols`` maps output column name -> index into the tuple values.
    Lookups are vectorized: each worker unpacks the broadcast mapping once
    into per-column pandas Series and maps key arrays in C.
    """
    names = list(out_cols)
    idxs = [out_cols[n] for n in names]

    def column_maps(table: dict) -> dict:
        keys_ = list(table.keys())
        return {n: pd.Series([table[k][i] for k in keys_], index=keys_)
                for n, i in zip(names, idxs)}

    maps = storage.broadcast(lookup, build=column_maps)

    def attach(batch: pa.Table) -> pa.Table:
        keys = pd.Series(batch.column(key).to_numpy(zero_copy_only=False))
        cols = maps()
        for n in names:
            vals = keys.map(cols[n])
            if default is not None:
                vals = vals.fillna(default)
            batch = batch.append_column(n, pa.Array.from_pandas(vals))
        return batch

    return ds.map_batches(attach, batch_format="pyarrow")


def broadcast_semi_join(ds: ray.data.Dataset, key: str, keep_keys,
                        anti: bool = False) -> ray.data.Dataset:
    """Semi/anti join against a broadcast key set (no shuffle)."""
    keep = storage.broadcast(frozenset(keep_keys))

    def filt(batch: pa.Table) -> pa.Table:
        ks = keep()
        mask = np.fromiter((k in ks for k in batch.column(key).to_pylist()),
                           dtype=bool, count=batch.num_rows)
        if anti:
            mask = ~mask
        return batch.filter(pa.array(mask))

    return ds.map_batches(filt, batch_format="pyarrow")


def bucketed_hash_join(left: ray.data.Dataset, right: ray.data.Dataset,
                       left_key: str, right_key: str, num_buckets: int = 64,
                       how: str = "inner") -> ray.data.Dataset:
    """Partitioned hash join: explicit bucket column + one groupby shuffle.

    The scale path when neither side fits in memory.  Bucket count B bounds
    per-group memory; salt hot keys upstream if a single key dominates.
    """
    lschema, rschema = left.schema(), right.schema()
    combined = {}
    for name, typ in zip(lschema.names, lschema.types):
        combined[name] = typ
    for name, typ in zip(rschema.names, rschema.types):
        combined.setdefault(name, typ)
    order = list(combined)

    def tag(side: str, key: str):
        def fn(batch: pa.Table) -> pa.Table:
            # align schema AND types: upstream pandas/sort stages can promote
            # int64-with-nulls to double, and the bucket hash of str(400.0)
            # differs from str(400) — keys must hash identically on both sides
            cols = {}
            for name in order:
                if name in batch.column_names:
                    col = batch.column(name)
                    if col.type != combined[name]:
                        col = col.cast(combined[name])
                else:
                    col = pa.nulls(batch.num_rows, type=combined[name])
                cols[name] = col
            out = pa.table(cols)
            h = fast_hash64(out.column(key).to_pylist())
            out = out.append_column(
                "__bucket", pa.array((h % num_buckets).astype(np.int64)))
            return out.append_column(
                "__side", pa.array([side] * out.num_rows))
        return fn

    lt = left.map_batches(tag("l", left_key), batch_format="pyarrow")
    rt = right.map_batches(tag("r", right_key), batch_format="pyarrow")

    lcols = list(lschema.names)
    rcols = list(rschema.names)

    def join_group(g: pa.Table) -> pa.Table:
        """Arrow-native local hash join: pandas matches only the key/index
        pairs; payload columns (incl. list/binary types that pandas would
        mangle) move via zero-copy Table.take."""
        import pyarrow.compute as pc
        mask = pc.equal(g.column("__side"), pa.scalar("l"))
        lg = g.filter(mask).select(lcols)
        rg = g.filter(pc.invert(mask)).select(rcols)
        m = pd.merge(
            pd.DataFrame({"k": lg.column(left_key).to_pylist(),
                          "li": np.arange(lg.num_rows)}),
            pd.DataFrame({"k": rg.column(right_key).to_pylist(),
                          "ri": np.arange(rg.num_rows)}),
            on="k", how=how)
        # outer joins leave NaN row indices — nullable Int64 makes Table.take
        # emit null rows for them (the pandas float64 default has no kernel)
        lt_ = lg.take(pa.array(m["li"].astype("Int64"), from_pandas=True))
        rt_ = rg.take(pa.array(m["ri"].astype("Int64"), from_pandas=True))
        cols = {}
        for name in lt_.column_names:
            col = lt_.column(name)
            cols[name] = col.cast(combined[name]) \
                if col.type != combined[name] else col
        for name in rt_.column_names:
            col = rt_.column(name)
            if col.type != combined[name]:
                col = col.cast(combined[name])
            cols[name if name not in cols else name + "__r"] = col
        return pa.table(cols)

    return lt.union(rt).groupby("__bucket").map_groups(
        join_group, batch_format="pyarrow")


def bucketed_anti_join(left: ray.data.Dataset, right: ray.data.Dataset,
                       left_key: str, right_key: str,
                       num_buckets: int = 64) -> ray.data.Dataset:
    """Partitioned anti join: keeps left rows whose key has NO right match.

    The scale path when the exclusion set is too big to broadcast
    (broadcast_semi_join(anti=True) is the small-side shortcut): both sides
    hash-bucket on the key and each bucket group filters locally with a
    vectorized is_in — only the key column of the right side rides the
    shuffle."""
    return _bucketed_filter_join(left, right, left_key, right_key,
                                 num_buckets, anti=True)


def bucketed_semi_join(left: ray.data.Dataset, right: ray.data.Dataset,
                       left_key: str, right_key: str,
                       num_buckets: int = 64) -> ray.data.Dataset:
    """Partitioned semi join: keeps left rows whose key HAS a right match
    (exactly once, regardless of right-side duplicates) — the
    membership-filter complement of ``bucketed_anti_join``."""
    return _bucketed_filter_join(left, right, left_key, right_key,
                                 num_buckets, anti=False)


def _bucketed_filter_join(left: ray.data.Dataset, right: ray.data.Dataset,
                          left_key: str, right_key: str,
                          num_buckets: int, anti: bool) -> ray.data.Dataset:
    import pyarrow.compute as pc
    lschema = left.schema()
    lcols = list(lschema.names)
    ltypes = dict(zip(lschema.names, lschema.types))
    ktype = ltypes[left_key]

    def tag_l(batch: pa.Table) -> pa.Table:
        h = fast_hash64(batch.column(left_key).to_pylist())
        return batch.append_column(
            "__bucket", pa.array((h % num_buckets).astype(np.int64))
        ).append_column("__side", pa.array(["l"] * batch.num_rows))

    def tag_r(batch: pa.Table) -> pa.Table:
        key = batch.column(right_key)
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        if key.type != ktype:
            key = key.cast(ktype)
        cols = {name: (key if name == left_key
                       else pa.nulls(len(key), type=ltypes[name]))
                for name in lcols}
        out = pa.table(cols)
        h = fast_hash64(key.to_pylist())
        return out.append_column(
            "__bucket", pa.array((h % num_buckets).astype(np.int64))
        ).append_column("__side", pa.array(["r"] * out.num_rows))

    def filt_group(g: pa.Table) -> pa.Table:
        mask = pc.equal(g.column("__side"), pa.scalar("l"))
        lg = g.filter(mask).select(lcols)
        excl = g.filter(pc.invert(mask)).column(left_key).combine_chunks()
        if len(excl) == 0:
            return lg if anti else lg.slice(0, 0)
        member = pc.is_in(lg.column(left_key), value_set=excl)
        return lg.filter(pc.invert(member) if anti else member)

    lt = left.map_batches(tag_l, batch_format="pyarrow")
    rt = right.map_batches(tag_r, batch_format="pyarrow")
    return lt.union(rt).groupby("__bucket").map_groups(
        filt_group, batch_format="pyarrow")


def _bloom_positions(values, m_bits: int, j: int) -> np.ndarray:
    """j deterministic bit positions per value: the md5 digest's first j
    uint32 words mod m_bits (j <= 4)."""
    pos = np.empty((len(values), j), dtype=np.int64)
    for i, v in enumerate(values):
        d = hashlib.md5(str(v).encode()).digest()
        pos[i] = np.frombuffer(d, dtype=np.uint32)[:j] % m_bits
    return pos


def build_bloom(keys: ray.data.Dataset, key: str, m_bits: int = 1 << 17,
                j: int = 4) -> np.ndarray:
    """Distributed Bloom-filter build: each block emits its partial bitmap
    (m_bits/8 bytes), a coalesced OR level bounds the driver collect at
    8 bitmaps, the driver ORs those.  The bitmap is a mergeable sketch —
    the OR tree deepens as O(log blocks) for larger inputs; nothing
    key-set-sized reaches the driver."""
    nbytes = m_bits // 8

    def partial(batch: pa.Table) -> pa.Table:
        bm = np.zeros(nbytes, dtype=np.uint8)
        pos = _bloom_positions(batch.column(key).to_pylist(), m_bits, j)
        np.bitwise_or.at(bm, pos.ravel() // 8,
                         np.uint8(1) << (pos.ravel() % 8).astype(np.uint8))
        return pa.table({"bm": pa.array([bm.tobytes()], type=pa.binary())})

    def orm(batch: pa.Table) -> pa.Table:
        acc = np.zeros(nbytes, dtype=np.uint8)
        for b in batch.column("bm").to_pylist():
            acc |= np.frombuffer(b, dtype=np.uint8)
        return pa.table({"bm": pa.array([acc.tobytes()], type=pa.binary())})

    tiny = keys.map_batches(partial, batch_format="pyarrow") \
        .repartition(8).map_batches(orm, batch_format="pyarrow")
    acc = np.zeros(nbytes, dtype=np.uint8)
    for b in tiny.iter_batches(batch_format="pyarrow"):
        for buf in b.column("bm").to_pylist():
            acc |= np.frombuffer(buf, dtype=np.uint8)
    return acc


def bloom_semi_join(left: ray.data.Dataset, right: ray.data.Dataset,
                    left_key: str, right_key: str, m_bits: int = 1 << 17,
                    j: int = 4, num_buckets: int = 64) -> ray.data.Dataset:
    """Exact semi join via a Bloom prefilter — the 100-TB join shape when
    the right key set is too big to broadcast but the match rate is low:

      1. distributed Bloom build over the right keys (OR tree above);
      2. the m_bits/8-byte bitmap (16 KiB at the default) is broadcast ONCE
         and every left block drops its guaranteed-non-members locally —
         no false negatives, so nothing exact is lost;
      3. only the surviving left rows (true matches + the ~(1-e^{-jn/m})^j
         false-positive sliver) pay the bucketed exact semi-join shuffle.

    Output is EXACT (verify step removes false positives); the bloom only
    cuts shuffle bytes."""
    bloom = storage.broadcast(build_bloom(right, right_key, m_bits, j))

    def prefilter(batch: pa.Table) -> pa.Table:
        bm = bloom()
        pos = _bloom_positions(batch.column(left_key).to_pylist(), m_bits, j)
        hit = (bm[pos // 8] >> (pos % 8).astype(np.uint8)) & 1
        return batch.filter(pa.array(hit.all(axis=1)))

    survivors = left.map_batches(prefilter, batch_format="pyarrow")
    return bucketed_semi_join(survivors, right, left_key, right_key,
                              num_buckets)

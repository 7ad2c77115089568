"""Join strategies and the engine's one keyed shuffle.

Two physical plans, chosen by side size (ray_guide.md patterns):

* ``broadcast`` — the small side is shipped once (``storage.broadcast``)
  and looked up inside ``map_batches`` (no shuffle).  Replaces the
  reference's dict-of-dict lookups (reference process_pairs.py:62-66).
* ``bucketed`` — both sides large: ``shuffle_groups`` co-partitions the
  sides on the key and each reduce block joins locally.  That primitive is
  the only keyed shuffle in the engine: every operator that groups rows by
  a key (dedup pair generation, windows, sessions, cell blocking, PIP and
  range joins, sketch merges, reservoirs, prefix sums) hands it its parts
  and a function that is called once per reduce block and sees every row
  of each key it gets.  Hot-key salting stays upstream (SURVEY.md §7.3).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from engine import storage


def md5_digests(values) -> np.ndarray:
    """(n, 16) uint8: the md5 digest of each value's ``str`` as UTF-8.

    The engine's one content hash; each distinct value is hashed once.  Its
    first 8 bytes read little-endian (``stable_hash64``) equal DuckDB's
    ``md5_number_upper``, which is how the oracles replicate every hashed
    output (splits, samples, shingle and gram hashes, jitter, media stubs).
    Callers take views: ``.view('<u8')`` for 64-bit words, ``.view('<i8')``
    for the 128-bit pair, ``.view('<u4')`` for 32-bit words."""
    memo: dict[str, int] = {}
    rows = np.fromiter((memo.setdefault(str(v), len(memo)) for v in values),
                       dtype=np.intp)
    flat = b"".join(hashlib.md5(s.encode()).digest() for s in memo)
    return np.frombuffer(flat, dtype=np.uint8).reshape(-1, 16)[rows]


def stable_hash64(values) -> np.ndarray:
    """Deterministic (process-independent) 64-bit hash: the low word of
    ``md5_digests``.

    Replaces the reference's salted builtin ``hash`` in its seeded negative
    sampler (/root/reference/data_partition.py:55-60) with a stable digest so
    results are reproducible across runs and cluster sizes.
    """
    return md5_digests(values).view("<u8")[:, 0].copy()


def fast_hash64(values) -> np.ndarray:
    """Vectorized FNV-1a-style 64-bit hash over UTF-32 codepoints.

    Used where only the DISTRIBUTION matters (join partitioning, hot-cell
    salting) — no per-value Python loop; ``md5_digests`` stays on the
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
        # fixed width (same key must hash alike in every batch)
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
                     out_cols: dict[str, str]) -> ray.data.Dataset:
    """Inner join with a broadcast {key -> tuple} mapping: attach columns
    from each row's tuple, and drop the rows whose key (a null included)
    is not in the mapping, as SQL's ``JOIN`` does.

    ``out_cols`` maps output column name -> index into the tuple values.
    Lookups are vectorized: each worker unpacks the broadcast mapping once
    into a pandas Index of its keys and an Arrow array per output column,
    finds a batch's keys with one ``get_indexer`` call and takes the hits.
    """
    names = list(out_cols)
    idxs = [out_cols[n] for n in names]

    def unpack(table: dict):
        keys_ = list(table.keys())
        return pd.Index(keys_), {n: pa.array([table[k][i] for k in keys_])
                                 for n, i in zip(names, idxs)}

    maps = storage.broadcast(lookup, build=unpack)

    def attach(batch: pa.Table) -> pa.Table:
        index, cols = maps()
        pos = index.get_indexer(batch.column(key).to_numpy(
            zero_copy_only=False))
        hit = pos >= 0
        batch = batch.filter(pa.array(hit))
        for n in names:
            batch = batch.append_column(n, cols[n].take(pos[hit]))
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


SIDE = "__side"          # the part index column of a multi-part shuffle
_KEY = "__key"           # the 64-bit key mix the shuffle sorts on
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _common_key_type(types: list) -> pa.DataType:
    """The type every part's key column is cast to before hashing, so a key
    hashes alike on every side (400 and 400.0 meet in one call)."""
    if all(t == types[0] for t in types):
        return types[0]
    if all(pa.types.is_integer(t) for t in types):
        return pa.int64()
    if all(pa.types.is_integer(t) or pa.types.is_floating(t) for t in types):
        return pa.float64()
    return pa.string()


def _key_words(col, ktype) -> np.ndarray:
    """One uint64 per row of a key column, equal for equal keys."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if ktype is not None and col.type != ktype:
        col = col.cast(ktype, safe=False)   # equal keys stay equal
    t = col.type
    if pa.types.is_integer(t):
        return pc.fill_null(col.cast(pa.int64(), safe=False), 0).to_numpy() \
            .view(np.uint64)
    if pa.types.is_floating(t):
        v = pc.fill_null(col.cast(pa.float64()), 0.0).to_numpy() + 0.0
        return np.where(np.isnan(v), np.nan, v).view(np.uint64)  # -0.0, NaN
    return fast_hash64(col.cast(pa.string()).to_numpy(zero_copy_only=False))


def shuffle_groups(parts: list[tuple[ray.data.Dataset, list[str]]], fn,
                   batch_format: str = "pandas") -> ray.data.Dataset:
    """Co-partition ``parts`` on their keys; call ``fn`` per reduce block.

    ``parts`` is a list of ``(dataset, key columns)``; rows whose keys are
    equal (after casting each key to one type across the parts) land in the
    same call of ``fn``: it sees every row of each key it gets, of every
    part, as one ``batch_format`` frame, for any grouping of keys into
    calls.  A call may hold many keys, rows of one part only, and rows in
    no particular order.  With more than one part the frames are aligned
    to one schema (each column takes its type from the first part that has
    it; a part without a column gets nulls) and carry the part index in
    the int8 column ``SIDE``; a part whose schema Ray cannot infer from
    its plan runs up to its first block to type it (``Dataset.schema()``).

    The union of the parts is sorted on a 64-bit multiply mix of the keys,
    equal for equal keys, and ``fn`` runs on each nonempty block the sort
    emits.  A key is never split across calls: one sort reducer emits one
    block and ``batch_size=None`` hands it over whole, the guarantee Ray's
    own ``map_groups`` rests on.  Salt a hot key upstream if one
    dominates."""
    combined = None
    ktypes = [None] * len(parts[0][1])
    if len(parts) > 1:
        combined = {}
        for ds, _ in parts:
            schema = ds.schema()
            for name, typ in zip(schema.names, schema.types):
                combined.setdefault(name, typ)
        ktypes = [_common_key_type([combined[keys[i]] for _, keys in parts])
                  for i in range(len(ktypes))]

    def tag(side: int, keys: list[str]):
        def add_tag(batch: pa.Table) -> pa.Table:
            if combined is not None:
                cols = {}
                for name, typ in combined.items():
                    if name in batch.column_names:
                        col = batch.column(name)
                        cols[name] = col.cast(typ) if col.type != typ else col
                    else:
                        cols[name] = pa.nulls(batch.num_rows, type=typ)
                cols[SIDE] = pa.array(np.full(batch.num_rows, side, np.int8))
                batch = pa.table(cols)
            h = np.zeros(batch.num_rows, dtype=np.uint64)
            for k, ktype in zip(keys, ktypes):
                h = (h ^ _key_words(batch.column(k), ktype)) * _MIX
            # a schema with metadata (a pandas fn's b'pandas' entry) is
            # unhashable, and Ray's sort reducers hash schemas to dedup them
            return batch.append_column(_KEY, pa.array(h.view(np.int64))) \
                .replace_schema_metadata(None)
        return add_tag

    tagged = [ds.map_batches(tag(i, keys), batch_format="pyarrow")
              for i, (ds, keys) in enumerate(parts)]
    union = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]

    def run(g):
        if batch_format == "pandas":
            del g[_KEY]
        else:
            g = g.drop_columns([_KEY])
        return fn(g)
    run.__name__ = fn.__name__   # Ray names the operator after the site

    return union.sort(_KEY).map_batches(run, batch_size=None,
                                        batch_format=batch_format)


def bucketed_hash_join(left: ray.data.Dataset, right: ray.data.Dataset,
                       left_key: str, right_key: str,
                       how: str = "inner") -> ray.data.Dataset:
    """Partitioned hash join: the two sides co-partition on the key through
    ``shuffle_groups`` and each reduce block joins locally.

    The scale path when neither side fits in memory.  Output columns: the
    left's, then the right's (a name the left already has gets ``__r``),
    typed as ``shuffle_groups`` aligns them.
    """
    lcols, rcols = list(left.schema().names), list(right.schema().names)

    def join_group(g: pa.Table) -> pa.Table:
        """Arrow-native local hash join: pandas matches only the key/index
        pairs; payload columns (incl. list/binary types that pandas would
        mangle) move via zero-copy Table.take."""
        mask = pc.equal(g.column(SIDE), pa.scalar(0, pa.int8()))
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
        cols = {name: lt_.column(name) for name in lt_.column_names}
        for name in rt_.column_names:
            cols[name if name not in cols else name + "__r"] = \
                rt_.column(name)
        return pa.table(cols)

    return shuffle_groups([(left, [left_key]), (right, [right_key])],
                          join_group, batch_format="pyarrow")


def bucketed_anti_join(left: ray.data.Dataset, right: ray.data.Dataset,
                       left_key: str, right_key: str) -> ray.data.Dataset:
    """Partitioned anti join: keeps left rows whose key has NO right match.

    The scale path when the exclusion set is too big to broadcast
    (broadcast_semi_join(anti=True) is the small-side shortcut): both sides
    co-partition on the key and each reduce block filters locally with a
    vectorized is_in — only the key column of the right side rides the
    shuffle."""
    return _bucketed_filter_join(left, right, left_key, right_key, anti=True)


def bucketed_semi_join(left: ray.data.Dataset, right: ray.data.Dataset,
                       left_key: str, right_key: str) -> ray.data.Dataset:
    """Partitioned semi join: keeps left rows whose key HAS a right match
    (exactly once, regardless of right-side duplicates) — the
    membership-filter complement of ``bucketed_anti_join``."""
    return _bucketed_filter_join(left, right, left_key, right_key,
                                 anti=False)


def _bucketed_filter_join(left: ray.data.Dataset, right: ray.data.Dataset,
                          left_key: str, right_key: str,
                          anti: bool) -> ray.data.Dataset:
    lcols = list(left.schema().names)

    def filt_group(g: pa.Table) -> pa.Table:
        mask = pc.equal(g.column(SIDE), pa.scalar(0, pa.int8()))
        lg = g.filter(mask).select(lcols)
        excl = g.filter(pc.invert(mask)).column(right_key).combine_chunks()
        if len(excl) == 0:
            return lg if anti else lg.slice(0, 0)
        key = lg.column(left_key)
        ktype = _common_key_type([key.type, excl.type])
        member = pc.is_in(key.cast(ktype), value_set=excl.cast(ktype))
        return lg.filter(pc.invert(member) if anti else member)

    return shuffle_groups([(left, [left_key]),
                           (right.select_columns([right_key]), [right_key])],
                          filt_group, batch_format="pyarrow")


def _bloom_positions(values, m_bits: int, j: int) -> np.ndarray:
    """j deterministic bit positions per value: the first j uint32 words of
    ``md5_digests`` mod m_bits (j <= 4)."""
    return md5_digests(values).view("<u4")[:, :j].astype(np.int64) % m_bits


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
                    j: int = 4) -> ray.data.Dataset:
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
    return bucketed_semi_join(survivors, right, left_key, right_key)

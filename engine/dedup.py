"""Deduplication operators: exact, n-gram Jaccard, MinHash+LSH, SimHash,
embedding-cosine near-dup.

Ray-native shapes (ray_guide.md "Aggregation at scale"): content hash in a
vectorized map_batches -> digest shuffle keep-first for exact; shingle ->
minhash -> band explode -> band shuffle -> verify for LSH (every shuffle is
``joins.shuffle_groups``).  A corpus with *planted* duplicates (every
doc_id % 7 == 0 re-emitted under doc_id+100000) makes the checks
non-trivial at any scale.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from engine import gates, storage
from engine.joins import (list_column_matrix, md5_digests, shuffle_groups,
                          stable_hash64)


def planted_dup_corpus(docs: ray.data.Dataset) -> ray.data.Dataset:
    """documents ∪ duplicates of every doc_id % 7 == 0 at doc_id+100000."""
    def dup(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        mask = ids % 7 == 0
        extra = batch.filter(pa.array(mask))
        extra = extra.set_column(
            extra.schema.get_field_index("doc_id"), "doc_id",
            pa.array(extra.column("doc_id").to_numpy() + 100000))
        return pa.concat_tables([batch, extra])

    return docs.select_columns(["doc_id", "text"]).map_batches(
        dup, batch_format="pyarrow")


def exact_dedup(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Keep min(doc_id) per identical text; emit (doc_id, dup_count).

    Shape: per-block PARTIAL aggregate on the content digest (combiner —
    only (digest, min_id, count) rows ride the shuffle, never text), then
    ``shuffle_groups`` on the digest with ONE vectorized pandas aggregate
    per call.
    """
    def partial(batch: pa.Table) -> pa.Table:
        # full 128-bit md5 as two int64 columns: no hex-string objects
        h = md5_digests(batch.column("text").to_pylist()).view("<i8")
        df = pd.DataFrame({"__h1": h[:, 0], "__h2": h[:, 1],
                           "doc_id": batch.column("doc_id").to_numpy()})
        r = df.groupby(["__h1", "__h2"], as_index=False).agg(
            doc_id=("doc_id", "min"), n=("doc_id", "size"))
        return pa.table({
            "__h1": pa.array(r["__h1"].to_numpy()),
            "__h2": pa.array(r["__h2"].to_numpy()),
            "doc_id": pa.array(r["doc_id"].to_numpy(), type=pa.int64()),
            "n": pa.array(r["n"].to_numpy().astype(np.int64)),
        })

    def digest_groups(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby(["__h1", "__h2"], as_index=False).agg(
            doc_id=("doc_id", "min"), dup_count=("n", "sum"))
        return r[["doc_id", "dup_count"]]

    return shuffle_groups(
        [(docs.map_batches(partial, batch_format="pyarrow"),
          ["__h1", "__h2"])], digest_groups)


def _shingles(text: str, n: int = 3, pad: bool = False) -> set[str]:
    """n-gram word shingles.  Docs shorter than n tokens produce the empty
    set (matching the SQL oracle's generate_series semantics) unless ``pad``
    (used by minhash, which needs >= 1 shingle per doc)."""
    toks = text.split(" ")
    if len(toks) < n:
        return {" ".join(toks)} if pad else set()
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def ngram_jaccard_pairs(docs: ray.data.Dataset, threshold: float = 0.6,
                        n: int = 3, max_df: int = 1000,
                        df_cap: int = 200_000) -> ray.data.Dataset:
    """All-pairs n-gram Jaccard >= threshold among docs sharing a shingle.

    Shape (fully streaming, no driver materialization anywhere): explode
    (shingle, doc) -> shingle-shuffle pair generation -> distributed
    distinct -> bucketed-join exact verify.  Exact Jaccard values are ratios
    of ints (SQL-exact).  Emits (a_id, b_id, jaccard) with a_id < b_id.

    ``max_df``: document-frequency cutoff — a shingle appearing in more than
    ``max_df`` docs is skipped for pair *generation* (its O(df^2) pair
    explosion would dominate; any pair clearing a 0.6 threshold shares many
    shingles, so high-DF stop-shingles are redundant as candidates).  This
    bounds every group; pairs connected ONLY through dropped stop-shingles
    are not generated (documented approximation; raise max_df to disable).

    ``df_cap``: the driver-side document-frequency table is a capped
    heavy-hitters table, NOT the full distinct-shingle map: only the top
    ``df_cap`` shingles by (df DESC, shingle ASC), among those with df >= 2,
    are kept (per-call top-K then a final driver cut, so driver memory is
    O(df_cap) at any corpus size).  Every shingle outside the table is
    treated as df = 1.  The AllPairs prefix filter is LOSSLESS under ANY
    globally-consistent shingle order, and (df_capped(s), s) is consistent
    across all docs — truncation only affects pruning *efficiency* (the
    highest-df shingles, which drive the pruning, are exactly the ones
    kept), never the verified output.  Tie policy: rank by (df DESC,
    shingle ASC), deterministic at any parallelism.
    """
    def explode(batch: pa.Table) -> pa.Table:
        ids, shs = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            for s in _shingles(t, n):
                ids.append(d)
                shs.append(s)
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "shingle": pa.array(shs)})

    # global shingle document frequencies, BOUNDED: per-block partial counts
    # (combiner) -> shingle shuffle -> per-call exact sum + top-K cut
    # -> final driver cut to df_cap.  They define the canonical rare-first
    # order for PREFIX FILTERING; see the df_cap contract in the docstring.
    def block_df(batch: pa.Table) -> pa.Table:
        v, c = np.unique(batch.column("shingle").to_numpy(zero_copy_only=False),
                         return_counts=True)
        return pa.table({"shingle": pa.array(v),
                         "n": pa.array(c.astype(np.int64))})

    def topk_df(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("shingle", as_index=False)["n"].sum()
        s = s[s.n >= 2]  # df=1 shingles pair with nothing
        s = s.sort_values(["n", "shingle"], ascending=[False, True],
                          kind="mergesort").head(df_cap)
        return s[["shingle", "n"]]

    dfp = shuffle_groups(
        [(docs.map_batches(explode, batch_format="pyarrow")
          .map_batches(block_df, batch_format="pyarrow"), ["shingle"])],
        topk_df).to_pandas()
    dfp = dfp.sort_values(["n", "shingle"], ascending=[False, True],
                          kind="mergesort").head(df_cap)
    df_side = storage.broadcast(dict(zip(dfp.shingle, dfp.n)))

    def prefix_explode(batch: pa.Table) -> pa.Table:
        """AllPairs/SSJoin prefix filter (Bayardo et al. 2007): under a
        global (df, shingle) order, any pair with Jaccard >= t shares a
        shingle within each side's first |S| - ceil(t*|S|) + 1 shingles —
        so candidate generation over PREFIX shingles only is lossless while
        skipping every high-DF shingle outside the rare prefix."""
        dfmap = df_side()
        ids, shs = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            sh = _shingles(t, n)
            if not sh:
                continue
            p = len(sh) - int(np.ceil(threshold * len(sh))) + 1
            ordered = sorted(sh, key=lambda s: (dfmap.get(s, 1), s))[:p]
            for s in ordered:
                ids.append(d)
                shs.append(s)
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "shingle": pa.array(shs)})

    exploded = docs.map_batches(prefix_explode, batch_format="pyarrow")
    return _verify_pairs_join(
        docs, _pairs_sharing_key(exploded, ["shingle"], max_df), n, threshold)


def _pairs_sharing_key(rows: ray.data.Dataset, keys: list[str],
                       max_group: int) -> ray.data.Dataset:
    """Distinct (a_id, b_id), a_id < b_id, of every two ``doc_id`` rows that
    share ``keys``: one self-merge on the keys per shuffle call, skipping
    key groups of one row or of more than ``max_group`` rows (whose
    O(size^2) pairs would dominate), then the distributed distinct (a pair
    sharing several keys can be generated in several calls)."""
    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        size = g.groupby(keys)["doc_id"].transform("size")
        g = g[(size >= 2) & (size <= max_group)][["doc_id", *keys]]
        if g.empty:
            return pd.DataFrame({"a_id": pd.Series([], dtype="int64"),
                                 "b_id": pd.Series([], dtype="int64")})
        m = g.merge(g, on=keys)
        m = m[m.doc_id_x < m.doc_id_y].drop_duplicates(["doc_id_x", "doc_id_y"])
        return pd.DataFrame({"a_id": m.doc_id_x.to_numpy(),
                             "b_id": m.doc_id_y.to_numpy()})

    return _distinct_pairs(shuffle_groups([(rows, keys)], pairs))


def _distinct_pairs(cand: ray.data.Dataset) -> ray.data.Dataset:
    """Distributed (a_id, b_id) distinct: per-block pre-dedup (combiner),
    then ``shuffle_groups`` on the pair with ONE vectorized drop_duplicates
    per call."""
    def block_dedup(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({"a_id": b.column("a_id").to_numpy(),
                           "b_id": b.column("b_id").to_numpy()})
        df = df.drop_duplicates(["a_id", "b_id"])
        return pa.table({
            "a_id": pa.array(df.a_id.to_numpy(), type=pa.int64()),
            "b_id": pa.array(df.b_id.to_numpy(), type=pa.int64()),
        })

    def dedup_rows(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["a_id", "b_id"])[["a_id", "b_id"]]

    return shuffle_groups(
        [(cand.map_batches(block_dedup, batch_format="pyarrow"),
          ["a_id", "b_id"])], dedup_rows)


def _dedup_keyed_rows(ds: ray.data.Dataset,
                      keys: list[str]) -> ray.data.Dataset:
    """Defensive exactly-once on a final pair table: drop any duplicated
    key rows (all columns kept; duplicates, when they occur, are identical
    copies of the same verified pair).  Same shuffle as
    ``_distinct_pairs``.  Belt-and-braces: one sweep observed a transient
    duplicate-row anomaly at the end of a long multi-query session (7 dup
    rows out of 90, unreproducible across 10+ reruns); an independent final
    dedup pass squares the probability of any such anomaly surviving."""
    def dedup_rows(g: pd.DataFrame) -> pd.DataFrame:
        out = g.drop_duplicates(keys)
        if len(out) != len(g):
            # observe recurrence instead of silently absorbing it (see the
            # anomaly note above): worker-side log with exact counts
            import logging
            logging.getLogger("engine.dedup").warning(
                "_dedup_keyed_rows dropped %d duplicate key rows "
                "(call of %d rows) — exactly-once anomaly recurred",
                len(g) - len(out), len(g))
        return out

    return shuffle_groups([(ds, keys)], dedup_rows)


def _batch_shingle_hashes(texts: list[str], n: int, pad: bool):
    """Per-batch shingle hashing (``stable_hash64``, one md5 per distinct
    shingle): returns (counts per doc, uint64 hash stream in doc order)."""
    sh_lists = [sorted(_shingles(t, n, pad=pad)) for t in texts]
    counts = np.fromiter((len(s) for s in sh_lists), dtype=np.int64,
                         count=len(sh_lists))
    return counts, stable_hash64([s for sl in sh_lists for s in sl])


def _shingle_signatures(docs: ray.data.Dataset, n: int,
                        pad: bool) -> ray.data.Dataset:
    """(doc_id, shs: list<uint64>) per-doc sorted shingle-hash signatures —
    int lists flow zero-copy into numpy for the vectorized verify."""
    def sig(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        counts, stream = _batch_shingle_hashes(texts, n, pad)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        sets_ = [np.sort(stream[s:s + c])
                 for s, c in zip(starts, counts)]
        ids = pc.cast(batch.column("doc_id"), pa.int64())
        return pa.table({"doc_id": ids,
                         "shs": pa.array(sets_, type=pa.list_(pa.uint64()))})

    return docs.map_batches(sig, batch_format="pyarrow")


def _involved_filter(ds: ray.data.Dataset, id_col: str,
                     involved: np.ndarray) -> ray.data.Dataset:
    """Filter ``ds`` to rows whose ``id_col`` is in the broadcast sorted
    int64 ``involved`` array (broadcast once, sorted membership per batch):
    the data-induced semi-join predicate of every driver-verify scan."""
    inv = storage.broadcast(involved)

    def keep(bt: pa.Table) -> pa.Table:
        return bt.filter(pa.array(gates.sorted_member(
            inv(), bt.column(id_col).to_numpy())))

    return ds.map_batches(keep, batch_format="pyarrow")


def _verify_pairs(gate: str, pairs: ray.data.Dataset,
                  sigs: ray.data.Dataset, id_col: str, val_col: str,
                  score, drop_missing: bool) -> ray.data.Dataset:
    """Score candidate (a_id, b_id) pairs against the per-id ``val_col`` of
    ``sigs``.  ``score`` maps a batch of (a_id, b_id, a_val, b_val) to the
    kept output rows; both routes call it, so they agree by construction.

    Driver route: the pair table collects under
    ``gates.MAX_DRIVER_VERIFY_PAIRS`` rows, ONE scan of ``sigs`` filtered to
    the <= 2x|pairs| involved ids collects under
    ``gates.MAX_DRIVER_VERIFY_BYTES``, and the pairs are scored on the
    driver.  Distributed route: pairs ⋈ sigs(a side) ⋈ sigs(b side) by two
    bucketed hash joins, nothing on the driver.

    A pair whose id has no ``sigs`` row is dropped when ``drop_missing`` (as
    the inner joins drop it); otherwise the driver route raises the
    nondeterministic-upstream error, since the candidate and verify scans
    are two executions of the same pipeline."""
    from engine.joins import bucketed_hash_join

    pt, _ = gates.collect_under_budget(
        pairs, gate, gates.MAX_DRIVER_VERIFY_PAIRS, None)
    if pt is not None:
        a = pt.column("a_id").to_numpy().astype(np.int64)
        b = pt.column("b_id").to_numpy().astype(np.int64)
        kt, _ = gates.collect_under_budget(
            _involved_filter(sigs, id_col, np.unique(np.concatenate([a, b]))),
            gate, None, gates.MAX_DRIVER_VERIFY_BYTES)
        if kt is not None:
            kt = kt.sort_by(id_col)
            kid = kt.column(id_col).to_numpy()
            if drop_missing:
                m = gates.sorted_member(kid, a) & gates.sorted_member(kid, b)
                a, b = a[m], b[m]
            vals = kt.column(val_col)
            return ray.data.from_arrow(score(pa.table({
                "a_id": a, "b_id": b,
                "a_val": vals.take(gates.sorted_positions(kid, a, gate)),
                "b_val": vals.take(gates.sorted_positions(kid, b, gate))})))

    # materialized to the object store, not the driver: it feeds both sides
    sigs = sigs.materialize()

    def side(prefix: str) -> ray.data.Dataset:
        def f(bt: pa.Table) -> pa.Table:
            return pa.table({f"{prefix}_key": bt.column(id_col),
                             f"{prefix}_val": bt.column(val_col)})
        return sigs.map_batches(f, batch_format="pyarrow")

    j = bucketed_hash_join(pairs, side("a"),
                           "a_id", "a_key").drop_columns(["a_key"])
    j = bucketed_hash_join(j, side("b"),
                           "b_id", "b_key").drop_columns(["b_key"])
    return j.map_batches(score, batch_format="pyarrow")


def _kept(batch: pa.Table, col: str, values, keep: np.ndarray) -> pa.Table:
    """The verified output rows: (a_id, b_id, ``col``) where ``keep``."""
    m = pa.array(keep, type=pa.bool_())
    return pa.table({
        "a_id": batch.column("a_id").cast(pa.int64()).filter(m),
        "b_id": batch.column("b_id").cast(pa.int64()).filter(m),
        col: values.filter(m)})


def _jaccard_score(batch: pa.Table, threshold: float) -> pa.Table:
    """Exact Jaccard of sorted unique uint64 shingle-hash lists, kept at
    ``threshold``; an empty signature scores 0.0."""
    def flat(col):
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        return (arr.values.to_numpy(zero_copy_only=False),
                arr.offsets.to_numpy(zero_copy_only=False))

    av, ao = flat(batch.column("a_val"))
    bv, bo = flat(batch.column("b_val"))
    out = np.zeros(batch.num_rows)
    for i in range(batch.num_rows):
        sa = av[ao[i]:ao[i + 1]]
        sb = bv[bo[i]:bo[i + 1]]
        if len(sa) and len(sb):
            # sorted unique uint64 arrays -> C-speed intersection size
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            out[i] = inter / (len(sa) + len(sb) - inter)
    return _kept(batch, "jaccard", pa.array(out, type=pa.float64()),
                 out >= threshold)


def _verify_pairs_join(docs: ray.data.Dataset, cand_pairs: ray.data.Dataset,
                       n: int, threshold: float,
                       pad: bool = False) -> ray.data.Dataset:
    """Exact-Jaccard verification of candidate pairs through
    ``_verify_pairs`` (candidate tables are bounded upstream by the
    stop-bucket / max_df / banding caps, so the driver route is the common
    case).  A pair whose doc has no signature row is dropped."""
    return _verify_pairs(
        "verify_pairs_join", cand_pairs.materialize(),
        _shingle_signatures(docs, n, pad), "doc_id", "shs",
        functools.partial(_jaccard_score, threshold=threshold),
        drop_missing=True)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _perm_params(num_perm: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(object)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(object)
    return a, b


def minhash_signatures(docs: ray.data.Dataset, num_perm: int = 64,
                       n: int = 3) -> ray.data.Dataset:
    """Per-doc minhash signature over n-gram shingles (vectorized perms)."""
    a, b = _perm_params(num_perm)
    a64 = np.asarray([int(x) for x in a], dtype=np.uint64)
    b64 = np.asarray([int(x) for x in b], dtype=np.uint64)

    def sig(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        counts, stream = _batch_shingle_hashes(texts, n, pad=True)
        # universal hash family: (a*h + b) mod 2^64 (wraparound ok) over the
        # whole shingle stream at once, then a per-doc segmented min
        vals = stream[:, None] * a64[None, :] + b64[None, :]
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        mins = np.minimum.reduceat(vals, starts, axis=0) \
            if len(vals) else np.empty((0, len(a64)), dtype=np.uint64)
        out = mins.astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "sig": pa.array([o.tolist() for o in out],
                            type=pa.list_(pa.int64())),
        })

    return docs.map_batches(sig, batch_format="pyarrow")


def minhash_lsh_pairs(docs: ray.data.Dataset, num_perm: int = 64,
                      bands: int = 16, threshold: float = 0.5,
                      n: int = 3, max_bucket: int = 2000) -> ray.data.Dataset:
    """Banded LSH candidate pairs, verified with exact Jaccard.

    shingle -> minhash -> (band_id, band_hash, doc_id) explode ->
    band-shuffle pairs -> distributed distinct -> bucketed-join verify
    (ray_guide.md near-dup recipe); no driver-side pair materialization.

    ``max_bucket`` caps LSH bucket size: a band bucket holding more than
    ``max_bucket`` docs is dropped entirely (classic stop-bucket removal —
    such buckets are near-degenerate hashes whose O(size^2) pair explosion
    would dominate; true near-dup clusters that large still surface through
    their other 15 bands).  Bounds every group at scale.
    """
    rows_per_band = num_perm // bands
    sigs = minhash_signatures(docs, num_perm, n)

    def band_explode(batch: pa.Table) -> pa.Table:
        """Vectorized: band key = a 64-bit multiply-xor mix of the band's
        signature values (equality-equivalent to hashing the band tuple —
        only bucket EQUALITY matters downstream, which the SQL oracle
        replicates by grouping on the tuple itself)."""
        n = batch.num_rows
        if n == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "band": pa.array([], type=pa.int32()),
                             "bh": pa.array([], type=pa.int64())})
        M = list_column_matrix(batch.column("sig"), dtype=np.int64) \
            .view(np.uint64).reshape(n, bands, rows_per_band)
        mix = np.full((n, bands), 0xcbf29ce484222325, dtype=np.uint64)
        for r in range(rows_per_band):   # FNV-style fold over the band tuple
            mix = (mix ^ M[:, :, r]) * np.uint64(0x100000001b3)
        ids = np.repeat(batch.column("doc_id").to_numpy(), bands)
        band_ids = np.tile(np.arange(bands, dtype=np.int32), n)
        bh = mix.reshape(-1).view(np.int64)
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "band": pa.array(band_ids),
                         "bh": pa.array(bh)})

    bands_ds = sigs.map_batches(band_explode, batch_format="pyarrow")
    return _verify_pairs_join(
        docs, _pairs_sharing_key(bands_ds, ["band", "bh"], max_bucket), n,
        threshold, pad=True)


def simhash_signatures(docs: ray.data.Dataset) -> ray.data.Dataset:
    """64-bit SimHash over tokens: per-bit sign sum of token hashes.

    Vectorized: token hashes are ``stable_hash64`` over the batch's token
    stream (one md5 per distinct token); per-doc bit sums come from one
    ``np.add.reduceat`` over that stream.  Token repeats still count (sum
    over occurrences, acc > 0 strictly) — bit-identical to the scalar
    definition, which the DuckDB oracle replicates."""
    def sim(batch: pa.Table) -> pa.Table:
        shifts = np.arange(64, dtype=np.uint64)
        texts = batch.column("text").to_pylist()
        if not texts:
            return pa.table({"doc_id": batch.column("doc_id"),
                             "simhash": pa.array([], type=pa.uint64())})
        tok_lists = [t.split(" ") for t in texts]
        counts = np.fromiter((len(ws) for ws in tok_lists),
                             dtype=np.int64, count=len(tok_lists))
        hs = stable_hash64([w for ws in tok_lists for w in ws])
        bits = ((hs[:, None] >> shifts[None, :]) & np.uint64(1)) \
            .astype(np.int64)                      # (tokens, 64)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        S = np.add.reduceat(bits, starts, axis=0)  # per-doc bit sums
        acc = 2 * S - counts[:, None]              # sum of ±1 per bit
        out = np.bitwise_or.reduce(
            (acc > 0).astype(np.uint64) << shifts[None, :], axis=1)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "simhash": pa.array(out)})

    return docs.map_batches(sim, batch_format="pyarrow")


def simhash_pairs(docs: ray.data.Dataset, max_hamming: int = 3,
                  bands: int = 4, max_bucket: int = 2000) -> ray.data.Dataset:
    """SimHash near-dup pairs: banded exact-match blocking + popcount verify.

    The 64-bit signature splits into ``bands`` equal slices; by pigeonhole
    any pair within hamming distance <= bands-1 matches exactly on at least
    one slice, so the banded groupby is LOSSLESS for ``max_hamming <=
    bands - 1`` (the default).  Verification (``_verify_pairs``) filters
    on vectorized popcount of the XOR.  Emits (a_id, b_id, hamming),
    a_id < b_id."""
    assert max_hamming <= bands - 1, "banded blocking lossless only there"
    sigs = simhash_signatures(docs).materialize()
    width = 64 // bands
    mask = np.uint64((1 << width) - 1)

    def band_explode(b: pa.Table) -> pa.Table:
        h = b.column("simhash").to_numpy()
        ids = b.column("doc_id").to_numpy()
        shifts = (np.arange(bands, dtype=np.uint64) * np.uint64(width))
        vals = (h[:, None] >> shifts[None, :]) & mask
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, bands), type=pa.int64()),
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32),
                                     len(ids))),
            "bv": pa.array(vals.ravel().astype(np.int64)),
        })

    dd = _pairs_sharing_key(sigs.map_batches(band_explode,
                                             batch_format="pyarrow"),
                            ["band", "bv"], max_bucket).materialize()

    # banding caps bound the pair table, and a signature is ONE uint64 per
    # doc, so the driver route is the common case
    return _verify_pairs("simhash_pairs", dd, sigs, "doc_id", "simhash",
                         functools.partial(_popcount_score,
                                           max_hamming=max_hamming),
                         drop_missing=False)


def _popcount_score(batch: pa.Table, max_hamming: int) -> pa.Table:
    """Hamming distance of two 64-bit simhashes (popcount of the XOR), kept
    at ``max_hamming``."""
    xa = batch.column("a_val").to_numpy().astype(np.uint64)
    xb = batch.column("b_val").to_numpy().astype(np.uint64)
    x = (xa ^ xb).view(np.uint8).reshape(-1, 8)
    ham = np.unpackbits(x, axis=1).sum(axis=1).astype(np.int32)
    return _kept(batch, "hamming", pa.array(ham), ham <= max_hamming)


def planted_neardup_embeddings(emb: ray.data.Dataset) -> ray.data.Dataset:
    """embeddings ∪ jittered copies of every vec_id % 5 == 0 at
    vec_id+100000 (deterministic ~±1% uniform perturbation -> cosine ≈
    0.9997), so the near-dup operator has planted positives at any scale.

    The jitter is md5-derived, not RNG-derived, so the whole planting is
    bit-replicable in the DuckDB oracle: jit[d] = float32(v[d] + 0.02*u -
    0.01) with u = stable_hash64(f"{vid}:{d}") / 2^64 — DuckDB's
    ``md5_number_upper`` is the same integer, and its DOUBLE→REAL cast is
    the same round-to-nearest as numpy's astype(float32) (both verified;
    see oracles.DEDUP_EMBEDDING)."""

    def dup(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        mask = ids % 5 == 0
        keep = batch.filter(pa.array(mask))
        vecs = list_column_matrix(keep.column("embedding"))  # f64 of f32 values
        kept_ids = keep.column("vec_id").to_numpy()
        n, dim = vecs.shape if vecs.size else (0, 0)
        raw = stable_hash64([f"{int(v)}:{d}" for v in kept_ids
                             for d in range(dim)])
        u = raw.astype(np.float64).reshape(n, dim) * 2.0 ** -64
        jit = (vecs + (0.02 * u - 0.01)).astype(np.float32)
        extra = pa.table({
            "vec_id": pa.array(kept_ids + 100000),
            "embedding": pa.array([v.tolist() for v in jit],
                                  type=batch.schema.field("embedding").type),
        })
        base = pa.table({"vec_id": batch.column("vec_id"),
                         "embedding": batch.column("embedding")})
        return pa.concat_tables([base, extra])

    return emb.select_columns(["vec_id", "embedding"]).map_batches(
        dup, batch_format="pyarrow")


def embedding_near_dup(emb: ray.data.Dataset, threshold: float = 0.95,
                       bands: int = 8, bits_per_band: int = 8,
                       max_bucket: int = 2000, dim: int = 64,
                       seed: int = 11) -> ray.data.Dataset:
    """Embedding-cosine near-dup, banded (the minhash_lsh_pairs shape).

    ``bands`` independent random-hyperplane tables of ``bits_per_band`` bits
    each: a pair of vectors at angle θ matches one band with prob
    (1 - θ/π)^bits, and is a candidate if ANY band matches — so recall for
    cosine ≥ ``threshold`` pairs is 1-(1-p)^bands (≈1-8e-4 at cos 0.98 with
    the defaults) while the candidate key space has bands·2^bits buckets,
    not the 2^6 = 64 global buckets of the earlier single-table variant.

    Scale shape: only (vec_id, band, bucket) rides the shuffle — embeddings
    do NOT; a (band, bucket) bucket larger than ``max_bucket`` is dropped
    entirely (stop-bucket removal, as in minhash_lsh_pairs — degenerate
    directions whose O(size²) pair explosion would dominate; clusters that
    large still surface through their other bands); candidate pairs go
    through the distributed distinct and the exact-cosine
    ``_verify_pairs``, never an in-group all-pairs over a corpus fraction.
    Emits (a_id, b_id, cosine) with a_id < b_id, cosine >= threshold."""
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((bands * bits_per_band, dim))
    planes_side = storage.broadcast(planes)
    pow2 = (1 << np.arange(bits_per_band)).astype(np.int64)

    emb = emb.materialize()  # feeds bucketing AND both verify-join sides

    def band_explode(batch: pa.Table) -> pa.Table:
        pl = planes_side()
        vecs = list_column_matrix(batch.column("embedding"))
        ids = batch.column("vec_id").to_numpy()
        bits = ((vecs @ pl.T) > 0).astype(np.int64)
        # (n, bands) bucket keys: pack each band's bit slice
        bv = bits.reshape(len(ids), bands, bits_per_band) @ pow2
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, bands), type=pa.int64()),
            "band": pa.array(np.tile(np.arange(bands, dtype=np.int32),
                                     len(ids))),
            "bv": pa.array(bv.ravel()),
        })

    dd = _pairs_sharing_key(emb.map_batches(band_explode,
                                            batch_format="pyarrow"),
                            ["band", "bv"], max_bucket).materialize()
    return _verify_pairs("embedding_near_dup", dd, emb, "vec_id", "embedding",
                         functools.partial(_cosine_score, threshold=threshold),
                         drop_missing=False)


def _cosine_score(batch: pa.Table, threshold: float) -> pa.Table:
    """Exact cosine of two embeddings, kept at ``threshold``.  The emitted
    cosine is quantized to 1e-9 so the value is independent of float
    accumulation order (numpy pairwise sum vs the oracle's sequential SQL
    sum differ in the last ulps); the threshold test stays on the raw
    value."""
    va = list_column_matrix(batch.column("a_val"))
    vb = list_column_matrix(batch.column("b_val"))
    cos = (va * vb).sum(1) / (np.linalg.norm(va, axis=1)
                              * np.linalg.norm(vb, axis=1))
    return _kept(batch, "cosine",
                 pa.array(np.floor(cos * 1e9) / 1e9, type=pa.float64()),
                 cos >= threshold)


# ---------------------------------------------------------------------------
# Near-dup clustering: connected components over duplicate pairs
# ---------------------------------------------------------------------------

def dup_clusters(pairs: ray.data.Dataset,
                 max_iters: int = 50) -> ray.data.Dataset:
    """Connected components over a (a_id, b_id) duplicate-pair table:
    one row per distinct doc appearing in a pair, labeled with the MIN doc id
    of its component (the canonical representative a dedup pass keeps).

    Distributed min-label propagation (the classic BSP / "hash-to-min"
    shape): labels start at min(self, neighbors); each round ships every
    node's current label across its edges (bucketed hash join, never a
    driver-side graph) and takes a per-node min (one Ray sort-based
    aggregate).  Labels decrease monotonically, so a round with an unchanged
    global label sum is a fixpoint; rounds needed = component diameter.
    Near-dup components are shallow (dup clusters are quasi-cliques — the
    pair generators emit most intra-cluster edges directly), so a handful of
    rounds suffices at any corpus size; ``max_iters`` bounds the worst case.
    Each round is a full streaming pass — nothing driver-side but the
    1-row convergence aggregate.
    Size gate: a pair table within ``gates.MAX_SMALL_GRAPH_ROWS`` (the
    VERIFIED near-dup pairs — a vanishing fraction of any real corpus,
    bounded by the LSH stop-bucket caps upstream) is a small-side problem;
    it collects once and runs driver-side union-find with min-root labels —
    identical output, none of the BSP rounds' shuffle latency.
    """
    from ray.data.aggregate import Min, Sum
    from engine.joins import bucketed_hash_join

    pairs = pairs.select_columns(["a_id", "b_id"]).materialize()

    et, _ = gates.collect_under_budget(pairs, "dup_clusters",
                                       gates.MAX_SMALL_GRAPH_ROWS, None)
    if et is not None:
        nodes, inv = np.unique(np.concatenate([
            et.column("a_id").to_numpy(), et.column("b_id").to_numpy()
        ]).astype(np.int64), return_inverse=True)
        ai, bi = inv[:et.num_rows], inv[et.num_rows:]
        # vectorized union-find: alternate full pointer-jumping compression
        # (parent = parent[parent] to fixpoint) with a batched hook that
        # points every edge's larger root at the smallest root seen for it
        # (np.minimum.at).  O(log n) rounds of pure int-array ops — no
        # per-edge Python loop, so the small-graph threshold is safe at
        # millions of edges.  Labels converge to the component-min node,
        # identical to serial union-by-min (equality pinned vs the BSP
        # path by test_dup_clusters_*).
        parent = np.arange(len(nodes))
        while True:
            while True:                      # full path compression
                gp = parent[parent]
                if np.array_equal(gp, parent):
                    break
                parent = gp
            ra, rb = parent[ai], parent[bi]
            lo = np.minimum(ra, rb)
            hi = np.maximum(ra, rb)
            live = lo != hi
            if not live.any():
                break
            np.minimum.at(parent, hi[live], lo[live])
        labels_np = nodes[parent]
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(nodes, type=pa.int64()),
            "cluster_id": pa.array(labels_np, type=pa.int64())}))

    def undirected(batch: pa.Table) -> pa.Table:
        a = batch.column("a_id").to_numpy()
        b = batch.column("b_id").to_numpy()
        return pa.table({"src": pa.array(np.concatenate([a, b])),
                         "dst": pa.array(np.concatenate([b, a]))})

    edges = pairs.map_batches(undirected, batch_format="pyarrow").materialize()

    # initial labels: per-node min over (self, every neighbor)
    def self_and_nbr(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("src"),
                         "lbl": pc.min_element_wise(batch.column("src"),
                                                    batch.column("dst"))})

    labels = edges.map_batches(self_and_nbr, batch_format="pyarrow") \
        .groupby("node").aggregate(Min("lbl")) \
        .map_batches(lambda b: b.rename_columns(["node", "lbl"]),
                     batch_format="pyarrow").materialize()
    total = labels.aggregate(Sum("lbl"))["sum(lbl)"]

    for _ in range(max_iters):
        # ship labels across edges: neighbor's label is a candidate for mine
        msgs = bucketed_hash_join(edges, labels, "src", "node") \
            .map_batches(lambda b: pa.table({"node": b.column("dst"),
                                             "lbl": b.column("lbl")}),
                         batch_format="pyarrow")
        labels = labels.union(msgs).groupby("node").aggregate(Min("lbl")) \
            .map_batches(lambda b: b.rename_columns(["node", "lbl"]),
                         batch_format="pyarrow").materialize()
        new_total = labels.aggregate(Sum("lbl"))["sum(lbl)"]
        if new_total == total:   # monotone-decreasing -> fixpoint
            break
        total = new_total

    return labels.map_batches(
        lambda b: pa.table({"doc_id": b.column("node").cast(pa.int64()),
                            "cluster_id": b.column("lbl").cast(pa.int64())}),
        batch_format="pyarrow")


def semantic_dedup_ids(emb: ray.data.Dataset, threshold: float = 0.98,
                       pairs: ray.data.Dataset | None = None,
                       **near_dup_kw) -> ray.data.Dataset:
    """SemDeDup-style corpus-level near-dup REMOVAL (Abbas et al. 2023's
    keep-one-per-semantic-cluster, on exact pairwise cosine rather than
    cluster centroids): embedding near-dup pairs -> connected components
    (dup_clusters) -> drop every component member except its min-id
    representative.  Returns the KEPT (vec_id) rows of the input corpus.

    Scale shape: the drop set flows through a bucketed anti-join, never a
    driver collect — at 100 TB a heavily-duplicated corpus makes the
    exclusion side corpus-scale, so broadcast_semi_join(anti=True) would be
    the wrong plan.

    ``pairs`` accepts a precomputed near-dup pair table (a_id, b_id, ...) so
    callers running dedup_embedding / dedup_clusters on the same corpus
    share one pair computation instead of recomputing the LSH chain."""
    import pyarrow.compute as pc

    from engine.joins import bucketed_anti_join
    if pairs is None:
        pairs = embedding_near_dup(emb, threshold=threshold, **near_dup_kw)
    clusters = dup_clusters(pairs)

    def non_reps(b: pa.Table) -> pa.Table:
        keep = pc.not_equal(b.column("doc_id"), b.column("cluster_id"))
        return b.filter(keep).select(["doc_id"])

    drops = clusters.map_batches(non_reps, batch_format="pyarrow")
    ids = emb.select_columns(["vec_id"])
    return bucketed_anti_join(ids, drops, "vec_id", "doc_id")


def decontaminate(train: ray.data.Dataset, benchmark: ray.data.Dataset,
                  n: int = 3) -> ray.data.Dataset:
    """Benchmark n-gram decontamination — the train/eval-overlap scrub every
    published pre-training pipeline runs (GPT-3 appendix C / Llama 2 §A.6:
    flag a training document if it shares any word n-gram with an evaluation
    benchmark).

    Scale shape: the benchmark side is tiny by construction (benchmarks are
    megabytes even when the training corpus is 100 TB), so its DISTINCT
    shingle-hash set is reduced per-batch, unioned once on the driver and
    broadcast as one sorted uint64 array; the training corpus then STREAMS
    through a stateless map_batches doing a vectorized sorted-membership
    test (searchsorted) — no shuffle, no join, one pass.  If the benchmark
    side ever outgrew a broadcast, the bucketed-join path
    (``_verify_pairs_join``-style) is the fallback plan.

    Emits one row per training doc: (doc_id, n_grams, n_hits, contaminated)
    where n_grams counts the doc's DISTINCT n-grams and n_hits those also
    present anywhere in the benchmark.  All counts are exact ints (md5
    64-bit shingle hashing, same injectivity convention as the dedup
    operators), so the table is SQL-exact."""
    def bench_hashes(batch: pa.Table) -> pa.Table:
        _, stream = _batch_shingle_hashes(batch.column("text").to_pylist(),
                                          n, pad=False)
        return pa.table({"h": pa.array(np.unique(stream))})

    parts = benchmark.map_batches(bench_hashes, batch_format="pyarrow") \
        .to_pandas()  # DISTINCT hashes only — the declared small side
    bench_sorted = np.unique(parts["h"].to_numpy(dtype=np.uint64))
    bench_side = storage.broadcast(bench_sorted)

    def flag(batch: pa.Table) -> pa.Table:
        bench = bench_side()
        counts, stream = _batch_shingle_hashes(batch.column("text").to_pylist(),
                                               n, pad=False)
        hit = gates.sorted_member(bench, stream).astype(np.int64)
        # per-doc segment sums via cumsum (exact for zero-gram docs anywhere
        # in the batch, unlike reduceat whose clamped starts could swallow
        # the preceding doc's final hit when a zero-gram doc ends the batch)
        counts = np.asarray(counts, dtype=np.int64)
        cs = np.concatenate([[0], np.cumsum(hit)])
        ends = np.cumsum(counts)
        hits = (cs[ends] - cs[ends - counts]).astype(np.int64)
        return pa.table({
            "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            "n_grams": pa.array(counts),
            "n_hits": pa.array(hits),
            "contaminated": pa.array(hits > 0),
        })

    return train.map_batches(flag, batch_format="pyarrow")


def substring_dup_stats(docs: ray.data.Dataset, w: int = 8,
                        hash_grams: bool = True) -> ray.data.Dataset:
    """Substring-level duplication profile (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better" — the ExactSubstr signal at
    token-window granularity): for every token position, is the w-token
    window starting there present in at least one OTHER document?  Per doc:
    total positions, duplicated positions, their exact fraction, and a
    flag_remove at dup fraction >= 1/2 (integer cross-multiplication).

    Scale shape: (1) per-doc (gram, count) explode — positions are
    pre-aggregated per doc so a doc contributes one row per DISTINCT gram;
    (2) document frequency per gram via the per-block partial-count
    combiner + pre-aggregated groupby (each (doc, gram) row is one distinct
    doc, so block counts sum to df); (3) SIZE-GATED tail: the df>=2 gram
    set is usually tiny (only cross-doc duplicates), so within
    ``gates.MAX_BROADCAST_DUP_GRAMS`` it broadcasts as one sorted array and
    a second doc scan emits the complete per-doc profile in one pass
    (sorted membership; per-doc sums are local because each doc's grams are
    computed inside one call) — zero post-aggregate shuffles; above the
    bound, the original no-broadcast plan runs: bucketed hash join on the
    gram, per-doc sum combiner + groupby, LEFT join against the per-doc
    position base.

    By default (``hash_grams=True``) only 8-byte gram HASHES ride the two
    shuffles — ~10x fewer shuffle bytes than w-token strings at corpus
    scale.  Token hashes are ``joins.stable_hash64`` (DuckDB's
    ``md5_number_upper``), so the oracle stays bit-exact: both sides
    group/join on the same u64 (a collision, were one ever to occur, is
    replicated identically on both sides).  ``hash_grams=False`` keeps the
    string path for A/B equality testing.

    Collision bounds, both replicated identically by the oracle: per-TOKEN
    hashes are truncated to 48 bits (the widest that keeps every
    token_hash x B^j product under 2^112 in the oracle's signed-128-bit
    HUGEINT arithmetic: 2^48 x 2^64, sum of 8 < 2^115) — birthday 50% at
    ~2^24 ~= 16.7M distinct tokens, far above any natural-language
    vocabulary; a colliding token PAIR only conflates grams that contain
    one of the two tokens at the same window offset.  The 64-bit rolling
    GRAM hash then collides a given gram pair with p = 2^-64."""
    from engine.joins import bucketed_hash_join
    from ray.data.aggregate import Sum

    def base(batch: pa.Table) -> pa.Table:
        n_pos = np.asarray(
            [max(len(t.split(" ")) - w + 1, 0)
             for t in batch.column("text").to_pylist()], dtype=np.int64)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_positions": pa.array(n_pos)})

    # rolling-polynomial gram hash over 48-bit token hashes (the low word
    # of one ``stable_hash64`` call per batch), then w vectorized uint64 ops
    # per doc — no per-gram string joins or md5 calls.  uint64 wraparound
    # per term is congruent mod 2^64 to the oracle's full-precision HUGEINT
    # sum, so both sides group on the same value (collisions, astronomically
    # rare, replicate identically).  Shipped as the int64 two's-complement
    # view (bijective; Ray's groupby keeps int64 native where uint64 falls
    # back to pickled objects).
    B = np.uint64(1000003)
    POWS = np.empty(w, dtype=np.uint64)
    POWS[w - 1] = 1
    with np.errstate(over="ignore"):       # wraparound mod 2^64 is the point
        for j in range(w - 2, -1, -1):
            POWS[j] = POWS[j + 1] * B      # B^(w-1-j) mod 2^64

    def doc_grams(tok_lists: list[list[str]]):
        """(row, grams) per doc with at least one w-token window: the
        windows' uint64 rolling hashes, or their strings without
        ``hash_grams``."""
        if hash_grams:
            th = stable_hash64([t for tl in tok_lists for t in tl]) \
                & np.uint64(0xFFFFFFFFFFFF)
            ends = np.cumsum([len(tl) for tl in tok_lists])
        for i, toks in enumerate(tok_lists):
            n_pos = len(toks) - w + 1
            if n_pos <= 0:
                continue
            if hash_grams:
                t = th[ends[i] - len(toks):ends[i]]
                acc = np.zeros(n_pos, dtype=np.uint64)
                for j in range(w):
                    acc += t[j:j + n_pos] * POWS[j]
                yield i, acc
            else:
                yield i, [" ".join(toks[k:k + w]) for k in range(n_pos)]

    def explode(batch: pa.Table) -> pa.Table:
        ids, grams, cnts = [], [], []
        doc_ids = batch.column("doc_id").to_pylist()
        hs_out = []
        for i, g in doc_grams([t.split(" ") for t in
                               batch.column("text").to_pylist()]):
            u, c = np.unique(g, return_counts=True)
            if hash_grams:
                hs_out.append(u)
            else:
                grams.extend(u.tolist())
            ids.extend([doc_ids[i]] * len(u))
            cnts.extend(c.tolist())
        if hash_grams:
            hs = np.concatenate(hs_out) if hs_out \
                else np.empty(0, dtype=np.uint64)
            gram_col = pa.array(hs.view(np.int64), type=pa.int64())
        else:
            gram_col = pa.array(grams, type=pa.string())
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "gram": gram_col,
            "c": pa.array(np.asarray(cnts, dtype=np.int64)),
        })

    # pg is consumed twice (df aggregate + join left side); the explode is
    # recomputed rather than materialized — at corpus scale a pinned gram
    # table is O(total positions), while the re-scan streams
    pg = docs.map_batches(explode, batch_format="pyarrow")

    def block_df(batch: pa.Table) -> pa.Table:
        if hash_grams:
            g, n = np.unique(batch.column("gram").to_numpy(),
                             return_counts=True)
            gcol = pa.array(g, type=pa.int64())
        else:
            g, n = np.unique(np.asarray(batch.column("gram").to_pylist(),
                                        dtype=object), return_counts=True)
            gcol = pa.array(g.tolist(), type=pa.string())
        return pa.table({"gram": gcol,
                         "n": pa.array(n.astype(np.int64))})

    df = pg.map_batches(block_df, batch_format="pyarrow") \
        .groupby("gram").aggregate(Sum("n", alias_name="df"))

    import pyarrow.compute as pc
    dup_grams = df.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("df"), pa.scalar(2))),
        batch_format="pyarrow").materialize()

    # Size-gated tail: the duplicated-gram set is usually a vanishing
    # fraction of the corpus (only grams appearing in >=2 docs).  Within the
    # budget it broadcasts as one sorted array and a SECOND doc scan emits
    # the complete per-doc profile in one pass — sorted membership, per-doc
    # sums local to the scan (each doc's grams are computed inside one
    # call), zero joins or groupbys after the df aggregate.  A pathologically
    # duplicated corpus falls back to the bucketed-join path below.
    gt, _ = gates.collect_under_budget(dup_grams, "substring_dup_stats",
                                       gates.MAX_BROADCAST_DUP_GRAMS, None)
    if gt is not None:
        # strings stay an object (not 'U') array: a numpy U array is
        # FIXED-width, so one long gram would inflate every slot (rows x
        # longest x 4 bytes); python-str searchsorted is slower but
        # memory-sane, and the string path is the A/B-test flavor only
        dup_arr = np.sort(gt.column("gram").to_numpy()) if gt.num_rows \
            else np.empty(0, dtype=np.int64 if hash_grams else object)
        dups = storage.broadcast(dup_arr)

        def profile(batch: pa.Table) -> pa.Table:
            arr = dups()
            tok_lists = [t.split(" ")
                         for t in batch.column("text").to_pylist()]
            n_pos_out = np.asarray([max(len(tl) - w + 1, 0)
                                    for tl in tok_lists], dtype=np.int64)
            dp_out = np.zeros(len(tok_lists), dtype=np.int64)
            if len(arr):
                for i, g in doc_grams(tok_lists):
                    u, c = np.unique(g.view(np.int64) if hash_grams else g,
                                     return_counts=True)
                    dp_out[i] = int(c[gates.sorted_member(arr, u)].sum())
            with np.errstate(invalid="ignore"):
                frac = np.where(n_pos_out > 0,
                                dp_out / np.maximum(n_pos_out, 1), 0.0)
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "n_positions": pa.array(n_pos_out),
                "dup_positions": pa.array(dp_out),
                "dup_frac": pa.array(frac, type=pa.float64()),
                "flag_remove": pa.array((dp_out * 2 >= n_pos_out)
                                        & (n_pos_out > 0)),
            })

        return docs.map_batches(profile, batch_format="pyarrow")

    j = bucketed_hash_join(pg, dup_grams, "gram", "gram")

    def block_doc_sum(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        cs = batch.column("c").to_numpy()
        u, inv = np.unique(ids, return_inverse=True)
        s = np.zeros(len(u), dtype=np.int64)
        np.add.at(s, inv, cs)
        return pa.table({"doc_id": pa.array(u, type=pa.int64()),
                         "dup_positions": pa.array(s)})

    dup = j.map_batches(block_doc_sum, batch_format="pyarrow") \
        .groupby("doc_id").aggregate(Sum("dup_positions",
                                         alias_name="dup_positions"))
    # schema-pinning empty seed: with zero duplicated grams (an all-unique
    # corpus) the aggregate is empty and schema-less, which would crash the
    # downstream left join — the union keeps the dtype contract either way
    dup = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "dup_positions": pa.array([], type=pa.int64())})).union(dup)

    base_ds = docs.map_batches(base, batch_format="pyarrow")
    out = bucketed_hash_join(base_ds, dup, "doc_id", "doc_id", how="left")

    def finish(batch: pa.Table) -> pa.Table:
        n_pos = batch.column("n_positions").to_numpy()
        dp = batch.column("dup_positions").to_numpy(zero_copy_only=False)
        dp = np.nan_to_num(dp, nan=0.0).astype(np.int64)
        with np.errstate(invalid="ignore"):
            frac = np.where(n_pos > 0, dp / np.maximum(n_pos, 1), 0.0)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_positions": pa.array(n_pos),
            "dup_positions": pa.array(dp),
            "dup_frac": pa.array(frac, type=pa.float64()),
            "flag_remove": pa.array((dp * 2 >= n_pos) & (n_pos > 0)),
        })

    return out.map_batches(finish, batch_format="pyarrow")

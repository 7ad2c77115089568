"""The one keyed shuffle (engine/joins.py: shuffle_groups): it calls its
function once per reduce block with every row of each key it gets, every
operator that co-partitions on a key gives exactly the same rows whatever
the number of reduce blocks, two-sided keys of different numeric types
still meet, and the range join emits each pair once through its
reference-cell rule."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from engine import gates
from test_gates import (_docs, _embedding_near_dup, _jaccard,
                        _pair_features, _planted_docs, _simhash)
from test_pipeline import SF


_SORT = ray.data.Dataset.sort


def _reduce_blocks(monkeypatch, p: int) -> None:
    """Run every ``Dataset.sort`` over ``p`` input blocks, so the sort emits
    ``p`` reduce blocks and a ``shuffle_groups`` function gets at most ``p``
    calls: one call sees every key at p = 1."""
    monkeypatch.setattr(ray.data.Dataset, "sort",
                        lambda self, *a, **kw: _SORT(self.repartition(p),
                                                     *a, **kw))


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    """Rows in one order, whatever order the calls came back in."""
    if not len(df):
        return df
    return df[sorted(df.columns)].sort_values(sorted(df.columns)) \
        .reset_index(drop=True)


def _keyed_dups():
    from engine.dedup import _dedup_keyed_rows
    t = pa.table({"a_id": pa.array([1, 2, 1, 3, 2, 1], type=pa.int64()),
                  "b_id": pa.array([5, 6, 5, 7, 6, 9], type=pa.int64()),
                  "v": pa.array([0.5, 0.25, 0.5, 1.0, 0.25, 2.0])})
    return _dedup_keyed_rows(ray.data.from_arrow(t).repartition(3),
                             ["a_id", "b_id"])


def _filter_joins():
    from engine.joins import (bloom_semi_join, bucketed_anti_join,
                              bucketed_semi_join)
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(range(200), type=pa.int64()),
        "v": pa.array([f"v{i}" for i in range(200)])})).repartition(4)
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([3, 3, 17, 50, 199, 400], type=pa.int64())}))
    return [bucketed_anti_join(left, right, "k", "rk"),
            bucketed_semi_join(left, right, "k", "rk"),
            bloom_semi_join(left, right, "k", "rk", m_bits=64, j=2)]


def _sampled_docs():
    from engine.storage import read_parquet_clean
    return read_parquet_clean(f"{SF}/documents.parquet",
                              columns=["doc_id", "text", "lang"])


def _heavy_keys():
    """Four keys above n/8 among 1,400 singletons, over a sketch capacity
    of 64: every block and every call compresses, so the decrement ledger
    is nonzero."""
    from engine.relational import heavy_hitters
    rng = np.random.default_rng(5)
    keys = np.concatenate([np.repeat(np.arange(4), [400, 390, 380, 376]),
                           np.arange(100, 1500)])
    ds = ray.data.from_pandas(pd.DataFrame({"user_id": rng.permutation(keys)}))
    return heavy_hitters(ds.repartition(4), "user_id", denom=8, capacity=64)


def _query(name):
    def run():
        from engine import queries
        return getattr(queries, name)(SF)
    return run


def _op(module, name, *args, **kw):
    def run():
        import importlib
        fn = getattr(importlib.import_module(f"engine.{module}"), name)
        return fn(*[a() if callable(a) else a for a in args], **kw)
    return run


# name -> (run, {gates budget: value}); the budgets force the distributed
# plan wherever a size gate would otherwise skip the shuffle
CASES = {
    "exact_dedup": (_op("dedup", "exact_dedup", _planted_docs), {}),
    "ngram_jaccard_pairs": (_op("dedup", "ngram_jaccard_pairs", _docs), {}),
    "minhash_lsh_pairs": (lambda: _jaccard(0.5), {}),
    "simhash_pairs": (_simhash, {}),
    "embedding_near_dup": (_embedding_near_dup, {}),
    "dedup_keyed_rows": (_keyed_dups, {}),
    "substring_dup_stats": (_op("dedup", "substring_dup_stats",
                                _planted_docs),
                            {"MAX_BROADCAST_DUP_GRAMS": 0}),
    "filter_joins": (_filter_joins, {}),
    "supplier_part_join": (_op("relational", "supplier_part_join", SF), {}),
    "events_running": (_query("q_events_running"), {}),
    "events_asof_join": (_query("q_events_asof"), {}),
    "events_sessions": (_query("q_events_sessions"), {}),
    "events_interval_join": (_query("q_events_interval"), {}),
    "shipping_priority-driver": (_op("relational", "shipping_priority", SF),
                                 {}),
    "shipping_priority-join": (_op("relational", "shipping_priority", SF),
                               {"BROADCAST_MAX_SIDE_ROWS": 0}),
    "tfidf_topk": (_op("text", "tfidf_topk", _docs),
                   {"MAX_BROADCAST_VOCAB": 0}),
    "inverted_index": (_op("text", "inverted_index", _docs), {}),
    "merge_pair_counts": (_op("text", "merge_pair_counts", _docs, k=30), {}),
    "pair_features_join": (_pair_features, {"BROADCAST_MAX_SIDE_ROWS": 0}),
    "pip_join": (_query("geo_pip"), {}),
    "range_join": (_query("geo_range_join"), {}),
    "cell_blocking": (_query("geo_block_cells"), {}),
    "heavy_hitters": (_heavy_keys, {}),
    "reservoir_per_group": (_op("text", "reservoir_per_group",
                                _sampled_docs, k=7), {}),
    "pack_sequences": (_op("text", "pack_sequences", _sampled_docs,
                           window=64), {}),
}


def _frames(out) -> list[pd.DataFrame]:
    outs = out if isinstance(out, list) else [out]
    return [_canon(o if isinstance(o, pd.DataFrame) else o.to_pandas())
            for o in outs]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_independent_of_the_bucket_count(ray_session, monkeypatch,
                                                   name):
    """1, 7 and 64 reduce blocks give exactly equal rows and dtypes: one
    call holds every key, seven group the keys otherwise than 64 do, and no
    call's rows, present or absent, change a column's dtype.  (The name
    dates from the hash buckets the shuffle used to call its function on;
    it is kept so the test's ids stay stable.)"""
    run, budgets = CASES[name]
    for budget, value in budgets.items():
        monkeypatch.setattr(gates, budget, value)
    out = {}
    for p in (1, 7, 64):
        _reduce_blocks(monkeypatch, p)
        out[p] = _frames(run())
    assert sum(len(f) for f in out[64]) > 0
    for p in (1, 7):
        for want, got in zip(out[64], out[p]):
            pd.testing.assert_frame_equal(got, want, check_exact=True)


def test_fn_runs_once_per_reduce_block(ray_session):
    """200 distinct keys in 3 input blocks make at most 3 calls (one per
    reduce block, not one per key or per hash bucket), and each key's rows,
    spread over all 3 input blocks, arrive in one call."""
    from engine.joins import shuffle_groups
    keys = np.tile(np.arange(200, dtype=np.int64), 3)
    ds = ray.data.from_pandas(pd.DataFrame({"k": keys})).repartition(3)

    def summary(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [len(g)],
                             "keys": [sorted(set(g["k"].tolist()))]})

    out = shuffle_groups([(ds, ["k"])], summary).to_pandas()
    assert 1 <= len(out) <= 3
    assert out["n"].sum() == 600
    seen = [set(k) for k in out["keys"]]
    assert sum(len(k) for k in seen) == 200          # no key in two calls
    assert set().union(*seen) == set(range(200))
    assert out["n"].tolist() == [3 * len(k) for k in seen]


def test_blocks_reach_the_sort_without_schema_metadata(ray_session):
    """A pandas function's output comes back as Arrow with b'pandas' schema
    metadata; fed to a second shuffle, its blocks reach the sort with that
    metadata dropped, since Ray's sort reducers hash each block's schema to
    dedup them and a schema with metadata is unhashable (cell_blocking
    chains two shuffles this way)."""
    from engine.joins import shuffle_groups
    ds = ray.data.from_pandas(pd.DataFrame(
        {"k": np.arange(40, dtype=np.int64) % 7,
         "v": np.arange(40, dtype=np.int64)})).repartition(3)
    first = shuffle_groups([(ds, ["k"])],
                           lambda g: g.assign(w=g["v"] * 2))

    def schema_hash(g: pa.Table) -> pa.Table:
        return pa.table({"n": [g.num_rows], "h": [hash(g.schema)]})

    out = shuffle_groups([(first, ["k"])], schema_hash,
                         batch_format="pyarrow").to_pandas()
    assert out["n"].sum() == 40


def test_two_sided_keys_of_different_numeric_types_meet(ray_session,
                                                        monkeypatch):
    """An int64 key and a float64 key of equal value (400 and 400.0) hash
    alike, so the join finds them at any number of reduce blocks; an int64
    key beyond 2**53 against an int32 key hashes as an integer (a float64
    cast would refuse it)."""
    from engine.joins import bucketed_hash_join, bucketed_semi_join
    left = pd.DataFrame({"k": np.arange(0, 1000, 50, dtype=np.int64),
                         "x": np.arange(20, dtype=np.int64)})
    right = pd.DataFrame({"rk": np.array([400.0, 950.0, 25.0, 400.0]),
                          "y": np.array([1, 2, 3, 4], dtype=np.int64)})
    want = left.merge(right, left_on="k", right_on="rk") \
        .sort_values(["k", "y"]).reset_index(drop=True)
    for p in (7, 64):
        _reduce_blocks(monkeypatch, p)
        got = bucketed_hash_join(ray.data.from_pandas(left).repartition(3),
                                 ray.data.from_pandas(right), "k", "rk") \
            .to_pandas().sort_values(["k", "y"]).reset_index(drop=True)
        assert got[["k", "x", "rk", "y"]].values.tolist() == \
            want[["k", "x", "rk", "y"]].values.tolist()
        semi = bucketed_semi_join(ray.data.from_pandas(left),
                                  ray.data.from_pandas(right), "k", "rk")
        assert sorted(semi.to_pandas().k) == [400, 950]
    big = pd.DataFrame({"k": np.array([2**53 + 1, 2**62 + 7, 400, 7],
                                      dtype=np.int64),
                        "x": np.arange(4, dtype=np.int64)})
    small = pd.DataFrame({"rk": np.array([400, 7, 9], dtype=np.int32),
                          "y": np.array([1, 2, 3], dtype=np.int64)})
    for p in (7, 64):
        _reduce_blocks(monkeypatch, p)
        got = bucketed_hash_join(ray.data.from_pandas(big),
                                 ray.data.from_pandas(small), "k", "rk") \
            .to_pandas().sort_values("k")
        assert got[["k", "x", "y"]].values.tolist() == [[7, 3, 2],
                                                        [400, 2, 1]]
        semi = bucketed_semi_join(ray.data.from_pandas(big),
                                  ray.data.from_pandas(small), "k", "rk")
        assert sorted(semi.to_pandas().k) == [7, 400]


def _range_oracle(ids, x0, y0, x1, y1, d) -> pd.DataFrame:
    """All pairs with rectangle gap <= d, by the operator's closed form."""
    rows = []
    for i in range(len(ids)):
        for j in range(len(ids)):
            if ids[i] >= ids[j]:
                continue
            mx = max(max(x0[j] - x1[i], x0[i] - x1[j]), 0.0)
            my = max(max(y0[j] - y1[i], y0[i] - y1[j]), 0.0)
            dist = np.sqrt(mx * mx + my * my)
            if dist <= d:
                rows.append((ids[i], ids[j], dist))
    return pd.DataFrame(rows, columns=["a_id", "b_id", "dist"])


def test_range_join_emits_each_pair_once_from_its_reference_cell(
        ray_session):
    """Planted rectangles whose expanded boxes share 2 cells (both straddle
    the x = 128 line) and 4 cells (both straddle the corner (128, 128)),
    two pairs within d/2 of the world's edge whose expanded boxes reach
    row -1 or column -1 and cross a cell line, plus a random layout over
    the cell lines of a 128 m grid: every pair comes out exactly once and
    the table equals the all-pairs oracle."""
    from engine.spatial import range_join
    rng = np.random.default_rng(3)
    planted = [(125.0, 10.0, 2.0, 2.0), (130.0, 12.0, 1.0, 1.0),
               (125.0, 125.0, 2.0, 2.0), (129.0, 129.0, 1.0, 1.0),
               (300.0, 300.0, 1.0, 1.0),
               (125.0, 1.0, 2.0, 2.0), (130.0, 2.0, 1.0, 1.0),
               (1.0, 125.0, 2.0, 2.0), (2.0, 130.0, 1.0, 1.0)]
    n = 80
    rand = np.column_stack([rng.integers(100, 400, n) + 0.5,
                            rng.integers(100, 400, n) + 0.25,
                            rng.integers(1, 6, n).astype(float),
                            rng.integers(1, 6, n).astype(float)])
    r = np.vstack([np.array(planted), rand])
    ids = np.arange(len(r), dtype=np.int64)
    props = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([str(i) for i in ids]),
        "x0": pa.array(r[:, 0]), "y0": pa.array(r[:, 1]),
        "bounding_box_width": pa.array(r[:, 2]),
        "bounding_box_length": pa.array(r[:, 3]),
    })).repartition(4)
    d = 8.0
    got = range_join(props, d=d, res=10).to_pandas()   # 128 m cells
    assert not got.duplicated(["a_id", "b_id"]).any()
    want = _range_oracle(ids, r[:, 0], r[:, 1], r[:, 0] + r[:, 2],
                         r[:, 1] + r[:, 3], d)
    pairs = set(map(tuple, got[["a_id", "b_id"]].to_numpy()))
    assert {(0, 1), (2, 3), (5, 6), (7, 8)} <= pairs
    pd.testing.assert_frame_equal(_canon(got), _canon(want),
                                  check_exact=True)

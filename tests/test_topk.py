"""The one exact top-k (engine/blocking.py: topk_by_key, topk_scan) against
one np.lexsort oracle, on planted ties and NaNs, at the sites that rank
through it (the f32 GEMM form: test_cell_blocking's
test_topk_l2_f32_equals_bruteforce; the embedding placements:
test_operators' test_embedding_nn_sharded_equals_broadcast).
Integer-valued inputs keep every distance exact in any summation order, so
the oracle computes its own distances and ties are real ties on both
sides."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from engine import blocking as blk


def lexsort_topk(d: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """The oracle: per row, the first k positions of np.lexsort((keys, d)),
    which orders by (d, key) and puts NaN after every number."""
    return np.stack([np.lexsort((keys, row))[:k] for row in d])


def _grid(rng, n: int, dim: int, span: int = 3) -> np.ndarray:
    return rng.integers(-span, span + 1, size=(n, dim)).astype(np.float64)


def _exact_d2(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return ((X[:, None, :] - idx[None, :, :]) ** 2).sum(2)


def test_topk_by_key_puts_nan_last_and_orders_nans_by_key():
    d = np.array([[np.nan, np.nan, 1.0, np.nan]])
    assert blk.topk_by_key(d, np.arange(4), 2).tolist() == [[2, 0]]
    keys = np.array([9, 3, 7, 1])
    assert blk.topk_by_key(d, keys, 3).tolist() == [[2, 3, 1]]
    allnan = np.full((2, 5), np.nan)
    assert blk.topk_by_key(allnan, np.array([4, 0, 3, 1, 2]), 3).tolist() \
        == [[1, 3, 4]] * 2
    assert blk.topk_by_key(d, np.arange(4), 0).shape == (1, 0)


def _check_selection(rng, d: np.ndarray, keys: np.ndarray, k: int, trial):
    """topk_by_key, and topk_scan over a random split of the columns into
    blocks (some smaller than k, the last one empty when the last cut is
    m), give the oracle's positions and distances."""
    m = d.shape[1]
    want = lexsort_topk(d, keys, k)
    assert (blk.topk_by_key(d, keys, k) == want).all(), trial
    cuts = np.sort(rng.choice(np.arange(1, m + 1), rng.integers(1, 6)))
    spans = list(zip(np.r_[0, cuts[:-1]], cuts)) + [(cuts[-1], m)]
    pos, got = blk.topk_scan(((d[:, s:e], keys[s:e], np.arange(s, e))
                              for s, e in spans), k)
    assert (pos == want).all(), trial
    assert np.array_equal(got, np.take_along_axis(d, want, axis=1),
                          equal_nan=True), trial


def test_topk_scan_equals_lexsort_over_any_block_split():
    """Random distances with planted ties and NaNs (single entries and
    whole rows), split into random blocks, some smaller than k: every
    split gives the oracle's positions and distances."""
    rng = np.random.default_rng(5)
    for trial in range(200):
        n, m, k = rng.integers(1, 12), rng.integers(1, 80), rng.integers(1, 25)
        d = rng.integers(0, 6, size=(n, m)).astype(np.float64)
        d[rng.random((n, m)) < 0.2] = np.nan
        if trial % 3 == 0:
            d[rng.integers(n)] = np.nan
        keys = rng.permutation(m).astype(np.int64) * 7
        _check_selection(rng, d, keys, k, trial)


def test_topk_bound_on_non_integer_distances():
    """Non-integer f32 and f64 distances at widths on both sides of
    ``BOUND_COLS * k`` (above it, rows are first cut by the block-minima
    bound), with planted ties, duplicate keys, NaN entries, all-NaN rows
    and rows whose numbers fall in fewer than k column blocks."""
    rng = np.random.default_rng(11)
    w = blk.BOUND_COLS
    for trial in range(400):
        dtype = (np.float32, np.float64)[trial % 2]
        k = int(rng.integers(1, 9))
        m = int(w * k + rng.integers(-3, 4)) if trial % 3 \
            else int(rng.integers(w * k + 1, 3 * w * k))
        n = int(rng.integers(1, 10))
        d = (rng.random((n, m)) * 10).astype(dtype)
        tie = rng.random((n, m)) < 0.3
        d[tie] = rng.choice((rng.random(4) * 3).astype(dtype), tie.sum())
        d[rng.random((n, m)) < 0.1] = np.nan
        if trial % 4 == 0:
            d[rng.integers(n)] = np.nan
        elif trial % 4 == 1:   # numbers in fewer than k blocks of w columns
            r, row = rng.integers(n), np.full(m, np.nan, dtype=dtype)
            for b in rng.choice(-(-m // w), rng.integers(0, k), replace=False):
                cols = np.arange(b * w, min(b * w + w, m))
                pick = rng.choice(cols, rng.integers(1, len(cols) + 1))
                row[pick] = rng.random(len(pick)) * 5
            d[r] = row
        keys = rng.permutation(m) * 3 if trial % 5 \
            else rng.integers(0, m // 2 + 1, m)
        _check_selection(rng, d, keys, k, trial)


def test_bkafi_exact_scan_crosses_a_chunk_boundary():
    """BkafiKnn's exact-f64 mode over more than KNN_CHUNK index rows, with
    a NaN feature row on both sides."""
    rng = np.random.default_rng(3)
    n_idx = blk.KNN_CHUNK + 300
    X, idx = _grid(rng, 90, 3), _grid(rng, n_idx, 3)
    X[5, 0] = idx[blk.KNN_CHUNK + 7, 1] = np.nan
    idx_num = rng.permutation(n_idx).astype(np.int64)
    side = (idx, idx_num.astype(str), idx_num, np.zeros(3), np.ones(3))
    knn = blk.BkafiKnn(side, ["a", "b", "c"], np.ones(3), 21, exact=True)
    top, dist = knn.search(X)
    d2 = _exact_d2(X, idx)
    want = lexsort_topk(d2, idx_num, 21)
    assert (top == want).all()
    assert np.array_equal(dist, np.sqrt(np.take_along_axis(d2, want, axis=1)),
                          equal_nan=True)
    assert [a.shape for a in knn.search(X[:0])] == [(0, 21)] * 2


def test_centroid_nn_planted_ties_across_a_chunk_boundary():
    rng = np.random.default_rng(4)
    n_idx = blk.KNN_CHUNK + 500
    ids = rng.permutation(n_idx)
    ixy, cxy = _grid(rng, n_idx, 2, 20), _grid(rng, 60, 2, 20)
    idx = pd.DataFrame({"doc_id": ids.astype(str),
                        "cx": ixy[:, 0], "cy": ixy[:, 1]})
    cand = pd.DataFrame({"doc_id": [str(10**6 + i) for i in range(60)],
                         "cx": cxy[:, 0], "cy": cxy[:, 1]})
    got = blk.centroid_nn_dataset(cand, idx, nn_param=21)
    d2 = _exact_d2(cxy, ixy)
    want = lexsort_topk(d2, ids, 21)
    assert got.index_id.tolist() == ids[want].astype(str).ravel().tolist()
    assert np.array_equal(got.dist2.to_numpy(),
                          np.take_along_axis(d2, want, axis=1).ravel())
    assert got["rank"].tolist() == list(range(1, 22)) * 60


def test_brute_knn_local_topk_planted_ties(ray_session):
    """brute_knn over vectors whose cosine to each axis-aligned query is
    one exact vector component, so scores tie exactly; a zero vector's
    NaN scores rank last, by id."""
    from engine.similarity import brute_knn
    rng = np.random.default_rng(9)
    vecs = rng.integers(0, 3, size=(120, 4)).astype(np.float64)
    vecs[:4] = 2.0 * np.eye(4)            # the queries, ids 0-3
    vecs[50] = 0.0
    ids = np.r_[np.arange(4), rng.permutation(np.arange(4, 120)) + 1000]
    emb = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids), "embedding": pa.array(vecs.tolist())}))
    got = brute_knn(emb.repartition(3), list(range(4)), k=8)
    with np.errstate(invalid="ignore"):
        sim = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).T
    want = lexsort_topk(-sim, ids, 8)
    assert got.sort_values(["qid", "rank"]).neighbor_id.tolist() == \
        ids[want].ravel().tolist()
    # k past the numbered rows reaches the NaN score of the zero vector
    got = brute_knn(emb, [0], k=120).sort_values("rank")
    assert got.neighbor_id.tolist() == ids[lexsort_topk(-sim[:1], ids,
                                                        120)[0]].tolist()
    assert np.isnan(sim[0, 50])


def test_empty_index_ranks_nothing(ray_session):
    """An index side without rows gives every query row an empty ranking,
    (n, 0), as topk_by_key does for k = 0: through the f32 GEMM scan, the
    exact f64 scan and the embedding kernel (both score modes)."""
    X = _grid(np.random.default_rng(2), 3, 6)
    idx = np.empty((0, 6))
    no_ids = np.empty(0, dtype=np.int64)
    top, d = blk.topk_l2_f32(X.astype(np.float32), idx.astype(np.float32),
                             np.empty(0, np.float32), no_ids, 5)
    assert top.shape == d.shape == (3, 0)
    top, d2 = blk.topk_l2_exact(X, idx, no_ids, 5)
    assert top.shape == d2.shape == (3, 0)

    def emb(ids):
        vecs = _grid(np.random.default_rng(3), len(ids), 4)
        return pa.table({
            "doc_id": pa.array([str(i) for i in ids], type=pa.string()),
            "feature": pa.array(vecs.tolist(), type=pa.list_(pa.float64())),
            "raw": pa.array(vecs.tolist(), type=pa.list_(pa.float64())),
            "norm": pa.array(np.linalg.norm(vecs, axis=1))})
    for exact in (False, True):
        shard = blk._embedding_shard(emb([]), exact)
        got = blk._embedding_nn(ray.data.from_arrow(emb(range(5))),
                                [lambda: shard], 3, exact)
        assert got.count() == 0

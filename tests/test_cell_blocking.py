"""Cell-partitioned blocking: recall on planted matches, salted == unsalted
(SURVEY.md §7.4.5 skew-correctness requirement)."""

import numpy as np
import pandas as pd
import pytest
import ray.data

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def props_df(ray_session):
    from engine.corpus import corpus_dataset
    from engine.properties import properties_dataset
    return properties_dataset(corpus_dataset(SF)).to_pandas()


def _pairs_key(df):
    return set(zip(df.cand_id, df.index_id))


def test_cell_blocking_finds_planted_matches(props_df, ray_session):
    from engine.blocking import cell_blocking
    ds = ray.data.from_pandas(props_df[["doc_id", "source", "cx", "cy"]])
    out = cell_blocking(ds, res=9, ring=1).to_pandas()
    cands = set(props_df[props_df.source == "cands"].doc_id)
    index = set(props_df[props_df.source == "index"].doc_id)
    inter = cands & index
    # a matched index doc's centroid is within ~0.1 m of its cand's -> same
    # or adjacent cell, so cell blocking must recover essentially all of them
    found = {c for c, i in _pairs_key(out) if c == i}
    recall = len(found & inter) / len(inter)
    assert recall >= 0.99, recall


def test_cell_blocking_salted_equals_unsalted(props_df, ray_session):
    from engine.blocking import cell_blocking
    ds = ray.data.from_pandas(props_df[["doc_id", "source", "cx", "cy"]])
    # salt_threshold=25 forces many hot cells at res 5 (big cells)
    unsalted = cell_blocking(ds, res=5, ring=1, salt_threshold=10**9).to_pandas()
    salted = cell_blocking(ds, res=5, ring=1, salt_threshold=25).to_pandas()
    u = unsalted.sort_values(["cand_id", "rank"]).reset_index(drop=True)
    s = salted.sort_values(["cand_id", "rank"]).reset_index(drop=True)
    assert len(u) == len(s)
    assert (u.cand_id.to_numpy() == s.cand_id.to_numpy()).all()
    assert (u.index_id.to_numpy() == s.index_id.to_numpy()).all()
    assert (u.dist2.to_numpy() == s.dist2.to_numpy()).all()


def test_topk_l2_f32_equals_bruteforce(monkeypatch):
    """The threshold-pruned running top-k equals the lexsort oracle on the
    kernel's own d2 — including tie resolution by (d2, numeric id) —
    across random shapes, duplicate index rows (forced distance ties) and
    k >= n_idx, with 16-cand tiles and small index chunks (KNN_TILE and
    KNN_CHUNK patched) so the multi-tile and multi-chunk merges run.  The
    integer-grid cases tie at many distances within and across index
    chunks (their d2 is exact in any GEMM shape), and their cand row 3 has
    a NaN feature: NaN distances rank after every number, so it takes the
    k smallest ids."""
    import numpy as np
    import engine.blocking as blk
    from engine.blocking import topk_l2_f32
    from test_topk import lexsort_topk
    monkeypatch.setattr(blk, "KNN_TILE", 16)
    rng = np.random.default_rng(42)
    for trial, (n, n_idx, dim, k, chunk, grid) in enumerate(
            [(37, 500, 6, 5, 64, False), (5, 3, 4, 7, 2, False),
             (64, 4096, 6, 5, 512, False), (130, 1000, 3, 10, 100, False),
             (70, 300, 6, 9, 7, True), (70, 300, 6, 9, 64, True)]):
        if grid:
            X = rng.integers(-3, 4, size=(n, dim)).astype(np.float32)
            idx = rng.integers(-3, 4, size=(n_idx, dim)).astype(np.float32)
            X[3, 2] = np.nan
        else:
            X = rng.standard_normal((n, dim)).astype(np.float32)
            idx = rng.standard_normal((n_idx, dim)).astype(np.float32)
        # plant exact duplicates so distance ties exercise the id tiebreak
        if n_idx >= 10:
            idx[1] = idx[0]
            idx[7] = idx[3]
        idx_num = rng.permutation(n_idx).astype(np.int64)  # ids != positions
        idx_sq = (idx * idx).sum(1)
        monkeypatch.setattr(blk, "KNN_CHUNK", chunk)
        top, dist = topk_l2_f32(X, idx, idx_sq, idx_num, k)
        kk = min(k, n_idx)
        assert top.shape == (n, kk)
        x_sq = (X * X).sum(1)[:, None]
        d2_kernel = x_sq - 2.0 * (X @ idx.T) + idx_sq[None, :]
        want = lexsort_topk(d2_kernel, idx_num, kk)
        assert (top == want).all(), trial
        assert np.array_equal(dist, np.sqrt(np.maximum(
            np.take_along_axis(d2_kernel, want, axis=1), 0.0)),
            equal_nan=True), trial
        if grid:
            assert (top[3] == np.argsort(idx_num)[:kk]).all(), trial

"""Operator-level tests: cells, spans invariant, splits, dedup, matching,
similarity (SURVEY.md §5 items (c)-(d))."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from engine import cells
from engine.joins import stable_hash64
from engine.schema import SPAN_TYPE, assert_spans_preserved, span_fingerprint_column


def test_cell_encode_decode_roundtrip():
    res = 11
    c = cells.cell_of([100.0, 131071.0], [0.0, 70000.0], res)
    r, ix, iy = cells.decode(c)
    assert (r == res).all()
    assert ix[0] == int(100.0 / 64) and iy[0] == 0
    assert len(np.unique(c)) == 2


def test_cell_ring_and_disk():
    c = int(cells.cell_of(1000.0, 1000.0, 8))
    d1 = cells.disk(c, 1)
    assert len(d1) == 9
    r1 = cells.ring(c, 1)
    assert len(r1) == 8
    assert set(r1.tolist()) | {c} == set(d1.tolist())
    # world edge clipping
    edge = int(cells.cell_of(0.0, 0.0, 8))
    assert len(cells.disk(edge, 1)) == 4


def test_cover_bbox():
    cs = cells.cell_size(11)  # 64 m
    got = cells.cover_bbox(10.0, 10.0, 10.0 + cs, 10.0, 11)
    assert len(got) == 2  # crosses one x boundary


def test_cell_index_outside_the_grid_raises():
    """A column or row index outside [0, 2**res) would overwrite the id's
    other fields (row -1 ORs to -1), so encoding one raises."""
    with pytest.raises(ValueError):
        cells.encode(11, 5, -1)
    with pytest.raises(ValueError):
        cells.encode(11, 2 ** 11, 5)
    with pytest.raises(ValueError):   # a box past the world's edge
        cells.cover_bbox(-10.0, 10.0, 50.0, 10.0, 11)
    with pytest.raises(ValueError):
        cells.cover_bbox(10.0, 10.0, 10.0, cells.WORLD_SIZE + 1.0, 11)
    assert cells.decode(cells.encode(11, 2 ** 11 - 1, 0))[1] == 2 ** 11 - 1


def test_cell_parent_children_roundtrip():
    c = cells.cell_of([1000.0, 65000.0], [2000.0, 131000.0], 11)
    p = cells.parent(c, 8)
    r, ix, iy = cells.decode(p)
    assert (r == 8).all()
    # parent contains the point at the coarser res
    assert (p == cells.cell_of([1000.0, 65000.0], [2000.0, 131000.0], 8)).all()
    # children of the parent, refined back down, cover the original cell
    kids = cells.children(int(p[0]))
    assert len(kids) == 4 and len(set(kids.tolist())) == 4
    assert (cells.parent(kids, 8) == p[0]).all()
    # three levels down then back up is identity
    assert (cells.parent(cells.parent(c, 9), 8) == p).all()
    with pytest.raises(ValueError):
        cells.parent(p, 11)


def test_span_fingerprint_detects_mutation():
    spans = [[{"kind": "text", "text": "a", "media_ref": "", "offset": 0},
              {"kind": "geom", "text": "{}", "media_ref": "", "offset": 1}]]
    t1 = pa.table({"doc_id": ["d"], "spans": pa.array(spans, type=pa.list_(SPAN_TYPE))})
    mutated = [[{"kind": "text", "text": "a!", "media_ref": "", "offset": 0},
                {"kind": "geom", "text": "{}", "media_ref": "", "offset": 1}]]
    t2 = pa.table({"doc_id": ["d"], "spans": pa.array(mutated, type=pa.list_(SPAN_TYPE))})
    assert_spans_preserved(t1, t1)
    with pytest.raises(AssertionError):
        assert_spans_preserved(t1, t2)
    # offset order is part of the fingerprint, not storage order
    reordered = [list(reversed(spans[0]))]
    t3 = pa.table({"doc_id": ["d"], "spans": pa.array(reordered, type=pa.list_(SPAN_TYPE))})
    assert_spans_preserved(t1, t3)


def test_corpus_pipeline_preserves_spans():
    """The document table read back after the generation stage keeps every
    span sequence (per-row invariant through write/read round trip)."""
    import pyarrow.parquet as pq
    from engine.corpus import ensure_corpus
    from datagen.buildings import doc_spans
    t = pq.read_table(ensure_corpus("/root/testdata/sf0.001"))
    fps = span_fingerprint_column(t.column("spans")).to_pylist()
    ids = t.column("doc_id").to_pylist()
    srcs = t.column("source").to_pylist()
    # regenerate one doc per source directly and compare fingerprints
    import hashlib
    for i in (0, 1, len(ids) - 1):
        regen = doc_spans(int(ids[i]), srcs[i])
        h = hashlib.sha256()
        for s in sorted(regen, key=lambda s: s["offset"]):
            h.update(s["kind"].encode()); h.update(b"\x00")
            h.update(s["text"].encode()); h.update(b"\x00")
            h.update(s["media_ref"].encode()); h.update(b"\x01")
        assert h.hexdigest() == fps[i]


def test_stable_hash_deterministic():
    a = stable_hash64(["x", "y", "z"])
    b = stable_hash64(["x", "y", "z"])
    assert (a == b).all()
    assert len(set(a.tolist())) == 3


def test_md5_digests_views_match_hashlib(monkeypatch):
    """md5_digests hashes ``str(v)`` as UTF-8, one md5 call per distinct
    string, and each view a caller takes is the matching hashlib digest
    slice: stable_hash64 (low word, little-endian: DuckDB's
    md5_number_upper), exact_dedup's 128-bit int64 pair, the Bloom
    filter's 32-bit words and the substring operator's 48-bit token hash."""
    from engine.joins import _bloom_positions, md5_digests
    vals = ["x", "", "é✓ 中", 7, "7", "x", 7, -3]
    want = [hashlib.md5(str(v).encode()).digest() for v in vals]
    real, calls = hashlib.md5, []
    monkeypatch.setattr(hashlib, "md5", lambda b: calls.append(b) or real(b))
    d = md5_digests(vals)
    monkeypatch.undo()
    assert sorted(calls) == sorted({str(v).encode() for v in vals})
    assert d.shape == (8, 16) and d.dtype == np.uint8
    assert [bytes(r) for r in d] == want

    def word(w, a, b, signed=False):
        return int.from_bytes(w[a:b], "little", signed=signed)

    assert stable_hash64(vals).tolist() == [word(w, 0, 8) for w in want]
    assert d.view("<i8").tolist() == [
        [word(w, 0, 8, True), word(w, 8, 16, True)] for w in want]
    assert _bloom_positions(vals, 1 << 17, 3).tolist() == [
        [word(w, 4 * i, 4 * i + 4) % (1 << 17) for i in range(3)]
        for w in want]
    assert (stable_hash64(vals) & np.uint64(2**48 - 1)).tolist() == [
        word(w, 0, 6) for w in want]
    assert md5_digests([]).shape == (0, 16)
    assert stable_hash64([]).dtype == np.uint64 and not len(stable_hash64([]))


def test_split_and_negative_sampling_deterministic():
    from engine.splits import negative_sample_pairs, train_test_ids
    ids = [str(i) for i in range(200)]
    tr1, te1 = train_test_ids(ids, seed=7)
    tr2, te2 = train_test_ids(ids, seed=7)
    assert tr1 == tr2 and te1 == te2
    assert set(tr1) | set(te1) == set(ids)
    assert not set(tr1) & set(te1)
    p1 = negative_sample_pairs(ids[:20], ids, neg_num=2, seed=7).to_pandas()
    p2 = negative_sample_pairs(ids[:20], ids, neg_num=2, seed=7).to_pandas()
    key = lambda df: sorted(map(tuple, df.values.tolist()))
    assert key(p1) == key(p2)
    assert (p1[p1.label == 1].cand_id == p1[p1.label == 1].index_id).all()
    assert (p1[p1.label == 0].cand_id != p1[p1.label == 0].index_id).all()


def test_random_forest_deterministic_and_separates():
    from engine.matching import RandomForest, f1_binary
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0, 1, (300, 5)), rng.normal(2.5, 1, (300, 5))])
    y = np.repeat([0, 1], 300).astype(np.int8)
    m1 = RandomForest(n_estimators=10, random_state=5).fit(X, y)
    m2 = RandomForest(n_estimators=10, random_state=5).fit(X, y)
    assert (m1.predict(X) == m2.predict(X)).all()
    assert (m1.feature_importances_ == m2.feature_importances_).all()
    f1, _, _ = f1_binary(y, m1.predict(X))
    assert f1 > 0.95


def test_random_forest_parallel_fit_matches_serial(ray_session):
    from engine.matching import RandomForest
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (5000, 25))  # big enough to take the Ray-task path
    y = (X[:, 0] + X[:, 3] > 0).astype(np.int8)
    m_par = RandomForest(n_estimators=8, random_state=9).fit(X, y)
    import engine.matching as em
    import ray as _ray
    was = _ray.is_initialized
    try:
        _ray.is_initialized = lambda: False  # force serial path
        m_ser = RandomForest(n_estimators=8, random_state=9).fit(X, y)
    finally:
        _ray.is_initialized = was
    assert (m_par.feature_importances_ == m_ser.feature_importances_).all()
    Xt = rng.normal(0, 1, (500, 25))
    assert (m_par.predict_proba(Xt) == m_ser.predict_proba(Xt)).all()


def test_ratio_features_reference_semantics():
    from engine.pairs import ratio_features
    c = np.array([[2.0, 1.0, 5.0]])
    i = np.array([[1.0, 0.0, 0.0001]])
    out = ratio_features(c, i)
    assert out[0, 0] == 2.0
    # numpy scalar semantics: c/0 -> inf -> min(1000, inf) = 1000 (the
    # reference's except branch never fires for float64 operands)
    assert out[0, 1] == 1000.0
    assert out[0, 2] == 1000.0     # clipped at max_ratio_val
    # 0/0 -> nan -> min(1000, nan) = 1000 under Python min()
    assert ratio_features(np.array([[0.0]]), np.array([[0.0]]))[0, 0] == 1000.0
    assert ratio_features(np.array([[1.0]]), np.array([[3.0]]))[0, 0] == 0.333


def test_dedup_exact_finds_planted(ray_session):
    from engine.dedup import exact_dedup, planted_dup_corpus
    docs = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet",
                                 columns=["doc_id", "text"])
    out = exact_dedup(planted_dup_corpus(docs)).to_pandas()
    dup_groups = out[out.dup_count >= 2]
    planted = len([i for i in range(500) if i % 7 == 0])
    assert len(dup_groups) >= planted * 0.95  # natural text collisions may merge a few
    assert out.dup_count.sum() == 500 + planted


def test_minhash_lsh_recovers_planted_dups(ray_session):
    from engine.dedup import minhash_lsh_pairs, planted_dup_corpus
    docs = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet",
                                 columns=["doc_id", "text"])
    out = minhash_lsh_pairs(planted_dup_corpus(docs), threshold=0.5).to_pandas()
    planted = {(i, i + 100000) for i in range(0, 500, 7)}
    found = set(zip(out.a_id, out.b_id))
    hit = len(planted & found) / len(planted)
    assert hit >= 0.95, f"LSH recall {hit}"


def test_embedding_blocker_exact_tie_order(ray_session):
    """Exact-cosine mode: equal-score index docs (identical raw vectors)
    must rank by numeric doc id, and scores must equal intdot/(nc*ni)."""
    from engine.blocking import embedding_nn_auto
    raw = [[3.0, 4.0, 0.0], [3.0, 4.0, 0.0], [0.0, 5.0, 0.0]]
    idx = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["20", "7", "15"]), "raw": pa.array(raw),
        "norm": pa.array([5.0, 5.0, 5.0])}))
    cand = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["1"]),
        "raw": pa.array([[3.0, 4.0, 0.0]]),
        "norm": pa.array([5.0]),
    }))
    out = embedding_nn_auto(cand, idx, nn_param=3, exact=True) \
        .to_pandas().sort_values("rank")
    assert list(out.index_id) == ["7", "20", "15"]  # ties 7<20, then 15
    assert list(out.score) == [1.0, 1.0, 20.0 / 25.0]


def test_dup_clusters_chain_transitivity(ray_session):
    """Connected components must close transitive chains the pair list only
    gives as consecutive edges: 1-2, 2-3, 3-4 -> one cluster labeled 1."""
    from engine.dedup import dup_clusters
    pairs = ray.data.from_arrow(pa.table({
        "a_id": pa.array([1, 2, 3, 10, 20, 21], type=pa.int64()),
        "b_id": pa.array([2, 3, 4, 11, 21, 22], type=pa.int64()),
    }))
    want = {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10,
            20: 20, 21: 20, 22: 20}
    # both routes of the size gate: tests/test_gates.py
    out = dup_clusters(pairs).to_pandas().sort_values("doc_id")
    assert dict(zip(out.doc_id, out.cluster_id)) == want


def test_png_render_valid_and_deterministic(ray_session):
    """K5 renderer: valid PNG structure (magic + IHDR + zlib-decodable
    IDAT), deterministic bytes, actor-pool stage end to end."""
    import struct
    import zlib
    from datagen.buildings import doc_spans
    from engine.render import encode_png_gray, render_dataset, render_doc_pngs
    spans = doc_spans(7, "cands")
    png1, png2 = render_doc_pngs([spans, spans])
    assert png1 == png2 and png1.startswith(b"\x89PNG\r\n\x1a\n")
    w, h = struct.unpack(">II", png1[16:24])
    assert (w, h) == (64, 64)
    idat_pos = png1.index(b"IDAT")
    ln = struct.unpack(">I", png1[idat_pos - 4:idat_pos])[0]
    raw = zlib.decompress(png1[idat_pos + 4:idat_pos + 4 + ln])
    assert len(raw) == h * (w + 1)  # filter byte + row
    img = np.frombuffer(raw, dtype=np.uint8).reshape(h, w + 1)[:, 1:]
    assert (img == 255).sum() > 50  # wireframe actually drawn
    # actor-pool stage
    from engine.corpus import corpus_dataset
    out = render_dataset(
        corpus_dataset("/root/testdata/sf0.001").limit(20)).to_pandas()
    assert len(out) == 20
    assert all(p.startswith(b"\x89PNG") for p in out.png)


def test_simhash_pairs_finds_planted_and_respects_bound(ray_session):
    from engine.dedup import planted_dup_corpus, simhash_pairs
    docs = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet",
                                 columns=["doc_id", "text"])
    out = simhash_pairs(planted_dup_corpus(docs)).to_pandas()
    planted = {(i, i + 100000) for i in range(0, 500, 7)}
    found = set(zip(out.a_id, out.b_id))
    assert len(planted & found) == len(planted)  # identical text -> ham 0
    assert (out.hamming <= 3).all()
    exact = out[[tuple(p) in planted for p in zip(out.a_id, out.b_id)]]
    assert (exact.hamming == 0).all()


def test_ngram_prefix_filter_lossless_vs_bruteforce(ray_session):
    """Prefix filtering must be LOSSLESS for J >= t: on random small-vocab
    corpora (heavy shingle sharing), the operator's output equals the exact
    all-pairs Jaccard computation."""
    import pyarrow as pa
    from engine.dedup import _shingles, ngram_jaccard_pairs
    rng = np.random.default_rng(42)
    vocab = [f"w{i}" for i in range(12)]  # tiny vocab -> many shared shingles
    for trial in range(3):
        texts = [" ".join(rng.choice(vocab, size=rng.integers(6, 14)))
                 for _ in range(60)]
        texts += texts[:5]  # planted exact dups
        docs = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts)})).repartition(3)
        got = ngram_jaccard_pairs(docs, threshold=0.6).to_pandas()
        got_pairs = set(zip(got.a_id, got.b_id)) if len(got) else set()
        # brute force
        sets_ = [_shingles(t, 3) for t in texts]
        want = set()
        for i in range(len(texts)):
            for j in range(i + 1, len(texts)):
                sa, sb = sets_[i], sets_[j]
                if not sa or not sb:
                    continue
                inter = len(sa & sb)
                if inter / (len(sa) + len(sb) - inter) >= 0.6:
                    want.add((i, j))
        assert got_pairs == want, (trial, got_pairs ^ want)


def test_dedup_skew_bounded_by_df_cutoff(ray_session):
    """One stop-shingle present in 50% of docs must not explode pair-gen:
    with max_df below the stop-shingle's DF the operator completes, skips
    the hot group, and still finds true near-dups through their low-DF
    shingles."""
    import pyarrow as pa
    from engine.dedup import ngram_jaccard_pairs
    n = 400
    texts = []
    for i in range(n):
        base = f"w{i}a w{i}b w{i}c w{i}d w{i}e"
        if i % 2 == 0:  # 3-gram 'common stop shingle' lands in 50% of docs
            base += " common stop shingle"
        texts.append(base)
    texts.append(texts[0])  # planted exact dup of doc 0
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(n + 1)), type=pa.int64()),
        "text": pa.array(texts)})).repartition(4)
    out = ngram_jaccard_pairs(docs, threshold=0.6, max_df=50).to_pandas()
    # the planted pair shares 5 low-DF shingles -> found despite the cutoff
    assert ((out.a_id == 0) & (out.b_id == n) & (out.jaccard == 1.0)).any()
    # nothing else clears 0.6 (stop-shingle-only pairs were never generated)
    assert len(out) == 1


def test_ivf_knn_recall_vs_brute(ray_session):
    from engine.similarity import brute_knn, ivf_knn
    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                                columns=["vec_id", "embedding"]).materialize()
    qids = list(range(10))
    exact = brute_knn(emb, qids, k=10)
    approx = ivf_knn(emb, qids, k=10)
    e = set(zip(exact.qid, exact.neighbor_id))
    a = set(zip(approx.qid, approx.neighbor_id))
    recall = len(e & a) / len(e)
    assert recall >= 0.5, recall  # probe-limited scan; 6/16 clusters probed
    # determinism: identical output across runs (no RNG anywhere)
    again = ivf_knn(emb, qids, k=10)
    assert approx.equals(again)


def test_lsh_knn_recall_vs_brute(ray_session):
    from engine.similarity import brute_knn, lsh_knn
    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    exact = brute_knn(emb, list(range(10)), k=5)
    approx = lsh_knn(emb, list(range(10)), k=5)
    e = set(zip(exact.qid, exact.neighbor_id))
    a = set(zip(approx.qid, approx.neighbor_id))
    assert len(e & a) / len(e) >= 0.5  # approximate, but far above chance


@pytest.mark.parametrize("site", ["centroid", "spatial", "lsh"])
def test_knn_ties_at_the_kth_distance_keep_the_smallest_ids(site):
    """Thirty index rows at one distance from a cand, planted in descending
    id order: every top-k site keeps ids 0-4, the (distance, numeric id)
    order of the DuckDB oracles, not an arbitrary subset of the ties."""
    ids = list(range(29, -1, -1))
    idx = pd.DataFrame({"doc_id": [str(i) for i in ids], "cx": 1.0,
                        "cy": 0.0})
    cand = pd.DataFrame({"doc_id": ["100"], "cx": [0.0], "cy": [0.0]})
    if site == "centroid":
        from engine.blocking import centroid_nn_dataset
        got = centroid_nn_dataset(cand, idx, nn_param=5)
        got = got.sort_values("rank").index_id.tolist()
    elif site == "spatial":
        from engine.spatial import knn_join
        got = knn_join(ray.data.from_pandas(cand), idx, k=5).to_pandas()
        got = got.sort_values("rank").index_id.tolist()
    else:
        from engine.similarity import lsh_knn
        emb = ray.data.from_items(
            [{"vec_id": i, "embedding": [1.0, 2.0, 3.0, 4.0]}
             for i in [100, *ids]], override_num_blocks=1)
        got = lsh_knn(emb, [100], k=5).sort_values("rank")
        got = got.neighbor_id.astype(str).tolist()
    assert got == ["0", "1", "2", "3", "4"]


def _brute_knn_table(cand, idx, k):
    """(cand_id, index_id, rank, dist2) by brute force: d2 = 0.0 + dx * dx
    + dy * dy per pair (dx = cx - ix, dy = cy - iy), each cand's k
    smallest by (d2, numeric id)."""
    rows = []
    for c in cand.itertuples():
        d2 = [0.0 + (c.cx - x) * (c.cx - x) + (c.cy - y) * (c.cy - y)
              for x, y in zip(idx.cx, idx.cy)]
        top = sorted(zip(d2, idx.doc_id.astype(int), idx.doc_id))[:k]
        rows += [(c.doc_id, i, r, d) for r, (d, _, i) in
                 enumerate(top, start=1)]
    return pd.DataFrame(rows, columns=["cand_id", "index_id", "rank",
                                       "dist2"])


def _by_cand_rank(df):
    return df.sort_values(["cand_id", "rank"]).reset_index(drop=True)


def test_spatial_knn_matches_bruteforce(ray_session):
    """Every cand's k nearest index centroids, ranks and dist2 bits equal
    brute force and centroid_nn_dataset: cands inside and outside the
    world [0, WORLD_SIZE), eight index rows at one exact distance 5 from
    a planted cand (ids in descending order, so ties go by numeric id),
    and k larger than the index (every index row, ranked)."""
    from engine.blocking import centroid_nn_dataset
    from engine.spatial import knn_join
    rng = np.random.default_rng(0)
    ring = np.array([(3, 4), (4, 3), (-3, 4), (-4, 3), (3, -4), (4, -3),
                     (-3, -4), (-4, -3)], dtype=np.float64)
    W = cells.WORLD_SIZE
    for n_idx, k in [(400, 3), (4, 7)]:
        ixy = np.vstack([rng.uniform(0, 5000, (n_idx, 2)), 1000.5 + ring])
        idx = pd.DataFrame({"doc_id": [str(i) for i in range(len(ixy))][::-1],
                            "cx": ixy[:, 0], "cy": ixy[:, 1]})
        cxy = np.vstack([rng.uniform(0, 5000, (50, 2)), [[1000.5, 1000.5]],
                         [[-700.25, 30.0], [W + 12.0, W - 0.5],
                          [W * 3, -W], [-1e-9, 4999.0]]])
        cand = pd.DataFrame({
            "doc_id": [str(i + 1000) for i in range(len(cxy))],
            "cx": cxy[:, 0], "cy": cxy[:, 1]})
        got = _by_cand_rank(knn_join(ray.data.from_pandas(cand), idx,
                                     k=k).to_pandas())
        want = _by_cand_rank(_brute_knn_table(cand, idx, k))
        assert len(got) == len(cand) * min(k, len(idx))
        assert got[["cand_id", "index_id"]].equals(
            want[["cand_id", "index_id"]])
        assert got["rank"].tolist() == want["rank"].tolist()
        assert got.dist2.to_numpy().tobytes() == \
            want.dist2.to_numpy().tobytes()
        tied = got[got.cand_id == "1050"]
        assert tied.dist2.tolist()[:min(k, 8)] == [25.0] * min(k, 8)
        scan = _by_cand_rank(centroid_nn_dataset(cand, idx, nn_param=k))
        assert got.equals(scan)


def test_spatial_knn_on_empty_index_returns_no_rows(ray_session):
    """An index without rows gives every cand no neighbours, as the
    centroid blocker does on the same input."""
    from engine.blocking import centroid_nn_dataset
    from engine.spatial import knn_join
    idx = pd.DataFrame({"doc_id": pd.Series([], dtype=str),
                        "cx": pd.Series([], dtype=float),
                        "cy": pd.Series([], dtype=float)})
    cand = pd.DataFrame({"doc_id": ["1", "2"], "cx": [0.0, 9.0],
                         "cy": [0.0, 3.0]})
    assert len(centroid_nn_dataset(cand, idx, nn_param=5)) == 0
    assert knn_join(ray.data.from_pandas(cand), idx, k=5).count() == 0


def test_kabsch_alignment_recovers_transform():
    from engine.blocking import kabsch_transform
    rng = np.random.default_rng(1)
    src = rng.normal(0, 10, (100, 2))
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    tgt = 2.0 * (src @ R) + np.array([5.0, -3.0])
    aligned = kabsch_transform(src, tgt)
    assert np.abs(aligned - tgt).max() < 1e-8


def test_embedding_near_dup_recovers_planted(ray_session):
    from engine.dedup import embedding_near_dup, planted_neardup_embeddings
    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    out = embedding_near_dup(planted_neardup_embeddings(emb),
                             threshold=0.98).to_pandas()
    planted = {(i, i + 100000) for i in range(0, 500, 5)}
    found = set(zip(out.a_id, out.b_id))
    # hyperplane LSH is approximate: jittered copy may land in a different
    # bucket occasionally; require strong-majority recall and no junk
    assert len(planted & found) / len(planted) >= 0.7
    assert (out.cosine >= 0.98).all()


def test_embedding_near_dup_hot_bucket_bounded(ray_session):
    """Skew: 200 near-identical vectors land in ONE LSH bucket in every band
    (an O(n²) pair explosion without the cap).  With max_bucket below the
    cluster size the stop-bucket removal drops the degenerate cluster in
    every band — the operator completes and the O(n²) hot pairs are absent —
    while an isolated planted near-dup pair in an uncapped bucket is still
    found."""
    import pyarrow as pa
    from engine.dedup import embedding_near_dup
    rng = np.random.default_rng(3)
    base = rng.standard_normal(64)
    hot = base[None, :] + 0.001 * rng.standard_normal((200, 64))
    iso = rng.standard_normal(64)
    iso2 = iso + 0.01 * rng.standard_normal(64)
    vecs = np.vstack([hot, iso, iso2]).astype(np.float32)
    emb = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(len(vecs)), type=pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              type=pa.list_(pa.float32())),
    })).repartition(4)
    out = embedding_near_dup(emb, threshold=0.98, max_bucket=50).to_pandas()
    # isolated planted pair found; the hot cluster's O(n²) explosion is gone
    # (a handful of stragglers whose jitter flipped a band bit may pair in
    # small side-buckets — that's the documented stop-bucket semantic)
    assert ((out.a_id == 200) & (out.b_id == 201)).any()
    assert len(out) < 100  # nowhere near the 19900 uncapped hot pairs


def test_ngram_df_cap_lossless(ray_session):
    """The capped heavy-hitters DF table changes only pruning efficiency,
    never the verified output: a tiny df_cap (driver table bounded at 5
    entries on a corpus with hundreds of distinct shingles) yields exactly
    the pairs of an effectively-unbounded one."""
    import pyarrow as pa
    from engine.dedup import ngram_jaccard_pairs
    rng = np.random.default_rng(7)
    texts = []
    vocab = [f"w{j}" for j in range(40)]
    for i in range(120):
        toks = rng.choice(vocab, size=8, replace=True).tolist()
        texts.append(" ".join(toks))
    texts.append(texts[5])   # planted exact dup
    texts.append(" ".join(texts[9].split()[:7]) + " zz")  # planted near-dup
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
        "text": pa.array(texts)})).repartition(4)

    def norm(df):
        return df.sort_values(["a_id", "b_id"]).reset_index(drop=True)

    big = norm(ngram_jaccard_pairs(docs, threshold=0.5,
                                   df_cap=10**6).to_pandas())
    small = norm(ngram_jaccard_pairs(docs, threshold=0.5,
                                     df_cap=5).to_pandas())
    assert ((big.a_id == 5) & (big.b_id == 120)).any()   # exact dup
    assert ((big.a_id == 9) & (big.b_id == 121)).any()   # near-dup
    assert len(big) == len(small)
    assert (big.a_id.to_numpy() == small.a_id.to_numpy()).all()
    assert (big.b_id.to_numpy() == small.b_id.to_numpy()).all()
    assert np.allclose(big.jaccard.to_numpy(), small.jaccard.to_numpy())


def test_token_counts_bpe_regex(ray_session):
    """BPE-ish pretoken counting: contractions split, punctuation runs
    grouped, whitespace runs counted once — matches re.findall on the
    compiled pattern (the SQL oracle uses the identical RE2 pattern)."""
    import re

    import pyarrow as pa
    from engine.text import BPE_PATTERN, token_counts
    texts = ["the cat's hat", "a1b2", "x  y", "don't stop!!!", "word"]
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(len(texts))), type=pa.int64()),
        "text": pa.array(texts)}))
    out = token_counts(docs).to_pandas().sort_values("doc_id")
    rx = re.compile(BPE_PATTERN)
    for i, t in enumerate(texts):
        row = out[out.doc_id == i].iloc[0]
        assert row.n_subtokens == len(rx.findall(t)), t
        assert row.n_ws_tokens == len(t.split(" ")), t
        assert row.n_chars == len(t)


def test_bucketed_hash_join_matches_pandas(ray_session):
    import pandas as pd
    import ray.data
    from engine.joins import bucketed_hash_join
    rng = np.random.default_rng(1)
    left = pd.DataFrame({"k": rng.integers(0, 50, 300), "x": rng.random(300)})
    right = pd.DataFrame({"rk": np.arange(50), "y": rng.random(50)})
    got = bucketed_hash_join(ray.data.from_pandas(left),
                             ray.data.from_pandas(right),
                             "k", "rk").to_pandas()
    want = left.merge(right, left_on="k", right_on="rk")
    assert len(got) == len(want)
    g = got.sort_values(["k", "x"]).reset_index(drop=True)
    w = want.sort_values(["k", "x"]).reset_index(drop=True)
    assert (g.y.to_numpy() == w.y.to_numpy()).all()


def test_bucketed_anti_join_equals_set_difference(ray_session):
    import pyarrow as pa
    from engine.joins import bucketed_anti_join
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(list(range(100)), type=pa.int64()),
        "payload": pa.array([f"p{i}" for i in range(100)]),
    })).repartition(5)
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([3, 3, 17, 50, 99, 200], type=pa.int64()),
    })).repartition(2)
    out = bucketed_anti_join(left, right, "k", "rk").to_pandas()
    assert sorted(out.k) == sorted(set(range(100)) - {3, 17, 50, 99})
    # payload rides through untouched
    assert (out.payload == out.k.map(lambda i: f"p{i}")).all()


def test_orders_by_nation_drops_unmatched_keys_like_the_oracle(
        ray_session, tmp_path):
    """broadcast_lookup is an inner join: an order whose customer is absent
    and the orders of a customer whose nation is absent drop out, as the
    oracle's JOINs drop them, instead of forming a null-nation group."""
    import duckdb
    import pyarrow.parquet as pq
    from engine import oracles, relational
    src = "/root/testdata/sf0.001"
    orders = pq.read_table(f"{src}/orders.parquet")
    customer = pq.read_table(f"{src}/customer.parquet")
    dangling = orders.slice(0, 1).to_pandas()
    dangling["o_orderkey"] = 10 ** 9
    dangling["o_custkey"] = 10 ** 9          # no such customer
    dangling["o_totalprice"] = 1e12
    orders = pa.concat_tables([orders, pa.Table.from_pandas(
        dangling, schema=orders.schema, preserve_index=False)])
    nk = customer.column("c_nationkey").to_numpy().copy()
    nk[0] = 99                               # no such nation
    customer = customer.set_column(customer.schema.get_field_index(
        "c_nationkey"), "c_nationkey", pa.array(nk, type=pa.int32()))
    # the customer without a nation has orders
    assert (orders.column("o_custkey").to_numpy()
            == customer.column("c_custkey")[0].as_py()).any()
    pq.write_table(orders, tmp_path / "orders.parquet")
    pq.write_table(customer, tmp_path / "customer.parquet")
    pq.write_table(pq.read_table(f"{src}/nation.parquet"),
                   tmp_path / "nation.parquet")
    got = relational.orders_by_nation(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    for t in ("orders", "customer", "nation"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{tmp_path / t}.parquet')")
    want = con.sql(oracles.REL_ORDERS_BY_NATION).df()
    got = got[list(want.columns)].sort_values("n_name").reset_index(drop=True)
    want = want.sort_values("n_name").reset_index(drop=True)
    assert got["n_name"].tolist() == want["n_name"].tolist()
    for c in ("n_orders", "min_price", "max_price"):
        assert got[c].to_numpy().tolist() == want[c].to_numpy().tolist(), c


def test_semantic_dedup_keeps_representatives(ray_session):
    """Planted pair (v, v+100000) clusters with min v -> every original id
    is kept, every planted copy is dropped (modulo LSH recall on the copy)."""
    from engine.dedup import planted_neardup_embeddings, semantic_dedup_ids
    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                                columns=["vec_id", "embedding"])
    kept = set(semantic_dedup_ids(planted_neardup_embeddings(emb),
                                  threshold=0.98).to_pandas().vec_id)
    originals = set(range(500))
    planted = {i + 100000 for i in range(0, 500, 5)}
    assert originals <= kept          # representatives all kept
    dropped = planted - kept
    assert len(dropped) / len(planted) >= 0.7   # LSH recall floor


def test_corpus_stats_consistent_with_per_doc_ops(ray_session):
    """corpus_stats' partial-sum totals must equal the independently
    oracle-green per-doc operators aggregated in pandas."""
    from engine.queries import corpus_stats, text_langid, text_tokens, text_stats
    sf = "/root/testdata/sf0.001"
    cs = corpus_stats(sf).to_pandas().set_index("language").sort_index()
    lang = text_langid(sf).to_pandas()
    toks = text_tokens(sf).to_pandas()
    stats = text_stats(sf).to_pandas()
    df = lang.merge(toks, on="doc_id").merge(stats, on="doc_id")
    ref = df.groupby("pred_lang").agg(
        n_docs=("doc_id", "size"), ws_tokens=("n_ws_tokens", "sum"),
        subtokens=("n_subtokens", "sum"), chars=("n_chars", "sum"),
        stops=("n_stop", "sum"), distincts=("n_distinct", "sum")).sort_index()
    assert list(cs.index) == list(ref.index)
    for c in ("n_docs", "ws_tokens", "subtokens", "chars"):
        assert (cs[c].to_numpy() == ref[c].to_numpy()).all(), c
    assert np.allclose(cs.stop_frac, ref.stops / ref.ws_tokens)
    assert np.allclose(cs.lexical_diversity, ref.distincts / ref.ws_tokens)


def test_quality_filter_rules(ray_session):
    """Each Gopher rule fires independently, including the mean-word-length
    false branches the sf corpora never hit."""
    from engine.text import quality_filter
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(5)), type=pa.int64()),
        "text": pa.array([
            " ".join(["the", "of"] + [f"word{i:02d}" for i in range(28)]),
            "the of word",                                    # too short
            " ".join(["the", "of"] + ["a"] * 28),             # words too short
            " ".join(["the", "of"] + ["significantly"] * 28),  # words too long
            " ".join(["word"] * 30),                          # no stopwords
        ]),
    }))
    out = quality_filter(docs).to_pandas().set_index("doc_id").sort_index()
    assert out.loc[0, "keep"]
    assert not out.loc[1, "ok_len"] and not out.loc[1, "keep"]
    assert not out.loc[2, "ok_word_len"]
    assert not out.loc[3, "ok_word_len"]
    assert not out.loc[4, "ok_stop"]
    # repetition: 30 tokens, 1 distinct -> fails lexical diversity
    assert not out.loc[4, "ok_lex"]


def test_stratified_sample_deterministic_any_parallelism(ray_session):
    """Membership is a pure per-row md5 rule: identical kept set at 1 and 8
    partitions, and the per-stratum rate lands near its quota."""
    from engine.text import stratified_sample
    n = 2000
    t = pa.table({
        "doc_id": pa.array(list(range(n)), type=pa.int64()),
        "lang": pa.array(["en" if i % 2 else "de" for i in range(n)]),
    })
    kept1 = sorted(stratified_sample(
        ray.data.from_arrow(t), {"en": 0.25}, 0.75, seed=1)
        .to_pandas()["doc_id"])
    kept8 = sorted(stratified_sample(
        ray.data.from_arrow(t).repartition(8), {"en": 0.25}, 0.75, seed=1)
        .to_pandas()["doc_id"])
    assert kept1 == kept8
    en = sum(1 for d in kept1 if d % 2)
    de = len(kept1) - en
    assert abs(en / 1000 - 0.25) < 0.05
    assert abs(de / 1000 - 0.75) < 0.05


def test_events_quantiles_match_numpy(ray_session):
    """Grouped quantiles equal np.percentile over the collected column,
    bit-for-bit (weighted-histogram path == dense path)."""
    from engine.relational import events_quantiles
    got = events_quantiles("/root/testdata/sf0.001").to_pandas() \
        .set_index("event_type")
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["event_type", "value"])
    for g, sub in ev.groupby("event_type"):
        v = sub["value"].to_numpy()
        assert got.loc[g, "q25"] == np.percentile(v, 25)
        assert got.loc[g, "median"] == np.percentile(v, 50)
        assert got.loc[g, "q75"] == np.percentile(v, 75)


def test_interval_self_join_matches_brute(ray_session):
    """The rank-composite band join equals the brute O(n^2) same-user
    window join, including identical-timestamp ties, each unordered pair
    exactly once."""
    from engine.relational import events_interval_join
    got = events_interval_join("/root/testdata/sf0.001", window_minutes=30) \
        .to_pandas().sort_values(["a_id", "b_id"]).reset_index(drop=True)
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["event_id", "ts", "user_id"])
    m = ev.merge(ev, on="user_id", suffixes=("_a", "_b"))
    m = m[(m.event_id_a < m.event_id_b)
          & ((m.ts_b - m.ts_a).abs() <= pd.Timedelta(minutes=30))]
    want = pd.DataFrame({
        "a_id": m.event_id_a.to_numpy(),
        "b_id": m.event_id_b.to_numpy(),
        "gap_us": (m.ts_b.to_numpy("datetime64[us]").view("int64")
                   - m.ts_a.to_numpy("datetime64[us]").view("int64")),
    }).sort_values(["a_id", "b_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    assert len(got) > 0


def test_video_features_frame_ops(ray_session):
    """The actor's REAL frame ops (sum, edge detect on pixels, L1 motion)
    match the closed-form stub parameters, including edge wrap-around."""
    import hashlib as _hl
    from engine.multimodal import VideoFeatureActor, _synth_video_stub
    from engine.schema import SPAN_TYPE
    refs = [f"png://{i}/0" for i in range(40)]
    spans = [[{"kind": "media", "text": "", "media_ref": r, "offset": 0}]
             for r in refs]
    t = pa.table({"doc_id": [str(i) for i in range(len(refs))],
                  "spans": pa.array(spans, type=pa.list_(SPAN_TYPE))})
    out = VideoFeatureActor()(t).to_pandas()
    assert len(out) == len(refs) * 8
    wrap_seen = False
    for r in refs:
        h = int.from_bytes(_hl.md5(r.encode()).digest()[:8], "little")
        c0, v = h % 16, 1 + (h // 16) % 7
        hi, lo = 4 + (h // 512) % 8, -(2 + (h // 65536) % 4)
        rows = out[out.media_ref == r].sort_values("frame_idx")
        for t_i in range(8):
            ct = (c0 + t_i * v) % 16
            row = rows.iloc[t_i]
            assert row.edge_col == ct
            assert row.frame_sum == 16 * (ct * hi + (16 - ct) * lo)
            if t_i:
                prev = (c0 + (t_i - 1) * v) % 16
                flips = v if prev + v < 16 else 16 - v
                wrap_seen |= prev + v >= 16
                assert row.motion == 16 * (hi - lo) * flips
    assert wrap_seen  # at least one ref exercised the wrap case
    # the stub clip really is what the features claim
    clip = _synth_video_stub(refs[0])
    assert clip.shape == (8, 16, 16) and clip.dtype == np.int64


def test_curation_pipeline_composition(ray_session):
    """The composed curation flow excludes exactly: quality failures,
    non-first exact duplicates, benchmark docs, and contaminated docs —
    and keeps everything else."""
    from engine.queries import curation_pipeline
    got = curation_pipeline("/root/testdata/sf0.001").to_pandas()
    import duckdb
    from engine import oracles
    con = duckdb.connect()
    con.sql("CREATE VIEW documents AS SELECT * FROM read_parquet("
            "'/root/testdata/sf0.001/documents.parquet')")
    want = con.sql(oracles.CURATION_PIPELINE).df()
    g = got.sort_values("doc_id").reset_index(drop=True)
    w = want.sort_values("doc_id").reset_index(drop=True)
    assert g.doc_id.tolist() == w.doc_id.tolist()
    assert g.n_grams.astype(int).tolist() == w.n_grams.astype(int).tolist()
    # structural exclusions hold
    assert not (g.doc_id % 97 == 0).any()
    assert len(g) > 0


def test_heavy_hitters_compression_path(ray_session):
    """With capacity far below the distinct-key count the MG compress
    genuinely engages, and the sketch->verify result still equals the
    brute exact heavy hitters (superset guarantee + exact verify);
    identical at 1 and 8 partitions."""
    from engine.relational import heavy_hitters
    rng = np.random.default_rng(7)
    # 4000 uniform singleton-ish keys + 4 hot keys -> distinct >> capacity
    cold = rng.integers(10_000, 90_000, size=4000)
    hot = np.repeat([1, 2, 3, 4], [900, 700, 500, 300])
    vals = np.concatenate([cold, hot])
    rng.shuffle(vals)
    t = pa.table({"user_id": pa.array(vals, type=pa.int64())})
    n = len(vals)
    brute = pd.Series([str(v) for v in vals]).value_counts()
    want = brute[brute * 16 > n].sort_index()
    got1 = heavy_hitters(ray.data.from_arrow(t), "user_id",
                         denom=16, capacity=128).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    got8 = heavy_hitters(ray.data.from_arrow(t).repartition(8), "user_id",
                         denom=16, capacity=128).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    assert got1.user_id.tolist() == sorted(want.index)
    assert dict(zip(got1.user_id, got1.c)) == want.to_dict()
    pd.testing.assert_frame_equal(got1, got8)


def test_reservoir_per_group_exact_k_and_parallelism(ray_session):
    """Exactly min(k, |group|) rows per group; identical sample at 1 and 8
    partitions (hash ranks, no RNG); matches a serial pandas reference;
    small groups are returned whole."""
    from engine.joins import stable_hash64
    from engine.text import reservoir_per_group
    n = 600
    t = pa.table({
        "doc_id": pa.array(list(range(n)), type=pa.int64()),
        "lang": pa.array(["en" if i % 3 else "de" for i in range(n - 5)]
                         + ["xx"] * 5),
    })
    got1 = reservoir_per_group(ray.data.from_arrow(t), k=20, seed=1) \
        .to_pandas().sort_values(["lang", "rank"]).reset_index(drop=True)
    got8 = reservoir_per_group(ray.data.from_arrow(t).repartition(8),
                               k=20, seed=1) \
        .to_pandas().sort_values(["lang", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got1, got8)
    sizes = got1.groupby("lang").size()
    assert sizes["en"] == 20 and sizes["de"] == 20 and sizes["xx"] == 5
    # serial reference: k smallest hashes per group, rank = hash order
    ref = pd.DataFrame({"doc_id": t.column("doc_id").to_numpy(),
                        "lang": t.column("lang").to_pylist()})
    ref["h"] = stable_hash64([f"res|1|{i}" for i in ref.doc_id])
    ref = ref.sort_values(["lang", "h", "doc_id"]).groupby("lang").head(20)
    assert got1.doc_id.tolist() == ref.doc_id.tolist()


def test_decontaminate_flags_shared_ngrams(ray_session):
    """A train doc sharing any distinct 3-gram with the benchmark is flagged
    with the exact overlap count; short docs have zero grams."""
    from engine.dedup import decontaminate
    bench = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([100], type=pa.int64()),
        "text": pa.array(["alpha beta gamma delta"]),  # grams: abc, bcd
    }))
    train = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array([
            "alpha beta gamma epsilon",   # shares 'alpha beta gamma'
            "zeta eta theta iota",        # disjoint
            "one two",                    # < 3 tokens -> 0 grams
        ]),
    }))
    out = decontaminate(train, bench, n=3).to_pandas() \
        .set_index("doc_id").sort_index()
    assert bool(out.loc[0, "contaminated"]) and out.loc[0, "n_hits"] == 1
    assert out.loc[0, "n_grams"] == 2
    assert not bool(out.loc[1, "contaminated"]) and out.loc[1, "n_hits"] == 0
    assert out.loc[2, "n_grams"] == 0 and not bool(out.loc[2, "contaminated"])


def test_decontaminate_last_gram_hit_before_empty_doc(ray_session):
    """Regression: a doc whose FINAL shingle is the (only) hit, followed by
    a zero-gram doc at the end of the same batch, must keep that hit.  The
    old reduceat path clamped the trailing zero-gram doc's segment start to
    len(hit)-1, stealing the preceding doc's last hit (counts=[2,2,0],
    hit=[1,1,0,1] -> [2,0,0] instead of [2,1,0])."""
    from engine.dedup import decontaminate
    bench = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([100], type=pa.int64()),
        "text": pa.array(["alpha beta gamma delta"]),  # grams: abg, bgd
    }))
    train = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array([
            "alpha beta gamma delta",  # both grams hit       -> hit=[1,1]
            "zzz beta gamma delta",    # only LAST gram hits  -> hit=[0,1]
            "one two",                 # zero grams, ends the batch
        ]),
    }))
    out = decontaminate(train, bench, n=3).to_pandas() \
        .set_index("doc_id").sort_index()
    assert out.loc[0, "n_hits"] == 2
    assert out.loc[1, "n_hits"] == 1 and bool(out.loc[1, "contaminated"])
    assert out.loc[2, "n_grams"] == 0 and not bool(out.loc[2, "contaminated"])


def test_tfidf_topk_ranking(ray_session):
    """Rational tf-idf: rare terms outrank common ones; ties broken by term
    asc; rnk dense per doc; score == tf*N/df exactly."""
    from engine.text import tfidf_topk
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array([
            "rare common common",   # rare: tf1 df1 -> 3.0; common: tf2 df3 -> 2.0
            "common solo",
            "common dup dup",
        ]),
    }))
    out = tfidf_topk(docs, k=2).to_pandas().sort_values(
        ["doc_id", "rnk"]).reset_index(drop=True)
    d0 = out[out.doc_id == 0]
    assert d0.iloc[0].term == "rare" and d0.iloc[0].score == 3.0
    assert d0.iloc[1].term == "common" and d0.iloc[1].score == 2.0
    assert (out.groupby("doc_id")["rnk"].min() == 1).all()
    assert (out.groupby("doc_id").size() <= 2).all()


def test_repetition_stats_rules(ray_session):
    """Duplicate-bigram and top-word fractions with integer-exact keep
    flags: a heavily repeated doc is rejected, a diverse one kept."""
    from engine.text import repetition_stats
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array([
            "spam spam spam spam spam spam spam spam",
            "alpha beta gamma delta epsilon zeta eta theta",
        ]),
    }))
    out = repetition_stats(docs).to_pandas().set_index("doc_id")
    assert out.loc[0, "dup_bigram_frac"] == 6.0 / 7.0
    assert out.loc[0, "top_word_frac"] == 1.0
    assert not bool(out.loc[0, "keep"])
    assert out.loc[1, "dup_bigrams"] == 0
    assert out.loc[1, "top_word_frac"] == 1.0 / 8.0
    assert bool(out.loc[1, "keep"])


def test_inverted_index_postings(ray_session):
    """df is the full count even when postings are capped; postings are
    ascending doc_ids, distinct within a doc."""
    from engine.text import inverted_index
    n = 40
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(n)), type=pa.int64()),
        "text": pa.array(["hot hot cold" if i % 2 == 0 else "hot warm"
                          for i in range(n)]),
    }))
    out = inverted_index(docs, max_postings=8).to_pandas() \
        .set_index("term")
    assert out.loc["hot", "df"] == n            # every doc, counted once
    assert out.loc["hot", "postings"] == ",".join(map(str, range(8)))
    assert out.loc["cold", "df"] == n // 2
    assert out.loc["cold", "postings"] == ",".join(
        map(str, range(0, 16, 2)))


def test_substring_dup_stats(ray_session):
    """Full-dup docs have every position duplicated (frac 1.0, flagged);
    a doc sharing one 8-token window gets exactly that position counted;
    short docs (< w tokens) have zero positions and are never flagged."""
    from engine.dedup import substring_dup_stats
    shared = "w1 w2 w3 w4 w5 w6 w7 w8"
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([
            f"{shared} tail0 tail1 tail2",      # 3 extra -> 4 positions
            f"lead0 {shared}",                  # 2 positions, 1 shared
            "only five tokens here now",        # < 8 tokens -> 0 positions
            f"{shared} tail0 tail1 tail2",      # exact dup of doc 0
        ]),
    }))
    out = substring_dup_stats(docs, w=8).to_pandas().set_index("doc_id")
    assert out.loc[0, "n_positions"] == 4 and out.loc[0, "dup_positions"] == 4
    assert bool(out.loc[0, "flag_remove"]) and out.loc[0, "dup_frac"] == 1.0
    assert out.loc[1, "n_positions"] == 2 and out.loc[1, "dup_positions"] == 1
    assert bool(out.loc[1, "flag_remove"])  # 1*2 >= 2
    assert out.loc[2, "n_positions"] == 0 and not bool(out.loc[2, "flag_remove"])
    assert out.loc[3, "dup_frac"] == 1.0


def test_pack_sequences_prefix_sum(ray_session, monkeypatch):
    """Global packing equals the serial prefix sum over 7 reduce blocks,
    each holding several doc_id ranges; windows cover offsets
    contiguously."""
    from engine.text import pack_sequences
    from test_shuffle import _reduce_blocks
    _reduce_blocks(monkeypatch, 7)
    rng = list(range(100))
    texts = ["w " * (i % 17) + "end" for i in rng]   # 1..17 tokens
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(rng, type=pa.int64()),
        "text": pa.array(texts),
    }))
    out = pack_sequences(docs, window=32).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    n = np.array([t.count(" ") + 1 for t in texts], dtype=np.int64)
    start = np.cumsum(n) - n
    assert (out["n_tokens"].to_numpy() == n).all()
    assert (out["start_offset"].to_numpy() == start).all()
    assert (out["window_id"].to_numpy() == start // 32).all()


def _random_corpus(n_docs=150, seed=3):
    rng = np.random.default_rng(seed)
    vocab = np.array(["w%d" % i for i in range(12)], dtype=object)
    texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 25)))
             for _ in range(n_docs)]
    return list(range(n_docs)), texts


def test_tfidf_matches_serial_reference(ray_session):
    """Distributed tf-idf == a serial pure-python reference on a random
    corpus (exact scores, exact top-k ordering)."""
    from engine.text import tfidf_topk
    ids, texts = _random_corpus()
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array(texts)}))
    out = tfidf_topk(docs, k=3).to_pandas() \
        .sort_values(["doc_id", "rnk"]).reset_index(drop=True)
    # serial reference
    from collections import Counter
    N = len(ids)
    tfs = [Counter(t.split(" ")) for t in texts]
    df = Counter()
    for tf in tfs:
        df.update(tf.keys())
    rows = []
    for d, tf in zip(ids, tfs):
        scored = sorted(((np.float64(c * N) / np.float64(df[w]), w, c)
                         for w, c in tf.items()),
                        key=lambda x: (-x[0], x[1]))[:3]
        for r, (s, w, c) in enumerate(scored, 1):
            rows.append((d, w, c, df[w], float(s), r))
    import pandas as pd
    want = pd.DataFrame(rows, columns=["doc_id", "term", "tf", "df",
                                       "score", "rnk"])
    got = out[["doc_id", "term", "tf", "df", "score", "rnk"]]
    pd.testing.assert_frame_equal(
        got.astype({"rnk": "int64"}), want.astype({"rnk": "int64"}),
        check_dtype=False)


def test_substring_dup_matches_serial_reference(ray_session):
    """Distributed substring-dup profile == serial reference on a random
    corpus with forced repeats."""
    from engine.dedup import substring_dup_stats
    ids, texts = _random_corpus(n_docs=80, seed=5)
    texts = [t if i % 9 else texts[0] for i, t in enumerate(texts)]
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array(texts)}))
    w = 4
    out = substring_dup_stats(docs, w=w).to_pandas() \
        .set_index("doc_id").sort_index()
    from collections import Counter
    grams = []
    for t in texts:
        toks = t.split(" ")
        grams.append(Counter(" ".join(toks[i:i + w])
                             for i in range(max(len(toks) - w + 1, 0))))
    df = Counter()
    for g in grams:
        df.update(g.keys())
    for d, g in zip(ids, grams):
        n_pos = sum(g.values())
        dup = sum(c for k, c in g.items() if df[k] >= 2)
        assert out.loc[d, "n_positions"] == n_pos
        assert out.loc[d, "dup_positions"] == dup
        if n_pos:
            assert out.loc[d, "dup_frac"] == dup / np.float64(n_pos)


def test_substring_dup_hash_path_equals_string_path(ray_session):
    """The default u64 gram-hash shuffle (hash_grams=True) produces exactly
    the string-key result — the A/B guard for the scale path."""
    from engine.dedup import substring_dup_stats
    ids, texts = _random_corpus(n_docs=60, seed=11)
    dup_text = " ".join(texts[0].split() * 4)  # guaranteed >= w tokens
    texts = [t if i % 7 else dup_text for i, t in enumerate(texts)]
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array(texts)}))
    h = substring_dup_stats(docs, w=5, hash_grams=True).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert int(h["dup_positions"].sum()) > 0
    s = substring_dup_stats(docs, w=5, hash_grams=False).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    import pandas.testing as pdt
    pdt.assert_frame_equal(h, s)


def test_substring_dup_all_unique_corpus(ray_session):
    """Zero duplicated grams (every window unique) must not crash the
    empty-side join: every doc keeps a row with dup_positions == 0."""
    from engine.dedup import substring_dup_stats
    ids, texts = _random_corpus(n_docs=30, seed=13)
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array([f"u{i}x " * 3 + t for i, t in enumerate(texts)])}))
    out = substring_dup_stats(docs, w=12).to_pandas()
    assert len(out) == 30
    assert (out["dup_positions"] == 0).all()
    assert not out["flag_remove"].any()


def test_geom_pair_features_known_rectangles(ray_session):
    """Closed-form checks: identical rectangles -> IoU 1, Hausdorff 0;
    disjoint rectangles -> IoU 0, Hausdorff = far-corner distance;
    half-overlap -> exact rational IoU."""
    import pandas as pd
    from engine.spatial import geom_pair_features
    cands = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["1", "2", "3"]),
        "x0": pa.array([0.0, 0.0, 0.0]), "y0": pa.array([0.0, 0.0, 0.0]),
        "bounding_box_width": pa.array([4.0, 4.0, 4.0]),
        "bounding_box_length": pa.array([2.0, 2.0, 2.0]),
        "cx": pa.array([2.0, 2.0, 2.0]), "cy": pa.array([1.0, 1.0, 1.0]),
    }))
    index_df = pd.DataFrame({
        "doc_id": ["1", "2", "3"],
        "x0": [0.0, 10.0, 2.0], "y0": [0.0, 0.0, 0.0],
        "bounding_box_width": [4.0, 4.0, 4.0],
        "bounding_box_length": [2.0, 2.0, 2.0],
        "cx": [2.0, 12.0, 4.0], "cy": [1.0, 1.0, 1.0],
    })
    out = geom_pair_features(cands, index_df).to_pandas().set_index("doc_id")
    assert out.loc["1", "bbox_iou"] == 1.0 and out.loc["1", "hausdorff"] == 0.0
    assert out.loc["1", "centroid_dist"] == 0.0
    assert out.loc["2", "bbox_iou"] == 0.0
    # far corner of A=(0,0)-(4,2) to B=(10,0)-(14,2): x gap 10-0=10, y 0
    assert out.loc["2", "hausdorff"] == 10.0
    assert out.loc["2", "centroid_dist"] == 10.0
    # A=(0..4), B=(2..6): inter 2*2=4, union 8+8-4=12 -> 1/3
    assert out.loc["3", "bbox_iou"] == 4.0 / 12.0


def test_mixture_sample_rates(ray_session):
    """Largest stratum is kept whole-ish (rate 1.0); a 1/4-size stratum is
    kept at ~sqrt(1/4)=0.5; membership is parallelism-independent."""
    from engine.text import mixture_sample
    n = 2000
    langs = ["big" if i % 5 else "small" for i in range(n)]  # 1600 / 400
    t = pa.table({
        "doc_id": pa.array(list(range(n)), type=pa.int64()),
        "lang": pa.array(langs),
    })
    docs1 = ray.data.from_arrow(t)
    docs8 = ray.data.from_arrow(t).repartition(8)
    k1 = mixture_sample(docs1).to_pandas()
    k8 = mixture_sample(docs8).to_pandas()
    assert sorted(k1.doc_id) == sorted(k8.doc_id)
    big = (k1.lang == "big").sum() / 1600
    small = (k1.lang == "small").sum() / 400
    assert big > 0.97                      # rate 1.0
    assert abs(small - 0.5) < 0.08         # rate sqrt(400/1600) = 0.5


def test_range_join_losslessness_vs_brute(ray_session):
    """Cell-cover range join == brute-force O(n^2) rectangle distances on a
    random layout (including pairs straddling cell boundaries)."""
    from engine.spatial import range_join
    rng = np.random.default_rng(11)
    n = 120
    x0 = rng.uniform(0, 20000, n).round(1)
    y0 = rng.uniform(0, 20000, n).round(1)
    w = rng.uniform(4, 30, n).round(1)
    l = rng.uniform(4, 30, n).round(1)
    props = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([str(i) for i in range(n)]),
        "x0": pa.array(x0), "y0": pa.array(y0),
        "bounding_box_width": pa.array(w),
        "bounding_box_length": pa.array(l),
    })).repartition(6)
    d = 1500.0
    got = range_join(props, d=d, res=6).to_pandas()   # cell 2048 >= d
    gk = set(map(tuple, got[["a_id", "b_id"]].to_numpy()))
    want = set()
    x1, y1 = x0 + w, y0 + l
    for i in range(n):
        for j in range(i + 1, n):
            mx = max(x0[j] - x1[i], x0[i] - x1[j], 0.0)
            my = max(y0[j] - y1[i], y0[i] - y1[j], 0.0)
            if np.sqrt(mx * mx + my * my) <= d:
                want.add((i, j))
    assert gk == want and len(want) > 10


def test_lm_quality_cost_model(ray_session):
    """Dyadic code lengths: a token that is half the corpus costs 1 bit, a
    singleton costs ceil(log2 T); rare-token docs are rejected."""
    from engine.text import lm_quality
    # corpus: 'a' x 8, 'b' x 4, 'c' x 2, 'd' x 1, 'e' x 1  -> T = 16
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array([
            "a a a a a a a a",        # cost(a) = ceil(log2(16/8)) = 1
            "b b b b c c d",          # b: 2 bits, c: 3 bits, d: 4 bits
            "e",                      # e: ceil(log2 16) = 4 bits
        ]),
    }))
    out = lm_quality(docs, thr_num=2, thr_den=1).to_pandas() \
        .set_index("doc_id")
    assert out.loc[0, "bits"] == 8 and bool(out.loc[0, "keep"])
    assert out.loc[1, "bits"] == 4 * 2 + 2 * 3 + 4   # 18
    assert out.loc[1, "bits_per_token"] == 18.0 / 7.0
    assert not bool(out.loc[1, "keep"])               # 18 > 2*7
    assert out.loc[2, "bits"] == 4 and not bool(out.loc[2, "keep"])


def test_events_sessions_parallelism_independent(ray_session):
    """Session assignment is identical at any bucket/block layout and obeys
    the gap rule on a hand-built timeline."""
    from engine.relational import events_sessions
    import pandas as pd
    out = events_sessions("/root/testdata/sf0.001").to_pandas() \
        .sort_values(["user_id", "event_id"]).reset_index(drop=True)
    # serial reference
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                         columns=["event_id", "ts", "user_id"]) \
        .sort_values(["user_id", "ts", "event_id"])
    grp = ev.groupby("user_id", sort=False)
    prev = grp["ts"].shift(1)
    new_s = (prev.isna() | ((ev["ts"] - prev) > pd.Timedelta(minutes=30)))
    ev["session_id"] = new_s.astype("int64").groupby(
        ev["user_id"], sort=False).cumsum()
    ev["session_size"] = ev.groupby(["user_id", "session_id"])[
        "event_id"].transform("size")
    want = ev[["user_id", "event_id", "session_id", "session_size"]] \
        .sort_values(["user_id", "event_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(out.astype("int64"), want.astype("int64"))


def test_kmv_sketch_matches_serial_and_bounds_error(ray_session):
    """Distributed KMV distinct-shingle sketch: the merged k-min set equals
    the serial exact k smallest distinct hashes (losslessness of the
    combiner tree), and the estimate lands within the ~1/sqrt(k-1)
    theoretical error band on a high-cardinality corpus."""
    import hashlib

    from engine.dedup import _shingles
    from engine.text import approx_distinct_kmv

    rng = np.random.default_rng(7)
    vocab = np.array(["t%d" % i for i in range(400)], dtype=object)
    texts = [" ".join(rng.choice(vocab, size=rng.integers(3, 40)))
             for _ in range(400)]
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts)})).repartition(7)
    k = 64
    out = approx_distinct_kmv(docs, k=k, n=3).to_pandas()
    # serial reference
    sh = {s for t in texts for s in _shingles(t, 3)}
    hs = np.sort(np.array(
        [int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")
         for s in sh], dtype=np.uint64))
    assert out.loc[0, "k"] == k
    assert out.loc[0, "n_sketch"] == min(k, len(hs))
    assert int(out.loc[0, "kth_hash"]) == int(hs[min(k, len(hs)) - 1])
    est, exact = float(out.loc[0, "est_distinct"]), len(hs)
    assert exact > 3 * k  # the estimator branch, not the exact branch
    assert abs(est - exact) / exact < 4.0 / np.sqrt(k - 1)
    # exact branch: tiny corpus -> est == true distinct count
    small = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(["a b c d", "b c d e"])}))
    o2 = approx_distinct_kmv(small, k=k, n=3).to_pandas()
    assert float(o2.loc[0, "est_distinct"]) == 3.0  # {a b c, b c d, c d e}
    assert o2.loc[0, "n_sketch"] == 3


def test_bloom_semi_join_exact_despite_false_positives(ray_session,
                                                       monkeypatch):
    """bloom_semi_join output == broadcast_semi_join output even with a
    deliberately tiny bitmap (high false-positive rate): the bucketed
    verify removes every FP.  Also: duplicate right keys emit each left
    row once, and the prefilter really drops non-members."""
    from engine.joins import (bloom_semi_join, broadcast_semi_join,
                              build_bloom, _bloom_positions)
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(range(300), type=pa.int64()),
        "v": pa.array([f"v{i}" for i in range(300)])})).repartition(5)
    rkeys = [3, 3, 3, 17, 17, 250, 299]  # dup-heavy right side
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array(rkeys, type=pa.int64())})).repartition(2)
    # tiny bitmap (64 bits, j=2) -> false positives are certain
    from test_shuffle import _reduce_blocks
    _reduce_blocks(monkeypatch, 4)
    got = bloom_semi_join(left, right, "k", "rk", m_bits=64, j=2) \
        .to_pandas().sort_values("k")
    want = broadcast_semi_join(left, "k", set(rkeys)) \
        .to_pandas().sort_values("k")
    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))
    assert got["k"].tolist() == [3, 17, 250, 299]  # dups collapse to once
    # a realistic bitmap drops ~all non-members at the prefilter
    bm = build_bloom(right, "rk", m_bits=1 << 17, j=4)
    pos = _bloom_positions(list(range(300)), 1 << 17, 4)
    hit = ((bm[pos // 8] >> (pos % 8).astype(np.uint8)) & 1).all(axis=1)
    assert hit.sum() <= 4 + 3  # 4 true members + at most a few FPs
    assert hit[[3, 17, 250, 299]].all()  # no false negatives, ever


def embedding_knn_case(exact: bool, n_blocks: int = 4) -> pd.DataFrame:
    """embedding_nn_auto (k=7) on a 257-row index in ``n_blocks`` blocks
    and 40 cands, under whatever gate budget is set, checked against the
    lexsort oracle; returns its rows sorted by (cand_id, rank).  The
    integer raw vectors plant exact score ties, and row 0 of each side is
    zero: its exact-mode scores are NaN, which rank after every number and
    among themselves by numeric id."""
    from engine.blocking import embedding_nn_auto, inner_products
    from test_topk import lexsort_topk
    rng = np.random.default_rng(11)
    dim = 12

    def emb_table(n, offset):
        raw = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
        raw[0] = 0.0
        norm = np.linalg.norm(raw, axis=1)
        feat = raw / np.maximum(norm, 1e-12)[:, None]
        return pa.table({
            "doc_id": pa.array([str(offset + i) for i in range(n)]),
            "feature": pa.array(feat.tolist(), type=pa.list_(pa.float64())),
            "raw": pa.array(raw.tolist(), type=pa.list_(pa.float64())),
            "norm": pa.array(norm),
        })

    idx_t, cand_t = emb_table(257, 0), emb_table(40, 100000)
    got = embedding_nn_auto(
        ray.data.from_arrow(cand_t).repartition(3),
        ray.data.from_arrow(idx_t).repartition(n_blocks),
        nn_param=7, exact=exact).to_pandas() \
        .sort_values(["cand_id", "rank"]).reset_index(drop=True)

    def side(t):
        return (np.array(t.column("raw" if exact else "feature").to_pylist()),
                t.column("norm").to_numpy())
    (cv, cn), (iv, inorm) = side(cand_t), side(idx_t)
    sim = inner_products(cv, iv)
    if exact:
        sim = sim / (cn[:, None] * inorm[None, :])
    top = lexsort_topk(-sim, np.arange(257), 7)
    order = np.argsort(np.array(cand_t.column("doc_id").to_pylist()))
    assert got.index_id.tolist() == [str(i) for i in top[order].ravel()]
    want = np.take_along_axis(sim, top, axis=1)[order].ravel()
    assert np.array_equal(got.score.to_numpy().view(np.uint64),
                          want.view(np.uint64))
    assert np.isnan(want).any() == exact
    return got


def test_embedding_nn_sharded_equals_broadcast(ray_session, monkeypatch):
    """embedding_nn_auto's two placements, the whole index broadcast as one
    shard and one object-store shard per block folded by each cand batch,
    give bit-identical rows that match the lexsort oracle in both modes,
    including the exact-cosine path with its NaN scores.  60 blocks make
    shards smaller than k, so the fold also merges them until it holds k
    (tests/test_gates.py forces the same gate over 4 blocks)."""
    from engine import gates
    for exact in (False, True):
        out = []
        for budget in (np.inf, 0):
            monkeypatch.setattr(gates, "MAX_BROADCAST_INDEX_ROWS", budget)
            out.append(embedding_knn_case(exact, n_blocks=60))
        pd.testing.assert_frame_equal(*out, check_exact=True)


def test_dup_clusters_vectorized_uf_equals_serial_random(ray_session):
    """Randomized pin: the vectorized union-find fast path (pointer-jumping
    + batched min-hook) equals a serial per-edge union-by-min reference on
    a random multigraph with self-loops, duplicate edges, and a giant
    component."""
    from engine.dedup import dup_clusters
    rng = np.random.default_rng(7)
    a = rng.integers(0, 800, 3000)
    b = np.where(rng.random(3000) < 0.3, a,  # self-loops + dup edges
                 rng.integers(0, 800, 3000))

    def serial_components(a, b):
        parent = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x, y in zip(a.tolist(), b.tolist()):
            rx, ry = find(x), find(y)
            if rx != ry:
                lo, hi = (rx, ry) if rx <= ry else (ry, rx)
                parent[hi] = lo
        return {n: find(n) for n in parent}

    pairs = ray.data.from_arrow(pa.table({
        "a_id": pa.array(a, type=pa.int64()),
        "b_id": pa.array(b, type=pa.int64())})).repartition(4)
    fast = dup_clusters(pairs).to_pandas()
    want = serial_components(a, b)
    assert dict(zip(fast.doc_id, fast.cluster_id)) == want
    # (BSP == fast-path agreement is pinned by tests/test_gates.py; each
    # BSP round is a bucketed shuffle, too heavy to repeat on a random
    # graph here)


def test_pii_scrub_planted_counts(ray_session):
    """pii_scrub over the planted corpus: exactly one match of the planted
    class per doc_id % 9 in {0,3,6}, none elsewhere; redaction shortens
    (or keeps, for short ids) the text by the token-length delta."""
    from engine.queries import text_pii_scrub
    df = text_pii_scrub("/root/testdata/sf0.001").to_pandas()
    m = df.doc_id % 9
    assert (df.loc[m == 0, "n_emails"] == 1).all()
    assert (df.loc[m == 3, "n_phones"] == 1).all()
    assert (df.loc[m == 6, "n_ips"] == 1).all()
    assert (df.loc[~m.isin([0, 3, 6]),
                   ["n_emails", "n_phones", "n_ips"]].to_numpy() == 0).all()
    assert df.has_pii.eq(m.isin([0, 3, 6])).all()
    # a redacted phone " +1-555-0042" (12 ch) becomes "<PHONE>" (7 ch)
    phone_rows = df[m == 3]
    assert (phone_rows.n_chars_redacted > 0).all()


def test_merge_pair_counts_matches_serial(ray_session, monkeypatch):
    """BPE merge-pair counting equals a serial Counter over the same corpus
    (values AND the deterministic tie order), over 7 reduce blocks, so
    several pairs share a call."""
    from collections import Counter
    from engine.text import merge_pair_counts
    from engine.storage import read_parquet_clean
    from test_shuffle import _reduce_blocks
    sf = "/root/testdata/sf0.001"
    _reduce_blocks(monkeypatch, 7)
    got = merge_pair_counts(read_parquet_clean(
        f"{sf}/documents.parquet", columns=["doc_id", "text"]), k=30)
    import duckdb
    texts = duckdb.sql(
        f"SELECT text FROM read_parquet('{sf}/documents.parquet')"
    ).df()["text"].tolist()
    c = Counter()
    for t in texts:
        toks = t.split(" ")
        c.update(zip(toks, toks[1:]))
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))[:30]
    assert list(zip(zip(got.left_tok, got.right_tok), got.cnt)) == \
        [((l, r), n) for (l, r), n in want]


@pytest.mark.parametrize("gate", ["simhash", "embedding"])
def test_driver_verify_gates_fail_on_missing_ids(ray_session, monkeypatch,
                                                 gate):
    """The simhash and embedding driver-verify gates look paired ids up in
    a second, filtered scan; an id missing from it (upstream
    nondeterminism) raises instead of scoring a neighbouring row."""
    import engine.dedup as D
    from engine.storage import read_parquet_clean
    real = D._involved_filter
    monkeypatch.setattr(D, "_involved_filter", lambda ds, col, involved:
                        real(ds, col, involved[1:]))
    with pytest.raises(RuntimeError, match="nondeterministic"):
        if gate == "simhash":
            D.simhash_pairs(D.planted_dup_corpus(read_parquet_clean(
                "/root/testdata/sf0.001/documents.parquet",
                columns=["doc_id", "text"])))
        else:
            from engine.queries import _emb
            D.embedding_near_dup(D.planted_neardup_embeddings(
                _emb("/root/testdata/sf0.001")), threshold=0.95)

"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — the big side streams, the (small) query
matrix is broadcast, each batch emits local top-k which a tiny driver reduce
merges (local partial top-k + re-reduce; no global sort).  Scale path: LSH /
IVF bucketing (random hyperplanes) that restricts the scan to matching
buckets — same physical shape as the reference's faiss IndexLSH alternative
(/root/reference/blocking.py:94-104).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from engine import storage
from engine.blocking import topk_by_key
from engine.joins import list_column_matrix


def _query_matrix(emb: ray.data.Dataset, query_ids: list[int]):
    """(qids, unit-normalized query matrix) — the tiny broadcast side."""
    import pyarrow.compute as pc
    qset = pa.array(query_ids, type=pa.int64())
    qdf = emb.map_batches(
        lambda b: b.filter(pc.is_in(b.column("vec_id"), value_set=qset)),
        batch_format="pyarrow").to_pandas()
    qv = np.asarray(qdf["embedding"].tolist(), dtype=np.float64)
    qn = qv / np.linalg.norm(qv, axis=1, keepdims=True)
    return qdf["vec_id"].to_numpy(), qn


def _rerank(partials: pd.DataFrame, k: int) -> pd.DataFrame:
    """The final re-reduce over the (tiny) union of local top-k sets:
    (qid, neighbor_id, rank) ranked by (sim desc, neighbor_id asc) per
    query, rank <= k."""
    partials = partials.sort_values(
        ["qid", "sim", "neighbor_id"], ascending=[True, False, True])
    partials["rank"] = partials.groupby("qid").cumcount() + 1
    out = partials[partials["rank"] <= k][["qid", "neighbor_id", "rank"]]
    out["rank"] = out["rank"].astype(np.int32)
    return out.reset_index(drop=True)


def brute_knn(emb: ray.data.Dataset, query_ids: list[int], k: int = 10) -> pd.DataFrame:
    """Exact cosine top-k: (qid, neighbor_id, rank) — rank by (sim desc, id asc)."""
    qids, qn = _query_matrix(emb, query_ids)
    queries = storage.broadcast((qids, qn))

    def local_topk(batch: pa.Table) -> pa.Table:
        qids_, qn_ = queries()
        vecs = list_column_matrix(batch.column("embedding"))
        ids = batch.column("vec_id").to_numpy()
        vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        sim = qn_ @ vn.T  # (nq, nb)
        # tie-aware local reduce by (-sim, id), the global tie-break
        top = topk_by_key(-sim, ids, k)
        return pa.table({
            "qid": pa.array(np.repeat(qids_.astype(np.int64), top.shape[1])),
            "neighbor_id": pa.array(ids[top].ravel().astype(np.int64)),
            "sim": pa.array(np.take_along_axis(sim, top, axis=1).ravel(),
                            type=pa.float64()),
        })

    return _rerank(
        emb.map_batches(local_topk, batch_format="pyarrow").to_pandas(), k)


def _kmeans_fit(sample: np.ndarray, n_clusters: int, n_iter: int = 10
                ) -> np.ndarray:
    """Deterministic mini k-means (no RNG: first-rows init, fixed iteration
    count, stable argmin ties) — the IVF coarse quantizer.  Distances via the
    |a-b|^2 = |a|^2 - 2ab + |b|^2 matmul identity: the temporaries are
    (n, k), not (n, k, dim) — the 3-D broadcast version allocated ~30 MB per
    iteration, which this host's big-allocation pathology turns into seconds
    (see BASELINE.md host notes)."""
    centroids = sample[:n_clusters].copy()
    s_sq = (sample * sample).sum(1)[:, None]
    for _ in range(n_iter):
        d2 = s_sq - 2.0 * (sample @ centroids.T) + (centroids * centroids).sum(1)[None, :]
        assign = d2.argmin(axis=1)
        for c in range(n_clusters):
            m = assign == c
            if m.any():
                centroids[c] = sample[m].mean(axis=0)
    return centroids


def _nearest_centroid(vn: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """IVF bucket of each row of ``vn``: its nearest centroid."""
    vd2 = (vn * vn).sum(1)[:, None] - 2.0 * (vn @ centroids.T) \
        + (centroids * centroids).sum(1)[None, :]
    return vd2.argmin(axis=1)


def _hyperplane_bits(vn: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """LSH bucket of each row of ``vn``: its side of each hyperplane as
    one bit."""
    return ((vn @ planes.T) > 0).astype(np.int64) \
        @ (1 << np.arange(len(planes)))


def _probe_knn(emb: ray.data.Dataset, qids: np.ndarray, qn: np.ndarray,
               bucket_of, model, allowed: np.ndarray, k: int) -> pd.DataFrame:
    """The bucketed ANN scan shared by ivf_knn and lsh_knn: each batch
    buckets its unit vectors by ``bucket_of(vn, model)``, and each query
    (row i of ``qn``) scores only the vectors in its buckets
    ``allowed[i]``, ranked by (sim desc, id asc) like brute_knn."""
    queries = storage.broadcast((qids, qn, model, allowed))

    def local_topk(batch: pa.Table) -> pa.Table:
        qids_, qn_, model_, allowed_ = queries()
        vecs = list_column_matrix(batch.column("embedding"))
        ids = batch.column("vec_id").to_numpy()
        vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        buckets = bucket_of(vn, model_)
        out_q, out_n, out_s = [], [], []
        for qi, qvec, allow in zip(qids_, qn_, allowed_):
            mask = np.isin(buckets, allow)
            if not mask.any():
                continue
            sim = vn[mask] @ qvec
            sel = ids[mask]
            top = topk_by_key(-sim[None], sel, k)[0]
            out_q.extend([int(qi)] * len(top))
            out_n.extend(sel[top].tolist())
            out_s.extend(sim[top].tolist())
        return pa.table({"qid": pa.array(out_q, type=pa.int64()),
                         "neighbor_id": pa.array(out_n, type=pa.int64()),
                         "sim": pa.array(out_s, type=pa.float64())})

    return _rerank(
        emb.map_batches(local_topk, batch_format="pyarrow").to_pandas(), k)


def ivf_knn(emb: ray.data.Dataset, query_ids: list[int], k: int = 10,
            n_clusters: int = 16, n_probe: int = 6,
            max_sample: int = 8192) -> pd.DataFrame:
    """IVF-bucketed ANN — the faiss IndexIVFFlat recipe as Ray stages.

    Coarse quantizer: deterministic k-means fit on a hash-thinned sample
    BOUNDED to ``max_sample`` rows regardless of corpus size (the thinning
    modulus derives from a metadata count, so the driver collect is O(fixed),
    never O(corpus) — a percentage sample would OOM the driver at 10^12
    vectors).  Scan: corpus streams once; each batch assigns its vectors to
    centroids (broadcast) and each query scores ONLY vectors in its
    ``n_probe`` nearest clusters — at scale the cluster id becomes the
    partition key so probes touch a bounded fraction of the corpus.
    Same output schema as brute_knn; recall vs brute measured in tests."""
    qids, qn = _query_matrix(emb, query_ids)

    # bounded deterministic sample for the quantizer fit: metadata row count
    # -> thinning modulus -> vec_id-mod filter -> hard cap via limit()
    n_total = emb.count()
    mod = max(1, -(-n_total // max_sample))  # ceil division
    sample = emb.map_batches(
        lambda b: b.filter(pa.array(
            b.column("vec_id").to_numpy() % mod == 0)),
        batch_format="pyarrow").limit(max_sample).to_pandas()
    sv = np.asarray(sample["embedding"].tolist(), dtype=np.float64)
    sv = sv / np.linalg.norm(sv, axis=1, keepdims=True)
    centroids = _kmeans_fit(sv, n_clusters)

    qd2 = ((qn[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
    probes = np.argsort(qd2, axis=1, kind="stable")[:, :n_probe]
    return _probe_knn(emb, qids, qn, _nearest_centroid, centroids, probes, k)


def lsh_knn(emb: ray.data.Dataset, query_ids: list[int], k: int = 10,
            bits: int = 4, seed: int = 11) -> pd.DataFrame:
    """Approximate top-k: hyperplane-bucketed scan (bucket + neighbors by
    Hamming<=1).  Returns same schema as brute_knn; recall measured in tests."""
    qids, qn = _query_matrix(emb, query_ids)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((bits, qn.shape[1]))
    qbuck = _hyperplane_bits(qn, planes)
    # allowed buckets per query: exact + Hamming-1
    allowed = np.column_stack([qbuck, qbuck[:, None] ^ (1 << np.arange(bits))])
    return _probe_knn(emb, qids, qn, _hyperplane_bits, planes, allowed, k)

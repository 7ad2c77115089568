"""Corpus source: deterministic interleaved-document tables, generated once
per scale into a /tmp cache and then read back as a ray.data.Dataset.

Plays the role of the reference's CityJSON readers (S1/S2 — reference
pipelines.py:204-244): file-parallel parse becomes block-parallel generation /
parquet scan; key standardization (pipelines.py:246-253) is the identity here
because keys are already canonical integers-as-strings.

Two sources in one table (column ``source``): 'cands' (one doc per key in the
driving table) and 'index' (a perturbed copy for ~85% of keys — the planted
matches — plus one extra unmatched doc per key at key+10_000_000).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from engine import storage
from engine.storage import read_parquet_clean

from datagen.buildings import doc_spans, building_params, INDEX_EXTRA_OFFSET
from engine.schema import SPAN_TYPE

CORPUS_ROOT = "/tmp/ray_geo_corpus"


def _gen_batch(batch: pa.Table) -> pa.Table:
    """doc_id keys -> interleaved documents (cands + matched index + extra index)."""
    doc_ids, sources, spans = [], [], []
    for k in batch.column("doc_id").to_pylist():
        k = int(k)
        doc_ids.append(str(k))
        sources.append("cands")
        spans.append(doc_spans(k, "cands"))
        if building_params(k)["matched"]:
            doc_ids.append(str(k))
            sources.append("index")
            spans.append(doc_spans(k, "index"))
        ke = k + INDEX_EXTRA_OFFSET
        doc_ids.append(str(ke))
        sources.append("index")
        spans.append(doc_spans(ke, "index"))
    return pa.table({
        "doc_id": pa.array(doc_ids, type=pa.string()),
        "source": pa.array(sources, type=pa.string()),
        "spans": pa.array(spans, type=pa.list_(SPAN_TYPE)),
    })


def ensure_corpus(sf_dir: str, n_cands: int | None = None) -> str:
    """Generate (once) and return the corpus parquet directory for a scale.

    Keys come from ``{sf_dir}/documents.parquet`` unless ``n_cands`` forces an
    explicit 0..n-1 key range (bench uses that for larger runs).  Generation
    itself is a Ray pipeline: read keys -> map_batches(_gen_batch) ->
    write_parquet, so it scales with the cluster.
    """
    tag = f"n{n_cands}" if n_cands else os.path.basename(os.path.normpath(sf_dir))
    out_dir = os.path.join(CORPUS_ROOT, tag)
    done = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(done):
        return out_dir
    if n_cands:
        keys = ray.data.range(n_cands).map_batches(
            lambda b: pa.table({"doc_id": pa.array(b["id"], type=pa.int64())}),
            batch_format="numpy")
    else:
        keys = read_parquet_clean(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
    docs = keys.map_batches(_gen_batch, batch_format="pyarrow", batch_size=512)
    tmp = out_dir + ".tmp"
    if os.path.exists(tmp):
        import shutil
        shutil.rmtree(tmp)
    docs.write_parquet(tmp)
    os.rename(tmp, out_dir)
    with open(done, "w") as f:
        f.write("ok")
    return out_dir


def size_aware_blocks(path: str, requested: int, min_blocks: int = 8,
                      rows_per_block: int = 256) -> int:
    """Block count proportional to ROW count (parquet footers only — no data
    read), capped at ``requested``: a tiny input doesn't pay requested-many
    task launches (measured +25-35% on sub-2.5 s queries), a large one still
    splits wide enough to fill the CPU budget.  Rows, not bytes: these
    tables carry text/geometry whose per-row downstream work dwarfs their
    compressed size.  The rows are those of every file
    ``read_parquet_clean(path)`` reads.

    Never more than the cluster's CPUs (``storage.cluster_cap``): each
    block is one task of every fused map downstream, and a read that is
    not split fuses with the map after it.  To read the files too, use
    ``read_size_aware``, which counts the rows from the footers its read
    is planned from."""
    return _block_count(storage.parquet_source(path), requested,
                        min_blocks, rows_per_block)


def _block_count(source: storage._ParquetFiles, requested: int,
                 min_blocks: int = 8, rows_per_block: int = 256) -> int:
    need = max(1, (source.num_rows() + rows_per_block - 1) // rows_per_block)
    return storage.cluster_cap(
        int(max(min(min_blocks, requested), min(requested, need))))


def read_size_aware(path: str, requested: int,
                    columns: list[str] | None = None) -> ray.data.Dataset:
    """``read_parquet_clean(path, columns)`` in ``size_aware_blocks(path,
    requested)`` blocks, the rows counted from the footers the read is
    planned from: each footer is read once."""
    source = storage.parquet_source(path, columns)
    return ray.data.read_datasource(
        source, override_num_blocks=_block_count(source, requested))


def corpus_dataset(sf_dir: str, n_cands: int | None = None) -> ray.data.Dataset:
    """Read the corpus with enough blocks that downstream map_batches stages
    parallelize across the whole CPU budget (a handful of parquet files would
    otherwise mean a handful of tasks); block count is size-aware so small
    corpora don't pay 64 task launches."""
    return read_size_aware(ensure_corpus(sf_dir, n_cands), 64)


def corpus_table(sf_dir: str, n_cands: int | None = None) -> pa.Table:
    """Small-scale helper for tests: the whole corpus as one Arrow table."""
    d = ensure_corpus(sf_dir, n_cands)
    return pq.read_table(d)

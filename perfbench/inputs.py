"""Seeded inputs for every workload, written under the benchmark's work
directory.  Each seed and size gets its own directory name, because
``engine.corpus.ensure_corpus`` caches a corpus by the basename of its
``sf_dir``: reusing a name would silently reuse another seed's corpus.

Inputs are plain parquet files; the engine only ever sees them through its
public readers.  Generation is excluded from every timing.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import dense

# apply: keys are drawn from this range; it stays below the index-extra
# offset (10M) so no cand key collides with an unmatched index key
APPLY_KEY_RANGE = 2_000_000
# operators: documents keep doc_id < 100000, the offset of the planted
# duplicates in engine.dedup.planted_dup_corpus
OPS_DOC_RANGE = 99_000

WORDS = ("a the row key agg scan slow fast table value part hash merge batch "
         "spark order data column join small line customer query filter "
         "group window big vector stream select sort").split()
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EVENT_TYPES = ["click", "view", "purchase", "error", "login"]
LANGS = ["en", "de", "fr", "es", "zh"]


def _done(path: str) -> bool:
    return os.path.exists(os.path.join(path, "_SUCCESS"))


def _mark(path: str) -> None:
    with open(os.path.join(path, "_SUCCESS"), "w") as f:
        f.write("ok")


def apply_keys(work: str, seed: int, n_cands: int) -> str:
    """A keys table (``documents.parquet`` with one doc_id column) read by
    ``ensure_corpus``: n_cands distinct keys sampled by the seed."""
    out = os.path.join(work, "inputs", f"apply-s{seed}-n{n_cands}")
    if _done(out):
        return out
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    keys = np.sort(rng.choice(APPLY_KEY_RANGE, n_cands, replace=False))
    pq.write_table(pa.table({"doc_id": pa.array(keys, type=pa.int64())}),
                   os.path.join(out, "documents.parquet"))
    _mark(out)
    return out


def dense_keys(seed: int, n_cands: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2])
    return np.sort(rng.choice(APPLY_KEY_RANGE, n_cands, replace=False))


def dense_corpus(work: str, seed: int, n_cands: int) -> str:
    """The dense-mesh corpus in the engine's document layout: per key one
    cand doc, a perturbed index copy for ~85% of keys and one unmatched
    index extra."""
    from datagen.buildings import INDEX_EXTRA_OFFSET
    from engine.schema import SPAN_TYPE

    out = os.path.join(work, "inputs", f"dense-s{seed}-n{n_cands}")
    if _done(out):
        return out
    os.makedirs(out, exist_ok=True)
    ids, sources, spans = [], [], []

    def add(k: int, source: str) -> None:
        ids.append(str(k))
        sources.append(source)
        spans.append(dense.doc_spans(seed, k, source))

    for k in dense_keys(seed, n_cands).tolist():
        add(k, "cands")
        if dense.building(seed, k)["matched"]:
            add(k, "index")
        add(k + INDEX_EXTRA_OFFSET, "index")
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, type=pa.string()),
        "source": pa.array(sources, type=pa.string()),
        "spans": pa.array(spans, type=pa.list_(SPAN_TYPE)),
    }), os.path.join(out, "corpus.parquet"))
    _mark(out)
    return out


def _money(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return rng.integers(int(lo * 100), int(hi * 100), n) / 100.0


def _ts(base: str, us: np.ndarray) -> pa.Array:
    t0 = np.datetime64(base, "us")
    return pa.array(t0 + us.astype("timedelta64[us]"), type=pa.timestamp("us"))


def operator_tables(work: str, seed: int, n_docs: int) -> str:
    """TPC-H-like customer/orders/lineitem, an events stream and a documents
    table, sized from ``n_docs`` with the proportions of the engine's sf
    tables (per document: 3 customers, 30 orders, ~120 lineitems, 20
    events).  Money is whole cents and quantities whole numbers, so every
    aggregate the oracles compute is exact."""
    out = os.path.join(work, "inputs", f"ops-s{seed}-d{n_docs}")
    if _done(out):
        return out
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, 3])
    n_cust, n_orders, n_events = 3 * n_docs, 30 * n_docs, 20 * n_docs

    def write(name: str, cols: dict) -> None:
        pq.write_table(pa.table(cols), os.path.join(out, f"{name}.parquet"))

    write("customer", {
        "c_custkey": pa.array(np.arange(n_cust), type=pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), type=pa.int32()),
        "c_acctbal": _money(rng, -999.99, 9999.99, n_cust),
        "c_mktsegment": [SEGMENTS[i] for i in rng.integers(0, 5, n_cust)],
    })
    odate_days = rng.integers(0, 2404, n_orders)  # 1995-01-01 .. 2001-08-01
    write("orders", {
        "o_orderkey": pa.array(np.arange(n_orders), type=pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_orders), type=pa.int64()),
        "o_orderstatus": [("F", "O", "P")[i] for i in rng.integers(0, 3, n_orders)],
        "o_totalprice": _money(rng, 1000.0, 500000.0, n_orders),
        "o_orderdate": _ts("1995-01-01", odate_days * 86_400_000_000),
        "o_orderpriority": [PRIORITIES[i] for i in rng.integers(0, 5, n_orders)],
    })
    lines = rng.integers(1, 8, n_orders)
    okey = np.repeat(np.arange(n_orders), lines)
    n_li = len(okey)
    starts = np.cumsum(lines) - lines
    write("lineitem", {
        "l_orderkey": pa.array(okey, type=pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 2000, n_li), type=pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 100, n_li), type=pa.int64()),
        "l_linenumber": pa.array(np.arange(n_li) - np.repeat(starts, lines) + 1,
                                 type=pa.int32()),
        "l_quantity": rng.integers(1, 51, n_li).astype(np.float64),
        "l_extendedprice": _money(rng, 900.0, 105000.0, n_li),
        "l_discount": rng.integers(0, 11, n_li) / 100.0,
        "l_tax": rng.integers(0, 9, n_li) / 100.0,
        "l_returnflag": [("A", "N", "R")[i] for i in rng.integers(0, 3, n_li)],
        "l_linestatus": [("F", "O")[i] for i in rng.integers(0, 2, n_li)],
        "l_shipdate": _ts("1995-01-01", (odate_days[okey]
                                         + rng.integers(1, 122, n_li))
                          * 86_400_000_000),
    })
    # events: one month, ~2 min mean gap, so sessions and the +-30 min
    # interval join both have real work
    gaps = rng.integers(1, 2 * 2_592_000_000_000 // n_events, n_events)
    write("events", {
        "event_id": pa.array(np.arange(n_events), type=pa.int64()),
        "ts": _ts("2024-01-01", np.cumsum(gaps)),
        "user_id": pa.array(rng.integers(0, 150, n_events), type=pa.int64()),
        "event_type": [EVENT_TYPES[i] for i in rng.integers(0, 5, n_events)],
        "value": _money(rng, 0.01, 500.0, n_events),
        "props": [f'{{"k": {i}}}' for i in rng.integers(0, 100, n_events)],
    })
    doc_ids = np.sort(rng.choice(OPS_DOC_RANGE, n_docs, replace=False))
    texts = [" ".join(WORDS[j] for j in rng.integers(0, len(WORDS), n))
             for n in rng.integers(10, 100, n_docs)]
    write("documents", {
        "doc_id": pa.array(doc_ids, type=pa.int64()),
        "text": texts,
        "lang": [LANGS[i] for i in rng.integers(0, 5, n_docs)],
        "source": [f"src{i}" for i in rng.integers(0, 20, n_docs)],
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })
    _mark(out)
    return out

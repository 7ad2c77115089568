"""Size gates: the one place that decides between a driver plan and a
distributed plan.

Ten operators keep two physical plans for the same result: a driver plan
(collect one side on the driver, then broadcast it or verify on the driver)
when that side is small, and a distributed plan (bucketed joins or shuffles,
nothing on the driver) when it is not.  Each gate streams ONE execution of
its small-side candidate through ``collect_under_budget``; the stream either
fits its budget and becomes the collected table, or the gate gives up at the
budget and runs the distributed plan.  A gate whose size is known before
it runs (the train kNN's cands x index cells) decides through
``driver_route`` instead.  Every call logs one line on the
``engine.gates`` logger: gate, route, rows and bytes seen, budget.

Every budget lives here and is read as ``gates.<NAME>`` at call time, so a
test forces a route by monkeypatching the budget: 0 forces the distributed
plan, ``math.inf`` the driver plan.  Byte budgets are measured on the Arrow
batches collected.

``sorted_positions`` and ``sorted_member`` are the two lookups into a sorted
key array that the gates (and the broadcast semi-joins elsewhere) share.
"""

from __future__ import annotations

import itertools
import logging
from typing import Iterator

import numpy as np
import pyarrow as pa
import ray.data

log = logging.getLogger("engine.gates")

# blocking.embedding_nn_auto: index rows broadcast as one matrix; above it
# the index is staged shard by shard through the object store.
MAX_BROADCAST_INDEX_ROWS = 1_000_000
# text.tfidf_topk: distinct terms (and their bytes) of the broadcast df map.
MAX_BROADCAST_VOCAB = 2_000_000
MAX_BROADCAST_VOCAB_BYTES = 256 * 1024 * 1024
# dedup driver verify (Jaccard, simhash, embedding): candidate pairs, then
# the bytes of the involved docs' signatures or embeddings (50M cells x 8 B).
MAX_DRIVER_VERIFY_PAIRS = 50_000
MAX_DRIVER_VERIFY_BYTES = 50_000_000 * 8
# dedup.substring_dup_stats: duplicated grams broadcast as one sorted array.
MAX_BROADCAST_DUP_GRAMS = 5_000_000
# pairs.pair_features_join (both property sides, so twice this) and
# relational.shipping_priority (the filtered orders side): ~430 MB of f64
# side matrix per side.
BROADCAST_MAX_SIDE_ROWS = 2_000_000
# dedup.dup_clusters: verified pair edges solved by driver union-find.
MAX_SMALL_GRAPH_ROWS = 2_000_000
# pipeline.blocking_train_pairs: train cands x index rows of the train kNN
# run on the driver, ~0.25 s of one core at ~12 ns per cell; above it the
# kNN is a distributed map.
MAX_DRIVER_KNN_CELLS = 20_000_000


def _log_route(gate: str, driver: bool, rows: int, nbytes: int,
               max_rows, max_bytes) -> None:
    log.info("%s: route=%s rows=%d bytes=%d budget rows=%s bytes=%s",
             gate, "driver" if driver else "distributed", rows, nbytes,
             max_rows, max_bytes)


def driver_route(gate: str, rows: int, max_rows: float) -> bool:
    """Whether a gate whose size ``rows`` is known up front stays within
    ``max_rows`` and takes its driver plan; logs the route like
    collect_under_budget."""
    driver = rows <= max_rows
    _log_route(gate, driver, rows, 0, max_rows, None)
    return driver


def collect_under_budget(ds: ray.data.Dataset, gate: str,
                         max_rows: float | None, max_bytes: float | None
                         ) -> tuple[pa.Table | None, Iterator[pa.Table]]:
    """Stream one execution of ``ds`` block by block; collect it while the
    rows and Arrow bytes seen stay within ``max_rows`` and ``max_bytes``
    (None: no bound on that measure).

    Returns ``(table, rest)``.  ``table`` is the collected table (route
    ``driver``), or None once the stream passes a budget (route
    ``distributed``): the check runs per block, so the driver holds at most
    one block past the budget.  ``rest`` yields the collected prefix and then
    the unconsumed remainder of the SAME stream, for a caller that shards
    the side instead of running it again; other callers drop it."""
    # iter() is load-bearing: every iteration of the iter_batches iterable
    # restarts the stream, so chaining the iterable would replay the prefix
    it = iter(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    prefix: list[pa.Table] = []
    rows = nbytes = 0
    over = False
    for b in it:
        prefix.append(b)
        rows += b.num_rows
        nbytes += b.nbytes
        if (max_rows is not None and rows > max_rows) or \
                (max_bytes is not None and nbytes > max_bytes):
            over = True
            break
    _log_route(gate, not over, rows, nbytes, max_rows, max_bytes)
    rest = itertools.chain(prefix, it)
    if over:
        return None, rest
    if prefix:
        return pa.concat_tables(prefix, promote_options="default"), rest
    schema = ds.schema()
    return (schema.base_schema.empty_table() if schema is not None
            else pa.table({})), rest


def sorted_positions(keys: np.ndarray, probe: np.ndarray,
                     gate: str) -> np.ndarray:
    """Positions of the ``probe`` values in the sorted array ``keys``.  The
    keys come from a second execution of the pipeline that produced the
    probe, so a missing key means that pipeline is nondeterministic: raise
    rather than read a neighbouring row."""
    pos = np.minimum(np.searchsorted(keys, probe), max(len(keys) - 1, 0))
    if len(probe) and (len(keys) == 0 or not (keys[pos] == probe).all()):
        raise RuntimeError(
            f"{gate}: key missing from the collected side — upstream "
            "pipeline is nondeterministic between the two scans")
    return pos


def sorted_member(keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Mask of the ``probe`` values present in the sorted array ``keys``."""
    if len(keys) == 0:
        return np.zeros(len(probe), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    return np.asarray(keys[pos] == probe, dtype=bool)

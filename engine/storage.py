"""Storage seam: Lance when available, parquet otherwise (SURVEY.md §7.0).

The north rule names Lance tables; this container has no pylance, so parquet
is the physical format behind the same call sites.  Swapping is this module
only — read/write signatures are identical.
"""

from __future__ import annotations

import glob
import os
import sys
import threading
import types
from collections import OrderedDict

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

try:  # pragma: no cover - lance absent in this environment
    import lance  # noqa: F401
    HAVE_LANCE = True
except Exception:
    HAVE_LANCE = False


def read_parquet_clean(path, columns=None, **kw) -> ray.data.Dataset:
    """`ray.data.read_parquet` with the file's schema metadata stripped.

    Pandas-written parquet carries a ``b'pandas'`` schema-metadata dict;
    a pyarrow Schema holding a metadata dict is UNHASHABLE here, which
    defeats Ray Data's schema dedup (`unify_schemas` early-exit) — every
    block merge logs "Failed to hash the schemas" and pays the expensive
    unify path.  Stripping costs one footer read per file on the driver
    and makes every downstream block schema hashable.  When the files'
    stripped schemas differ (say an all-null column typed null in one of
    them), no one schema fits them all: plain ``read_parquet`` unifies."""
    files = []
    for p in path if isinstance(path, (list, tuple)) else [path]:
        files += sorted(glob.glob(os.path.join(p, "**", "*.parquet"),
                                  recursive=True)) if os.path.isdir(p) \
            else [p]
    if not files:  # empty dir: let read_parquet raise its own error
        return ray.data.read_parquet(path, columns=columns, **kw)
    sch = pq.read_schema(files[0]).remove_metadata()
    if any(not pq.read_schema(f).remove_metadata().equals(sch)
           for f in files[1:]):
        return ray.data.read_parquet(path, columns=columns, **kw)
    if columns:
        sch = pa.schema([sch.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=sch, **kw)


def cluster_cpus() -> int | None:
    """CPU count of the Ray cluster this process is attached to; None
    before ``ray.init`` (Ray Data then starts a cluster on first use) or
    on a cluster that reports no CPUs."""
    if not ray.is_initialized():
        return None
    return int(ray.cluster_resources().get("CPU", 0)) or None


def cluster_cap(n: int) -> int:
    """``n``, but at most the cluster's CPUs.  For a block count feeding a
    map stage: each block is one task, and a task no CPU runs alongside
    the others only adds its launch, deserialization and per-batch fixed
    cost.  It also keeps a one-file read fused with the map after it: Ray
    Data never fuses a read whose output it splits into more blocks than
    files, so on one CPU a one-file corpus read as 2 blocks runs
    ``ReadParquet->SplitBlocks(2)`` and then 2 map tasks, and read as 1
    block runs one ``ReadParquet->MapBatches`` task (a read plus an empty
    map: 44 ms against 24 ms on one CPU)."""
    cpus = cluster_cpus()
    return min(n, cpus) if cpus else n


# The most built broadcast values one worker process keeps.  One pipeline
# streams at most two broadcast stages at once (prepare_state's semi-join
# filter feeding the kNN map); the other two slots are headroom for the
# stages of a pipeline started before the last one drained.  A bound too
# small only costs rebuilds from the ref; it never changes a result.
BROADCAST_SLOTS = 4
_PROCESS_CACHE = "_ray_geo_er_process_cache"   # sys.modules name


def _process_cache() -> types.ModuleType:
    """A namespace that lives as long as the current process: an LRU dict
    ``cache`` and the ``lock`` that guards it.  When engine modules travel
    into Ray tasks by value (a driver with a foreign cwd,
    engine/__init__.py), their module globals, and any cache kept in them,
    are rebuilt for every task; a module registered in sys.modules is not,
    so every task a worker process runs sees the same dict in either
    shipping mode."""
    mod = sys.modules.get(_PROCESS_CACHE)
    if mod is None:
        mod = types.ModuleType(_PROCESS_CACHE)
        mod.cache, mod.lock = OrderedDict(), threading.RLock()
        mod = sys.modules.setdefault(_PROCESS_CACHE, mod)
    return mod


def broadcast(value, build=None):
    """Ship driver-side state to map UDFs: ``ray.put(value)`` once, here,
    and return a handle.  Calling the handle inside a task returns
    ``build(value)`` (``value`` itself without ``build``), fetched and built
    once per worker process and memoized by the ref in ``_process_cache``,
    so every later batch and task on that worker reuses it whichever way
    the engine is shipped.

    The built value is shared by every batch and task the worker runs: it
    must be read-only.  It stays pinned in the worker, plasma buffers
    included, until ``BROADCAST_SLOTS`` newer broadcasts used there evict
    it, also after the pipeline ends and the caller drops the handle."""
    ref = ray.put(value)
    key = ref.hex()

    def get():
        memo = _process_cache()
        with memo.lock:
            if key in memo.cache:
                memo.cache.move_to_end(key)
                return memo.cache[key]
            got = ray.get(ref)
            got = memo.cache[key] = got if build is None else build(got)
            while len(memo.cache) > BROADCAST_SLOTS:
                memo.cache.popitem(last=False)
            return got

    return get


def read_table(path: str, columns=None, override_num_blocks=None) -> ray.data.Dataset:
    if HAVE_LANCE:
        return ray.data.read_lance(path, columns=columns)
    return read_parquet_clean(path, columns=columns,
                              override_num_blocks=override_num_blocks)


def write_table(ds: ray.data.Dataset, path: str, **kw) -> None:
    if HAVE_LANCE:
        ds.write_lance(path, **kw)
        return
    ds.write_parquet(path, **kw)

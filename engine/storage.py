"""Storage seam: Lance when available, parquet otherwise (SURVEY.md §7.0).

The north rule names Lance tables; this container has no pylance, so parquet
is the physical format behind the same call sites.  Swapping is this module
only — read/write signatures are identical.

Every parquet read in the engine goes through one ``ray.data.Datasource``
planned from the files' footers (``parquet_source``), read by
read_parquet_clean or, sized from those footers, by
``corpus.read_size_aware``.
"""

from __future__ import annotations

import functools
import glob
import math
import os
import sys
import threading
import types
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import ReadTask

try:  # pragma: no cover - lance absent in this environment
    import lance  # noqa: F401
    HAVE_LANCE = True
except Exception:
    HAVE_LANCE = False


def read_parquet_clean(path, columns=None,
                       override_num_blocks=None) -> ray.data.Dataset:
    """Read parquet files (a file, a directory's ``*.parquet`` files,
    sorted, recursively, or a list of both) into a Dataset whose blocks
    carry no schema metadata.

    Pandas-written parquet carries a ``b'pandas'`` schema-metadata dict;
    a pyarrow Schema holding a metadata dict is UNHASHABLE here, which
    defeats Ray Data's schema dedup (`unify_schemas` early-exit) — every
    block merge logs "Failed to hash the schemas" and pays the expensive
    unify path.  Each file's footer is read once on the driver and gives
    the schema, rows and uncompressed bytes the plan declares: no sampling
    task runs before the read (``ray.data.read_parquet`` starts one),
    ``Dataset.schema()`` runs no task, and without ``override_num_blocks``
    Ray sizes the read from the footer bytes.  A read task emits its row
    groups concatenated into blocks of at most Ray's
    ``DataContext.target_max_block_size`` uncompressed footer bytes (a
    larger row group is a block of its own), so a map with
    ``batch_size=None`` after it runs once per task, not once per row
    group.  Files whose stripped schemas differ (say an all-null column
    typed null in one of them) are each read with their own types, in
    blocks of their own, and Ray unifies them."""
    return ray.data.read_datasource(parquet_source(path, columns),
                                    override_num_blocks=override_num_blocks)


def parquet_source(path, columns=None) -> "_ParquetFiles":
    """The datasource ``read_parquet_clean(path, columns)`` reads, each
    file's footer read once, here; its ``num_rows()`` lets a caller size
    the read from those same footers."""
    files = []
    for p in path if isinstance(path, (list, tuple)) else [path]:
        files += sorted(glob.glob(os.path.join(p, "**", "*.parquet"),
                                  recursive=True)) if os.path.isdir(p) \
            else [p]
    return _ParquetFiles(files, columns)


class _ParquetFiles(ray.data.Datasource):
    """The files of one read_parquet_clean call, planned from their
    footers: one read task per contiguous group of files."""

    def __init__(self, files: list[str], columns: list[str] | None):
        metas = [pq.read_metadata(f) for f in files]
        schemas = [m.schema.to_arrow_schema().remove_metadata()
                   for m in metas]
        sch = schemas[0] if schemas and all(
            s.equals(schemas[0]) for s in schemas[1:]) else None
        if sch is not None and columns:
            sch = pa.schema([sch.field(c) for c in columns])
        self._files, self._columns, self._schema = files, columns, sch
        self._schemas = schemas
        self._rows = [m.num_rows for m in metas]
        # (rows, uncompressed bytes) of each file's row groups
        self._groups = [[(m.row_group(i).num_rows,
                          m.row_group(i).total_byte_size)
                         for i in range(m.num_row_groups)] for m in metas]
        self._bytes = [sum(b for _, b in g) for g in self._groups]

    def num_rows(self) -> int:
        return sum(self._rows)

    def get_name(self) -> str:
        return "Parquet"   # operators keep the name ReadParquet

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._bytes)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        target = ray.data.DataContext.get_current().target_max_block_size \
            or math.inf
        tasks = []
        for part in np.array_split(np.arange(len(self._files)), parallelism):
            if not len(part):
                continue
            files = [self._files[i] for i in part]
            meta = BlockMetadata(
                num_rows=sum(self._rows[i] for i in part),
                size_bytes=sum(self._bytes[i] for i in part),
                input_files=files, exec_stats=None)
            tasks.append(ReadTask(
                functools.partial(_read_files, self._blocks(part, target),
                                  self._columns), meta,
                schema=self._schema))
        return tasks

    def _blocks(self, part: np.ndarray, target: float) -> list:
        """The blocks of one read task: runs of its files' nonempty row
        groups, in order, each a list of (file, [row group]) holding at
        most ``target`` footer bytes unless one row group alone is larger.
        A block never spans two files whose stripped schemas differ."""
        blocks, size, prev = [], 0, None
        for i in part.tolist():
            for g, (rows, nbytes) in enumerate(self._groups[i]):
                if not rows:
                    continue
                if not blocks or size + nbytes > target or \
                        not self._schemas[i].equals(self._schemas[prev]):
                    blocks.append([])
                    size = 0
                if not blocks[-1] or blocks[-1][-1][0] != self._files[i]:
                    blocks[-1].append((self._files[i], []))
                blocks[-1][-1][1].append(g)
                size += nbytes
                prev = i
        return blocks


def _read_files(blocks: list, columns: list[str] | None):
    """One table without schema metadata per block of ``_blocks``: its row
    groups read and concatenated in order."""
    for block in blocks:
        tables = []
        for f, groups in block:
            with pq.ParquetFile(f) as pf:
                tables.append(pf.read_row_groups(groups, columns=columns)
                              .replace_schema_metadata(None))
        yield pa.concat_tables(tables)


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

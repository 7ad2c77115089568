"""Storage seam: Lance when available, parquet otherwise (SURVEY.md §7.0).

The north rule names Lance tables; this container has no pylance, so parquet
is the physical format behind the same call sites.  Swapping is this module
only — read/write signatures are identical.
"""

from __future__ import annotations

import glob
import os

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
    """``n``, but at most twice the cluster's CPUs: Ray Data's own read
    parallelism rule.  For a block count feeding a map stage: each block
    is one task, and a task no CPU runs alongside the others only adds its
    launch, deserialization and per-batch fixed cost (~30 ms each on one
    CPU for the fused apply pass)."""
    cpus = cluster_cpus()
    return min(n, 2 * cpus) if cpus else n


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

"""Property stage: interleaved documents -> 25 geometric property columns.

The reference fans out one multiprocessing task per *property*, each walking
every object and re-shipping the whole object dict
(/root/reference/object_properties.py:39-67).  Here it is a single
``map_batches`` over whole zero-copy Arrow read blocks, and each block
goes through the batch property kernel: its geom payloads are parsed into
one flat vertex table by one Arrow JSON read
(``geometry.parse_geom_payloads``) and all 25 properties of all its
objects are computed together over that table
(``geometry.batch_properties``), in runs of at most about
KERNEL_CHUNK_BYTES of payload.  The reference's per-property orientation
was a parallelization artifact, not semantics (SURVEY.md §1.1); its
area/perimeter/volume memoization becomes plain arrays.

Output schema: doc_id, source, x0, y0, cx, cy (world centroid), and the 25
double columns of geometry.PROPERTY_NAMES.  ``spans`` never enters this
table — derived tables are narrow; the document table itself is untouched
(span pass-through invariant).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from engine.geometry import (PROPERTY_NAMES, batch_properties,
                             parse_geom_payloads)


# Geom payload bytes per kernel call (~200 dense meshes of ~20 kB or ~4800
# box buildings), so the kernel's temporaries stay bounded however large the
# batch (numpy peak about 7 bytes per payload byte, so about 28 MB per call
# at the cap, and per worker at once on a many-CPU cluster; one dense bench
# call measured 20.3 MB under tracemalloc).  The property stage
# (``properties_dataset``) and the fused apply pass both hand the kernel a
# whole read block (at most one per CPU), so this cut is the only one and
# on one CPU it alone could split a pass: the benchmark's dense block
# (2.20-2.46 MiB of cand payload over seeds 0, 1, 7, 24, 43, 44 and 99) and
# its box-building block (~0.5 MB) each run as one call.  Each call pays
# one quickhull round per hull candidate of its largest mesh and every
# per-call loop, so a batch under the bound is never split: two calls cost
# about 10% more than one on the dense block.
KERNEL_CHUNK_BYTES = 1 << 22


def _props_batch(batch: pa.Table, log_transform: bool) -> pa.Table:
    import pyarrow.compute as pc
    # Arrow-side extraction of just the geom-span payloads (avoids
    # materializing every span's text/media strings into Python)
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans).to_numpy()
    mask = pc.equal(pc.struct_field(flat, "kind"), pa.scalar("geom"))
    geo_rows = parents[mask.to_numpy(zero_copy_only=False)]
    geo_texts = pc.struct_field(flat, "text").filter(mask)
    ids = batch.column("doc_id").take(pa.array(geo_rows, type=pa.int64()))
    # chunks cut where the running payload size crosses a multiple of
    # KERNEL_CHUNK_BYTES
    ends = np.cumsum(pc.binary_length(geo_texts).to_numpy(
        zero_copy_only=False)) // KERNEL_CHUNK_BYTES
    cuts = [0, *(np.flatnonzero(np.diff(ends)) + 1).tolist(), len(geo_texts)]
    keep, cols = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        # < 10 surfaces -> dropped, reference pipelines.py:144-145
        kept, origin, meshes = parse_geom_payloads(
            geo_texts.slice(lo, hi - lo), ids.slice(lo, hi - lo).to_pylist())
        props, centroid = batch_properties(meshes, log_transform)
        keep.append(lo + kept)
        cols.append({"x0": origin[:, 0], "y0": origin[:, 1],
                     "cx": origin[:, 0] + centroid[:, 0],
                     "cy": origin[:, 1] + centroid[:, 1], **props})
    rows = pa.array(geo_rows[np.concatenate(keep)], type=pa.int64())
    arrays = {
        c: pc.cast(batch.column(c).take(rows), pa.string())
        for c in ("doc_id", "source")
    }
    for col in ("x0", "y0", "cx", "cy", *PROPERTY_NAMES):
        arrays[col] = pa.array(np.concatenate([c[col] for c in cols]),
                               type=pa.float64())
    return pa.table(arrays)


def properties_dataset(docs: ray.data.Dataset,
                       log_transform: bool = False) -> ray.data.Dataset:
    """docs (doc_id, source, spans) -> per-object property table, one
    ``_props_batch`` call per read block (``batch_size=None``)."""
    return docs.map_batches(
        lambda b: _props_batch(b, log_transform),
        batch_format="pyarrow", batch_size=None)

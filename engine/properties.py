"""Property stage: interleaved documents -> 25 geometric property columns.

The reference fans out one multiprocessing task per *property*, each walking
every object and re-shipping the whole object dict
(/root/reference/object_properties.py:39-67).  Here it is a single
``map_batches`` over zero-copy Arrow blocks, and each batch goes through the
batch property kernel: its geom payloads are parsed into one flat vertex
table by one Arrow JSON read (``geometry.parse_geom_payloads``) and all 25
properties of all its objects are computed together over that table
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


# Geom payload bytes per kernel call (~75 dense meshes of ~20 kB or ~1700
# box buildings), so the kernel's temporaries stay bounded however large the
# batch (about 6 bytes per payload byte: 9 MB peak on a 170-doc dense batch).
# A fused apply batch on dense meshes holds up to ~1.3 MB of cand payload and
# runs as one call: each call pays one quickhull round per hull vertex of its
# largest mesh, so splitting a batch in two nearly doubles the rounds.
KERNEL_CHUNK_BYTES = 3 << 19


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


def properties_dataset(docs: ray.data.Dataset, log_transform: bool = False,
                       batch_size: int = 256) -> ray.data.Dataset:
    """docs (doc_id, source, spans) -> per-object property table."""
    return docs.map_batches(
        lambda b: _props_batch(b, log_transform),
        batch_format="pyarrow", batch_size=batch_size)

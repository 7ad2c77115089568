"""PNG mesh renderer — the reference's figure-generation stage (K5:
/root/reference/utils.py:134-163 renders each object's polygon mesh to a PNG
via matplotlib; generate_png_figs.py:18-51 batch-drives it).

No plotting/image library exists in this container, so the raster path is
self-contained: an isometric wireframe projection rasterized with vectorized
numpy line sampling, encoded as a minimal 8-bit grayscale PNG using only
stdlib zlib/struct (IHDR/IDAT/IEND, filter 0).  Deterministic byte-for-byte,
so renders are cacheable/checkpointable like any other derived column.

Ray shape: a task-pool `map_batches` stage, emitting a binary `png` column next
to `doc_id`; media_ref spans then point at real bytes instead of symbolic
refs.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa
import ray.data

from engine.geometry import parse_geom_payloads, unique_vertices


def _project_iso(verts: np.ndarray) -> np.ndarray:
    """Isometric-ish projection: u = x - 0.5*y, v = z + 0.868*y."""
    u = verts[:, 0] - 0.5 * verts[:, 1]
    v = verts[:, 2] + 0.868 * verts[:, 1]
    return np.column_stack([u, v])


_T_CACHE: dict[int, np.ndarray] = {}


def rasterize_wireframe(surfaces: list, size: int = 64) -> np.ndarray:
    """uint8 (size, size) canvas with all surface edges drawn (255 on 0)."""
    allv = unique_vertices(surfaces)
    pts = _project_iso(allv.astype(np.float64))
    lo = pts.min(axis=0)
    span = np.maximum(pts.max(axis=0) - lo, 1e-9)
    scale = (size - 3) / span.max()
    img = np.zeros((size, size), dtype=np.uint8)
    t = _T_CACHE.get(size)
    if t is None:   # sample grid is a function of size only — build once
        t = _T_CACHE[size] = np.linspace(0.0, 1.0,
                                         2 * size)[None, :, None]
    for surf in surfaces:
        arr = np.asarray(surf, dtype=np.float64)
        p = (_project_iso(arr) - lo) * scale + 1.0
        # closed ring: edge i -> i+1 (wrap), all edges sampled at once
        a = p
        b = np.concatenate([p[1:], p[:1]])   # == np.roll(p, -1, axis=0)
        seg = a[:, None, :] * (1 - t) + b[:, None, :] * t  # (edges, steps, 2)
        xy = seg.reshape(-1, 2)
        xs = np.clip(xy[:, 0].astype(np.int64), 0, size - 1)
        ys = np.clip((size - 2 - xy[:, 1]).astype(np.int64), 0, size - 1)
        img[ys, xs] = 255
    return img


def encode_png_gray(img: np.ndarray) -> bytes:
    """Minimal 8-bit grayscale PNG encoder (stdlib only, deterministic)."""
    h, w = img.shape

    def chunk(tag: bytes, payload: bytes) -> bytes:
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + \
            struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)  # gray, no interlace
    raw = b"".join(b"\x00" + img[r].tobytes() for r in range(h))
    idat = zlib.compress(raw, 6)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", idat) + chunk(b"IEND", b""))


def render_doc_pngs(docs_spans: list, size: int = 64, ids=None) -> list:
    """Render each document's first geom span to PNG bytes (None when no
    geometry survives the min-surface filter — mirroring the reference
    skipping unreadable objects).  The payloads of the batch are parsed in
    one call; ``ids`` names the documents in parse errors."""
    rows, texts = [], []
    for i, spans in enumerate(docs_spans):
        text = next((s["text"] for s in spans if s.get("kind") == "geom"),
                    None)
        if text is not None:
            rows.append(i)
            texts.append(text)
    keep, _, meshes = parse_geom_payloads(
        texts, None if ids is None else [ids[i] for i in rows])
    pngs = [None] * len(docs_spans)
    for j, surfaces in zip(keep.tolist(), meshes.objects()):
        pngs[rows[j]] = encode_png_gray(rasterize_wireframe(surfaces, size))
    return pngs


class RenderActor:
    """Actor-pool stage: canvas parameters fixed per actor, one PNG per doc
    (the reference's per-object savefig loop, generate_png_figs.py:18-51)."""

    def __init__(self, size: int = 64):
        self.size = size

    def __call__(self, batch: pa.Table) -> pa.Table:
        has_source = "source" in batch.column_names
        sources = batch.column("source").to_pylist() if has_source \
            else [""] * batch.num_rows
        doc_ids = batch.column("doc_id").to_pylist()
        ids, srcs, pngs = [], [], []
        for d, so, png in zip(doc_ids, sources, render_doc_pngs(
                batch.column("spans").to_pylist(), self.size, doc_ids)):
            if png is None:
                continue
            ids.append(d)
            srcs.append(so)
            pngs.append(png)
        out = {"doc_id": pa.array(ids, type=pa.string())}
        if has_source:
            out["source"] = pa.array(srcs, type=pa.string())
        out["png"] = pa.array(pngs, type=pa.binary())
        return pa.table(out)


def render_dataset(docs: ray.data.Dataset, size: int = 64) -> ray.data.Dataset:
    """docs (doc_id, spans) -> (doc_id, png bytes) as a task pool.  Small
    batches on purpose: rendered canvases are heap-heavy rows (K5's media
    analogue).  The stage's only state is its canvas size, so each batch
    builds its renderer."""
    def render(batch: pa.Table) -> pa.Table:
        return RenderActor(size)(batch)

    return docs.map_batches(render, batch_format="pyarrow", batch_size=128)

"""Multimodal column handling: media spans as opaque refs with typed metadata.

The image/audio libraries are not in this container, so the decode kernel is a
STUB (deterministic fake features keyed by media_ref, clearly marked); the Ray
plumbing — task-pool stage, schema, batch sizing, output layout — is real and
tested.  Mirrors the reference's ViT/CLIP embedding path
(/root/reference/utils.py:45-67: model load once, then batch encode), which
would slot into MediaFeatureActor.__init__/__call__ unchanged.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from engine import storage
from engine.joins import md5_digests, stable_hash64
from engine.render import encode_png_gray, render_doc_pngs

FEATURE_DIM = 8


def _decode_image_stub(media_ref: str) -> tuple[np.ndarray, np.ndarray, float]:
    """STUB decode: a real implementation would fetch + decode the image and
    run the vision encoder here (raise NotImplementedError if wired to real
    refs).  Deterministic fake: unit-normalized bytes of md5(media_ref).
    Returns (normalized feature, raw integer-valued bytes, norm) — the raw
    bytes + norm let downstream cosine scoring use exact-integer dot products
    (order-independent, hence SQL-replicable bit-for-bit)."""
    v = md5_digests([media_ref])[0, :FEATURE_DIM].astype(np.float64)
    n = float(np.sqrt(float((v * v).sum())))
    return (v / n if n else v), v, n


class MediaFeatureActor:
    """Task-pool stage: 'model' initialised once per worker process
    (``_map_stage``), features per batch.

    Input: documents with spans; output: one row per media span
    (doc_id, media_ref, offset, feature: list<double>[8]).
    """

    def __init__(self):
        # real impl: load vision model weights here (once per worker)
        self.decode = _decode_image_stub

    def __call__(self, batch: pa.Table) -> pa.Table:
        has_source = "source" in batch.column_names
        sources = batch.column("source").to_pylist() if has_source             else [""] * batch.num_rows
        doc_ids, srcs, refs, offsets = [], [], [], []
        feats, raws, norms = [], [], []
        for d, so, spans in zip(batch.column("doc_id").to_pylist(), sources,
                                batch.column("spans").to_pylist()):
            for s in spans:
                if s["kind"] != "media" or not s["media_ref"]:
                    continue
                doc_ids.append(d)
                srcs.append(so)
                refs.append(s["media_ref"])
                offsets.append(s["offset"])
                f, r, n = self.decode(s["media_ref"])
                feats.append(f.tolist())
                raws.append(r.tolist())
                norms.append(n)
        return pa.table({
            "doc_id": pa.array(doc_ids, type=pa.string()),
            "source": pa.array(srcs, type=pa.string()),
            "media_ref": pa.array(refs, type=pa.string()),
            "offset": pa.array(offsets, type=pa.int32()),
            "feature": pa.array(feats, type=pa.list_(pa.float64())),
            "raw": pa.array(raws, type=pa.list_(pa.float64())),
            "norm": pa.array(norms, type=pa.float64()),
        })


def _map_stage(docs: ray.data.Dataset, cls, kw: dict,
               batch_size: int) -> ray.data.Dataset:
    """Map ``docs`` through the stage ``cls(**kw)`` as a task pool.  The
    instance ships through ``storage.broadcast`` (``kw`` as the value, the
    class as the build): its state is a few KB (a seeded projection matrix,
    sizes, an md5 stub), built once per worker process and reused across
    its batches and tasks, which pays no cold per-actor process spawn."""
    actor = storage.broadcast(kw, build=lambda kw: cls(**kw))

    def stage(batch: pa.Table) -> pa.Table:
        return actor()(batch)
    return docs.map_batches(stage, batch_format="pyarrow",
                            batch_size=batch_size)


def media_features(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Media spans -> deterministic feature vectors (task pool, state
    built once per worker process).  Small batches on purpose: real
    binary payloads are heap-heavy per row."""
    return _map_stage(docs, MediaFeatureActor, {}, 256)


# ---------------------------------------------------------------------------
# Real-bytes media encoder: PNG decode + numpy patch embedding
# ---------------------------------------------------------------------------

def decode_png_gray(png: bytes) -> np.ndarray:
    """stdlib decoder for the engine's own 8-bit grayscale filter-0 PNGs
    (engine/render.py encode_png_gray): parse chunks, inflate IDAT, strip
    the per-scanline filter byte.  Raises on any other PNG flavor — this is
    the codec for the engine's self-produced media bytes, not a general
    image library (none exists in this container)."""
    import struct
    import zlib
    assert png[:8] == b"\x89PNG\r\n\x1a\n", "not a PNG"
    pos, w = 8, None
    idat = b""
    while pos < len(png):
        (length,) = struct.unpack(">I", png[pos:pos + 4])
        tag = png[pos + 4:pos + 8]
        payload = png[pos + 8:pos + 8 + length]
        if tag == b"IHDR":
            w, h, depth, color = struct.unpack(">IIBB", payload[:10])
            if depth != 8 or color != 0:
                raise ValueError("only 8-bit grayscale supported")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        pos += 12 + length
    raw = zlib.decompress(idat)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, w + 1)
    if (rows[:, 0] != 0).any():
        raise ValueError("only filter type 0 supported")
    return np.ascontiguousarray(rows[:, 1:])


class PatchEmbedActor:
    """Real-bytes media encoder (the ViT-class slot, reference
    utils.py:45-67,100-163): per doc, render the geom span to REAL PNG
    bytes, decode those bytes back (round-tripping the codec), patchify the
    64x64 canvas into 8x8 patches and project each through a fixed
    seeded random matrix — mean-pooled and L2-normalized, a deterministic
    numpy stand-in for a patch-embedding vision transformer.  The
    projection matrix is built ONCE per worker in __init__, exactly where a
    real encoder would load weights."""

    def __init__(self, seed: int = 7, patch: int = 8, dim: int = 8,
                 regions: int = 4, size: int = 64):
        rng = np.random.default_rng(seed)
        self.patch, self.dim, self.size = patch, dim, size
        self.regions = regions
        self.W = rng.standard_normal((patch * patch, dim)) / patch

    def _embed(self, img: np.ndarray) -> np.ndarray:
        p, s, R = self.patch, self.size, self.regions
        g = s // p                      # patch grid side
        x = img.astype(np.float64) / 255.0
        # (g, p, g, p) -> (g, g, p*p): per-patch pixel rows
        patches = x.reshape(g, p, g, p).transpose(0, 2, 1, 3) \
            .reshape(g, g, p * p)
        E = patches @ self.W            # (g, g, dim) per-patch projections
        # RxR region mean-pooling keeps coarse spatial layout (global mean
        # pooling measured 0.81 planted recall@5; 4x4 regions measure 1.0)
        r = g // R
        pooled = E.reshape(R, r, R, r, self.dim).mean(axis=(1, 3)).ravel()
        n = np.sqrt((pooled * pooled).sum())
        return pooled / n if n else pooled

    def __call__(self, batch: pa.Table) -> pa.Table:
        has_source = "source" in batch.column_names
        sources = batch.column("source").to_pylist() if has_source \
            else [""] * batch.num_rows
        ids, srcs, feats = [], [], []
        if "png" in batch.column_names:
            # pre-rendered bytes (the shared render_dataset materialization)
            # — decode + embed only; identical features to the render path.
            # The renders must match this actor's configured canvas size
            # (a mismatched `size` kwarg would otherwise compute features
            # at the wrong resolution or die in a cryptic reshape).
            for d, so, png in zip(batch.column("doc_id").to_pylist(),
                                  sources, batch.column("png").to_pylist()):
                img = decode_png_gray(png)
                if img.shape != (self.size, self.size):
                    raise ValueError(
                        f"pre-rendered png is {img.shape}, actor expects "
                        f"({self.size}, {self.size}) — re-render or drop "
                        "the size override")
                ids.append(d)
                srcs.append(so)
                feats.append(self._embed(img).tolist())
        else:
            doc_ids = batch.column("doc_id").to_pylist()
            for d, so, png in zip(doc_ids, sources, render_doc_pngs(
                    batch.column("spans").to_pylist(), self.size, doc_ids)):
                if png is None:
                    continue
                img = decode_png_gray(png)
                ids.append(d)
                srcs.append(so)
                feats.append(self._embed(img).tolist())
        return pa.table({
            "doc_id": pa.array(ids, type=pa.string()),
            "source": pa.array(srcs, type=pa.string()),
            "feature": pa.array(feats, type=pa.list_(pa.float64())),
        })


def patch_embeddings(docs: ray.data.Dataset) -> ray.data.Dataset:
    """docs (doc_id[, source], spans) -> (doc_id, source, feature) via the
    real-bytes patch-embedding stage (task pool, projection memoized per
    worker).  Small batches: each row renders and decodes a canvas
    (heap-heavy, like any real media decode)."""
    return _map_stage(docs, PatchEmbedActor, {}, 128)


def resize_png_gray(png: bytes, out_size: int) -> bytes:
    """Nearest-neighbor downsample of one of the engine's grayscale PNGs to
    (out_size, out_size), re-encoded — a real bytes->bytes media transform
    (the resize slot of a decode/extract/resize/frame-sample pipeline)."""
    img = decode_png_gray(png)
    h, w = img.shape
    yi = (np.arange(out_size) * h) // out_size
    xi = (np.arange(out_size) * w) // out_size
    return encode_png_gray(np.ascontiguousarray(img[yi][:, xi]))


class MediaResizeActor:
    """Task-pool resize stage over real PNG bytes: render -> decode ->
    nearest-neighbor resize -> re-encode.  Emits per-doc byte sizes and a
    CRC so determinism is checkable without shipping payloads to the
    driver (the resized bytes themselves stay in the pipeline)."""

    def __init__(self, out_size: int = 16, in_size: int = 64):
        self.out_size, self.in_size = out_size, in_size

    def __call__(self, batch: pa.Table) -> pa.Table:
        import zlib
        has_source = "source" in batch.column_names
        sources = batch.column("source").to_pylist() if has_source \
            else [""] * batch.num_rows
        ids, srcs, sizes_in, sizes_out, crcs = [], [], [], [], []
        if "png" in batch.column_names:
            rows = zip(batch.column("doc_id").to_pylist(), sources,
                       batch.column("png").to_pylist())
        else:
            doc_ids = batch.column("doc_id").to_pylist()
            rows = zip(doc_ids, sources, render_doc_pngs(
                batch.column("spans").to_pylist(), self.in_size, doc_ids))
        for d, so, png in rows:
            if png is None:
                continue
            small = resize_png_gray(png, self.out_size)
            ids.append(d)
            srcs.append(so)
            sizes_in.append(len(png))
            sizes_out.append(len(small))
            crcs.append(zlib.crc32(small))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.string()),
            "source": pa.array(srcs, type=pa.string()),
            "png_bytes_in": pa.array(sizes_in, type=pa.int64()),
            "png_bytes_out": pa.array(sizes_out, type=pa.int64()),
            "png_crc_out": pa.array(crcs, type=pa.int64()),
        })


def media_resize(docs: ray.data.Dataset,
                 out_size: int = 16) -> ray.data.Dataset:
    """docs (doc_id, spans) -> resized-media metadata (task pool)."""
    return _map_stage(docs, MediaResizeActor, {"out_size": out_size}, 128)


def frame_sample(docs: ray.data.Dataset, stride: int = 2) -> ray.data.Dataset:
    """Frame sampling over a document's media-span sequence (the video
    frame-sample slot: keep every ``stride``-th media span, preserving
    order): one output row per KEPT span — (doc_id, frame_idx among the
    doc's media spans, media_ref, offset).  Stateless vectorizable
    map_batches; the span sequence itself is never mutated (the per-row
    span invariant holds upstream)."""
    def sample(batch: pa.Table) -> pa.Table:
        ids, fidx, refs, offs = [], [], [], []
        for d, spans in zip(batch.column("doc_id").to_pylist(),
                            batch.column("spans").to_pylist()):
            media = [s for s in spans if s["kind"] == "media"]
            for i in range(0, len(media), stride):
                ids.append(d)
                fidx.append(i)
                refs.append(media[i]["media_ref"])
                offs.append(media[i]["offset"])
        return pa.table({
            "doc_id": pa.array(ids, type=pa.string()),
            "frame_idx": pa.array(fidx, type=pa.int32()),
            "media_ref": pa.array(refs, type=pa.string()),
            "offset": pa.array(offs, type=pa.int32()),
        })

    return docs.map_batches(sample, batch_format="pyarrow")


def _synth_audio_stub(media_ref: str, n: int = 256) -> np.ndarray:
    """STUB audio decode (no audio libs in this container — a real
    implementation would fetch + decode PCM here): a deterministic
    square wave whose period derives from md5(media_ref), int16 samples.
    Integer-valued by construction so every downstream feature is exact."""
    h = int(stable_hash64([media_ref])[0])
    p = 2 + h % 31
    i = np.arange(n)
    return np.where((i // p) % 2 == 0, 8, -8).astype(np.int16)


class AudioFeatureActor:
    """Task-pool audio feature stage: 'codec' bound once per worker
    (__init__ is the decoder/model-load slot), per batch the REAL
    vectorized DSP runs on the decoded waveform — energy (sum of squares),
    zero-crossing count (sign-change scan), exact periodicity detection
    (minimal lag L with w[i+L] == w[i] for every overlapping sample).
    All-integer waveform -> every emitted value is exact
    (SQL-replicable)."""

    def __init__(self, n_samples: int = 256):
        self.decode = _synth_audio_stub
        self.n = n_samples

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, refs, energy, zc, period = [], [], [], [], []
        for d, spans in zip(batch.column("doc_id").to_pylist(),
                            batch.column("spans").to_pylist()):
            for s in spans:
                if s["kind"] != "media" or not s["media_ref"]:
                    continue
                w = self.decode(s["media_ref"], self.n).astype(np.int64)
                ids.append(d)
                refs.append(s["media_ref"])
                energy.append(int((w * w).sum()))
                zc.append(int((w[1:] * w[:-1] < 0).sum()))
                per = 0
                for L in range(1, len(w) // 2 + 1):
                    if (w[L:] == w[:-L]).all():
                        per = L
                        break
                period.append(per)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.string()),
            "media_ref": pa.array(refs, type=pa.string()),
            "energy": pa.array(energy, type=pa.int64()),
            "zero_crossings": pa.array(zc, type=pa.int64()),
            "period_est": pa.array(period, type=pa.int64()),
        })


def audio_features(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Media spans -> audio DSP features (task pool; stub decode
    declared, DSP real)."""
    return _map_stage(docs, AudioFeatureActor, {}, 256)


def _synth_video_stub(media_ref: str, n_frames: int = 8,
                      size: int = 16) -> np.ndarray:
    """STUB video decode (no video libs in this container — a real
    implementation would demux + decode frames here): a deterministic
    moving-edge clip keyed by md5(media_ref) — frame t is a size x size
    int image split at column c_t = (c0 + t*v) % size into a hi plateau
    (left) and lo plateau (right).  Integer-valued by construction so
    every downstream feature is exact (SQL-replicable in closed form)."""
    h = int(stable_hash64([media_ref])[0])
    c0 = h % size
    v = 1 + (h // 16) % 7
    hi = 4 + (h // 512) % 8
    lo = -(2 + (h // 65536) % 4)
    cols = np.arange(size)
    frames = np.empty((n_frames, size, size), dtype=np.int64)
    for t in range(n_frames):
        ct = (c0 + t * v) % size
        frames[t] = np.where(cols < ct, hi, lo)[None, :]
    return frames


class VideoFeatureActor:
    """Task-pool video feature stage (the frame-level sibling of
    ``AudioFeatureActor``): 'codec' bound once per worker, per batch the
    REAL vectorized frame ops run on the decoded clip — per-frame sum,
    edge-column detection (count of hi-plateau columns in the actual
    pixel array), and temporal motion energy (L1 of consecutive frame
    diffs, the frame-difference motion detector).  One output row per
    (media span, frame)."""

    def __init__(self, n_frames: int = 8, size: int = 16):
        self.decode = _synth_video_stub
        self.n_frames = n_frames
        self.size = size

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, refs, fidx, esum, ecol, motion = [], [], [], [], [], []
        for d, spans in zip(batch.column("doc_id").to_pylist(),
                            batch.column("spans").to_pylist()):
            for s in spans:
                if s["kind"] != "media" or not s["media_ref"]:
                    continue
                clip = self.decode(s["media_ref"], self.n_frames, self.size)
                sums = clip.sum(axis=(1, 2))
                hi = clip.max()
                edges = (clip[:, 0, :] == hi).sum(axis=1)
                diffs = np.abs(np.diff(clip, axis=0)).sum(axis=(1, 2))
                for t in range(self.n_frames):
                    ids.append(d)
                    refs.append(s["media_ref"])
                    fidx.append(t)
                    esum.append(int(sums[t]))
                    ecol.append(int(edges[t]))
                    motion.append(0 if t == 0 else int(diffs[t - 1]))
        return pa.table({
            "doc_id": pa.array(ids, type=pa.string()),
            "media_ref": pa.array(refs, type=pa.string()),
            "frame_idx": pa.array(fidx, type=pa.int64()),
            "frame_sum": pa.array(esum, type=pa.int64()),
            "edge_col": pa.array(ecol, type=pa.int64()),
            "motion": pa.array(motion, type=pa.int64()),
        })


def video_features(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Media spans -> per-frame video features (task pool; stub decode
    declared, frame ops real)."""
    return _map_stage(docs, VideoFeatureActor, {}, 256)

"""Geometric kernels: mesh parsing, 25 intrinsic object properties, convex
hulls (pure numpy — no scipy in this environment), point-in-polygon.

Property semantics replicate the reference's ObjectPropertiesProcessor
(/root/reference/object_properties.py:72-310) including its quirks:

* ``convex_hull_area`` is scipy's ``ConvexHull(pts_2d).area`` — which for 2D is
  the hull *perimeter*, not the enclosed area (object_properties.py:217-220).
* ``area`` is floored at 1 (object_properties.py:100-107); ``perimeter`` uses
  the first surface whose vertices all sit at min-z, falling back to max-z
  with a floor of 1 (object_properties.py:145-186).
* ``num_floors`` = count of distinct z coordinates (object_properties.py:241).
* vertices are deduplicated with np.unique(axis=0) — lexicographic sort —
  exactly as pipelines.py:137-139; centroid is their mean (pipelines.py:132-135).

Batch kernel.  Properties are computed for a batch of objects at once, never
one object at a time: the batch's geom payloads are read by one pyarrow.json
call (``parse_geom_payloads``), and ``Meshes`` holds every surface vertex of
the batch in one flat float64 table with surface and object offsets, taken
from the list offsets and values of that read.  Vertex dedup is one
lexsort over (object, x, y, z).  Two stable 3-key lexsorts of the unique
table give its (object, y, z, x) and (object, z, x, y) orders, and every
per-axis pass (distinct values, axis-parallel runs, the 2D hull's distinct
xy) reads one of these three orders through head masks, with no sort of its
own.  Every property is a vectorized pass over the flat tables — segment
reductions, one flat triangle-fan table, stacked
``np.cov``/``np.linalg.eigh``, one lockstep quickhull for the 3D hulls of
the whole batch and a batched monotone chain for the 2D hulls, over the
points the 3D hulls leave as 2D candidates.  The quickhull adds one hull
vertex per object per round, so its rounds (and numpy calls) number at most
the batch's longest candidate list; an object whose float hull rounding bent
near coplanar points is rerun in exact rational arithmetic (never on grid
inputs).  ``compute_properties`` and
``convex_hull_3d_volume`` are the same kernels on a batch of one.

Deterministic-arithmetic notes (why tests can assert exact equality against a
SQL oracle): sums of exactly-representable terms are accumulated sequentially,
and signed-volume kernels accumulate integer-valued numerators and divide by 6
ONCE at the end, so for dyadic-rational inputs the results are exact IEEE
doubles.  This is our engine's defined semantics (SURVEY.md §7.4.1), not a
bit-copy of the reference's float accumulation order.  The batch kernel keeps
the bits of the former one-object-at-a-time kernel:

* sums the reference accumulates term by term (fan area, fan volume, surface
  and hull perimeters) are laid into zero-padded rows, one per object, and
  summed left to right by ``np.cumsum`` (adding 0.0 is exact);
* numpy reductions that sum pairwise (means, ``np.std``, ``np.cov``) run on
  (objects × m) stacks of the objects that share m, which numpy reduces row
  by row exactly like a single length-m array;
* ``log`` and ``pow`` go through ``math`` element by element, because numpy's
  SIMD versions can differ from libm in the last bit;
* ``np.log1p`` gets contiguous arrays only.  On a strided view (a column of
  a 2D table) numpy falls back from SIMD to libm when the view's address
  span, which runs past its buffer, overlaps the freshly allocated output:
  the bits then depend on where malloc put that output;
* a hull volume is a sum of exact dyadic determinants, so any triangulation
  of the hull's facets gives the same double;
* the 3D hull skips only points strictly inside an axis-parallel run and
  points strictly inside the hull of the other points of their (object, z)
  slice (beyond HULL_TOL of the slice's scale x extent).  Neither is a hull
  vertex, nor an object's first or last point (the tetrahedra's apex and
  the padding), so the hull and the sum of its determinants do not change;
* the 2D chain skips only those points and the points strictly inside
  every non-horizontal face of the 3D hull (beyond HULL_TOL): their xy
  cannot be strict-turn hull vertices, so the chain's vertex sequence, and
  the order of its perimeter sum, do not change.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pj

# Canonical property order — mirrors config.Features.object_properties
# (/root/reference/config.py:44-49).
PROPERTY_NAMES = [
    "bounding_box_width", "bounding_box_length", "area", "perimeter",
    "perimeter_ind", "volume", "convex_hull_area", "convex_hull_volume",
    "ave_centroid_distance", "height_diff", "num_floors", "axes_symmetry",
    "compactness_2d", "compactness_3d", "density", "elongation", "shape_ind",
    "hemisphericality", "fractality", "cubeness", "circumference",
    "aligned_bounding_box_width", "aligned_bounding_box_length",
    "aligned_bounding_box_height", "num_vertices",
]

MIN_SURFACES_NUM = 10  # reference pipelines.py:17

# Hull predicates treat a signed distance within this fraction of the
# coordinate scale (max |coordinate| x extent^2 for a facet distance) as
# zero.  On the 1/64 grid of the corpora a nonzero distance is at least
# 64^-3, far above it, so dyadic inputs are decided exactly.
HULL_TOL = 16.0 * np.finfo(np.float64).eps


def unique_vertices(surfaces: list[np.ndarray]) -> np.ndarray:
    """np.unique over all surface vertices — lexsorted, like pipelines.py:137-139."""
    return np.unique(np.concatenate(surfaces, axis=0), axis=0)


class Meshes:
    """A batch of meshes as flat tables: ``x``, ``y``, ``z`` hold every
    surface vertex of every object (objects, then surfaces, in input order),
    ``surf_len`` the vertex count of each surface and ``obj_surf`` the surface
    count of each object."""

    def __init__(self, xyz, surf_len, obj_surf):
        xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
        self.x, self.y, self.z = (np.ascontiguousarray(xyz[:, i])
                                  for i in range(3))
        self.surf_len = np.asarray(surf_len, dtype=np.int64)
        self.obj_surf = np.asarray(obj_surf, dtype=np.int64)
        self.n = len(self.obj_surf)
        self.surf_obj = np.repeat(np.arange(self.n), self.obj_surf)
        self.surf_start = _starts(self.surf_len)
        self.row_surf = np.repeat(np.arange(len(self.surf_len)), self.surf_len)
        self.row_obj = self.surf_obj[self.row_surf]

    @classmethod
    def from_surfaces(cls, objects) -> "Meshes":
        """``objects``: an iterable over objects, each a sequence of surfaces
        of [x, y, z] vertices (nested lists or (n, 3) arrays).  Each object
        is flattened as soon as it is drawn."""
        flat = itertools.chain.from_iterable
        coords, surf_len, obj_surf = [np.zeros(0)], [], []
        for surfaces in objects:
            lens = [len(s) for s in surfaces]
            surf_len.extend(lens)
            obj_surf.append(len(lens))
            coords.append(np.fromiter(flat(flat(surfaces)), dtype=np.float64,
                                      count=3 * sum(lens)))
        return cls(np.concatenate(coords), surf_len, obj_surf)

    def objects(self) -> list:
        """Each object's surfaces, as (n, 3) arrays (views of one table)."""
        xyz = np.column_stack([self.x, self.y, self.z])
        surfaces = np.split(xyz, np.cumsum(self.surf_len)[:-1])
        ends = np.cumsum(self.obj_surf).tolist()
        return [surfaces[e - c:e]
                for c, e in zip(self.obj_surf.tolist(), ends)]


# The geom payload grammar: one JSON object per payload, whose "surfaces" is
# a list of surfaces, each a list of [x, y, z] vertices, and whose optional
# "origin" is [x0, y0] (absent or null: [0, 0]).  Numbers may be integers or
# floats in any JSON form; other keys are ignored, but must hold JSON whose
# numbers fit a double.
GEOM_SCHEMA = pa.schema([
    ("origin", pa.list_(pa.float64())),
    ("surfaces", pa.list_(pa.list_(pa.list_(pa.float64())))),
])
_GEOM_PARSE = pj.ParseOptions(explicit_schema=GEOM_SCHEMA,
                              newlines_in_values=True,
                              unexpected_field_behavior="ignore")


def parse_geom_payload(text: str):
    """Parse one geom-span JSON payload -> (origin ndarray(2,), surfaces list
    of ndarray(n,3)): parse_geom_payloads on a batch of one.  Returns None if
    the payload has < MIN_SURFACES_NUM surfaces (the reference drops those
    objects, pipelines.py:144-145)."""
    keep, origin, m = parse_geom_payloads([text])
    return (origin[0], m.objects()[0]) if len(keep) else None


def _read_payloads(texts: pa.Array, ids) -> pa.Table:
    """One pyarrow.json read over the payloads joined by newlines, one row
    per payload.  A payload it cannot read is found by reading each alone
    and raises ValueError naming its doc."""
    if texts.null_count:
        _reject(ids, int(np.argmax(texts.is_null().to_numpy(
            zero_copy_only=False))), "the payload is null")
    joined = pc.binary_join(pa.ListArray.from_arrays(
        pa.array([0, len(texts)], type=pa.int32()), texts), "\n")[0]
    try:
        table = _read_json(joined.as_buffer())
        if table.num_rows == len(texts):
            return table
    except pa.ArrowInvalid:
        pass
    for i, text in enumerate(texts.to_pylist()):
        try:
            rows = _read_json(pa.py_buffer(text.encode())).num_rows
            what = f"{rows} JSON objects, not one"
        except pa.ArrowInvalid as e:
            rows, what = 0, str(e)
        if rows != 1:
            _reject(ids, i, what)
    raise AssertionError("every geom payload reads alone but not together")


def _read_json(buf: pa.Buffer) -> pa.Table:
    """Read in one block (an object may not straddle two) on this thread."""
    return pj.read_json(pa.BufferReader(buf), parse_options=_GEOM_PARSE,
                        read_options=pj.ReadOptions(
                            use_threads=False,
                            block_size=max(buf.size + 1, 1 << 16)))


def _reject(ids, i: int, what: str):
    doc = ids[i] if ids is not None else f"#{i}"
    raise ValueError(f"malformed geom payload of doc {doc}: {what}")


def parse_geom_payloads(texts, ids=None):
    """Parse a batch of geom-span payloads -> (positions of the kept
    payloads, (n, 2) origins, Meshes).  Payloads with < MIN_SURFACES_NUM
    surfaces are dropped, as in parse_geom_payload.

    ``texts`` is a list of str or an Arrow string array; ``ids`` (optional,
    indexable like ``texts``) names the docs in errors.  The payloads are
    read by one pyarrow.json call, and the flat tables are the list offsets
    and values it returns: no Python object is made per coordinate.  A
    payload is rejected with ValueError naming its doc when it is not one
    JSON object of the grammar above, lacks ``surfaces``, has a null in
    place of a surface, vertex or number, a vertex without exactly 3 numbers,
    an origin without exactly 2, or a number that is not finite.  Unlike
    ``json.loads``, the token ``-0`` reads as -0.0."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    elif not isinstance(texts, pa.Array):
        texts = pa.array(texts, type=pa.string())
    if not len(texts):
        return (np.zeros(0, dtype=np.int64), np.zeros((0, 2)),
                Meshes(np.zeros(0), [], []))
    table = _read_payloads(texts, ids)
    # one block, so one chunk: no copy (combine_chunks copies even one)
    origin, surfaces = (col.chunk(0) if col.num_chunks == 1
                        else col.combine_chunks()
                        for col in (table.column("origin"),
                                    table.column("surfaces")))
    surf = surfaces.flatten()
    verts = surf.flatten()
    coords = verts.flatten()
    xyz = coords.to_numpy(zero_copy_only=False)
    xy0 = origin.flatten().to_numpy(zero_copy_only=False)
    vlen = np.diff(np.asarray(verts.offsets))
    olen = origin.value_lengths().fill_null(2).to_numpy()   # null: [0, 0]
    null = [a.null_count for a in (surfaces, surf, verts, coords)]
    if any(null) or (vlen != 3).any() or (olen != 2).any() \
            or not np.isfinite(xyz).all() or not np.isfinite(xy0).all():
        _locate(surfaces, origin, ids)
    obj_surf = surfaces.value_lengths().to_numpy()
    surf_len = np.diff(np.asarray(surf.offsets))
    keep = obj_surf >= MIN_SURFACES_NUM
    if not keep.all():
        row_keep = np.repeat(keep, obj_surf)
        xyz = xyz.reshape(-1, 3)[np.repeat(row_keep, surf_len)]
        surf_len, obj_surf = surf_len[row_keep], obj_surf[keep]
    origins = np.zeros((len(keep), 2))
    origins[origin.is_valid().to_numpy(zero_copy_only=False)] = \
        xy0.reshape(-1, 2)
    return (np.flatnonzero(keep), origins[keep],
            Meshes(xyz, surf_len, obj_surf))


def _locate(surfaces: pa.ListArray, origin: pa.ListArray, ids):
    """Raise ValueError for the first payload that breaks the grammar."""
    for i, (o, s) in enumerate(zip(origin.to_pylist(), surfaces.to_pylist())):
        if s is None:
            _reject(ids, i, "no surfaces")
        if o is not None and (len(o) != 2 or None in o
                              or not np.isfinite(o).all()):
            _reject(ids, i, f"origin {o} is not 2 finite numbers")
        for surface in s:
            if surface is None:
                _reject(ids, i, "a surface is null")
            for v in surface:
                if v is None or len(v) != 3 or None in v \
                        or not np.isfinite(v).all():
                    _reject(ids, i, f"vertex {v} is not 3 finite numbers")
    raise AssertionError("no malformed geom payload found")


# ---------------------------------------------------------------------------
# Segment helpers over the flat tables
# ---------------------------------------------------------------------------

def _starts(counts: np.ndarray) -> np.ndarray:
    return np.cumsum(counts) - counts


def _padded(seg: np.ndarray, cols, nseg: int):
    """Segment-ordered flat columns (``seg`` non-decreasing) -> per-segment
    counts and (nseg, max count) zero-padded tables."""
    counts = np.bincount(seg, minlength=nseg)
    pos = np.arange(len(seg)) - np.repeat(_starts(counts), counts)
    out = []
    for col in cols:
        t = np.zeros((nseg, int(counts.max(initial=0))))
        t[seg, pos] = col
        out.append(t)
    return counts, out


def _seq_sums(values: np.ndarray, seg: np.ndarray, nseg: int) -> np.ndarray:
    """Per-segment ``acc = 0.0; acc += v`` in order (``seg`` non-decreasing):
    step j adds every segment's j-th term, so each sum runs left to right
    and the work and memory stay proportional to the terms."""
    counts = np.bincount(seg, minlength=nseg)
    starts = _starts(counts)
    order = np.argsort(-counts, kind="stable")
    # live[j]: how many segments have more than j terms (a prefix of order)
    live = np.searchsorted(-counts[order],
                           -np.arange(int(counts.max(initial=0))), side="left")
    acc = np.zeros(nseg)
    for j, k in enumerate(live.tolist()):
        idx = order[:k]
        acc[idx] += values[starts[idx] + j]
    return acc


def _first_true(mask: np.ndarray, seg: np.ndarray, nseg: int) -> np.ndarray:
    """Index of the first True of each segment (``seg`` non-decreasing), -1
    where a segment has none."""
    idx = np.flatnonzero(mask)
    s = seg[idx]
    head = np.ones(len(idx), dtype=bool)
    head[1:] = s[1:] != s[:-1]
    out = np.full(nseg, -1, dtype=np.int64)
    out[s[head]] = idx[head]
    return out


def _heads(*cols: np.ndarray) -> np.ndarray:
    """Mask of the rows of sorted columns that differ from the row before in
    some column: the first row of each run of equal rows."""
    new = np.ones(len(cols[0]), dtype=bool)
    np.not_equal(cols[0][1:], cols[0][:-1], out=new[1:])
    for c in cols[1:]:
        new[1:] |= c[1:] != c[:-1]
    return new


def _distinct(obj: np.ndarray, *cols: np.ndarray):
    """Rows of (obj, *cols) sorted by obj then cols, duplicates removed."""
    order = np.lexsort(cols[::-1] + (obj,))
    obj = obj[order]
    cols = tuple(c[order] for c in cols)
    new = _heads(obj, *cols)
    return (obj[new], *(c[new] for c in cols))


def _vertex_orders(obj: np.ndarray, U: np.ndarray):
    """The three orders of a unique vertex table (rows of U sorted by
    (obj, x, y, z), no two equal): order k sorts the rows by obj, then
    coordinate k, k + 1 and k + 2 (mod 3).  Order 0 is U's own; lexsort is
    stable, so sorting U by (obj, y, z) leaves ties in x order, and by
    (obj, z, x) in y order."""
    return (np.arange(len(obj)), np.lexsort((U[:, 2], U[:, 1], obj)),
            np.lexsort((U[:, 0], U[:, 2], obj)))


def _groups(counts: np.ndarray):
    """For each distinct count m > 0: (m, the objects with m rows, their
    (objects, m) row indices into the object-ordered flat table)."""
    starts = _starts(counts)
    for m in np.unique(counts).tolist():
        if m == 0:
            continue
        objs = np.flatnonzero(counts == m)
        yield m, objs, starts[objs][:, None] + np.arange(m)


# ---------------------------------------------------------------------------
# Fan area, fan volume and perimeters over the flat tables
# ---------------------------------------------------------------------------

def _fan(m: Meshes):
    """Per object: triangle-fan surface area of every (possibly non-planar)
    polygon, summed surface by surface (object_properties.py:124-143), and
    |sum of det(v0, vi, vi+1)| / 6 over all fans (object_properties.py:
    203-215), the numerator accumulated first and divided once."""
    ntri = np.maximum(m.surf_len - 2, 0)
    tri_surf = np.repeat(np.arange(len(ntri)), ntri)
    a = m.surf_start[tri_surf]
    b = a + 1 + np.arange(len(tri_surf)) - np.repeat(_starts(ntri), ntri)
    c = b + 1
    x0, y0, z0 = m.x[a], m.y[a], m.z[a]
    x1, y1, z1 = m.x[b], m.y[b], m.z[b]
    x2, y2, z2 = m.x[c], m.y[c], m.z[c]
    ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
    vx, vy, vz = x2 - x0, y2 - y0, z2 - z0
    cx = uy * vz - uz * vy
    cy = uz * vx - ux * vz
    cz = ux * vy - uy * vx
    tri_area = 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)
    det = (x0 * (y1 * z2 - z1 * y2)
           - y0 * (x1 * z2 - z1 * x2)
           + z0 * (x1 * y2 - y1 * x2))
    surf_area = _seq_sums(tri_area, tri_surf, len(ntri))
    area = _seq_sums(surf_area, m.surf_obj, m.n)
    volume = np.abs(_seq_sums(det, m.surf_obj[tri_surf], m.n)) / 6.0
    return area, volume


def _perimeters(m: Meshes, zmin: np.ndarray, zmax: np.ndarray) -> np.ndarray:
    """Per object: the closed-ring length of the first surface whose every
    vertex has z == zmin (exact comparison, object_properties.py:145-163);
    when that is 0 (or there is none), the first at zmax, floored at 1."""
    nsurf = len(m.surf_len)
    start = m.surf_start[m.row_surf]
    nxt = start + (np.arange(len(m.x)) - start + 1) % m.surf_len[m.row_surf]
    dx, dy, dz = m.x - m.x[nxt], m.y - m.y[nxt], m.z - m.z[nxt]
    ring = _seq_sums(np.sqrt(dx * dx + dy * dy + dz * dz), m.row_surf, nsurf)

    def at(zref):
        on = np.bincount(m.row_surf, weights=m.z == zref[m.row_obj],
                         minlength=nsurf)
        first = _first_true(on == m.surf_len, m.surf_obj, m.n)
        return np.where(first >= 0, ring[first], 0.0)

    per = at(zmin)
    return np.where(per == 0.0, np.maximum(at(zmax), 1.0), per)


# ---------------------------------------------------------------------------
# Convex hulls (numpy-only replacements for scipy.spatial.ConvexHull)
# ---------------------------------------------------------------------------

def _chains(px: np.ndarray, py: np.ndarray, c: np.ndarray):
    """Andrew's monotone chain on every row of padded (x, y)-sorted unique
    point tables at once (row i holds c[i] points), with strict turns
    (collinear points excluded).  Returns [(lower), (upper)] as (point-index
    table, chain length); a row's hull is lower[:-1] + upper[:-1], CCW from
    its lexicographically smallest point."""
    n, w = px.shape
    r = np.arange(n)
    chains = []
    for upper in (False, True):
        h = np.zeros((n, w + 1), dtype=np.int64)
        top = np.zeros(n, dtype=np.int64)
        for t in range(w):
            act = t < c
            j = np.where(act, c - 1 - t if upper else t, 0)
            qx, qy = px[r, j], py[r, j]
            while True:
                chk = act & (top >= 2)
                if not chk.any():
                    break
                o, a = h[r, np.maximum(top - 2, 0)], h[r, np.maximum(top - 1, 0)]
                ox, oy, ax, ay = px[r, o], py[r, o], px[r, a], py[r, a]
                pop = chk & ((ax - ox) * (qy - oy) - (ay - oy) * (qx - ox) <= 0)
                if not pop.any():
                    break
                top -= pop
            h[r, top] = np.where(act, j, h[r, top])
            top += act
        chains.append((h, top))
    return chains


def _hull_perimeters(obj: np.ndarray, x: np.ndarray, y: np.ndarray,
                     n: int) -> np.ndarray:
    """Perimeter of each object's 2D convex hull — scipy's 2D ``.area``
    quirk — over points sorted by (obj, x, y), such as rows of a unique
    vertex table; repeated points are dropped here, with no sort."""
    new = _heads(obj, x, y)
    obj, x, y = obj[new], x[new], y[new]
    c, (px, py) = _padded(obj, (x, y), n)
    r = np.arange(n)[:, None]
    edges = [np.zeros((n, 1))]
    for h, top in _chains(px, py, c):
        a, b = h[:, :-1], h[:, 1:]
        dx, dy = px[r, a] - px[r, b], py[r, a] - py[r, b]
        live = np.arange(a.shape[1]) < (top - 1)[:, None]
        edges.append(np.where(live, np.sqrt(dx * dx + dy * dy), 0.0))
    return np.cumsum(np.concatenate(edges, axis=1), axis=1)[:, -1]


def convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Monotone-chain hull of (n,2) points, CCW, strict turns (collinear
    points excluded).  Returns hull vertices in order."""
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts
    (lo, nlo), (up, nup) = _chains(pts[None, :, 0], pts[None, :, 1],
                                   np.array([len(pts)]))
    return pts[np.concatenate([lo[0, :nlo[0] - 1], up[0, :nup[0] - 1]])]


def hull_perimeter_2d(points: np.ndarray) -> float:
    """Perimeter of the 2D convex hull — scipy's 2D ``.area`` quirk."""
    x, y = points[:, 0], points[:, 1]
    order = np.lexsort((y, x))
    return float(_hull_perimeters(np.zeros(len(points), dtype=np.int64),
                                  x[order], y[order], 1)[0])


def hull_area_2d(points: np.ndarray) -> float:
    """Enclosed area of the 2D convex hull (shoelace; scipy's 2D ``.volume``)."""
    hull = convex_hull_2d(points)
    if len(hull) < 3:
        return 0.0
    acc = 0.0
    n = len(hull)
    for i in range(n):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % n]
        acc += float(x1 * y2 - x2 * y1)
    return abs(acc) / 2.0


def convex_hull_3d_volume(points: np.ndarray) -> float:
    """Volume of the 3D convex hull of (n, 3) points: the batch hull on a
    batch of one (see _hull_volumes).  Degenerate (rank < 3) inputs return
    0.0."""
    pts = np.unique(np.asarray(points, dtype=np.float64).reshape(-1, 3),
                    axis=0)
    orders = _vertex_orders(np.zeros(len(pts), dtype=np.int64), pts)
    return float(_hull_volumes(pts, np.array([len(pts)]), orders)[0][0])


def _quickhulls(P: np.ndarray, cnt: np.ndarray):
    """Quickhull on k objects in lockstep.  P (k, m, 3) holds each object's
    points, padded past its cnt real ones with repeats of its last point
    (a repeat never wins an argmax over the point it copies).

    One flat face table serves the whole batch: object, vertices a, b, c
    (flat indices into the k * m points), outward normal, offset and the
    face's far point.  Each round adds, for every object that has one, the
    far point of its first face with a point beyond HULL_TOL of the
    coordinate scale: the faces that point sees die, their directed edges
    cancel against their reverses in one sort of (object, edge) keys, and
    each edge left (the horizon) makes a new face with the point, wound the
    way the dead face ran along it.  Faces are oriented by this winding
    alone (the simplex's by the sign of its volume), so every edge of the
    surface stays matched by its reverse even where rounding makes a point
    see two patches that touch.  A round makes its point a hull vertex,
    and a hull vertex is never a far point again, so an object needs at
    most cnt - 4 rounds: the number of rounds (and of numpy calls) grows
    with the batch's longest hull, not with its faces.

    Tolerance calls near coplanar points can still bend the surface.  An
    object is rerun in exact rational arithmetic (P as Fractions, zero
    tolerance, where quickhull cannot go wrong) when a hull vertex is the
    farthest point beyond one of its faces, or when it still has an open
    face after cnt - 4 rounds; otherwise its surface is closed and every
    face has every point behind it, within the tolerance: the hull.  The
    exact run raises instead of returning a partial hull.

    Returns the hull volumes (signed determinants of the tetrahedra from
    the object's first point to each face, summed and divided by 6 once),
    the (k, m) mask of points within the tolerance of, or beyond, a
    non-horizontal hull face (the only points whose xy can be 2D hull
    vertices) and the face count of each hull.  An object whose points all
    lie within the tolerance of one plane has volume 0, every point in the
    mask and no faces."""
    k, m, _ = P.shape
    X, Y, Z = (np.ascontiguousarray(P[:, :, i]) for i in range(3))
    gx, gy, gz = X.ravel(), Y.ravel(), Z.ravel()
    r = np.arange(k)
    exact = P.dtype == object
    if exact:
        eps = np.full(k, Fraction(0), dtype=object)
    else:
        extent = (P.max(axis=1) - P.min(axis=1)).max(axis=1)
        eps = HULL_TOL * np.abs(P).max(axis=(1, 2)) * extent * extent
    # initial simplex: the x-extreme pair, then the points farthest from
    # their line and from the plane of the three; h is 6 x its signed
    # volume, and a simplex within the tolerance of flat means a flat object
    i0, i1 = X.argmin(axis=1), X.argmax(axis=1)
    dx, dy, dz = (C - C[r, i0][:, None] for C in (X, Y, Z))
    lx, ly, lz = (d[r, i1][:, None] for d in (dx, dy, dz))
    cx, cy, cz = dy * lz - dz * ly, dz * lx - dx * lz, dx * ly - dy * lx
    i2 = (cx * cx + cy * cy + cz * cz).argmax(axis=1)
    vx, vy, vz = (d[r, i2][:, None] for d in (dx, dy, dz))
    h = (dx * (ly * vz - lz * vy) + dy * (lz * vx - lx * vz)
         + dz * (lx * vy - ly * vx))
    i3 = np.abs(h).argmax(axis=1)
    h = h[r, i3]
    ok = np.abs(h) > eps

    def faces(fo, a, b, c):
        """New faces (a, b, c) of objects fo: normal (b - a) x (c - a),
        offset, signed distance of every point of the object and its far
        point.  Returns the open faces (a point beyond the tolerance) as
        rows (object, a, b, c, far point) and (normal, offset, tolerance).
        A closed face has every point behind it, so no later far point sees
        it: it is final, and goes to ``closed`` with the points near it if
        it is a side face."""
        ax, ay, az = gx[a], gy[a], gz[a]
        ux, uy, uz = gx[b] - ax, gy[b] - ay, gz[b] - az
        vx, vy, vz = gx[c] - ax, gy[c] - ay, gz[c] - az
        nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        off = ax * nx + ay * ny + az * nz
        # d = X nx + Y ny + Z nz - off, term by term in place
        d = np.take(X, fo, axis=0)
        d *= nx[:, None]
        t = np.take(Y, fo, axis=0)
        t *= ny[:, None]
        d += t
        np.take(Z, fo, axis=0, out=t)
        t *= nz[:, None]
        d += t
        d -= off[:, None]
        # padding repeats a real point and never wins the argmax over it; a
        # hull vertex that wins it, beyond the tolerance, means the surface
        # is not convex there: a tolerance call near coplanar points went
        # wrong
        j = d.argmax(axis=1)
        far_d = d[np.arange(len(j)), j]
        tol = eps[fo]
        bad[fo[added[fo, j] & (far_d > tol)]] = True
        F = np.array([fo, a, b, c, fo * m + j]).T
        shut = far_d <= tol
        side = shut & ((nx != 0.0) | (ny != 0.0))
        closed.append((F[shut, :4], fo[side], d[side] > -tol[side, None]))
        o = ~shut
        return F[o], np.array([nx, ny, nz, off, tol]).T[o]

    # the simplex's four faces, wound (by the sign of h) so that their
    # normals point outward
    closed = []
    bad = np.zeros(k, dtype=bool)
    s = np.column_stack([i0, np.where(h > 0, i1, i2), np.where(h > 0, i2, i1),
                         i3])[ok] + (np.flatnonzero(ok) * m)[:, None]
    added = np.zeros((k, m), dtype=bool)
    added.ravel()[s.ravel()] = True
    tri = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
    a, b, c = s[:, tri].reshape(-1, 3).T
    F, R = faces(np.repeat(np.flatnonzero(ok), 4), a, b, c)

    for _ in range(int(cnt.max()) - 4):
        if len(F) == 0:
            break
        # each object's first open face in table order
        n = len(F)
        first = np.full(k, n)
        np.minimum.at(first, F[:, 0], np.arange(n))
        objs = np.flatnonzero(first < n)
        far = np.zeros(k, dtype=np.int64)
        far[objs] = F[first[objs], 4]
        added.ravel()[far[objs]] = True
        p = far[F[:, 0]]
        seen = (gx[p] * R[:, 0] + gy[p] * R[:, 1] + gz[p] * R[:, 2]
                - R[:, 3] > R[:, 4])
        # directed edges a-b, b-c, c-a of the seen faces; the horizon is
        # what is left when each cancels its reverse.  On a manifold that is
        # the edges a seen face shares with an unseen one; where rounding
        # makes a point see two patches that touch, it still leaves every
        # edge of the surface matched by its reverse
        V = F[seen]
        e0, e1 = V[:, 1:4].ravel(), V[:, [2, 3, 1]].ravel()
        key = np.minimum(e0, e1) * (k * m) + np.maximum(e0, e1)
        order = key.argsort()
        key = key[order]
        heads = _heads(key).nonzero()[0]
        net = np.add.reduceat((e0 < e1)[order] * 2 - 1, heads)
        lo, hi = np.divmod(key[heads], k * m)
        rep = np.abs(net)
        a = np.repeat(np.where(net > 0, lo, hi), rep)
        b = np.repeat(np.where(net > 0, hi, lo), rep)
        fo = a // m
        Fn, Rn = faces(fo, a, b, far[fo])
        keep = ~seen
        if bad.any():
            keep &= ~bad[F[:, 0]]
            Fn, Rn = Fn[~bad[Fn[:, 0]]], Rn[~bad[Fn[:, 0]]]
        F = np.concatenate([F[keep], Fn])
        R = np.concatenate([R[keep], Rn])
    bad[F[:, 0]] = True
    if exact and bad.any():
        raise RuntimeError(
            f"exact convex hulls of objects {np.flatnonzero(bad).tolist()} "
            f"of the batch are not closed and convex after "
            f"{int(cnt.max()) - 4} rounds, one per candidate")

    fo, a, b, c = np.concatenate([f for f, _, _ in closed]).T
    fine = ~bad[fo]
    fo, a, b, c = fo[fine], a[fine], b[fine], c[fine]
    # tetrahedra from each object's first point to its faces
    ax, ay, az, bx, by, bz, cx, cy, cz = (
        g[v] - g[fo * m] for v in (a, b, c) for g in (gx, gy, gz))
    det = (ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx)
           + az * (bx * cy - by * cx))
    if exact:
        volume = np.zeros(k, dtype=object)
        np.add.at(volume, fo, det)
        volume = np.array([float(abs(v) / 6) for v in volume])
    else:
        volume = np.abs(np.bincount(fo, weights=det, minlength=k)) / 6.0
    # OR the side faces' near-point rows per object
    fs = np.concatenate([f for _, f, _ in closed])
    order = np.argsort(fs, kind="stable")
    order = order[~bad[fs[order]]]
    near = ~ok[:, None].repeat(m, axis=1)
    if len(order):
        heads = _heads(fs[order]).nonzero()[0]
        near[fs[order][heads]] = np.logical_or.reduceat(
            np.concatenate([d for _, _, d in closed])[order], heads, axis=0)
    count = np.bincount(fo, minlength=k)
    if bad.any():
        again = np.flatnonzero(bad)
        exact_p = np.vectorize(Fraction, otypes=[object])(P[again])
        volume[again], near[again], count[again] = _quickhulls(exact_p,
                                                               cnt[again])
    return volume, near, count


def _axis_run_ends(obj: np.ndarray, X: np.ndarray, orders) -> np.ndarray:
    """Mask of the points that are not strictly between two other points of
    their object on an axis-parallel line (wall-split and panel-split
    vertices of building meshes).  Such points are never hull vertices, so
    the hulls may drop them.  X is a unique vertex table and ``orders`` its
    ``_vertex_orders``: the line along axis a holds a run of order a + 1,
    whose rows share obj and the other two coordinates and ascend in a."""
    keep = np.ones(len(obj), dtype=bool)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        order = orders[b]
        same = ~_heads(obj[order], X[order, b], X[order, c])[1:]
        inner = np.zeros(len(obj), dtype=bool)
        inner[1:-1] = same[:-1] & same[1:]
        keep[order[inner]] = False
    return keep


# 16 integer directions in counterclockwise order.  a x + b y is exact on
# the 1/64 grid, so there the extreme points come in the hull's angular
# order; elsewhere they are still points of the slice, which is all the
# filter below needs.
_SLICE_DIRS = np.array([(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2),
                        (-1, 1), (-2, 1), (-1, 0), (-2, -1), (-1, -1),
                        (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1)],
                       dtype=np.float64).T


def _slice_interior(obj: np.ndarray, x: np.ndarray, y: np.ndarray,
                    z: np.ndarray) -> np.ndarray:
    """Mask of the points, sorted by (obj, z, x, y) with no two equal, that
    lie strictly inside the hull of the other points of their (obj, z)
    slice (the Akl-Toussaint filter).  Each slice of at least 5 points
    takes its first extreme point in each of the 16 directions, and a
    point is inside when it is strictly left of every edge of that closed
    chain that joins two different points, by more than HULL_TOL of the
    slice's coordinate scale x extent (several times the rounding of the
    edge test).  Such a point winds the chain at least once, so it lies in
    the interior of the hull of other points of its slice: it is no 3D
    hull vertex, and its xy is strictly inside its object's 2D hull."""
    size = np.diff(np.flatnonzero(_heads(obj, z)), append=len(obj))
    big = size >= 5
    inside = np.zeros(len(obj), dtype=bool)
    if not big.any():
        return inside
    rows = np.flatnonzero(np.repeat(big, size))
    size = size[big]
    x, y = x[rows], y[rows]
    start = _starts(size)
    seg = np.repeat(np.arange(len(size)), size)
    v = x[:, None] * _SLICE_DIRS[0] + y[:, None] * _SLICE_DIRS[1]
    top = np.maximum.reduceat(v, start, axis=0)
    ext = np.minimum.reduceat(
        np.where(v == top[seg], np.arange(len(rows))[:, None], len(rows)),
        start, axis=0)
    nxt = np.roll(ext, -1, axis=1)
    ex, ey = x[ext], y[ext]
    dx, dy = x[nxt] - ex, y[nxt] - ey
    # max |coordinate| and extent from the axis directions 0, 4, 8 and 12
    scale = top[:, ::4].max(axis=1)
    extent = np.maximum(top[:, 0] + top[:, 8], top[:, 4] + top[:, 12])
    tol = (HULL_TOL * scale * extent)[seg, None]
    left = (dx[seg] * (y[:, None] - ey[seg])
            - dy[seg] * (x[:, None] - ex[seg]) > tol)
    left |= (ext == nxt)[seg]
    inside[rows[left.all(axis=1)]] = True
    return inside


def _hull_volumes(U: np.ndarray, nv: np.ndarray, orders):
    """3D hull volume of each object's unique vertices (rows of U sorted by
    (object, x, y, z), nv per object, ``orders`` their ``_vertex_orders``),
    and the mask of the rows that can be 2D hull vertices of their object's
    xy.  Points inside an axis-parallel run are dropped first (their xy lies
    exactly between, or on, two other points' xy), then the points strictly
    inside their (object, z) slice (``_slice_interior``, read in order 2);
    objects with at least 4 points left go through the lockstep quickhull,
    which also drops the points strictly inside every non-horizontal face.
    Objects with fewer points, or a degenerate hull, have volume 0.0 and
    keep all their points left."""
    n = len(nv)
    obj = np.repeat(np.arange(n), nv)
    keep = _axis_run_ends(obj, U, orders)
    o2 = orders[2][keep[orders[2]]]
    keep[o2[_slice_interior(obj[o2], *U[o2].T)]] = False
    rows = np.flatnonzero(keep)   # object-ordered
    cand = np.zeros(len(U), dtype=bool)
    cand[rows] = True
    vol = np.zeros(n)
    c = np.bincount(obj[rows], minlength=n)
    objs = np.flatnonzero(c >= 4)
    if len(objs):
        cnt = c[objs]
        pad = rows[_starts(c)[objs][:, None]
                   + np.minimum(np.arange(cnt.max()), cnt[:, None] - 1)]
        vol[objs], near, _ = _quickhulls(U[pad], cnt)
        cand[pad[~near]] = False
    return vol, cand


# ---------------------------------------------------------------------------
# Point in polygon (ray crossing) — north-rule operator
# ---------------------------------------------------------------------------

def points_in_polygon(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Vectorized even-odd ray-crossing test: are (px, py) strictly inside the
    simple polygon ``poly`` (m,2)?  Points exactly on an edge are
    implementation-defined (our corpora never place points on edges)."""
    inside = np.zeros(len(px), dtype=bool)
    m = len(poly)
    for i in range(m):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % m]
        cond = (y1 > py) != (y2 > py)
        if not cond.any():
            continue
        xin = (x2 - x1) * (py - y1) / (y2 - y1) + x1
        inside ^= cond & (px < xin)
    return inside


# ---------------------------------------------------------------------------
# The 25-property kernel
# ---------------------------------------------------------------------------

def _axis_stats(obj: np.ndarray, v: np.ndarray, order: np.ndarray, n: int):
    """Distinct values of one coordinate per object -> (min, max, count,
    np.std).  ``order`` sorts the rows by (obj, v), as a ``_vertex_orders``
    order does for its leading coordinate; each run of equal (obj, v) gives
    its first row's value, so the values reach ``np.std`` ascending.  A run
    holding both -0.0 and 0.0 may give either; the std, the extent and the
    equality tests downstream do not tell them apart."""
    obj, v = obj[order], v[order]
    new = _heads(obj, v)
    obj, v = obj[new], v[new]
    cnt = np.bincount(obj, minlength=n)
    start = _starts(cnt)
    last = np.maximum(start + cnt - 1, 0)
    std = np.zeros(n)
    for _, objs, rows in _groups(cnt):
        std[objs] = np.std(v[rows], axis=1)
    return v[np.minimum(start, last)], v[last], cnt, std


def _vertex_stats(U: np.ndarray, nv: np.ndarray):
    """Per object from its unique vertices: centroid, mean distance to it,
    elongation and the extents along the covariance eigenvectors (np.cov /
    np.linalg.eigh run stacked over the objects sharing a vertex count)."""
    n = len(nv)
    centroid, acd = np.zeros((n, 3)), np.zeros(n)
    elong, aligned = np.zeros(n), np.zeros((n, 3))
    for m, objs, rows in _groups(nv):
        V = U[rows]
        c = V.mean(axis=1)
        centroid[objs] = c
        acd[objs] = np.mean(np.sqrt(((V - c[:, None, :]) ** 2).sum(axis=2)),
                            axis=1)
        if m < 2:
            continue
        X = V.copy().transpose(0, 2, 1)   # np.cov(verts, rowvar=False)
        X -= X.mean(axis=2)[:, :, None]
        cov = X @ X.transpose(0, 2, 1)
        cov *= np.true_divide(1, m - 1)
        w, vec = np.linalg.eigh(cov)
        lo, hi = w.min(axis=1), w.max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            elong[objs] = np.where(lo > 0, np.sqrt(hi / lo), 0.0)
        al = V @ vec
        aligned[objs] = al.max(axis=1) - al.min(axis=1)
    return centroid, acd, elong, aligned


def _map(fn, *cols: np.ndarray) -> np.ndarray:
    return np.array([fn(*v) for v in zip(*(c.tolist() for c in cols))],
                    dtype=np.float64)


def batch_properties(meshes: Meshes, log_transform: bool = False):
    """All 25 reference properties for every object of a batch.  Returns
    ({name: (n,) float64}, (n, 3) centroid of each object's unique vertices).

    Mirrors object_properties.py:72-310; memoized base quantities (area,
    perimeter, volume) become plain arrays.  With ``log_transform`` every
    value v becomes log1p(v) (object_properties.py:64-66).
    """
    n = meshes.n
    if n == 0:
        return {p: np.zeros(0) for p in PROPERTY_NAMES}, np.zeros((0, 3))
    uo, ux, uy, uz = _distinct(meshes.row_obj, meshes.x, meshes.y, meshes.z)
    U = np.column_stack([ux, uy, uz])
    nv = np.bincount(uo, minlength=n)
    orders = _vertex_orders(uo, U)
    (xlo, xhi, _, xsd), (ylo, yhi, _, ysd), (zlo, zhi, nz, zsd) = (
        _axis_stats(uo, v, order, n) for v, order in zip((ux, uy, uz), orders))

    area, volume = _fan(meshes)
    area = np.maximum(area, 1.0)
    perimeter = _perimeters(meshes, zlo, zhi)
    ch_vol, cand = _hull_volumes(U, nv, orders)
    ch_per = _hull_perimeters(uo[cand], ux[cand], uy[cand], n)
    centroid, acd, elongation, aligned = _vertex_stats(U, nv)

    with np.errstate(divide="ignore", invalid="ignore"):
        props = {
            "bounding_box_width": xhi - xlo,
            "bounding_box_length": yhi - ylo,
            "area": area,
            "perimeter": perimeter,
            "perimeter_ind": 2.0 * np.sqrt(math.pi * area) / perimeter,
            "volume": volume,
            "convex_hull_area": ch_per,
            "convex_hull_volume": ch_vol,
            "ave_centroid_distance": acd,
            "height_diff": zhi - zlo,
            "num_floors": nz.astype(np.float64),
            "axes_symmetry": np.mean(np.column_stack([xsd, ysd, zsd]), axis=1),
            "compactness_2d": np.where(ch_per != 0, area / ch_per, 0.0),
            "compactness_3d": np.where(ch_vol != 0, volume / ch_vol, 0.0),
            "density": area / perimeter,
            "elongation": elongation,
            "shape_ind": perimeter / np.sqrt(4 * math.pi * area),
            "hemisphericality": 3.0 * math.sqrt(2.0) * math.sqrt(math.pi)
            * volume / (area * np.sqrt(area)),
            # area is floored at 1, so log(area) is 0 for every mesh whose
            # surface is at most one square unit and the ratio is undefined
            # (the reference divides by zero): such a mesh gets 0.0, the
            # same value as a mesh without volume, instead of failing its
            # batch or carrying an infinity into the ratio features
            "fractality": _map(
                lambda v, a: 1.0 - math.log(v) / (1.5 * math.log(a))
                if v > 0 and a > 1.0 else 0.0, volume, area),
            "cubeness": 6.0 * _map(lambda v: math.pow(v, 2.0 / 3.0), volume)
            / area,
            "circumference": 4.0 * math.pi * _map(
                lambda v: math.pow(v, 2.0 / 3.0),
                3.0 * volume / (4.0 * math.pi)) / area,
            "aligned_bounding_box_width": aligned[:, 0],
            "aligned_bounding_box_length": aligned[:, 1],
            "aligned_bounding_box_height": aligned[:, 2],
            "num_vertices": nv.astype(np.float64),
        }
    if log_transform:
        # contiguous inputs: see the module docstring
        props = {k: np.log1p(np.ascontiguousarray(v)) for k, v in props.items()}
    return props, centroid


def _one(surfaces: list[np.ndarray]) -> Meshes:
    return Meshes.from_surfaces([surfaces])


def compute_properties(surfaces: list[np.ndarray],
                       log_transform: bool = False) -> dict:
    """All 25 reference properties for one object: the batch kernel on a
    batch of one.  Returns {name: float}."""
    props, _ = batch_properties(_one(surfaces), log_transform)
    return {k: float(v[0]) for k, v in props.items()}


def mesh_area(surfaces: list[np.ndarray]) -> float:
    """Triangle-fan surface area of one mesh (see _fan)."""
    return float(_fan(_one(surfaces))[0][0])


def mesh_volume(surfaces: list[np.ndarray]) -> float:
    """|Σ det(v0, vi, vi+1)| / 6 over the triangle fans of one mesh (see
    _fan)."""
    return float(_fan(_one(surfaces))[1][0])


def mesh_perimeter(surfaces: list[np.ndarray], z_values: np.ndarray) -> float:
    """Perimeter of one mesh at min(z_values), else max(z_values) (see
    _perimeters)."""
    return float(_perimeters(_one(surfaces), np.array([np.min(z_values)]),
                             np.array([np.max(z_values)]))[0])

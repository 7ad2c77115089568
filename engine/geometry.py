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
one object at a time: ``Meshes`` holds every surface vertex of the batch in
one flat float64 table with surface and object offsets, vertex dedup is one
lexsort over (object, x, y, z), and every property is a vectorized pass over
the flat tables — segment reductions, one flat triangle-fan table, stacked
``np.cov``/``np.linalg.eigh``, a batched monotone chain for the 2D hull and a
batched facet enumeration for small 3D hulls (quickhull above
``HULL_BATCH_MAX_VERTICES``).  ``compute_properties`` is the same kernel on
a batch of one.

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
* a hull volume is a sum of exact dyadic determinants, so any triangulation
  of the hull's facets gives the same double.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

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

# Objects with at most this many hull candidates (unique vertices left after
# _axis_run_ends) get their 3D hull volume from the batched facet enumeration
# (_small_hull_volumes, O(v^4) per object but vectorized over the batch);
# larger ones from quickhull.  Set at the measured per-object crossover on
# one core: on dense-generator prisms the enumeration took 0.50 ms against
# quickhull's 0.56 ms at 25 candidates, 0.88 against 0.84 ms at 27.
HULL_BATCH_MAX_VERTICES = 26

# Hull predicates treat a signed distance within this fraction of the
# coordinate scale (max |coordinate| x extent^2 for a facet distance,
# extent^2 for an in-plane one) as zero.  On the 1/64 grid of the corpora a
# nonzero distance is at least 64^-3, far above it, so dyadic inputs are
# decided exactly.
HULL_TOL = 16.0 * np.finfo(np.float64).eps
# Elements per (objects, points, triples) temporary of the facet enumeration:
# 2 MB of float64 stays cache-resident (larger chunks measured slower).
HULL_CHUNK = 1 << 18


def parse_geom_payload(text: str):
    """Parse a geom-span JSON payload -> (origin ndarray(2,), surfaces list of
    ndarray(n,3)).  Returns None if the payload has < MIN_SURFACES_NUM surfaces
    (the reference drops those objects, pipelines.py:144-145)."""
    obj = json.loads(text)
    surfaces = obj["surfaces"]
    if len(surfaces) < MIN_SURFACES_NUM:
        return None
    origin = np.asarray(obj.get("origin", [0.0, 0.0]), dtype=np.float64)
    return origin, [np.asarray(s, dtype=np.float64) for s in surfaces]


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
        of [x, y, z] vertices (parsed JSON lists or (n, 3) arrays).  Each
        object is flattened as soon as it is drawn."""
        flat = itertools.chain.from_iterable
        coords, surf_len, obj_surf = [np.zeros(0)], [], []
        for surfaces in objects:
            lens = [len(s) for s in surfaces]
            surf_len.extend(lens)
            obj_surf.append(len(lens))
            coords.append(np.fromiter(flat(flat(surfaces)), dtype=np.float64,
                                      count=3 * sum(lens)))
        return cls(np.concatenate(coords), surf_len, obj_surf)


def parse_geom_payloads(texts):
    """Parse a batch of geom-span payloads -> (positions of the kept
    payloads, (n, 2) origins, Meshes).  Payloads with < MIN_SURFACES_NUM
    surfaces are dropped, as in parse_geom_payload.  Payloads are parsed
    one at a time as the flat table is built, so the parsed JSON trees never
    pile up for the garbage collector to scan."""
    keep, origins = [], []

    def kept():
        for i, text in enumerate(texts):
            obj = json.loads(text)
            if len(obj["surfaces"]) < MIN_SURFACES_NUM:
                continue
            keep.append(i)
            origins.append(obj.get("origin", [0.0, 0.0]))
            yield obj["surfaces"]

    meshes = Meshes.from_surfaces(kept())
    return (np.asarray(keep, dtype=np.int64),
            np.asarray(origins, dtype=np.float64).reshape(-1, 2), meshes)


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


def _distinct(obj: np.ndarray, *cols: np.ndarray):
    """Rows of (obj, *cols) sorted by obj then cols, duplicates removed."""
    order = np.lexsort(cols[::-1] + (obj,))
    obj = obj[order]
    cols = tuple(c[order] for c in cols)
    new = np.ones(len(obj), dtype=bool)
    new[1:] = obj[1:] != obj[:-1]
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return (obj[new], *(c[new] for c in cols))


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
    quirk — over the object-ordered points (obj, x, y)."""
    obj, x, y = _distinct(obj, x, y)
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
    return float(_hull_perimeters(np.zeros(len(points), dtype=np.int64),
                                  points[:, 0], points[:, 1], 1)[0])


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


def convex_hull_3d_volume(points: np.ndarray,
                          assume_unique: bool = False) -> float:
    """Volume of the 3D convex hull via incremental quickhull (pure numpy).

    Signed tetra determinants are accumulated and divided by 6 once at the
    end (exact for dyadic inputs).  Degenerate (rank<3) inputs return 0.0.
    ``assume_unique``: skip the defensive np.unique when the caller already
    deduplicated.
    """
    faces = _quickhull_3d(points, assume_unique=assume_unique)
    if faces is None:
        return 0.0
    acc = 0.0
    for (a, b, c) in faces:
        acc += (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
    return abs(acc) / 6.0


def _quickhull_3d(points: np.ndarray, assume_unique: bool = False):
    """Incremental convex hull; returns list of outward-oriented triangles
    (as vertex-coordinate triples) or None when degenerate.  Face-local
    arithmetic is scalar Python: quickhull only runs on objects above
    HULL_BATCH_MAX_VERTICES, one object at a time.  A point counts as
    outside a face only beyond HULL_TOL of the coordinate scale, both when
    picking the next far point and when collecting the faces it sees:
    rounding noise on a near-coplanar point must not pick it."""
    pts = np.asarray(points, dtype=np.float64)
    if not assume_unique:
        pts = np.unique(pts, axis=0)
    n = len(pts)
    if n < 4:
        return None
    # initial simplex: extreme point pairs, then farthest from line / plane
    i0 = int(np.argmin(pts[:, 0]))
    i1 = int(np.argmax(pts[:, 0]))
    if i0 == i1:
        i1 = int(np.argmax(pts[:, 1]))
        if i0 == i1:
            return None
    d = pts - pts[i0]
    lx, ly, lz = (float(pts[i1, 0] - pts[i0, 0]),
                  float(pts[i1, 1] - pts[i0, 1]),
                  float(pts[i1, 2] - pts[i0, 2]))
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    # manual cross/norm: same elementwise formulas as np.cross (bit-equal),
    # without the moveaxis wrapper overhead on these tiny arrays
    cx = dy * lz - dz * ly
    cy = dz * lx - dx * lz
    cz = dx * ly - dy * lx
    dist2 = cx * cx + cy * cy + cz * cz
    i2 = int(np.argmax(dist2))
    if dist2[i2] <= 0.0:
        return None
    ux, uy, uz = lx, ly, lz
    vx, vy, vz = (float(pts[i2, 0] - pts[i0, 0]),
                  float(pts[i2, 1] - pts[i0, 1]),
                  float(pts[i2, 2] - pts[i0, 2]))
    nx0 = uy * vz - uz * vy
    ny0 = uz * vx - ux * vz
    nz0 = ux * vy - uy * vx
    h = dx * nx0 + dy * ny0 + dz * nz0
    i3 = int(np.argmax(np.abs(h)))
    if h[i3] == 0.0:
        return None
    extent = float((pts.max(axis=0) - pts.min(axis=0)).max())
    eps = HULL_TOL * float(np.abs(pts).max()) * extent * extent

    P = pts.tolist()
    px, py, pz = (np.ascontiguousarray(pts[:, 0]),
                  np.ascontiguousarray(pts[:, 1]),
                  np.ascontiguousarray(pts[:, 2]))
    ix_, iy_, iz_ = ((P[i0][0] + P[i1][0] + P[i2][0] + P[i3][0]) / 4.0,
                     (P[i0][1] + P[i1][1] + P[i2][1] + P[i3][1]) / 4.0,
                     (P[i0][2] + P[i1][2] + P[i2][2] + P[i3][2]) / 4.0)
    faces: list[tuple] = []     # oriented index triples
    d_cols: list[np.ndarray] = []  # signed distance of every point to each face
    face_far: list[tuple] = []  # cached (argmax idx, max value) per face —
    #                             a face's distance column never changes, so
    #                             the far-point scan needn't re-argmax it
    alive: list[bool] = []

    def add_face(a, b, c):
        ax, ay, az = P[a]
        bx, by, bz = P[b]
        cx, cy, cz = P[c]
        ux, uy, uz = bx - ax, by - ay, bz - az
        vx, vy, vz = cx - ax, cy - ay, cz - az
        nx = uy * vz - uz * vy
        ny = uz * vx - ux * vz
        nz = ux * vy - uy * vx
        if (ix_ - ax) * nx + (iy_ - ay) * ny + (iz_ - az) * nz > 0:
            b, c = c, b
            nx, ny, nz = -nx, -ny, -nz
        faces.append((a, b, c))
        col = (px * nx + py * ny + pz * nz
               - (ax * nx + ay * ny + az * nz))
        d_cols.append(col)
        j = int(np.argmax(col))
        face_far.append((j, float(col[j])))
        alive.append(True)
        return len(faces) - 1

    for tri in ((i0, i1, i2), (i0, i1, i3), (i0, i2, i3), (i1, i2, i3)):
        add_face(*tri)

    guard = 0
    while True:
        guard += 1
        if guard > 8 * n:  # safety net on degenerate inputs
            break
        far, fsel = -1, -1
        for fi in range(len(faces)):
            if not alive[fi]:
                continue
            j, mx = face_far[fi]
            if mx > eps:
                far, fsel = j, fi
                break
        if fsel < 0:
            break
        # faces visible from `far` + their horizon edges
        edge_count: dict[tuple, int] = {}
        for gi in range(len(faces)):
            if not alive[gi] or d_cols[gi][far] <= eps:
                continue
            alive[gi] = False
            g = faces[gi]
            for e in ((g[0], g[1]), (g[1], g[2]), (g[2], g[0])):
                key = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
                got = edge_count.get(key)
                edge_count[key] = (got[0] + 1, e) if got else (1, e)
        for cnt, (ea, eb) in edge_count.values():
            if cnt == 1:
                add_face(ea, eb, far)

    return [(P[f[0]], P[f[1]], P[f[2]]) for fi, f in enumerate(faces)
            if alive[fi]]


def _small_hull_volumes(P: np.ndarray, I: np.ndarray, J: np.ndarray,
                        K: np.ndarray) -> np.ndarray:
    """3D hull volumes of k objects with m unique points each, P (k, m, 3);
    (I, J, K) enumerate the point triples i < j < k.

    Every triple is tested as a supporting plane: all points on one side,
    not all on it.  The points on such a plane are one hull facet, and the
    facet is triangulated as the fan from its lowest-index point i over its
    boundary edges (j, k): pairs with every facet point on one side of line
    jk and none strictly between j and k.  Each fan triangle appears as
    exactly one triple, so summing the outward-oriented determinants of
    those triples gives 6 x volume."""
    k, m, _ = P.shape
    X, Y, Z = (np.ascontiguousarray(P[:, :, i]) for i in range(3))
    ax, ay, az = X[:, I], Y[:, I], Z[:, I]
    ux, uy, uz = X[:, J] - ax, Y[:, J] - ay, Z[:, J] - az
    vx, vy, vz = X[:, K] - ax, Y[:, K] - ay, Z[:, K] - az
    # plane (n, -n.a) of every triple, (k, 4, triples); d[k, point, triple]
    # = signed distance of the point, scaled by |n|
    plane = np.empty((k, 4, len(I)))
    nx, ny, nz = plane[:, 0], plane[:, 1], plane[:, 2]
    np.subtract(uy * vz, uz * vy, out=nx)
    np.subtract(uz * vx, ux * vz, out=ny)
    np.subtract(ux * vy, uy * vx, out=nz)
    plane[:, 3] = -(nx * ax + ny * ay + nz * az)
    d = np.concatenate([P, np.ones((k, m, 1))], axis=2) @ plane
    extent = (P.max(axis=1) - P.min(axis=1)).max(axis=1)
    tol2 = HULL_TOL * extent * extent
    tol3 = (tol2 * np.abs(P).max(axis=(1, 2)))[:, None]
    above, below = d.max(axis=1) > tol3, d.min(axis=1) < -tol3
    ko, to = np.nonzero(above ^ below)
    # the facet's points; i must be the lowest-index one (i itself is on it)
    on = np.abs(d[ko, :, to]) <= tol3[ko]
    low = on.argmax(axis=1) == I[to]
    ko, to, on = ko[low], to[low], on[low]
    i, j, kk = I[to], J[to], K[to]
    # boundary-edge test inside the facet's plane: o is the component of
    # e x w along the normal's dominant axis (a 2D cross product after
    # projecting that axis away)
    e = np.stack([C[ko, kk] - C[ko, j] for C in (X, Y, Z)])          # (3, F)
    w = np.stack([C[ko] - C[ko, j][:, None] for C in (X, Y, Z)])  # (3, F, m)
    r = np.arange(len(ko))
    dom = np.abs(plane[ko, :3, to]).argmax(axis=1)
    a1, a2 = (dom + 1) % 3, (dom + 2) % 3
    o = e[a1, r][:, None] * w[a2, r] - e[a2, r][:, None] * w[a1, r]
    t2 = tol2[ko][:, None]
    one_side = ~(on & (o > t2)).any(axis=1) | ~(on & (o < -t2)).any(axis=1)
    along = (w * e[:, :, None]).sum(axis=0)
    ee = (e * e).sum(axis=0)[:, None]
    between = on & (np.abs(o) <= t2) & (along > t2) & (along < ee - t2)
    edge = one_side & ~between.any(axis=1)
    x0, y0, z0 = X[ko, i], Y[ko, i], Z[ko, i]
    x1, y1, z1 = X[ko, j], Y[ko, j], Z[ko, j]
    x2, y2, z2 = X[ko, kk], Y[ko, kk], Z[ko, kk]
    det = (x0 * (y1 * z2 - z1 * y2)
           - y0 * (x1 * z2 - z1 * x2)
           + z0 * (x1 * y2 - y1 * x2))
    # a facet's normal points outward when every other point is below it
    det = np.where(edge, np.where(below[ko, to], det, -det), 0.0)
    return np.abs(np.bincount(ko, weights=det, minlength=k)) / 6.0


def _axis_run_ends(obj: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Mask of the points that are not strictly between two other points of
    their object on an axis-parallel line (wall-split and panel-split
    vertices of building meshes).  Such points are never hull vertices, so
    the hull enumeration may drop them."""
    keep = np.ones(len(obj), dtype=bool)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        order = np.lexsort((X[:, a], X[:, c], X[:, b], obj))
        o, pb, pc = obj[order], X[order, b], X[order, c]
        same = (o[1:] == o[:-1]) & (pb[1:] == pb[:-1]) & (pc[1:] == pc[:-1])
        inner = np.zeros(len(obj), dtype=bool)
        inner[1:-1] = same[:-1] & same[1:]
        keep[order[inner]] = False
    return keep


def _hull_volumes(U: np.ndarray, nv: np.ndarray) -> np.ndarray:
    """3D hull volume of each object's unique vertices (object-ordered
    rows of U, nv per object); fewer than 4 points give 0.0.  Points inside
    an axis-parallel run are dropped first; objects left with more than
    HULL_BATCH_MAX_VERTICES points go through quickhull one by one, the
    others through the facet enumeration in batches of equal point
    count."""
    n = len(nv)
    vol = np.zeros(n)
    obj = np.repeat(np.arange(n), nv)
    rows = np.flatnonzero(nv[obj] >= 4)
    rows = rows[_axis_run_ends(obj[rows], U[rows])]   # object-ordered
    for m, objs, rr in _groups(np.bincount(obj[rows], minlength=n)):
        if m < 4:
            continue
        pts = U[rows[rr]]
        if m > HULL_BATCH_MAX_VERTICES:
            for o, p in zip(objs.tolist(), pts):
                vol[o] = convex_hull_3d_volume(p, assume_unique=True)
            continue
        triples = np.array(list(itertools.combinations(range(m), 3)),
                           dtype=np.int64).T
        # bounds the (objects, m, triples) temporaries
        step = max(1, HULL_CHUNK // (m * triples.shape[1]))
        for s in range(0, len(objs), step):
            vol[objs[s:s + step]] = _small_hull_volumes(pts[s:s + step],
                                                        *triples)
    return vol


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

def _axis_stats(obj: np.ndarray, v: np.ndarray, n: int):
    """Distinct values of one coordinate per object -> (min, max, count,
    np.std)."""
    obj, v = _distinct(obj, v)
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
    (xlo, xhi, _, xsd), (ylo, yhi, _, ysd), (zlo, zhi, nz, zsd) = (
        _axis_stats(uo, v, n) for v in (ux, uy, uz))

    area, volume = _fan(meshes)
    area = np.maximum(area, 1.0)
    perimeter = _perimeters(meshes, zlo, zhi)
    ch_per = _hull_perimeters(uo, ux, uy, n)
    ch_vol = _hull_volumes(U, nv)
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
            "fractality": _map(
                lambda v, a: 1.0 - math.log(v) / (1.5 * math.log(a))
                if v > 0 else 0.0, volume, area),
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
        props = {k: np.log1p(v) for k, v in props.items()}
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

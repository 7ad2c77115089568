"""Dense-mesh building generator for the ``apply_dense`` workload.

Each building is a prism over a star-shaped footprint of 24-96 corners with a
cone roof rising from the eaves to an apex above the footprint's centre.  The
walls are split at half height, so a mesh has 3n+1 unique vertices (73-289)
and 3n+1 surfaces: one floor polygon, 2n wall quads and n roof triangles.
Coordinates are multiples of 1/64 around a local origin, so, as in
``datagen.buildings``, the footprint area and the prism volume are exact.

Every document is a pure function of (seed, key): the same seed gives the
same corpus whatever order the keys are generated in.
"""

from __future__ import annotations

import math

import numpy as np

from datagen.buildings import INDEX_EXTRA_OFFSET, mesh_to_span_text

MIN_CORNERS, MAX_CORNERS = 24, 96
MATCHED_SHARE = 0.85


def _rng(seed: int, key: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, key, salt])


def _grid(v: np.ndarray) -> np.ndarray:
    """Round to 1/64 m: exact in binary floating point."""
    return np.round(v * 64.0) / 64.0


def building(seed: int, key: int) -> dict:
    """Generative parameters of one building: footprint corners (CCW), wall
    height, roof rise, world origin and whether the index side holds a
    perturbed copy."""
    r = _rng(seed, key, 0)
    n = int(r.integers(MIN_CORNERS, MAX_CORNERS + 1))
    # on the grid too: an off-grid apex makes the engine's quickhull build
    # thousands of faces for some footprints (see perfbench/NOTES.md)
    radius = float(_grid(np.array(r.uniform(8.0, 24.0))))
    ang = 2.0 * math.pi * (np.arange(n) + r.uniform(-0.2, 0.2, n)) / n
    # odd corners are recessed (reflex), like the setbacks of a real
    # footprint, so only about half the corners lie on the convex hull
    rad = radius * np.where(np.arange(n) % 2 == 0, r.uniform(0.9, 1.0, n),
                            r.uniform(0.6, 0.75, n))
    # centre at (radius, radius) keeps every local coordinate non-negative
    xy = _grid(np.column_stack([radius + rad * np.cos(ang),
                                radius + rad * np.sin(ang)]))
    return {
        "corners": xy,
        "centre": (radius, radius),
        "h": float(_grid(np.array(r.uniform(4.0, 30.0)))),
        "rise": float(_grid(np.array(r.uniform(1.0, 8.0)))),
        "x0": float(r.integers(0, 99000)),
        "y0": float(r.integers(0, 99000)),
        "matched": bool(r.random() < MATCHED_SHARE),
        "scale": float(r.choice([-1.0, 0.0, 1.0])) / 64.0,
        "dh": float(r.choice([-1.0, 0.0, 1.0])) / 8.0,
    }


def index_copy(b: dict) -> dict:
    """The index side's view of a matched building: footprint scaled about
    its centre by 1 +- 1/64 and the wall height moved by +-1/8."""
    cx, cy = b["centre"]
    c = np.array([cx, cy])
    return {**b, "corners": _grid(c + (b["corners"] - c) * (1.0 + b["scale"])),
            "h": b["h"] + b["dh"]}


def build_mesh(corners: np.ndarray, centre: tuple, h: float,
               rise: float) -> list:
    """Outward-oriented surfaces of the prism-plus-cone solid.  The floor is
    the first surface, so the perimeter kernel measures the footprint."""
    n = len(corners)
    pts = [(float(x), float(y)) for x, y in corners]
    zm = h / 2.0
    apex = [float(centre[0]), float(centre[1]), h + rise]
    surfaces = [[[x, y, 0.0] for x, y in reversed(pts)]]  # normal -z
    for i in range(n):
        (ax, ay), (bx, by) = pts[i], pts[(i + 1) % n]
        for z0, z1 in ((0.0, zm), (zm, h)):
            surfaces.append([[ax, ay, z0], [bx, by, z0],
                             [bx, by, z1], [ax, ay, z1]])
    for i in range(n):
        (ax, ay), (bx, by) = pts[i], pts[(i + 1) % n]
        surfaces.append([[ax, ay, h], [bx, by, h], apex])
    return surfaces


def footprint_area(corners: np.ndarray) -> float:
    x, y = corners[:, 0], corners[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))


def expected_volume(corners: np.ndarray, h: float, rise: float) -> float:
    """Closed form: prism (area x h) plus cone (area x rise / 3)."""
    a = footprint_area(corners)
    return a * h + a * rise / 3.0


def doc_spans(seed: int, key: int, source: str) -> list[dict]:
    """Span sequence of one document.  Keys at or above INDEX_EXTRA_OFFSET
    are the unmatched index extras and get their own building."""
    b = building(seed, key)
    if source == "index" and key < INDEX_EXTRA_OFFSET:
        b = index_copy(b)
    mesh = build_mesh(b["corners"], b["centre"], b["h"], b["rise"])
    return [
        {"kind": "text", "media_ref": "", "offset": 0,
         "text": f"building {key} corners {len(b['corners'])}"},
        {"kind": "geom", "media_ref": "", "offset": 1,
         "text": mesh_to_span_text(mesh, b["x0"], b["y0"])},
    ]

"""Unit tests for the geometric kernels against closed-form oracles
(SURVEY.md §5 test plan item (a))."""

import math

import numpy as np
import pytest

from datagen.buildings import (build_mesh, building_params, doc_spans,
                               expected_volume)
from engine.geometry import (_quickhull_3d, compute_properties,
                             convex_hull_3d_volume, hull_area_2d,
                             hull_perimeter_2d, mesh_area, mesh_perimeter,
                             mesh_volume, parse_geom_payload,
                             points_in_polygon, unique_vertices)


def _mesh(w, l, h, roof=0, rise=2.0):
    return [np.asarray(s, dtype=float) for s in build_mesh(w, l, h, roof, rise)]


def test_unit_cube_closed_forms():
    m = _mesh(1.0, 1.0, 1.0)
    assert mesh_volume(m) == 1.0
    assert mesh_area(m) == 6.0
    verts = unique_vertices(m)
    assert convex_hull_3d_volume(verts) == 1.0
    assert hull_perimeter_2d(verts[:, :2]) == 4.0
    assert hull_area_2d(verts[:, :2]) == 1.0


def test_flat_box_properties_exact():
    w, l, h = 4.0, 6.0, 3.0
    p = compute_properties(_mesh(w, l, h))
    assert p["bounding_box_width"] == w
    assert p["bounding_box_length"] == l
    assert p["area"] == 2 * w * l + 2 * w * h + 2 * l * h
    assert p["perimeter"] == 2 * w + l  # first floor panel (w x l/2)
    assert p["volume"] == w * l * h
    assert p["convex_hull_area"] == 2 * (w + l)  # scipy 2D .area quirk = perimeter
    assert p["convex_hull_volume"] == w * l * h
    assert p["height_diff"] == h
    assert p["num_floors"] == 3.0  # z in {0, h/2, h} (wall split)
    assert p["num_vertices"] == 16.0
    assert p["compactness_3d"] == 1.0
    assert p["elongation"] == pytest.approx(2.0)  # max dim 6 / min dim 3
    # aligned bbox extents = dims sorted ascending by eigenvalue
    assert p["aligned_bounding_box_width"] == pytest.approx(3.0)
    assert p["aligned_bounding_box_length"] == pytest.approx(4.0)
    assert p["aligned_bounding_box_height"] == pytest.approx(6.0)


@pytest.mark.parametrize("roof", range(5))
def test_all_roofs_volume_matches_closed_form_and_hull(roof):
    w, l, h, rise = 7.5, 5.25, 4.125, 2.375
    m = _mesh(w, l, h, roof, rise)
    assert len(m) >= 10  # reference min_surfaces_num filter survives
    v = mesh_volume(m)
    assert v == pytest.approx(expected_volume(w, l, h, roof, rise), abs=1e-9)
    # all roof solids are convex -> mesh volume == hull volume
    hv = convex_hull_3d_volume(unique_vertices(m))
    assert hv == pytest.approx(v, abs=1e-9)


def test_param_sweep_volume():
    for k in range(0, 300, 7):
        p = building_params(k)
        m = _mesh(p["w"], p["l"], p["h"], p["roof"], p["rise"])
        assert mesh_volume(m) == pytest.approx(
            expected_volume(p["w"], p["l"], p["h"], p["roof"], p["rise"]), rel=1e-12)


def test_hull_3d_ignores_interior_and_coplanar_points():
    cube = np.array([[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)],
                    dtype=float)
    extra = np.vstack([cube, [[1, 1, 1], [1, 1, 0], [2, 1, 1]]])
    assert convex_hull_3d_volume(extra) == 8.0


def test_quickhull_off_grid_apex_stays_small():
    """A dense prism-and-cone mesh whose apex sits off the 1/64 grid: near-
    coplanar rounding noise must not be taken for a far point (it once
    built 2708 faces on this mesh).  A triangulated hull of n points has at
    most 2n - 4 faces, and its volume lies between the (non-convex) mesh
    volume and the bounding-box volume."""
    from perfbench import dense
    b = dense.building(0, 41)
    cx, cy = b["centre"]
    m = [np.asarray(s, dtype=float) for s in dense.build_mesh(
        b["corners"], (cx + 0.1, cy + 1 / 3), b["h"], b["rise"] + 0.01)]
    verts = unique_vertices(m)
    faces = _quickhull_3d(verts, assume_unique=True)
    assert len(faces) <= 2 * len(verts) - 4
    hv = convex_hull_3d_volume(verts)
    assert mesh_volume(m) <= hv <= np.prod(verts.max(0) - verts.min(0))


@pytest.mark.parametrize("angle", [0.15, 0.65])
@pytest.mark.parametrize("roof", range(5))
def test_hull_volume_of_rotated_building(roof, angle):
    """Rotated off the axes, a convex building's hull volume is still its
    mesh volume, through quickhull and through the batched enumeration
    (compute_properties); near-coplanar rounding noise once made quickhull
    over-estimate the gabled one by 28%."""
    c, s = math.cos(angle), math.sin(angle)
    m = [np.asarray([[c * x - s * y, s * x + c * y, z] for x, y, z in f])
         for f in _mesh(7.5, 5.25, 4.125, roof, 2.375)]
    v = mesh_volume(m)
    assert convex_hull_3d_volume(unique_vertices(m)) == pytest.approx(v, rel=1e-12)
    assert compute_properties(m)["convex_hull_volume"] == pytest.approx(v, rel=1e-12)


def test_hull_3d_degenerate_returns_zero():
    plane = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    assert convex_hull_3d_volume(plane) == 0.0


def test_perimeter_fallback_to_max_z():
    # a mesh whose min-z "surface" vertices never share one z -> fallback path
    tilted = [np.array([[0, 0, 0], [1, 0, 0.5], [1, 1, 0.5], [0, 1, 0]]),
              *[np.array([[0, 0, 2], [1, 0, 2], [1, 1, 2], [0, 1, 2]])] * 10]
    zs = np.unique(np.concatenate(tilted)[:, 2])
    per = mesh_perimeter(tilted, zs)
    assert per == 4.0  # max-z square of side 1


def test_points_in_polygon():
    poly = np.array([[0, 0], [4, 0], [4, 3], [2, 5], [0, 3]], dtype=float)
    px = np.array([1.0, 2.0, 3.9, 5.0, -1.0, 2.0])
    py = np.array([1.0, 4.5, 0.1, 1.0, 1.0, 10.0])
    got = points_in_polygon(px, py, poly)
    assert got.tolist() == [True, True, True, False, False, False]


def test_geom_payload_roundtrip_and_min_surface_filter():
    spans = doc_spans(12, "cands")
    geom = next(s for s in spans if s["kind"] == "geom")
    parsed = parse_geom_payload(geom["text"])
    assert parsed is not None
    origin, surfaces = parsed
    p = building_params(12)
    assert origin[0] == p["x0"] and origin[1] == p["y0"]
    assert mesh_volume(surfaces) == pytest.approx(
        expected_volume(p["w"], p["l"], p["h"], p["roof"], p["rise"]), rel=1e-12)
    assert parse_geom_payload('{"origin":[0,0],"surfaces":[[[0,0,0],[1,0,0],[0,1,0]]]}') is None

"""Unit tests for the geometric kernels against closed-form oracles
(SURVEY.md §5 test plan item (a))."""

import math

import numpy as np
import pytest

from datagen.buildings import (build_mesh, building_params, doc_spans,
                               expected_volume)
from engine.geometry import (Meshes, _hull_volumes, _quickhulls,
                             _vertex_orders, batch_properties,
                             compute_properties,
                             convex_hull_3d_volume, hull_area_2d,
                             hull_perimeter_2d, mesh_area, mesh_perimeter,
                             mesh_volume, parse_geom_payload,
                             points_in_polygon, unique_vertices)
from perfbench import dense


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
    b = dense.building(0, 41)
    cx, cy = b["centre"]
    m = [np.asarray(s, dtype=float) for s in dense.build_mesh(
        b["corners"], (cx + 0.1, cy + 1 / 3), b["h"], b["rise"] + 0.01)]
    verts = unique_vertices(m)
    _, _, faces = _quickhulls(verts[None], np.array([len(verts)]))
    assert 4 <= faces[0] <= 2 * len(verts) - 4
    hv = convex_hull_3d_volume(verts)
    assert mesh_volume(m) <= hv <= np.prod(verts.max(0) - verts.min(0))


def test_quickhull_sliver_vertex_is_not_added_again():
    """A hull vertex on a sliver face can round out past the tolerance (it
    once ran the rounds past the one-per-candidate bound).  The hull is the
    pyramid from (323, 0, 0) over a 2.75 m2 polygon in the x = 0 plane (plus
    a 1.2e-7 sliver)."""
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 3.0], [0.0, 1.0, 0.0],
                    [0.0, 0.5, 0.0], [323.0, 0.0, 0.0],
                    [1.192092896e-07, 2.0, 0.0]])
    assert convex_hull_3d_volume(pts) == pytest.approx(2.75 * 323 / 3,
                                                       rel=1e-9)


def test_hull_of_a_cloud_flat_within_the_tolerance_is_zero():
    """Five points within 1.2e-16 of the plane x = 1 (bounding box 3.3e-13
    m3).  Their hull volume was 999.17 when the simplex's faces were turned
    by a side test that rounding decides on a flat simplex."""
    pts = np.array([[1.0, 1.0, 999.9999999999999],
                    [0.9999999999999999, 0.5, 1.0000000000000002],
                    [1.0, 3.0, 0.5], [1.0, 1e-10, 1.0000000000000002],
                    [1.0, 3.0, 3.0]])
    assert convex_hull_3d_volume(pts) == 0.0


# 27 points at the corners, edges and faces of a 1000 m cube, many within
# 1e-10 of a face plane (0, 5e-324, 1e-300, 1.19e-7, 999.9999999999999):
# tolerance calls near those planes leave the float hull bent (a hull vertex
# beyond a face, or a seen patch that is not a disk), so these objects take
# the exact rerun.  The volumes are the exact rational hull volumes (facet
# enumeration over Fractions) rounded to double.
NEAR_COPLANAR_CLOUDS = [
    ([[0.5, 1.192092896e-07, 500.0], [6.103515625e-05, 6.103515625e-05,
      999.9999999999999], [1.192092896e-07, 1.0, 1.0000000000000002],
      [1.192092896e-07, 999.9999999999999, 1e-10], [999.9999999999999,
      1e-10, 6.103515625e-05], [2.2250738585072014e-308, 1.0, 1000.0],
      [3.0, 323.0, 999.9999999999999], [0.0, 1000.0, 1e-10],
      [0.3333333333333333, 5e-324, 5e-324], [1.0000000000000002,
      2.2250738585072014e-308, 500.0], [323.0, 500.0, 323.0],
      [323.0, 999.9999999999999, 3.0], [1.0, 1000.0, 1000.0],
      [0.5, 2.0, 0.5], [1.0, 1.192092896e-07, 0.5], [999.9999999999999,
      1000.0, 323.0], [2.0, 1.0, 1.0000000000000002], [5e-324, 1e-300, 0.1],
      [323.0, 0.1, 0.5], [323.0, 999.9999999999999, 5e-324],
      [3.0, 0.3333333333333333, 2.0], [500.0, 1e-300,
      2.2250738585072014e-308], [999.9999999999999, 3.0, 0.0],
      [5e-324, 5e-324, 1000.0], [6.103515625e-05, 0.9999999999999999,
      6.103515625e-05], [999.9999999999999, 999.9999999999999,
      1.192092896e-07], [0.1, 0.9999999999999999, 0.0]],
     607915074.0601537),
    ([[500.0, 3.0, 999.9999999999999], [107.24336243159172, 6.103515625e-05,
      1.0], [539.9798792389886, 736.3891127620972, 921.2795428571604],
      [1e-10, 1e-10, 2.2250738585072014e-308], [1.0000000000000002,
      0.3333333333333333, 3.0], [0.3333333333333333, 195.74643552712666,
      500.0], [1000.0, 2.0, 6.103515625e-05], [70.27763479544124,
      1.192092896e-07, 0.9999999999999999], [173.90575965933675, 1e-300,
      288.4339868720153], [323.0, 761.2114689522211, 3.0],
      [996.1201961799757, 6.103515625e-05, 323.0], [1e-10, 0.1, 0.0],
      [0.1, 0.0, 2.2250738585072014e-308], [0.3333333333333333,
      729.7508214565368, 6.103515625e-05], [1e-10, 0.9999999999999999,
      999.9999999999999], [1.192092896e-07, 3.0, 3.0], [1.0000000000000002,
      5e-324, 0.9999999999999999], [999.9999999999999, 970.5856457229002,
      2.0], [0.9999999999999999, 1000.0, 1000.0], [1.0000000000000002,
      1e-300, 1e-300], [1.0000000000000002, 183.30664732446755,
      689.5489421803504], [2.2250738585072014e-308, 5e-324, 1.192092896e-07],
      [988.077647449151, 1.192092896e-07, 1e-300], [112.81243597317004,
      2.2250738585072014e-308, 0.0], [1000.0, 1000.0, 365.62181886818854],
      [1.192092896e-07, 934.0247757338648, 5e-324], [999.9999999999999,
      1.192092896e-07, 1000.0]],
     892946697.7592751),
]


@pytest.mark.parametrize("cloud,volume", NEAR_COPLANAR_CLOUDS)
def test_near_coplanar_cloud_takes_the_exact_rerun(cloud, volume,
                                                   monkeypatch):
    import engine.geometry as geo
    reruns = []
    lockstep = geo._quickhulls

    def spy(P, cnt):
        reruns.append(P.dtype == object)
        return lockstep(P, cnt)

    monkeypatch.setattr(geo, "_quickhulls", spy)
    assert convex_hull_3d_volume(np.array(cloud)) == volume
    assert reruns == [False, True]


def _batch_hull_volumes(objs):
    """_hull_volumes over a batch of objects, each given as its unique
    vertices sorted by (x, y, z)."""
    U = np.concatenate(objs)
    nv = np.array([len(o) for o in objs])
    return _hull_volumes(U, nv,
                         _vertex_orders(np.repeat(np.arange(len(nv)), nv), U))


def test_quickhull_raises_past_its_round_bound():
    """A hull still open after cnt - 4 rounds, one per candidate, is rerun
    exactly, and the exact run raises naming the object instead of
    returning a partial hull.  A cube passed with cnt 5 gets one round;
    its hull needs four."""
    cube = np.array([[x, y, z] for x in (0, 2) for y in (0, 2)
                     for z in (0, 2)], dtype=float)
    with pytest.raises(RuntimeError, match=r"objects \[0\]"):
        _quickhulls(cube[None], np.array([5]))
    assert _quickhulls(cube[None], np.array([8]))[0].tolist() == [8.0]


def test_exact_rerun_leaves_the_rest_of_the_batch():
    """An object sent to the exact rerun gets its exact volume; the other
    objects of its batch keep the volumes they have alone."""
    cloud, volume = NEAR_COPLANAR_CLOUDS[0]
    objs = [unique_vertices(_mesh(4.0, 6.0, 3.0)),
            np.unique(np.array(cloud), axis=0),
            unique_vertices(_mesh(7.5, 5.25, 4.125, 2))]
    got, _ = _batch_hull_volumes(objs)
    assert got.tolist() == [72.0, volume, convex_hull_3d_volume(objs[2])]


def _hull_area(corners):
    """Area of the convex hull of 1/64-grid corners: Andrew's chain and the
    shoelace in exact integer arithmetic."""
    pts = sorted({(int(x * 64), int(y * 64)) for x, y in corners})

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = half(pts) + half(pts[::-1])
    twice = sum(x0 * y1 - x1 * y0
                for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]))
    return twice / 2 / 64 / 64


def test_dense_hull_volume_closed_form():
    """The hull of a prism-and-cone mesh is the prism over the footprint's
    hull plus the cone over it: area x h + area x rise / 3."""
    meshes, want = [], []
    for key in range(30):
        b = dense.building(0, key)
        meshes.append(dense.build_mesh(b["corners"], b["centre"], b["h"],
                                       b["rise"]))
        area = _hull_area(b["corners"])
        want.append(area * b["h"] + area * b["rise"] / 3.0)
    got = batch_properties(Meshes.from_surfaces(meshes))[0]
    assert got["convex_hull_volume"] == pytest.approx(want, rel=1e-12)


def test_degenerate_hulls_in_a_mixed_batch():
    """Degenerate objects (< 4 points, collinear, coplanar, duplicates of
    3 points) get 0.0 next to normal objects, whose volumes are those they
    have alone."""
    cube = [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    t = np.arange(6.0)[:, None] / 4
    tri = [[0, 0, 0], [1, 0, 0], [0, 1, 1]]
    normal = [cube, unique_vertices(_mesh(4.0, 6.0, 3.0)),
              unique_vertices(_mesh(7.5, 5.25, 4.125, 2)),
              cube + [[1, 1, 1], [2, 1, 1]] * 3]
    plane = [[x, y, 0.5 * x + 0.25 * y] for x in range(3) for y in range(3)]
    degenerate = [tri, [1.0, 2.0, 3.0] + t * [0.5, 0.25, 2.0], plane, tri * 8]
    objs = [np.unique(np.asarray(o, dtype=float), axis=0)
            for pair in zip(normal, degenerate) for o in pair]
    got, _ = _batch_hull_volumes(objs)
    assert got[1::2].tolist() == [0.0] * 4
    assert got[::2].tolist() == [convex_hull_3d_volume(o) for o in normal]
    assert got[0] == got[6] == 8.0 and got[2] == 72.0


def test_fractality_of_a_sub_unit_mesh_is_zero():
    """Area is floored at 1, so a mesh with at most one square unit of
    surface and positive volume has log(area) == 0 and an undefined
    fractality: it gets 0.0, and the meshes batched with it keep the rows
    they have alone."""
    normal = [_mesh(4.0, 6.0, 3.0), _mesh(7.5, 5.25, 4.125, 2)]
    tiny = _mesh(0.25, 0.25, 0.25)
    props = batch_properties(Meshes.from_surfaces(
        [normal[0], tiny, normal[1]]))[0]
    assert props["area"][1] == 1.0 and props["volume"][1] == 0.25 ** 3
    assert props["fractality"][1] == 0.0
    for row, m in ((0, normal[0]), (2, normal[1])):
        alone = compute_properties(m)
        assert {k: v[row] for k, v in props.items()} == alone


def _dense_289():
    """A 96-corner dense mesh: 289 unique vertices, 193 hull candidates."""
    key = next(k for k in range(1000)
               if len(dense.building(0, k)["corners"]) == 96)
    b = dense.building(0, key)
    return dense.build_mesh(b["corners"], b["centre"], b["h"], b["rise"])


def test_hull_independent_of_a_large_neighbour():
    """A rotated (non-dyadic) building's hull volume and 2D hull perimeter
    are the same bits alone and next to a 289-vertex dense mesh, which
    widens the padded point table and lengthens the rounds."""
    c, s = math.cos(0.65), math.sin(0.65)
    rotated = [np.asarray([[c * x - s * y, s * x + c * y, z] for x, y, z in f])
               for f in _mesh(7.5, 5.25, 4.125, 3, 2.375)]
    big = _dense_289()
    assert len(unique_vertices([np.asarray(f) for f in big])) == 289
    alone = compute_properties(rotated)
    both = batch_properties(Meshes.from_surfaces([big, rotated]))[0]
    for name in ("convex_hull_volume", "convex_hull_area"):
        assert both[name][1] == alone[name]


@pytest.mark.parametrize("angle", [0.15, 0.65])
@pytest.mark.parametrize("roof", range(5))
def test_hull_volume_of_rotated_building(roof, angle):
    """Rotated off the axes, a convex building's hull volume is still its
    mesh volume, alone and through the batch kernel (compute_properties);
    near-coplanar rounding noise once made quickhull over-estimate the
    gabled one by 28%."""
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

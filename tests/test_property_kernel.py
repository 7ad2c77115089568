"""The batch property kernel (engine.properties._props_batch over
engine.geometry.batch_properties): bit-exact golden digests of the full
property table, the 3D hull against a facet-enumeration oracle, the 2D hull
over its candidates only, independence from batch composition, and the
empty-output cases."""

import hashlib
import itertools
import math
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import engine.geometry as geo
from datagen.buildings import INDEX_EXTRA_OFFSET
from engine.corpus import _gen_batch
from engine.geometry import PROPERTY_NAMES
from engine.properties import _props_batch
from engine.schema import SPAN_TYPE
from perfbench import dense, inputs

SF = "/root/testdata/sf0.001"

# sha256 of the property table (doc_id, source, x0, y0, cx, cy and the 25
# property columns), recorded with the one-object-at-a-time kernel this
# batch kernel replaced; (corpus, log_transform) -> digest
GOLDEN = {
    ("sf0.001", False):
        "2b6bee46c5112d4eccefd9c4549a169bd52d0ce315e90dd42f407541b0b79d1d",
    ("sf0.001", True):
        "23edcb54d875708a96d056ca04c98086f65888d36b7e706fcb787de1548667e2",
    ("dense-s0", False):
        "66cfe775e1c2cbe1dc23a9a6c4727d6f4971cd2f8a6cc724ac0ab5bf29f7fbd3",
    ("dense-s0", True):
        "06319ef59b88bea27cb6da559f37ec025f0bea29f8e4909c526da754e0e91791",
    ("dense-s1", False):
        "c60332d00a9f3c4b51aabd84050e1ba1f7c7ede0e9bb27ac95449ac9238aae52",
    ("dense-s1", True):
        "51d1e4c2bb2968a1b2a0492f620d6c84d603b5e96b85c12a63df2d3a0771e5b1",
}


def _docs_table(ids, sources, spans) -> pa.Table:
    return pa.table({"doc_id": pa.array(ids, type=pa.string()),
                     "source": pa.array(sources, type=pa.string()),
                     "spans": pa.array(spans, type=pa.list_(SPAN_TYPE))})


def _sf_docs() -> pa.Table:
    """The sf0.001 corpus (all five roof types), generated in-process."""
    return _gen_batch(pq.read_table(f"{SF}/documents.parquet",
                                    columns=["doc_id"]))


def _dense_docs(seed: int, n_cands: int = 120) -> pa.Table:
    """The apply_dense corpus layout: per key a cand, its matched index copy
    and one unmatched index extra (73-289-vertex meshes)."""
    ids, sources, spans = [], [], []
    for k in inputs.dense_keys(seed, n_cands).tolist():
        docs = [(k, "cands")]
        if dense.building(seed, k)["matched"]:
            docs.append((k, "index"))
        docs.append((k + INDEX_EXTRA_OFFSET, "index"))
        for key, source in docs:
            ids.append(str(key))
            sources.append(source)
            spans.append(dense.doc_spans(seed, key, source))
    return _docs_table(ids, sources, spans)


def _props(docs: pa.Table, log_transform: bool = False,
           batch_rows: int = 256) -> pa.Table:
    return pa.concat_tables([_props_batch(pa.Table.from_batches([b]),
                                          log_transform)
                             for b in docs.to_batches(batch_rows)])


def _digest(t: pa.Table) -> str:
    h = hashlib.sha256()
    for c in ("doc_id", "source"):
        h.update("\n".join(t.column(c).to_pylist()).encode())
    for c in ("x0", "y0", "cx", "cy", *PROPERTY_NAMES):
        h.update(np.ascontiguousarray(t.column(c).to_numpy(),
                                      dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def corpora():
    return {"sf0.001": _sf_docs(), "dense-s0": _dense_docs(0),
            "dense-s1": _dense_docs(1)}


@pytest.mark.parametrize("name,log_transform", sorted(GOLDEN))
def test_property_table_matches_golden_digest(corpora, name, log_transform):
    assert _digest(_props(corpora[name], log_transform)) == \
        GOLDEN[(name, log_transform)]


def _small_dense_meshes() -> list:
    """Dense-generator prisms with 4-8 corners: 13-25 unique vertices, few
    enough for the facet-enumeration oracle."""
    objs = []
    for key in range(40):
        b = dense.building(3, key)
        n = 4 + key % 5
        r = np.random.default_rng(key)
        ang = 2 * np.pi * (np.arange(n) + r.uniform(-0.2, 0.2, n)) / n
        rad = 10 * np.where(np.arange(n) % 2 == 0, r.uniform(0.9, 1, n),
                            r.uniform(0.6, 0.75, n))
        xy = np.round((10 + np.column_stack([rad * np.cos(ang),
                                             rad * np.sin(ang)])) * 64) / 64
        objs.append(dense.build_mesh(xy, (10.0, 10.0), b["h"], b["rise"]))
    return objs


def _facet_volumes(P: np.ndarray) -> np.ndarray:
    """Oracle: 3D hull volumes of k objects with m unique points each, P
    (k, m, 3), by facet enumeration.

    Every point triple i < j < k is tested as a supporting plane: all
    points on one side, not all on it.  The points on such a plane are one
    hull facet, and the facet is triangulated as the fan from its
    lowest-index point i over its boundary edges (j, k): pairs with every
    facet point on one side of line jk and none strictly between j and k.
    Each fan triangle appears as exactly one triple, so summing the
    outward-oriented determinants of those triples gives 6 x volume."""
    k, m, _ = P.shape
    I, J, K = np.array(list(itertools.combinations(range(m), 3))).T
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
    tol2 = geo.HULL_TOL * extent * extent
    tol3 = (tol2 * np.abs(P).max(axis=(1, 2)))[:, None]
    above, below = d.max(axis=1) > tol3, d.min(axis=1) < -tol3
    ko, to = np.nonzero(above ^ below)
    # the facet's points; i must be the lowest-index one (i itself is on it)
    on = np.abs(d[ko, :, to]) <= tol3[ko]
    low = on.argmax(axis=1) == I[to]
    ko, to, on = ko[low], to[low], on[low]
    i, j, kk = I[to], J[to], K[to]
    # boundary-edge test inside the facet's plane: o is the component of
    # e x w along the normal's dominant axis
    e = np.stack([C[ko, kk] - C[ko, j] for C in (X, Y, Z)])
    w = np.stack([C[ko] - C[ko, j][:, None] for C in (X, Y, Z)])
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


def _oracle_volumes(objects: list) -> np.ndarray:
    """_facet_volumes over objects of any size, in runs of equal size."""
    sizes = np.array([len(o) for o in objects])
    vol = np.zeros(len(objects))
    for m in np.unique(sizes[sizes >= 4]).tolist():
        idx = np.flatnonzero(sizes == m)
        for s in range(0, len(idx), 32):
            part = idx[s:s + 32]
            vol[part] = _facet_volumes(np.stack([objects[i] for i in part]))
    return vol


def _geom_texts(docs: pa.Table) -> list:
    return [next(s["text"] for s in spans if s["kind"] == "geom")
            for spans in docs.column("spans").to_pylist()]


def test_lockstep_hull_matches_facet_enumeration(corpora):
    """The lockstep quickhull gives the facet enumeration's volumes, bit
    for bit, on sf0.001 (all five roofs) and on 4-8-corner dense prisms,
    whose hulls hold every mesh."""
    docs = corpora["sf0.001"]
    parsed = [geo.parse_geom_payload(t) for t in _geom_texts(docs)]
    objs = [geo.unique_vertices(p[1]) for p in parsed if p is not None]
    got = _props(docs).column("convex_hull_volume").to_numpy()
    assert np.array_equal(got, _oracle_volumes(objs))
    meshes = _small_dense_meshes()
    props = geo.batch_properties(geo.Meshes.from_surfaces(meshes))[0]
    objs = [geo.unique_vertices([np.asarray(s, dtype=float) for s in mesh])
            for mesh in meshes]
    assert np.array_equal(props["convex_hull_volume"], _oracle_volumes(objs))
    assert (props["convex_hull_volume"] >= props["volume"]).all()


def test_corpora_never_take_the_exact_hull_rerun(corpora, monkeypatch):
    """The float lockstep hull finishes every object of the corpora (and of
    the non-dyadic clouds) itself: the exact rerun over Fractions, for
    hulls that rounding bent, is never needed there."""
    lockstep = geo._quickhulls
    exact = []

    def spy(P, cnt):
        exact.append(P.dtype == object)
        return lockstep(P, cnt)

    monkeypatch.setattr(geo, "_quickhulls", spy)
    for docs in corpora.values():
        _props(docs)
    geo.batch_properties(geo.Meshes.from_surfaces(_ulps_clouds()))
    assert exact and not any(exact)


def _ulps_clouds() -> list:
    """Non-dyadic point clouds: prisms over random convex polygons with
    interior points, and points a few ulps inside and outside one edge of
    the footprint at several heights.  Each cloud is one "surface"."""
    objs = []
    for key in range(40):
        r = np.random.default_rng(key)
        n = 5 + key % 6
        ang = np.sort(r.uniform(0.0, 2 * np.pi, n))
        xy = (r.uniform(3.0, 30.0) * np.column_stack([np.cos(ang),
                                                      np.sin(ang)])
              + r.uniform(-100.0, 100.0, 2))
        h = r.uniform(2.0, 20.0)
        inner = r.dirichlet(np.ones(n), 20) @ xy
        edge = xy[0] + r.uniform(0.1, 0.9, (12, 1)) * (xy[1] - xy[0])
        edge += r.integers(-4, 5, edge.shape) * np.spacing(np.abs(edge))
        objs.append([np.vstack([
            np.column_stack([xy, np.zeros(n)]),
            np.column_stack([xy, np.full(n, h)]),
            np.column_stack([inner, r.uniform(0.0, h, 20)]),
            np.column_stack([edge, r.uniform(0.0, h, 12)])])])
    return objs


@pytest.mark.parametrize("name", ["sf0.001", "dense-s0", "dense-s1", "ulps"])
def test_hull_perimeter_same_on_2d_candidates(corpora, name):
    """The 2D hull chain gives the same bits over the hull's 2D candidates
    as over every unique point, and the candidates leave points out."""
    if name == "ulps":
        meshes = geo.Meshes.from_surfaces(_ulps_clouds())
    else:
        meshes = geo.parse_geom_payloads(_geom_texts(corpora[name]))[2]
    uo, ux, uy, uz = geo._distinct(meshes.row_obj, meshes.x, meshes.y,
                                   meshes.z)
    n = meshes.n
    U = np.column_stack([ux, uy, uz])
    _, cand = geo._hull_volumes(U, np.bincount(uo, minlength=n),
                                geo._vertex_orders(uo, U))
    assert not cand.all()
    assert np.array_equal(geo._hull_perimeters(uo, ux, uy, n),
                          geo._hull_perimeters(uo[cand], ux[cand], uy[cand],
                                               n))


def test_properties_independent_of_batch_composition(corpora):
    """An object's row does not depend on the other objects in its batch:
    cands computed among index docs, alone, or one per batch agree."""
    docs = corpora["sf0.001"].slice(0, 300)
    cands = docs.filter(pc.equal(docs.column("source"), "cands"))
    mixed = _props(docs, batch_rows=300)
    mixed = mixed.filter(pc.equal(mixed.column("source"), "cands"))
    assert mixed.equals(_props(cands, batch_rows=300))
    assert mixed.equals(_props(cands, batch_rows=1))


def test_compute_properties_is_the_batch_kernel(corpora):
    docs = corpora["sf0.001"].slice(0, 5)
    table = _props(docs)
    for i, spans in enumerate(docs.column("spans").to_pylist()):
        text = next(s["text"] for s in spans if s["kind"] == "geom")
        _, surfaces = geo.parse_geom_payload(text)
        one = geo.compute_properties(surfaces)
        assert one == {p: table.column(p)[i].as_py() for p in PROPERTY_NAMES}


def _few_surfaces_docs() -> pa.Table:
    tri = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    text = json.dumps({"origin": [5.0, 7.0], "surfaces": [tri] * 3})
    span = {"kind": "geom", "text": text, "media_ref": "", "offset": 0}
    return _docs_table(["1", "2"], ["cands", "index"], [[span], [span]])


@pytest.mark.parametrize("case", ["empty", "few_surfaces"])
def test_empty_batches_keep_the_schema(corpora, case):
    docs = corpora["sf0.001"].slice(0, 0) if case == "empty" \
        else _few_surfaces_docs()
    out = _props_batch(docs, False)
    assert out.num_rows == 0
    assert out.schema == _props(corpora["sf0.001"].slice(0, 3)).schema


class _NoMatch:
    def predict(self, feats):
        return np.zeros(len(feats), dtype=np.int8)


def test_fused_batch_runs_one_kernel_call(corpora, monkeypatch):
    """A fused apply batch of the apply_dense shape (half the corpus: ~60
    cands, over 1 MiB of geom payload) runs the property kernel once."""
    import engine.properties as props
    from engine.pipeline import fused_apply_batch
    docs = corpora["dense-s1"]
    batch = docs.slice(0, (docs.num_rows + 1) // 2)
    cands = batch.filter(pc.equal(batch.column("source"), "cands"))
    payload = sum(len(t) for t in _geom_texts(cands))
    assert 1 << 20 < payload <= props.KERNEL_CHUNK_BYTES
    calls = []
    kernel = props.batch_properties
    monkeypatch.setattr(props, "batch_properties",
                        lambda m, log: (calls.append(m.n), kernel(m, log))[1])
    state = {"feat_idx": [0], "med": np.zeros(1), "iqr": np.ones(1),
             "idx_scaled": np.zeros((3, 1), dtype=np.float32),
             "idx_num": np.arange(3), "k": 1,
             "idx_props": np.ones((3, len(PROPERTY_NAMES))),
             "matcher": _NoMatch()}
    out = fused_apply_batch(batch, state, np.zeros(3, dtype=np.float32),
                            False)
    assert calls == [cands.num_rows] and out.num_rows == cands.num_rows


# The sort-per-use helpers the shared vertex orders replaced: each sorts its
# own input.  They take the new signatures and ignore the orders.
def _sorted_distinct(obj, *cols):
    order = np.lexsort(cols[::-1] + (obj,))
    obj = obj[order]
    cols = tuple(c[order] for c in cols)
    new = np.ones(len(obj), dtype=bool)
    new[1:] = obj[1:] != obj[:-1]
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    return (obj[new], *(c[new] for c in cols))


def _sorting_axis_stats(obj, v, order, n):
    obj, v = _sorted_distinct(obj, v)
    cnt = np.bincount(obj, minlength=n)
    start = geo._starts(cnt)
    last = np.maximum(start + cnt - 1, 0)
    std = np.zeros(n)
    for _, objs, rows in geo._groups(cnt):
        std[objs] = np.std(v[rows], axis=1)
    return v[np.minimum(start, last)], v[last], cnt, std


def _sorting_axis_run_ends(obj, X, orders):
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


def _sorting_hull_perimeters(obj, x, y, n):
    obj, x, y = _sorted_distinct(obj, x, y)
    c, (px, py) = geo._padded(obj, (x, y), n)
    r = np.arange(n)[:, None]
    edges = [np.zeros((n, 1))]
    for h, top in geo._chains(px, py, c):
        a, b = h[:, :-1], h[:, 1:]
        dx, dy = px[r, a] - px[r, b], py[r, a] - py[r, b]
        live = np.arange(a.shape[1]) < (top - 1)[:, None]
        edges.append(np.where(live, np.sqrt(dx * dx + dy * dy), 0.0))
    return np.cumsum(np.concatenate(edges, axis=1), axis=1)[:, -1]


def _planted_clouds() -> list:
    """Objects built to stress the shared orders: quarter-grid clouds full
    of axis-parallel runs along x, y and z, whose surfaces repeat vertices
    and whose zeros are -0.0 or 0.0 at random; lines along each axis (2 run
    ends); flat objects (one constant coordinate, signed zeros included);
    objects of 1-3 vertices; and a box whose edges carry split points."""
    rng = np.random.default_rng(11)

    def signed_zeros(p):
        p = p.copy()
        zero = p == 0
        p[zero] = rng.choice([-0.0, 0.0], zero.sum())
        return p

    def surfaces(p, k):
        """k surfaces of 3-6 vertices drawn from p, so vertices repeat."""
        return [p[rng.integers(0, len(p), rng.integers(3, 7))]
                for _ in range(k)]

    objs = []
    for key in range(30):
        p = signed_zeros(rng.integers(-2, 3, (rng.integers(4, 40), 3)) * 0.25)
        objs.append(surfaces(p, 12))
    for axis in range(3):
        line = np.zeros((6, 3))
        line[:, axis] = np.arange(6) - 2.0
        objs.append(surfaces(signed_zeros(line), 10))
        flat = rng.integers(-2, 3, (16, 3)) * 0.5
        flat[:, axis] = 0.0
        objs.append(surfaces(signed_zeros(flat), 10))
    for m in (1, 2, 3):
        p = signed_zeros(rng.integers(-1, 2, (m, 3)) * 1.0)
        objs.append([p[[i % m for i in range(3)]] for _ in range(10)])
    box = np.array([[x, y, z] for x in (0.0, 1.0, 2.0) for y in (0.0, 2.0)
                    for z in (0.0, 0.5, 1.0)])
    objs.append(surfaces(signed_zeros(box), 20))
    return objs


def _bits(props: dict, centroid: np.ndarray) -> dict:
    out = {k: np.ascontiguousarray(v).view(np.int64)
           for k, v in props.items()}
    out["centroid"] = np.ascontiguousarray(centroid).view(np.int64)
    return out


@pytest.mark.parametrize("name", ["planted", "ulps", "sf0.001", "dense-s1"])
def test_shared_orders_match_sorting_per_use(corpora, monkeypatch, name):
    """batch_properties over the three shared vertex orders gives the bits
    of the kernel whose per-axis passes each sorted their own input: all 25
    columns and the centroid, with and without log_transform."""
    if name in ("planted", "ulps"):
        meshes = geo.Meshes.from_surfaces(
            _planted_clouds() if name == "planted" else _ulps_clouds())
    else:
        meshes = geo.parse_geom_payloads(_geom_texts(corpora[name]))[2]
    for log_transform in (False, True):
        shared = _bits(*geo.batch_properties(meshes, log_transform))
        with monkeypatch.context() as m:
            m.setattr(geo, "_axis_stats", _sorting_axis_stats)
            m.setattr(geo, "_axis_run_ends", _sorting_axis_run_ends)
            m.setattr(geo, "_hull_perimeters", _sorting_hull_perimeters)
            sorting = _bits(*geo.batch_properties(meshes, log_transform))
        for k, v in sorting.items():
            assert np.array_equal(shared[k], v), (name, log_transform, k)


def test_shared_orders_give_the_same_runs_and_stats():
    """On the planted clouds, the run ends and the hull perimeters are the
    sorting helpers' exactly, and the per-axis stats equal theirs (as
    numbers: a run of -0.0 and 0.0 may give either)."""
    meshes = geo.Meshes.from_surfaces(_planted_clouds())
    uo, ux, uy, uz = geo._distinct(meshes.row_obj, meshes.x, meshes.y,
                                   meshes.z)
    U = np.column_stack([ux, uy, uz])
    n = meshes.n
    orders = geo._vertex_orders(uo, U)
    keep = geo._axis_run_ends(uo, U, orders)
    assert np.array_equal(keep, _sorting_axis_run_ends(uo, U, None))
    assert not keep.all()
    assert (np.bincount(uo[keep], minlength=n) < 4).any()
    for v, order in zip((ux, uy, uz), orders):
        got = geo._axis_stats(uo, v, order, n)
        for a, b in zip(got, _sorting_axis_stats(uo, v, None, n)):
            assert np.array_equal(a, b)
    for sub in (np.ones(len(uo), dtype=bool), keep):
        assert np.array_equal(
            geo._hull_perimeters(uo[sub], ux[sub], uy[sub], n),
            _sorting_hull_perimeters(uo[sub], ux[sub], uy[sub], n))
    zero = U == 0
    assert (zero & np.signbit(U)).any() and (zero & ~np.signbit(U)).any()


def test_kernel_sorts_three_times(corpora, monkeypatch):
    """One batch_properties call runs np.lexsort exactly 3 times: the
    vertex dedup and the two other vertex orders."""
    meshes = geo.parse_geom_payloads(_geom_texts(corpora["sf0.001"]))[2]
    lexsort, calls = np.lexsort, []
    monkeypatch.setattr(np, "lexsort",
                        lambda keys, *a, **k: (calls.append(1),
                                               lexsort(keys, *a, **k))[1])
    geo.batch_properties(meshes)
    assert len(calls) == 3


def _run_end_hull_volumes(U, nv, orders):
    """_hull_volumes before the slice filter: the hull candidates are the
    run ends of every object, all of them."""
    n = len(nv)
    obj = np.repeat(np.arange(n), nv)
    rows = np.flatnonzero(geo._axis_run_ends(obj, U, orders))
    cand = np.zeros(len(U), dtype=bool)
    cand[rows] = True
    vol = np.zeros(n)
    c = np.bincount(obj[rows], minlength=n)
    objs = np.flatnonzero(c >= 4)
    if len(objs):
        cnt = c[objs]
        pad = rows[geo._starts(c)[objs][:, None]
                   + np.minimum(np.arange(cnt.max()), cnt[:, None] - 1)]
        vol[objs], near, _ = geo._quickhulls(U[pad], cnt)
        cand[pad[~near]] = False
    return vol, cand


def _slice_clouds(rotate: float = 0.0) -> list:
    """Clouds whose z slices the slice filter thins, one "surface" each:
    star rings with recessed corners at 2-4 heights, each with points
    inside it; convex rings with points on their edges and 1/64 inside
    them; interior points whose xy are corners of the ring above; slices
    of 1-5 points; diamonds around the origin whose zeros are -0.0 or 0.0
    at random.  On the 1/64 grid, or rotated off it by ``rotate``."""
    rng = np.random.default_rng(19)

    def grid(p):
        return np.round(np.asarray(p) * 64) / 64

    def star(n, r):
        ang = 2 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, n)) / n
        rad = r * np.where(np.arange(n) % 2 == 0, 1.0,
                           rng.uniform(0.5, 0.8, n))
        return grid(rng.uniform(-50, 50, 2)
                    + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]))

    def inside(ring, k):
        return grid(rng.dirichlet(np.ones(len(ring)), k) @ ring)

    def cloud(levels):
        return [np.vstack([np.column_stack([xy, np.full(len(xy), z)])
                           for xy, z in levels])]

    heights = np.arange(0.0, 20.0, 0.25)
    objs = []
    for _ in range(12):
        levels = []
        for z in np.sort(rng.choice(heights, rng.integers(2, 5),
                                    replace=False)):
            ring = star(int(rng.integers(5, 40)), rng.uniform(3.0, 15.0))
            levels.append((np.vstack([ring, inside(ring, 6)]), z))
        objs.append(cloud(levels))
    for n in (4, 5, 8):
        ang = 2 * np.pi * np.arange(n) / n
        ring = grid(8 * np.column_stack([np.cos(ang), np.sin(ang)]))
        nxt = np.roll(ring, -1, axis=0)
        on = np.vstack([ring + t * (nxt - ring) for t in (0.25, 0.5, 0.75)])
        mid = (ring + nxt) / 2
        near = grid(mid - np.sign(mid) / 64)
        top = inside(ring, 5)
        objs.append(cloud([(np.vstack([ring, on, near, top]), 0.0),
                           (top, 3.0), (ring, 6.0)]))
    for _ in range(6):
        objs.append(cloud([(grid(rng.uniform(-9, 9, (k, 2))), 0.5 * k)
                           for k in (1, 2, 3, 4, 5, 5, 4)]))
    for _ in range(4):
        r = 4.0
        ring = np.array([[0.0, r], [r, 0.0], [0.0, -r], [-r, 0.0],
                         [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0]])
        zero = ring == 0.0
        ring[zero] = rng.choice([-0.0, 0.0], zero.sum())
        levels = [(ring, z) for z in rng.choice([-0.0, 0.0, 2.0, 5.0], 3)]
        objs.append(cloud(levels))
    if rotate:
        c, s = math.cos(rotate), math.sin(rotate)
        objs = [[np.column_stack([c * p[:, 0] - s * p[:, 1],
                                  s * p[:, 0] + c * p[:, 1], p[:, 2]])]
                for [p] in objs]
    return objs


@pytest.mark.parametrize("name", ["grid", "rotated", "ulps"])
def test_slice_filter_keeps_hull_bits(monkeypatch, name):
    """Dropping the points strictly inside their z slice before the hulls
    keeps every hull volume and 2D hull perimeter bit for bit against the
    run-end candidates it thins, and the quickhull gets fewer points on the
    planted clouds."""
    clouds = {"grid": _slice_clouds, "rotated": lambda: _slice_clouds(0.65),
              "ulps": _ulps_clouds}[name]()
    meshes = geo.Meshes.from_surfaces(clouds)
    uo, ux, uy, uz = geo._distinct(meshes.row_obj, meshes.x, meshes.y,
                                   meshes.z)
    n = meshes.n
    U = np.column_stack([ux, uy, uz])
    nv = np.bincount(uo, minlength=n)
    orders = geo._vertex_orders(uo, U)
    points = []
    lockstep = geo._quickhulls
    monkeypatch.setattr(geo, "_quickhulls", lambda P, cnt: (
        points.append(int(cnt.sum())), lockstep(P, cnt))[1])
    vol, cand = geo._hull_volumes(U, nv, orders)
    hulled = points[0]
    points.clear()
    was, was_cand = _run_end_hull_volumes(U, nv, orders)
    assert np.array_equal(vol.view(np.int64), was.view(np.int64))
    assert not (cand & ~was_cand).any()
    assert hulled < points[0] if name != "ulps" else hulled == points[0]
    per = geo._hull_perimeters(uo[cand], ux[cand], uy[cand], n)
    per_was = geo._hull_perimeters(uo[was_cand], ux[was_cand],
                                   uy[was_cand], n)
    assert np.array_equal(per.view(np.int64), per_was.view(np.int64))
    assert (vol > 0).sum() > n // 2


@pytest.mark.parametrize("name", ["dense-s0", "dense-s1"])
def test_dense_bench_block_runs_one_kernel_call(corpora, monkeypatch, name):
    """The cands of a whole apply_dense corpus (120 meshes, over 2 MiB of
    geom payload: the block a one-CPU fused pass reads) go through the
    property kernel in one call."""
    import engine.properties as props
    docs = corpora[name]
    cands = docs.filter(pc.equal(docs.column("source"), "cands"))
    assert sum(len(t) for t in _geom_texts(cands)) > 2 << 20
    calls = []
    kernel = props.batch_properties
    monkeypatch.setattr(props, "batch_properties",
                        lambda m, log: (calls.append(m.n), kernel(m, log))[1])
    out = _props_batch(cands, False)
    assert calls == [cands.num_rows] == [out.num_rows]

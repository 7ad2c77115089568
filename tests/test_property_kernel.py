"""The batch property kernel (engine.properties._props_batch over
engine.geometry.batch_properties): bit-exact golden digests of the full
property table, hull routes forced both ways, independence from batch
composition, and the empty-output cases."""

import hashlib
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
    """Dense-generator prisms with 4-8 corners: 9-17 hull candidates, so
    both hull routes can run them."""
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


def test_hull_routes_agree(corpora, monkeypatch):
    """Cap 0 (quickhull for every object) and an unbounded cap (facet
    enumeration for every object) give identical tables."""
    docs = corpora["sf0.001"]
    tables = []
    meshes = geo.Meshes.from_surfaces(_small_dense_meshes())
    for cap in (0, 10 ** 9):
        monkeypatch.setattr(geo, "HULL_BATCH_MAX_VERTICES", cap)
        tables.append((_props(docs), geo.batch_properties(meshes)[0]))
    (t0, p0), (t1, p1) = tables
    assert t0.equals(t1)
    for name in PROPERTY_NAMES:
        assert np.array_equal(p0[name], p1[name]), name
    assert (p0["convex_hull_volume"] >= p0["volume"]).all()


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

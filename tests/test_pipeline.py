"""End-to-end pipeline tests at sf0.001 (fast): blocking recall on planted
matches, matching quality floor, fused-vs-staged parity, checkpoint resume
(SURVEY.md §5 items (b), (d), (e))."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def flagship(ray_session):
    from engine.pipeline import run_flagship
    return run_flagship(SF, seed=1, bkafi_dim=6, k=5)


def test_blocking_recall_planted(flagship):
    r = flagship["blocking_recall"]
    assert r[r.k == 1].blocking_recall.iloc[0] >= 0.99
    assert r[r.k == 5].blocking_recall.iloc[0] == 1.0


def test_matching_quality_floor(flagship):
    m = flagship["matching"]
    assert m["f1"] >= 0.9, m
    assert m["precision"] >= 0.85 and m["recall"] >= 0.9


def test_pairs_have_reference_label_semantics(flagship):
    df = flagship["scored"].to_pandas()
    assert ((df.cand_id == df.index_id) == (df.label == 1)).all()
    assert df["rank"].between(1, 5).all()


@pytest.fixture(scope="module")
def fused_state(ray_session):
    from engine.pipeline import prepare_state
    return prepare_state(SF, seed=1, bkafi_dim=6, k=5)


def test_fused_pipeline_matches_quality(fused_state):
    from engine.corpus import corpus_dataset
    from engine.pipeline import matching_inference_pipeline
    out = matching_inference_pipeline(corpus_dataset(SF),
                                      fused_state).to_pandas()
    # every cand produced exactly k rows, ranked
    counts = out.groupby("cand_id").size()
    assert (counts == 5).all()
    # match quality at least as good as the staged pipeline floor
    tp = int(((out.label == 1) & (out.pred == 1)).sum())
    fp = int(((out.label == 0) & (out.pred == 1)).sum())
    fn = int(((out.label == 1) & (out.pred == 0)).sum())
    p = tp / (tp + fp)
    r = tp / (tp + fn)
    assert 2 * p * r / (p + r) >= 0.9


def test_fused_state_fetched_once_per_worker(fused_state, monkeypatch):
    """Every task a worker process runs reuses the state the first one
    fetched, also when engine modules travel by value and a cache in their
    globals would be rebuilt per task.  The probe counts the uses of each
    fetched state dict; a fetch shows as a use count of 1."""
    import engine.pipeline as pipe
    from engine.corpus import corpus_dataset

    def probe(batch, s, idx_sq, log_transform):
        import os
        import pyarrow as pa
        s["_uses"] = s.get("_uses", 0) + 1
        return pa.table({"pid": [os.getpid()], "uses": [s["_uses"]]})

    monkeypatch.setattr(pipe, "fused_apply_batch", probe)
    docs = corpus_dataset(SF).repartition(16)
    out = pipe.matching_inference_pipeline(docs, fused_state).to_pandas()
    assert len(out) == 16
    assert out.pid.nunique() < len(out)     # some worker ran several tasks
    assert (out.uses == 1).sum() == out.pid.nunique()


def test_broadcast_builds_once_per_worker():
    """A broadcast build runs once per worker process, however many tasks
    that worker runs: 16 single-batch tasks all read the built value, and
    each worker shows one build."""
    import os
    import pyarrow as pa
    import ray.data
    from engine import storage

    shipped = storage.broadcast(7, build=lambda v: {"v": v, "uses": 0})

    def probe(batch):
        s = shipped()
        s["uses"] += 1
        return pa.table({"pid": [os.getpid()], "v": [s["v"]],
                         "uses": [s["uses"]]})

    out = ray.data.range(16, override_num_blocks=16) \
        .map_batches(probe, batch_format="pyarrow").to_pandas()
    assert len(out) == 16 and (out.v == 7).all()
    assert out.pid.nunique() < len(out)     # some worker ran several tasks
    assert (out.uses == 1).sum() == out.pid.nunique()


def test_broadcast_evicts_the_least_recently_used(monkeypatch):
    """The per-process memo holds at most BROADCAST_SLOTS built values; a
    hit refreshes an entry, and an evicted value is rebuilt on its next
    call."""
    from engine import storage
    monkeypatch.setattr(storage, "BROADCAST_SLOTS", 2)
    builds = []

    def handle(tag):
        return storage.broadcast(tag, build=lambda v: builds.append(v) or [v])

    a, b, c = handle("a"), handle("b"), handle("c")
    first = a()
    b()
    assert a() is first                     # a hit, and a is now newest
    c()                                     # evicts b
    assert len(storage._process_cache().cache) == 2
    assert builds == ["a", "b", "c"]
    assert a() is first
    assert b() == ["b"] and builds == ["a", "b", "c", "b"]
    assert len(storage._process_cache().cache) == 2


def test_broadcast_memo_under_threads(monkeypatch):
    """Eight threads calling six handles through a two-slot memo, switching
    every few microseconds: every call returns its own handle's value, no
    call trips over another's eviction, and the memo ends within its
    bound."""
    import sys
    import threading
    from engine import storage
    monkeypatch.setattr(storage, "BROADCAST_SLOTS", 2)
    handles = [storage.broadcast(i, build=lambda v: (v, [v]))
               for i in range(6)]
    errors = []

    def hammer(seed):
        try:
            for j in range(3000):
                i = (seed * 7 + j) % 6
                got = handles[i]()
                assert got[0] == i and got[1] == [i]
        except Exception as e:  # reported below, from the main thread
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(storage._process_cache().cache) <= 2


def test_broadcast_builds_per_handle():
    """Two function-local classes that share a qualname but close over
    different state get their own instances; one handle gives the same
    instance on every call, and values need not be hashable."""
    from engine import storage

    def make(tag):
        class Stage:
            def __init__(self, scale=1):
                self.out = tag * scale
        return Stage

    a, b = make(1), make(2)
    assert a.__module__ == b.__module__ and a.__qualname__ == b.__qualname__
    stage_a = storage.broadcast(None, build=lambda _: a())
    assert stage_a().out == 1
    assert storage.broadcast(None, build=lambda _: b())().out == 2
    assert storage.broadcast({"scale": 3},
                             build=lambda kw: a(**kw))().out == 3
    assert stage_a() is stage_a()
    assert storage.broadcast({"scale": [3]},
                             build=lambda kw: a(**kw))().out == [3]


def _fused(batch, state):
    from engine.pipeline import fused_apply_batch
    idx_sq = (state["idx_scaled"] * state["idx_scaled"]).sum(1)
    return fused_apply_batch(batch, state, idx_sq, False)


def _corpus_table():
    import pyarrow.parquet as pq
    from engine.corpus import ensure_corpus
    return pq.read_table(ensure_corpus(SF))


# A driver whose cwd is not the repository when Ray starts, so the engine
# ships itself by value: Ray is up before the engine is imported, or the
# engine is imported at the repository root and the cwd moves before
# ray.init.
FOREIGN_DRIVER = """
import json, os, sys
repo, sf, out, order = sys.argv[1:5]
sys.path.insert(0, repo)
if order == "engine_first":
    import engine
    os.chdir(os.path.dirname(out))
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from ray import cloudpickle
from engine.corpus import corpus_dataset
from engine.pipeline import matching_inference_pipeline, prepare_state
state = prepare_state(sf, seed=1, bkafi_dim=6, k=5)
pairs = matching_inference_pipeline(corpus_dataset(sf), state)
pairs.to_pandas().to_parquet(out)
from engine.pipeline import property_table, side_frame
from engine.pairs import pair_features_dataset
props = property_table(sf)
feats = pair_features_dataset(pairs.select_columns(["cand_id", "index_id"]),
                              side_frame(props, "cands", None),
                              side_frame(props, "index", None))
feats.to_pandas().to_parquet(out + ".feats")
print(json.dumps(sorted(cloudpickle.list_registry_pickle_by_value())))
ray.shutdown()
"""


@pytest.mark.parametrize("order", ["ray_first", "engine_first"])
def test_foreign_cwd_driver_ships_engine_by_value(fused_state, tmp_path,
                                                  order):
    """The fused pass and a broadcast-built pair feature stage from a
    driver outside the repository (engine shipped by value) emit the same
    rows as from the repository root (engine imported by the workers),
    where nothing is registered by value."""
    import json
    import os
    import subprocess
    import sys
    import pandas as pd
    import ray.data
    from ray import cloudpickle
    from engine.corpus import corpus_dataset
    from engine.pairs import pair_features_dataset
    from engine.pipeline import (matching_inference_pipeline, property_table,
                                 side_frame)
    assert not set(cloudpickle.list_registry_pickle_by_value()) & \
        {"engine", "datagen"}
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = str(tmp_path / "pairs.parquet")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-c", FOREIGN_DRIVER, repo, SF, out, order],
        cwd=repo if order == "engine_first" else tmp_path, env=env,
        capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-3000:]
    by_value = json.loads(run.stdout.strip().splitlines()[-1])
    assert {"engine", "datagen"} <= set(by_value)
    key = ["cand_id", "rank"]
    here = matching_inference_pipeline(corpus_dataset(SF), fused_state) \
        .to_pandas().sort_values(key).reset_index(drop=True)
    there = pd.read_parquet(out).sort_values(key).reset_index(drop=True)
    assert len(here) > 0
    pd.testing.assert_frame_equal(here, there, check_exact=True)
    props = property_table(SF)
    pair = ["cand_id", "index_id"]
    here = pair_features_dataset(
        ray.data.from_pandas(here[pair]), side_frame(props, "cands", None),
        side_frame(props, "index", None)).to_pandas() \
        .sort_values(pair).reset_index(drop=True)
    there = pd.read_parquet(out + ".feats").sort_values(pair) \
        .reset_index(drop=True)
    assert len(here) == len(there) > 0
    pd.testing.assert_frame_equal(here, there, check_exact=True)


def test_fused_batch_ignores_index_docs(fused_state):
    """Index docs are dropped before parsing: the fused kernel emits the
    same table with or without them in its input."""
    import pyarrow.compute as pc
    docs = _corpus_table()
    cands = docs.filter(pc.equal(docs.column("source"), "cands"))
    out = _fused(docs, fused_state)
    assert out.num_rows == 5 * cands.num_rows
    assert out.equals(_fused(cands, fused_state))


@pytest.mark.parametrize("case", ["no_cands", "few_surfaces"])
def test_fused_batch_empty_schema(fused_state, case):
    import json
    import pyarrow as pa
    import pyarrow.compute as pc
    from engine.schema import SPAN_TYPE
    docs = _corpus_table()
    if case == "no_cands":
        batch = docs.filter(pc.equal(docs.column("source"), "index"))
    else:   # cands whose meshes have < 10 surfaces are dropped
        tri = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        span = {"kind": "geom", "media_ref": "", "offset": 0,
                "text": json.dumps({"origin": [0, 0], "surfaces": [tri] * 9})}
        batch = pa.table({"doc_id": pa.array(["1", "2"]),
                          "source": pa.array(["cands", "cands"]),
                          "spans": pa.array([[span], [span]],
                                            type=pa.list_(SPAN_TYPE))})
    out, some = _fused(batch, fused_state), _fused(docs.slice(0, 8), fused_state)
    assert out.num_rows == 0 and some.num_rows > 0
    assert out.schema == some.schema


def test_checkpoint_resume_byte_identical(ray_session, tmp_path):
    import pyarrow.parquet as pq
    from engine.checkpoint import read_manifest, run_stage
    from engine.corpus import corpus_dataset
    from engine.properties import properties_dataset

    root = str(tmp_path)
    d1 = run_stage(root, "props", lambda: properties_dataset(corpus_dataset(SF)),
                   lineage={"input": SF})
    n1 = d1.count()
    t0 = d1.to_pandas().sort_values(["doc_id", "source"]).reset_index(drop=True)
    man1 = read_manifest(root, "props")
    # rerun: must skip (build_fn would raise)
    d2 = run_stage(root, "props",
                   lambda: (_ for _ in ()).throw(AssertionError("rebuilt")))
    assert d2.count() == n1
    # simulate a killed write: delete manifest -> rerun rebuilds
    import os
    os.remove(f"{root}/props/manifest.json")
    d3 = run_stage(root, "props", lambda: properties_dataset(corpus_dataset(SF)))
    man3 = read_manifest(root, "props")
    assert man3["total_rows"] == man1["total_rows"]
    # byte-identical partition content (sorted by doc_id/source)
    t1 = d3.to_pandas().sort_values(["doc_id", "source"]).reset_index(drop=True)
    assert (t1["volume"].to_numpy() == t0["volume"].to_numpy()).all()


def test_partitioned_resume_skips_finished(ray_session, tmp_path):
    """Partition-grained resume: a killed run (simulated by deleting two
    partition dirs) recomputes ONLY the missing partitions; total content
    is unchanged."""
    import pyarrow as pa
    import ray.data
    import shutil
    from engine.checkpoint import read_manifest, run_stage_partitioned

    calls = []

    def build(key):
        calls.append(key)
        base = int(key[1:]) * 100
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(base, base + 50), type=pa.int64()),
            "part": pa.array([key] * 50)}))

    root = str(tmp_path)
    keys = ["p0", "p1", "p2", "p3"]
    d1 = run_stage_partitioned(root, "sharded", keys, build,
                               lineage={"demo": True})
    a = d1.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(a) == 200 and sorted(calls) == keys
    # resume with nothing missing: zero rebuilds
    calls.clear()
    d2 = run_stage_partitioned(root, "sharded", keys, build)
    assert d2.count() == 200 and calls == []
    # kill simulation: two partitions lost
    for k in ("p1", "p3"):
        shutil.rmtree(f"{root}/sharded/parts/{k}")
    calls.clear()
    d3 = run_stage_partitioned(root, "sharded", keys, build)
    assert sorted(calls) == ["p1", "p3"]  # only the missing ones rebuilt
    b = d3.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    m = read_manifest(root, "sharded")
    assert set(m["partitions"]) == set(keys)
    assert all(e["rows"] == 50 for e in m["partitions"].values())


def test_threshold_filter_monotonic(ray_session):
    """bkafi_with_threshold semantics on geo_threshold_sweep: a smaller
    threshold keeps fewer nn pairs (M13/T12), and each count is the direct
    ``dist <= threshold`` count over the query's nn table."""
    from engine import queries as Q
    sweep = Q.geo_threshold_sweep(SF).sort_values("threshold")
    kept = sweep["cand_pairs"].to_numpy()
    assert (np.diff(kept) >= 0).all()
    dist = Q._exact_nn(*Q._flat_blocker(SF)).to_pandas()["dist"].to_numpy()
    for i in (0, len(sweep) // 2, len(sweep) - 1):
        row = sweep.iloc[i]
        assert row["cand_pairs"] == (dist <= row["threshold"]).sum()
    assert 0 < kept[0] < kept[-1] <= len(dist)


def test_dirty_split_semantics(ray_session):
    """Dirty blocking split (data_partition_dirty.py analogue): removed
    cands have no true entity in the index side; recall over the matchable
    subset stays high; the removal fraction is about non_matched_rat."""
    from engine import splits
    from engine.pipeline import property_table, side_ids
    from engine.queries import geo_blocking_dirty
    props = property_table(SF)
    cand_ids, index_ids = side_ids(props)
    # the query runs over the exact-f64 flat-roof subset (oracle mode)
    cand_ids = [d for d in cand_ids if int(d) % 5 == 0]
    index_ids = [d for d in index_ids if int(d) % 5 == 0]
    test_cands, index_keep, removed = splits.dirty_blocking_split(
        cand_ids, index_ids, seed=1)
    assert set(removed) <= set(test_cands)
    assert not (set(removed) & set(index_keep))
    frac = len(removed) / len(test_cands)
    assert 0.1 <= frac <= 0.3
    df = geo_blocking_dirty(SF)
    assert (df.n_unmatched == len(removed)).all()
    assert df[df.k == 5].recall_matchable.iloc[0] >= 0.95


def test_prep_split_is_dataset_side_and_bounded(ray_session):
    """prep_train's driver-side collects are bounded by the train split:
    the prep dict carries NO test/cands id lists, and the dataset-side
    split predicate (split_cands_dataset) reproduces the old driver-side
    set-intersection + hash-bucket membership exactly."""
    from engine import splits
    from engine.pipeline import (prep_train, property_table, side_ids,
                                 split_cands_dataset, side_dataset)
    props = property_table(SF)
    prep = prep_train(props, seed=1)
    # no O(corpus) id list rides in prep — only the train subset + the
    # declared index broadcast
    assert "test_ids" not in prep and "cand_ids" not in prep
    # reference semantics check vs the (test-only) driver-side computation
    cand_ids, index_ids = side_ids(props)
    inter = sorted(set(cand_ids) & set(index_ids), key=int)
    want_train, want_test = splits.train_test_ids(inter, seed=1)
    assert prep["train_ids"] == sorted(want_train, key=int)
    assert prep["n_test"] == len(want_test)
    got_test = split_cands_dataset(
        side_dataset(props, "cands", ["doc_id"]), prep["split_ref"],
        prep["seed"], train=False).to_pandas().doc_id.tolist()
    assert sorted(got_test, key=int) == sorted(want_test, key=int)


def test_flagship_log_transform_quality(ray_session):
    """Quality floor holds under the reference's default log1p property
    normalization (config.py:52) — blocking recall and matching F1."""
    from engine.pipeline import run_flagship
    res = run_flagship(SF, seed=1, bkafi_dim=6, k=5, log_transform=True)
    assert res["matching"]["f1"] >= 0.9
    r = res["blocking_recall"]
    assert r[r.k == 5].blocking_recall.iloc[0] >= 0.99


def test_flagship_fully_deterministic(ray_session):
    """Same seed -> bit-identical scored pairs across independent runs
    (stable hashes, seeded RF, deterministic tie-breaks — SURVEY §7.4.6)."""
    from engine.pipeline import run_flagship
    a = run_flagship(SF, seed=2, bkafi_dim=4, k=3)["scored"].to_pandas()
    b = run_flagship(SF, seed=2, bkafi_dim=4, k=3)["scored"].to_pandas()
    a = a.sort_values(["cand_id", "index_id"]).reset_index(drop=True)
    b = b.sort_values(["cand_id", "index_id"]).reset_index(drop=True)
    assert (a.index_id.to_numpy() == b.index_id.to_numpy()).all()
    assert (a.pred.to_numpy() == b.pred.to_numpy()).all()
    assert (a.dist.to_numpy() == b.dist.to_numpy()).all()


def test_size_aware_blocks_bounds(monkeypatch):
    """Block sizing: floors at min(min_blocks, requested), caps at
    requested and at the cluster's CPUs, and scales with the row count
    of every file read."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import tempfile, os
    from engine import storage
    from engine.corpus import size_aware_blocks

    def cpus(n):
        monkeypatch.setattr(storage, "cluster_cpus", lambda: n)

    with tempfile.TemporaryDirectory() as d:
        t = pa.table({"x": pa.array(range(100), type=pa.int64())})
        for i in range(40):  # 4000 rows over 40 files
            pq.write_table(t, os.path.join(d, f"p{i:03d}.parquet"))
        one = os.path.join(d, "p000.parquet")
        cpus(16)  # 16 blocks fit under 16 CPUs
        n = size_aware_blocks(d, requested=64, rows_per_block=256)
        assert n == 16, n  # ceil(4000/256)
        assert size_aware_blocks(d, requested=8) == 8      # cap
        assert size_aware_blocks(one, requested=64) == 8   # floor
        assert size_aware_blocks(d, requested=64, rows_per_block=1000) == 8
        cpus(8)   # 16 blocks capped at 8 CPUs
        assert size_aware_blocks(d, requested=64, rows_per_block=256) == 8
        cpus(1)
        assert size_aware_blocks(d, requested=64) == 1
        assert size_aware_blocks(one, requested=64) == 1
        for path in (d, one):
            for requested in (1, 4, 8, 64):
                cpus(None)   # no cluster: the rule without the CPU cap
                uncapped = size_aware_blocks(path, requested)
                for n in (1, 2, 4, 8, 32):
                    cpus(n)
                    got = size_aware_blocks(path, requested)
                    assert got == min(uncapped, n), (path, n)


def test_size_aware_blocks_count_nested_files(tmp_path, monkeypatch):
    """The block count covers every file the read reads, nested ones too:
    3,000 rows in the directory and 3,000 in a subdirectory size 24 blocks
    of 256 rows (the top-level file alone would size 12)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from engine import storage
    from engine.corpus import size_aware_blocks
    monkeypatch.setattr(storage, "cluster_cpus", lambda: None)
    t = pa.table({"x": pa.array(range(3000), type=pa.int64())})
    (tmp_path / "sub").mkdir()
    pq.write_table(t, str(tmp_path / "0.parquet"))
    pq.write_table(t, str(tmp_path / "sub" / "1.parquet"))
    assert size_aware_blocks(str(tmp_path), 64) == 24


def test_fused_pairs_do_not_depend_on_block_count(fused_state):
    """The fused pass emits the same pairs whether the corpus is read as
    1, 2 or 8 blocks (one task each)."""
    import pandas as pd
    from engine.corpus import ensure_corpus
    from engine.pipeline import matching_inference_pipeline
    from engine.storage import read_parquet_clean
    path = ensure_corpus(SF)
    outs = []
    for n in (1, 2, 8):
        docs = read_parquet_clean(path, override_num_blocks=n).materialize()
        assert docs.num_blocks() == n
        out = matching_inference_pipeline(docs, fused_state).to_pandas()
        outs.append(out.sort_values(["cand_id", "rank"])
                    .reset_index(drop=True))
    assert len(outs[0]) > 0
    for out in outs[1:]:
        pd.testing.assert_frame_equal(outs[0], out, check_exact=True)


def test_fused_pass_is_one_task_on_one_cpu(fused_state, monkeypatch):
    """On one CPU the corpus is read as one block, so Ray fuses the read
    with the fused kernel: the whole pass is one task of one
    ``ReadParquet->MapBatches(fused)`` operator."""
    import re
    from engine import storage
    from engine.corpus import corpus_dataset
    from engine.pipeline import matching_inference_pipeline
    monkeypatch.setattr(storage, "cluster_cpus", lambda: 1)
    out = matching_inference_pipeline(corpus_dataset(SF),
                                      fused_state).materialize()
    ops = re.findall(r"^Operator \d+ (\S+): (\d+) tasks executed",
                     out.stats(), re.M)
    assert ops == [("ReadParquet->MapBatches(fused)", "1")], ops
    assert out.count() > 0


def test_text_stage_fuses_with_its_read_on_one_cpu(monkeypatch):
    """A text map stage sets no width, so on one CPU Ray fuses it with the
    documents read before it (one block: ``queries._docs`` sizes the read
    to the cluster): one ``ReadParquet->MapBatches(stage)`` operator."""
    import re
    from engine import queries, storage, text
    monkeypatch.setattr(storage, "cluster_cpus", lambda: 1)
    out = text.lang_id(queries._docs(SF)).materialize()
    ops = re.findall(r"^Operator \d+ (\S+): \d+ tasks executed",
                     out.stats(), re.M)
    assert ops == ["ReadParquet->MapBatches(stage)"], ops
    assert out.count() > 0


def test_two_row_group_corpus_runs_the_kernel_once_per_pass(
        fused_state, monkeypatch, tmp_path):
    """A corpus file of two row groups read on one CPU is one block: the
    pass stays one ``ReadParquet->MapBatches(fused)`` task, and that task
    runs ``batch_properties`` once, over every cand."""
    import re
    import pyarrow.parquet as pq
    from engine import corpus, pipeline, storage
    t = pq.read_table(corpus.ensure_corpus(SF))
    path = tmp_path / "corpus"
    path.mkdir()
    pq.write_table(t, path / "part.parquet",
                   row_group_size=(t.num_rows + 1) // 2)
    assert pq.read_metadata(path / "part.parquet").num_row_groups == 2
    monkeypatch.setattr(storage, "cluster_cpus", lambda: 1)
    monkeypatch.setattr(corpus, "ensure_corpus", lambda *a: str(path))
    log = str(tmp_path / "kernel_calls")
    fused_apply_batch = pipeline.fused_apply_batch

    def counted(*args):
        # runs in the worker: count the kernel calls of this batch there
        import engine.properties as props
        kernel = props.batch_properties

        def spy(meshes, log_transform):
            with open(log, "a") as f:
                f.write(f"{meshes.n}\n")
            return kernel(meshes, log_transform)
        props.batch_properties = spy
        try:
            return fused_apply_batch(*args)
        finally:
            props.batch_properties = kernel

    monkeypatch.setattr(pipeline, "fused_apply_batch", counted)
    out = pipeline.matching_inference_pipeline(
        corpus.corpus_dataset(SF), fused_state).materialize()
    ops = re.findall(r"^Operator \d+ (\S+): (\d+) tasks executed",
                     out.stats(), re.M)
    assert ops == [("ReadParquet->MapBatches(fused)", "1")], ops
    cands = (t.column("source").to_numpy(zero_copy_only=False)
             == "cands").sum()
    with open(log) as f:
        assert [int(n) for n in f.read().split()] == [cands]
    assert out.count() == cands * fused_state["k"]


def test_fused_state_is_put_once_per_state(fused_state, monkeypatch):
    """Passes over the same state object put it in the object store once
    and return the same pairs; another state object gets its own put."""
    import pandas as pd
    import ray
    from engine.corpus import corpus_dataset
    from engine.pipeline import matching_inference_pipeline
    put, puts = ray.put, []

    def counted(value, **kw):
        puts.append(value)
        return put(value, **kw)

    monkeypatch.setattr(ray, "put", counted)

    def run(state):
        out = matching_inference_pipeline(corpus_dataset(SF), state)
        return out.to_pandas().sort_values(["cand_id", "rank"]) \
            .reset_index(drop=True)

    first, second = dict(fused_state), dict(fused_state)
    a, b = run(first), run(first)
    assert sum(v is first for v in puts) == 1
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    c = run(second)
    assert sum(v is second for v in puts) == 1
    pd.testing.assert_frame_equal(a, c, check_exact=True)


def test_knn_output_does_not_depend_on_cluster_width(monkeypatch):
    """bkafi_nn_dataset splits its cands into at most one block per
    cluster CPU; the per-row kNN output is the same at any width."""
    from engine import blocking as blk
    from engine import storage
    from engine.pipeline import property_table, side_dataset, side_frame
    props = property_table(SF)
    feats = ["volume", "area", "height_diff"]
    index_df = side_frame(props, "index", ["doc_id", *feats])
    outs = []
    for n in (1, 4, None):
        monkeypatch.setattr(storage, "cluster_cpus", lambda: n)
        cands = side_dataset(props, "cands", ["doc_id", *feats])
        nn = blk.bkafi_nn_dataset(cands, index_df, feats, 3)
        outs.append(nn.to_pandas().sort_values(["cand_id", "rank"])
                    .reset_index(drop=True))
    assert len(outs[0]) > 0
    for out in outs[1:]:
        assert outs[0].equals(out)


def test_negative_sampler_does_not_depend_on_cluster_width(monkeypatch):
    """negative_sample_pairs splits its cands into at most one block per
    cluster CPU; each cand's negatives are seeded by its own id, so the
    sorted sampler output is the same at any width."""
    import pandas as pd
    from engine import splits, storage
    cands = [str(i) for i in range(0, 400, 3)]
    index = [str(i) for i in range(300)]
    outs = []
    for n in (1, 8):
        monkeypatch.setattr(storage, "cluster_cpus", lambda: n)
        ds = splits.negative_sample_pairs(cands, index, 2, seed=3)
        outs.append(ds.to_pandas().sort_values(["cand_id", "index_id"])
                    .reset_index(drop=True))
    assert len(outs[0]) > len(cands)
    pd.testing.assert_frame_equal(outs[0], outs[1], check_exact=True)


def test_partitioned_resume_survives_sigkill_sf01(ray_session, tmp_path):
    """Real kill/resume at partition grain over the sf0.1 documents table:
    a subprocess running run_stage_partitioned is SIGKILLed after >= 2
    partitions commit; the in-session resume (a) validates and SKIPS every
    committed partition (manifest created_unix timestamps unchanged), (b)
    recomputes only the rest, and (c) the final table equals an uninterrupted
    build, file-for-file identical by the manifest's per-file sha."""
    import json
    import os
    import signal
    import subprocess
    import sys
    import time

    from engine.checkpoint import read_manifest, run_stage_partitioned
    from tests.partition_kill_runner import PART_KEYS, build_doc_part

    sf = "/root/testdata/sf0.1"
    root = str(tmp_path / "killrun")
    runner = os.path.join(os.path.dirname(__file__),
                          "partition_kill_runner.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(runner))
    proc = subprocess.Popen([sys.executable, runner, root, sf], env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    mp = os.path.join(root, "docstats", "manifest.json")
    deadline = time.time() + 300
    try:
        while time.time() < deadline:
            if os.path.exists(mp):
                try:
                    n_done = len(json.load(open(mp)).get("partitions", {}))
                except Exception:
                    n_done = 0
                if n_done >= 2:
                    break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        assert proc.poll() is None, "runner finished before the kill"
        proc.send_signal(signal.SIGKILL)   # hard kill mid-stage
    finally:
        proc.wait()

    survivors = read_manifest(root, "docstats")["partitions"]
    assert 2 <= len(survivors) < len(PART_KEYS), sorted(survivors)
    stamps = {k: v["created_unix"] for k, v in survivors.items()}

    # resume in this session: only missing partitions recompute
    d = run_stage_partitioned(root, "docstats", PART_KEYS,
                              build_doc_part(sf))
    man = read_manifest(root, "docstats")
    assert set(man["partitions"]) == set(PART_KEYS)
    for k, ts in stamps.items():   # committed partitions untouched
        assert man["partitions"][k]["created_unix"] == ts, k

    # content equals an uninterrupted build exactly (parquet FILE bytes
    # embed Ray's per-run write UUID in name+footer, so identity is at the
    # value level: same rows, same order, same dtypes per partition)
    clean_root = str(tmp_path / "cleanrun")
    d2 = run_stage_partitioned(clean_root, "docstats", PART_KEYS,
                               build_doc_part(sf))
    man2 = read_manifest(clean_root, "docstats")
    for k in PART_KEYS:
        assert man["partitions"][k]["rows"] == man2["partitions"][k]["rows"]
    a = d.to_pandas()
    b = d2.to_pandas()
    assert a.equals(b)          # row-for-row, order included
    assert a.doc_id.is_unique and len(a) == 5000


def test_read_schemas_stay_hashable(ray_session):
    """Regression guard for the schema-dedup fix: blocks read from
    pandas-written parquet must carry metadata-free (hashable) schemas —
    an unhashable schema silently defeats Ray's unify_schemas early exit
    and floods 'Failed to hash the schemas' warnings at every block merge."""
    from engine.storage import read_parquet_clean
    for cols in (None, ["doc_id", "text"]):
        b = read_parquet_clean("/root/testdata/sf0.001/documents.parquet",
                               columns=cols).take_batch(
            5, batch_format="pyarrow")
        assert b.schema.metadata is None
        hash(b.schema)   # must not raise


def test_read_parquet_clean_falls_back_when_file_schemas_differ(
        ray_session, tmp_path):
    """Sibling files whose metadata-free schemas differ are not read under
    the first file's schema (which fails, or silently casts, on the other
    files): there is no fallback reader now, the one read reads each file
    with its own types and declares no schema."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from engine.storage import read_parquet_clean
    pq.write_table(pa.table({"a": [1, 2], "b": [10, 20]}),
                   tmp_path / "part-0.parquet")
    pq.write_table(pa.table({"a": [3, 4], "b": ["x", "y"]}),
                   tmp_path / "part-1.parquet")
    got = {}
    for b in read_parquet_clean(str(tmp_path), columns=["a", "b"]) \
            .iter_batches(batch_size=None, batch_format="pyarrow"):
        got.update(zip(b.column("a").to_pylist(), b.column("b").to_pylist()))
    assert got == {1: 10, 2: 20, 3: "x", 4: "y"}

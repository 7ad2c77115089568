"""Size gates (engine/gates.py): every gate forced down both routes gives the
same rows, every gate takes its driver route on the test corpus at default
budgets, the sorted lookups, and a source scan that keeps budgets and
count-versus-bound checks out of the other engine modules."""

import logging
import math
import pathlib
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from engine import gates
from test_pipeline import SF   # the sf0.001 test corpus


def _docs():
    from engine.storage import read_parquet_clean
    return read_parquet_clean(f"{SF}/documents.parquet",
                              columns=["doc_id", "text"])


def _planted_docs():
    from engine.dedup import planted_dup_corpus
    return planted_dup_corpus(_docs())


def _sorted(ds, keys):
    df = ds.to_pandas()   # an empty result comes back without columns
    return df.sort_values(keys).reset_index(drop=True) if len(df) else df


def _knn(exact: bool) -> list[pd.DataFrame]:
    """embedding_nn_auto on the planted-tie 257-row index in 4 blocks (so
    the sharded route folds several shards), with a zero-norm row whose
    exact-mode scores are NaN; both routes also match the lexsort oracle
    (test_operators.test_embedding_nn_sharded_equals_broadcast)."""
    from test_operators import embedding_knn_case
    return [embedding_knn_case(exact)]


def _tfidf() -> list[pd.DataFrame]:
    from engine.text import tfidf_topk
    out = _sorted(tfidf_topk(_docs()), ["doc_id", "rnk"])[
        ["doc_id", "term", "tf", "df", "score", "rnk"]]
    assert len(out) > 0 and (out.groupby("doc_id").size() <= 5).all()
    return [out]


def _pair_features() -> list[pd.DataFrame]:
    from engine.pairs import pair_features_join
    from engine.pipeline import property_table, side_ids
    props = property_table(SF)
    cand_ids, index_ids = side_ids(props)
    matched = sorted(set(cand_ids) & set(index_ids), key=int)[:40]
    pair_ds = ray.data.from_arrow(pa.table({
        "cand_id": pa.array(matched + matched, type=pa.string()),
        "index_id": pa.array(matched + list(reversed(matched)),
                             type=pa.string()),
    }))
    out = _sorted(pair_features_join(pair_ds, props), ["cand_id", "index_id"])
    assert len(out) == 80
    return [out]


def _shipping_priority() -> list[pd.DataFrame]:
    from engine.relational import shipping_priority
    out = shipping_priority(SF).to_pandas().reset_index(drop=True)
    assert len(out) > 0 and out.revenue.is_monotonic_decreasing
    return [out]


def _jaccard(threshold: float) -> list[pd.DataFrame]:
    """minhash_lsh_pairs at ``threshold``, and a pair whose doc has no
    signature row (id 99,999,999), which both routes drop even at 0.0;
    the other pair's Jaccard is below 0.5."""
    from engine.dedup import _verify_pairs_join, minhash_lsh_pairs
    docs = _planted_docs()
    out = _sorted(minhash_lsh_pairs(docs, threshold=threshold),
                  ["a_id", "b_id"])
    assert len(out) > 0
    phantom = _sorted(_verify_pairs_join(docs, ray.data.from_arrow(pa.table({
        "a_id": pa.array([5, 7], type=pa.int64()),
        "b_id": pa.array([6, 99_999_999], type=pa.int64())})), 3, threshold),
        ["a_id", "b_id"])
    kept = phantom[["a_id", "b_id"]].values.tolist() if len(phantom) else []
    assert kept == ([[5, 6]] if threshold == 0.0 else [])
    return [out, phantom]


def _simhash() -> list[pd.DataFrame]:
    from engine.dedup import simhash_pairs
    out = _sorted(simhash_pairs(_planted_docs()), ["a_id", "b_id"])
    assert len(out) > 0 and (out.hamming <= 3).all()
    return [out]


def _embedding_near_dup() -> list[pd.DataFrame]:
    from engine.dedup import embedding_near_dup, planted_neardup_embeddings
    from engine.queries import _emb
    out = _sorted(embedding_near_dup(planted_neardup_embeddings(_emb(SF)),
                                     threshold=0.95), ["a_id", "b_id"])
    assert len(out) > 0
    return [out]


def _chain_clusters() -> list[pd.DataFrame]:
    """Connected components close transitive chains the pair list only
    gives as consecutive edges: 1-2, 2-3, 3-4 -> one cluster labeled 1."""
    from engine.dedup import dup_clusters
    out = _sorted(dup_clusters(ray.data.from_arrow(pa.table({
        "a_id": pa.array([1, 2, 3, 10, 20, 21], type=pa.int64()),
        "b_id": pa.array([2, 3, 4, 11, 21, 22], type=pa.int64()),
    }))), ["doc_id"])
    assert dict(zip(out.doc_id, out.cluster_id)) == {
        1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20, 21: 20, 22: 20}
    return [out]


def _substring(hash_grams: bool) -> list[pd.DataFrame]:
    from engine.dedup import substring_dup_stats
    out = _sorted(substring_dup_stats(_planted_docs(), hash_grams=hash_grams),
                  ["doc_id"])
    assert out.dup_positions.sum() > 0   # planted dups present
    return [out]


def _prepare() -> list[pd.DataFrame]:
    """Every recorded field of prep_train and prepare_state on sf0.001."""
    from test_prepare import prepared, state_digests
    d = state_digests(*prepared())
    return [pd.DataFrame({"field": list(d), "digest": list(d.values())})]


def _sf_knn() -> list[pd.DataFrame]:
    from engine.queries import geo_block_embedding
    return [geo_block_embedding(SF).to_pandas()]


def _sf_clusters() -> list[pd.DataFrame]:
    from engine.queries import dedup_clusters
    return [dedup_clusters(SF).to_pandas()]


@dataclass
class Case:
    gate: str                 # the name the gate logs
    budget: str               # the gates.<NAME> that forces its route
    run: Callable[[], list[pd.DataFrame]]


CASES = {
    "embedding_nn_auto-inner": Case("embedding_nn_auto",
                                    "MAX_BROADCAST_INDEX_ROWS",
                                    lambda: _knn(False)),
    "embedding_nn_auto-exact": Case("embedding_nn_auto",
                                    "MAX_BROADCAST_INDEX_ROWS",
                                    lambda: _knn(True)),
    "tfidf_topk": Case("tfidf_topk", "MAX_BROADCAST_VOCAB", _tfidf),
    "pair_features_join": Case("pair_features_join",
                               "BROADCAST_MAX_SIDE_ROWS", _pair_features),
    "shipping_priority": Case("shipping_priority", "BROADCAST_MAX_SIDE_ROWS",
                              _shipping_priority),
    "verify_pairs_join-0.5": Case("verify_pairs_join",
                                  "MAX_DRIVER_VERIFY_PAIRS",
                                  lambda: _jaccard(0.5)),
    "verify_pairs_join-0.0": Case("verify_pairs_join",
                                  "MAX_DRIVER_VERIFY_PAIRS",
                                  lambda: _jaccard(0.0)),
    "simhash_pairs": Case("simhash_pairs", "MAX_DRIVER_VERIFY_PAIRS",
                          _simhash),
    "embedding_near_dup": Case("embedding_near_dup",
                               "MAX_DRIVER_VERIFY_PAIRS",
                               _embedding_near_dup),
    "dup_clusters": Case("dup_clusters", "MAX_SMALL_GRAPH_ROWS",
                         _chain_clusters),
    "substring_dup_stats-hash": Case("substring_dup_stats",
                                     "MAX_BROADCAST_DUP_GRAMS",
                                     lambda: _substring(True)),
    "substring_dup_stats-string": Case("substring_dup_stats",
                                       "MAX_BROADCAST_DUP_GRAMS",
                                       lambda: _substring(False)),
    "train_knn": Case("train_knn", "MAX_DRIVER_KNN_CELLS", _prepare),
}

# One run on the test corpus per gate; the two gates whose route cases use
# synthetic inputs run the sf0.001 query that reaches them instead.
SF_RUNS = {c.gate: c.run for c in CASES.values()} | {
    "embedding_nn_auto": _sf_knn, "dup_clusters": _sf_clusters}


def _routes(caplog, gate: str) -> set[str]:
    return {re.search(r"route=(\w+)", r.getMessage()).group(1)
            for r in caplog.records if r.name == "engine.gates"
            and r.getMessage().startswith(gate + ":")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_gate_routes_agree(ray_session, monkeypatch, caplog, name):
    """Budget 0 forces the distributed route and budget ∞ the driver route;
    both give identical rows, and each run logs the route it took."""
    case = CASES[name]
    caplog.set_level(logging.INFO, logger="engine.gates")
    out = {}
    for budget, route in ((math.inf, "driver"), (0, "distributed")):
        monkeypatch.setattr(gates, case.budget, budget)
        caplog.clear()
        out[route] = case.run()
        assert _routes(caplog, case.gate) == {route}, caplog.text
    for d, j in zip(out["driver"], out["distributed"]):
        pd.testing.assert_frame_equal(d, j, check_exact=True)


def test_every_gate_has_a_route_case():
    assert {c.gate for c in CASES.values()} == set(SF_RUNS)
    assert len(SF_RUNS) == 10


@pytest.mark.parametrize("gate", sorted(SF_RUNS))
def test_default_budgets_take_the_driver_route(ray_session, caplog, gate):
    """At default budgets every gate takes its driver route on sf0.001, so
    no test corpus exercises a different plan than it did before."""
    caplog.set_level(logging.INFO, logger="engine.gates")
    SF_RUNS[gate]()
    assert _routes(caplog, gate) == {"driver"}, caplog.text


def test_collect_under_budget_hands_back_the_same_stream(ray_session):
    ds = ray.data.from_arrow(pa.table({"x": pa.array(range(100))})) \
        .repartition(4).materialize()
    t, rest = gates.collect_under_budget(ds, "t", 1000, None)
    assert t.column("x").to_pylist() == list(range(100))
    t, rest = gates.collect_under_budget(ds, "t", 10, None)
    assert t is None
    assert pa.concat_tables(rest).column("x").to_pylist() == list(range(100))
    t, _ = gates.collect_under_budget(ds, "t", None, 100)
    assert t is None
    empty = ds.filter(lambda r: False).materialize()
    t, _ = gates.collect_under_budget(empty, "t", 0, 0)
    assert t.num_rows == 0


@pytest.mark.parametrize("keys,probe", [
    ([1, 3, 5], [3, 4]),         # missing key
    ([], [1]),                   # empty keys
    ([1, 3, 5], [1, 9]),         # probe past the last key
])
def test_sorted_positions_raises_on_a_missing_key(keys, probe):
    with pytest.raises(RuntimeError, match="nondeterministic"):
        gates.sorted_positions(np.asarray(keys, dtype=np.int64),
                               np.asarray(probe, dtype=np.int64), "g")


def test_sorted_positions_and_member():
    keys = np.asarray([2, 4, 8], dtype=np.int64)
    assert gates.sorted_positions(keys, np.asarray([8, 2, 4]), "g") \
        .tolist() == [2, 0, 1]
    assert gates.sorted_positions(keys, np.asarray([], np.int64), "g") \
        .tolist() == []
    assert gates.sorted_member(keys, np.asarray([0, 2, 5, 8, 9])) \
        .tolist() == [False, True, False, True, False]
    assert gates.sorted_member(np.asarray([], np.int64),
                               np.asarray([1, 2])).tolist() == [False, False]
    terms = np.asarray(["a", "bb", "c"], dtype="U")
    assert gates.sorted_member(terms, np.asarray(["bb", "d"])).tolist() == \
        [True, False]


def test_budgets_and_bound_checks_live_only_in_gates():
    """No engine module but gates.py defines a MAX_* / *_MAX_* budget or
    compares a .count() to a bound: hand-rolled size gates stay gone."""
    budget = re.compile(r"^\s*(MAX_\w*|\w+_MAX_\w*)\s*[:=]", re.M)
    count_cmp = re.compile(r"\.count\(\)\s*[<>]=?|[<>]=?\s*[\w.]+\.count\(\)")
    engine = pathlib.Path(__file__).resolve().parents[1] / "engine"
    bad = []
    for f in sorted(engine.glob("*.py")):
        if f.name == "gates.py":
            continue
        src = f.read_text()
        bad += [f"{f.name}: {m.group(0).strip()}"
                for m in budget.finditer(src)]
        bad += [f"{f.name}: {m.group(0).strip()}"
                for m in count_cmp.finditer(src)]
    assert not bad, bad


def test_queries_share_inputs_only_through_the_memo():
    """engine/queries.py declares no module-level dict but its QUERIES
    registry (a shared input is a ``_Memo``, which counts its hits), and it
    picks a side only through pipeline.side_dataset or _flat_side: the
    hand-rolled memo dicts and inline source filters stay gone."""
    src = (pathlib.Path(__file__).resolve().parents[1] / "engine"
           / "queries.py").read_text()
    dicts = re.findall(r"^(\w+)\s*(?::[^=\n]*)?=\s*(?:\{\}|\w*[dD]ict\()",
                       src, re.M)
    assert dicts == ["QUERIES"], dicts
    filters = re.findall(r"equal\(\s*[\w.]+\.column\(\s*[\"']source[\"']",
                         src)
    assert not filters, filters


def test_worker_state_goes_only_through_broadcast():
    """Map UDFs read driver-side state through ``storage.broadcast`` alone:
    no engine module but storage.py calls ``ray.get``, except the shard
    handles of blocking.embedding_nn_auto's sharded placement (memoizing
    its shards would hold them all in one worker) and matching.py's two
    driver-side gathers of
    remote fit results; and the old hand-rolled worker caches stay gone."""
    get = re.compile(r"(?<![\w.])_?ray\.get\(")
    idiom = re.compile(r"holder: dict|_worker_stage|_stage_memo")
    allowed_gets = {"blocking.py": 1, "matching.py": 2}
    engine = pathlib.Path(__file__).resolve().parents[1] / "engine"
    bad = []
    for f in sorted(engine.glob("*.py")):
        src = f.read_text()
        bad += [f"{f.name}: {m.group(0)}" for m in idiom.finditer(src)]
        n = len(get.findall(src))
        if f.name != "storage.py" and n > allowed_gets.get(f.name, 0):
            bad.append(f"{f.name}: {n} ray.get calls")
    assert not bad, bad


def test_dense_knn_ranks_only_through_the_one_selection():
    """engine/blocking.py, similarity.py and spatial.py call np.lexsort,
    argpartition or np.partition only inside blocking.topk_by_key and
    blocking.topk_scan: every dense kNN hands its distance blocks to that
    one selection and scan, so no kNN grows its own merge.  spatial.py
    calls no topk_by_key (its kNN join is the exact centroid scan), and
    blocking.py and spatial.py build a kNN rank column
    (``np.arange(1, ...``) only inside blocking.knn_rows, the one
    ranked-row builder."""
    import ast
    checks = [
        (re.compile(r"np\.lexsort\(|argpartition\(|np\.partition\("),
         ("blocking.py", "similarity.py", "spatial.py"),
         ("topk_by_key", "topk_scan")),
        (re.compile(r"topk_by_key\("), ("spatial.py",), ()),
        (re.compile(r"np\.arange\(1,"), ("blocking.py", "spatial.py"),
         ("knn_rows",)),
    ]
    engine = pathlib.Path(__file__).resolve().parents[1] / "engine"
    bad = []
    for pattern, names, allowed in checks:
        for name in names:
            src = (engine / name).read_text()
            inside = {line for node in ast.walk(ast.parse(src))
                      if isinstance(node, ast.FunctionDef)
                      and name == "blocking.py" and node.name in allowed
                      for line in range(node.lineno, node.end_lineno + 1)}
            for m in pattern.finditer(src):
                line = src.count("\n", 0, m.start()) + 1
                if line not in inside:
                    bad.append(f"{name}:{line}: {m.group(0)}")
    assert not bad, bad


def test_keyed_shuffles_go_only_through_the_primitive():
    """engine/*.py co-partitions on a key only through
    joins.shuffle_groups: no ``.map_groups(``, no ``SHUFFLE_BUCKETS``, no
    ``NUM_BUCKETS`` / ``num_buckets`` and no ``% 64``-style bucket tag
    outside it (oracles.py is SQL and not scanned), with no exception.

    The 26 sites this replaced, each by its groupby: dedup.exact_dedup,
    ngram_jaccard_pairs (2), _distinct_pairs, _dedup_keyed_rows,
    minhash_lsh_pairs, simhash_pairs, embedding_near_dup;
    joins.bucketed_hash_join, _bucketed_filter_join; relational.events_running,
    events_asof_join, events_sessions, shipping_priority (2),
    events_interval_join; text.tfidf_topk, inverted_index, merge_pair_counts;
    spatial.pip_join, range_join; blocking.cell_blocking (2); and, folded
    last, relational.heavy_hitters (its bucket -1 was the decrement
    ledger), text.reservoir_per_group (it grouped by the key itself) and
    text.pack_sequences (its bucket was the doc-id range its offsets
    read)."""
    import ast
    shuffle = re.compile(
        r"\.map_groups\(|SHUFFLE_BUCKETS|NUM_BUCKETS|num_buckets"
        r"|%\s*(?:np\.uint64\()?\s*(?:16|32|64|B)\b")
    allowed = {("joins.py", "shuffle_groups")}
    engine = pathlib.Path(__file__).resolve().parents[1] / "engine"
    bad = []
    for f in sorted(engine.glob("*.py")):
        if f.name == "oracles.py":   # the DuckDB SQL
            continue
        src = f.read_text()
        inside = {line for node in ast.walk(ast.parse(src))
                  if isinstance(node, ast.FunctionDef)
                  and (f.name, node.name) in allowed
                  for line in range(node.lineno, node.end_lineno + 1)}
        for m in shuffle.finditer(src):
            line = src.count("\n", 0, m.start()) + 1
            if line not in inside:
                bad.append(f"{f.name}:{line}: {m.group(0)}")
    assert not bad, bad


def test_trees_grow_only_through_the_one_learner():
    """engine/matching.py stable-sorts a feature in one place, the split
    scan ``_scan`` that every tree grows through (AdaBoost's stumps
    included), and the hand-rolled searches, node stores and serial-fit
    flag it replaced stay gone: ``_gini_best_split``, ``DecisionTree``,
    ``_RegressionTree``, ``_XGBTree``, ``_WeightedStump``, ``_SERIAL_FIT``
    (with ``_set_serial_fit``) and the seven unused ``get_params``."""
    import ast
    src = (pathlib.Path(__file__).resolve().parents[1] / "engine"
           / "matching.py").read_text()
    scan = [node for node in ast.walk(ast.parse(src))
            if isinstance(node, ast.FunctionDef) and node.name == "_scan"]
    assert len(scan) == 1
    inside = range(scan[0].lineno, scan[0].end_lineno + 1)
    sorts = [src.count("\n", 0, m.start()) + 1
             for m in re.finditer(r"argsort\(", src)]
    assert len(sorts) == 1 and sorts[0] in inside, sorts
    assert re.search(r"argsort\([^()]*kind=\"stable\"\)", src)
    gone = re.findall(r"_gini_best_split|DecisionTree|_RegressionTree"
                      r"|_XGBTree|_WeightedStump|_SERIAL_FIT|_set_serial_fit"
                      r"|get_params", src)
    assert not gone, gone


def test_parquet_is_read_only_through_the_one_datasource():
    """engine/*.py reads parquet into a Dataset only through
    storage.read_parquet_clean, which plans a read from the files' footers:
    no ``read_parquet(`` call of Ray's (it starts a sampling task per
    read) or of pandas'.  The datasource replaced the three
    ray.data.read_parquet calls read_parquet_clean made."""
    call = re.compile(r"\bread_parquet\(")
    engine = pathlib.Path(__file__).resolve().parents[1] / "engine"
    bad = []
    for f in sorted(engine.glob("*.py")):
        src = f.read_text()
        bad += [f"{f.name}:{src.count(chr(10), 0, m.start()) + 1}"
                for m in call.finditer(src)]
    assert not bad, bad


def test_map_stages_take_no_width_option():
    """engine/*.py sets no stage width: Ray Data schedules every task-pool
    map against the cluster's CPUs.  A ``concurrency`` on a map cuts it out
    of the read->map chain before it (Ray fuses two task-pool maps only
    when their concurrency is equal), and no caller set one that was not
    derived from the cluster."""
    word = re.compile(r"\b(?:concurrency|num_cpus_per_task|pool_width)\b")
    engine = pathlib.Path(__file__).resolve().parents[1] / "engine"
    bad = []
    for f in sorted(engine.glob("*.py")):
        src = f.read_text()
        bad += [f"{f.name}:{src.count(chr(10), 0, m.start()) + 1}"
                for m in word.finditer(src)]
    assert not bad, bad


def test_md5_is_computed_only_in_the_one_digest():
    """engine/*.py calls ``hashlib.md5`` only inside joins.md5_digests, the
    one digest every hashed output takes a view of (nor ``hashlib.new``,
    nor a name imported from hashlib).  The 14 hand-rolled md5
    sites it replaced: joins.stable_hash64, _bloom_positions;
    dedup.exact_dedup, _batch_shingle_hashes, simhash_signatures,
    planted_neardup_embeddings, substring_dup_stats (2);
    text.fingerprint (2), approx_distinct_kmv; multimodal's image, audio
    and video stubs."""
    import ast
    md5 = re.compile(r"hashlib\.(?:md5|new)\b|from hashlib import")
    engine = pathlib.Path(__file__).resolve().parents[1] / "engine"
    bad = []
    for f in sorted(engine.glob("*.py")):
        src = f.read_text()
        inside = {line for node in ast.walk(ast.parse(src))
                  if isinstance(node, ast.FunctionDef)
                  and (f.name, node.name) == ("joins.py", "md5_digests")
                  for line in range(node.lineno, node.end_lineno + 1)}
        for m in md5.finditer(src):
            line = src.count("\n", 0, m.start()) + 1
            if line not in inside:
                bad.append(f"{f.name}:{line}: {m.group(0)}")
    assert not bad, bad

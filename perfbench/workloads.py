"""The three workloads: ``apply``, ``apply_dense`` and ``operators``.

Each is driven from one process as a closed loop: a pass (apply) or a query
(operators) starts when the previous one has ended.  A workload object makes
its seeded inputs, sets up (timed, several times), runs passes until the
deadline, checks every output, and in traced mode records per-layer numbers.
Only public engine calls are timed.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import numpy as np

from perfbench import calibrate, checks, inputs
from perfbench.trace import Tracer, plan_stats, record_plans

SETUP_REPS = 3
K, BKAFI_DIM, TRAIN_SEED = 5, 6, 1
APPLY_CANDS = 600
DENSE_CANDS = 120
OPS_DOCS = 300
REPLAY_BATCH = 1024  # the map_batches default the fused stage sees

GROUPS = {
    "relational": ["q_lineitem_agg", "q_shipping_priority",
                   "q_customers_with_orders", "q_events_sessions",
                   "q_events_interval"],
    "corpus": ["dedup_minhash", "dedup_simhash_pairs", "text_tfidf"],
    "spatial": ["geo_range_join", "geo_block_cells", "geo_cell_hierarchy"],
}
QUERIES = [q for g in GROUPS.values() for q in g]
# the tables each query reads; a pass's input rows are their summed rows
# (the spatial queries read the property memo: one row per document)
QUERY_INPUTS = {
    "q_lineitem_agg": ["lineitem"],
    "q_shipping_priority": ["lineitem", "orders", "customer"],
    "q_customers_with_orders": ["customer", "orders"],
    "q_events_sessions": ["events"], "q_events_interval": ["events"],
    **{q: ["documents"] for q in GROUPS["corpus"] + GROUPS["spatial"]},
}

LAYER_METRICS = [
    ("storage.read_s", "s"), ("storage.bytes", "B"),
    ("properties.objects", "count"), ("properties.parse_s", "s"),
    ("properties.vertices_s", "s"), ("properties.kernel_s", "s"),
    ("properties.us_per_object", "us"), ("properties.useful_ratio", "ratio"),
    ("geometry.hull3d_s", "s"), ("geometry.hull2d_s", "s"),
    ("geometry.fan_s", "s"),
    ("blocking.topk_s", "s"), ("blocking.distances", "count"),
    ("pairs.ratio_s", "s"), ("matching.predict_s", "s"),
    ("matching.pairs_scored", "count"),
    ("pipeline.self_s", "s"), ("pipeline.tasks", "count"),
    ("pipeline.straggler", "ratio"), ("pipeline.ray_overhead_s", "s"),
    ("prepare.properties_s", "s"), ("prepare.train_s", "s"),
    ("prepare.fit_s", "s"), ("prepare.scale_stats_s", "s"),
    ("prepare.collect_s", "s"), ("prepare.other_s", "s"),
    ("quality.recall_at_5", "ratio"), ("quality.match_f1", "ratio"),
    ("trace.docs_per_s_untraced", "doc/s"), ("trace.docs_per_s_traced", "doc/s"),
    ("trace.overhead_pct", "%"), ("host.probe_s", "s"),
    ("pass.rows_per_s_raw", "1/s"),
    *[(f"op.{g}_s", "s") for g in GROUPS],
    *[m for q in QUERIES for m in ((f"op.{q}_s", "s"), (f"op.{q}.tasks", "count"),
                                   (f"op.{q}.straggler", "ratio"),
                                   (f"op.{q}.rows", "count"))],
]


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _kernel_patches(tr: Tracer, matcher_cls) -> list:
    """Module attributes the fused kernel and the property stage look up at
    call time, with the span each is charged to."""
    import engine.blocking as blk
    import engine.geometry as geo
    import engine.pipeline as pipe
    import engine.properties as props
    return [
        (pipe, "_props_batch", "properties"),
        (props, "parse_geom_payload", "properties.parse"),
        (props, "unique_vertices", "properties.vertices"),
        (props, "compute_properties", "properties.kernel",
         lambda a, out: 1),
        (geo, "convex_hull_3d_volume", "geometry.hull3d"),
        (geo, "hull_perimeter_2d", "geometry.hull2d"),
        (geo, "mesh_area", "geometry.fan"),
        (geo, "mesh_volume", "geometry.fan"),
        (geo, "mesh_perimeter", "geometry.fan"),
        (blk, "topk_l2_f32", "blocking.topk",
         lambda a, out: a[0].shape[0] * a[1].shape[0]),
        (pipe, "ratio_features", "pairs.ratio"),
        (matcher_cls, "predict", "matching.predict", lambda a, out: len(a[1])),
    ]


def _prepare_patches() -> list:
    import engine.blocking as blk
    import engine.matching as matching
    import engine.pipeline as pipe
    return [
        (pipe, "prep_train", "prepare.train"),
        (matching.RandomForest, "fit", "prepare.fit"),
        (blk, "robust_scale_stats_ds", "prepare.scale_stats"),
        (pipe, "side_frame", "prepare.collect"),
    ]


def _layer_metrics(tr: Tracer) -> dict:
    t = tr.totals()

    def tot(name):
        return t[name]["total_s"] if name in t else 0.0

    objects = tr.counts.get("properties.kernel", 0.0)
    return {
        "properties.objects": objects,
        "properties.parse_s": tot("properties.parse"),
        "properties.vertices_s": tot("properties.vertices"),
        "properties.kernel_s": t["properties.kernel"]["self_s"]
        if "properties.kernel" in t else 0.0,
        "properties.us_per_object": 1e6 * tot("properties") / objects
        if objects else 0.0,
        "geometry.hull3d_s": tot("geometry.hull3d"),
        "geometry.hull2d_s": tot("geometry.hull2d"),
        "geometry.fan_s": tot("geometry.fan"),
        "blocking.topk_s": tot("blocking.topk"),
        "blocking.distances": tr.counts.get("blocking.topk", 0.0),
        "pairs.ratio_s": tot("pairs.ratio"),
        "matching.predict_s": tot("matching.predict"),
        "matching.pairs_scored": tr.counts.get("matching.predict", 0.0),
        "pipeline.self_s": t["pipeline"]["self_s"] if "pipeline" in t else 0.0,
        "prepare.properties_s": tot("prepare.properties"),
        "prepare.train_s": t["prepare.train"]["self_s"]
        if "prepare.train" in t else 0.0,
        "prepare.fit_s": tot("prepare.fit"),
        "prepare.scale_stats_s": tot("prepare.scale_stats"),
        "prepare.collect_s": tot("prepare.collect"),
        "prepare.other_s": t["prepare"]["self_s"] if "prepare" in t else 0.0,
    }


class Workload:
    """Shared driver: set up SETUP_REPS times, then passes until the deadline."""

    def __init__(self, work: str, seed: int, trace: bool):
        self.work, self.seed, self.trace = work, seed, trace
        self.tracer = Tracer()
        self.issues: list[str] = []
        self.attempted = self.failed = 0
        self.layers: dict[str, float] = {}
        self.probes: list[float] = []

    def run(self, seconds: float) -> dict:
        self.make_inputs()
        # set-ups and passes are scaled to reference speed by the probes
        # just around each (see calibrate.py)
        setups = []
        before = calibrate.probe()
        for _ in range(1 if self.trace else SETUP_REPS):
            wall = self.setup_once()
            after = calibrate.probe()
            setups.append(wall / calibrate.speed_factor(before + after))
            self.probes += before
            before = after
        walls, rates, rows = [], [], 0
        deadline = time.perf_counter() + seconds
        while True:
            wall, n = self.one_pass()
            after = calibrate.probe()
            walls.append(wall)
            rows += n
            rates.append(n / wall * calibrate.speed_factor(before + after))
            self.probes += before
            before = after
            if time.perf_counter() >= deadline:
                break
        self.probes += before
        self.pass_walls = walls
        if self.trace:
            self.replay()
            self.layers.update({"host.probe_s": _median(self.probes),
                                "pass.rows_per_s_raw": rows / sum(walls)})
        return {"setup_s": _median(setups), "rows_per_s": _median(rates)}

    def fail(self, what: str, issues: list[str]) -> None:
        self.failed += 1
        self.issues.extend(f"{what}: {i}" for i in issues)


class ApplyWorkload(Workload):
    """prepare_state, then the fused matching_inference_pipeline over the whole
    corpus per pass (k=5, bkafi_dim=6)."""

    name = "apply"
    n_cands = APPLY_CANDS
    # the traced run also times one operators pass, whose per-query layers
    # the benchmark's workloads would not measure otherwise
    traces_operators = True

    def make_inputs(self) -> None:
        from datagen.buildings import building_params
        from engine.corpus import ensure_corpus
        self.sf_dir = inputs.apply_keys(self.work, self.seed, self.n_cands)
        self.corpus_dir = ensure_corpus(self.sf_dir)
        import pyarrow.parquet as pq
        self.cand_ids = pq.read_table(os.path.join(
            self.sf_dir, "documents.parquet")).column("doc_id").to_numpy()
        self.matched = np.array([k for k in self.cand_ids.tolist()
                                 if building_params(k)["matched"]])

    def docs(self):
        from engine.corpus import corpus_dataset
        return corpus_dataset(self.sf_dir)

    def setup_once(self) -> float:
        from engine.pipeline import prepare_state
        from engine.properties import properties_dataset
        tr = self.tracer if self.trace else Tracer()
        t0 = time.perf_counter()
        with tr.wrap(_prepare_patches() if self.trace else []), \
                tr.span("prepare"):
            with tr.span("prepare.properties"):
                props = properties_dataset(self.docs()).materialize()
            self.state = prepare_state(self.sf_dir, props=props,
                                       seed=TRAIN_SEED, bkafi_dim=BKAFI_DIM,
                                       k=K)
        wall = time.perf_counter() - t0
        self.n_docs = props.count()
        self.reference = checks.stored_digests().get(self.key())
        self.first_digest = None
        self.overheads = []  # per traced pass: wall minus summed task wall
        return wall

    def key(self) -> str:
        return f"{self.name}:n{self.n_cands}:s{self.seed}"

    def run(self, seconds: float) -> dict:
        res = super().run(seconds)
        if self.trace and self.traces_operators:
            ops = OperatorsWorkload(self.work, self.seed, True)
            ops.make_inputs()
            ops.setup_once()
            ops.one_pass()
            self.layers.update(ops.query_layers())
            self.attempted += ops.attempted
            self.failed += ops.failed
            self.issues += ops.issues
        return res

    def one_pass(self) -> tuple[float, int]:
        from engine.pipeline import matching_inference_pipeline
        self.attempted += 1
        plans = record_plans() if self.trace else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with plans as stats:
                df = checks.to_pandas(
                    matching_inference_pipeline(self.docs(), self.state))
        except Exception as e:  # a raising pass counts as failed
            self.fail("pass", [f"{type(e).__name__}: {e}"])
            return time.perf_counter() - t0, 0
        wall = time.perf_counter() - t0
        try:
            self.check(df)
        except Exception as e:  # output too broken to check
            self.fail("pass", [f"check raised {type(e).__name__}: {e}"])
        if self.trace:
            ps = plan_stats(stats or [])
            self.layers.setdefault("pipeline.tasks", ps["tasks"])
            self.layers["pipeline.straggler"] = max(
                self.layers.get("pipeline.straggler", 0.0), ps["straggler"])
            self.overheads.append(wall - ps["task_wall_s"])
        return wall, self.n_docs

    def check(self, df) -> None:
        issues = checks.check_pairs(df, self.cand_ids, K)
        d = checks.pair_digest(df)
        want = self.reference["pairs"] if self.reference else self.first_digest
        if want is not None and d != want:
            issues.append("pair digest differs from "
                          + ("the stored one" if self.reference else "pass 1"))
        self.first_digest = self.first_digest or d
        q = checks.quality(df, self.matched)
        if self.reference:
            for m in ("recall_at_5", "match_f1"):
                if q[m] != self.reference[m]:
                    issues.append(f"{m} {q[m]} != stored {self.reference[m]}")
        elif q["recall_at_5"] < 0.5 or q["match_f1"] < 0.3:
            issues.append(f"quality too low: {q}")
        self.quality = q
        self.last_pairs = df
        if issues:
            self.fail("pass", issues)

    def replay(self) -> None:
        """In-process replay of fused_apply_batch over the corpus batches:
        once plain, once with every kernel layer wrapped."""
        from engine.pipeline import fused_apply_batch
        from engine.storage import read_parquet_clean
        tr = self.tracer
        with tr.span("storage.read"):
            batches = list(read_parquet_clean(self.corpus_dir).iter_batches(
                batch_size=REPLAY_BATCH, batch_format="pyarrow"))
        s = self.state
        idx_sq = (s["idx_scaled"] * s["idx_scaled"]).sum(1)
        log = bool(s.get("log_transform", False))
        t0 = time.perf_counter()
        for b in batches:
            fused_apply_batch(b, s, idx_sq, log)
        plain = time.perf_counter() - t0
        outs = []
        self.attempted += 1
        t0 = time.perf_counter()
        with tr.wrap(_kernel_patches(tr, type(s["matcher"]))):
            for b in batches:
                with tr.span("pipeline"):
                    outs.append(fused_apply_batch(b, s, idx_sq, log))
        traced = time.perf_counter() - t0
        import pyarrow as pa
        if checks.pair_digest(pa.concat_tables(outs).to_pandas()) != \
                checks.pair_digest(self.last_pairs):
            self.fail("replay", ["in-process replay differs from the Ray pass"])
        n = sum(b.num_rows for b in batches)
        m = _layer_metrics(tr)
        m.update({
            "storage.read_s": tr.totals()["storage.read"]["total_s"],
            "storage.bytes": float(sum(b.nbytes for b in batches)),
            "properties.useful_ratio": len(self.cand_ids) / m["properties.objects"]
            if m["properties.objects"] else 0.0,
            "pipeline.ray_overhead_s": _median(self.overheads),
            "quality.recall_at_5": self.quality["recall_at_5"],
            "quality.match_f1": self.quality["match_f1"],
            "trace.docs_per_s_untraced": n / plain,
            "trace.docs_per_s_traced": n / traced,
            "trace.overhead_pct": 100.0 * (traced / plain - 1.0),
        })
        self.layers.update(m)


class DenseWorkload(ApplyWorkload):
    """The same two calls over the benchmark's own dense-mesh corpus, read
    with read_parquet_clean and passed to prepare_state as ``props``."""

    name = "apply_dense"
    n_cands = DENSE_CANDS
    traces_operators = False

    def make_inputs(self) -> None:
        from perfbench import dense
        self.corpus_dir = inputs.dense_corpus(self.work, self.seed, self.n_cands)
        self.sf_dir = self.corpus_dir
        self.cand_ids = inputs.dense_keys(self.seed, self.n_cands)
        self.matched = np.array([k for k in self.cand_ids.tolist()
                                 if dense.building(self.seed, k)["matched"]])

    def docs(self):
        from engine.corpus import size_aware_blocks
        from engine.storage import read_parquet_clean
        return read_parquet_clean(
            self.corpus_dir,
            override_num_blocks=size_aware_blocks(self.corpus_dir, 64))


class OperatorsWorkload(Workload):
    """11 engine queries in a fixed order per pass, after a set-up that warms
    the property memo with geo_properties_all.  Each query result is
    collected and compared by digest with its DuckDB oracle."""

    name = "operators"

    def make_inputs(self) -> None:
        from engine.corpus import ensure_corpus
        self.sf_dir = inputs.operator_tables(self.work, self.seed, OPS_DOCS)
        self.corpus_dir = ensure_corpus(self.sf_dir)
        key = f"{self.name}:d{OPS_DOCS}:s{self.seed}"
        self.oracle = checks.stored_digests().get(key) or \
            oracle_digests(self.work, self.sf_dir)
        self.query_walls = {q: [] for q in QUERIES}
        self.query_stats = {q: [] for q in QUERIES}
        self.query_rows = {}
        import pyarrow.parquet as pq
        n = {t: pq.ParquetFile(os.path.join(self.sf_dir, f"{t}.parquet"))
             .metadata.num_rows for ts in QUERY_INPUTS.values() for t in ts}
        self.input_rows = sum(n[t] for q in QUERIES for t in QUERY_INPUTS[q])

    def setup_once(self) -> float:
        from engine import queries as Q
        Q._PROPS_CACHE.pop(self.sf_dir, None)  # re-warm on every repetition
        t0 = time.perf_counter()
        Q.geo_properties_all(self.sf_dir)
        return time.perf_counter() - t0

    def one_pass(self) -> tuple[float, int]:
        from engine import queries as Q
        t_pass = time.perf_counter()
        for q in QUERIES:
            self.attempted += 1
            plans = record_plans() if self.trace else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with plans as stats:
                    df = checks.to_pandas(Q.QUERIES[q](self.sf_dir))
            except Exception as e:
                self.fail(q, [f"{type(e).__name__}: {e}"])
                continue
            self.query_walls[q].append(time.perf_counter() - t0)
            if self.trace:
                self.query_stats[q].append(plan_stats(stats or []))
            self.query_rows[q] = len(df)
            if checks.digest(df) != self.oracle[q]:
                self.fail(q, ["output digest differs from the DuckDB oracle"])
        return time.perf_counter() - t_pass, self.input_rows

    def group_walls(self) -> dict[str, float]:
        """Median over passes of each group's summed query walls."""
        n = min(len(w) for w in self.query_walls.values())
        return {g: _median([sum(self.query_walls[q][i] for q in qs)
                            for i in range(n)])
                for g, qs in GROUPS.items()}

    def replay(self) -> None:
        """Property layers from an in-process replay of the property stage
        over the corpus batches the warm-up reads."""
        from engine.properties import _props_batch
        from engine.storage import read_parquet_clean
        tr = self.tracer
        with tr.span("storage.read"):
            batches = list(read_parquet_clean(self.corpus_dir).iter_batches(
                batch_size=256, batch_format="pyarrow"))
        t0 = time.perf_counter()
        for b in batches:
            _props_batch(b, False)
        plain = time.perf_counter() - t0
        kept = 0
        t0 = time.perf_counter()
        with tr.wrap(_kernel_patches(tr, object)):
            import engine.properties as props
            for b in batches:
                with tr.span("properties"):
                    kept += props._props_batch(b, False).num_rows
        traced = time.perf_counter() - t0
        n = sum(b.num_rows for b in batches)
        m = _layer_metrics(tr)
        m.update({
            "storage.read_s": tr.totals()["storage.read"]["total_s"],
            "storage.bytes": float(sum(b.nbytes for b in batches)),
            "properties.useful_ratio": kept / m["properties.objects"]
            if m["properties.objects"] else 0.0,
            "trace.docs_per_s_untraced": n / plain,
            "trace.docs_per_s_traced": n / traced,
            "trace.overhead_pct": 100.0 * (traced / plain - 1.0),
        })
        m.update(self.query_layers())
        self.layers.update(m)

    def query_layers(self) -> dict[str, float]:
        """Per-pass group walls and per-query walls, task counts, straggler
        ratios and result rows of the traced passes."""
        m = {f"op.{g}_s": w for g, w in self.group_walls().items()}
        for q in QUERIES:
            st = self.query_stats[q]
            m[f"op.{q}_s"] = _median(self.query_walls[q])
            m[f"op.{q}.tasks"] = _median([s["tasks"] for s in st])
            m[f"op.{q}.straggler"] = max((s["straggler"] for s in st), default=0.0)
            m[f"op.{q}.rows"] = float(self.query_rows.get(q, 0))
        return m


def oracle_digests(work: str, sf_dir: str) -> dict[str, str]:
    """Digest of every query's DuckDB oracle over ``sf_dir``, computed once
    per input directory and cached next to it."""
    import json

    import duckdb

    from engine.queries import oracle_sql
    path = os.path.join(sf_dir, "oracle_digests.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "events", "documents"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{os.path.join(sf_dir, t + '.parquet')}')")
    sql = oracle_sql()
    out = {q: checks.digest(con.sql(sql[q]).df()) for q in QUERIES}
    con.close()
    with open(path + ".tmp", "w") as f:
        json.dump(out, f)
    os.replace(path + ".tmp", path)
    return out


WORKLOADS = {"apply": ApplyWorkload, "apply_dense": DenseWorkload,
             "operators": OperatorsWorkload}

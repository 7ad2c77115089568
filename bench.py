"""Benchmark harness.

    python bench.py             # one JSON line: headline + per-query seconds
    python bench.py --scaling   # run at 8 and 32 CPUs in fresh processes,
                                # report throughputs + scaling efficiency

Headline metric: wall seconds (and docs/sec) of the fused matching-inference
pipeline — interleaved docs -> geometry parse -> 25 properties -> BKAFI kNN
blocking -> ratio features -> match classification, one streaming execution
with prepared state broadcast (mirrors the reference, whose Table 3 blocking
times also exclude training/property prep).  Training/prep wall time is
reported separately as prepare_sec.

Each query's entry under "queries" is its wall seconds; "query_memos" names
the shared materializations (engine.queries memos) the query built ("cold")
and the ones it reused ("warm").

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS (default 32),
GEO_BENCH_CANDS (default 80000 -> 228k docs; corpus cached in /tmp across
runs so generation never pollutes timings).
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def memo_tags(before: dict, after: dict) -> dict[str, list[str]]:
    """The memos a query built ("cold") and the ones it only reused
    ("warm"), from the (hits, misses) counters read around it."""
    cold = [m for m in after if after[m][1] > before[m][1]]
    warm = [m for m in after if after[m][0] > before[m][0] and m not in cold]
    return {"cold": cold, "warm": warm}


def run_bench() -> dict:
    import ray
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    n_cands = int(os.environ.get("GEO_BENCH_CANDS", "80000"))
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from engine import queries as Q
    from engine.corpus import corpus_dataset, ensure_corpus
    from engine.pipeline import (matching_inference_pipeline, prepare_state)
    from engine.properties import properties_dataset

    # pre-generate corpora (cached; excluded from timings) + warm page cache
    ensure_corpus(sf_dir, n_cands)
    ensure_corpus(sf_dir)
    n_docs = corpus_dataset(sf_dir, n_cands).count()

    timings: dict[str, float] = {}

    # prepare (train) phase — reported, not the headline
    t0 = time.time()
    state = prepare_state(sf_dir, n_cands, seed=1, bkafi_dim=6, k=5,
                          cache=os.environ.get("BENCH_CACHE_STATE") == "1")
    timings["prepare_sec"] = round(time.time() - t0, 3)

    # headline: fused apply pipeline over the full two-source corpus.
    # Min of N trials: this host has +-20% scheduling jitter and the
    # first execution pays worker-process warmup (3 trials in scaling mode,
    # where the jitter directly moves the efficiency ratio).
    docs = corpus_dataset(sf_dir, n_cands)
    n_trials = int(os.environ.get(
        "BENCH_TRIALS", "3" if os.environ.get("BENCH_FAST") == "1" else "2"))
    if os.environ.get("BENCH_WARMUP") == "1":
        # One untimed execution per side (symmetric): Ray worker-process
        # spawn + module import + first-touch page faults happen here, so
        # the timed trials measure steady-state throughput — the regime a
        # multi-hour 100 TB job actually runs in.  The 32-cpu side spawns
        # 4x the workers of the 8-cpu side, so WITHOUT this the warmup tax
        # lands asymmetrically on the wide side of a scaling pair.
        matching_inference_pipeline(docs, state).count()
    trials = []
    for _ in range(n_trials):
        t0 = time.time()
        n_pairs = matching_inference_pipeline(docs, state).count()
        trials.append(time.time() - t0)
    headline = min(trials)
    timings["pipeline_sec"] = round(headline, 3)
    timings["pipeline_trials"] = [round(t, 3) for t in trials]
    timings["pipeline_docs_per_s"] = round(n_docs / headline, 1)
    timings["pipeline_pairs"] = n_pairs

    if os.environ.get("BENCH_FAST") == "1":  # scaling mode: headline only
        return {
            "metric": "matching_pipeline_sec", "value": round(headline, 3),
            "unit": "sec", "queries": timings, "sf": sf_dir,
            "num_cpus": num_cpus, "bench_cands": n_cands,
            "bench_docs": n_docs,
            "docs_per_s": timings["pipeline_docs_per_s"],
        }

    # properties-only throughput (the reference's Table 7 stage: ~220 obj/s)
    t0 = time.time()
    nrows = properties_dataset(corpus_dataset(sf_dir, n_cands)).count()
    dt = time.time() - t0
    timings["properties_sec"] = round(dt, 3)
    timings["properties_objs_per_s"] = round(nrows / dt, 1)

    # operator benches over the standard sf corpus/tables, each tagged with
    # the shared materializations (engine.queries memos) it built or reused
    memos: dict[str, dict[str, list[str]]] = {}
    for name in ("geo_tiles", "geo_knn_spatial", "geo_pip", "q_lineitem_agg",
                 "q_events_hourly", "dedup_minhash", "sim_knn_cosine",
                 "text_tfidf", "dedup_substring", "pack_sequences",
                 "geo_render", "media_resize", "multimodal_real",
                 "media_audio", "geo_block_cells", "geo_cell_hierarchy",
                 "reservoir_sample", "q_shipping_priority", "approx_distinct",
                 "media_video", "curation_pipeline", "q_events_heavy_hitters",
                 "q_events_interval", "q_events_quantiles"):
        before = Q.memo_counts()
        t0 = time.time()
        out = Q.QUERIES[name](sf_dir)
        if hasattr(out, "count"):
            out.count()
        timings[name] = round(time.time() - t0, 3)
        memos[name] = memo_tags(before, Q.memo_counts())

    return {
        "metric": "matching_pipeline_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": timings,
        "query_memos": memos,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "bench_cands": n_cands,
        "bench_docs": n_docs,
        "docs_per_s": timings["pipeline_docs_per_s"],
    }


def _scaling_pair(lo: int, hi: int, n_cands: int | None = None) -> dict:
    import subprocess
    out = {}
    for ncpu in (lo, hi):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BENCH_FAST="1",
                   BENCH_CACHE_STATE="1", BENCH_WARMUP="1")
        if n_cands:
            env["GEO_BENCH_CANDS"] = str(n_cands)
            env.setdefault("BENCH_TRIALS", "2")  # keep the small pair short
        r = subprocess.run([sys.executable, os.path.abspath(__file__)],
                           env=env, capture_output=True, text=True, check=True)
        out[ncpu] = json.loads(r.stdout.strip().splitlines()[-1])
    thr_lo, thr_hi = out[lo]["docs_per_s"], out[hi]["docs_per_s"]
    return {
        f"sec_{lo}": out[lo]["value"], f"sec_{hi}": out[hi]["value"],
        f"docs_per_s_{lo}": thr_lo, f"docs_per_s_{hi}": thr_hi,
        "efficiency": round(thr_hi / (4.0 * thr_lo), 3),
        "out": out,
    }


def run_scaling():
    """Primary pair 8->32 cpus on the full bench corpus; secondary pair
    2->8 cpus on a quarter-size corpus (both are 'N and 4N' runs; the
    smaller pair avoids this host's sustained-full-width slowdown and shows
    the pipeline's intrinsic scaling)."""
    main = _scaling_pair(8, 32)
    small = _scaling_pair(2, 8, n_cands=20000)
    print(json.dumps({
        "sec_8": main["sec_8"], "sec_32": main["sec_32"],
        "docs_per_s_8": main["docs_per_s_8"],
        "docs_per_s_32": main["docs_per_s_32"],
        "scaling_efficiency": main["efficiency"],
        "scaling_efficiency_2_to_8": small["efficiency"],
        "docs_per_s_2": small["docs_per_s_2"],
        "docs_per_s_8_small": small["docs_per_s_8"],
        "queries_8": main["out"][8]["queries"],
        "queries_32": main["out"][32]["queries"],
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        result = run_bench()
        import ray
        ray.shutdown()
        print(json.dumps(result))

"""Hardware-envelope control for the scaling criterion (BASELINE.md).

Measures, IN ONE INVOCATION (so all numbers come from the same host
window), at widths N and 4N (default 8 / 32):

  1. the BARE envelope — `pipeline.fused_apply_batch` (the exact per-batch
     work the Ray pipeline runs: parse -> 25 properties -> scale -> kNN ->
     ratio features -> classify) under a plain multiprocessing Pool over
     preloaded private batches: no Ray, no object store, no scheduler —
     an upper bound on what ANY executor could sustain on this host
     (results are reduced to row counts in the child, so the bare path
     also skips the result-shipping cost a real engine must pay);
  2. the RAY pipeline — the same `bench.py --scaling` primary-pair
     protocol (fresh process per width, untimed warmup + min-of-3).

Reported: docs/s for both paths at both widths, both efficiencies
(thr_4N / (4 * thr_N)), and the per-width Ray/bare ratio.  If Ray sits
near the bare envelope at BOTH widths, the sub-1.0 scaling efficiency is
host hardware (memory bandwidth / steal), not engine design — the
alternative evidence path the round-3 verdict names for the >=0.8 bar.

Usage: python jobs/envelope_control.py [--widths 8 32] [--trials 3]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# child-side globals, inherited via fork (private copy-on-write pages —
# each worker reads its own page-cache copy, no shared memory segment)
_BATCHES = None
_STATE = None
_IDX_SQ = None
_LOG = False


def _work(i: int) -> int:
    from engine.pipeline import fused_apply_batch
    return fused_apply_batch(_BATCHES[i], _STATE, _IDX_SQ, _LOG).num_rows


def bare_width(width: int, trials: int) -> dict:
    """Min-of-`trials` wall seconds for one full corpus pass at `width`
    processes (dynamic scheduling via chunksize=1), after one untimed
    warmup pass on a warm pool — mirroring the Ray protocol."""
    ctx = mp.get_context("fork")
    with ctx.Pool(width) as pool:
        pool.map(_work, range(len(_BATCHES)), chunksize=1)  # warmup
        walls = []
        for _ in range(trials):
            t0 = time.time()
            n_pairs = sum(pool.map(_work, range(len(_BATCHES)), chunksize=1))
            walls.append(time.time() - t0)
    return {"sec": round(min(walls), 3),
            "trials": [round(w, 3) for w in walls], "pairs": n_pairs}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--widths", nargs=2, type=int, default=[8, 32])
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--sf-dir", default=os.environ.get(
        "GRAFT_SF_DIR", "/root/testdata/sf0.1"))
    ap.add_argument("--n-cands", type=int, default=int(os.environ.get(
        "GEO_BENCH_CANDS", "80000")))
    ap.add_argument("--skip-ray", action="store_true",
                    help="bare envelope only (no Ray pair)")
    ap.add_argument("--loops", type=int, default=1,
                    help="repeat the (bare, Ray) pairing N times in one "
                         "invocation — paired samples across a longer "
                         "window stretch, inputs staged once")
    args = ap.parse_args()
    lo, hi = args.widths

    # ---- stage the inputs with Ray (excluded from all timings) ----------
    import ray
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from engine.corpus import corpus_dataset, ensure_corpus
    from engine.pipeline import prepare_state
    ensure_corpus(args.sf_dir, args.n_cands)
    state = prepare_state(args.sf_dir, args.n_cands, seed=1, bkafi_dim=6,
                          k=5, cache=True)
    # the same 1024-row pyarrow batches map_batches feeds the fused fn
    batches = list(corpus_dataset(args.sf_dir, args.n_cands)
                   .iter_batches(batch_size=1024, batch_format="pyarrow"))
    n_docs = sum(b.num_rows for b in batches)
    ray.shutdown()

    global _BATCHES, _STATE, _IDX_SQ, _LOG
    _BATCHES, _STATE = batches, state
    _IDX_SQ = (state["idx_scaled"] * state["idx_scaled"]).sum(1)
    _LOG = bool(state.get("log_transform", False))

    import subprocess

    def ray_width(w: int) -> float:
        """Ray docs/s at one width (fresh process, warmup + min-of-3 —
        the bench --scaling per-width protocol)."""
        env = dict(os.environ, RAY_GRAFT_CPUS=str(w), BENCH_FAST="1",
                   BENCH_CACHE_STATE="1", BENCH_WARMUP="1")
        r = subprocess.run(
            [sys.executable,
             os.path.join(os.path.dirname(os.path.dirname(
                 os.path.abspath(__file__))), "bench.py")],
            env=env, capture_output=True, text=True, check=True)
        return json.loads(r.stdout.strip().splitlines()[-1])["docs_per_s"]

    for _ in range(args.loops):
        # Pair bare and Ray PER WIDTH, adjacently: the host's windows flip
        # on minute scales, so (bare-8 | ray-8) then (bare-32 | ray-32)
        # keeps each compared pair inside ~3 minutes — the all-bare-then-
        # all-Ray ordering let a window flip land between the halves and
        # poison the ratio in either direction (runs 6-9 of the recorded
        # series).
        result = {"n_docs": n_docs, "n_batches": len(batches)}
        thr, rthr = {}, {}
        for w in (lo, hi):
            bare = bare_width(w, args.trials)
            thr[w] = round(n_docs / bare["sec"], 1)
            result[f"bare_docs_per_s_{w}"] = thr[w]
            result[f"bare_trials_{w}"] = bare["trials"]
            if not args.skip_ray:
                rthr[w] = ray_width(w)
                result[f"ray_docs_per_s_{w}"] = rthr[w]
                result[f"ray_over_bare_{w}"] = round(rthr[w] / thr[w], 3)
        result["bare_efficiency"] = round(thr[hi] / (4.0 * thr[lo]), 3)
        if not args.skip_ray:
            result["ray_efficiency"] = round(rthr[hi] / (4.0 * rthr[lo]), 3)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

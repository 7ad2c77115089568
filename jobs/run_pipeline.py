"""CLI entry (the `ray job submit` target): run the flagship pipeline with
per-stage checkpointing, write outputs + metrics.

    python jobs/run_pipeline.py --sf-dir /root/testdata/sf0.001 \
        --out /tmp/geo_run --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    ap.add_argument("--out", default="/tmp/geo_run")
    ap.add_argument("--n-cands", type=int, default=None)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--bkafi-dim", type=int, default=6)
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from engine.checkpoint import run_stage
    from engine.corpus import corpus_dataset
    from engine.pipeline import run_flagship, seed_averaged_eval
    from engine.properties import properties_dataset
    from engine.spatial import tiles_dataset

    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()
    props = run_stage(args.out, "properties",
                      lambda: properties_dataset(
                          corpus_dataset(args.sf_dir, args.n_cands)),
                      lineage={"input": args.sf_dir, "n_cands": args.n_cands})
    run_stage(args.out, "tiles", lambda: tiles_dataset(props, res=11),
              lineage={"input": f"{args.out}/properties"})

    ev = seed_averaged_eval(args.sf_dir, seeds=args.seeds,
                            n_cands=args.n_cands, bkafi_dim=args.bkafi_dim,
                            k=args.k)
    ev.to_csv(os.path.join(args.out, "metrics_seed_avg.csv"), index=False)
    means = ev[ev.seed == -1].set_index("normalization")
    summary = {
        "wall_s": round(time.time() - t0, 1),
        # one mean row per normalization mode (raw + log_transform)
        "mean_f1": {n: float(r.f1) for n, r in means.iterrows()},
        "mean_recall_at_1": {n: float(r["blocking_recall_at_1"])
                             for n, r in means.iterrows()},
        "out": args.out,
    }
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    main()

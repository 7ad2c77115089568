"""Record the reference digests the output checks compare against.

    python3 perfbench/record.py --seeds 0-24

Run from the repository root.  For ``operators`` the digests come from the
DuckDB oracles; for the apply workloads they are the pair table and quality
of one pass of the engine at the current commit.  Results are merged into
perfbench/digests.json.  Re-record only when a workload's inputs change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-19")
    ap.add_argument("--workloads", nargs="+",
                    default=["apply", "apply_dense", "operators"])
    args = ap.parse_args(argv)
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, ROOT)
    import ray

    import engine.corpus
    from perfbench import checks, run, workloads
    work = os.path.join(os.getcwd(), run.WORK_DIR)
    engine.corpus.CORPUS_ROOT = os.path.join(work, "corpus")
    stored = checks.stored_digests()
    run._start_ray(work, run.NUM_CPUS)
    try:
        for name in args.workloads:
            for seed in _seeds(args.seeds):
                wl = workloads.WORKLOADS[name](work, seed, False)
                wl.make_inputs()
                if name == "operators":
                    key = f"{name}:d{workloads.OPS_DOCS}:s{seed}"
                    stored[key] = wl.oracle
                else:
                    wl.setup_once()
                    wl.reference = None
                    wl.one_pass()
                    if wl.failed:
                        raise SystemExit(f"{name} seed {seed}: {wl.issues}")
                    key = wl.key()
                    stored[key] = {"pairs": wl.first_digest, **wl.quality}
                print(key, flush=True)
    finally:
        ray.shutdown()
    with open(checks.STORED, "w") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point.

    python3 perfbench/run.py --workload apply --seed 1 --seconds 25 --trace 0

Run from the repository root.  Workloads: apply, apply_dense, operators (see
perfbench/NOTES.md; BENCHMARK.json lists the first two).  Inputs are
generated from --seed into .perfbench_work/ under the current directory;
Ray starts there with one CPU.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"};
with --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = ".perfbench_work"
# Ray's unix socket paths must stay under 108 bytes; the session directory
# adds ~62 characters to the temp dir
MAX_RAY_TEMP = 44
# one CPU, whatever the host offers: the closed loop then measures the
# engine's single-core cost and does not change with the machine's width
NUM_CPUS = 1


def _start_ray(work: str, num_cpus: int) -> None:
    import ray
    temp = os.path.join(work, "ray")
    kwargs = {"_temp_dir": temp} if len(temp) <= MAX_RAY_TEMP else {}
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 * 1024, **kwargs)
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _stop_children(started: list[int], timeout: float = 20.0) -> None:
    """Wait until every process in ``started`` (this process's descendants
    before ``ray.shutdown``; those whose parent exits first are re-parented
    and no longer show as descendants) and every remaining descendant has
    ended.  Reaps this process's zombie children; kills what outlives
    ``timeout``."""
    from perfbench.trace import descendants
    me = os.getpid()
    deadline, killed = time.monotonic() + timeout, False
    while True:
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        left = [p for p in set(started) | set(descendants(me))
                if p != me and _running(p)]
        if not left:
            return
        if time.monotonic() >= deadline:
            if killed:
                return
            for p in left:
                with contextlib.suppress(OSError):
                    os.kill(p, signal.SIGKILL)
            deadline, killed = time.monotonic() + 5.0, True
        time.sleep(0.1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # single-threaded BLAS in this process and in the Ray workers it starts
    os.environ["OMP_NUM_THREADS"] = "1"

    for pkg in ("engine", "datagen"):
        if not os.path.isdir(os.path.join(ROOT, pkg)):
            print(f"perfbench: no {pkg}/ package under {ROOT}; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, ROOT)
    from perfbench import workloads
    from perfbench.trace import MemorySampler, descendants
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(os.getcwd(), WORK_DIR)
    os.makedirs(work, exist_ok=True)
    import engine.corpus
    engine.corpus.CORPUS_ROOT = os.path.join(work, "corpus")

    import ray
    wl = workloads.WORKLOADS[args.workload](work, args.seed, bool(args.trace))
    with MemorySampler() as mem:
        t0 = time.perf_counter()
        _start_ray(work, NUM_CPUS)
        ray_s = time.perf_counter() - t0
        try:
            res = wl.run(args.seconds)
        finally:
            started = descendants(os.getpid())
            ray.shutdown()
            _stop_children(started)
    for line in wl.issues:
        print(f"perfbench: {line}", file=sys.stderr)
    print("perfbench: pass walls " + " ".join(f"{w:.3f}" for w in wl.pass_walls)
          + f"; speed probe median {statistics.median(wl.probes):.4f} s",
          file=sys.stderr)

    if args.trace:
        wl.tracer.write(os.path.join(
            work, "trace", f"{args.workload}-s{args.seed}.json"))
        metrics = {name: {"value": float(wl.layers.get(name, 0.0)), "unit": unit}
                   for name, unit in workloads.LAYER_METRICS}
    else:
        metrics = {
            "setup_s": {"value": ray_s + res["setup_s"], "unit": "s"},
            "rows_per_s": {"value": res["rows_per_s"], "unit": "1/s"},
            "peak_mem_mb": {"value": mem.peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": wl.failed == 0, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

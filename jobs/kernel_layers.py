"""In-process layer times of the fused apply kernel.

    python jobs/kernel_layers.py --seed 43 [--trials 15] \\
        [--workload apply_dense]

Run from the repository root.  For each workload (default: apply and
apply_dense), the benchmark's own inputs and prepared state are built
through ``perfbench.workloads`` in .perfbench_work/ on a one-CPU Ray, as
``perfbench/run.py`` builds them.  The corpus is then read as the pass reads
it (its read blocks) and ``pipeline.fused_apply_batch`` runs over those
blocks in this process.  Printed, in ms: the whole call over all blocks
(min over --trials plain runs) and each layer's summed time over the blocks
(min over --trials runs with the layers wrapped).  The layers nest: the
parse and geometry layers are parts of ``_props_batch``.  A layer the pass
never calls through its module attribute prints ``not called`` and the
script exits 1, so a renamed or inlined layer does not read as 0 ms.

The traced perfbench run reads its kernel layers from wrappers of the former
one-object-at-a-time calls, which the batch kernel no longer makes, so it
reports 0 for them; this script times the calls the kernel makes now.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _layers(matcher_cls) -> list:
    """(module or class, attribute, label) of every layer timed."""
    import engine.blocking as blk
    import engine.geometry as geo
    import engine.pipeline as pipe
    import engine.properties as props
    return [
        (pipe, "_props_batch", "properties._props_batch"),
        (geo, "_read_payloads", "geometry._read_payloads"),
        (props, "batch_properties", "geometry.batch_properties"),
        (geo, "_distinct", "geometry._distinct"),
        (geo, "_vertex_orders", "geometry._vertex_orders"),
        (geo, "_hull_volumes", "geometry._hull_volumes"),
        (geo, "_hull_perimeters", "geometry._hull_perimeters"),
        (geo, "_vertex_stats", "geometry._vertex_stats"),
        (geo, "_fan", "geometry._fan"),
        (blk, "topk_l2_f32", "blocking.topk_l2_f32"),
        (matcher_cls, "predict", "matching.predict"),
    ]


def _wrapped(layers: list, spent: dict):
    """Replace each layer by a wrapper adding its wall time to ``spent``;
    returns the undo list."""
    undo = []
    for owner, name, label in layers:
        fn = getattr(owner, name)

        def timed(*a, _fn=fn, _label=label, **kw):
            t0 = time.perf_counter()
            try:
                return _fn(*a, **kw)
            finally:
                spent[_label] = spent.get(_label, 0.0) \
                    + time.perf_counter() - t0
        setattr(owner, name, timed)
        undo.append((owner, name, fn))
    return undo


def measure(wl, trials: int) -> dict:
    """Min-of-``trials`` ms of fused_apply_batch and of its layers over
    the read blocks of ``wl``'s corpus, with ``wl`` set up."""
    import ray
    from engine.pipeline import fused_apply_batch
    blocks = ray.get(wl.docs().to_arrow_refs())
    s = wl.state
    idx_sq = (s["idx_scaled"] * s["idx_scaled"]).sum(1)
    log = bool(s.get("log_transform", False))

    def run():
        for b in blocks:
            fused_apply_batch(b, s, idx_sq, log)

    run()   # warm-up
    best = {"fused_apply_batch": float("inf")}
    for _ in range(trials):
        t0 = time.perf_counter()
        run()
        best["fused_apply_batch"] = min(best["fused_apply_batch"],
                                        time.perf_counter() - t0)
    layers = _layers(type(s["matcher"]))
    for _ in range(trials):
        spent: dict = {}
        undo = _wrapped(layers, spent)
        try:
            run()
        finally:
            for owner, name, fn in reversed(undo):
                setattr(owner, name, fn)
        for k, v in spent.items():
            best[k] = min(v, best.get(k, v))
    out = {"blocks": len(blocks), "cands": sum(
        int((b.column("source").to_numpy(zero_copy_only=False)
             == "cands").sum()) for b in blocks)}
    for k in ["fused_apply_batch", *(label for _, _, label in layers)]:
        out[k] = round(1e3 * best[k], 2) if k in best else None
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trials", type=int, default=15)
    ap.add_argument("--workload", nargs="+", default=["apply", "apply_dense"])
    args = ap.parse_args(argv)
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, ROOT)
    import ray
    import engine.corpus
    from perfbench import workloads
    from perfbench.run import NUM_CPUS, WORK_DIR, _start_ray
    work = os.path.join(os.getcwd(), WORK_DIR)
    os.makedirs(work, exist_ok=True)
    engine.corpus.CORPUS_ROOT = os.path.join(work, "corpus")
    _start_ray(work, NUM_CPUS)
    missed = []
    try:
        for name in args.workload:
            wl = workloads.WORKLOADS[name](work, args.seed, False)
            wl.make_inputs()
            wl.setup_once()
            res = measure(wl, args.trials)
            print(f"{name} seed {args.seed}: {res.pop('blocks')} read "
                  f"block(s), {res.pop('cands')} cands; min of "
                  f"{args.trials}, ms")
            for k, v in res.items():
                print(f"  {k:28s} " + ("not called" if v is None
                                       else f"{v:9.2f}"))
            missed += [k for k, v in res.items() if v is None]
    finally:
        ray.shutdown()
    if missed:
        print(f"not called through their module attribute: {missed}",
              file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

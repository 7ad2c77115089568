"""Spans, Ray Data plan statistics and memory sampling for the benchmark.

Spans are recorded from the benchmark's own files by temporarily replacing
module attributes the engine looks up at call time (``Tracer.wrap``).  A
wrapped name that is never called simply reports zero.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import threading
import time
from collections import defaultdict


class Tracer:
    """Nested spans (name, start, end, parent) plus per-name counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[i][2] = time.perf_counter()

    def wrapper(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(args, result)`` adds to
        the counter of the same name."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                self.counts[name] += count(args, out)
            return out
        return traced

    @contextlib.contextmanager
    def wrap(self, patches):
        """Replace (owner, attribute, span name[, counter]) entries for the
        duration of the block.  A missing attribute is skipped."""
        saved = []
        try:
            for owner, attr, name, *count in patches:
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                saved.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr,
                        self.wrapper(name, fn, count[0] if count else None))
            yield
        finally:
            for owner, attr, old in reversed(saved):
                if old is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, old)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: summed duration, summed self time, call count."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, t0, t1, _) in enumerate(self.spans):
            agg = out[name]
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["calls"] += 1
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


def _tasks(op) -> int:
    m = re.match(r"\s*(\d+) tasks executed", op.block_execution_summary_str or "")
    return int(m.group(1)) if m else 0


def plan_stats(summaries) -> dict:
    """Task count, straggler ratio (slowest task over the mean task, worst
    operator with at least two tasks) and summed task wall of executed Ray
    Data plans; shared parents are counted once."""
    seen, tasks, wall, straggler = set(), 0, 0.0, 1.0
    todo = list(summaries)
    while todo:
        s = todo.pop()
        key = (s.dataset_uuid, s.number, s.base_name)
        if key in seen:
            continue
        seen.add(key)
        todo.extend(s.parents)
        for op in s.operators_stats:
            n = _tasks(op)
            tasks += n
            wt = op.wall_time or {}
            wall += float(wt.get("sum", 0.0) or 0.0)
            mean = float(wt.get("mean", 0.0) or 0.0)
            if n >= 2 and mean > 0:
                straggler = max(straggler, float(wt.get("max", 0.0)) / mean)
    return {"tasks": tasks, "task_wall_s": wall, "straggler": straggler}


@contextlib.contextmanager
def record_plans():
    """Collect the stats summaries of every Ray Data plan executed inside the
    block (lazy builders are charged to the call that executes them).  On a
    Ray version without these internals the list stays empty."""
    plans = []
    try:
        from ray.data._internal.plan import ExecutionPlan
    except ImportError:
        yield plans
        return
    originals = {}
    for name in ("execute", "execute_to_iterator"):
        fn = ExecutionPlan.__dict__.get(name)
        if fn is None:
            continue
        originals[name] = fn

        def rec(self, *a, __fn=fn, **kw):
            plans.append(self)
            return __fn(self, *a, **kw)
        setattr(ExecutionPlan, name, rec)
    out: list = []
    try:
        yield out
    finally:
        for name, fn in originals.items():
            setattr(ExecutionPlan, name, fn)
        for p in plans:
            try:
                out.append(p.stats().to_summary())
            except Exception:  # stats of a plan that failed mid-run
                pass


def descendants(root: int) -> list[int]:
    children = defaultdict(list)
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children[ppid].append(int(d))
    out, todo = [], [root]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MemorySampler:
    """Peak summed PSS of this process and every process it started (the
    Ray raylet, object store and workers), sampled from /proc."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        self.peak_kb = max(self.peak_kb, sum(
            _pss_kb(p) for p in descendants(os.getpid())))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0

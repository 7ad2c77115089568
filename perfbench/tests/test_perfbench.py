"""The benchmark's own tests.

    python -m pytest perfbench/tests -q

Workload sizes are shrunk so that each run takes seconds; every run starts
and stops its own Ray session through ``run.main``.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from engine.geometry import MIN_SURFACES_NUM, mesh_volume  # noqa: E402
from perfbench import checks, dense, run, workloads  # noqa: E402

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads, one set-up, run inside a scratch directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads, "SETUP_REPS", 1)
    monkeypatch.setattr(workloads.ApplyWorkload, "n_cands", 40)
    monkeypatch.setattr(workloads.DenseWorkload, "n_cands", 8)
    monkeypatch.setattr(workloads, "OPS_DOCS", 100)
    monkeypatch.setattr(checks, "STORED", str(tmp_path / "digests.json"))
    (tmp_path / "digests.json").write_text("{}")
    return tmp_path


def _run(capsys, workload: str, trace: int = 0, seed: int = 3) -> dict:
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# --- dense-mesh generator ---------------------------------------------------

def _signed_volume(surfaces) -> float:
    acc = 0.0
    for poly in surfaces:
        p0 = np.asarray(poly[0])
        for a, b in zip(poly[1:-1], poly[2:]):
            acc += float(np.dot(p0, np.cross(a, b)))
    return acc / 6.0


@pytest.mark.parametrize("seed", [0, 7])
def test_dense_meshes_are_closed_outward_and_match_closed_form(seed):
    for key in inputs_keys(seed):
        for source in ("cands", "index"):
            b = dense.building(seed, key)
            if source == "index":
                b = dense.index_copy(b)
            mesh = dense.build_mesh(b["corners"], b["centre"], b["h"], b["rise"])
            assert len(mesh) >= MIN_SURFACES_NUM
            # closed: every directed edge is matched by its reverse
            edges = Counter((tuple(p[i]), tuple(p[(i + 1) % len(p)]))
                            for p in mesh for i in range(len(p)))
            assert all(edges[(b_, a_)] == n for (a_, b_), n in edges.items())
            want = dense.expected_volume(b["corners"], b["h"], b["rise"])
            assert _signed_volume(mesh) > 0  # outward-facing
            surfaces = [np.asarray(s, dtype=np.float64) for s in mesh]
            assert mesh_volume(surfaces) == pytest.approx(want, rel=1e-12)


def inputs_keys(seed):
    from perfbench import inputs
    return inputs.dense_keys(seed, 12).tolist()


def test_dense_generation_is_deterministic_per_seed():
    a = dense.doc_spans(5, 1234, "cands")
    assert a == dense.doc_spans(5, 1234, "cands")
    assert a != dense.doc_spans(6, 1234, "cands")
    corners = [len(dense.building(5, k)["corners"]) for k in range(200)]
    assert min(corners) >= dense.MIN_CORNERS and max(corners) <= dense.MAX_CORNERS


def test_seeded_inputs_get_their_own_directories(tmp_path):
    from perfbench import inputs
    a = inputs.apply_keys(str(tmp_path), 1, 30)
    b = inputs.apply_keys(str(tmp_path), 2, 30)
    assert os.path.basename(a) != os.path.basename(b)
    import pyarrow.parquet as pq
    ka = pq.read_table(os.path.join(a, "documents.parquet")).column(0).to_pylist()
    kb = pq.read_table(os.path.join(b, "documents.parquet")).column(0).to_pylist()
    assert ka != kb and len(set(ka)) == 30


# --- digests ----------------------------------------------------------------

def test_digest_ignores_row_order_and_integral_dtype():
    import pandas as pd
    a = pd.DataFrame({"k": [2, 1], "v": [3.0, 4.5], "s": ["x", "y"]})
    b = pd.DataFrame({"s": ["y", "x"], "v": [4.5, 3.0], "k": [1.0, 2.0]})
    assert checks.digest(a) == checks.digest(b)
    assert checks.digest(a) != checks.digest(a.iloc[:1])


# --- whole runs -------------------------------------------------------------

@pytest.mark.parametrize("workload", ["apply", "apply_dense", "operators"])
def test_tiny_run_prints_every_metric_with_its_unit(tiny, capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = _run(capsys, workload, trace)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
        if trace == 0:
            assert all(v["value"] > 0 for v in out["metrics"].values())


def _corrupt(monkeypatch, edit):
    """Let the n-th collected result through ``edit(df, n)``."""
    real, calls = checks.to_pandas, Counter()

    def corrupted(res):
        calls["n"] += 1
        return edit(real(res), calls["n"])
    monkeypatch.setattr(checks, "to_pandas", corrupted)


@pytest.mark.parametrize("workload", ["apply", "apply_dense"])
def test_flipped_pred_fails_the_apply_check(tiny, capsys, monkeypatch,
                                            workload):
    from perfbench import record
    assert record.main(["--seeds", "3", "--workloads", workload]) == 0
    capsys.readouterr()
    assert _run(capsys, workload)["correct"]

    def flip(df, n):
        df = df.copy()
        df.loc[0, "pred"] = 1 - df.loc[0, "pred"]
        return df
    _corrupt(monkeypatch, flip)
    out = _run(capsys, workload)
    assert not out["correct"] and out["failed"] == out["attempted"] >= 1


def test_dropped_query_row_fails_the_operators_check(tiny, capsys, monkeypatch):
    _corrupt(monkeypatch, lambda df, n: df.iloc[1:] if n == 1 else df)
    out = _run(capsys, "operators")
    assert not out["correct"] and out["failed"] == 1
    assert out["attempted"] == len(workloads.QUERIES)

"""Driver-contract emulation: run every queries() entry at a given sf and
compare against oracle_sql() via DuckDB (row count + schema + order-insensitive
value comparison).  When artifacts/query_digests_<sf basename>.tsv exists,
every output's canonical digest (see ``digest``) must also equal a digest
recorded there for that query, rows-only queries included.
Usage: python jobs/check_queries.py [sf_dir] [name...]"""

from __future__ import annotations

import hashlib
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import duckdb
import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res):
    import pyarrow as pa
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


# output columns that time the run, left out of the digest
TIMING_COLUMNS = {"matching_models_eval": ["train_sec", "inference_sec"]}


def digest(name: str, df: pd.DataFrame) -> str:
    """First 16 hex of a sha256 over canon(df) without the query's timing
    columns: per column, in order, its name, its dtype string and
    pandas.util.hash_pandas_object(column, index=False) as uint64 bytes."""
    df = canon(df.drop(columns=TIMING_COLUMNS.get(name, [])))
    h = hashlib.sha256()
    for c in df.columns:
        h.update(c.encode())
        h.update(str(df[c].dtype).encode())
        h.update(pd.util.hash_pandas_object(df[c], index=False)
                 .to_numpy().astype(np.uint64).tobytes())
    return h.hexdigest()[:16]


def recorded_digests(sf_dir: str) -> dict[str, set[str]] | None:
    """{query: digests of its recorded runs} from
    artifacts/query_digests_<sf basename>.tsv (every column between
    ``query`` and ``rows`` is one run), or None without that file."""
    path = os.path.join(REPO, "artifacts", "query_digests_"
                        f"{os.path.basename(os.path.normpath(sf_dir))}.tsv")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        lines = [ln.rstrip("\n").split("\t") for ln in f
                 if not ln.startswith("#")]
    head = lines[0]
    runs = [i for i, c in enumerate(head) if c not in ("query", "rows")]
    return {r[head.index("query")]: {r[i] for i in runs} for r in lines[1:]}


def compare(name, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    issues = []
    if len(got) != len(want):
        issues.append(f"rowcount {len(got)} != {len(want)}")
    if sorted(got.columns) != sorted(want.columns):
        issues.append(f"columns {sorted(got.columns)} != {sorted(want.columns)}")
        return issues
    g, w = canon(got), canon(want)
    if len(g) == len(w):
        for c in g.columns:
            a, b = g[c].to_numpy(), w[c].to_numpy()
            if a.dtype.kind == "f" or b.dtype.kind == "f":
                ok = (a == b) | (pd.isna(a) & pd.isna(b))
                if not ok.all():
                    bad = int((~ok).sum())
                    i = int(np.nonzero(~ok)[0][0])
                    issues.append(f"col {c}: {bad} value diffs, first {a[i]!r} vs {b[i]!r}")
            else:
                if not (a == b).all():
                    bad = int((a != b).sum())
                    i = int(np.nonzero(a != b)[0][0])
                    issues.append(f"col {c}: {bad} diffs, first {a[i]!r} vs {b[i]!r}")
    return issues


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "__ray_entry__.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = mod.queries()
    sql = mod.oracle_sql()
    digests = recorded_digests(sf_dir)
    n_ok = n_bad = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            n_bad += 1
            continue
        dt = time.time() - t0
        issues, notes = [], []
        if name in sql:
            try:
                want = con.sql(sql[name]).df()
            except Exception as e:
                print(f"FAIL  {name}: oracle raised {e}")
                n_bad += 1
                continue
            issues += compare(name, got, want)
            notes.append("oracle exact")
        else:
            notes.append("rows-only")
        if digests is not None and name in digests:
            d = digest(name, got)
            if d in digests[name]:
                notes.append("digest equal")
            else:
                issues.append(f"DIFF digest {d} not in "
                              f"{sorted(digests[name])}")
        if issues:
            print(f"FAIL  {name} ({dt:.1f}s, {len(got)} rows): " + "; ".join(issues))
            n_bad += 1
        else:
            mark = "OK   " if name in sql else "OK*  "
            print(f"{mark} {name} ({dt:.1f}s, {len(got)} rows, "
                  + ", ".join(notes) + ")")
            n_ok += 1
    print(f"\n{n_ok} ok, {n_bad} failed")
    return 1 if n_bad else 0


if __name__ == "__main__":
    raise SystemExit(main())

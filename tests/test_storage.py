"""engine/storage.py's parquet read: planned from the files' footers (no
sampling task, no task for the schema), rows and projected columns as
pyarrow reads them, and checkpointed stages read back with their types."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from engine.storage import read_parquet_clean
from tests.test_pipeline import SF

DOCS = f"{SF}/documents.parquet"


@pytest.fixture
def ordered(monkeypatch):
    """Blocks come out in read order, so row order can be compared."""
    ctx = ray.data.DataContext.get_current()
    monkeypatch.setattr(ctx.execution_options, "preserve_order", True)


@pytest.fixture
def no_sampling(monkeypatch):
    """Ray's parquet reader samples files in a remote task before it plans
    a read; make that fail."""
    from ray.data._internal.datasource import parquet_datasource

    def sample(*a, **kw):
        raise AssertionError("sampled a parquet fragment")
    monkeypatch.setattr(parquet_datasource, "sample_fragments", sample)


def _table(ds: ray.data.Dataset) -> pa.Table:
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _files(tmp_path) -> list[str]:
    """Three pandas-style files (schema metadata, several row groups) in a
    directory and a subdirectory."""
    rng = np.random.default_rng(3)
    (tmp_path / "sub").mkdir()
    paths = [str(tmp_path / "b.parquet"), str(tmp_path / "a.parquet"),
             str(tmp_path / "sub" / "c.parquet")]
    for i, p in enumerate(paths):
        n = 40 + 13 * i
        t = pa.table({"id": np.arange(n) + 1000 * i,
                      "x": rng.random(n).astype(np.float32),
                      "s": [f"r{i}-{j}" for j in range(n)]})
        pq.write_table(t.replace_schema_metadata({"pandas": "{}"}), p,
                       row_group_size=17)
    return paths


def test_read_plans_from_footers_without_sampling(
        ray_session, tmp_path, ordered, no_sampling):
    """A file, a directory and a list read as pyarrow reads them: same
    rows in the same order, projected columns in the requested order, at
    any block count, without a sampling task."""
    paths = _files(tmp_path)
    d = str(tmp_path)
    cases = [(DOCS, pq.read_table(DOCS)),
             (d, pq.read_table(sorted(paths))),
             (paths, pq.read_table(paths))]
    for path, want in cases:
        want = want.replace_schema_metadata(None)
        for cols in (None, [want.column_names[-1], want.column_names[0]]):
            exp = want if cols is None else want.select(cols)
            for n in (None, 1, 2, 5):
                got = _table(read_parquet_clean(path, columns=cols,
                                                override_num_blocks=n))
                assert got.schema.metadata is None
                assert got.equals(exp), (path, cols, n)


def _block_rows(path, n: int) -> list[int]:
    """Rows of each block the read emits, in order: a map with
    ``batch_size=None`` fused after an unsplit read gets each block whole."""
    return [r["rows"] for r in read_parquet_clean(
        path, override_num_blocks=n).map_batches(
            lambda b: pa.table({"rows": [b.num_rows]}), batch_size=None,
            batch_format="pyarrow").take_all()]


def _greedy_blocks(groups: list, target: int) -> list[int]:
    """Rows of each block of consecutive (rows, bytes) row groups, a new
    block started wherever adding a group would pass ``target`` bytes."""
    out, size = [], 0
    for i, (rows, nbytes) in enumerate(groups):
        if i == 0 or size + nbytes > target:
            out.append(0)
            size = 0
        out[-1] += rows
        size += nbytes
    return out


def test_read_task_emits_row_groups_in_target_sized_blocks(
        ray_session, tmp_path, ordered, monkeypatch):
    """A read task concatenates its row groups into one block under Ray's
    default target block size.  Under a small target, its blocks are cut
    at row-group boundaries: greedy runs of at most the target's footer
    bytes, a larger row group alone.  Files whose schemas differ are never
    one block."""
    paths = _files(tmp_path)
    groups = [[(m.row_group(i).num_rows, m.row_group(i).total_byte_size)
               for i in range(m.num_row_groups)]
              for m in map(pq.read_metadata, paths)]
    assert min(len(g) for g in groups) >= 3
    rows = [sum(r for r, _ in g) for g in groups]
    assert _block_rows(paths, 1) == [sum(rows)]
    assert _block_rows(paths, 3) == rows

    ctx = ray.data.DataContext.get_current()
    largest = max(b for g in groups for _, b in g)
    with monkeypatch.context() as m:
        for target in (1, 2 * largest):
            m.setattr(ctx, "target_max_block_size", target)
            for n, parts in ((1, [sum(groups, [])]), (3, groups)):
                want = sum((_greedy_blocks(p, target) for p in parts), [])
                assert _block_rows(paths, n) == want, (target, n)
            if target == 1:
                assert want == [r for g in groups for r, _ in g]
            else:
                assert len(want) < sum(map(len, groups))

    (tmp_path / "mixed").mkdir()
    pq.write_table(pa.table({"a": [1, 2]}), tmp_path / "mixed" / "0.parquet")
    pq.write_table(pa.table({"a": ["x"]}), tmp_path / "mixed" / "1.parquet")
    assert _block_rows(str(tmp_path / "mixed"), 1) == [2, 1]


def test_read_schema_runs_no_task(ray_session, monkeypatch, no_sampling):
    """The read declares its projected schema and row count: schema() and
    count() start no execution."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    def execute(self, *a, **kw):
        raise AssertionError("executed a plan")
    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    ds = read_parquet_clean(DOCS, columns=["text", "doc_id"])
    assert ds.schema().base_schema == pa.schema(
        [("text", pa.string()), ("doc_id", pa.int64())])
    assert ds.count() == pq.read_metadata(DOCS).num_rows


def test_corpus_read_opens_each_footer_once(tmp_path, monkeypatch):
    """Planning corpus_dataset opens each file's footer once (it opened
    each twice when size_aware_blocks probed the footers the datasource
    then read again), and sizes the read as size_aware_blocks does."""
    import collections

    import engine.corpus as corpus
    import engine.storage as storage
    monkeypatch.setattr(storage, "cluster_cpus", lambda: None)   # no cap
    monkeypatch.setattr(corpus, "CORPUS_ROOT", str(tmp_path / "root"))
    out = tmp_path / "root" / "sfx"
    out.mkdir(parents=True)
    (out / "_SUCCESS").write_text("ok")
    files = [str(out / f"{i}.parquet") for i in range(3)]
    for i, p in enumerate(files):
        pq.write_table(pa.table({"doc_id": np.arange(1000 * (i + 1))}), p)
    want = corpus.size_aware_blocks(str(out), 64)
    assert want == 24   # 6000 rows / 256
    # a footer is read by pq.read_metadata (which opens a ParquetFile on
    # a file handle) or by a ParquetFile opened on the path
    opened, planned = [], []
    init, metadata = pq.ParquetFile.__init__, pq.read_metadata

    def open_file(self, source, *a, **kw):
        if isinstance(source, str):
            opened.append(source)
        init(self, source, *a, **kw)
    monkeypatch.setattr(pq.ParquetFile, "__init__", open_file)
    monkeypatch.setattr(pq, "read_metadata", lambda where, *a, **kw: (
        opened.append(str(where)), metadata(where, *a, **kw))[1])
    read = ray.data.read_datasource
    monkeypatch.setattr(ray.data, "read_datasource", lambda src, **kw: (
        planned.append(kw["override_num_blocks"]), read(src, **kw))[1])
    ds = corpus.corpus_dataset(str(tmp_path / "sfx"))
    assert collections.Counter(opened) == dict.fromkeys(files, 1)
    assert planned == [want]
    assert ds.schema().names == ["doc_id"]


def test_empty_directory_reads_as_ray_reads_it(ray_session, tmp_path):
    """An empty directory raises nothing: like ray.data.read_parquet, it
    is a Dataset of no rows and no schema."""
    for read in (ray.data.read_parquet, read_parquet_clean):
        ds = read(str(tmp_path))
        assert ds.count() == 0 and ds.take_all() == []
        assert ds.schema() is None


def test_checkpoint_resume_reads_back_the_same_types(ray_session, tmp_path):
    """A stage read back from its checkpoint, whole or by partition, has
    the column types and values the stage was built with."""
    from engine.checkpoint import run_stage, run_stage_partitioned

    def build(key="p0"):
        base = int(key[1:]) * 10
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(base, base + 10), type=pa.int64()),
            "n": pa.array(range(10), type=pa.int32()),
            "x": pa.array(np.linspace(0, 1, 10), type=pa.float32()),
            "flag": pa.array([i % 2 == 0 for i in range(10)]),
            "tag": pa.array([f"t{i}" for i in range(10)]),
            "v": pa.array([[float(i)] * 3 for i in range(10)],
                          type=pa.list_(pa.float64())),
        }))

    want = build().schema().base_schema
    root = str(tmp_path)
    built = run_stage(root, "s", build)
    resumed = run_stage(root, "s", lambda: 1 / 0)
    for ds in (built, resumed):
        assert ds.schema().base_schema == want
        assert _table(ds).sort_by("doc_id").equals(_table(build()))
    keys = ["p0", "p1", "p2"]
    run_stage_partitioned(root, "parts", keys, build)
    again = run_stage_partitioned(root, "parts", keys, lambda k: 1 / 0)
    assert again.schema().base_schema == want
    got = _table(again).sort_by("doc_id")
    assert got.equals(pa.concat_tables(_table(build(k)) for k in keys))

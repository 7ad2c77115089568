"""The prepare path at sf0.001: golden digests of every prepared-state field,
of the preparatory pass (prep_train) and of the four ML queries built on it,
and the number of Ray Data executions one set-up starts."""

import hashlib

import numpy as np
import pandas as pd
import pytest

from test_pipeline import SF   # the sf0.001 test corpus


def digest(value) -> str:
    """sha256 over a value's exact bits: arrays by dtype, shape and bytes
    (object arrays by their str items), frames column by column, containers
    item by item in their order, forests tree by tree."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, pd.DataFrame):
            h.update(repr(list(v.columns)).encode())
            for c in v.columns:
                feed(v[c].to_numpy())
        elif isinstance(v, np.ndarray):
            h.update(f"{v.dtype}{v.shape}".encode())
            if v.dtype == object:
                h.update("\0".join(map(str, v.ravel())).encode())
            else:
                h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, dict):
            for k, x in v.items():
                feed(k)
                feed(x)
        elif isinstance(v, (list, tuple)):
            h.update(f"{type(v).__name__}{len(v)}".encode())
            for x in v:
                feed(x)
        elif hasattr(v, "trees_"):
            feed(v.feature_importances_)
            for t in v.trees_:
                for a in ("feature", "threshold", "left", "right", "value",
                          "importances_"):
                    feed(getattr(t, a))
        elif isinstance(v, (str, int, float, bool, np.generic)) or v is None:
            h.update(f"{type(v).__name__}:{v!r}".encode())
        else:
            raise TypeError(f"no digest for {type(v)}")

    feed(value)
    return h.hexdigest()


def frame_digest(df: pd.DataFrame, drop=()) -> str:
    """digest of a query result in canonical row order (sorted by every
    column), without the ``drop`` columns."""
    df = df.drop(columns=list(drop))
    return digest(df.sort_values(list(df.columns)).reset_index(drop=True))


def prepared() -> tuple[dict, dict]:
    """(prep, state) of one set-up on a fresh property table, as the
    benchmark and the queries run it."""
    from engine.pipeline import prep_train, prepare_state, property_table
    props = property_table(SF)
    prep = prep_train(props, seed=1)
    state = prepare_state(SF, seed=1, bkafi_dim=6, k=5, props=props,
                          prep=prep)
    return prep, state


def state_digests(prep: dict, state: dict) -> dict[str, str]:
    """field -> digest over every recorded field of prep and state; prep's
    ``split_ref`` broadcast handle by the sorted id array it ships.  The
    index side arrives in the property table's block order, which varies
    from run to run, so the index rows are digested sorted by id."""
    order = np.argsort(state["idx_num"], kind="stable")
    out = {f"state.{k}": digest(state[k][order] if k in INDEX_ROWS
                                else state[k]) for k in STATE_FIELDS}
    for k in PREP_FIELDS:
        v = prep[k]() if k == "split_ref" else prep[k]
        out[f"prep.{k}"] = digest(sorted(v, key=int) if k == "index_ids"
                                  else v)
    return out


STATE_FIELDS = ["features", "feat_idx", "med", "iqr", "matcher", "k",
                "log_transform", "idx_ids", "idx_num", "idx_scaled",
                "idx_props", "n_index"]
INDEX_ROWS = {"idx_ids", "idx_num", "idx_scaled", "idx_props"}
PREP_FIELDS = ["model", "importances", "ratios", "train_ids", "train_df",
               "index_ids", "n_test", "seed", "split_ref"]

# Recorded on sf0.001 before the set-up went from 13 Ray Data executions to
# 3; the prepared state, the preparatory pass and the ML queries must not
# change with how the set-up is executed.
GOLDEN_STATE = {
    'state.features': 'dcb2be034c3e47fb69b901c5fa1b3dcdbb8db19be37be7aa48e6bd7a9d6ffe2f',
    'state.feat_idx': '5f21b4275cbd4011807229156e83e635b62608c5c2cdc3c70e3628d211972722',
    'state.med': '1668267d050523e70f2d2a639075424091ee0d8e028abfb33d775a8e88d7fdcd',
    'state.iqr': 'b484fa232424cc3ce5f04e4ffe5b1bd9e8b0e4d22c523601726da5b508c39bb4',
    'state.matcher': '054047f92ed06d9ae075e37960043d28355b0c29f6b0baf591328ad4f5ad82de',
    'state.k': '155b24bd53bf6ca0332bb8a119e36769d5f4fa22d76fc652a6d2c18857dfb16c',
    'state.log_transform': '96a2745e168e8650026358b4a792a3d061e2bd24c62f0d73d8e290597704088b',
    'state.idx_ids': '1975cee315f6a0d2da6b4b24c9ea0d2da32fff41884721a7fe1fdf578ffa2acb',
    'state.idx_num': 'c2a5980461e1bfd08be19668de6de642d876530f2d42c67d0aa2a275329792ca',
    'state.idx_scaled': '213fb9cc3823decd2311b2ceec324cc22d86ab0f46d91f4bcad821a357be1553',
    'state.idx_props': 'd17fdbe722093ee351ffeb2b632c4558c1ae3bba6e88dbd8d51dd75247d64801',
    'state.n_index': '55757a64b5b8f05ce3e967adc7fd215af453267aea5fced2fd8ec47ed828281d',
    'prep.model': 'd28726826920ef3132a1d2d6c6703dfec7e7160df3baa24c058aa73397627a87',
    'prep.importances': '1a4af2b9bd27bacfbc45feeb1b9545212bb393f9afa41a26dc254232479e4acf',
    'prep.ratios': 'ab5ef483a9755014da76ffa604df69b84e1cec48c77fd9c403a78c3699991a1d',
    'prep.train_ids': 'beede580733781f9fb06c247df3ef68beae892ec5a728b4cde72038e6c428c24',
    'prep.train_df': '399f855a7f59b0e05e8426f1b16cb674cfebe23f546ef3c380de924a85657a81',
    'prep.index_ids': '8edf1cd50b45ea67fdc871c98834230f262bdd01238f0bebf21da299d6233df9',
    'prep.n_test': '44912cc32dae8640a585e0475be407c2998c6e60c5d834bb11f4df43de2aac81',
    'prep.seed': 'b47e22133c67168abb78cea1e14c4ed42df157dbb6b84980c9b1574697add07a',
    'prep.split_ref': 'c2a5980461e1bfd08be19668de6de642d876530f2d42c67d0aa2a275329792ca',
}

GOLDEN_QUERIES = {
    'geo_match': '12b179d0ea72893f6f86a07b3e03eef7e62ee3b80f2cb6f40fc49db3d518b98a',
    'geo_match_concat': 'e4c8322b0f73c7c0f13db654d07ec45afa5be44e2691d6f46ada417aa0f6b2e9',
    'contrastive_matching': '4f1442d11ff6426b83f4908b211765887fd824e77292a660b66d965497fb132c',
    'matching_models_eval': '1dfaa3ecd91b86486ffb98d82b819cc275e3daed42f409d2c2c64b52e84f4691',
}

# matching_models_eval's wall-clock columns vary run to run
QUERY_DROP = {"matching_models_eval": ("train_sec", "inference_sec")}


@pytest.fixture(scope="module")
def state_fields(ray_session):
    return state_digests(*prepared())


@pytest.mark.parametrize("field", [f"state.{k}" for k in STATE_FIELDS] +
                         [f"prep.{k}" for k in PREP_FIELDS])
def test_prepared_state_matches_golden_digest(state_fields, field):
    assert state_fields[field] == GOLDEN_STATE[field]


def query_digest(name: str) -> str:
    from engine import queries
    out = getattr(queries, name)(SF)
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    return frame_digest(df, QUERY_DROP.get(name, ()))


@pytest.mark.parametrize("name", ["geo_match", "geo_match_concat",
                                  "contrastive_matching",
                                  "matching_models_eval"])
def test_ml_query_matches_golden_digest(ray_session, name):
    assert query_digest(name) == GOLDEN_QUERIES[name]


def test_train_pairs_carry_the_reference_labels(ray_session):
    """prep_train's matrix: one positive (cand, cand) pair per train cand,
    and negatives that never pair a cand with itself."""
    from engine.pipeline import prep_train, property_table
    prep = prep_train(property_table(SF), seed=1)
    df = prep["train_df"]
    assert ((df.cand_id == df.index_id) == (df.label == 1)).all()
    assert sorted(df[df.label == 1].cand_id, key=int) == prep["train_ids"]
    assert (df.groupby("cand_id").size() <= 3).all()


def test_driver_scale_stats_equal_the_distributed_ones(ray_session):
    """robust_scale_stats over a driver matrix is bit-equal to
    robust_scale_stats_ds over the same rows and to np.percentile, on
    repeated values and a constant column."""
    import pyarrow as pa
    import ray.data
    from engine.blocking import robust_scale_stats, robust_scale_stats_ds
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.integers(0, 7, 501) / 8.0,
                         rng.normal(size=501), np.full(501, 2.5)])
    cols = ["a", "b", "c"]
    ds = ray.data.from_arrow(pa.table(dict(zip(cols, X.T)))).repartition(3)
    med, iqr = robust_scale_stats(X)
    want_med, want_iqr = robust_scale_stats_ds(ds, cols)
    assert med.tobytes() == want_med.tobytes()
    assert iqr.tobytes() == want_iqr.tobytes()
    q = np.percentile(X, [25, 50, 75], axis=0)
    assert med.tobytes() == q[1].tobytes()
    assert iqr[:2].tobytes() == (q[2] - q[0])[:2].tobytes() and iqr[2] == 1.0


def executions(monkeypatch, fn) -> int:
    """Ray Data executions ``fn`` starts."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor
    n = [0]
    execute = StreamingExecutor.execute

    def counted(self, *a, **kw):
        n[0] += 1
        return execute(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    fn()
    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return n[0]


def test_prepare_runs_three_executions(ray_session, monkeypatch):
    """After the property table: one index-side collect, one pass over the
    cands side and one scaler pass; the distributed train kNN adds one."""
    from engine import gates
    from engine.pipeline import prepare_state, property_table
    props = property_table(SF)

    def prepare():
        prepare_state(SF, seed=1, bkafi_dim=6, k=5, props=props)

    assert executions(monkeypatch, prepare) == 3
    monkeypatch.setattr(gates, "MAX_DRIVER_KNN_CELLS", 0)
    assert executions(monkeypatch, prepare) <= 4


if __name__ == "__main__":   # print the digests to record
    import ray
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    for k, v in state_digests(*prepared()).items():
        print(f"    {k!r}: {v!r},")
    for name in ("geo_match", "geo_match_concat", "contrastive_matching",
                 "matching_models_eval"):
        print(f"    {name!r}: {query_digest(name)!r},")
    ray.shutdown()


def test_state_cache_keys_on_the_directory_and_its_files(tmp_path,
                                                         monkeypatch):
    """prepare_state(cache=True) reuses a pickled state only for the same
    sf directory with unchanged files: a state planted from another
    directory with the same basename, or before a corpus file changed, is
    not reused."""
    import os
    import pickle

    from engine import pipeline

    class Computed(Exception):
        pass

    def compute(*args, **kwargs):
        raise Computed

    monkeypatch.setattr(pipeline, "STATE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(pipeline, "prep_train", compute)
    a, b = tmp_path / "a" / "sf", tmp_path / "b" / "sf"
    for d in (a, b):
        d.mkdir(parents=True)
        (d / "documents.parquet").write_bytes(b"same bytes")
        os.utime(d / "documents.parquet", ns=(10**18, 10**18))
    planted = {"planted": str(a)}
    path = pipeline.state_cache_path(str(a), None, 1, 6, 5, 2, False)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as f:
        pickle.dump(planted, f)
    kw = dict(seed=1, bkafi_dim=6, k=5, cache=True, props=object())
    assert pipeline.prepare_state(str(a), **kw) == planted
    with pytest.raises(Computed):
        pipeline.prepare_state(str(b), **kw)
    (a / "documents.parquet").write_bytes(b"other bytes")
    with pytest.raises(Computed):
        pipeline.prepare_state(str(a), **kw)

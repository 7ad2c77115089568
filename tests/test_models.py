"""Model zoo tests: Bagging/AdaBoost families, per-model evaluation sweep,
contamination retraining experiment (reference classifier.py:43-54,106-176 and
contamination_experiments.py:137-161)."""

import os

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def _blobs(n=400, seed=3):
    rng = np.random.default_rng(seed)
    X0 = rng.standard_normal((n // 2, 4)) + 0.0
    X1 = rng.standard_normal((n // 2, 4)) + 2.0
    X = np.vstack([X0, X1])
    y = np.r_[np.zeros(n // 2, dtype=np.int8), np.ones(n // 2, dtype=np.int8)]
    return X, y


def test_bagging_and_adaboost_separate_blobs():
    from engine.matching import AdaBoost, Bagging
    X, y = _blobs()
    for cls in (Bagging, AdaBoost):
        m = cls(random_state=1).fit(X, y)
        acc = float((m.predict(X) == y).mean())
        assert acc >= 0.95, (cls.__name__, acc)
        imp = m.feature_importances_
        assert imp.shape == (4,) and abs(imp.sum() - 1.0) < 1e-9


def test_adaboost_deterministic():
    from engine.matching import AdaBoost
    X, y = _blobs(seed=5)
    a = AdaBoost(n_estimators=30).fit(X, y)
    b = AdaBoost(n_estimators=30).fit(X, y)
    assert np.array_equal(a._margin(X), b._margin(X))


def test_registry_has_seven_families():
    """The reference's six-family model_list (config.py:75-76) plus the
    LogisticRegression extra; both grid sets cover every family."""
    from engine.matching import DEFAULT_GRIDS, FULL_GRIDS, MODEL_REGISTRY
    assert set(MODEL_REGISTRY) == {"RandomForest", "GradientBoosting",
                                   "Bagging", "AdaBoost", "XGBoost", "MLP",
                                   "LogisticRegression"}
    assert set(DEFAULT_GRIDS) == set(MODEL_REGISTRY)
    assert set(FULL_GRIDS) == set(MODEL_REGISTRY)


def test_xgboost_and_mlp_separate_blobs():
    from engine.matching import MLP, XGBoost
    X, y = _blobs()
    for cls in (XGBoost, MLP):
        m = cls(random_state=1).fit(X, y)
        acc = float((m.predict(X) == y).mean())
        assert acc >= 0.95, (cls.__name__, acc)
        imp = m.feature_importances_
        assert imp.shape == (4,) and abs(imp.sum() - 1.0) < 1e-9
        # deterministic refit
        m2 = cls(random_state=1).fit(X, y)
        assert np.array_equal(m.predict_proba(X), m2.predict_proba(X))


def _planted(n, seed):
    """Features on a 0.5 grid (tied values everywhere), a copy of column 1
    (exactly tied gains across features) and a constant column, with noisy
    labels (nodes whose rows all share their values but not their label:
    the no-cut leaf)."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(0, 1, (n, 5)) * 2) / 2
    X = np.column_stack([X, X[:, 1], np.full(n, 3.0)])
    y = (X[:, 0] + X[:, 1] - 0.5 * X[:, 2] + rng.normal(0, 0.7, n)) > 0
    return X, y.astype(np.int8)


def _learner_digest(m, Xt) -> str:
    """sha256 over held-out predict_proba and predict, the
    feature_importances_ and every tree's node table."""
    import hashlib
    h = hashlib.sha256()
    arrays = [m.predict_proba(Xt), m.predict(Xt), m.feature_importances_]
    for t in getattr(m, "trees_", ()):
        arrays += [t.feature, t.threshold, t.left, t.right, t.value]
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


LEARNER_DIGESTS = {
    'AdaBoost': '184924e294f249299487d4d50e14c1b8f71fc62756b25e695da943b67b64b685',
    'AdaBoost-constant': '16ea9d074627b47cf45f84df9dc1ca498b1d33ba633a97d8d52c2a7db9b3eb5a',
    'Bagging': 'f67d6cce57066600f16dacff3ceb25b7cea5ad1faa0313070f17a8b83cf9784c',
    'GradientBoosting': 'ab0c5f57ef7d4838a6929846eac090778a3409d2efa2e665ae03f0aeaa7a32a1',
    'GradientBoosting-separable': '93c3b3487d564b8ad218b052a548002ef1fe8a7241cc77324451dab208971441',
    'LogisticRegression': 'afb581f6a44ad97f335199002d7341593167ca140d69477e2862046cc3f4e5f2',
    'MLP': 'bf85268c7ceb95a12ae8c0699e5e1ba448c053d72364fe990828e83dfe781102',
    'RandomForest': '0cbafa28bd646bce4db1ce1aeab070a05a38ceac631e6a18c803d6b549c50ca3',
    'XGBoost': '6fc851959ce577913cd1ef3d7263a45734b3d6bb208fc3d849d329042f077a26',
    'XGBoost-separable': '6f55b0ded26eb60b398065922c8e7ba1153018a98512bba8a28a9b95e3508bc9',
}


@pytest.mark.parametrize("name", sorted(LEARNER_DIGESTS))
def test_learners_are_pinned(name):
    """Each family's default fit on a planted-tie matrix: held-out
    predict_proba and predict, feature_importances_ and every tree's node
    table are bit-identical to the recorded digests.  ``-constant`` fits
    on the constant column alone, ``-separable`` on noise-free labels, so
    the boosted trees reach pure nodes and their minimum split gain
    decides."""
    from engine.matching import MODEL_REGISTRY
    X, y = _planted(300, 11)
    Xt, _ = _planted(200, 12)
    family, _, variant = name.partition("-")
    if variant == "constant":     # no cut anywhere: majority-vote stumps
        X, Xt = X[:, -1:], Xt[:, -1:]
    elif variant == "separable":  # pure nodes, where every cut gains ~0
        y = (X[:, 0] > 0).astype(np.int8)
    m = MODEL_REGISTRY[family](random_state=1).fit(X, y)
    assert _learner_digest(m, Xt) == LEARNER_DIGESTS[name]


@pytest.mark.parametrize("family", ["RandomForest", "Bagging"])
def test_forest_walk_equals_the_per_tree_mean(family):
    """A forest walks all its trees at once; its predict_proba is, bit for
    bit, the mean of its trees' own predictions and the depth-first walk
    of the node tables, also on rows holding NaN (never <= a threshold:
    right at every split) and infinities.  predict equals
    predict_proba >= 0.5, on every row and on single rows.  Bagging's
    trees reach depth 14 on this fit."""
    from engine.matching import MODEL_REGISTRY
    X, y = _planted(1000, 11)
    Xt, _ = _planted(200, 12)
    odd = Xt[:6].copy()
    odd[0, 0] = odd[1, :] = np.nan
    odd[2, 1], odd[3, :] = np.inf, -np.inf
    odd[4, 0], odd[5, 2] = -np.inf, np.inf
    Xt = np.vstack([Xt, odd])
    m = MODEL_REGISTRY[family](random_state=1).fit(X, y)
    if family == "Bagging":
        assert max(t.table[4] for t in m.trees_) == 14
    want = np.mean([t.predict(Xt) for t in m.trees_], axis=0)
    got = m.predict_proba(Xt)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got.tobytes() == _depth_first_proba(m, Xt).tobytes()
    assert np.array_equal(m.predict(Xt), (got >= 0.5).astype(np.int8))
    for i in range(len(Xt) - 40, len(Xt)):
        assert m.predict(Xt[i:i + 1])[0] == int(
            m.predict_proba(Xt[i:i + 1])[0] >= 0.5)


@pytest.mark.parametrize("family", ["RandomForest", "Bagging"])
def test_forest_row_proba_does_not_depend_on_its_batch(family):
    """Each of 300 held-out rows gets, bit for bit, the same predict_proba
    and predict alone as inside the 300-row batch: the trees' leaf values
    are added in tree order for one row as for many (numpy's mean sums a
    single row's values pairwise)."""
    from engine.matching import MODEL_REGISTRY
    X, y = _planted(1500, 11)
    Xt, _ = _planted(300, 12)
    m = MODEL_REGISTRY[family](random_state=1).fit(X, y)
    batch = m.predict_proba(Xt)
    alone = np.concatenate([m.predict_proba(Xt[i:i + 1])
                            for i in range(len(Xt))])
    assert alone.tobytes() == batch.tobytes()
    assert np.array_equal(
        np.concatenate([m.predict(Xt[i:i + 1]) for i in range(len(Xt))]),
        m.predict(Xt))


def _depth_first_proba(m, X):
    """RandomForest.predict_proba as the depth-first node tables gave it
    before the breadth-first walk table: all trees stacked, every row
    stepped down until it reaches a leaf, the mean over the trees."""
    trees = m.trees_
    roots = np.cumsum([0, *(len(t.feature) for t in trees[:-1])])
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    left = np.concatenate([t.left + r for t, r in zip(trees, roots)])
    right = np.concatenate([t.right + r for t, r in zip(trees, roots)])
    value = np.concatenate([t.value for t in trees])
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, f = X.shape
    flat = X.ravel()
    cur = np.repeat(roots, n)
    row = np.tile(np.arange(0, n * f, f), len(roots))
    live = np.nonzero(feature[cur] >= 0)[0]
    while len(live):
        node = cur[live]
        x = flat[row[live] + feature[node]]
        nxt = np.where(x <= threshold[node], left[node], right[node])
        cur[live] = nxt
        live = live[feature[nxt] >= 0]
    return np.mean(value[cur].reshape(len(trees), n), axis=0)


def _planted_forest(T: int, thirds: bool = False):
    """T trees: tree t < T - 1 reads column t and gives 1.0 at x <= 0.5,
    0.5 at x <= 1.5, else 0.0 (NaN goes right: 0.0); the last tree is a
    single leaf of value 0.5.  With ``thirds`` every fourth split tree
    gives 2/3 and 1/3 instead of 1.0 and 0.5, so the sums round."""
    from engine.matching import RandomForest, Tree
    trees = []
    for t in range(T - 1):
        hi, mid = (2 / 3, 1 / 3) if thirds and t % 4 == 3 else (1.0, 0.5)
        trees.append(Tree([t, -1, t, -1, -1], [0.5, 0.0, 1.5, 0.0, 0.0],
                          [1, -1, 3, -1, -1], [2, -1, 4, -1, -1],
                          [0.0, hi, 0.0, mid, 0.0]))
    trees.append(Tree([-1], [0.0], [-1], [-1], [0.5]))
    m = RandomForest(n_estimators=T)
    m.trees_ = trees
    return m


def _planted_rows(T: int, n: int, seed: int) -> np.ndarray:
    """Rows of codes 0/1/2 (leaf 1.0/0.5/0.0) per split tree, and the row
    number in column T.  Row 0 sums to exactly 0.5 T at tree ceil(T/2),
    row 1 only at tree T, row 2 to 0.5 T - 0.5 at tree T; rows 3-5 hold
    NaN and infinities; row 6 is all ones over the first ceil(T/2) trees
    and row 7 all zeros over the split trees; the rest are random."""
    h = -(-T // 2)
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, (n, T + 1)).astype(np.float64)
    X[0, :h], X[0, h:] = 0.0, 2.0
    if T % 2:
        X[0, h - 1] = 1.0
    X[1], X[2] = 1.0, 1.0
    X[2, 0] = 2.0
    X[3, :] = np.nan
    X[4, ::2], X[4, 1::2] = -np.inf, np.inf
    X[5, ::3] = np.nan
    X[6, :h], X[7, :T] = 0.0, 2.0
    X[:, T] = np.arange(n)
    return X


@pytest.mark.parametrize("T", [1, 2, 3, 7, 40, 41])
@pytest.mark.parametrize("thirds", [False, True])
def test_forest_predict_on_planted_forests(T, thirds):
    """On planted forests (odd and even T, a one-leaf tree, leaf values
    whose sums round), with rows whose sum is exactly 0.5 T at tree
    ceil(T/2) or only at tree T, NaN and infinite features: predict_proba
    equals the depth-first walk bit for bit, and predict (which stops a
    row's walk once its label is decided) equals predict_proba >= 0.5,
    also on no, one and two rows."""
    m = _planted_forest(T, thirds)
    X = _planted_rows(T, 400, seed=T)
    proba = m.predict_proba(X)
    assert proba.tobytes() == _depth_first_proba(m, X).tobytes()
    assert np.array_equal(m.predict(X), (proba >= 0.5).astype(np.int8))
    for rows in ([], [0], [1], [3, 4], [6, 7]):
        assert np.array_equal(m.predict(X[rows]),
                              (m.predict_proba(X[rows]) >= 0.5)
                              .astype(np.int8))
    if T > 1:   # a row too narrow for the trees is refused, not misread
        with pytest.raises(ValueError, match="columns"):
            m.predict(X[:, :T - 2])


@pytest.mark.parametrize("T", [40, 41])
def test_forest_planted_rows_decide_at_their_tree(T, monkeypatch):
    """Row 0 reaches exactly 0.5 T at tree ceil(T/2) and row 6 more: both
    are labelled 1 there and walk no further.  Row 7 sums to 0: it is
    labelled 0 once the ones that could still follow leave it below
    0.5 T, at tree ceil(T/2) for odd T and one step later for even T.
    Row 1 reaches 0.5 T only at tree T, and row 2 falls 0.5 short: both
    walk every tree."""
    from engine.matching import Tree
    m = _planted_forest(T)
    X = _planted_rows(T, 50, seed=0)
    leaf = np.array([t.predict(X) for t in m.trees_])
    h = -(-T // 2)
    assert leaf[:h, 0].sum() == 0.5 * T
    assert leaf[:, 1].sum() == 0.5 * T and leaf[:, 2].sum() == 0.5 * T - 0.5
    walk, seen = Tree.walk, []
    monkeypatch.setattr(Tree, "walk", lambda self, roots, X: (
        seen.append((len(roots), X[:, T].astype(int))),
        walk(self, roots, X))[1])
    pred = m.predict(X)
    assert pred[[0, 1, 2, 6, 7]].tolist() == [1, 1, 0, 1, 0]
    assert seen[0][0] == h and len(seen[0][1]) == len(X)
    later = [set(rows.tolist()) for _, rows in seen[1:]]
    assert all({1, 2} <= r and not r & {0, 6} for r in later)
    assert [7 in r for r in later[:2]] == [T % 2 == 0, False]
    assert h + sum(k for k, _ in seen[1:]) == T


def test_forest_predict_stops_decided_rows(monkeypatch):
    """At the apply pass's shape (3,000 pairs of 25 ratio features, 40
    trees) predict walks under 3/4 of the T x n tree-rows predict_proba
    walks: the rows decided after the first 20 trees walk no further."""
    from engine.matching import RandomForest, Tree
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, (1500, 25))
    y = (X[:, 0] + X[:, 1] + rng.normal(0, 0.5, 1500) > 0).astype(np.int8)
    m = RandomForest(random_state=1).fit(X, y)
    Xt = rng.normal(0, 1, (3000, 25))
    walk, walked = Tree.walk, []
    monkeypatch.setattr(Tree, "walk", lambda self, roots, X: (
        walked.append(len(roots) * len(X)), walk(self, roots, X))[1])
    pred = m.predict(Xt)
    T, n = len(m.trees_), len(Xt)
    assert sum(walked) < 0.75 * T * n
    monkeypatch.setattr(Tree, "walk", walk)
    assert np.array_equal(pred, (m.predict_proba(Xt) >= 0.5).astype(np.int8))


def test_grid_search_distributed_matches_serial(ray_session):
    """The Ray fan-out over (combo x fold) CV fits must be bit-identical to
    the serial loop — same scores, same first-combo-wins tie policy."""
    from itertools import product

    from engine.matching import (MODEL_REGISTRY, _cv_fit_score, f1_binary,
                                 grid_search_fit)
    X, y = _blobs(n=240, seed=7)
    grid = {"n_estimators": [10, 20], "max_depth": [3, 5]}
    model, best, cv_f1 = grid_search_fit("RandomForest", grid, X, y, seed=1)
    # serial reference: same loop, no Ray
    keys = sorted(grid)
    fold = np.arange(len(y)) % 3
    ref = None
    for combo in product(*(grid[k] for k in keys)):
        params = dict(zip(keys, combo))
        scores = [_cv_fit_score(X, y, fold, "RandomForest", params, f, 1)
                  for f in range(3)]
        s = float(np.mean(scores))
        if ref is None or s > ref[0] + 1e-12:
            ref = (s, params)
    assert best == ref[1] and abs(cv_f1 - ref[0]) < 1e-15
    m2 = MODEL_REGISTRY["RandomForest"](random_state=1, **ref[1]).fit(X, y)
    assert np.array_equal(model.predict(X), m2.predict(X))


@pytest.fixture(scope="module")
def models_eval(ray_session):
    from engine.queries import matching_models_eval
    return matching_models_eval(SF)


def test_models_eval_best_at_least_rf(models_eval):
    df = models_eval
    rf = df[df.model == "RandomForest"].f1.iloc[0]
    assert df.f1.max() >= rf
    # every tree-ensemble family + the new XGB/MLP slots clear the floor
    for fam in ("RandomForest", "Bagging", "AdaBoost", "GradientBoosting",
                "XGBoost", "MLP"):
        assert df[df.model == fam].f1.iloc[0] >= 0.9, fam
    assert (df.train_sec > 0).all() and (df.inference_sec >= 0).all()


def test_contrastive_head_quality_and_contamination_delta(ray_session):
    """The contrastive |diff| head clears a strong F1 floor on the clean
    blocking-based test pairs (matched docs share media features, so the
    head must learn the near-zero-diff rule), and contaminating the
    index-side features at scoring time degrades F1 — the reference's
    contamination experiment shape."""
    import pandas as pd

    from engine import contrastive
    from engine.corpus import corpus_dataset
    from engine.matching import f1_binary
    from engine.multimodal import media_features
    from engine.queries import _ttf
    tr, te, _ = _ttf(SF)
    cand_feats, index_feats = contrastive.media_feature_frames(
        media_features(corpus_dataset(SF)))
    head = contrastive.fit_contrastive_head(tr, cand_feats, index_feats)
    clean = contrastive.score_pairs(head, te, cand_feats, index_feats)
    f1c, _, _ = f1_binary(clean.label.to_numpy(), clean.pred.to_numpy())
    assert f1c >= 0.9, f1c
    # deterministic refit
    again = contrastive.score_pairs(
        contrastive.fit_contrastive_head(tr, cand_feats, index_feats),
        te, cand_feats, index_feats)
    assert clean.equals(again)
    # contaminate 50% of index-side feature vectors (seeded), rescore
    rng = np.random.default_rng(1)
    dirty = index_feats.copy()
    mask = rng.random(len(dirty)) < 0.5
    dirty.loc[mask, "feature"] = [
        (np.asarray(f) + rng.standard_normal(len(f))).tolist()
        for f in dirty.loc[mask, "feature"]]
    cont = contrastive.score_pairs(head, te, cand_feats, dirty)
    f1d, _, _ = f1_binary(cont.label.to_numpy(), cont.pred.to_numpy())
    assert f1d < f1c, (f1d, f1c)


def test_concat_variant_runs_and_ratios_beat_it(ray_session):
    """The concatenation pair-feature variant (process_pairs.py:30-40) runs
    end to end; the RATIO features dominate it — the reference's stated
    motivation for the division operator (scale-invariant pair evidence vs
    absolute per-side values axis-aligned trees struggle with)."""
    import numpy as np
    from engine.matching import RandomForest, f1_binary
    from engine.pairs import RATIO_FEATURE_NAMES
    from engine.queries import _ttf, geo_match_concat
    df = geo_match_concat(SF)
    assert ((df.cand_id == df.index_id) == (df.label == 1)).all()
    concat_f1, _, _ = f1_binary(df.label.to_numpy(), df.pred.to_numpy())
    tr, te, _ = _ttf(SF)
    m = RandomForest(random_state=1).fit(
        tr[RATIO_FEATURE_NAMES].to_numpy(dtype=np.float64),
        tr["label"].to_numpy(dtype=np.int8))
    ratio_f1, _, _ = f1_binary(
        te["label"].to_numpy(dtype=np.int8),
        m.predict(te[RATIO_FEATURE_NAMES].to_numpy(dtype=np.float64)))
    assert ratio_f1 >= 0.9
    assert ratio_f1 > concat_f1


def test_blocking_recall_std_criterion(ray_session):
    """'std' criterion keys also block well on the planted corpus
    (blocking.py:136-138 semantics: lowest-ratio-std properties)."""
    from engine.queries import geo_blocking_recall_std
    df = geo_blocking_recall_std(SF)
    for crit in ("feature_importance", "std"):
        r5 = df[(df.criterion == crit) & (df.k == 5)].blocking_recall.iloc[0]
        assert r5 >= 0.95, (crit, r5)


def test_contamination_retrain_degrades_or_holds(ray_session):
    from engine.queries import contamination_retrain
    df = contamination_retrain(SF)
    clean = df[df.train_fraction_contaminated == 0.0].f1.iloc[0]
    worst = df[df.train_fraction_contaminated == 0.5].f1.iloc[0]
    assert clean >= 0.9
    # retraining on contaminated features must not IMPROVE the matcher
    # beyond noise (the reference reports degradation)
    assert worst <= clean + 0.01
    assert (df.f1_delta_vs_clean.iloc[0] == 0.0)


def test_geo_contamination_ignores_a_stale_disk_state(ray_session):
    """geo_contamination builds its prepared state from the shared property
    table and preparatory pass, never from the pickled state cache: a state
    prepared with another seed, planted under this query's cache file name,
    leaves its output unchanged."""
    import pickle

    from engine import queries
    from engine.pipeline import prep_train, prepare_state, state_cache_path

    def rows(ds):
        return ds.to_pandas().sort_values(["cand_id", "index_id"]) \
            .reset_index(drop=True)

    clean = rows(queries.geo_contamination(SF))
    props = queries._props(SF)
    planted = prepare_state(SF, seed=2, bkafi_dim=6, k=5, props=props,
                            prep=prep_train(props, seed=2))
    path = state_cache_path(SF, None, 1, 6, 5, 2, False)
    before = open(path, "rb").read() if os.path.exists(path) else None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            pickle.dump(planted, f)
        queries._state.cache.pop(SF, None)
        again = rows(queries.geo_contamination(SF))
    finally:
        if before is None:
            os.remove(path)
        else:
            with open(path, "wb") as f:
                f.write(before)
    assert again.equals(clean)


def test_png_codec_round_trip(ray_session):
    """decode_png_gray inverts encode_png_gray exactly on arbitrary
    canvases — the real-bytes media path round-trips its own codec."""
    from engine.multimodal import decode_png_gray
    from engine.render import encode_png_gray
    rng = np.random.default_rng(3)
    for shape in ((64, 64), (16, 32), (1, 7)):
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert (decode_png_gray(encode_png_gray(img)) == img).all()


def test_multimodal_real_planted_recall(ray_session):
    """Real-bytes patch-embedding blocking: a matched index doc is a
    lightly jittered copy of its cand, so its wireframe render — and hence
    its patch embedding — must rank it into the cosine top-5 for nearly
    every cand; embeddings are deterministic across runs."""
    from engine.queries import multimodal_real
    nn = multimodal_real(SF).to_pandas()
    assert set(nn.columns) >= {"cand_id", "index_id", "rank"}
    hits = nn[nn.cand_id == nn.index_id].cand_id.nunique()
    n_cands = nn.cand_id.nunique()
    # 85% of cands have a matched (jittered) index entity; require recall
    # >= 0.9 over those
    assert hits >= 0.9 * 0.85 * n_cands, (hits, n_cands)
    again = multimodal_real(SF).to_pandas()
    assert nn.sort_values(["cand_id", "rank"]).reset_index(drop=True).equals(
        again.sort_values(["cand_id", "rank"]).reset_index(drop=True))


def test_embedding_scores_independent_of_cand_order(ray_session,
                                                   monkeypatch):
    """multimodal_real's cosine scores do not depend on which batch, or
    where in it, a cand row arrives: shuffling the cand rows gives the same
    score bits on both index routes, and so does scoring them in shuffled
    97-row batches (where a BLAS GEMM, ``cv @ iv.T``, changes 7 of the 500
    rows in the last bits)."""
    from engine import blocking as blk
    from engine import gates, multimodal, queries
    from engine.pipeline import side_dataset
    emb = multimodal.patch_embeddings(queries._render(SF)).materialize()
    cands, index = side_dataset(emb, "cands"), side_dataset(emb, "index")

    def rows(ds):
        return ds.to_pandas().sort_values(["cand_id", "rank"]) \
            .reset_index(drop=True)

    base = rows(blk.embedding_nn_auto(cands, index, nn_param=5))
    shuffled = cands.random_shuffle(seed=1)
    for budget in (np.inf, 0):   # broadcast, then one shard per block
        monkeypatch.setattr(gates, "MAX_BROADCAST_INDEX_ROWS", budget)
        got = rows(blk.embedding_nn_auto(shuffled, index.repartition(5),
                                         nn_param=5))
        assert got[["cand_id", "index_id", "rank"]].equals(
            base[["cand_id", "index_id", "rank"]])
        assert np.array_equal(got.score.to_numpy().view(np.uint64),
                              base.score.to_numpy().view(np.uint64))
    cv, iv = (np.array(ds.to_pandas().feature.tolist())
              for ds in (cands, index))
    perm = np.random.default_rng(1).permutation(len(cv))
    whole = blk.inner_products(cv, iv)[perm]
    parts = np.concatenate([blk.inner_products(cv[perm][i:i + 97], iv)
                            for i in range(0, len(cv), 97)])
    assert np.array_equal(whole.view(np.uint64), parts.view(np.uint64))


def test_media_resize_and_frame_sample(ray_session):
    """Resize: output PNGs decode to (16,16) with content from the source
    canvas (deterministic CRCs); frame-sample: every stride-th media span
    kept in order on a constructed multi-span doc."""
    import pyarrow as pa
    import ray.data
    from engine.multimodal import (decode_png_gray, frame_sample,
                                   resize_png_gray)
    from engine.queries import media_resize as q_resize
    from engine.render import encode_png_gray
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
    small = decode_png_gray(resize_png_gray(encode_png_gray(img), 16))
    assert small.shape == (16, 16)
    assert (small == img[::4, ::4]).all()  # nearest-neighbor stride
    out = q_resize(SF).to_pandas()
    assert len(out) > 0 and (out.png_bytes_out < out.png_bytes_in).all()
    key = ["doc_id", "source"]  # doc_id repeats across the two sources
    again = q_resize(SF).to_pandas().sort_values(key)
    assert out.sort_values(key).png_crc_out.tolist() \
        == again.png_crc_out.tolist()
    # frame sampling on a 5-media-span doc
    spans = [{"kind": "media", "text": "", "media_ref": f"png://f/{i}",
              "offset": i} for i in range(5)]
    spans.insert(2, {"kind": "text", "text": "x", "media_ref": "",
                     "offset": 99})
    docs = ray.data.from_items([{"doc_id": "7", "spans": spans}])
    f = frame_sample(docs, stride=2).to_pandas()
    assert f.media_ref.tolist() == ["png://f/0", "png://f/2", "png://f/4"]
    assert f.frame_idx.tolist() == [0, 2, 4]


def test_audio_features_closed_forms(ray_session):
    """Square-wave DSP: zero crossings = floor((n-1)/p), minimal-shift
    period = 2p, energy = n * A^2 — the real scans must equal the closed
    forms for arbitrary refs."""
    import hashlib
    import pyarrow as pa
    from engine.multimodal import AudioFeatureActor
    a = AudioFeatureActor()
    refs = [f"png://{k}/0" for k in (0, 7, 999, 10000042, 123456789)]
    spans = [[{"kind": "media", "text": "", "media_ref": r, "offset": 0}]
             for r in refs]
    t = pa.table({"doc_id": pa.array([str(i) for i in range(len(refs))]),
                  "spans": pa.array(spans)})
    out = a(t).to_pydict()
    for i, r in enumerate(refs):
        h = int.from_bytes(hashlib.md5(r.encode()).digest()[:8], "little")
        p = 2 + h % 31
        assert out["energy"][i] == 256 * 64
        assert out["zero_crossings"][i] == 255 // p
        assert out["period_est"][i] == 2 * p

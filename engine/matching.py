"""Deterministic numpy classifiers (no sklearn in this environment).

Replaces the reference's FlexibleClassifier model zoo (classifier.py:43-54)
with seeded, exact-reproducible implementations whose results are
independent of parallelism: training runs on the driver over a
canonically-sorted train matrix (SURVEY.md §7.4.6), exactly as the reference
fits on the driver (classifier.py:150-163).  Prediction is distributed via a
task-pool map_batches (``predict_dataset``).

The seven families of ``MODEL_REGISTRY``: RandomForest (the reference's
blocking model, config.py:78) and Bagging average Gini trees grown on
bootstrap samples; GradientBoosting (depth-3 squared-error trees) and
XGBoost (depth-4 Newton trees) boost on the logistic loss; AdaBoost weighs
decision stumps; LogisticRegression and MLP fill the linear and neural
slots.  Every tree, stumps included, is one ``Tree``: a flat node table
walked by one traversal, its splits found by the one scan ``_scan``, grown
by ``_grow`` from a criterion that supplies what differs per family.  A
model registry and grid-search CV mirror classifier.py:106-163's surface.
``feature_importances_`` sum to 1 and feed the BKAFI blocker
(classifier.py:191-207).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from engine import storage


class _Classifier:
    """The label is 1 where ``predict_proba`` reaches 0.5."""

    def predict(self, X):
        return (self.predict_proba(X) >= 0.5).astype(np.int8)


def _shares(imp: np.ndarray) -> np.ndarray:
    """Importances scaled to sum to 1 (all zeros stay zeros)."""
    s = imp.sum()
    return imp / s if s > 0 else imp


class Tree:
    """A binary tree as one flat node table, an entry per node: ``feature``
    (-1 at a leaf), ``threshold`` (rows with x <= threshold go left),
    ``left``, ``right`` and the leaf ``value``."""

    def __init__(self, feature, threshold, left, right, value,
                 importances=None):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        self.importances_ = importances

    def predict(self, X):
        return self.walk(np.zeros(1, dtype=np.int64), X)

    def walk(self, roots, X):
        """The one traversal: every row of ``X`` from each of ``roots``
        down the table, level-synchronously and with no per-row loop (NaN
        is never <= a threshold: it goes right).  Returns the leaf values,
        root by root: (len(roots) * len(X),)."""
        n, f = X.shape
        flat = X.ravel()
        cur = np.repeat(roots, n)
        row = np.tile(np.arange(0, n * f, f), len(roots))   # row offsets
        live = np.nonzero(self.feature[cur] >= 0)[0]
        while len(live):
            node = cur[live]
            x = flat[row[live] + self.feature[node]]
            nxt = np.where(x <= self.threshold[node],
                           self.left[node], self.right[node])
            cur[live] = nxt
            live = live[self.feature[nxt] >= 0]
        return self.value[cur]


def _stack(trees) -> tuple[Tree, np.ndarray]:
    """The node tables of ``trees`` end to end as one ``Tree``, child
    indices offset by each tree's start (a leaf's -1 children are never
    read), and each tree's root in it."""
    roots = np.cumsum([0, *(len(t.feature) for t in trees[:-1])])
    return Tree(np.concatenate([t.feature for t in trees]),
                np.concatenate([t.threshold for t in trees]),
                np.concatenate([t.left + r for t, r in zip(trees, roots)]),
                np.concatenate([t.right + r for t, r in zip(trees, roots)]),
                np.concatenate([t.value for t in trees])), roots


def _scan(X, idx, features, stats):
    """The split scan.  For each of ``features`` that varies over rows
    ``idx``: stable-sort those rows by it and yield the feature, its sorted
    values ``xs``, the positions ``cut`` where the value changes and the
    prefix sums, in that order, of each per-row statistic in ``stats``.
    Cut ``c`` sends the first ``c`` sorted rows left, at the threshold
    ``(xs[c - 1] + xs[c]) / 2``."""
    for fi in features:
        x = X[idx, fi]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        cut = np.nonzero(xs[1:] != xs[:-1])[0] + 1
        if len(cut):
            yield fi, xs, cut, [np.cumsum(s[order]) for s in stats]


def _grow(X, crit, max_depth: int) -> Tree:
    """Grow one tree depth first, left before right.  ``crit.node(rows)``
    gives a node's leaf value, its per-row statistics (None: it stays a
    leaf) and its totals; a node splits below ``max_depth``, from
    ``crit.min_rows`` rows, at the cut of largest ``crit.gain`` above
    ``crit.min_gain`` among ``crit.features(f)`` (a later feature must win
    by more than 1e-15)."""
    n, f = X.shape
    imp = np.zeros(f)
    table = []   # [feature, threshold, left, right, value] per node

    def grow(idx, depth):
        node = len(table)
        value, stats, totals = crit.node(idx)
        table.append([-1, 0.0, -1, -1, value])
        if depth >= max_depth or len(idx) < crit.min_rows or stats is None:
            return node
        best = None
        for fi, xs, cut, sums in _scan(X, idx, crit.features(f), stats):
            gain = crit.gain(sums, cut, len(idx), totals)
            b = int(np.argmax(gain))
            if gain[b] > crit.min_gain and (
                    best is None or gain[b] > best[0] + 1e-15):
                thr = (xs[cut[b] - 1] + xs[cut[b]]) / 2.0
                best = (float(gain[b]), fi, thr)
        if best is None:
            return node
        gain, fi, thr = best
        imp[fi] += crit.importance(gain, len(idx), n)
        mask = X[idx, fi] <= thr
        table[node][:2] = fi, thr
        table[node][2] = grow(idx[mask], depth + 1)
        table[node][3] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(n), 0)
    return Tree(*zip(*table), importances=imp)


class _Gini:
    """Gini impurity of 0/1 labels (RandomForest, Bagging).  Each node
    draws ``k`` features from the tree's ``rng``; a pure node stays a leaf
    without drawing.  A split's importance is its gain times its node's
    share of the rows."""

    min_gain = 0.0

    def __init__(self, y, rng, k: int, min_rows: int):
        self.y, self.rng, self.k, self.min_rows = y, rng, k, min_rows

    def node(self, idx):
        ys = self.y[idx]
        return float(ys.mean()), None if ys.min() == ys.max() else (ys,), None

    def features(self, f):
        return np.sort(self.rng.choice(f, size=self.k, replace=False))

    @staticmethod
    def gain(sums, cut, n, _):
        pos, = sums
        total_pos = pos[-1]
        nl = cut.astype(np.float64)
        nr = n - nl
        pl = pos[cut - 1]
        pr = total_pos - pl
        gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
        gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
        parent = 1.0 - (total_pos / n) ** 2 - ((n - total_pos) / n) ** 2
        return parent - (nl / n) * gini_l - (nr / n) * gini_r

    @staticmethod
    def importance(gain, n, n_total):
        return gain * n / n_total


class _SquaredError:
    """Squared error of the residuals ``r`` (GradientBoosting): the leaf is
    their mean, every feature is scanned."""

    min_rows, min_gain = 4, 1e-12
    features = staticmethod(range)

    def __init__(self, r):
        self.r = r

    def node(self, idx):
        rs = self.r[idx]
        return float(rs.mean()), (rs,), None

    @staticmethod
    def gain(sums, cut, n, _):
        csum, = sums
        tot = csum[-1]
        nl = cut.astype(np.float64)
        sl = csum[cut - 1]
        sr = tot - sl
        return sl * sl / nl + sr * sr / (n - nl) - tot * tot / n

    @staticmethod
    def importance(gain, n, n_total):
        return gain / n_total


class _Newton:
    """XGBoost's second-order criterion on gradients ``g`` and hessians
    ``h``: leaf weight -G/(H+λ), split gain ½[G_L²/(H_L+λ) + G_R²/(H_R+λ)
    − G²/(H+λ)] − γ, with the node totals G and H summed pairwise; every
    feature is scanned."""

    min_rows, min_gain = 2, 1e-12
    features = staticmethod(range)

    def __init__(self, g, h, lam: float, gamma: float):
        self.g, self.h, self.lam, self.gamma = g, h, lam, gamma

    def node(self, idx):
        gs, hs = self.g[idx], self.h[idx]
        G, H = float(gs.sum()), float(hs.sum())
        return -G / (H + self.lam), (gs, hs), (G, H)

    def gain(self, sums, cut, n, totals):
        (gc, hc), (G, H) = sums, totals
        GL, HL = gc[cut - 1], hc[cut - 1]
        GR, HR = G - GL, H - HL
        return 0.5 * (GL * GL / (HL + self.lam) + GR * GR / (HR + self.lam)
                      - G * G / (H + self.lam)) - self.gamma

    @staticmethod
    def importance(gain, n, n_total):
        return gain


def _fit_forest_tree(X, y, params: dict, t: int) -> Tree:
    """One seeded bootstrap tree — pure function so trees can fit in parallel
    Ray tasks with results identical to the serial order."""
    rng = np.random.default_rng(params["random_state"] * 100003 + t)
    boot = rng.integers(0, len(X), len(X))
    return _grow(X[boot], _Gini(y[boot], rng, params["k"],
                                params["min_samples_split"]),
                 params["max_depth"])


class RandomForest(_Classifier):
    """Seeded bagged trees; deterministic regardless of num_cpus (per-tree
    seeds fix the result whether trees fit serially or as parallel Ray
    tasks — the reference fits on the driver, classifier.py:150-163; we fan
    the independent trees out when a Ray session exists)."""

    def __init__(self, n_estimators=40, max_depth=10, min_samples_split=2,
                 max_features="sqrt", random_state=1):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X, y):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int8)
        f = X.shape[1]
        k = max(1, int(np.sqrt(f))) if self.max_features == "sqrt" else f
        params = dict(random_state=self.random_state, max_depth=self.max_depth,
                      min_samples_split=self.min_samples_split, k=k)
        # only the driver fans trees out: inside a task (a grid-search CV
        # fit) the outer fan-out already owns the cluster
        if (ray.is_initialized() and len(X) * f >= 100_000
                and ray.get_runtime_context().worker.mode != ray.WORKER_MODE):
            fit_remote = ray.remote(num_cpus=1)(_fit_forest_tree)
            Xr, yr = ray.put(X), ray.put(y)
            # remote fit results, gathered on the driver (no map UDF)
            self.trees_ = ray.get([fit_remote.remote(Xr, yr, params, t)
                                   for t in range(self.n_estimators)])
        else:
            self.trees_ = [_fit_forest_tree(X, y, params, t)
                           for t in range(self.n_estimators)]
        self.feature_importances_ = _shares(
            np.sum([t.importances_ for t in self.trees_], axis=0))
        return self

    def predict_proba(self, X):
        """The mean leaf value over the trees, all walked at once."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        table, roots = _stack(self.trees_)
        values = table.walk(roots, X)
        return np.mean(values.reshape(len(self.trees_), len(X)), axis=0)


class Bagging(RandomForest):
    """Bootstrap-aggregated deep trees considering ALL features at every
    split — the reference's headline family (BaggingClassifier; Table 6's
    P=100/F1=93 row, classifier.py:48 / config.py:75-76).  Differs from
    RandomForest exactly as sklearn's does: no feature subsampling and
    deeper default trees."""

    def __init__(self, n_estimators=40, max_depth=14, min_samples_split=2,
                 random_state=1):
        super().__init__(n_estimators=n_estimators, max_depth=max_depth,
                         min_samples_split=min_samples_split,
                         max_features=None, random_state=random_state)


class _LogisticBoosting(_Classifier):
    """Boosting on the logistic loss (GradientBoosting, XGBoost): each
    round grows one tree from the family's ``_criterion(y, p)`` at the
    current probabilities ``p`` and adds ``learning_rate`` times its
    prediction to the margin."""

    def fit(self, X, y):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        pred = np.zeros(len(y))
        self.trees_ = []
        imp = np.zeros(X.shape[1])
        for _ in range(self.n_estimators):
            p = 1.0 / (1.0 + np.exp(-pred))
            tree = _grow(X, self._criterion(y, p), self.max_depth)
            pred += self.learning_rate * tree.predict(X)
            imp += tree.importances_
            self.trees_.append(tree)
        self.feature_importances_ = _shares(imp)
        return self

    def predict_proba(self, X):
        X = np.ascontiguousarray(X, dtype=np.float64)
        pred = np.zeros(len(X))
        for tree in self.trees_:
            pred += self.learning_rate * tree.predict(X)
        return 1.0 / (1.0 + np.exp(-pred))


class GradientBoosting(_LogisticBoosting):
    """Depth-limited regression trees on logistic-loss gradients."""

    def __init__(self, n_estimators=60, learning_rate=0.2, max_depth=3,
                 random_state=1):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.random_state = random_state  # unused (deterministic); API compat

    def _criterion(self, y, p):
        return _SquaredError(y - p)


class XGBoost(_LogisticBoosting):
    """Deterministic second-order boosted trees — the reference's
    XGBClassifier slot (classifier.py model zoo / config.py:75-76,121-127):
    logistic loss, per-round gradients g = p − y and hessians h = p(1−p),
    L2 leaf regularization ``lam`` and min split gain ``gamma`` exactly as
    the XGBoost objective defines them.  No RNG anywhere."""

    def __init__(self, n_estimators=60, learning_rate=0.3, max_depth=4,
                 lam=1.0, gamma=0.0, random_state=1):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.lam = lam
        self.gamma = gamma
        self.random_state = random_state  # unused (deterministic); API compat

    def _criterion(self, y, p):
        return _Newton(p - y, np.maximum(p * (1.0 - p), 1e-10),
                       self.lam, self.gamma)


def _stump(X, y, w) -> Tree:
    """Depth-1 tree of least weighted 0-1 error over (feature, threshold,
    polarity), y in {-1, +1}: ties go to the lowest feature, then polarity
    +1, then the lowest threshold; with every feature constant, the
    weighted majority vote."""
    pos, neg = w * (y > 0), w * (y < 0)
    best = None  # (err, fi, thr, polarity)
    for fi, xs, cut, (cpos, cneg) in _scan(X, np.arange(len(X)),
                                            range(X.shape[1]), (pos, neg)):
        tot_pos, tot_neg = cpos[-1], cneg[-1]
        # polarity +1: predict -1 left of thr, +1 right
        err_plus = cpos[cut - 1] + (tot_neg - cneg[cut - 1])
        err_minus = (tot_pos + tot_neg) - err_plus
        for errs, pol in ((err_plus, 1), (err_minus, -1)):
            b = int(np.argmin(errs))
            if best is None or errs[b] < best[0] - 1e-15:
                thr = (xs[cut[b] - 1] + xs[cut[b]]) / 2.0
                best = (float(errs[b]), fi, thr, pol)
    if best is None:
        best = (0.5, 0, -np.inf,
                1 if float(pos.sum()) >= float(neg.sum()) else -1)
    _, fi, thr, pol = best
    return Tree([fi, -1, -1], [thr, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                [0.0, -pol, pol])


class AdaBoost:
    """Deterministic AdaBoost (discrete SAMME over weighted stumps) — the
    reference's AdaBoostClassifier slot (classifier.py:49 / config.py:75-76).
    No RNG anywhere; ``feature_importances_`` are alpha-weight sums per
    feature."""

    def __init__(self, n_estimators=60, learning_rate=1.0, random_state=1):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate  # shrinks each stump's alpha
        self.random_state = random_state  # unused (deterministic); API compat

    def fit(self, X, y):
        X = np.ascontiguousarray(X, dtype=np.float64)
        yy = np.where(np.asarray(y) > 0, 1.0, -1.0)
        n, f = X.shape
        w = np.full(n, 1.0 / n)
        self.trees_, self.alphas_ = [], []
        imp = np.zeros(f)
        for _ in range(self.n_estimators):
            stump = _stump(X, yy, w)
            pred = stump.predict(X)
            err = float(w[pred != yy].sum())
            if err >= 0.5:
                break
            err = max(err, 1e-10)
            alpha = self.learning_rate * 0.5 * np.log((1.0 - err) / err)
            self.trees_.append(stump)
            self.alphas_.append(alpha)
            imp[stump.feature[0]] += alpha
            w = w * np.exp(-alpha * yy * pred)
            w /= w.sum()
            if err <= 1e-10:
                break
        self.feature_importances_ = _shares(imp)
        return self

    def _margin(self, X):
        X = np.ascontiguousarray(X, dtype=np.float64)
        m = np.zeros(len(X))
        for stump, alpha in zip(self.trees_, self.alphas_):
            m += alpha * stump.predict(X)
        return m

    def predict_proba(self, X):
        return 1.0 / (1.0 + np.exp(-2.0 * self._margin(X)))

    def predict(self, X):
        return (self._margin(X) > 0).astype(np.int8)


class LogisticRegression(_Classifier):
    """Deterministic L2-regularized logistic regression (full-batch Newton
    steps — no RNG, identical at any parallelism).  Fills the reference's
    linear-model slot in the registry (classifier.py:47); its
    ``feature_importances_`` are |weight| magnitudes."""

    def __init__(self, l2: float = 1e-3, n_iter: int = 25, random_state: int = 1):
        self.l2 = l2
        self.n_iter = n_iter
        self.random_state = random_state

    def fit(self, X, y):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.mu_ = X.mean(axis=0)
        self.sd_ = X.std(axis=0)
        self.sd_[self.sd_ == 0] = 1.0
        Z = (X - self.mu_) / self.sd_
        Z = np.hstack([Z, np.ones((len(Z), 1))])
        w = np.zeros(Z.shape[1])
        for _ in range(self.n_iter):
            p = 1.0 / (1.0 + np.exp(-(Z @ w)))
            g = Z.T @ (p - y) + self.l2 * w
            W = p * (1 - p) + 1e-9
            H = (Z * W[:, None]).T @ Z + self.l2 * np.eye(Z.shape[1])
            w = w - np.linalg.solve(H, g)
        self.w_ = w
        self.feature_importances_ = _shares(np.abs(w[:-1]))
        return self

    def predict_proba(self, X):
        Z = (np.ascontiguousarray(X, dtype=np.float64) - self.mu_) / self.sd_
        Z = np.hstack([Z, np.ones((len(Z), 1))])
        return 1.0 / (1.0 + np.exp(-(Z @ self.w_)))


class MLP(_Classifier):
    """Seeded two-hidden-layer perceptron — the reference's MLPClassifier
    slot (config.py:96-101: hidden (64,32), relu, adam).  Deterministic:
    seeded init, FULL-batch Adam for a fixed epoch count (no minibatch
    shuffling, so the fit is identical at any parallelism).
    ``feature_importances_`` are first-layer |weight| row sums."""

    def __init__(self, hidden=(64, 32), epochs=200, lr=0.01, l2=1e-4,
                 random_state=1):
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.lr = lr
        self.l2 = l2
        self.random_state = random_state

    def fit(self, X, y):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.mu_ = X.mean(axis=0)
        self.sd_ = X.std(axis=0)
        self.sd_[self.sd_ == 0] = 1.0
        Z = (X - self.mu_) / self.sd_
        rng = np.random.default_rng(self.random_state)
        sizes = [Z.shape[1], *self.hidden, 1]
        W = [rng.standard_normal((a, b)) * np.sqrt(2.0 / a)
             for a, b in zip(sizes[:-1], sizes[1:])]
        B = [np.zeros(b) for b in sizes[1:]]
        mW = [np.zeros_like(w) for w in W]
        vW = [np.zeros_like(w) for w in W]
        mB = [np.zeros_like(b) for b in B]
        vB = [np.zeros_like(b) for b in B]
        b1, b2, eps = 0.9, 0.999, 1e-8
        n = len(Z)
        for t in range(1, self.epochs + 1):
            acts = [Z]
            for li in range(len(W) - 1):
                acts.append(np.maximum(acts[-1] @ W[li] + B[li], 0.0))
            logits = (acts[-1] @ W[-1] + B[-1]).ravel()
            p = 1.0 / (1.0 + np.exp(-logits))
            delta = ((p - y) / n)[:, None]
            for li in range(len(W) - 1, -1, -1):
                gW = acts[li].T @ delta + self.l2 * W[li]
                gB = delta.sum(axis=0)
                if li > 0:
                    delta = (delta @ W[li].T) * (acts[li] > 0)
                mW[li] = b1 * mW[li] + (1 - b1) * gW
                vW[li] = b2 * vW[li] + (1 - b2) * gW * gW
                mB[li] = b1 * mB[li] + (1 - b1) * gB
                vB[li] = b2 * vB[li] + (1 - b2) * gB * gB
                c1, c2 = 1 - b1 ** t, 1 - b2 ** t
                W[li] -= self.lr * (mW[li] / c1) / (np.sqrt(vW[li] / c2) + eps)
                B[li] -= self.lr * (mB[li] / c1) / (np.sqrt(vB[li] / c2) + eps)
        self.W_, self.B_ = W, B
        self.feature_importances_ = _shares(np.abs(W[0]).sum(axis=1))
        return self

    def predict_proba(self, X):
        Z = (np.ascontiguousarray(X, dtype=np.float64) - self.mu_) / self.sd_
        for li in range(len(self.W_) - 1):
            Z = np.maximum(Z @ self.W_[li] + self.B_[li], 0.0)
        logits = (Z @ self.W_[-1] + self.B_[-1]).ravel()
        return 1.0 / (1.0 + np.exp(-logits))


MODEL_REGISTRY = {
    "RandomForest": RandomForest,
    "GradientBoosting": GradientBoosting,
    "Bagging": Bagging,
    "AdaBoost": AdaBoost,
    "XGBoost": XGBoost,
    "MLP": MLP,
    "LogisticRegression": LogisticRegression,
}

# hyperparameter grids per family — the reference's config.Models.params_dict
# (config.py:79-128) scaled to deterministic numpy models.  DEFAULT_GRIDS
# bound the correctness-driver runtime; FULL_GRIDS mirror the reference's
# published grid dimensions (select with grids="full" / GEO_FULL_GRIDS=1).
DEFAULT_GRIDS = {
    "RandomForest": {"n_estimators": [50, 100], "max_depth": [5, 10]},
    "GradientBoosting": {"n_estimators": [100, 200],
                         "learning_rate": [0.01, 0.1]},
    "Bagging": {"n_estimators": [10, 50], "max_depth": [10, 14]},
    "AdaBoost": {"n_estimators": [100, 200], "learning_rate": [0.5, 1.0]},
    "XGBoost": {"n_estimators": [50, 100], "max_depth": [3, 5],
                "learning_rate": [0.1, 0.5]},
    "MLP": {"hidden": [(64, 32)], "epochs": [200]},
    "LogisticRegression": {"l2": [1e-3, 1e-1, 1.0]},
}

FULL_GRIDS = {
    # config.py:80-83
    "RandomForest": {"n_estimators": [50, 100, 200], "max_depth": [5, 10],
                     "min_samples_split": [2]},
    # config.py:107-113
    "GradientBoosting": {"learning_rate": [0.01, 0.1],
                         "n_estimators": [100, 200], "max_depth": [3]},
    # config.py:115-119 (max_samples/max_features become depth variants in
    # the deterministic numpy bagger)
    "Bagging": {"n_estimators": [10, 50], "max_depth": [10, 12, 14]},
    # config.py:102-105
    "AdaBoost": {"n_estimators": [100, 200],
                 "learning_rate": [0.1, 0.5, 1.0]},
    # config.py:121-127
    "XGBoost": {"max_depth": [3, 4, 5], "learning_rate": [0.01, 0.1, 0.5],
                "n_estimators": [50, 100, 150, 200], "gamma": [0.0, 0.1, 1.0]},
    # config.py:96-101
    "MLP": {"hidden": [(64, 32)], "epochs": [200, 500]},
    # config.py:90-93
    "LogisticRegression": {"l2": [1e-2, 1e-1, 1.0]},
}


def f1_binary(y_true, y_pred):
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0, p, r


def _cv_fit_score(X, y, fold, model_name: str, params: dict, f: int, seed: int):
    """One (param-combo, fold) CV fit+score.  Runs as a Ray task inside
    grid_search_fit's fan-out, where RandomForest fits its trees serially
    (the fan-out already owns the cluster)."""
    tr, te = fold != f, fold == f
    m = MODEL_REGISTRY[model_name](random_state=seed, **params).fit(
        X[tr], y[tr])
    return f1_binary(y[te], m.predict(X[te]))[0]


def grid_search_fit(model_name: str, grid: dict, X, y, cv: int = 3, seed: int = 1):
    """Deterministic GridSearchCV analogue (classifier.py:150-163): k-fold CV
    scored by binary F1, best params re-fit on all data.  The (combo x fold)
    CV fits are embarrassingly parallel, so they fan out as one Ray task each
    over a ray.put-once train matrix; scores are reduced on the driver with
    the same first-combo-wins tie policy as the serial loop, so results are
    bit-identical regardless of parallelism."""
    from itertools import product
    cls = MODEL_REGISTRY[model_name]
    keys = sorted(grid)
    n = len(y)
    fold = np.arange(n) % cv
    combos = [dict(zip(keys, c)) for c in product(*(grid[k] for k in keys))]
    jobs = [(ci, f) for ci in range(len(combos)) for f in range(cv)]
    if ray.is_initialized() and len(jobs) > 1:
        fit_remote = ray.remote(num_cpus=1)(_cv_fit_score)
        Xr = ray.put(np.ascontiguousarray(X, dtype=np.float64))
        yr = ray.put(np.asarray(y, dtype=np.int8))
        foldr = ray.put(fold)
        # remote fit results, gathered on the driver (no map UDF)
        scores = ray.get([fit_remote.remote(Xr, yr, foldr, model_name,
                                            combos[ci], f, seed)
                          for ci, f in jobs])
    else:
        scores = [_cv_fit_score(X, y, fold, model_name, combos[ci], f, seed)
                  for ci, f in jobs]
    best = None
    for ci, params in enumerate(combos):
        score = float(np.mean([scores[ci * cv + f] for f in range(cv)]))
        if best is None or score > best[0] + 1e-12:
            best = (score, params)
    model = cls(random_state=seed, **best[1]).fit(X, y)
    return model, best[1], best[0]


def predict_dataset(ds: ray.data.Dataset, model, feature_cols: list[str],
                    concurrency: int = 4) -> ray.data.Dataset:
    """Distributed inference: model broadcast once, task pool per batch
    (the reference's classifier.predict loop — classifier.py:132-135 — as a
    map_batches stage)."""
    # stateless task pool, the model fetched once per worker
    shared_model = storage.broadcast(model)

    def predict_fn(batch: pa.Table) -> pa.Table:
        X = np.column_stack([batch.column(c).to_numpy() for c in feature_cols])
        pred = shared_model().predict(X).astype(np.int8)
        return batch.append_column("pred", pa.array(pred, type=pa.int8()))

    return ds.map_batches(predict_fn, batch_format="pyarrow",
                          batch_size=8192, concurrency=concurrency)

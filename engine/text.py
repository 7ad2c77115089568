"""Text-analysis operators over the generic `documents` table: token stats,
quality scoring, language-ID heuristic, document fingerprinting.

These are the training-data-pipeline operators the graft adds beyond the
reference (which has no text stage); all vectorized map_batches over Arrow.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from engine import gates, storage
from engine.joins import bucketed_hash_join, shuffle_groups, stable_hash64

STOPWORDS = {"the", "a", "and", "of", "to"}

# tiny per-language stopword profiles for the heuristic language ID
LANG_PROFILES = {
    "en": {"the", "a", "and", "fast", "key"},
    "es": {"the", "data", "slow", "table"},
    "zh": {"spark", "batch", "window"},
}


def text_stats(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Per-doc token statistics — all int ratios, so SQL-exact.

    Columns: doc_id, n_tokens, n_distinct, n_stop ('the' count),
    quality = n_distinct / n_tokens.
    """
    def stats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n_tok = np.empty(len(texts), dtype=np.int64)
        n_dis = np.empty(len(texts), dtype=np.int64)
        n_stop = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            toks = t.split(" ")
            n_tok[i] = len(toks)
            n_dis[i] = len(set(toks))
            n_stop[i] = sum(1 for w in toks if w == "the")
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok),
            "n_distinct": pa.array(n_dis),
            "n_stop": pa.array(n_stop),
            "quality": pa.array(n_dis / n_tok, type=pa.float64()),
        })

    return docs.map_batches(stats, batch_format="pyarrow")


def _lang(tokset: set[str]) -> str:
    """Heuristic language ID of a doc's distinct tokens: argmax of profile
    overlap / profile size, a tie going to the first language by name."""
    best, best_s = "en", -1.0
    for lang, prof in sorted(LANG_PROFILES.items()):
        s = len(tokset & prof) / len(prof)
        if s > best_s:
            best, best_s = lang, s
    return best


def lang_id(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Heuristic language ID per doc (``_lang``)."""
    def stage(batch: pa.Table) -> pa.Table:
        preds = [_lang(set(t.split(" ")))
                 for t in batch.column("text").to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "pred_lang": pa.array(preds, type=pa.string()),
        })

    return docs.map_batches(stage, batch_format="pyarrow")


# GPT-2-style pretokenizer pattern, simplified to the RE2-compatible subset
# (no lookahead) so the DuckDB oracle's regexp_extract_all agrees with
# Python's re: contractions | space?-letters | space?-digits |
# space?-punctuation-run | whitespace-run.
BPE_PATTERN = re.compile(
    r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+")


def token_counts(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Token counting: whitespace tokens + BPE-ish subword pretokens +
    chars — the training-data-pipeline budget columns.  All outputs are
    ints, so SQL-exact."""
    def stage(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_ws_tokens": pa.array([t.count(" ") + 1 for t in texts],
                                    type=pa.int64()),
            "n_subtokens": pa.array([len(BPE_PATTERN.findall(t))
                                     for t in texts], type=pa.int64()),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        })

    return docs.map_batches(stage, batch_format="pyarrow")


def quality_filter(docs: ray.data.Dataset,
                   min_tokens: int = 20, max_tokens: int = 90,
                   min_word_len: int = 3, max_word_len: int = 7,
                   min_stops: int = 2,
                   lex_num: int = 1, lex_den: int = 2,
                   passthrough: bool = False) -> ray.data.Dataset:
    """Gopher-style rule-based quality filter (Rae et al. 2021 §A1.1 /
    C4 heuristics), the standard pre-training curation gate:

    * ``ok_len``        — token count in [min_tokens, max_tokens]
    * ``ok_word_len``   — mean word length in [min_word_len, max_word_len],
                          tested as the exact integer cross-multiplication
                          ``min*n <= sum_len <= max*n`` (no float division)
    * ``ok_stop``       — at least ``min_stops`` stopword occurrences
                          (the "has real function words" rule)
    * ``ok_lex``        — lexical diversity distinct/tokens >= lex_num/lex_den,
                          tested as ``distinct*lex_den >= tokens*lex_num``
    * ``keep``          — AND of all rules

    Every rule is an integer comparison, so the whole table is SQL-exact.
    Pure stateless map_batches — streams at any corpus size.

    ``passthrough=True`` additionally carries the original ``text`` column
    so downstream curation stages (dedup, decontamination) can consume the
    keepers directly in ONE streaming composition (see
    queries.curation_pipeline) instead of joining flags back."""
    stop = frozenset(STOPWORDS)

    def rules(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        m = len(texts)
        n_tok = np.empty(m, dtype=np.int64)
        sum_len = np.empty(m, dtype=np.int64)
        n_stop = np.empty(m, dtype=np.int64)
        n_dis = np.empty(m, dtype=np.int64)
        for i, t in enumerate(texts):
            toks = t.split(" ")
            n_tok[i] = len(toks)
            sum_len[i] = len(t) - (len(toks) - 1)  # chars minus separators
            n_stop[i] = sum(1 for w in toks if w in stop)
            n_dis[i] = len(set(toks))
        ok_len = (n_tok >= min_tokens) & (n_tok <= max_tokens)
        ok_wl = (sum_len >= min_word_len * n_tok) & \
            (sum_len <= max_word_len * n_tok)
        ok_stop = n_stop >= min_stops
        ok_lex = n_dis * lex_den >= n_tok * lex_num
        cols = {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok),
            "ok_len": pa.array(ok_len),
            "ok_word_len": pa.array(ok_wl),
            "ok_stop": pa.array(ok_stop),
            "ok_lex": pa.array(ok_lex),
            "keep": pa.array(ok_len & ok_wl & ok_stop & ok_lex),
        }
        if passthrough:
            cols["text"] = batch.column("text")
        return pa.table(cols)

    return docs.map_batches(rules, batch_format="pyarrow")


def stratified_sample(docs: ray.data.Dataset, rates: dict[str, float],
                      default_rate: float = 1.0,
                      seed: int = 1) -> ray.data.Dataset:
    """Deterministic stratified corpus sampling — the language/source
    rebalancing step of a training-data pipeline (downsample the
    over-represented stratum).  A doc is kept iff
    ``stable_hash64("sample|seed|doc_id") % 1e6 < rate(lang) * 1e6`` — a
    pure per-row decision, so the sample is identical at any parallelism
    and cluster size, and re-running on a grown corpus keeps exactly the
    docs it kept before (reservoirless, coordination-free).
    ``joins.stable_hash64`` equals DuckDB's ``md5_number_upper``, so the
    whole rule replicates in SQL."""
    cuts = {k: int(r * 1_000_000) for k, r in rates.items()}
    dcut = int(default_rate * 1_000_000)

    def sample(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        langs = batch.column("lang").to_pylist()
        h = stable_hash64([f"sample|{seed}|{i}" for i in ids]) % 1_000_000
        thr = np.fromiter((cuts.get(l, dcut) for l in langs),
                          dtype=np.int64, count=len(langs))
        return batch.filter(pa.array(h < thr))

    return docs.map_batches(sample, batch_format="pyarrow")


def reservoir_per_group(docs: ray.data.Dataset, group_col: str = "lang",
                        k: int = 50, seed: int = 1) -> ray.data.Dataset:
    """Deterministic per-group reservoir sample: EXACTLY min(k, |group|)
    docs per group, chosen as the k smallest stable per-row hashes — the
    distributed equivalent of per-stratum reservoir sampling with the RNG
    replaced by a hash rank, so the sample is identical at any
    parallelism/cluster size (and stable under corpus growth: a doc's
    rank never changes, only its membership as better ranks arrive).

    Physical form (the classic distributed-reservoir shape): a per-block
    per-group PARTIAL top-k combiner (bounded state — at most k rows per
    (block, group) survive, so the shuffle carries <= k * n_blocks rows
    per group, never the corpus) -> a ``shuffle_groups`` merge on the
    group taking each group's final top-k.  Output: (group, doc_id,
    rank 1..k by hash order)."""

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        h = stable_hash64([f"res|{seed}|{i}" for i in ids])
        df = pd.DataFrame({
            group_col: batch.column(group_col).to_pylist(),
            "doc_id": np.asarray([int(i) for i in ids], dtype=np.int64),
            "h": h,
        })
        df = df.sort_values([group_col, "h", "doc_id"], kind="mergesort") \
               .groupby(group_col, sort=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False) \
            .replace_schema_metadata(None)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([group_col, "h", "doc_id"], kind="mergesort") \
             .groupby(group_col, sort=False).head(k)
        g = g.assign(rank=g.groupby(group_col, sort=False).cumcount() + 1)
        return g[[group_col, "doc_id", "rank"]]

    return shuffle_groups(
        [(docs.map_batches(partial, batch_format="pyarrow"), [group_col])],
        final)


def fingerprint(docs: ray.data.Dataset, window: int = 8) -> ray.data.Dataset:
    """Rolling-hash document fingerprint: min of 64-bit rolling hashes over
    token windows (winnowing-style), plus a full-text hash."""
    MOD = (1 << 61) - 1
    BASE = 1000003

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        # token hashes as Python ints: the rolling recurrence below is
        # per-doc exact-int arithmetic
        tok_lists = [t.split(" ") for t in texts]
        flat = stable_hash64([w for ws in tok_lists for w in ws]).tolist()
        ends = np.cumsum([len(ws) for ws in tok_lists]).tolist()
        mins = []
        for toks, end in zip(tok_lists, ends):
            hs = flat[end - len(toks):end]
            if len(hs) < window:
                mins.append(min(hs) if hs else 0)
            else:
                roll = 0
                power = pow(BASE, window - 1, MOD)
                vals = []
                for i, h in enumerate(hs):
                    roll = (roll * BASE + h) % MOD
                    if i >= window:
                        roll = (roll - hs[i - window] * power * BASE) % MOD
                    if i >= window - 1:
                        vals.append(roll)
                mins.append(min(vals))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "min_hash": pa.array(np.asarray(mins, dtype=np.uint64)),
            "text_hash": pa.array(stable_hash64(texts)),
        })

    return docs.map_batches(fp, batch_format="pyarrow")


def corpus_stats(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Per-language corpus curation report — the table a training-data
    pipeline prints before filtering: doc counts, whitespace/BPE-ish token
    and char budgets, stopword fraction, lexical diversity, per predicted
    language.

    Scale shape (the combiner-before-groupby pattern): each batch runs
    language-ID + tokenization locally and emits ONE partial-sum row per
    language, so the groupby shuffles #blocks x #langs tiny rows, never the
    corpus.  All sums are ints; the two ratio columns are single exact
    int/int divisions, so the whole table is SQL-exact."""
    from ray.data.aggregate import Sum

    def partial_sums(batch: pa.Table) -> pa.Table:
        agg: dict[str, list[int]] = {}
        for t in batch.column("text").to_pylist():
            toks = t.split(" ")
            tokset = set(toks)
            a = agg.setdefault(_lang(tokset), [0, 0, 0, 0, 0, 0])
            a[0] += 1
            a[1] += len(toks)
            a[2] += len(BPE_PATTERN.findall(t))
            a[3] += len(t)
            a[4] += sum(1 for w in toks if w == "the")
            a[5] += len(tokset)
        langs = sorted(agg)
        m = np.array([agg[l] for l in langs], dtype=np.int64).reshape(
            len(langs), 6)
        return pa.table({
            "language": pa.array(langs, type=pa.string()),
            "n_docs": pa.array(m[:, 0]),
            "ws_tokens": pa.array(m[:, 1]),
            "subtokens": pa.array(m[:, 2]),
            "chars": pa.array(m[:, 3]),
            "stops": pa.array(m[:, 4]),
            "distincts": pa.array(m[:, 5]),
        })

    partial = docs.map_batches(partial_sums, batch_format="pyarrow")
    out = partial.groupby("language").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("ws_tokens", alias_name="ws_tokens"),
        Sum("subtokens", alias_name="subtokens"),
        Sum("chars", alias_name="chars"),
        Sum("stops", alias_name="stops"),
        Sum("distincts", alias_name="distincts"),
    )

    def finish(b: pa.Table) -> pa.Table:
        ws = b.column("ws_tokens").to_numpy()
        stop_frac = b.column("stops").to_numpy() / ws
        lex = b.column("distincts").to_numpy() / ws
        return pa.table({
            "language": b.column("language"),
            "n_docs": b.column("n_docs"),
            "ws_tokens": b.column("ws_tokens"),
            "subtokens": b.column("subtokens"),
            "chars": b.column("chars"),
            "stop_frac": pa.array(stop_frac, type=pa.float64()),
            "lexical_diversity": pa.array(lex, type=pa.float64()),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def tfidf_topk(docs: ray.data.Dataset, k: int = 5) -> ray.data.Dataset:
    """Per-document top-k terms by rational tf-idf — the term-weighting
    stage of a curation/search pipeline (Salton & Buckley 1988), with the
    classic log idf replaced by the pure rational ``tf * N / df`` so every
    score is ONE exact IEEE division and the whole table is SQL-checkable
    bit-for-bit (ln() would tie the result to a libm build).

    Scale shape: (1) docs -> (doc_id, term, tf) explode with per-doc
    np.unique (no global state); (2) document frequency as a per-block
    partial-count combiner then a tiny pre-aggregated groupby — the shuffle
    carries #blocks x block-vocab rows, never the corpus; (3) tf ⋈ df via
    the bucketed hash join (term-partitioned, no broadcast assumption on
    vocabulary size); (4) per-doc top-k via a doc_id ``shuffle_groups``
    with one vectorized sort + cumcount per call.  Ranking order is (score DESC, term ASC) — terms are
    unique within a doc, so the order is total and matches SQL row_number.
    """
    from ray.data.aggregate import Sum

    n_docs = docs.count()

    def explode_tf(batch: pa.Table) -> pa.Table:
        ids, terms, tfs = [], [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks, counts = np.unique(t.split(" "), return_counts=True)
            ids.extend([d] * len(toks))
            terms.extend(toks.tolist())
            tfs.extend(counts.tolist())
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "term": pa.array(terms, type=pa.string()),
            "tf": pa.array(np.asarray(tfs, dtype=np.int64)),
        })

    tf = docs.map_batches(explode_tf, batch_format="pyarrow")

    def block_df(batch: pa.Table) -> pa.Table:
        # each (doc, term) appears once after the per-doc np.unique above,
        # so a within-block term count IS a partial document frequency
        terms, counts = np.unique(
            np.asarray(batch.column("term").to_pylist(), dtype="U"),
            return_counts=True)
        return pa.table({
            "term": pa.array(terms.tolist(), type=pa.string()),
            "n": pa.array(counts.astype(np.int64)),
        })

    df = tf.map_batches(block_df, batch_format="pyarrow") \
        .groupby("term").aggregate(Sum("n", alias_name="df")).materialize()

    # size-gated tail: within the gates.MAX_BROADCAST_VOCAB(_BYTES) budget
    # the df map broadcasts sorted and ONE further doc scan does everything
    # locally — per-doc tf, df lookup, score, and the per-doc top-k (a
    # doc's terms are all computed inside one call), zero joins or shuffles
    # after the df aggregate.  A larger vocabulary falls back to the
    # term-partitioned join plan below (no broadcast assumption).
    dft, _ = gates.collect_under_budget(df, "tfidf_topk",
                                        gates.MAX_BROADCAST_VOCAB,
                                        gates.MAX_BROADCAST_VOCAB_BYTES)
    if dft is not None:
        dft = dft.sort_by("term")
        vocab = storage.broadcast((
            np.asarray(dft.column("term").to_numpy(), dtype="U"),
            dft.column("df").to_numpy().astype(np.int64)))

        def topk_local(batch: pa.Table) -> pa.Table:
            terms_s, dfs_s = vocab()
            ids, terms, tfs, dfs, scores, rnks = [], [], [], [], [], []
            for d, t in zip(batch.column("doc_id").to_pylist(),
                            batch.column("text").to_pylist()):
                toks, counts = np.unique(t.split(" "), return_counts=True)
                dfv = dfs_s[gates.sorted_positions(terms_s, toks,
                                                   "tfidf_topk")]
                s = (counts.astype(np.int64) * n_docs).astype(np.float64) \
                    / dfv.astype(np.float64)
                o = np.lexsort((toks, -s))[:k]        # (score desc, term asc)
                ids.extend([d] * len(o))
                terms.extend(toks[o].tolist())
                tfs.extend(counts[o].astype(np.int64).tolist())
                dfs.extend(dfv[o].tolist())
                scores.extend(s[o].tolist())
                rnks.extend(range(1, len(o) + 1))
            return pa.table({
                "doc_id": pa.array(ids, type=pa.int64()),
                "term": pa.array(terms, type=pa.string()),
                "tf": pa.array(tfs, type=pa.int64()),
                "df": pa.array(dfs, type=pa.int64()),
                "score": pa.array(scores, type=pa.float64()),
                "rnk": pa.array(rnks, type=pa.int64()),
            })

        return docs.map_batches(topk_local, batch_format="pyarrow")

    j = bucketed_hash_join(tf, df, "term", "term")

    def score(batch: pa.Table) -> pa.Table:
        tfv = batch.column("tf").to_numpy()
        dfv = batch.column("df").to_numpy()
        # exact int64 product, exact f64 embed, ONE IEEE division — equals
        # SQL CAST(tf * N AS DOUBLE) / df
        s = (tfv * n_docs).astype(np.float64) / dfv.astype(np.float64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "term": batch.column("term"),
            "tf": batch.column("tf"),
            "df": batch.column("df"),
            "score": pa.array(s, type=pa.float64()),
        })

    scored = j.map_batches(score, batch_format="pyarrow")

    def topk_terms(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "score", "term"],
                          ascending=[True, False, True], kind="mergesort")
        g["rnk"] = g.groupby("doc_id").cumcount() + 1
        g = g[g["rnk"] <= k]
        return g[["doc_id", "term", "tf", "df", "score", "rnk"]]

    return shuffle_groups([(scored, ["doc_id"])], topk_terms)


def repetition_stats(docs: ray.data.Dataset,
                     dup_bi_num: int = 1, dup_bi_den: int = 10,
                     top_word_num: int = 1, top_word_den: int = 8
                     ) -> ray.data.Dataset:
    """Gopher repetition rules (Rae et al. 2021 §A1.1, the half of the
    quality gate `quality_filter` doesn't cover): per-doc duplicate-bigram
    fraction and most-common-word fraction, with keep flags tested as exact
    integer cross-multiplications (dup_bigrams * den <= num * n_bigrams),
    never a float compare.  The two reported fractions are single exact
    int/int IEEE divisions, so the table is SQL-exact.  Pure stateless
    map_batches — streams at any corpus size."""

    def rules(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        m = len(texts)
        n_tok = np.empty(m, dtype=np.int64)
        top_n = np.empty(m, dtype=np.int64)
        n_bi = np.empty(m, dtype=np.int64)
        n_bi_dis = np.empty(m, dtype=np.int64)
        for i, t in enumerate(texts):
            toks = t.split(" ")
            n_tok[i] = len(toks)
            _, counts = np.unique(toks, return_counts=True)
            top_n[i] = counts.max()
            n_bi[i] = max(len(toks) - 1, 0)
            n_bi_dis[i] = len({(a, b) for a, b in zip(toks, toks[1:])})
        dup_bi = n_bi - n_bi_dis
        with np.errstate(invalid="ignore"):
            dup_frac = np.where(n_bi > 0, dup_bi / np.maximum(n_bi, 1), 0.0)
        top_frac = top_n / n_tok
        ok_rep = dup_bi * dup_bi_den <= dup_bi_num * n_bi
        ok_top = top_n * top_word_den <= top_word_num * n_tok
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok),
            "n_bigrams": pa.array(n_bi),
            "dup_bigrams": pa.array(dup_bi),
            "top_word_n": pa.array(top_n),
            "dup_bigram_frac": pa.array(dup_frac, type=pa.float64()),
            "top_word_frac": pa.array(top_frac, type=pa.float64()),
            "ok_repetition": pa.array(ok_rep),
            "ok_top_word": pa.array(ok_top),
            "keep": pa.array(ok_rep & ok_top),
        })

    return docs.map_batches(rules, batch_format="pyarrow")


def inverted_index(docs: ray.data.Dataset,
                   max_postings: int = 32) -> ray.data.Dataset:
    """Distributed inverted-index build: term -> document frequency + the
    first ``max_postings`` doc_ids ascending (capped so a stopword's row
    stays bounded; df is still the full count).  Postings are emitted as a
    comma-joined string — a stable cross-engine representation.

    Scale shape: per-doc distinct explode (np.unique) -> term
    ``shuffle_groups`` (the posting-list build IS the one unavoidable
    all-to-all; the cap bounds row width) -> one vectorized lexsort +
    segment slice per call."""

    def explode(batch: pa.Table) -> pa.Table:
        ids, terms = [], []
        for d, t in zip(batch.column("doc_id").to_pylist(),
                        batch.column("text").to_pylist()):
            toks = np.unique(t.split(" "))
            ids.extend([d] * len(toks))
            terms.extend(toks.tolist())
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "term": pa.array(terms, type=pa.string()),
        })

    def build_postings(g: pd.DataFrame) -> pd.DataFrame:
        terms = g["term"].to_numpy(dtype="U")
        ids = g["doc_id"].to_numpy(dtype=np.int64)
        order = np.lexsort((ids, terms))
        terms, ids = terms[order], ids[order]
        uniq, starts = np.unique(terms, return_index=True)
        ends = np.append(starts[1:], len(terms))
        posts = [",".join(map(str, ids[s:min(e, s + max_postings)]))
                 for s, e in zip(starts, ends)]
        return pd.DataFrame({
            "term": uniq,
            "df": (ends - starts).astype(np.int64),
            "postings": posts,
        })

    return shuffle_groups(
        [(docs.map_batches(explode, batch_format="pyarrow"), ["term"])],
        build_postings)


def pack_sequences(docs: ray.data.Dataset,
                   window: int = 256) -> ray.data.Dataset:
    """Sequence packing for pre-training batches: concatenate the corpus in
    doc_id order and assign every document the fixed-size token window its
    first token lands in (the contiguous-packing layout of GPT-style data
    loaders).  Emits (doc_id, n_tokens, start_offset, window_id).

    This is a distributed prefix sum (scan): (1) per-doc token counts;
    (2) 64 doc_id ranges, so range order == doc_id order, per-range
    token totals via the partial-sum combiner + tiny groupby; (3) the
    64-long totals vector is cumsum'd on the driver (never the corpus)
    and broadcast; (4) a ``shuffle_groups`` on the range, and per call
    one vectorized sort + per-range cumsum adds each range's offset.  All
    arithmetic is int64, so the table is SQL-exact against a window
    SUM OVER (ORDER BY doc_id)."""
    from ray.data.aggregate import Max, Sum

    def counts(batch: pa.Table) -> pa.Table:
        n = np.asarray([t.count(" ") + 1
                        for t in batch.column("text").to_pylist()],
                       dtype=np.int64)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_tokens": pa.array(n)})

    tok = docs.map_batches(counts, batch_format="pyarrow").materialize()
    max_id = int(tok.aggregate(Max("doc_id"))["max(doc_id)"])
    ranges = 64

    def add_range(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        b = ids * ranges // (max_id + 1)
        return batch.append_column("__b", pa.array(b.astype(np.int64)))

    ranged = tok.map_batches(add_range, batch_format="pyarrow")

    def block_sums(batch: pa.Table) -> pa.Table:
        b = batch.column("__b").to_numpy()
        n = batch.column("n_tokens").to_numpy()
        u, inv = np.unique(b, return_inverse=True)
        s = np.zeros(len(u), dtype=np.int64)
        np.add.at(s, inv, n)
        return pa.table({"__b": pa.array(u), "n": pa.array(s)})

    sums = ranged.map_batches(block_sums, batch_format="pyarrow") \
        .groupby("__b").aggregate(Sum("n", alias_name="n")).to_pandas() \
        .sort_values("__b").reset_index(drop=True)
    totals = np.zeros(ranges, dtype=np.int64)
    totals[sums["__b"].to_numpy()] = sums["n"].to_numpy()
    offsets = np.concatenate([[0], np.cumsum(totals)[:-1]])
    offsets = storage.broadcast(offsets)

    def scan_ranges(g: pd.DataFrame) -> pd.DataFrame:
        off = offsets()
        g = g.sort_values("doc_id", kind="mergesort")
        n = g["n_tokens"].to_numpy()
        start = g.groupby("__b", sort=False)["n_tokens"].cumsum() \
            .to_numpy() - n + off[g["__b"].to_numpy()]
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "n_tokens": n,
            "start_offset": start,
            "window_id": start // window,
        })

    return shuffle_groups([(ranged, ["__b"])], scan_ranges)


def mixture_sample(docs: ray.data.Dataset, seed: int = 1) -> ray.data.Dataset:
    """Temperature-scaled language mixture sampling (the multilingual
    rebalancing rule of mT5 / XLM-R, temperature tau = 2): every stratum is
    kept at rate sqrt(n_lang / n_max), so the largest language passes
    whole and smaller ones are up-weighted relative to proportional
    sampling.  Membership is a pure md5 function of (doc_id, seed) —
    identical at any parallelism.

    Exactness: the per-language rate is ONE division + ONE sqrt (single
    IEEE roundings each); the keep threshold floor(rate * 2^40) is exact
    (floor of a double times a power of two), so the SQL oracle replicates
    membership bit-for-bit.  The language count table is #langs rows —
    a bounded driver collect at any corpus size."""
    from ray.data.aggregate import Sum
    SCALE = 1 << 40

    def counts(batch: pa.Table) -> pa.Table:
        langs, c = np.unique(np.asarray(batch.column("lang").to_pylist(),
                                        dtype=object), return_counts=True)
        return pa.table({"lang": pa.array(langs.tolist(), type=pa.string()),
                         "n": pa.array(c.astype(np.int64))})

    cnt = docs.map_batches(counts, batch_format="pyarrow") \
        .groupby("lang").aggregate(Sum("n", alias_name="n")).to_pandas()
    n_max = int(cnt["n"].max())
    thr = {l: int(np.floor(np.sqrt(np.float64(n) / np.float64(n_max))
                           * SCALE))
           for l, n in zip(cnt["lang"], cnt["n"])}
    thresholds = storage.broadcast(thr)

    def sample(batch: pa.Table) -> pa.Table:
        t = thresholds()
        ids = batch.column("doc_id").to_pylist()
        langs = batch.column("lang").to_pylist()
        h = stable_hash64([f"mix|{seed}|{d}" for d in ids]) % np.uint64(SCALE)
        cut = np.fromiter((t.get(l, 0) for l in langs), dtype=np.uint64,
                          count=len(langs))
        return batch.filter(pa.array(h < cut))

    return docs.map_batches(sample, batch_format="pyarrow")


def lm_quality(docs: ray.data.Dataset, max_cost: int = 16,
               thr_num: int = 9, thr_den: int = 1) -> ray.data.Dataset:
    """Unigram LM-cost quality filter — the CCNet / KenLM perplexity-filter
    archetype with an integer-exact cost model: each token's cost is the
    dyadic code length k(tok) = min(max_cost, ceil(log2(T / c(tok)))) bits
    (T = corpus token count, c = token count — i.e. -log2 of the unigram
    probability rounded UP to whole bits; unseen tokens would pay
    ``max_cost``).  Per doc: total bits, bits-per-token (one exact IEEE
    division), and keep = bits <= (thr_num/thr_den) per token, tested as
    the integer cross-multiplication bits * thr_den <= thr_num * n_tokens.

    ceil(log2(T/c)) is computed by pure integer arithmetic (bit_length of
    the ceiling quotient minus one), so the whole table — model fit
    included — replicates bit-for-bit in SQL.  The unigram table is built
    with the per-block partial-count combiner + tiny groupby and broadcast
    once (vocabulary-bounded; at open-web scale keep the heavy-hitters
    top-K and charge ``max_cost`` for the tail)."""
    from ray.data.aggregate import Sum

    def counts(batch: pa.Table) -> pa.Table:
        toks = [t.split(" ") for t in batch.column("text").to_pylist()]
        flat = np.asarray([w for ws in toks for w in ws], dtype=object)
        u, c = np.unique(flat, return_counts=True)
        return pa.table({"tok": pa.array(u.tolist(), type=pa.string()),
                         "n": pa.array(c.astype(np.int64))})

    cnt = docs.map_batches(counts, batch_format="pyarrow") \
        .groupby("tok").aggregate(Sum("n", alias_name="n")).to_pandas()
    T = int(cnt["n"].sum())
    # k = ceil(log2(T / c)) = bit_length(ceil(T/c) - 1), exact in ints
    cost = {tok: min(max_cost, max(int(-(-T // n) - 1).bit_length(), 0))
            for tok, n in zip(cnt["tok"], cnt["n"])}
    costs = storage.broadcast(cost)

    def score(batch: pa.Table) -> pa.Table:
        cmap = costs()
        texts = batch.column("text").to_pylist()
        bits = np.empty(len(texts), dtype=np.int64)
        ntok = np.empty(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = t.split(" ")
            ntok[i] = len(ws)
            bits[i] = sum(cmap.get(w, max_cost) for w in ws)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(ntok),
            "bits": pa.array(bits),
            "bits_per_token": pa.array(bits / ntok, type=pa.float64()),
            "keep": pa.array(bits * thr_den <= thr_num * ntok),
        })

    return docs.map_batches(score, batch_format="pyarrow")


def approx_distinct_kmv(docs: ray.data.Dataset, k: int = 256,
                        n: int = 3) -> "pa.Table":
    """KMV (k-minimum-values) distinct-count sketch (Bar-Yossef et al. 2002,
    Beyer et al. SIGMOD'07) over the corpus's n-gram shingle space —
    the cardinality a dedup planner needs (shuffle sizing for
    ``ngram_jaccard_pairs`` / ``substring_dup_stats``) without a
    corpus-wide distinct.  Shingle semantics == ``dedup._shingles`` (docs
    shorter than n tokens contribute nothing).

    Scale shape — a mergeable sketch, the combiner-tree pattern:
    each input block emits its k smallest DISTINCT token hashes (<= k rows,
    one uint64 column); every global top-k-minimum value is by construction
    inside its own block's partial, so the union of partials is a lossless
    superset.  A second-level k-min over a few coalesced blocks bounds the
    driver collect at O(levels * k), never O(vocabulary): at 10^6 input
    blocks the tree is (10^6 x k) -> (32 x k) -> k.  Nothing corpus-sized
    rides a shuffle or the driver.

    Estimator: with hashes uniform on [0, 2^64), est = (k-1) * 2^64 / h_(k)
    where h_(k) is the k-th smallest distinct hash; exact count when the
    vocabulary is smaller than k.  Hashing is ``joins.stable_hash64``
    (== DuckDB md5_number_upper), and the estimate is ONE uint64->double
    rounding plus ONE IEEE division, so the whole row is bit-replicable in
    SQL.
    """
    # bound OUTSIDE the UDFs: a lazy import inside the shipped closure would
    # bypass the by-value module registration and fail on foreign workers
    from engine.dedup import _shingles

    def kmin(col: pa.ChunkedArray | pa.Array, texts: bool) -> np.ndarray:
        if texts:
            hs = stable_hash64({s for t in col.to_pylist()
                                for s in _shingles(t, n)})
        else:
            hs = np.unique(col.to_numpy(zero_copy_only=False))
        if len(hs) > k:
            hs = np.partition(hs, k - 1)[:k]
        return np.sort(hs)

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table({"h": pa.array(kmin(batch.column("text"), True),
                                       type=pa.uint64())})

    def merge(batch: pa.Table) -> pa.Table:
        return pa.table({"h": pa.array(kmin(batch.column("h"), False),
                                       type=pa.uint64())})

    parts = docs.map_batches(partial, batch_format="pyarrow")
    # level-2 combine bounds the collect below at 8*k rows regardless of
    # input block count (deepen the tree for >10^6-block inputs)
    tiny = parts.repartition(8).map_batches(merge, batch_format="pyarrow")
    u = np.unique(np.concatenate(
        [b.column("h").to_numpy(zero_copy_only=False)
         for b in tiny.iter_batches(batch_format="pyarrow")] or
        [np.array([], dtype=np.uint64)]))
    if len(u) >= k:
        kth = int(u[k - 1])
        est = float(k - 1) * 2.0 ** 64 / float(kth)
        n_sketch = k
    else:  # vocabulary smaller than the sketch: the sketch IS exact
        kth = int(u[-1]) if len(u) else 0
        est = float(len(u))
        n_sketch = len(u)
    return pa.table({
        "k": pa.array([k], type=pa.int64()),
        "n_sketch": pa.array([n_sketch], type=pa.int64()),
        "kth_hash": pa.array([kth], type=pa.uint64()),
        "est_distinct": pa.array([est], type=pa.float64()),
    })


# ---------------------------------------------------------------------------
# PII scrub (the redaction stage of a CCNet/Dolma-style curation pipeline)
# ---------------------------------------------------------------------------

PII_EMAIL = r"[a-z0-9._]+@[a-z0-9.-]+\.[a-z][a-z]+"
PII_PHONE = r"\+1-555-[0-9][0-9][0-9][0-9]"
PII_IP = r"10\.[0-9]+\.[0-9]+\.7"


def planted_pii_corpus(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Deterministically append one PII token to a third of the corpus
    (the synthetic documents carry none): doc_id % 9 == 0 -> an email,
    % 9 == 3 -> a phone number, % 9 == 6 -> an internal IPv4.  A pure
    function of doc_id, so the oracle re-plants identically in SQL."""
    def plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        out = []
        for i, t in zip(ids.tolist(), batch.column("text").to_pylist()):
            m = i % 9
            if m == 0:
                t = f"{t} contact user{i}@example.com now"
            elif m == 3:
                t = f"{t} call +1-555-{i % 10000:04d} today"
            elif m == 6:
                t = f"{t} host 10.{i % 256}.{(i // 256) % 256}.7 up"
            out.append(t)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "text": pa.array(out, type=pa.string())})

    return docs.select_columns(["doc_id", "text"]).map_batches(
        plant, batch_format="pyarrow")


def pii_scrub(docs: ray.data.Dataset) -> ray.data.Dataset:
    """PII detection + redaction profile per doc: match counts per class
    (email / phone / internal IP), the post-redaction character length
    (each match replaced by a fixed <CLASS> token), and a has_pii flag.

    Entirely pyarrow.compute RE2 kernels (count_substring_regex /
    replace_substring_regex) — zero Python per-row work, and the SAME
    regex engine DuckDB uses, so the oracle replicates every count and
    the redacted length exactly.  Stateless map_batches; the redacted
    text itself stays in the pipeline (only its length leaves)."""
    import pyarrow.compute as pc

    def scrub(batch: pa.Table) -> pa.Table:
        t = batch.column("text")
        ne = pc.count_substring_regex(t, PII_EMAIL)
        np_ = pc.count_substring_regex(t, PII_PHONE)
        ni = pc.count_substring_regex(t, PII_IP)
        red = pc.replace_substring_regex(t, PII_EMAIL, "<EMAIL>")
        red = pc.replace_substring_regex(red, PII_PHONE, "<PHONE>")
        red = pc.replace_substring_regex(red, PII_IP, "<IP>")
        total = pc.add(pc.add(ne, np_), ni)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_emails": pc.cast(ne, pa.int64()),
            "n_phones": pc.cast(np_, pa.int64()),
            "n_ips": pc.cast(ni, pa.int64()),
            "n_chars_redacted": pc.cast(pc.utf8_length(red), pa.int64()),
            "has_pii": pc.greater(total, 0),
        })

    return docs.map_batches(scrub, batch_format="pyarrow")


def merge_pair_counts(docs: ray.data.Dataset, k: int = 50) -> pd.DataFrame:
    """Tokenizer-training support: corpus-wide adjacent-token pair counts —
    one BPE merge-selection round (Sennrich et al. 2016: the merge is the
    most frequent symbol pair; a full trainer loops this with re-tokenize).
    Emits the global top-``k`` pairs under the TOTAL order
    (count desc, left asc, right asc), so boundary ties are deterministic.

    Scale shape: per-batch np.unique partial counts (a batch contributes
    one row per DISTINCT pair — the combiner) -> pair ``shuffle_groups``
    -> one vectorized pandas sum + top-k per call -> the driver merges
    calls x k rows.  Each pair lives in exactly one call, so per-call
    top-k before the driver merge is lossless for the global top-k.  No
    vocabulary ever broadcasts."""

    def partial(batch: pa.Table) -> pa.Table:
        lefts, rights = [], []
        for t in batch.column("text").to_pylist():
            toks = t.split(" ")
            lefts.extend(toks[:-1])
            rights.extend(toks[1:])
        if not lefts:
            return pa.table({"pair": pa.array([], type=pa.string()),
                             "c": pa.array([], type=pa.int64())})
        # " " as the pair separator is unambiguous (tokens come from a
        # space split so cannot contain one) and — unlike "\x00" — is not
        # numpy's U-dtype padding char (trailing NULs get stripped).
        pair = np.char.add(np.char.add(
            np.asarray(lefts, dtype="U"), " "), np.asarray(rights,
                                                           dtype="U"))
        u, c = np.unique(pair, return_counts=True)
        return pa.table({
            "pair": pa.array(u.tolist(), type=pa.string()),
            "c": pa.array(c.astype(np.int64)),
        })

    def pair_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("pair", sort=False)["c"].sum().reset_index()
        lr = s["pair"].str.split(" ", n=1, expand=True)
        s["left_tok"], s["right_tok"] = lr[0], lr[1]
        s = s.sort_values(["c", "left_tok", "right_tok"],
                          ascending=[False, True, True],
                          kind="mergesort").head(k)
        return s[["left_tok", "right_tok", "c"]].rename(columns={"c": "cnt"})

    per_call = shuffle_groups(
        [(docs.map_batches(partial, batch_format="pyarrow"), ["pair"])],
        pair_topk).to_pandas()
    out = per_call.sort_values(["cnt", "left_tok", "right_tok"],
                                 ascending=[False, True, True],
                                 kind="mergesort").head(k)
    out["cnt"] = out["cnt"].astype("int64")
    return out.reset_index(drop=True)

"""Relational pipelines over the TPC-H-ish test tables — the engine's generic
groupby / join / sort / window surface, SQL-oracle-checked.

Design for hash-safe comparisons: aggregate only order-insensitive-exact
quantities (counts, integer-valued sums, min/max, exact ratios) so
parallel-partial aggregation order can never flip a bit vs the oracle.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from engine.storage import read_parquet_clean
from ray.data.aggregate import Count, Max, Min, Sum

from engine import gates, storage
from engine.joins import (SIDE, broadcast_lookup, broadcast_semi_join,
                          shuffle_groups)


def _t(sf_dir: str, name: str, columns=None) -> ray.data.Dataset:
    return read_parquet_clean(os.path.join(sf_dir, f"{name}.parquet"),
                                 columns=columns)


def lineitem_agg(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1 shape: per (returnflag, linestatus): row count, exact qty sum,
    qty mean (exact int ratio), max extendedprice."""
    ds = _t(sf_dir, "lineitem",
            ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])
    out = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Count(alias_name="n"),
        Sum("l_quantity", alias_name="sum_qty"),
        Max("l_extendedprice", alias_name="max_price"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        avg = pc.divide(batch.column("sum_qty"),
                        pc.cast(batch.column("n"), pa.float64()))
        return batch.append_column("avg_qty", avg)

    return out.map_batches(finish, batch_format="pyarrow")


def orders_by_nation(sf_dir: str) -> ray.data.Dataset:
    """orders ⋈ customer ⋈ nation (both dimension sides broadcast — no
    shuffle), grouped by nation name."""
    cust = _t(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    nation = _t(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    cust_map = dict(zip(cust.c_custkey, ((int(v),) for v in cust.c_nationkey)))
    nat_map = dict(zip(nation.n_nationkey.astype(int), ((v,) for v in nation.n_name)))

    orders = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    orders = broadcast_lookup(orders, "o_custkey", cust_map, {"c_nationkey": 0})
    orders = broadcast_lookup(orders, "c_nationkey", nat_map, {"n_name": 0})
    return orders.groupby("n_name").aggregate(
        Count(alias_name="n_orders"),
        Min("o_totalprice", alias_name="min_price"),
        Max("o_totalprice", alias_name="max_price"),
    )


def top_orders(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Top-k orders by totalprice (ties broken by orderkey)."""
    ds = _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"],
                   descending=[True, False]).limit(k)


def events_hourly(sf_dir: str) -> ray.data.Dataset:
    """Tumbling 1h window per event_type: count + value min/max.

    Ray Data has no event-time windows (SURVEY.md §2.9); tumbling windows are
    a bucket column + groupby — the documented streaming-shaped recipe."""
    ds = _t(sf_dir, "events", ["ts", "event_type", "value"])

    def bucket(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64())
        hour = pc.divide(us, pa.scalar(3_600_000_000, type=pa.int64()))
        return batch.append_column("hour", hour)

    return ds.map_batches(bucket, batch_format="pyarrow") \
        .groupby(["event_type", "hour"]).aggregate(
            Count(alias_name="n"),
            Min("value", alias_name="min_value"),
            Max("value", alias_name="max_value"),
        )


def events_sliding(sf_dir: str) -> ray.data.Dataset:
    """Sliding 1h windows advancing every 15min, per event_type: each event
    contributes to exactly 4 windows (flat explode + one vectorized Count
    groupby — the engine's sliding-window recipe; window id = start slot in
    15-min units).  All-integer, SQL-exact."""
    from ray.data.aggregate import Count
    ds = _t(sf_dir, "events", ["ts", "event_type"])

    def explode(b: pa.Table) -> pa.Table:
        us = b.column("ts").cast(pa.int64()).to_numpy()
        slot = us // 900_000_000  # 15-min slot holding the event
        # windows starting at slots slot-3 .. slot cover the event
        win = (slot[:, None] - np.arange(3, -1, -1)[None, :]).ravel()
        out = b.select(["event_type"]).take(
            pa.array(np.repeat(np.arange(b.num_rows), 4)))
        return out.append_column("win", pa.array(win, type=pa.int64()))

    return ds.map_batches(explode, batch_format="pyarrow") \
        .groupby(["event_type", "win"]).aggregate(Count(alias_name="n"))


def customers_with_orders(sf_dir: str, anti: bool = False,
                          min_total: float = 450000.0) -> ray.data.Dataset:
    """Semi (or anti) join: customers having (no) high-value orders
    (o_totalprice > min_total); the key set is broadcast — no shuffle."""
    import pyarrow.compute as _pc

    def distinct_keys(b: pa.Table) -> pa.Table:
        b = b.filter(_pc.greater(b.column("o_totalprice"), pa.scalar(min_total)))
        return pa.table({"o_custkey": pa.array(
            np.unique(b.column("o_custkey").to_numpy()))})

    # filter + per-block distinct run in Ray; only distinct keys reach the
    # driver (the broadcast side of the semi-join)
    key_blocks = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .map_batches(distinct_keys, batch_format="pyarrow").to_pandas()
    keys = set(key_blocks["o_custkey"].tolist())
    cust = _t(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    return broadcast_semi_join(cust, "c_custkey", keys, anti=anti)


def customers_with_orders_bloom(sf_dir: str,
                                min_total: float = 450000.0) -> ray.data.Dataset:
    """Same rows as ``customers_with_orders``, via the at-scale join shape:
    distributed Bloom build over the order keys (OR tree) -> broadcast
    16 KiB bitmap prefilter on customers -> bucketed exact semi-join on the
    survivors.  Exact output; the bloom only cuts shuffle bytes."""
    import pyarrow.compute as _pc

    from engine.joins import bloom_semi_join

    def high(b: pa.Table) -> pa.Table:
        b = b.filter(_pc.greater(b.column("o_totalprice"),
                                 pa.scalar(min_total)))
        return b.select(["o_custkey"])

    keys = _t(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .map_batches(high, batch_format="pyarrow")
    cust = _t(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    return bloom_semi_join(cust, keys, "c_custkey", "o_custkey")


def supplier_part_join(sf_dir: str) -> ray.data.Dataset:
    """A both-sides-distributed join through the explicit bucketed hash join
    (the scale path): lineitem ⋈ part on partkey, grouped by brand."""
    from engine.joins import bucketed_hash_join
    li = _t(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
    part = _t(sf_dir, "part", ["p_partkey", "p_brand"])
    joined = bucketed_hash_join(li, part, "l_partkey", "p_partkey")
    return joined.groupby("p_brand").aggregate(
        Count(alias_name="n"),
        Sum("l_quantity", alias_name="sum_qty"),
    )


def events_running(sf_dir: str) -> ray.data.Dataset:
    """Per-user running aggregates ordered by (ts, event_id): row_number and
    running max(value).  Max/count only, so floats stay
    order-independent-exact.

    Shape: ``shuffle_groups`` on user_id; inside each call ONE sort by
    (user_id, ts, event_id) + vectorized groupby cumcount/cummax covers
    every user."""
    import pandas as pd
    ds = _t(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def running_window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        grp = g.groupby("user_id", sort=False)
        return pd.DataFrame({
            "user_id": g["user_id"].to_numpy(),
            "event_id": g["event_id"].to_numpy(),
            "rn": (grp.cumcount() + 1).to_numpy().astype(np.int64),
            "run_max": grp["value"].cummax().to_numpy(),
        })

    return shuffle_groups([(ds, ["user_id"])], running_window)


def events_asof_join(sf_dir: str) -> ray.data.Dataset:
    """As-of join: each event matched to the latest order of the same
    customer with o_orderdate <= event ts (ties on date broken by max
    orderkey — fully deterministic).

    Physical plan: both sides co-partitioned by customer key (ONE
    ``shuffle_groups`` — no broadcast of the orders table, no per-user
    rescan), then one vectorized ``pd.merge_asof(by=user)`` per call.
    Events with no prior order are dropped (inner as-of).
    """
    import pandas as pd
    events = _t(sf_dir, "events", ["event_id", "ts", "user_id"])
    orders = _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    _EMPTY = {"event_id": pd.Series([], dtype="int64"),
              "user_id": pd.Series([], dtype="int64"),
              "last_orderkey": pd.Series([], dtype="int64")}

    def asof_match(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g[SIDE] == 0]
        o = g[g[SIDE] == 1]
        if e.empty or o.empty:
            return pd.DataFrame(_EMPTY)
        # ties on date -> max orderkey, reduced before the asof
        o = o.groupby(["o_custkey", "o_orderdate"],
                      as_index=False)["o_orderkey"].max()
        o = o.sort_values("o_orderdate").rename(columns={"o_orderdate": "ts"})
        e = e[["event_id", "ts", "user_id"]].sort_values("ts")
        m = pd.merge_asof(e, o, on="ts",
                          left_by="user_id", right_by="o_custkey",
                          direction="backward")
        m = m.dropna(subset=["o_orderkey"])
        return pd.DataFrame({
            "event_id": m["event_id"].astype("int64").to_numpy(),
            "user_id": m["user_id"].astype("int64").to_numpy(),
            "last_orderkey": m["o_orderkey"].astype("int64").to_numpy(),
        })

    return shuffle_groups([(events, ["user_id"]), (orders, ["o_custkey"])],
                          asof_match)


def events_sessions(sf_dir: str, gap_minutes: int = 30) -> ray.data.Dataset:
    """Gap-based sessionization — the canonical clickstream operator: per
    user (ordered by ts, event_id), a new session starts at the first event
    or whenever the gap to the previous event exceeds ``gap_minutes``.
    Emits (user_id, event_id, session_id, session_size) — all integers, so
    the table is SQL-exact (timestamps compare as exact microseconds).

    Shape: ``shuffle_groups`` on user_id; ONE sort + vectorized
    diff/cumsum/transform per call covers every user (the
    ``events_running`` pattern)."""
    import pandas as pd
    ds = _t(sf_dir, "events", ["event_id", "ts", "user_id"])
    gap = pd.Timedelta(minutes=gap_minutes)

    def sessionize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        grp = g.groupby("user_id", sort=False)
        prev = grp["ts"].shift(1)
        new_s = (prev.isna() | ((g["ts"] - prev) > gap)).astype(np.int64)
        sid = new_s.groupby(g["user_id"], sort=False).cumsum()
        out = pd.DataFrame({
            "user_id": g["user_id"].to_numpy(),
            "event_id": g["event_id"].to_numpy(),
            "session_id": sid.to_numpy(),
        })
        out["session_size"] = out.groupby(["user_id", "session_id"])[
            "event_id"].transform("size").astype(np.int64)
        return out

    return shuffle_groups([(ds, ["user_id"])], sessionize)


def shipping_priority(sf_dir: str, segment: str = "BUILDING",
                      cutoff: str = "1998-01-01",
                      k: int = 10) -> ray.data.Dataset:
    """TPC-H Q3 shape — the canonical 3-way star join + top-k:
    customer(segment) ⋉ orders(date < cutoff) ⋈ lineitem(ship > cutoff),
    revenue per order, global top-k by revenue.

    Scale plan: the segment's custkey set is the dimension side —
    broadcast once (``broadcast_semi_join``), never shuffled; lineitem
    revenue pre-aggregates per (block, orderkey) BEFORE its one shuffle
    (the combiner pattern — the shuffle carries one row per distinct
    orderkey per block, not per lineitem); orders ⋈ revenue is a
    bucketed hash join on the int64 orderkey; the final distributed sort
    ships k rows to the driver.

    Exactness: revenue accumulates as integer "cent-basis-points"
    (rint(price*100) * (100 - rint(disc*100)) — both factors are exact
    integers since the data is 2-decimal), so the sum is
    order-insensitive; the single final division by 1e4 is one IEEE op
    the oracle replicates.  Dates are compared/emitted as epoch
    microseconds."""
    from ray.data.aggregate import Sum
    from engine.joins import bucketed_hash_join

    cut = pa.scalar(np.datetime64(cutoff, "us"))
    seg_keys = _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda b: b.filter(
            pc.equal(b.column("c_mktsegment"), pa.scalar(segment))),
            batch_format="pyarrow") \
        .select_columns(["c_custkey"]).to_pandas()["c_custkey"]

    orders = _t(sf_dir, "orders",
                ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])

    def filt_orders(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less(b.column("o_orderdate").cast(pa.timestamp("us")),
                             cut))
        b = b.append_column("o_date_us",
                            b.column("o_orderdate").cast(pa.timestamp("us"))
                            .cast(pa.int64()))
        return b.drop_columns(["o_orderdate"])

    orders = broadcast_semi_join(
        orders.map_batches(filt_orders, batch_format="pyarrow"),
        "o_custkey", seg_keys) \
        .select_columns(["o_orderkey", "o_date_us", "o_orderpriority"])

    line = _t(sf_dir, "lineitem",
              ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def rev_partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b.column("l_shipdate")
                                .cast(pa.timestamp("us")), cut))
        key = b.column("l_orderkey").to_numpy()
        cents = (np.rint(b.column("l_extendedprice").to_numpy() * 100.0)
                 .astype(np.int64)
                 * (100 - np.rint(b.column("l_discount").to_numpy() * 100.0)
                    .astype(np.int64)))
        u, inv = np.unique(key, return_inverse=True)
        s = np.zeros(len(u), dtype=np.int64)
        np.add.at(s, inv, cents)
        return pa.table({"l_orderkey": pa.array(u, type=pa.int64()),
                         "cents": pa.array(s)})

    # per-(block, orderkey) partials -> orderkey shuffle with ONE
    # vectorized pandas sum per call (the exact_dedup shape)
    def revenue_sum(g: "pd.DataFrame") -> "pd.DataFrame":
        return g.groupby("l_orderkey", as_index=False)["cents"].sum()

    def revenue(partials: ray.data.Dataset) -> ray.data.Dataset:
        return shuffle_groups([(partials, ["l_orderkey"])], revenue_sum)

    # size gate: the filtered orders dimension usually collapses far below
    # the fact side — then broadcast it once (sorted-key lookup,
    # no shuffle); beyond gates.BROADCAST_MAX_SIDE_ROWS fall back to the
    # bucketed hash join (the 10^12 path).  Identical rows either way
    # (tested).
    ot, _ = gates.collect_under_budget(orders, "shipping_priority",
                                       gates.BROADCAST_MAX_SIDE_ROWS, None)
    if ot is not None:
        ot = ot.sort_by("o_orderkey")
        side = storage.broadcast(tuple(
            ot.column(c).to_numpy()
            for c in ("o_orderkey", "o_date_us", "o_orderpriority")))

        def member(b: pa.Table) -> pa.Table:
            # membership BEFORE the revenue shuffle: only the segment's
            # orders ride it (the dimension filter is usually ~1/5
            # selective)
            return b.filter(pa.array(gates.sorted_member(
                side()[0], b.column("l_orderkey").to_numpy())))

        rev = revenue(line.map_batches(rev_partial, batch_format="pyarrow")
                      .map_batches(member, batch_format="pyarrow"))

        def join_finish(b: pa.Table) -> pa.Table:
            # rows here already passed the `member` pre-shuffle filter, so
            # every key is present; a miss means a nondeterministic upstream
            okey, odate, oprio = side()
            key = b.column("l_orderkey").to_numpy()
            pos = gates.sorted_positions(okey, key, "shipping_priority")
            return pa.table({
                "l_orderkey": pa.array(key, type=pa.int64()),
                "revenue": pa.array(
                    b.column("cents").to_numpy().astype(np.float64)
                    / 10000.0),
                "o_date_us": pa.array(odate[pos], type=pa.int64()),
                "o_orderpriority": pa.array(oprio[pos].tolist(),
                                            type=pa.string()),
            })

        return rev.map_batches(join_finish, batch_format="pyarrow") \
            .sort(["revenue", "o_date_us", "l_orderkey"],
                  descending=[True, False, False]).limit(k)

    rev = revenue(line.map_batches(rev_partial, batch_format="pyarrow"))
    joined = bucketed_hash_join(rev, orders, "l_orderkey", "o_orderkey")

    def finish(b: pa.Table) -> pa.Table:
        rev_d = pc.divide(pc.cast(b.column("cents"), pa.float64()),
                          pa.scalar(10000.0))
        return pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "revenue": rev_d,
            "o_date_us": b.column("o_date_us"),
            "o_orderpriority": b.column("o_orderpriority"),
        })

    return joined.map_batches(finish, batch_format="pyarrow") \
        .sort(["revenue", "o_date_us", "l_orderkey"],
              descending=[True, False, False]).limit(k)


def heavy_hitters(ds: ray.data.Dataset, col: str = "user_id",
                  denom: int = 129,
                  capacity: int = 1024) -> ray.data.Dataset:
    """Misra-Gries heavy hitters with exact verification: every value of
    ``col`` whose count c satisfies ``c * denom > n_total``, with its
    EXACT count — found without ever shuffling or collecting the full
    key space (the bounded-memory path a 10^12-row / 10^9-key column
    needs; a plain groupby ships every distinct key).

    Shape: (1) per-block exact counts -> MG-compress to ``capacity``
    entries (decrement by the (capacity+1)-th largest, drop <=0; the
    per-compress decrement is emitted as a side row so total undercount
    D is tracked, not assumed); (2) ``shuffle_groups`` on the key -> sum +
    compress per call (sketch entries only ride this shuffle — <= capacity
    rows per block; every ledger row carries the key ``__D__``, so the
    ledger sums in one call); (3) driver: candidates = surviving keys
    with est + D >= threshold (MG superset guarantee; a fully-zeroed
    key has true count <= D).  Soundness is structural — two compress
    levels give D <= 2n/(capacity+1) however the keys are grouped into
    calls (each call's keys are disjoint), and capacity >= 8*denom makes
    D < n/denom — and ALSO asserted at runtime, with a documented exact
    fallback; (4) broadcast the candidate set -> exact combiner count ->
    filter.  Output (value, c) is exact, so the oracle is plain
    GROUP BY/HAVING SQL."""
    from ray.data.aggregate import Count, Sum
    import pandas as pd
    assert capacity >= 8 * denom, "capacity >= 8*denom keeps D < n/denom"

    def mg_compress(keys: np.ndarray, counts: np.ndarray):
        if len(keys) <= capacity:
            return keys, counts, 0
        d = np.partition(counts, len(counts) - capacity - 1)[
            len(counts) - capacity - 1]
        keep = counts > d
        return keys[keep], counts[keep] - d, int(d)

    def block_sketch(batch: pa.Table) -> pa.Table:
        v = np.asarray([str(x) for x in batch.column(col).to_pylist()],
                       dtype=object)
        keys, counts = np.unique(v, return_counts=True)
        keys, counts, d = mg_compress(keys, counts.astype(np.int64))
        return pa.table({
            "key": pa.array(np.concatenate([keys, ["__D__"]]).tolist(),
                            type=pa.string()),
            "c": pa.array(np.concatenate([counts, [d]]), type=pa.int64()),
            "n": pa.array([batch.num_rows] * (len(keys) + 1),
                          type=pa.int64()),
        })

    def merge_sketch(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("key", sort=True)["c"].sum()
        ledger = int(s.pop("__D__")) if "__D__" in s.index else 0
        keys, counts, d = mg_compress(
            s.index.to_numpy(dtype=object), s.to_numpy(np.int64))
        return pd.DataFrame({"key": np.concatenate([keys, ["__D__"]]),
                             "c": np.concatenate([counts, [d + ledger]])})

    # materialize: the sketch feeds both the ledger sum and the merge —
    # without this the source would re-execute (the table is tiny:
    # <= capacity+1 rows per batch)
    sk = ds.map_batches(block_sketch, batch_format="pyarrow").materialize()
    n_total = int(sk.filter(lambda r: r["key"] == "__D__").sum("n") or 0)
    merged = shuffle_groups([(sk, ["key"])], merge_sketch).to_pandas()
    D = int(merged.loc[merged.key == "__D__", "c"].sum())
    # all-integer threshold tests: report c*denom > n  <=>  c > n/denom
    if D * denom >= n_total > 0:   # sketch saturated (can't happen with
        cand = None                # capacity >= 8*denom; exact fallback)
    else:
        ent = merged[merged.key != "__D__"]
        cand = set(ent.loc[(ent.c + D) * denom > n_total, "key"])
    cands = storage.broadcast(cand)

    def exact_partial(batch: pa.Table) -> pa.Table:
        cset = cands()
        v = np.asarray([str(x) for x in batch.column(col).to_pylist()],
                       dtype=object)
        if cset is not None:
            v = v[np.fromiter((x in cset for x in v), dtype=bool,
                              count=len(v))]
        keys, counts = np.unique(v, return_counts=True)
        return pa.table({col: pa.array(keys.tolist(), type=pa.string()),
                         "c": pa.array(counts.astype(np.int64))})

    exact = ds.map_batches(exact_partial, batch_format="pyarrow") \
        .groupby(col).aggregate(Sum("c", alias_name="c"))
    return exact.filter(
        lambda r, n=n_total, dn=denom: r["c"] * dn > n)


def events_interval_join(sf_dir: str,
                         window_minutes: int = 30) -> ray.data.Dataset:
    """Interval (band) self join: every unordered pair of SAME-USER events
    within ``window_minutes`` of each other — the event-analytics band-join
    primitive (co-visitation, burst detection, session pairing), distinct
    from the as-of join (which keeps only one latest match).

    Physical plan: ONE co-partition by user (``shuffle_groups``), then a
    fully vectorized per-call window match — rows sorted by
    (user, ts, event_id), timestamps rank-compressed (monotone, so
    per-user order survives), and each row's matching span found by ONE
    searchsorted on the composite key user*(L+1)+rank; pairs emitted by a
    repeat/offset expansion and reduced to a_id < b_id so every unordered
    pair appears exactly once.  No per-row loop, no cross product, no
    broadcast.  Output (a_id, b_id, gap_us signed b-a) — all-integer,
    SQL-exact."""
    import pandas as pd
    events = _t(sf_dir, "events", ["event_id", "ts", "user_id"])
    W = np.int64(window_minutes) * 60_000_000

    _EMPTY = {"a_id": pd.Series([], dtype="int64"),
              "b_id": pd.Series([], dtype="int64"),
              "gap_us": pd.Series([], dtype="int64")}

    def band_match(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ukey = g["user_id"].to_numpy(np.int64)
        ets = g["ts"].to_numpy("datetime64[us]").view(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        u_ts = np.unique(ets)
        L = np.int64(len(u_ts) + 1)
        comp = ukey * L + np.searchsorted(u_ts, ets)
        rlo = np.searchsorted(u_ts, ets - W, side="left")
        rhi = np.searchsorted(u_ts, ets + W, side="right")
        starts = np.searchsorted(comp, ukey * L + rlo, side="left")
        ends = np.searchsorted(comp, ukey * L + rhi, side="left")
        counts = ends - starts
        rep = np.repeat(np.arange(len(eid)), counts)
        if len(rep) == 0:
            return pd.DataFrame(_EMPTY)
        offs = np.arange(len(rep)) - np.repeat(
            np.cumsum(counts) - counts, counts)
        oidx = starts[rep] + offs
        keep = eid[rep] < eid[oidx]   # each unordered pair exactly once
        a, b = rep[keep], oidx[keep]
        return pd.DataFrame({
            "a_id": eid[a],
            "b_id": eid[b],
            "gap_us": ets[b] - ets[a],
        })

    return shuffle_groups([(events, ["user_id"])], band_match)


def events_quantiles(sf_dir: str,
                     qs: tuple = (25.0, 50.0, 75.0)) -> ray.data.Dataset:
    """Exact per-group quantiles (q25 / median / q75 of value per
    event_type) — the grouped-percentile aggregate, computed with the
    engine's distributed value-histogram shape (the RobustScaler stats
    pattern, blocking.robust_scale_stats_ds): per-block (group, value,
    count) combiner partials -> merged weighted distribution -> numpy's
    exact virtual-index + lerp arithmetic per group
    (blocking.weighted_percentile, bit-equal to np.percentile).  Driver
    memory is O(distinct (group, value)), never O(rows); at 10^12 rows
    the exact histogram becomes a t-digest sketch with the same
    two-phase shape (documented trade, as in the scaler)."""
    import pandas as pd
    from engine.blocking import weighted_percentile
    ds = _t(sf_dir, "events", ["event_type", "value"])

    def counts(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "event_type": batch.column("event_type").to_pylist(),
            "value": batch.column("value").to_numpy(),
        })
        r = df.groupby(["event_type", "value"], as_index=False).size()
        return pa.table({
            "event_type": pa.array(r["event_type"].tolist(),
                                   type=pa.string()),
            "value": pa.array(r["value"].to_numpy(), type=pa.float64()),
            "n": pa.array(r["size"].to_numpy().astype(np.int64)),
        })

    partials = ds.map_batches(counts, batch_format="pyarrow").to_pandas()
    agg = partials.groupby(["event_type", "value"], as_index=False)["n"] \
        .sum().sort_values(["event_type", "value"])
    rows = []
    for g, sub in agg.groupby("event_type", sort=True):
        vals = sub["value"].to_numpy()
        cnt = sub["n"].to_numpy()
        rows.append((g, weighted_percentile(vals, cnt, qs[0]),
                     weighted_percentile(vals, cnt, qs[1]),
                     weighted_percentile(vals, cnt, qs[2])))
    out = pa.table({
        "event_type": pa.array([r[0] for r in rows], type=pa.string()),
        "q25": pa.array([r[1] for r in rows], type=pa.float64()),
        "median": pa.array([r[2] for r in rows], type=pa.float64()),
        "q75": pa.array([r[3] for r in rows], type=pa.float64()),
    })
    return ray.data.from_arrow(out)

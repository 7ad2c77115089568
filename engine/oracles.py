"""DuckDB oracle SQL for the geo queries.

These strings recompute, in exact integer/dyadic arithmetic, the closed-form
values of what the Ray pipelines derive geometrically from the mesh payloads.
The generative parameter formulas mirror datagen/buildings.py verbatim.

Exactness contract (see datagen/buildings.py docstring): dims are dyadic
rationals; products/sums stay below 2**53; sqrt is IEEE-correctly-rounded in
both numpy and DuckDB — so the checked columns match BIT-FOR-BIT, no rounding.
"""

# Common prefix: generative dims for the flat-roof cands subset (roof = k % 5 = 0).
_DIMS_FLAT = """
WITH h AS (
  SELECT doc_id AS k, (doc_id * 2654435761 + 12345) AS hv
  FROM documents WHERE doc_id % 5 = 0
), d AS (
  SELECT k,
    4 + (hv % 24) + ((hv // 24) % 8) / 8.0 AS w,
    5 + ((hv // 192) % 30) + ((hv // 1536) % 8) / 8.0 AS l,
    3 + ((hv // 12288) % 18) + ((hv // 98304) % 8) / 8.0 AS ht
  FROM h
)
"""

# Dims + world placement for ALL cands keys (any roof).
_DIMS_ALL = """
WITH h AS (
  SELECT doc_id AS k, (doc_id * 2654435761 + 12345) AS hv,
         ((doc_id * 1000003 + 7) % 1000000007) * 1103515245 + 54321 AS h2
  FROM documents
), d AS (
  SELECT k,
    4 + (hv % 24) + ((hv // 24) % 8) / 8.0 AS w,
    5 + ((hv // 192) % 30) + ((hv // 1536) % 8) / 8.0 AS l,
    3 + ((hv // 12288) % 18) + ((hv // 98304) % 8) / 8.0 AS ht,
    CAST(h2 % 99000 AS DOUBLE) AS x0,
    CAST((h2 // 99000) % 99000 AS DOUBLE) AS y0
  FROM h
)
"""

GEO_PROPERTIES = _DIMS_FLAT + """
SELECT CAST(k AS VARCHAR) AS doc_id,
  w AS bounding_box_width,
  l AS bounding_box_length,
  2*w*l + 2*w*ht + 2*l*ht AS area,
  2*w + l AS perimeter,
  2 * sqrt(pi() * (2*w*l + 2*w*ht + 2*l*ht)) / (2*w + l) AS perimeter_ind,
  w*l*ht AS volume,
  2*(w+l) AS convex_hull_area,
  w*l*ht AS convex_hull_volume,
  ht AS height_diff,
  3.0 AS num_floors,
  (w/2 + sqrt((l*l/2)/3) + sqrt((ht*ht/2)/3))/3 AS axes_symmetry,
  (2*w*l + 2*w*ht + 2*l*ht) / (2*(w+l)) AS compactness_2d,
  (w*l*ht) / (w*l*ht) AS compactness_3d,
  (2*w*l + 2*w*ht + 2*l*ht) / (2*w + l) AS density,
  (2*w + l) / sqrt(4*pi()*(2*w*l + 2*w*ht + 2*l*ht)) AS shape_ind,
  3*sqrt(2)*sqrt(pi())*(w*l*ht) / ((2*w*l + 2*w*ht + 2*l*ht) * sqrt(2*w*l + 2*w*ht + 2*l*ht)) AS hemisphericality,
  16.0 AS num_vertices
FROM d
"""

GEO_CENTROIDS = _DIMS_ALL + """
SELECT CAST(k AS VARCHAR) AS doc_id,
  x0 + w/2 AS cx,
  y0 + l/2 AS cy
FROM d WHERE k % 5 = 0
"""


GEO_TILES = _DIMS_ALL + """
, cx AS (
  -- full ix x iy range cover: matches the engine's _batch_cover at ANY
  -- res / footprint size (the old 4-corner UNION agreed only because no
  -- footprint spans 3+ cells of a 64 m tile on this corpus)
  SELECT k, y0, l,
         unnest(generate_series(CAST(floor(x0 / 64) AS BIGINT),
                                CAST(floor((x0 + w) / 64) AS BIGINT))) AS ix
  FROM d
), c AS (
  SELECT k, ix,
         unnest(generate_series(CAST(floor(y0 / 64) AS BIGINT),
                                CAST(floor((y0 + l) / 64) AS BIGINT))) AS iy
  FROM cx
)
SELECT CAST(k AS VARCHAR) AS doc_id,
       (CAST(11 AS BIGINT) << 52) | (ix << 26) | iy AS cell
FROM c
"""

GEO_PIP = _DIMS_ALL + """
, p AS (
  SELECT k AS p_id,
         x0 + ((k * 48271 + 11) % 320) / 8.0 + 0.0625 AS px,
         y0 + ((k * 69621 + 13) % 320) / 8.0 + 0.0625 AS py
  FROM d
)
SELECT p.p_id, CAST(d.k AS VARCHAR) AS doc_id
FROM p, d
WHERE p.px > d.x0 AND p.px < d.x0 + d.w
  AND p.py > d.y0 AND p.py < d.y0 + d.l
"""

# spatial kNN among flat-roof docs: cands vs index (perturbed matched copies +
# unmatched extras at key+10_000_000), k=5, ties by numeric index id
_GEO_KNN_SIDES = """
WITH hc AS (
  SELECT doc_id AS k, (doc_id * 2654435761 + 12345) AS hv,
         ((doc_id * 1000003 + 7) % 1000000007) * 1103515245 + 54321 AS h2
  FROM documents WHERE doc_id % 5 = 0
), cands AS (
  SELECT CAST(k AS VARCHAR) AS cand_id,
    CAST(h2 % 99000 AS DOUBLE) + (4 + (hv % 24) + ((hv // 24) % 8) / 8.0) / 2 AS cx,
    CAST((h2 // 99000) % 99000 AS DOUBLE) + (5 + ((hv // 192) % 30) + ((hv // 1536) % 8) / 8.0) / 2 AS cy
  FROM hc
), matched AS (
  SELECT CAST(k AS VARCHAR) AS index_id, k AS knum,
    CAST(h2 % 99000 AS DOUBLE)
      + ((4 + (hv % 24) + ((hv // 24) % 8) / 8.0) + (((h2 // 9801000000) % 3) - 1) / 8.0) / 2 AS cx,
    CAST((h2 // 99000) % 99000 AS DOUBLE)
      + ((5 + ((hv // 192) % 30) + ((hv // 1536) % 8) / 8.0) + ((((h2 // 9801000000) // 3) % 3) - 1) / 8.0) / 2 AS cy
  FROM hc
  WHERE (((h2 // 9801000000) // 27) % 100) < 85
), he AS (
  SELECT (doc_id + 10000000) AS k,
         ((doc_id + 10000000) * 2654435761 + 12345) AS hv,
         (((doc_id + 10000000) * 1000003 + 7) % 1000000007) * 1103515245 + 54321 AS h2
  FROM documents WHERE doc_id % 5 = 0
), extras AS (
  SELECT CAST(k AS VARCHAR) AS index_id, k AS knum,
    CAST(h2 % 99000 AS DOUBLE) + (4 + (hv % 24) + ((hv // 24) % 8) / 8.0) / 2 AS cx,
    CAST((h2 // 99000) % 99000 AS DOUBLE) + (5 + ((hv // 192) % 30) + ((hv // 1536) % 8) / 8.0) / 2 AS cy
  FROM he
), idx AS (
  SELECT * FROM matched UNION ALL SELECT * FROM extras
)
"""

GEO_KNN = _GEO_KNN_SIDES + """
, j AS (
  SELECT c.cand_id, i.index_id,
         (c.cx - i.cx) * (c.cx - i.cx) + (c.cy - i.cy) * (c.cy - i.cy) AS dist2,
         row_number() OVER (
           PARTITION BY c.cand_id
           ORDER BY (c.cx - i.cx) * (c.cx - i.cx) + (c.cy - i.cy) * (c.cy - i.cy),
                    i.knum) AS rnk
  FROM cands c CROSS JOIN idx i
)
SELECT cand_id, index_id, CAST(rnk AS INTEGER) AS rank, dist2
FROM j WHERE rnk <= 5
"""

# exhaustive centroid blocker over the flat-roof subset: top-21 by exact
# dyadic squared centroid distance, ties by numeric index id
GEO_BLOCK_CENTROID = _GEO_KNN_SIDES + """
, j AS (
  SELECT c.cand_id, i.index_id,
         (c.cx - i.cx) * (c.cx - i.cx) + (c.cy - i.cy) * (c.cy - i.cy) AS dist2,
         row_number() OVER (
           PARTITION BY c.cand_id
           ORDER BY (c.cx - i.cx) * (c.cx - i.cx) + (c.cy - i.cy) * (c.cy - i.cy),
                    i.knum) AS rnk
  FROM cands c CROSS JOIN idx i
)
SELECT cand_id, index_id, CAST(rnk AS INTEGER) AS rank, dist2
FROM j WHERE rnk <= 21
"""

# BKAFI blocking, exact-f64 mode, flat subset: RobustScaler (median/IQR with
# numpy's virtual-index + lerp percentile arithmetic, replicated verbatim) fit
# on cands, both sides transformed, top-21 by sum((c_f-i_f)^2) accumulated in
# feature order f1..f6 = volume, area, height_diff, bbox_width, bbox_length,
# convex_hull_volume (all exact dyadic closed forms for flat boxes).
_BKAFI_CTES = """
WITH hc AS (
  SELECT doc_id AS k, (doc_id * 2654435761 + 12345) AS hv,
         ((doc_id * 1000003 + 7) % 1000000007) * 1103515245 + 54321 AS h2
  FROM documents WHERE doc_id % 5 = 0
), cd AS (
  SELECT k,
    4 + (hv % 24) + ((hv // 24) % 8) / 8.0 AS w,
    5 + ((hv // 192) % 30) + ((hv // 1536) % 8) / 8.0 AS l,
    3 + ((hv // 12288) % 18) + ((hv // 98304) % 8) / 8.0 AS ht
  FROM hc
), cands AS (
  SELECT CAST(k AS VARCHAR) AS id, k AS knum,
         w*l*ht AS f1, 2*w*l + 2*w*ht + 2*l*ht AS f2, ht AS f3,
         w AS f4, l AS f5, w*l*ht AS f6
  FROM cd
), md AS (
  SELECT k,
    (4 + (hv % 24) + ((hv // 24) % 8) / 8.0)
      + (((h2 // 9801000000) % 3) - 1) / 8.0 AS w,
    (5 + ((hv // 192) % 30) + ((hv // 1536) % 8) / 8.0)
      + ((((h2 // 9801000000) // 3) % 3) - 1) / 8.0 AS l,
    (3 + ((hv // 12288) % 18) + ((hv // 98304) % 8) / 8.0)
      + ((((h2 // 9801000000) // 9) % 3) - 1) / 8.0 AS ht
  FROM hc
  WHERE (((h2 // 9801000000) // 27) % 100) < 85
), he AS (
  SELECT (doc_id + 10000000) AS k,
         ((doc_id + 10000000) * 2654435761 + 12345) AS hv
  FROM documents WHERE doc_id % 5 = 0
), ed AS (
  SELECT k,
    4 + (hv % 24) + ((hv // 24) % 8) / 8.0 AS w,
    5 + ((hv // 192) % 30) + ((hv // 1536) % 8) / 8.0 AS l,
    3 + ((hv // 12288) % 18) + ((hv // 98304) % 8) / 8.0 AS ht
  FROM he
), idx AS (
  SELECT CAST(k AS VARCHAR) AS id, k AS knum,
         w*l*ht AS f1, 2*w*l + 2*w*ht + 2*l*ht AS f2, ht AS f3,
         w AS f4, l AS f5, w*l*ht AS f6
  FROM (SELECT * FROM md UNION ALL SELECT * FROM ed)
), fv AS (
  SELECT 1 AS fi, f1 AS v FROM cands UNION ALL
  SELECT 2, f2 FROM cands UNION ALL
  SELECT 3, f3 FROM cands UNION ALL
  SELECT 4, f4 FROM cands UNION ALL
  SELECT 5, f5 FROM cands UNION ALL
  SELECT 6, f6 FROM cands
), ov AS (
  SELECT fi, v, row_number() OVER (PARTITION BY fi ORDER BY v) - 1 AS rn,
         count(*) OVER (PARTITION BY fi) AS n
  FROM fv
), qv AS (
  SELECT fi, q, (q / 100.0) * (n - 1) AS virt, n
  FROM (SELECT DISTINCT fi, n FROM ov)
  CROSS JOIN (SELECT unnest([25.0, 50.0, 75.0]) AS q)
), ab AS (
  SELECT qv.fi, qv.q, qv.virt - floor(qv.virt) AS t, oa.v AS a, ob.v AS b
  FROM qv
  JOIN ov oa ON oa.fi = qv.fi AND oa.rn = CAST(floor(qv.virt) AS BIGINT)
  JOIN ov ob ON ob.fi = qv.fi
            AND ob.rn = LEAST(CAST(floor(qv.virt) AS BIGINT) + 1, qv.n - 1)
), pct AS (
  SELECT fi, q,
         CASE WHEN t >= 0.5 THEN b - (b - a) * (1 - t)
              ELSE a + (b - a) * t END AS val
  FROM ab
), stat AS (
  SELECT fi,
         MAX(CASE WHEN q = 50 THEN val END) AS med,
         MAX(CASE WHEN q = 75 THEN val END)
           - MAX(CASE WHEN q = 25 THEN val END) AS iqr0
  FROM pct GROUP BY fi
), st2 AS (
  SELECT fi, med, CASE WHEN iqr0 = 0 THEN 1.0 ELSE iqr0 END AS iqr FROM stat
), sp AS (
  SELECT
    MAX(CASE WHEN fi=1 THEN med END) AS m1, MAX(CASE WHEN fi=1 THEN iqr END) AS s1,
    MAX(CASE WHEN fi=2 THEN med END) AS m2, MAX(CASE WHEN fi=2 THEN iqr END) AS s2,
    MAX(CASE WHEN fi=3 THEN med END) AS m3, MAX(CASE WHEN fi=3 THEN iqr END) AS s3,
    MAX(CASE WHEN fi=4 THEN med END) AS m4, MAX(CASE WHEN fi=4 THEN iqr END) AS s4,
    MAX(CASE WHEN fi=5 THEN med END) AS m5, MAX(CASE WHEN fi=5 THEN iqr END) AS s5,
    MAX(CASE WHEN fi=6 THEN med END) AS m6, MAX(CASE WHEN fi=6 THEN iqr END) AS s6
  FROM st2
), cs AS (
  SELECT id, knum,
         (f1 - m1)/s1 AS g1, (f2 - m2)/s2 AS g2, (f3 - m3)/s3 AS g3,
         (f4 - m4)/s4 AS g4, (f5 - m5)/s5 AS g5, (f6 - m6)/s6 AS g6
  FROM cands CROSS JOIN sp
), xs AS (
  SELECT id, knum,
         (f1 - m1)/s1 AS g1, (f2 - m2)/s2 AS g2, (f3 - m3)/s3 AS g3,
         (f4 - m4)/s4 AS g4, (f5 - m5)/s5 AS g5, (f6 - m6)/s6 AS g6
  FROM idx CROSS JOIN sp
), j AS (
  SELECT cs.id AS cand_id, xs.id AS index_id,
    (cs.g1 - xs.g1) * (cs.g1 - xs.g1) + (cs.g2 - xs.g2) * (cs.g2 - xs.g2)
      + (cs.g3 - xs.g3) * (cs.g3 - xs.g3) + (cs.g4 - xs.g4) * (cs.g4 - xs.g4)
      + (cs.g5 - xs.g5) * (cs.g5 - xs.g5) + (cs.g6 - xs.g6) * (cs.g6 - xs.g6) AS d2,
    row_number() OVER (
      PARTITION BY cs.id
      ORDER BY (cs.g1 - xs.g1) * (cs.g1 - xs.g1) + (cs.g2 - xs.g2) * (cs.g2 - xs.g2)
        + (cs.g3 - xs.g3) * (cs.g3 - xs.g3) + (cs.g4 - xs.g4) * (cs.g4 - xs.g4)
        + (cs.g5 - xs.g5) * (cs.g5 - xs.g5) + (cs.g6 - xs.g6) * (cs.g6 - xs.g6),
        xs.knum) AS rnk
  FROM cs CROSS JOIN xs
)
"""

GEO_BLOCK_BKAFI = _BKAFI_CTES + """
SELECT CAST(6 AS INTEGER) AS bkafi_dim, cand_id, index_id,
       CAST(rnk AS INTEGER) AS rank, sqrt(d2) AS dist
FROM j WHERE rnk <= 21
"""

# Blocking recall / PC@K over the same exact-f64 nn table
# (pipelines.py:369-394): best rank per true pair (cand_id = index_id),
# denominator |cands ∩ index|; exact IEEE division, no rounding.
GEO_BLOCKING_METRICS = _BKAFI_CTES + """
, tru AS (
  SELECT count(*) AS n_inter FROM cands c JOIN idx i ON c.id = i.id
), hits AS (
  SELECT cand_id, min(rnk) AS best
  FROM j WHERE cand_id = index_id AND rnk <= 21
  GROUP BY cand_id
), ks AS (SELECT unnest([1, 5, 10, 20]) AS k)
SELECT CAST(6 AS INTEGER) AS bkafi_dim, CAST(ks.k AS INTEGER) AS k,
       CAST(count(h.cand_id) AS DOUBLE) / MAX(t.n_inter) AS blocking_recall
FROM ks CROSS JOIN tru t LEFT JOIN hits h ON h.best <= ks.k
GROUP BY ks.k
"""

# Blocking-recall grid over the same exact-f64 flat-subset blocker: one
# ranked cross-join per bkafi dim (distance = left-associated sum of the
# first d scaled squared terms, exactly the engine's declared-order IEEE
# chain), recall at k = 1..20 — the full evaluation sweep machinery
# (pipelines.py:381-394) SQL-checked end to end.
def _recall_grid_sql() -> str:
    parts = []
    for d in range(1, 7):
        terms = " + ".join(
            f"(cs.g{i} - xs.g{i}) * (cs.g{i} - xs.g{i})"
            for i in range(1, d + 1))
        parts.append(f"""h{d} AS (
  SELECT {d} AS bkafi_dim, cand_id, min(rnk) AS best FROM (
    SELECT cs.id AS cand_id, xs.id AS index_id,
      row_number() OVER (PARTITION BY cs.id
                         ORDER BY {terms}, xs.knum) AS rnk
    FROM cs CROSS JOIN xs)
  WHERE cand_id = index_id AND rnk <= 21 GROUP BY cand_id
)""")
    union = "\n  UNION ALL ".join(
        f"SELECT * FROM h{d}" for d in range(1, 7))
    return _BKAFI_CTES + ", " + ",\n".join(parts) + f"""
, hits AS (
  {union}
), tru AS (
  SELECT count(*) AS n_inter FROM cands c JOIN idx i ON c.id = i.id
), ks AS (SELECT unnest(generate_series(1, 20)) AS k),
dims AS (SELECT unnest(generate_series(1, 6)) AS bkafi_dim)
SELECT CAST(d.bkafi_dim AS INTEGER) AS bkafi_dim, CAST(ks.k AS INTEGER) AS k,
       CAST(count(h.cand_id) AS DOUBLE) / MAX(t.n_inter) AS blocking_recall
FROM dims d CROSS JOIN ks CROSS JOIN tru t
LEFT JOIN hits h ON h.bkafi_dim = d.bkafi_dim AND h.best <= ks.k
GROUP BY d.bkafi_dim, ks.k
"""


GEO_RECALL_GRID_EXACT = _recall_grid_sql()


# Property-ratio mean/std table, the 'std' bkafi-criterion statistic
# (classifier.py:224-233) in the engine's order-insensitive exact form:
# per matched pair, ratio = f_index / f_cand (one IEEE division), quantized
# floor(r * 2^20) -> integer moment sums (order-free) -> a fixed chain of
# single IEEE ops for mean/std.  Bit-exact vs engine geo_ratio_std.
def _ratio_std_sql() -> str:
    names = ["volume", "area", "height_diff", "bounding_box_width",
             "bounding_box_length", "convex_hull_volume"]
    selects = []
    for k, name in enumerate(names, start=1):
        selects.append(f"""SELECT '{name}' AS feature, count(*) AS n,
       SUM(CAST(floor(i.f{k} / c.f{k} * 1048576.0) AS BIGINT)) AS s1,
       SUM(CAST(floor(i.f{k} / c.f{k} * 1048576.0) AS HUGEINT)
           * CAST(floor(i.f{k} / c.f{k} * 1048576.0) AS HUGEINT)) AS s2
  FROM cands c JOIN idx i ON c.id = i.id""")
    body = "\n  UNION ALL ".join(selects)
    return _BKAFI_CTES + f""", m AS (
  {body}
), st AS (
  SELECT feature, n,
         (CAST(s1 AS DOUBLE) / n) / 1048576.0 AS mean_ratio_q,
         sqrt(GREATEST((CAST(s2 AS DOUBLE) / n) / (1048576.0 * 1048576.0)
              - ((CAST(s1 AS DOUBLE) / n) / 1048576.0)
                * ((CAST(s1 AS DOUBLE) / n) / 1048576.0), 0.0))
           AS std_ratio_q
  FROM m
)
SELECT feature, CAST(n AS BIGINT) AS n_pairs, mean_ratio_q, std_ratio_q,
       CAST(row_number() OVER (ORDER BY std_ratio_q, feature) AS BIGINT)
         AS rnk
FROM st
"""


GEO_RATIO_STD = _ratio_std_sql()


# Audio features over every corpus media span (engine/multimodal.py
# audio_features): the stub waveform is a square wave with period
# p = 2 + md5_number_upper(media_ref) % 31 and amplitude 8 over 256
# samples, so energy = 256*64, zero crossings = floor(255/p) (one sign
# flip at every multiple of p) and the exact minimal-shift period = 2p —
# all integers, replicated in closed form over the same md5.
MEDIA_AUDIO = """
WITH m AS (
  SELECT doc_id AS k,
         ((((doc_id * 1000003 + 7) % 1000000007) * 1103515245 + 54321)
          // 9801000000 // 27) % 100 < 85 AS matched
  FROM documents
), docs AS (
  SELECT CAST(k AS VARCHAR) AS doc_id, k AS ref_k FROM m
  UNION ALL
  SELECT CAST(k AS VARCHAR), k FROM m WHERE matched
  UNION ALL
  SELECT CAST(k + 10000000 AS VARCHAR), k + 10000000 FROM m
), feat AS (
  SELECT doc_id, 'png://' || ref_k || '/0' AS media_ref,
         CAST(2 + (md5_number_upper('png://' || ref_k || '/0') % 31)
              AS BIGINT) AS p
  FROM docs
)
SELECT doc_id, media_ref,
       CAST(16384 AS BIGINT) AS energy,
       255 // p AS zero_crossings,
       2 * p AS period_est
FROM feat
"""

# Per-frame video features (engine/multimodal.py _synth_video_stub +
# video_features): the stub clip is an 8-frame 16x16 moving-edge video —
# h = md5_number_upper(media_ref), c0 = h%16, v = 1 + (h//16)%7,
# hi = 4 + (h//512)%8, lo = -(2 + (h//65536)%4); frame t has hi in
# columns [0, c_t) with c_t = (c0 + t*v)%16, lo elsewhere.  frame_sum =
# 16*(c_t*hi + (16-c_t)*lo); edge_col = c_t; motion (t>=1) flips v
# columns without wrap else 16-v, each |hi-lo| per pixel x 16 rows.
MEDIA_VIDEO = """
WITH m AS (
  SELECT doc_id AS k,
         ((((doc_id * 1000003 + 7) % 1000000007) * 1103515245 + 54321)
          // 9801000000 // 27) % 100 < 85 AS matched
  FROM documents
), docs AS (
  SELECT CAST(k AS VARCHAR) AS doc_id, k AS ref_k FROM m
  UNION ALL
  SELECT CAST(k AS VARCHAR), k FROM m WHERE matched
  UNION ALL
  SELECT CAST(k + 10000000 AS VARCHAR), k + 10000000 FROM m
), p AS (
  SELECT doc_id, 'png://' || ref_k || '/0' AS media_ref,
         CAST(md5_number_upper('png://' || ref_k || '/0') % 16
              AS BIGINT) AS c0,
         CAST(1 + (md5_number_upper('png://' || ref_k || '/0') // 16) % 7
              AS BIGINT) AS v,
         CAST(4 + (md5_number_upper('png://' || ref_k || '/0') // 512) % 8
              AS BIGINT) AS hi,
         -CAST(2 + (md5_number_upper('png://' || ref_k || '/0')
                    // 65536) % 4 AS BIGINT) AS lo
  FROM docs
), f AS (
  SELECT p.*, unnest(generate_series(0, 7)) AS t FROM p
)
SELECT doc_id, media_ref, t AS frame_idx,
       16 * (((c0 + t * v) % 16) * hi + (16 - (c0 + t * v) % 16) * lo)
         AS frame_sum,
       (c0 + t * v) % 16 AS edge_col,
       CASE WHEN t = 0 THEN 0
            ELSE 16 * (hi - lo) *
                 (CASE WHEN (c0 + (t - 1) * v) % 16 + v < 16
                       THEN v ELSE 16 - v END)
       END AS motion
FROM f
"""


# percentile threshold sweep over the same exact-f64 flat-subset nn table
# (bkafi_with_threshold.py:131-141, 232-269): thresholds replicate
# np.percentile's virtual-index + lerp arithmetic over the matched-pair
# distances; counts are ints; recall / reduction_ratio are exact divisions.
GEO_THRESHOLD_SWEEP = _BKAFI_CTES + """
, nn AS (
  SELECT cand_id, index_id, sqrt(d2) AS dist FROM j WHERE rnk <= 21
), md2 AS (SELECT dist FROM nn WHERE cand_id = index_id),
o2 AS (
  SELECT dist, row_number() OVER (ORDER BY dist) - 1 AS rn,
         count(*) OVER () AS n
  FROM md2
), qs2 AS (SELECT unnest(generate_series(0, 199)) AS i),
qv2 AS (
  SELECT i, CASE WHEN i = 199 THEN 100.0 ELSE i * (100.0 / 199) END AS q
  FROM qs2
), vv2 AS (
  SELECT i, q, (q / 100.0) * (n1 - 1) AS virt, n1
  FROM qv2 CROSS JOIN (SELECT DISTINCT n AS n1 FROM o2)
), ab3 AS (
  SELECT vv2.i, vv2.q, vv2.virt - floor(vv2.virt) AS t,
         oa.dist AS a, ob.dist AS b
  FROM vv2
  JOIN o2 oa ON oa.rn = CAST(floor(vv2.virt) AS BIGINT)
  JOIN o2 ob ON ob.rn = LEAST(CAST(floor(vv2.virt) AS BIGINT) + 1, vv2.n1 - 1)
), thr AS (
  SELECT i, q, CASE WHEN t >= 0.5 THEN b - (b - a) * (1 - t)
               ELSE a + (b - a) * t END AS threshold
  FROM ab3
), sz AS (
  SELECT (SELECT count(*) FROM cands) AS nc,
         (SELECT count(*) FROM idx) AS ni,
         (SELECT count(*) FROM cands c JOIN idx x ON c.id = x.id) AS ninter
)
SELECT thr.q AS percentile, thr.threshold,
       (SELECT count(*) FROM nn WHERE nn.dist <= thr.threshold) AS cand_pairs,
       CAST((SELECT count(*) FROM nn
             WHERE nn.cand_id = nn.index_id AND nn.dist <= thr.threshold)
            AS DOUBLE) / sz.ninter AS recall,
       1 - CAST((SELECT count(*) FROM nn WHERE nn.dist <= thr.threshold)
                AS DOUBLE) / (sz.nc * sz.ni) AS reduction_ratio
FROM thr CROSS JOIN sz
"""

REL_LINEITEM_AGG = """
SELECT l_returnflag, l_linestatus, COUNT(*) AS n,
       SUM(l_quantity) AS sum_qty,
       MAX(l_extendedprice) AS max_price,
       SUM(l_quantity) / COUNT(*) AS avg_qty
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""

REL_ORDERS_BY_NATION = """
SELECT n_name, COUNT(*) AS n_orders,
       MIN(o_totalprice) AS min_price, MAX(o_totalprice) AS max_price
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
"""

REL_TOP_ORDERS = """
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""

# Exact grouped percentiles (engine/relational.py events_quantiles):
# np.percentile's virtual-index + lerp arithmetic per event_type —
# rank-k values of a multiset are order-unambiguous, so the window
# row_number replicates the engine's weighted distribution bit-for-bit.
EVENTS_QUANTILES = """
WITH o AS (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY value) - 1
           AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM events
), qs AS (SELECT unnest([25.0, 50.0, 75.0]) AS q),
v AS (
  SELECT DISTINCT o.event_type, o.n, qs.q,
         (qs.q / 100.0) * (o.n - 1) AS virt
  FROM o CROSS JOIN qs
), ab AS (
  SELECT v.event_type, v.q, v.virt - floor(v.virt) AS t,
         oa.value AS a, ob.value AS b
  FROM v
  JOIN o oa ON oa.event_type = v.event_type
           AND oa.rn = CAST(floor(v.virt) AS BIGINT)
  JOIN o ob ON ob.event_type = v.event_type
           AND ob.rn = LEAST(CAST(floor(v.virt) AS BIGINT) + 1, v.n - 1)
), r AS (
  SELECT event_type, q,
         CASE WHEN t >= 0.5 THEN b - (b - a) * (1 - t)
              ELSE a + (b - a) * t END AS val
  FROM ab
)
SELECT event_type,
       MAX(CASE WHEN q = 25.0 THEN val END) AS q25,
       MAX(CASE WHEN q = 50.0 THEN val END) AS median,
       MAX(CASE WHEN q = 75.0 THEN val END) AS q75
FROM r GROUP BY event_type
"""

# Interval (band) self join (engine/relational.py events_interval_join,
# ±30 min inclusive): every unordered same-user event pair within the
# window, once (a_id < b_id); signed gap b - a in microseconds.
EVENTS_INTERVAL = """
SELECT a.event_id AS a_id, b.event_id AS b_id,
       epoch_us(b.ts) - epoch_us(a.ts) AS gap_us
FROM events a JOIN events b
  ON a.user_id = b.user_id
 AND a.event_id < b.event_id
 AND b.ts >= a.ts - INTERVAL 30 MINUTE
 AND b.ts <= a.ts + INTERVAL 30 MINUTE
"""

# Heavy hitters over events.user_id (engine/relational.py heavy_hitters,
# denom=129): values with count*129 > n_total, exact counts; keys as
# strings (the sketch's generic key type).
EVENTS_HEAVY_HITTERS = """
SELECT CAST(user_id AS VARCHAR) AS user_id, COUNT(*) AS c
FROM events
GROUP BY user_id
HAVING COUNT(*) * 129 > (SELECT COUNT(*) FROM events)
"""

# TPC-H Q3 (engine/relational.py shipping_priority): revenue accumulated
# as exact integer cent-basis-points (the data is 2-decimal, so
# round(x*100) is the true integer), one final /1e4; dates as epoch us;
# full deterministic tie-break (revenue, date, orderkey).
SHIPPING_PRIORITY = """
WITH r AS (
  SELECT l_orderkey,
         SUM(CAST(round(l_extendedprice * 100) AS BIGINT) *
             (100 - CAST(round(l_discount * 100) AS BIGINT))) AS cents
  FROM lineitem
  WHERE l_shipdate > TIMESTAMP '1998-01-01'
  GROUP BY l_orderkey
)
SELECT l_orderkey, cents / 10000.0 AS revenue,
       epoch_us(o_orderdate) AS o_date_us, o_orderpriority
FROM r
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1998-01-01'
ORDER BY revenue DESC, o_date_us, l_orderkey
LIMIT 10
"""

REL_EVENTS_HOURLY = """
SELECT event_type, epoch_us(ts) // 3600000000 AS hour, COUNT(*) AS n,
       MIN(value) AS min_value, MAX(value) AS max_value
FROM events GROUP BY event_type, epoch_us(ts) // 3600000000
"""

REL_EVENTS_SLIDING = """
SELECT event_type, (epoch_us(ts) // 900000000) - j AS win, COUNT(*) AS n
FROM events CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS j) js
GROUP BY event_type, (epoch_us(ts) // 900000000) - j
"""

REL_CUSTOMERS_WITH_ORDERS = """
SELECT c_custkey, c_name, c_acctbal FROM customer
WHERE c_custkey IN (SELECT o_custkey FROM orders WHERE o_totalprice > 450000)
"""

REL_CUSTOMERS_WITHOUT_ORDERS = """
SELECT c_custkey, c_name, c_acctbal FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_totalprice > 450000)
"""

REL_PART_BRAND_AGG = """
SELECT p_brand, COUNT(*) AS n, SUM(l_quantity) AS sum_qty
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand
"""

TEXT_STATS = """
SELECT doc_id,
       len(string_split(text, ' ')) AS n_tokens,
       len(list_distinct(string_split(text, ' '))) AS n_distinct,
       len(list_filter(string_split(text, ' '), x -> x = 'the')) AS n_stop,
       CAST(len(list_distinct(string_split(text, ' '))) AS DOUBLE)
         / len(string_split(text, ' ')) AS quality
FROM documents
"""

# heuristic language ID: argmax of distinct-token overlap / profile size,
# ties -> alphabetically first language (the engine's strict-> scan over
# sorted profiles).  Profiles mirror engine/text.py LANG_PROFILES verbatim.
TEXT_LANGID = """
WITH t AS (
  SELECT doc_id, list_distinct(string_split(text, ' ')) AS toks FROM documents
), s AS (
  SELECT doc_id, 'en' AS lang,
         CAST(len(list_filter(toks, x -> x IN ('the','a','and','fast','key'))) AS DOUBLE) / 5 AS score
  FROM t
  UNION ALL
  SELECT doc_id, 'es',
         CAST(len(list_filter(toks, x -> x IN ('the','data','slow','table'))) AS DOUBLE) / 4
  FROM t
  UNION ALL
  SELECT doc_id, 'zh',
         CAST(len(list_filter(toks, x -> x IN ('spark','batch','window'))) AS DOUBLE) / 3
  FROM t
), r AS (
  SELECT doc_id, lang,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, lang) AS rnk
  FROM s
)
SELECT doc_id, lang AS pred_lang FROM r WHERE rnk = 1
"""

# BPE-ish token counting (engine/text.py token_counts): the simplified
# pretokenizer pattern is RE2-compatible, and Python re / DuckDB RE2 agree
# leftmost-first on it (verified over the corpus).  All columns are ints.
TEXT_TOKENS = r"""
SELECT doc_id,
       len(string_split(text, ' ')) AS n_ws_tokens,
       len(regexp_extract_all(text,
           '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+'
           )) AS n_subtokens,
       length(text) AS n_chars
FROM documents
"""

_DUP_CORPUS = """
WITH corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 100000, text FROM documents WHERE doc_id % 7 = 0
)
"""

DEDUP_EXACT = _DUP_CORPUS + """
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS dup_count
FROM corpus GROUP BY text
"""

_NGRAM_BODY = """
, t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM corpus),
g AS (SELECT doc_id, toks, unnest(generate_series(1, len(toks) - 2)) AS i FROM t),
sh AS (SELECT DISTINCT doc_id, toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2] AS s FROM g),
sz AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
pairs AS (
  SELECT a.doc_id AS a_id, b.doc_id AS b_id, COUNT(*) AS inter
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
"""

DEDUP_NGRAM = _DUP_CORPUS + _NGRAM_BODY + """
SELECT p.a_id, p.b_id,
       CAST(p.inter AS DOUBLE) / (sa.n + sb.n - p.inter) AS jaccard
FROM pairs p
JOIN sz sa ON sa.doc_id = p.a_id
JOIN sz sb ON sb.doc_id = p.b_id
WHERE CAST(p.inter AS DOUBLE) / (sa.n + sb.n - p.inter) >= 0.6
"""

# Near-dup clustering (engine/dedup.py dup_clusters): connected components
# over the verified ngram-Jaccard pairs; cluster id = MIN doc id reachable.
# The engine's min-label propagation fixpoint equals the recursive-CTE
# transitive closure's per-node min (both compute min over the component).
DEDUP_CLUSTERS = (
    _DUP_CORPUS.replace("WITH corpus", "WITH RECURSIVE corpus")
    + _NGRAM_BODY + """
, vp AS (
  SELECT p.a_id, p.b_id
  FROM pairs p
  JOIN sz sa ON sa.doc_id = p.a_id
  JOIN sz sb ON sb.doc_id = p.b_id
  WHERE CAST(p.inter AS DOUBLE) / (sa.n + sb.n - p.inter) >= 0.6
), e AS (
  SELECT a_id AS x, b_id AS y FROM vp
  UNION
  SELECT b_id AS x, a_id AS y FROM vp
), r(x, y) AS (
  SELECT x, x FROM (SELECT DISTINCT x FROM e)
  UNION
  SELECT e.x, r.y FROM e JOIN r ON r.x = e.y
)
SELECT x AS doc_id, MIN(y) AS cluster_id FROM r GROUP BY x
""")

# MinHash-LSH near-dup pairs (engine/dedup.py minhash_lsh_pairs, defaults
# num_perm=64 / bands=16 / threshold=0.5 / n=3 / max_bucket=2000): the 64
# permutation constants are the engine's own seeded draws embedded as
# literals; (h*a + b) mod 2^64 in HUGEINT equals the engine's uint64
# wraparound; banding groups by the exact 4-value band tuple (the engine's
# md5-of-bytes band key is equality-equivalent); stop-bucket cap and the
# exact-Jaccard >= 0.5 verify replicate bit-for-bit (one int division).
def _minhash_perm_values() -> str:
    from engine.dedup import _perm_params
    a, b = _perm_params(64)
    return ", ".join(f"({j}, {int(a[j])}::HUGEINT, {int(b[j])}::HUGEINT)"
                     for j in range(64))


DEDUP_MINHASH = _DUP_CORPUS + f"""
, t AS (SELECT doc_id, string_split(text, ' ') AS toks, text FROM corpus),
g AS (SELECT doc_id, toks, unnest(generate_series(1, len(toks) - 2)) AS i
      FROM t WHERE len(toks) >= 3),
sh AS (
  SELECT DISTINCT doc_id, toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2] AS s
  FROM g
  UNION
  SELECT doc_id, text AS s FROM t WHERE len(toks) < 3
), hh AS (
  SELECT doc_id, CAST(md5_number_upper(s) AS HUGEINT) AS h FROM sh
), perms(j, a, b) AS (VALUES {_minhash_perm_values()}),
sig AS (
  SELECT doc_id, j,
         MIN((h * a + b) % 18446744073709551616::HUGEINT) AS m
  FROM hh CROSS JOIN perms GROUP BY doc_id, j
), bsig AS (
  SELECT doc_id, j // 4 AS band,
         string_agg(CAST(m AS VARCHAR), ',' ORDER BY j) AS bh
  FROM sig GROUP BY doc_id, j // 4
), bok AS (
  SELECT band, bh FROM bsig
  GROUP BY band, bh HAVING COUNT(*) BETWEEN 2 AND 2000
), cand AS (
  SELECT DISTINCT a.doc_id AS a_id, b.doc_id AS b_id
  FROM bok k
  JOIN bsig a ON a.band = k.band AND a.bh = k.bh
  JOIN bsig b ON b.band = k.band AND b.bh = k.bh AND a.doc_id < b.doc_id
), sz AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT c.a_id, c.b_id, COUNT(*) AS it
  FROM cand c
  JOIN sh a ON a.doc_id = c.a_id
  JOIN sh b ON b.doc_id = c.b_id AND b.s = a.s
  GROUP BY c.a_id, c.b_id
)
SELECT i.a_id, i.b_id, CAST(it AS DOUBLE) / (sa.n + sb.n - it) AS jaccard
FROM inter i
JOIN sz sa ON sa.doc_id = i.a_id
JOIN sz sb ON sb.doc_id = i.b_id
WHERE CAST(it AS DOUBLE) / (sa.n + sb.n - it) >= 0.5
"""

SIM_KNN = """
WITH q AS (
  SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qv
  FROM embeddings WHERE vec_id < 20
), e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
), j AS (
  SELECT q.qid, e.vec_id,
         list_cosine_similarity(q.qv, e.v) AS sim
  FROM q CROSS JOIN e
), r AS (
  SELECT qid, vec_id,
         row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rnk
  FROM j
)
SELECT qid, vec_id AS neighbor_id, CAST(rnk AS INTEGER) AS rank
FROM r WHERE rnk <= 10
"""

REL_EVENTS_RUNNING = """
SELECT user_id, event_id,
       row_number() OVER w AS rn,
       MAX(value) OVER w AS run_max
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""

REL_EVENTS_ASOF = """
WITH last_date AS (
  SELECT e.event_id, e.user_id, e.ts,
         (SELECT MAX(o.o_orderdate) FROM orders o
          WHERE o.o_custkey = e.user_id AND o.o_orderdate <= e.ts) AS od
  FROM events e
)
SELECT l.event_id, l.user_id,
       (SELECT MAX(o.o_orderkey) FROM orders o
        WHERE o.o_custkey = l.user_id AND o.o_orderdate = l.od) AS last_orderkey
FROM last_date l WHERE l.od IS NOT NULL
"""

# Cell-partitioned blocking over the flat-roof generative subset: the engine
# replicates each cand to its Chebyshev ring-1 cells at res 9 (cell = 256 m,
# dyadic) and keeps the global top-21 index neighbors by exact squared
# centroid distance — per-cell top-k + re-reduce equals the ring-restricted
# global top-k, so one window over the ring join replicates it bit-for-bit.
GEO_BLOCK_CELLS = _GEO_KNN_SIDES + """
, cc AS (
  SELECT cand_id, cx, cy,
         CAST(floor(cx / 256) AS BIGINT) AS ix,
         CAST(floor(cy / 256) AS BIGINT) AS iy
  FROM cands
), ic AS (
  SELECT index_id, knum, cx, cy,
         CAST(floor(cx / 256) AS BIGINT) AS ix,
         CAST(floor(cy / 256) AS BIGINT) AS iy
  FROM idx
), j AS (
  SELECT cc.cand_id, ic.index_id,
         (cc.cx - ic.cx) * (cc.cx - ic.cx) + (cc.cy - ic.cy) * (cc.cy - ic.cy) AS dist2,
         row_number() OVER (
           PARTITION BY cc.cand_id
           ORDER BY (cc.cx - ic.cx) * (cc.cx - ic.cx) + (cc.cy - ic.cy) * (cc.cy - ic.cy),
                    ic.knum) AS rnk
  FROM cc JOIN ic
    ON abs(cc.ix - ic.ix) <= 1 AND abs(cc.iy - ic.iy) <= 1
)
SELECT cand_id, index_id, CAST(rnk AS INTEGER) AS rank, dist2
FROM j WHERE rnk <= 21
"""

# --- md5-derived token hashes ---------------------------------------------
# DuckDB's md5_number_upper(s) equals the engine's token hash
# int.from_bytes(md5(s).digest()[:8], 'little') (first 8 digest bytes,
# little-endian) — verified on DuckDB 1.0.

# Rolling-hash fingerprint (engine/text.py fingerprint): window hash =
# sum_j h[i+j] * BASE^(window-1-j) mod (2^61 - 1).  Powers are precomputed
# exact constants; each product is reduced before summing so the HUGEINT
# accumulation never exceeds 2^64.
_FP_MOD = (1 << 61) - 1
_FP_BASE = 1000003
_FP_WINDOW = 8
_FP_POWS = [pow(_FP_BASE, _FP_WINDOW - 1 - j, _FP_MOD)
            for j in range(_FP_WINDOW)]
_FP_TERMS = " + ".join(
    f"(h[i + {j}] * {p}::HUGEINT) % {_FP_MOD}::HUGEINT"
    for j, p in enumerate(_FP_POWS))

TEXT_FINGERPRINT = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks,
         md5_number_upper(text) AS text_hash
  FROM documents
), hs AS (
  SELECT doc_id, text_hash, len(toks) AS n,
         list_transform(toks, w -> CAST(md5_number_upper(w) AS HUGEINT)) AS h
  FROM t
), win AS (
  SELECT doc_id, h, unnest(generate_series(1, n - {_FP_WINDOW - 1})) AS i
  FROM hs WHERE n >= {_FP_WINDOW}
), wv AS (
  SELECT doc_id, ({_FP_TERMS}) % {_FP_MOD}::HUGEINT AS v FROM win
), agg AS (
  SELECT doc_id, MIN(v) AS mh FROM wv GROUP BY doc_id
)
SELECT hs.doc_id,
       CAST(CASE WHEN hs.n >= {_FP_WINDOW} THEN agg.mh
            ELSE (SELECT MIN(x) FROM unnest(hs.h) AS u(x)) END
            AS UBIGINT) AS min_hash,
       hs.text_hash
FROM hs LEFT JOIN agg ON agg.doc_id = hs.doc_id
"""

# SimHash signature (engine/dedup.py simhash_signatures): per doc, bit b of
# the 64-bit signature is set iff sum over token OCCURRENCES of
# (bit b of md5-hash ? +1 : -1) is strictly positive.  Powers of two are
# literal constants (2^63 exceeds BIGINT; the VALUES rows carry HUGEINT).
_POW2_VALUES = ", ".join(f"({b}, {1 << b})" for b in range(64))

_SIMHASH_SIG = _DUP_CORPUS + f"""
, tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM corpus
), th AS (
  SELECT doc_id, md5_number_upper(w) AS h FROM tok
), bits(b, pw) AS (VALUES {_POW2_VALUES}),
sb AS (
  SELECT doc_id, b, pw,
         SUM(CASE WHEN (h >> b) & CAST(1 AS UBIGINT) = CAST(1 AS UBIGINT)
             THEN 1 ELSE -1 END) AS s
  FROM th CROSS JOIN bits GROUP BY doc_id, b, pw
), sig AS (
  SELECT doc_id,
         CAST(SUM(CASE WHEN s > 0 THEN CAST(pw AS HUGEINT) ELSE 0 END)
              AS UBIGINT) AS simhash
  FROM sb GROUP BY doc_id
)
"""

DEDUP_SIMHASH = _SIMHASH_SIG + """
SELECT doc_id, simhash FROM sig
"""

# Brute-force hamming <= 3 pairs: the engine's banded blocking is
# pigeonhole-LOSSLESS for max_hamming <= bands-1, so its output equals this
# exhaustive popcount join.
DEDUP_SIMHASH_PAIRS = _SIMHASH_SIG + """
SELECT a.doc_id AS a_id, b.doc_id AS b_id,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS INTEGER) AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
"""

# Media-feature stage (engine/multimodal.py): the declared stub decode is
# bytes of md5(media_ref) L2-normalized — squares/sums are exact ints, sqrt
# and the divisions are correctly rounded, so all 8 feature columns are
# bit-exact.  Corpus rows replicate engine/corpus.py:_gen_batch (cands for
# every key, index for matched keys + one extra at key+10^7).
_MM_BYTES = ",\n         ".join(
    f"CAST((hh >> {8 * j}) & CAST(255 AS UBIGINT) AS DOUBLE) AS b{j}"
    for j in range(8))
_MM_SQ = " + ".join(f"b{j}*b{j}" for j in range(8))
_MM_F = ",\n       ".join(f"b{j} / nrm AS f{j}" for j in range(8))

MULTIMODAL_FEATURES = f"""
WITH h AS (
  SELECT doc_id AS k,
         ((doc_id * 1000003 + 7) % 1000000007) * 1103515245 + 54321 AS h2
  FROM documents
), rws AS (
  SELECT CAST(k AS VARCHAR) AS doc_id, 'cands' AS source,
         'png://' || k || '/0' AS media_ref FROM h
  UNION ALL
  SELECT CAST(k AS VARCHAR), 'index', 'png://' || k || '/0'
  FROM h WHERE (((h2 // 9801000000) // 27) % 100) < 85
  UNION ALL
  SELECT CAST(k + 10000000 AS VARCHAR), 'index',
         'png://' || (k + 10000000) || '/0' FROM h
), bb AS (
  SELECT doc_id, source, media_ref,
         {_MM_BYTES}
  FROM (SELECT doc_id, source, media_ref,
               md5_number_upper(media_ref) AS hh FROM rws)
), nn AS (
  SELECT *, sqrt({_MM_SQ}) AS nrm FROM bb
)
SELECT doc_id, source, media_ref, CAST(2 AS INTEGER) AS "offset",
       {_MM_F}
FROM nn
"""

# Embedding blocker, exact-cosine precision mode (engine/blocking.py
# embedding_nn_auto(exact=True), the reference's ViT IndexFlatIP slot,
# blocking.py:176-191): cosine = (sum of raw-byte products) / (nrm_c *
# nrm_i).  The byte products/sums are exact integers in f64 (order-free),
# leaving exactly one multiply + one divide rounding — the same two IEEE
# operations the engine performs — so every score is bit-equal.  Top-5 per
# cand, ties by numeric index id.
_MM_DOT = " + ".join(f"c.b{j}*i.b{j}" for j in range(8))

GEO_BLOCK_EMBEDDING = f"""
WITH h AS (
  SELECT doc_id AS k,
         ((doc_id * 1000003 + 7) % 1000000007) * 1103515245 + 54321 AS h2
  FROM documents
), rws AS (
  SELECT CAST(k AS VARCHAR) AS doc_id, 'cands' AS source,
         'png://' || k || '/0' AS media_ref FROM h
  UNION ALL
  SELECT CAST(k AS VARCHAR), 'index', 'png://' || k || '/0'
  FROM h WHERE (((h2 // 9801000000) // 27) % 100) < 85
  UNION ALL
  SELECT CAST(k + 10000000 AS VARCHAR), 'index',
         'png://' || (k + 10000000) || '/0' FROM h
), bb AS (
  SELECT doc_id, source,
         {_MM_BYTES}
  FROM (SELECT doc_id, source,
               md5_number_upper(media_ref) AS hh FROM rws)
), nn AS (
  SELECT *, sqrt({_MM_SQ}) AS nrm FROM bb
), s AS (
  SELECT c.doc_id AS cand_id, i.doc_id AS index_id,
         ({_MM_DOT}) / (c.nrm * i.nrm) AS score,
         CAST(i.doc_id AS BIGINT) AS inum
  FROM (SELECT * FROM nn WHERE source = 'cands') c
  CROSS JOIN (SELECT * FROM nn WHERE source = 'index') i
), r AS (
  SELECT cand_id, index_id, score,
         row_number() OVER (PARTITION BY cand_id
                            ORDER BY score DESC, inum ASC) AS rnk
  FROM s
)
SELECT cand_id, index_id, CAST(rnk AS INTEGER) AS rank, score
FROM r WHERE rnk <= 5
"""

# all-roof-type subset: bbox, height, counts, and EXACT volume closed forms.
# The kernel accumulates the integer-dyadic 6V numerator and divides once,
# so SQL replicates with the same single division: (6V_num)/6.
GEO_PROPERTIES_ROOFS = """
WITH h AS (
  SELECT doc_id AS k, doc_id % 5 AS roof,
         (doc_id * 2654435761 + 12345) AS hv
  FROM documents
), d AS (
  SELECT k, roof,
    4 + (hv % 24) + ((hv // 24) % 8) / 8.0 AS w,
    5 + ((hv // 192) % 30) + ((hv // 1536) % 8) / 8.0 AS l,
    3 + ((hv // 12288) % 18) + ((hv // 98304) % 8) / 8.0 AS ht,
    1 + ((hv // 786432) % 6) + ((hv // 4718592) % 8) / 8.0 AS rise
  FROM h
)
SELECT CAST(k AS VARCHAR) AS doc_id,
  CAST(roof AS INTEGER) AS roof,
  w AS bounding_box_width,
  l AS bounding_box_length,
  CASE WHEN roof = 0 THEN ht ELSE ht + rise END AS height_diff,
  CASE roof
    WHEN 0 THEN (6 * (w * l * ht)) / 6
    WHEN 1 THEN (6 * (w * l * ht) + 3 * (w * l * rise)) / 6
    WHEN 2 THEN (6 * (w * l * ht) + 3 * (w * l * rise)) / 6
    WHEN 3 THEN (6 * (w * l * ht) + 3 * w * rise * (l - 2 * (least(w, l) / 4))
                 + 4 * (w * (least(w, l) / 4) * rise)) / 6
    ELSE (6 * (w * l * ht) + 2 * (w * l * rise)) / 6
  END AS volume,
  CASE WHEN roof = 4 THEN 15.0 ELSE 16.0 END AS num_vertices,
  CASE WHEN roof = 0 THEN 3.0 ELSE 4.0 END AS num_floors
FROM d
"""


# --- LSH-bucketed approximate kNN (engine/similarity.py lsh_knn, defaults
# bits=4 / seed=11 / k=10 / qid < 20).  The 4 seeded hyperplanes are embedded
# as DOUBLE[] literals; a vector's bucket bit is sign(v . plane) — the norm
# factor is positive, so no normalization is needed and the sign is robust to
# summation-order ulps.  Probing = own bucket + Hamming-1, then exact cosine
# rank (sim DESC, vec_id ASC) within the probed candidates, exactly the
# engine's tie policy (rank-only output, like SIM_KNN).
def _plane_values(planes, bands: int | None = None) -> str:
    rows = []
    for i, p in enumerate(planes):
        vec = ",".join(repr(float(x)) for x in p)
        if bands is None:
            rows.append(f"({i}, {1 << i}::BIGINT, [{vec}]::DOUBLE[])")
        else:
            bits = len(planes) // bands
            rows.append(f"({i // bits}, {1 << (i % bits)}::BIGINT, [{vec}]::DOUBLE[])")
    return ",\n".join(rows)


def _rng_planes(shape):
    import numpy as _np
    return _np.random.default_rng(11).standard_normal(shape)


SIM_KNN_LSH = f"""
WITH pl(bit, pw, p) AS (VALUES {_plane_values(_rng_planes((4, 64)))}),
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
b AS (
  SELECT e.vec_id,
         CAST(SUM(CASE WHEN list_dot_product(e.v, pl.p) > 0
                       THEN pl.pw ELSE 0 END) AS BIGINT) AS bucket
  FROM e CROSS JOIN pl GROUP BY e.vec_id
),
q AS (SELECT vec_id AS qid, bucket AS qb FROM b WHERE vec_id < 20),
qv AS (SELECT vec_id AS qid, v AS qvec FROM e WHERE vec_id < 20),
masks(m) AS (VALUES (0),(1),(2),(4),(8)),
allowed AS (SELECT qid, xor(qb, CAST(m AS BIGINT)) AS ab
            FROM q CROSS JOIN masks),
cand AS (
  SELECT DISTINCT a.qid, b.vec_id FROM allowed a JOIN b ON b.bucket = a.ab
),
j AS (
  SELECT c.qid, c.vec_id, list_cosine_similarity(qv.qvec, e.v) AS sim
  FROM cand c JOIN qv ON qv.qid = c.qid JOIN e ON e.vec_id = c.vec_id
),
r AS (SELECT qid, vec_id,
             row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rnk
      FROM j)
SELECT qid, vec_id AS neighbor_id, CAST(rnk AS INTEGER) AS rank
FROM r WHERE rnk <= 10
"""

# --- Embedding near-dup (engine/dedup.py planted_neardup_embeddings +
# embedding_near_dup, defaults bands=8 / bits_per_band=8 / max_bucket=2000 /
# threshold=0.98).  The planting replicates bit-for-bit: jit[d] =
# float32(v[d] + 0.02*u - 0.01), u = md5_number_upper('<vid>:<d>') / 2^64
# (same first-8-digest-bytes little-endian integer and the same
# round-to-nearest DOUBLE->REAL cast as numpy astype(float32), both verified
# on this DuckDB).  Banding: 8 independent 8-bit sign-bucket tables over the
# 64 seeded hyperplanes; (band, bucket) groups sized 2..2000 emit pairs
# (stop-bucket removal); distinct pairs verify by exact cosine >= 0.98.  The
# emitted cosine is quantized to 1e-9 on both sides, so the value is
# independent of float accumulation order.
_EMB_ND_CHAIN = f"""
WITH pl(band, pw, p) AS (VALUES {_plane_values(_rng_planes((64, 64)), bands=8)}),
eb AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
jit AS (
  SELECT eb.vec_id + 100000 AS vec_id,
         list(CAST(eb.v[d.d] +
              (0.02 * (CAST(md5_number_upper(concat(eb.vec_id, ':', d.d - 1)) AS DOUBLE)
                       / 18446744073709551616.0) - 0.01) AS REAL)
              ORDER BY d.d) AS vr
  FROM eb CROSS JOIN generate_series(1, 64) AS d(d)
  WHERE eb.vec_id % 5 = 0
  GROUP BY eb.vec_id
),
e AS (SELECT vec_id, v FROM eb
      UNION ALL SELECT vec_id, CAST(vr AS DOUBLE[]) FROM jit),
sig AS (
  SELECT e.vec_id, pl.band,
         CAST(SUM(CASE WHEN list_dot_product(e.v, pl.p) > 0
                       THEN pl.pw ELSE 0 END) AS BIGINT) AS bv
  FROM e CROSS JOIN pl GROUP BY e.vec_id, pl.band
),
ok AS (SELECT band, bv FROM sig GROUP BY band, bv HAVING COUNT(*) BETWEEN 2 AND 2000),
cand AS (
  SELECT DISTINCT a.vec_id AS a_id, b.vec_id AS b_id
  FROM ok k
  JOIN sig a ON a.band = k.band AND a.bv = k.bv
  JOIN sig b ON b.band = k.band AND b.bv = k.bv AND a.vec_id < b.vec_id
),
vv AS (
  SELECT c.a_id, c.b_id, list_cosine_similarity(ea.v, eb2.v) AS cos
  FROM cand c JOIN e ea ON ea.vec_id = c.a_id JOIN e eb2 ON eb2.vec_id = c.b_id
)
"""

DEDUP_EMBEDDING = _EMB_ND_CHAIN + """
SELECT a_id, b_id, floor(cos * 1e9) / 1e9 AS cosine
FROM vv WHERE cos >= 0.98
"""

# --- Semantic dedup (engine/dedup.py semantic_dedup_ids): the near-dup
# chain above -> transitive closure (recursive CTE, same technique as
# DEDUP_CLUSTERS) -> each component keeps only its MIN-id representative;
# output = the kept vec_ids of the planted corpus.
DEDUP_SEMANTIC = _EMB_ND_CHAIN.replace("WITH pl", "WITH RECURSIVE pl") + """
, vp AS (SELECT a_id, b_id FROM vv WHERE cos >= 0.98),
ed AS (SELECT a_id AS x, b_id AS y FROM vp
       UNION SELECT b_id AS x, a_id AS y FROM vp),
r(x, y) AS (
  SELECT x, x FROM (SELECT DISTINCT x FROM ed)
  UNION
  SELECT ed.x, r.y FROM ed JOIN r ON r.x = ed.y
),
cl AS (SELECT x AS doc_id, MIN(y) AS cluster_id FROM r GROUP BY x),
dr AS (SELECT doc_id FROM cl WHERE doc_id <> cluster_id)
SELECT e.vec_id FROM e
WHERE e.vec_id NOT IN (SELECT doc_id FROM dr)
"""

# --- Per-language corpus stats (engine/text.py corpus_stats): TEXT_LANGID's
# argmax-overlap language per doc, then integer sums per language — all
# partial-aggregable ints, ratios are single exact divisions.
CORPUS_STATS = r"""
WITH t AS (
  SELECT doc_id, text, string_split(text, ' ') AS toks FROM documents
), s AS (
  SELECT doc_id, 'en' AS lang,
         CAST(len(list_filter(list_distinct(toks), x -> x IN ('the','a','and','fast','key'))) AS DOUBLE) / 5 AS score
  FROM t
  UNION ALL
  SELECT doc_id, 'es',
         CAST(len(list_filter(list_distinct(toks), x -> x IN ('the','data','slow','table'))) AS DOUBLE) / 4
  FROM t
  UNION ALL
  SELECT doc_id, 'zh',
         CAST(len(list_filter(list_distinct(toks), x -> x IN ('spark','batch','window'))) AS DOUBLE) / 3
  FROM t
), lr AS (
  SELECT doc_id, lang,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, lang) AS rnk
  FROM s
), lg AS (SELECT doc_id, lang FROM lr WHERE rnk = 1),
j AS (
  SELECT lg.lang AS language,
         len(t.toks) AS ws,
         len(regexp_extract_all(t.text,
             '''(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+'
             )) AS sub,
         length(t.text) AS ch,
         len(list_filter(t.toks, x -> x = 'the')) AS stp,
         len(list_distinct(t.toks)) AS dis
  FROM t JOIN lg ON lg.doc_id = t.doc_id
)
SELECT language,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(ws) AS BIGINT) AS ws_tokens,
       CAST(SUM(sub) AS BIGINT) AS subtokens,
       CAST(SUM(ch) AS BIGINT) AS chars,
       CAST(SUM(stp) AS DOUBLE) / SUM(ws) AS stop_frac,
       CAST(SUM(dis) AS DOUBLE) / SUM(ws) AS lexical_diversity
FROM j GROUP BY language
"""


# Gopher-style quality gate (engine/text.py quality_filter): every rule is
# an integer comparison (mean-word-length via cross-multiplication, never a
# float division), so the table replicates exactly.
QUALITY_FILTER = """
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks, length(text) AS n_chars
  FROM documents
), s AS (
  SELECT doc_id, len(toks) AS n_tokens,
         n_chars - (len(toks) - 1) AS sum_len,
         len(list_filter(toks,
             w -> w IN ('the', 'a', 'and', 'of', 'to'))) AS n_stop,
         len(list_distinct(toks)) AS n_distinct
  FROM t
)
SELECT doc_id, n_tokens,
       n_tokens >= 20 AND n_tokens <= 90 AS ok_len,
       sum_len >= 3 * n_tokens AND sum_len <= 7 * n_tokens AS ok_word_len,
       n_stop >= 2 AS ok_stop,
       n_distinct * 2 >= n_tokens AS ok_lex,
       (n_tokens >= 20 AND n_tokens <= 90
        AND sum_len >= 3 * n_tokens AND sum_len <= 7 * n_tokens
        AND n_stop >= 2
        AND n_distinct * 2 >= n_tokens) AS keep
FROM s
"""

# Stratified sampling (engine/text.py stratified_sample, rates en=0.25 /
# default 0.75, seed 1): md5_number_upper('sample|1|' || doc_id) equals the
# engine's stable_hash64 (first 8 md5 digest bytes, little-endian).
CORPUS_SAMPLE = """
SELECT doc_id, lang, source, n_chars
FROM documents
WHERE md5_number_upper('sample|1|' || doc_id) % 1000000 <
      CASE WHEN lang = 'en' THEN 250000 ELSE 750000 END
"""

# Composed curation pipeline (engine/queries.py curation_pipeline):
# quality gate -> exact-dedup keep-first -> benchmark decontamination,
# each stage the same SQL as its standalone oracle, chained as CTEs.
CURATION_PIPELINE = """
WITH t AS (
  SELECT doc_id, text, string_split(text, ' ') AS toks,
         length(text) AS n_chars
  FROM documents
), s AS (
  SELECT doc_id, text, toks, len(toks) AS n_tokens,
         n_chars - (len(toks) - 1) AS sum_len,
         len(list_filter(toks,
             w -> w IN ('the', 'a', 'and', 'of', 'to'))) AS n_stop,
         len(list_distinct(toks)) AS n_distinct
  FROM t
), k AS (
  SELECT doc_id, text, toks FROM s
  WHERE n_tokens >= 20 AND n_tokens <= 90
    AND sum_len >= 3 * n_tokens AND sum_len <= 7 * n_tokens
    AND n_stop >= 2 AND n_distinct * 2 >= n_tokens
), d AS (
  SELECT MIN(doc_id) AS doc_id FROM k GROUP BY text
), tr AS (
  SELECT k.doc_id, k.toks FROM k JOIN d USING (doc_id)
  WHERE k.doc_id % 97 <> 0
), tg0 AS (
  SELECT doc_id, toks, unnest(generate_series(1, len(toks) - 2)) AS i
  FROM tr
), tg AS (
  SELECT DISTINCT doc_id,
         toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2] AS g
  FROM tg0
), bt AS (
  SELECT string_split(text, ' ') AS toks FROM documents
  WHERE doc_id % 97 = 0
), bg0 AS (
  SELECT toks, unnest(generate_series(1, len(toks) - 2)) AS i FROM bt
), bg AS (
  SELECT DISTINCT toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2] AS g
  FROM bg0
), sz AS (
  SELECT doc_id, COUNT(*) AS n_grams FROM tg GROUP BY doc_id
), hit AS (
  SELECT DISTINCT tg.doc_id FROM tg JOIN bg USING (g)
)
SELECT tr.doc_id, COALESCE(sz.n_grams, 0) AS n_grams
FROM tr LEFT JOIN sz USING (doc_id)
WHERE tr.doc_id NOT IN (SELECT doc_id FROM hit)
"""

# Per-group reservoir sample (engine/text.py reservoir_per_group,
# group=lang, k=50, seed=1): the k smallest md5 ranks per language;
# md5_number_upper('res|1|' || doc_id) == the engine's stable_hash64.
RESERVOIR_SAMPLE = """
WITH r AS (
  SELECT lang, doc_id,
         ROW_NUMBER() OVER (
           PARTITION BY lang
           ORDER BY md5_number_upper('res|1|' || doc_id), doc_id) AS rank
  FROM documents
)
SELECT lang, doc_id, CAST(rank AS BIGINT) AS rank FROM r WHERE rank <= 50
"""

# Benchmark n-gram decontamination (engine/dedup.py decontaminate, n=3,
# benchmark = doc_id % 97 == 0): distinct-3-gram semi-join counts; docs
# shorter than 3 tokens have zero grams on both sides (generate_series is
# empty exactly when the engine's _shingles set is).
DECONTAM = """
WITH train AS (
  SELECT doc_id, string_split(text, ' ') AS toks FROM documents
  WHERE doc_id % 97 <> 0
), tg0 AS (
  SELECT doc_id, toks, unnest(generate_series(1, len(toks) - 2)) AS i
  FROM train
), tg AS (
  SELECT DISTINCT doc_id,
         toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2] AS g
  FROM tg0
), bt AS (
  SELECT string_split(text, ' ') AS toks FROM documents WHERE doc_id % 97 = 0
), bg0 AS (
  SELECT toks, unnest(generate_series(1, len(toks) - 2)) AS i FROM bt
), bg AS (
  SELECT DISTINCT toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2] AS g
  FROM bg0
), sz AS (
  SELECT doc_id, COUNT(*) AS n_grams FROM tg GROUP BY doc_id
), hit AS (
  SELECT tg.doc_id, COUNT(*) AS n_hits FROM tg JOIN bg USING (g)
  GROUP BY tg.doc_id
)
SELECT t.doc_id,
       COALESCE(sz.n_grams, 0) AS n_grams,
       COALESCE(hit.n_hits, 0) AS n_hits,
       COALESCE(hit.n_hits, 0) > 0 AS contaminated
FROM train t LEFT JOIN sz USING (doc_id) LEFT JOIN hit USING (doc_id)
"""


# Dirty-split blocking recall (engine/queries.py geo_blocking_dirty /
# splits.dirty_blocking_split): test cands = 60% md5 sample of cands∩index,
# 20% md5 subset of those removed from the index side; scaler quantiles are
# fit on the FILTERED cand side (fit-cands semantics), so the fv/cs CTEs must
# read tcands; recall over the matchable subset is one exact division.
def _dirty_sql() -> str:
    import re
    head, tail = _BKAFI_CTES.split("), fv AS (", 1)
    tail = re.sub(r"\bcands\b", "tcands", tail)
    tail = re.sub(r"\bidx\b", "idx2", tail)
    return head + """), tcands AS (
  SELECT c.* FROM cands c
  WHERE EXISTS (SELECT 1 FROM idx i WHERE i.id = c.id)
    AND md5_number_upper(c.id || '|dirty|1') % 100 < 60
), rmv AS (
  SELECT id FROM tcands WHERE md5_number_upper(id || '|rm|1') % 100 < 20
), idx2 AS (
  SELECT * FROM idx WHERE id NOT IN (SELECT id FROM rmv)
), fv AS (""" + tail + """
, hits AS (
  SELECT cand_id, min(rnk) AS best
  FROM j WHERE cand_id = index_id AND rnk <= 21
  GROUP BY cand_id
), ks AS (SELECT unnest([1, 5, 10, 20]) AS k)
SELECT CAST(ks.k AS INTEGER) AS k,
       (SELECT count(*) FROM tcands) AS n_test_cands,
       (SELECT count(*) FROM rmv) AS n_unmatched,
       CAST(count(h.cand_id) AS DOUBLE)
         / ((SELECT count(*) FROM tcands) - (SELECT count(*) FROM rmv))
         AS recall_matchable
FROM ks LEFT JOIN hits h ON h.best <= ks.k
GROUP BY ks.k
"""


GEO_BLOCKING_DIRTY = _dirty_sql()


# Rational tf-idf top-k terms (engine/text.py tfidf_topk, k=5): score is
# the log-free tf * N / df — exact int64 product, one IEEE division — so
# row_number over (score DESC, term ASC) replicates the engine's ranking
# bit-for-bit (terms are unique within a doc; the order is total).
TFIDF_TOPK = """
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks FROM documents
), e0 AS (
  SELECT doc_id, unnest(toks) AS term FROM t
), tf AS (
  SELECT doc_id, term, count(*) AS tf FROM e0 GROUP BY doc_id, term
), df AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM e0 GROUP BY term
), s AS (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         CAST(tf.tf * (SELECT count(*) FROM documents) AS DOUBLE) / df.df
           AS score
  FROM tf JOIN df USING (term)
), r AS (
  SELECT *, row_number() OVER (PARTITION BY doc_id
                               ORDER BY score DESC, term ASC) AS rnk
  FROM s
)
SELECT doc_id, term, tf, df, score, CAST(rnk AS BIGINT) AS rnk
FROM r WHERE rnk <= 5
"""

# Gopher repetition rules (engine/text.py repetition_stats): keep flags via
# integer cross-multiplication (dup * 10 <= 1 * n_bigrams, top * 8 <=
# 1 * n_tokens); the two fractions are single exact int/int divisions.
# n_tokens MUST be cast to BIGINT: DuckDB sum(BIGINT) yields HUGEINT, which
# pandas materializes as float64 ("86.0" vs the engine's int64 "86") —
# ==-equal but hash-different under the driver's canonicalization; this was
# the single red row in CORRECTNESS_r04 (jobs/audit_dtypes.py finds the class).
TEXT_REPETITION = """
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks FROM documents
), w2 AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tokens, max(c) AS top_word_n FROM
    (SELECT doc_id, term, count(*) AS c
     FROM (SELECT doc_id, unnest(toks) AS term FROM t)
     GROUP BY doc_id, term)
  GROUP BY doc_id
), b AS (
  SELECT doc_id,
         count(*) AS n_bigrams,
         count(DISTINCT toks[i] || chr(0) || toks[i + 1]) AS n_bi_distinct
  FROM (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks) - 1)) AS i
        FROM t)
  GROUP BY doc_id
)
SELECT t.doc_id,
       w2.n_tokens,
       COALESCE(b.n_bigrams, 0) AS n_bigrams,
       COALESCE(b.n_bigrams - b.n_bi_distinct, 0) AS dup_bigrams,
       w2.top_word_n,
       CASE WHEN COALESCE(b.n_bigrams, 0) = 0 THEN 0.0
            ELSE CAST(b.n_bigrams - b.n_bi_distinct AS DOUBLE) / b.n_bigrams
       END AS dup_bigram_frac,
       CAST(w2.top_word_n AS DOUBLE) / w2.n_tokens AS top_word_frac,
       COALESCE(b.n_bigrams - b.n_bi_distinct, 0) * 10
         <= 1 * COALESCE(b.n_bigrams, 0) AS ok_repetition,
       w2.top_word_n * 8 <= 1 * w2.n_tokens AS ok_top_word,
       (COALESCE(b.n_bigrams - b.n_bi_distinct, 0) * 10
          <= 1 * COALESCE(b.n_bigrams, 0)
        AND w2.top_word_n * 8 <= 1 * w2.n_tokens) AS keep
FROM t JOIN w2 USING (doc_id) LEFT JOIN b USING (doc_id)
"""

# Inverted index (engine/text.py inverted_index, max_postings=32): per-doc
# distinct explode, df = full count, postings = first 32 doc_ids ascending,
# comma-joined (a stable cross-engine list representation).
INVERTED_INDEX = """
WITH e AS (
  SELECT DISTINCT doc_id, term FROM (
    SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents)
)
SELECT term, count(*) AS df,
       array_to_string(list_slice(list(doc_id ORDER BY doc_id), 1, 32), ',')
         AS postings
FROM e GROUP BY term
"""


# Substring-duplication profile (engine/dedup.py substring_dup_stats, w=8,
# over the planted-dup corpus): a position is duplicated when its 8-token
# window occurs in >= 2 distinct documents; dup_frac is one exact int/int
# division and flag_remove an integer cross-multiplication.
DEDUP_SUBSTRING = _DUP_CORPUS + """
, t AS (
  SELECT doc_id, string_split(text, ' ') AS toks FROM corpus
), base AS (
  SELECT doc_id, GREATEST(len(toks) - 7, 0) AS n_positions FROM t
), gr AS (
  -- group/join on the engine's hash_grams=True shuffle key: a rolling
  -- polynomial over 48-bit token hashes (base 1000003, mod 2^64) — the
  -- HUGEINT full-precision sum % 2^64 is congruent to the engine's
  -- per-term uint64 wraparound
  SELECT doc_id,
    (CAST(md5_number_upper(toks[i + 0]) % 281474976710656 AS HUGEINT) * 12924618581234127435::HUGEINT
    + CAST(md5_number_upper(toks[i + 1]) % 281474976710656 AS HUGEINT) * 10923514805226455897::HUGEINT
    + CAST(md5_number_upper(toks[i + 2]) % 281474976710656 AS HUGEINT) * 14453212906556403763::HUGEINT
    + CAST(md5_number_upper(toks[i + 3]) % 281474976710656 AS HUGEINT) * 14003818205314896721::HUGEINT
    + CAST(md5_number_upper(toks[i + 4]) % 281474976710656 AS HUGEINT) * 1000009000027000027::HUGEINT
    + CAST(md5_number_upper(toks[i + 5]) % 281474976710656 AS HUGEINT) * 1000006000009::HUGEINT
    + CAST(md5_number_upper(toks[i + 6]) % 281474976710656 AS HUGEINT) * 1000003::HUGEINT
    + CAST(md5_number_upper(toks[i + 7]) % 281474976710656 AS HUGEINT) * 1::HUGEINT) % 18446744073709551616::HUGEINT AS gram
  FROM (SELECT doc_id, toks,
               unnest(generate_series(1, len(toks) - 7)) AS i FROM t)
), pg AS (
  SELECT doc_id, gram, count(*) AS c FROM gr GROUP BY doc_id, gram
), df AS (
  SELECT gram, count(*) AS df FROM pg GROUP BY gram
), dup AS (
  SELECT pg.doc_id, CAST(sum(pg.c) AS BIGINT) AS dup_positions
  FROM pg JOIN df USING (gram) WHERE df.df >= 2 GROUP BY pg.doc_id
)
SELECT b.doc_id, b.n_positions,
       COALESCE(d.dup_positions, 0) AS dup_positions,
       CASE WHEN b.n_positions = 0 THEN 0.0
            ELSE CAST(COALESCE(d.dup_positions, 0) AS DOUBLE) / b.n_positions
       END AS dup_frac,
       (COALESCE(d.dup_positions, 0) * 2 >= b.n_positions
        AND b.n_positions > 0) AS flag_remove
FROM base b LEFT JOIN dup d USING (doc_id)
"""


# Sequence packing (engine/text.py pack_sequences, window=256): the engine's
# distributed range-bucket prefix sum equals one SQL window cumsum over
# doc_id order; all-int64 arithmetic.
PACK_SEQUENCES = """
WITH t AS (
  SELECT doc_id, len(string_split(text, ' ')) AS n_tokens FROM documents
), s AS (
  SELECT doc_id, n_tokens,
         CAST(SUM(n_tokens) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
              - n_tokens AS BIGINT) AS start_offset
  FROM t
)
SELECT doc_id, n_tokens, start_offset,
       start_offset // 256 AS window_id
FROM s
"""


# Geometric pair features (engine/spatial.py geom_pair_features): for every
# flat-roof cand with a same-key (matched, perturbed) index entity —
# centroid distance, axis-aligned footprint-bbox IoU, exact rectangle
# Hausdorff (max corner-to-rectangle distance over both directions; exact
# for convex sets).  All inputs are dyadic rationals, so only the final
# sqrt / division round — one IEEE op each, identical on both sides.
GEO_PAIR_FEATURES = """
WITH hc AS (
  SELECT doc_id AS k, (doc_id * 2654435761 + 12345) AS hv,
         ((doc_id * 1000003 + 7) % 1000000007) * 1103515245 + 54321 AS h2
  FROM documents WHERE doc_id % 5 = 0
), a AS (
  SELECT k,
    CAST(h2 % 99000 AS DOUBLE) AS x0,
    CAST((h2 // 99000) % 99000 AS DOUBLE) AS y0,
    4 + (hv % 24) + ((hv // 24) % 8) / 8.0 AS w,
    5 + ((hv // 192) % 30) + ((hv // 1536) % 8) / 8.0 AS l
  FROM hc
), b AS (
  SELECT k,
    CAST(h2 % 99000 AS DOUBLE) AS x0,
    CAST((h2 // 99000) % 99000 AS DOUBLE) AS y0,
    (4 + (hv % 24) + ((hv // 24) % 8) / 8.0)
      + (((h2 // 9801000000) % 3) - 1) / 8.0 AS w,
    (5 + ((hv // 192) % 30) + ((hv // 1536) % 8) / 8.0)
      + ((((h2 // 9801000000) // 3) % 3) - 1) / 8.0 AS l
  FROM hc
  WHERE (((h2 // 9801000000) // 27) % 100) < 85
), p AS (
  SELECT a.k, a.x0 AS ax0, a.y0 AS ay0, a.w AS aw, a.l AS al,
         a.x0 + a.w AS ax1, a.y0 + a.l AS ay1,
         a.x0 + a.w / 2 AS acx, a.y0 + a.l / 2 AS acy,
         b.x0 AS bx0, b.y0 AS by0, b.w AS bw, b.l AS bl,
         b.x0 + b.w AS bx1, b.y0 + b.l AS by1,
         b.x0 + b.w / 2 AS bcx, b.y0 + b.l / 2 AS bcy
  FROM a JOIN b USING (k)
), corner AS (
  SELECT k, ax0 AS px, ay0 AS py, bx0 AS rx0, by0 AS ry0,
         bx1 AS rx1, by1 AS ry1 FROM p
  UNION ALL SELECT k, ax1, ay0, bx0, by0, bx1, by1 FROM p
  UNION ALL SELECT k, ax0, ay1, bx0, by0, bx1, by1 FROM p
  UNION ALL SELECT k, ax1, ay1, bx0, by0, bx1, by1 FROM p
  UNION ALL SELECT k, bx0, by0, ax0, ay0, ax1, ay1 FROM p
  UNION ALL SELECT k, bx1, by0, ax0, ay0, ax1, ay1 FROM p
  UNION ALL SELECT k, bx0, by1, ax0, ay0, ax1, ay1 FROM p
  UNION ALL SELECT k, bx1, by1, ax0, ay0, ax1, ay1 FROM p
), hd AS (
  SELECT k, max(sqrt(
      GREATEST(rx0 - px, px - rx1, 0) * GREATEST(rx0 - px, px - rx1, 0)
    + GREATEST(ry0 - py, py - ry1, 0) * GREATEST(ry0 - py, py - ry1, 0)
  )) AS hausdorff
  FROM corner GROUP BY k
)
SELECT CAST(p.k AS VARCHAR) AS doc_id,
  sqrt((acx - bcx) * (acx - bcx) + (acy - bcy) * (acy - bcy))
    AS centroid_dist,
  GREATEST(LEAST(ax1, bx1) - GREATEST(ax0, bx0), 0)
    * GREATEST(LEAST(ay1, by1) - GREATEST(ay0, by0), 0)
  / (aw * al + bw * bl
     - GREATEST(LEAST(ax1, bx1) - GREATEST(ax0, bx0), 0)
       * GREATEST(LEAST(ay1, by1) - GREATEST(ay0, by0), 0)) AS bbox_iou,
  hd.hausdorff
FROM p JOIN hd ON hd.k = p.k
"""


# Temperature-scaled mixture sampling (engine/text.py mixture_sample, tau=2,
# seed 1): per-language keep rate sqrt(n/n_max) — one division + one sqrt —
# thresholded at floor(rate * 2^40) against md5_number_upper membership.
MIXTURE_SAMPLE = """
WITH c AS (
  SELECT lang, count(*) AS n FROM documents GROUP BY lang
), m AS (
  SELECT max(n) AS n_max FROM c
), thr AS (
  SELECT lang,
         CAST(floor(sqrt(CAST(n AS DOUBLE) / (SELECT n_max FROM m))
                    * 1099511627776) AS BIGINT) AS cut
  FROM c
)
SELECT d.doc_id, d.lang, d.source, d.n_chars
FROM documents d JOIN thr USING (lang)
WHERE md5_number_upper('mix|1|' || d.doc_id) % 1099511627776 < thr.cut
"""


# Per-tile zonal statistics (engine/spatial.py tile_stats, res 11 / 64 m):
# object count, total and mean footprint area per covered tile.  Areas are
# dyadic (exact f64) so the sums are order-independent; the mean is one
# IEEE division.
TILE_STATS = _DIMS_ALL + """
, cx AS (
  -- full ix x iy range cover: matches the engine's _batch_cover at ANY
  -- res / footprint size (the old 4-corner UNION agreed only because no
  -- footprint spans 3+ cells of a 64 m tile on this corpus)
  SELECT k, y0, l,
         unnest(generate_series(CAST(floor(x0 / 64) AS BIGINT),
                                CAST(floor((x0 + w) / 64) AS BIGINT))) AS ix
  FROM d
), c AS (
  SELECT k, ix,
         unnest(generate_series(CAST(floor(y0 / 64) AS BIGINT),
                                CAST(floor((y0 + l) / 64) AS BIGINT))) AS iy
  FROM cx
)
SELECT (CAST(11 AS BIGINT) << 52) | (c.ix << 26) | c.iy AS cell,
       count(*) AS n_objects,
       SUM(d.w * d.l) AS footprint_area,
       SUM(d.w * d.l) / count(*) AS mean_area
FROM c JOIN d USING (k)
GROUP BY c.ix, c.iy
"""


# Spatial range self-join (engine/spatial.py range_join, gap d = 8 m):
# all cand pairs whose footprint rectangles are within euclidean distance d
# (closed-form rectangle distance: clamped per-axis gaps, one sqrt); the
# query uses d = 2000 m, sized to the sparse uniform test world.
GEO_RANGE_JOIN = _DIMS_ALL + """
, r AS (
  SELECT k, x0, y0, x0 + w AS x1, y0 + l AS y1 FROM d
)
SELECT a.k AS a_id, b.k AS b_id,
  sqrt(GREATEST(b.x0 - a.x1, a.x0 - b.x1, 0)
         * GREATEST(b.x0 - a.x1, a.x0 - b.x1, 0)
       + GREATEST(b.y0 - a.y1, a.y0 - b.y1, 0)
         * GREATEST(b.y0 - a.y1, a.y0 - b.y1, 0)) AS dist
FROM r a JOIN r b ON a.k < b.k
WHERE sqrt(GREATEST(b.x0 - a.x1, a.x0 - b.x1, 0)
             * GREATEST(b.x0 - a.x1, a.x0 - b.x1, 0)
           + GREATEST(b.y0 - a.y1, a.y0 - b.y1, 0)
             * GREATEST(b.y0 - a.y1, a.y0 - b.y1, 0)) <= 2000.0
"""


# Unigram LM-cost quality filter (engine/text.py lm_quality): per-token
# dyadic code length k = min(16, ceil(log2(T / c))) computed by integer
# bit_length arithmetic (printf('%b')), per-doc bit sums, one exact
# bits-per-token division, integer cross-multiplied keep at 9 bits/token.
LM_QUALITY = """
WITH e AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
), u AS (
  SELECT tok, count(*) AS n FROM e GROUP BY tok
), t AS (
  SELECT CAST(sum(n) AS BIGINT) AS T FROM u
), k AS (
  SELECT tok,
         LEAST(16, CASE
           WHEN ((SELECT T FROM t) + n - 1) // n - 1 = 0 THEN 0
           ELSE length(printf('%b',
                CAST(((SELECT T FROM t) + n - 1) // n - 1 AS BIGINT)))
         END) AS cost
  FROM u
), d AS (
  SELECT e.doc_id, CAST(sum(k.cost) AS BIGINT) AS bits,
         count(*) AS n_tokens
  FROM e JOIN k USING (tok) GROUP BY e.doc_id
)
SELECT doc_id, n_tokens, bits,
       CAST(bits AS DOUBLE) / n_tokens AS bits_per_token,
       bits * 1 <= 9 * n_tokens AS keep
FROM d
"""


# Gap-based sessionization (engine/relational.py events_sessions, 30 min):
# new session at the first event per user or a strict > 30-minute gap in
# (ts, event_id) order; all output columns are integers.
EVENTS_SESSIONS = """
WITH s AS (
  SELECT user_id, event_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), t AS (
  SELECT user_id, event_id, ts,
         CAST(SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT)
           AS session_id
  FROM s
)
SELECT user_id, event_id, session_id,
       CAST(count(*) OVER (PARTITION BY user_id, session_id) AS BIGINT)
         AS session_size
FROM t
"""

# KMV distinct-shingle sketch (engine/text.py approx_distinct_kmv): the k-th
# smallest distinct md5-low-8 shingle hash and the (k-1)*2^64/h_k estimate.
# The estimate is one UBIGINT->DOUBLE rounding + one IEEE division on both
# sides; 4703919738795935662080.0 == (256-1) * 2^64 exactly (< 2^73, 8-bit
# mantissa), so the literal parses to the identical double.
APPROX_DISTINCT = """
WITH t AS (SELECT string_split(text, ' ') AS toks FROM documents),
g AS (SELECT toks, unnest(generate_series(1, len(toks) - 2)) AS i
      FROM t WHERE len(toks) >= 3),
s AS (SELECT DISTINCT toks[i] || ' ' || toks[i + 1] || ' ' || toks[i + 2] AS sh
      FROM g),
h AS (SELECT md5_number_upper(sh) AS h FROM s),
ord AS (SELECT h, row_number() OVER (ORDER BY h) AS r FROM h),
c AS (SELECT COUNT(*) AS nd FROM h)
SELECT CAST(256 AS BIGINT) AS k,
       CAST(LEAST(nd, 256) AS BIGINT) AS n_sketch,
       CAST(COALESCE((SELECT h FROM ord WHERE r = LEAST(nd, 256)), 0)
            AS UBIGINT) AS kth_hash,
       CASE WHEN nd >= 256
            THEN 4703919738795935662080.0 /
                 CAST((SELECT h FROM ord WHERE r = 256) AS DOUBLE)
            ELSE CAST(nd AS DOUBLE) END AS est_distinct
FROM c
"""

# Multi-resolution cell rollup (engine/spatial.py cell_hierarchy): the res-11
# bbox cover rolled up to res-8 ancestors (parent = pure bit arithmetic on
# the packed id; ix >> 3 == ix // 8 for the non-negative world).  All-integer.
GEO_CELL_HIERARCHY = _DIMS_ALL + """
, cx AS (
  SELECT k, y0, l,
         unnest(generate_series(CAST(floor(x0 / 64) AS BIGINT),
                                CAST(floor((x0 + w) / 64) AS BIGINT))) AS ix
  FROM d
), c AS (
  SELECT k, ix,
         unnest(generate_series(CAST(floor(y0 / 64) AS BIGINT),
                                CAST(floor((y0 + l) / 64) AS BIGINT))) AS iy
  FROM cx
), pc AS (
  SELECT (CAST(11 AS BIGINT) << 52) | (ix << 26) | iy AS cell,
         (CAST(8 AS BIGINT) << 52) | ((ix // 8) << 26) | (iy // 8)
           AS parent_cell
  FROM c
), d2 AS (
  SELECT parent_cell, cell, COUNT(*) AS n FROM pc GROUP BY parent_cell, cell
)
SELECT parent_cell,
       CAST(COUNT(*) AS BIGINT) AS n_cells,
       CAST(SUM(n) AS BIGINT) AS n_assignments
FROM d2 GROUP BY parent_cell
"""


# PII scrub (engine/text.py pii_scrub over planted_pii_corpus): DuckDB and
# pyarrow.compute share the RE2 engine, so per-class match counts and the
# post-redaction length replicate exactly; the planted tokens are a pure
# function of doc_id.
_PII_EMAIL = "[a-z0-9._]+@[a-z0-9.-]+\\.[a-z][a-z]+"
_PII_PHONE = "\\+1-555-[0-9][0-9][0-9][0-9]"
_PII_IP = "10\\.[0-9]+\\.[0-9]+\\.7"

TEXT_PII_SCRUB = f"""
WITH pii AS (
  SELECT doc_id,
    CASE doc_id % 9
      WHEN 0 THEN text || ' contact user' || doc_id || '@example.com now'
      WHEN 3 THEN text || ' call +1-555-' ||
                  lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') || ' today'
      WHEN 6 THEN text || ' host 10.' || (doc_id % 256) || '.' ||
                  ((doc_id // 256) % 256) || '.7 up'
      ELSE text END AS text
  FROM documents
)
SELECT doc_id,
  CAST(len(regexp_extract_all(text, '{_PII_EMAIL}')) AS BIGINT) AS n_emails,
  CAST(len(regexp_extract_all(text, '{_PII_PHONE}')) AS BIGINT) AS n_phones,
  CAST(len(regexp_extract_all(text, '{_PII_IP}')) AS BIGINT) AS n_ips,
  CAST(length(regexp_replace(regexp_replace(regexp_replace(text,
       '{_PII_EMAIL}', '<EMAIL>', 'g'),
       '{_PII_PHONE}', '<PHONE>', 'g'),
       '{_PII_IP}', '<IP>', 'g')) AS BIGINT) AS n_chars_redacted,
  (len(regexp_extract_all(text, '{_PII_EMAIL}'))
   + len(regexp_extract_all(text, '{_PII_PHONE}'))
   + len(regexp_extract_all(text, '{_PII_IP}'))) > 0 AS has_pii
FROM pii
"""


# BPE merge-pair counts (engine/text.py merge_pair_counts, k=50): global
# adjacent-token pair counts, top-k under the total order
# (count desc, left asc, right asc) so boundary ties are deterministic.
VOCAB_MERGE_PAIRS = """
WITH t AS (
  SELECT string_split(text, ' ') AS toks FROM documents
), p AS (
  SELECT toks[i] AS left_tok, toks[i + 1] AS right_tok
  FROM (SELECT toks, unnest(generate_series(1, len(toks) - 1)) AS i FROM t)
)
SELECT left_tok, right_tok, CAST(count(*) AS BIGINT) AS cnt
FROM p GROUP BY left_tok, right_tok
ORDER BY cnt DESC, left_tok, right_tok LIMIT 50
"""

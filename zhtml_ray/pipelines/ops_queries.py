"""Driver-contract queries for the training-data operators (dedup,
similarity, text analysis, multimodal, event windows) over the
driver-provided tables (documents / embeddings / events)."""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from zhtml_ray.stages.util import stateless_stage


def _docs(sf_dir, columns=None):
    import ray.data as rd
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _emb(sf_dir):
    import ray.data as rd
    return rd.read_parquet(f"{sf_dir}/embeddings.parquet")


# ----------------------------------------------------------- text analysis

def q_token_count(sf_dir: str):
    from zhtml_ray.functions.textstats import token_count_batch
    ds = _docs(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(token_count_batch, batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_tokens"])


# Python str.split()/str.isspace() whitespace as an explicit RE2 class:
# RE2's \s is ASCII-only, while the engine splits on the full Unicode
# set (VT, FS-US, NEL, NBSP, ogham/en-quad…ideographic space). Single
# source of truth lives next to the Arrow kernels.
from zhtml_ray.functions.textstats import PY_WS_RE2_IN as _WS_IN

_WS = "[" + _WS_IN + "]"
_NOT_WS = "[^" + _WS_IN + "]"

SQL_TOKEN_COUNT = f"""
-- regexp trim, not trim(): SQL trim() strips ASCII spaces only while the
-- engine's str.split() treats the full Unicode whitespace set as spaces
SELECT doc_id,
       CASE WHEN wtext = '' THEN 0
            ELSE len(regexp_split_to_array(wtext, '{_WS}+')) END
           ::BIGINT AS n_tokens
FROM (SELECT doc_id,
             regexp_replace(text, '^{_WS}+|{_WS}+$', '', 'g') AS wtext
      FROM documents)
"""


def _sql_bpe_token_count() -> str:
    # the engine's pre-tokenizer uses Python \s (Unicode); RE2 \s is
    # ASCII-only, so the explicit class keeps whitespace-run grouping
    # and the isspace() token filter aligned
    # coalesce: the engine maps NULL text to 0 tokens; NULL must not
    # propagate through the regexp into a NULL count
    return f"""
SELECT doc_id,
       len(list_filter(
           regexp_extract_all(coalesce(text, ''),
             '''s|''t|''re|''ve|''m|''ll|''d| ?[A-Za-zÀ-ɏ]+| ?[0-9]+| ?[^{_WS_IN}A-Za-z0-9À-ɏ]+|{_WS}+'),
           x -> NOT regexp_matches(x, '^{_WS}+$')))::BIGINT AS n_bpe_tokens
FROM documents
"""


def _sql_quality() -> str:
    """DuckDB replication of QualityScore (verified bit-exact vs the
    numpy kernel: same IEEE op order, \\p{L}/\\p{Nd} == str.isalpha/
    isdigit on the fixture corpus)."""
    from zhtml_ray.functions.textstats import _STOPWORDS

    def lst(lang):
        return "[" + ",".join("'" + w + "'" for w in sorted(_STOPWORDS[lang])) + "]"

    # NOTE: the engine uses Python str.split()/str.isspace() — full
    # Unicode whitespace, replicated by the explicit _WS class (RE2 \s
    # is ASCII-only)
    # innermost coalesce: engine emits all-zero rows for NULL text
    return f"""
WITH src AS (
  SELECT doc_id, coalesce(text, '') AS text, lang FROM documents
), base AS (
  SELECT doc_id, text, lang,
         regexp_replace(text, '^{_WS}+|{_WS}+$', '', 'g') AS wtext,
         length(text) AS L,
         length(regexp_replace(text, '[^\\p{{L}}]', '', 'g')) AS n_alpha,
         length(regexp_replace(text, '[^\\p{{Nd}}]', '', 'g')) AS n_digit,
         length(regexp_replace(text, '{_NOT_WS}', '', 'g')) AS n_space
  FROM src
), base2 AS (
  SELECT *, CASE WHEN wtext = '' THEN []::VARCHAR[]
                 ELSE regexp_split_to_array(wtext, '{_WS}+') END AS words
  FROM base
), w AS (
  SELECT *, len(words)::BIGINT AS n_words,
         CASE WHEN len(words) > 0
              THEN list_sum(list_transform(words, x -> length(x)))::DOUBLE / len(words)
              ELSE 0.0 END AS mean_wlen,
         CASE WHEN L > 0 THEN (L - n_alpha - n_digit - n_space)::DOUBLE / L ELSE 0.0 END AS punct_ratio,
         list_transform(words, x -> lower(trim(x, '.,;:!?"''()'))) AS lw,
         CASE lang WHEN 'es' THEN {lst('es')}
                   WHEN 'de' THEN {lst('de')}
                   WHEN 'fr' THEN {lst('fr')}
                   ELSE {lst('en')} END AS stops
  FROM base2
), r AS (
  SELECT doc_id, n_words, mean_wlen, punct_ratio,
         CASE WHEN len(lw) > 0
              THEN len(list_filter(lw, x -> list_contains(stops, x)))::DOUBLE / len(lw)
              ELSE 0.0 END AS stopword_ratio
  FROM w
)
SELECT doc_id, n_words, punct_ratio, stopword_ratio,
       CASE WHEN n_words = 0 THEN 0.0 ELSE
         0.35 * least(greatest(n_words / 50.0, 0), 1)
       + 0.2 * (1.0 - least(greatest(abs(mean_wlen - 5.0) / 5.0, 0), 1))
       + 0.2 * (1.0 - least(greatest(punct_ratio / 0.3, 0), 1))
       + 0.25 * least(greatest(stopword_ratio / 0.2, 0), 1) END AS quality_score
FROM r
"""


def q_quality(sf_dir: str):
    from zhtml_ray.functions.textstats import QualityScore
    ds = _docs(sf_dir, ["doc_id", "text", "lang"])
    out = ds.map_batches(QualityScore(), batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_words", "quality_score",
                               "stopword_ratio", "punct_ratio"])


def q_gopher_rules(sf_dir: str):
    """Gopher-style quality/repetition filter (Rae et al. 2021 §A1.1)
    over the documents table: per-doc word/char counts, "stopword"
    hits, duplicate-bigram and top-word-mass repetition signals, and
    the combined keep flag. Every signal is INTEGER-exact and every
    threshold an integer cross-multiply, so the oracle comparison is
    bit-exact — no float pins needed. Pure map, zero shuffles."""
    from zhtml_ray.functions.textstats import GopherStats
    ds = _docs(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(GopherStats(), batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_words", "n_chars",
                               "stop_hits", "n_bigrams", "dup_bigrams",
                               "top_word_mass", "keep"])


def q_dsir_select(sf_dir: str, target_lang: str = "en",
                  buckets: int = 4096):
    """DSIR-style data selection (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling") with integer-exact
    scoring: hashed word-unigram counts form a target model (docs with
    ``lang == target_lang``) and a raw model (all docs); a doc is
    picked when its mean target-bucket mass beats its mean raw-bucket
    mass by cross-multiplication —
        t_mass * N_raw > r_mass * N_target
    — so engine and oracle agree bit-for-bit with no log-ratio floats.
    The hash is md5-hex-prefix mod ``buckets`` (byte-identical in
    Python and DuckDB, verified).

    Shape: pass 1 bincounts buckets per block (dense partials, sparse
    rows out) → one bounded groupby on ≤ ``buckets`` keys → the two
    count vectors broadcast once via ``ray.put``; pass 2 is a pure map
    scoring each doc against the broadcast arrays. At 10^14-gram scale
    the int64 cross-multiply would overflow — rescale the models
    (divide both vectors by a common factor) or widen to object-store
    HUGEINT partials; the fixture magnitudes stay ≪ 2^63."""
    import hashlib

    import numpy as np
    import pyarrow as pa
    import ray
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.util import drop_empty_blocks

    ds = _docs(sf_dir, ["doc_id", "text", "lang"])
    _cache: dict[str, int] = {}

    def bucket_of(w: str) -> int:
        b = _cache.get(w)
        if b is None:
            b = int(hashlib.md5(w.encode()).hexdigest()[:8], 16) % buckets
            _cache[w] = b
        return b

    from zhtml_ray.functions.textstats import _GOPHER_WORD_RE

    def count_partial(batch: pa.Table) -> pa.Table:
        t_cnt = np.zeros(buckets, np.int64)
        r_cnt = np.zeros(buckets, np.int64)
        langs = batch["lang"].to_pylist()
        for s, lg in zip(batch["text"].to_pylist(), langs):
            is_t = lg == target_lang
            for w in _GOPHER_WORD_RE.findall(s or ""):
                b = bucket_of(w)
                r_cnt[b] += 1
                if is_t:
                    t_cnt[b] += 1
        nz = np.flatnonzero(r_cnt)
        return pa.table({"b": pa.array(nz, pa.int64()),
                         "t": pa.array(t_cnt[nz]),
                         "r": pa.array(r_cnt[nz])})

    model = drop_empty_blocks(
        ds.map_batches(count_partial, batch_format="pyarrow")) \
        .groupby("b").aggregate(Sum("t", alias_name="t"),
                                Sum("r", alias_name="r")) \
        .to_pandas()
    ct = np.zeros(buckets, np.int64)
    cr = np.zeros(buckets, np.int64)
    if len(model):
        ct[model["b"].to_numpy()] = model["t"].to_numpy()
        cr[model["b"].to_numpy()] = model["r"].to_numpy()
    nt, nr = int(ct.sum()), int(cr.sum())
    model_ref = ray.put((ct, cr))

    def score(batch: pa.Table) -> pa.Table:
        ct_, cr_ = ray.get(model_ref)
        n = batch.num_rows
        t_mass = np.zeros(n, np.int64)
        r_mass = np.zeros(n, np.int64)
        for i, s in enumerate(batch["text"].to_pylist()):
            bs = np.fromiter(
                (bucket_of(w)
                 for w in _GOPHER_WORD_RE.findall(s or "")), np.int64)
            if len(bs):
                t_mass[i] = ct_[bs].sum()
                r_mass[i] = cr_[bs].sum()
        # int64 cross-multiply guard: past ~2^62 the numpy product
        # would wrap silently and flip picks — fail loudly instead
        # (r4 advisor; r5: a real raise, not an assert that `python
        # -O` strips); if this ever trips, switch to the object-dtype
        # Python-int compare.
        max_t = int(t_mass.max()) if n else 0
        max_r = int(r_mass.max()) if n else 0
        if max_t * nr >= 2 ** 62 or max_r * nt >= 2 ** 62:
            raise ValueError(
                "dsir_select mass×total cross-multiply would overflow "
                f"int64 (max_t={max_t}, nr={nr}, max_r={max_r}, "
                f"nt={nt}); recompute with Python-int per-row "
                "comparison")
        pick = t_mass * nr > r_mass * nt
        return pa.table({"doc_id": batch["doc_id"],
                         "t_mass": pa.array(t_mass),
                         "r_mass": pa.array(r_mass),
                         "pick": pa.array(pick)})

    return ds.map_batches(score, batch_format="pyarrow")


def _sql_dsir_select(target_lang: str = "en", buckets: int = 4096) -> str:
    return f"""
WITH h AS (
  SELECT doc_id, lang,
         CAST(CAST('0x' || substr(md5(g), 1, 8) AS UBIGINT)
              % {buckets} AS BIGINT) AS b
  FROM (SELECT doc_id, lang, unnest(regexp_extract_all(text, '\\S+')) AS g
        FROM documents)
), m AS (
  SELECT b, count(*) FILTER (lang = '{target_lang}')::BIGINT AS ct,
         count(*)::BIGINT AS cr
  FROM h GROUP BY b
), tot AS (SELECT sum(ct)::BIGINT AS nt, sum(cr)::BIGINT AS nr FROM m),
doc AS (
  SELECT doc_id, sum(m.ct)::BIGINT AS t_mass, sum(m.cr)::BIGINT AS r_mass
  FROM h JOIN m USING (b) GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(doc.t_mass, 0) AS t_mass,
       COALESCE(doc.r_mass, 0) AS r_mass,
       (COALESCE(doc.t_mass, 0) * (SELECT nr FROM tot)
        > COALESCE(doc.r_mass, 0) * (SELECT nt FROM tot)) AS pick
FROM documents d LEFT JOIN doc USING (doc_id)
"""


_C4_WORD_RE = None


def _c4_batch(batch, min_words: int = 5, min_kept: int = 3):
    """C4-style line filter (Raffel et al. 2020 §2.2) over extracted
    page text: keep lines with >= ``min_words`` words that end in
    terminal punctuation; a page survives if >= ``min_kept`` lines
    survive and the raw text has no '{' and no 'lorem ipsum'.
    Word = ASCII-whitespace-delimited run on BOTH sides (Python here,
    RE2 in the oracle — \\S differs between the engines on U+00A0,
    which the entity-decoding extractor CAN emit, so the shared class
    is explicit)."""
    import re

    import numpy as np
    import pyarrow as pa
    global _C4_WORD_RE
    if _C4_WORD_RE is None:
        _C4_WORD_RE = re.compile(r"[^ \t\r\n]+")
    texts = batch["extracted_text"].to_pylist()
    n = len(texts)
    n_lines = np.zeros(n, np.int64)
    n_kept = np.zeros(n, np.int64)
    clean = []
    keep = np.zeros(n, bool)
    term = ('.', '!', '?', '"')
    for i, s in enumerate(texts):
        s = s or ""
        lines = [ln.strip(" \t\r") for ln in s.split("\n")]
        lines = [ln for ln in lines if ln]
        kept = [ln for ln in lines
                if ln[-1] in term
                and len(_C4_WORD_RE.findall(ln)) >= min_words]
        n_lines[i] = len(lines)
        n_kept[i] = len(kept)
        clean.append("\n".join(kept))
        keep[i] = (len(kept) >= min_kept and "{" not in s
                   and "lorem ipsum" not in s.lower())
    return pa.table({
        "url": batch["url"],
        "n_lines": pa.array(n_lines),
        "n_kept": pa.array(n_kept),
        "clean_text": pa.array(clean, pa.string()),
        "keep": pa.array(keep)})


def q_c4_clean(sf_dir: str):
    """C4 cleaning pipeline: pages → parse+extract → per-line filter,
    fused as two map stages (zero shuffles; the extract stage is
    ``run_extract`` over the one planned pages read,
    ``sources/pages.read_pages``). Oracled ALGORITHM-INDEPENDENTLY:
    the SQL side re-implements the line rules in DuckDB list lambdas
    over the pinned extract golden, so only the extractor itself rests
    on the pinned-serial invariant — the C4 stage is cross-checked by
    a second engine."""
    from zhtml_ray.pipelines.extract import run_extract
    from zhtml_ray.pipelines.golden import ensure_golden

    ds = run_extract(sf_dir, include_spans=False)
    out = ds.map_batches(_c4_batch, batch_format="pyarrow")
    ensure_golden("extract", sf_dir)
    return out


def _sql_c4_clean() -> str:
    from zhtml_ray.pipelines.golden import _current_dir
    return f"""
WITH L AS (
  SELECT url, extracted_text,
         list_filter(list_transform(string_split(extracted_text, chr(10)),
                                    x -> trim(x, ' ' || chr(9) || chr(13))),
                     x -> x <> '') AS lines
  FROM read_parquet('{_current_dir()}/extract.parquet')
), K AS (
  SELECT url, extracted_text, lines,
         list_filter(lines,
                     x -> list_contains(['.', '!', '?', '"'],
                                        substr(x, length(x), 1))
                          AND len(regexp_extract_all(x, '[^ \\t\\r\\n]+')) >= 5)
             AS kept
  FROM L
)
SELECT url, len(lines)::BIGINT AS n_lines, len(kept)::BIGINT AS n_kept,
       array_to_string(kept, chr(10)) AS clean_text,
       (len(kept) >= 3 AND NOT contains(extracted_text, '{{')
        AND NOT contains(lower(extracted_text), 'lorem ipsum')) AS keep
FROM K
"""


def q_dedup_cluster_sizes(sf_dir: str):
    """Near-dup audit report: histogram of MinHash cluster sizes
    (cluster_size → number of clusters) — the first number anyone asks
    of a dedup run ("how much is duplicated, in what clump sizes?").
    Derived distributively from the full minhash_dedup output: ONE
    ``sorted_sum_per_group`` over cluster ids, then a per-batch
    value-counts partial into a ≤ |distinct sizes| final groupby.
    Oracled over the INDEPENDENT serial union-find golden — the
    distributed histogram must match the histogram of a clustering
    computed by a different algorithm."""
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from zhtml_ray.functions.dedup import minhash_dedup
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.sortagg import sorted_sum_per_group
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    ds = _docs(sf_dir, ["doc_id", "text"])
    ensure_golden("minhash_dedup", sf_dir)
    out = minhash_dedup(ds, key="doc_id", col="text")

    def one_per_member(b: pa.Table) -> pa.Table:
        g = pa.table({"cluster": b["cluster"]}) \
            .group_by("cluster").aggregate([("cluster", "count")])
        return g.rename_columns(["cluster", "n"])

    per_cluster = compact_blocks(sorted_sum_per_group(
        drop_empty_blocks(out.map_batches(one_per_member,
                                          batch_format="pyarrow")),
        ["cluster"], ["n"]))

    def hist_partial(b: pa.Table) -> pa.Table:
        g = pa.table({"cluster_size": b["n"]}) \
            .group_by("cluster_size") \
            .aggregate([("cluster_size", "count")])
        return g.rename_columns(["cluster_size", "pc"])

    hist = drop_empty_blocks(
        per_cluster.map_batches(hist_partial, batch_format="pyarrow")) \
        .groupby("cluster_size") \
        .aggregate(Sum("pc", alias_name="n_clusters"))
    pdf = hist.to_pandas()
    return pdf[["cluster_size", "n_clusters"]] \
        .sort_values("cluster_size").reset_index(drop=True)


def _sql_dedup_cluster_sizes() -> str:
    from zhtml_ray.pipelines.golden import _current_dir
    return f"""
SELECT cluster_size, count(*)::BIGINT AS n_clusters
FROM (SELECT cluster, count(*)::BIGINT AS cluster_size
      FROM read_parquet('{_current_dir()}/minhash_dedup.parquet')
      GROUP BY cluster)
GROUP BY cluster_size ORDER BY cluster_size
"""


def q_dedup_rate_by_source(sf_dir: str):
    """Curation breakdown: per-source near-duplicate rate (how much of
    each source's contribution is redundant — the number that decides
    which feeds get throttled). The full MinHash clustering joins the
    doc→source map by ONE range shuffle (``sorted_lookup_join`` on
    doc_id); per-source (n_docs, n_dups) fold map-side into a
    ≤ |sources| groupby. Integer counts — exact oracle over the
    INDEPENDENT serial union-find golden joined to the documents
    view."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from zhtml_ray.functions.dedup import minhash_dedup
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    ds = _docs(sf_dir, ["doc_id", "text"])
    ensure_golden("minhash_dedup", sf_dir)
    out = minhash_dedup(ds, key="doc_id", col="text") \
        .select_columns(["doc_id", "is_dup"])

    src = _docs(sf_dir, ["doc_id", "source"])
    joined = compact_blocks(sorted_lookup_join(
        out, src, "doc_id", ["source"], how="inner"))

    def partial(b: pa.Table) -> pa.Table:
        g = pa.table({"source": b["source"],
                      "d": pc.cast(b["is_dup"], pa.int64()),
                      "n": pa.array([1] * b.num_rows, pa.int64())}) \
            .group_by("source").aggregate([("d", "sum"), ("n", "sum")])
        return g.rename_columns(["source", "pd", "pn"])

    agg = drop_empty_blocks(
        joined.map_batches(partial, batch_format="pyarrow")) \
        .groupby("source").aggregate(Sum("pn", alias_name="n_docs"),
                                     Sum("pd", alias_name="n_dups"))
    pdf = agg.to_pandas()
    return pdf[["source", "n_docs", "n_dups"]] \
        .sort_values("source").reset_index(drop=True)


def _sql_dedup_rate_by_source() -> str:
    from zhtml_ray.pipelines.golden import _current_dir
    return f"""
SELECT d.source, count(*)::BIGINT AS n_docs,
       sum(CASE WHEN g.is_dup THEN 1 ELSE 0 END)::BIGINT AS n_dups
FROM read_parquet('{_current_dir()}/minhash_dedup.parquet') g
JOIN documents d USING (doc_id)
GROUP BY d.source ORDER BY d.source
"""


def q_word_dropout(sf_dir: str, rate_inv: int = 10):
    """Deterministic word-dropout augmentation: word at (1-based)
    position i of doc d drops iff md5(f"{d}:{i}") mod ``rate_inv``
    == 0 — reproducible across runs, machines and partitionings (the
    augmentation an LLM training pipeline can re-derive instead of
    storing), and exactly replicable in SQL via DuckDB's positional
    list lambdas + the same md5-hex-prefix hash. Pure map."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    ds = _docs(sf_dir, ["doc_id", "text"])

    def augment(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        n_words = np.zeros(len(ids), np.int64)
        n_dropped = np.zeros(len(ids), np.int64)
        out = []
        from zhtml_ray.functions.textstats import _GOPHER_WORD_RE
        for j, (d, s) in enumerate(zip(ids, texts)):
            ws = _GOPHER_WORD_RE.findall(s or "")
            kept = [w for i, w in enumerate(ws, start=1)
                    if int(hashlib.md5(f"{d}:{i}".encode())
                           .hexdigest()[:8], 16) % rate_inv != 0]
            n_words[j] = len(ws)
            n_dropped[j] = len(ws) - len(kept)
            out.append(" ".join(kept))
        return pa.table({"doc_id": batch["doc_id"],
                         "n_words": pa.array(n_words),
                         "n_dropped": pa.array(n_dropped),
                         "aug_text": pa.array(out, pa.string())})

    return ds.map_batches(augment, batch_format="pyarrow")


def _sql_word_dropout(rate_inv: int = 10) -> str:
    return f"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws FROM documents
), d AS (
  SELECT doc_id, ws,
         list_filter(ws, (x, i) ->
             CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':'
                                     || CAST(i AS VARCHAR)), 1, 8)
                  AS UBIGINT) % {rate_inv} <> 0) AS kept
  FROM w
)
SELECT doc_id, len(ws)::BIGINT AS n_words,
       (len(ws) - len(kept))::BIGINT AS n_dropped,
       array_to_string(kept, ' ') AS aug_text
FROM d
"""


def q_events_anomaly(sf_dir: str, z_cut: float = 2.5):
    """Per-user value-anomaly detection (the monitoring/abuse sweep):
    each event's z-score against ITS user's value distribution, flagged
    at z > ``z_cut``. The X73/X105 pinned-moment rule: per-user (n,
    Σv, Σv²) fold via ONE ``sorted_sum_per_group``, moments pinned at
    1e-3 (the PCA lesson — a 1e-6 pin across thousands of moments has
    real boundary-flip odds), μ/σ derived with the IDENTICAL
    expression on both engines, z pinned at 1e-6 (derived from
    identical doubles — cannot flip). Stats re-attach by ONE more
    range shuffle (``sorted_lookup_join``) — never a driver dict, so
    10^9 users cost two shuffles, not memory."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from zhtml_ray.stages.sortagg import (sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "value"])

    def mom_partial(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        u = b["user_id"].to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(u, return_inverse=True)
        return pa.table({
            "user_id": pa.array(uniq),
            "n": pa.array(np.bincount(codes).astype(np.float64)),
            "s1": pa.array(np.bincount(codes, weights=v)),
            "s2": pa.array(np.bincount(codes, weights=v * v))})

    mom = compact_blocks(sorted_sum_per_group(
        drop_empty_blocks(ds.map_batches(mom_partial,
                                         batch_format="pyarrow")),
        ["user_id"], ["n", "s1", "s2"]))

    def derive(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        # Moment pins matched to the DATA grid (r4 exact-hash gate
        # lesson): event values are 2-dp, so s1 sums live on a 0.01
        # grid and s2 (sum of squares) on a 1e-4 grid. Pinning at
        # exactly the grid's decimals puts every floor boundary
        # (k+0.5)·10^-d half a grid step from any achievable sum —
        # the max possible margin. A coarser 0-dp pin put boundaries
        # ON the grid (s1=3421.5 flipped); the old 1e-3 s2 pin
        # collided with the 1e-4 grid the same way.
        s1 = np.floor(b["s1"].to_numpy(zero_copy_only=False)
                      * 1e2 + 0.5) / 1e2
        s2 = np.floor(b["s2"].to_numpy(zero_copy_only=False)
                      * 1e4 + 0.5) / 1e4
        mu = s1 / n
        sd = np.sqrt(np.maximum(s2 / n - mu * mu, 0.0))
        return pa.table({"user_id": b["user_id"],
                         "mu": pa.array(mu), "sd": pa.array(sd)})

    stats = compact_blocks(
        mom.map_batches(derive, batch_format="pyarrow"))
    joined = sorted_lookup_join(ds, stats, "user_id", ["mu", "sd"],
                                how="inner")

    def z_batch(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        mu = b["mu"].to_numpy(zero_copy_only=False)
        sd = b["sd"].to_numpy(zero_copy_only=False)
        z = np.where(sd > 0,
                     np.floor((v - mu) / np.where(sd > 0, sd, 1.0)
                              * 1e6 + 0.5) / 1e6, 0.0)
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "z_r": pa.array(z),
                         "is_anomaly": pa.array(z > z_cut)})

    return joined.map_batches(z_batch, batch_format="pyarrow")


def _sql_events_anomaly(z_cut: float = 2.5) -> str:
    return f"""
WITH m AS (
  SELECT user_id, count(*)::DOUBLE AS n,
         floor(sum(value) * 1e2 + 0.5) / 1e2 AS s1,
         floor(sum(value * value) * 1e4 + 0.5) / 1e4 AS s2
  FROM events GROUP BY user_id
), d AS (
  SELECT user_id, s1 / n AS mu,
         sqrt(greatest(s2 / n - (s1 / n) * (s1 / n), 0.0)) AS sd
  FROM m
)
SELECT e.event_id, e.user_id,
       CASE WHEN d.sd > 0
            THEN floor((e.value - d.mu) / d.sd * 1e6 + 0.5) / 1e6
            ELSE 0.0 END AS z_r,
       (CASE WHEN d.sd > 0
             THEN floor((e.value - d.mu) / d.sd * 1e6 + 0.5) / 1e6
             ELSE 0.0 END) > {z_cut} AS is_anomaly
FROM events e JOIN d USING (user_id)
"""


def q_corpus_overview(sf_dir: str):
    """One-row corpus card: docs, distinct langs/sources, total chars
    and tokens — the sanity sheet printed before any run. Per-batch
    partials carry (counts, char/token sums, per-batch DISTINCT
    lang/source lists) and fold driver-side over ≤ #blocks rows; the
    distinct sets are bounded dimension values (langs, feeds), never
    row-scale. Integer-exact."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.functions.textstats import token_count_batch

    ds = _docs(sf_dir, ["doc_id", "text", "lang", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        counted = token_count_batch(batch)
        return pa.table({
            "n_docs": pa.array([batch.num_rows], pa.int64()),
            "chars": pa.array([int(pc.sum(
                pc.utf8_length(batch["text"])).as_py() or 0)],
                pa.int64()),
            "tokens": pa.array([int(pc.sum(
                counted["n_tokens"]).as_py() or 0)], pa.int64()),
            "langs": pa.array([pc.unique(batch["lang"]).to_pylist()]),
            "sources": pa.array(
                [pc.unique(batch["source"]).to_pylist()])})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    langs = set().union(*parts["langs"])
    sources = set().union(*parts["sources"])
    import pandas as pd
    return pd.DataFrame({
        "n_docs": [int(parts["n_docs"].sum())],
        "n_langs": [len(langs)],
        "n_sources": [len(sources)],
        "total_chars": [int(parts["chars"].sum())],
        "total_tokens": [int(parts["tokens"].sum())]})


def _sql_corpus_overview() -> str:
    return f"""
WITH tc AS ({SQL_TOKEN_COUNT})
SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
       (SELECT count(DISTINCT lang) FROM documents)::BIGINT AS n_langs,
       (SELECT count(DISTINCT source) FROM documents)::BIGINT
           AS n_sources,
       (SELECT sum(len(text)) FROM documents)::BIGINT AS total_chars,
       (SELECT sum(n_tokens) FROM tc)::BIGINT AS total_tokens
"""


def q_tokens_by_split(sf_dir: str, train_pct: int = 80,
                      val_pct: int = 10):
    """Token-budget accounting per train/val/test split — the number a
    training run is provisioned from ("how many tokens do I actually
    have in train?"). Composes the deterministic md5 split
    (X132) with the whitespace token count (shared Unicode class with
    the SQL): one pure-map pass emits per-batch (split, docs, tokens)
    partials into a 3-row groupby. Integer-exact."""
    import hashlib

    import pyarrow as pa
    from ray.data.aggregate import Sum

    from zhtml_ray.functions.textstats import token_count_batch
    from zhtml_ray.stages.util import drop_empty_blocks

    ds = _docs(sf_dir, ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        counted = token_count_batch(batch)
        ids = batch["doc_id"].to_pylist()
        splits = []
        for i in ids:
            b = int(hashlib.md5(str(i).encode()).hexdigest()[:8],
                    16) % 100
            splits.append("train" if b < train_pct
                          else "val" if b < train_pct + val_pct
                          else "test")
        g = pa.table({"split": pa.array(splits, pa.string()),
                      "d": pa.array([1] * len(ids), pa.int64()),
                      "t": counted["n_tokens"]}) \
            .group_by("split").aggregate([("d", "sum"), ("t", "sum")])
        return g.rename_columns(["split", "pd", "pt"])

    agg = drop_empty_blocks(
        ds.map_batches(partial, batch_format="pyarrow")) \
        .groupby("split").aggregate(Sum("pd", alias_name="n_docs"),
                                    Sum("pt", alias_name="n_tokens"))
    pdf = agg.to_pandas()
    return pdf[["split", "n_docs", "n_tokens"]] \
        .sort_values("split").reset_index(drop=True)


def _sql_tokens_by_split(train_pct: int = 80, val_pct: int = 10) -> str:
    return f"""
WITH tc AS ({SQL_TOKEN_COUNT}),
s AS ({_sql_train_val_split(train_pct, val_pct)})
SELECT s.split, count(*)::BIGINT AS n_docs,
       sum(tc.n_tokens)::BIGINT AS n_tokens
FROM s JOIN tc USING (doc_id)
GROUP BY s.split ORDER BY s.split
"""


def q_events_heatmap(sf_dir: str):
    """Ops-analytics heatmap: event counts per (ISO day-of-week,
    hour-of-day) — the load-profile view behind capacity planning and
    crawl politeness budgets. Pure map partials (Arrow temporal
    kernels; Arrow's Monday-0 day_of_week maps to ISO Monday-1 by +1)
    into a ≤ 168-key groupby. Integer-exact."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.util import drop_empty_blocks

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(b: pa.Table) -> pa.Table:
        dow = pc.cast(pc.add(pc.day_of_week(b["ts"]), 1), pa.int64())
        hour = pc.cast(pc.hour(b["ts"]), pa.int64())
        g = pa.table({"dow": dow, "hour": hour,
                      "n": pa.array([1] * b.num_rows, pa.int64())}) \
            .group_by(["dow", "hour"]).aggregate([("n", "sum")])
        return g.rename_columns(["dow", "hour", "pn"])

    agg = drop_empty_blocks(
        ds.map_batches(partial, batch_format="pyarrow")) \
        .groupby(["dow", "hour"]).aggregate(Sum("pn", alias_name="n"))
    pdf = agg.to_pandas()
    return pdf[["dow", "hour", "n"]] \
        .sort_values(["dow", "hour"]).reset_index(drop=True)


SQL_EVENTS_HEATMAP = """
SELECT isodow(ts)::BIGINT AS dow, EXTRACT(hour FROM ts)::BIGINT AS hour,
       count(*)::BIGINT AS n
FROM events GROUP BY dow, hour ORDER BY dow, hour
"""


def q_user_churn(sf_dir: str, etype: str = "purchase",
                 w1_end: str = "2024-01-05", w2_end: str = "2024-01-12"):
    """Period-over-period churn: users with a ``etype`` event before
    ``w1_end`` but none in [w1_end, w2_end). ONE range-sort shuffle:
    per-batch (user, w1_flagsum, w2_flagsum) partials →
    ``sorted_sum_per_group`` → the churn predicate (w1 > 0 AND w2 = 0)
    is a pure map over the summed flags — the set difference never
    builds a set, never anti-joins, never lands on the driver."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from zhtml_ray.stages.sortagg import sorted_sum_per_group
    from zhtml_ray.stages.util import drop_empty_blocks

    t1 = _dt.datetime.fromisoformat(w1_end)
    t2 = _dt.datetime.fromisoformat(w2_end)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type"])

    def flags(b: pa.Table) -> pa.Table:
        t = b.filter(pc.and_(pc.equal(b["event_type"], etype),
                             pc.less(b["ts"], pa.scalar(t2))))
        in_w1 = pc.cast(pc.less(t["ts"], pa.scalar(t1)), pa.int64())
        g = pa.table({"user_id": t["user_id"], "w1": in_w1,
                      "w2": pc.subtract(pa.scalar(1, pa.int64()),
                                        in_w1)}) \
            .group_by("user_id").aggregate([("w1", "sum"),
                                            ("w2", "sum")])
        return g.rename_columns(["user_id", "w1", "w2"])

    summed = sorted_sum_per_group(
        drop_empty_blocks(ds.map_batches(flags, batch_format="pyarrow")),
        ["user_id"], ["w1", "w2"])

    def churned(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater(b["w1"], 0), pc.equal(b["w2"], 0))
        t = b.filter(keep)
        return pa.table({"user_id": t["user_id"],
                         "w1_purchases": t["w1"]})

    return drop_empty_blocks(
        summed.map_batches(churned, batch_format="pyarrow"))


def _sql_user_churn(etype: str = "purchase",
                    w1_end: str = "2024-01-05",
                    w2_end: str = "2024-01-12") -> str:
    return f"""
SELECT user_id,
       sum(CASE WHEN ts < TIMESTAMP '{w1_end}' THEN 1 ELSE 0 END)::BIGINT
           AS w1_purchases
FROM events
WHERE event_type = '{etype}' AND ts < TIMESTAMP '{w2_end}'
GROUP BY user_id
HAVING sum(CASE WHEN ts < TIMESTAMP '{w1_end}' THEN 1 ELSE 0 END) > 0
   AND sum(CASE WHEN ts >= TIMESTAMP '{w1_end}' THEN 1 ELSE 0 END) = 0
"""


def q_train_val_split(sf_dir: str, train_pct: int = 80,
                      val_pct: int = 10):
    """Deterministic train/val/test assignment by content-independent
    hash rank: bucket = md5(doc_id) mod 100, split by cumulative
    percentage thresholds. The standard leakage-safe split for a
    training corpus — stable across runs, machines and partitionings
    (no RNG, no row order), and any new doc joins the same split
    forever. Pure map, zero shuffles; md5-hex parity with DuckDB is
    byte-verified (the dsir_select hash)."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    ds = _docs(sf_dir, ["doc_id", "lang"])

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        buckets = np.fromiter(
            (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100
             for i in ids), np.int64, len(ids))
        split = np.where(buckets < train_pct, "train",
                         np.where(buckets < train_pct + val_pct,
                                  "val", "test"))
        return pa.table({"doc_id": batch["doc_id"],
                         "lang": batch["lang"],
                         "bucket": pa.array(buckets),
                         "split": pa.array(split.tolist(), pa.string())})

    return ds.map_batches(assign, batch_format="pyarrow")


def _sql_train_val_split(train_pct: int = 80, val_pct: int = 10) -> str:
    return f"""
SELECT doc_id, lang,
       CAST(CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
                 AS UBIGINT) % 100 AS BIGINT) AS bucket,
       CASE WHEN CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
                 AS UBIGINT) % 100 < {train_pct} THEN 'train'
            WHEN CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
                 AS UBIGINT) % 100 < {train_pct + val_pct} THEN 'val'
            ELSE 'test' END AS split
FROM documents
"""


# shared thresholds for the page-text Gopher-lite pass (q_web_pipeline
# and the job CLI --clean stage must agree — one source of truth)
_WEB_GOPHER_KW = dict(col="clean_text", min_words=20, max_words=10**9,
                      min_stops=0, dup_mult=5)


def append_clean_columns(batch):
    """Job-CLI --clean post-stage: append (clean_text, n_kept,
    clean_keep) to every extracted row WITHOUT dropping rows — the
    partition manifests keep their rows==inputs lineage invariant and
    the filter decision is recorded per row for downstream dedup/pack
    stages. Same C4 + Gopher-lite semantics as ``q_web_pipeline``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.functions.textstats import GopherStats

    c4 = _c4_batch(batch)
    g = GopherStats(**_WEB_GOPHER_KW)(
        pa.table({"clean_text": c4["clean_text"]}))
    keep = pc.and_(c4["keep"], g["keep"])
    return batch.append_column("clean_text", c4["clean_text"]) \
        .append_column("n_kept", c4["n_kept"]) \
        .append_column("clean_keep", keep)


def q_web_pipeline(sf_dir: str):
    """Flagship composite: the full training-data chain over web pages
    — parse+extract → C4 line filter → Gopher-lite repetition/length
    rules on the cleaned text → exact content dedup (min-url winner
    per md5 digest). All filter stages fuse into the extract map (zero
    added shuffles); the dedup is ONE ``sorted_first_per_group`` range
    shuffle on the digest. Oracled ALGORITHM-INDEPENDENTLY end to end:
    DuckDB re-implements every stage (list lambdas + window dedup)
    over the pinned extract golden, so only the extractor itself rests
    on the pinned-serial invariant."""
    from zhtml_ray.pipelines.golden import ensure_golden
    out = web_pipeline_ds(sf_dir)
    ensure_golden("extract", sf_dir)
    return out


def web_pipeline_ds(sf_dir: str, pages_dir: str | None = None):
    """The web_pipeline computation alone (no oracle-golden side
    effect) — bench.py times this form. Extraction goes through the
    flagship's SKEW-ROUTED read (giant docs isolated by block layout),
    so the composite inherits the mega-doc robustness of the extract
    pipeline; pass ``pages_dir`` to run over an explicit shard set
    (e.g. one containing mega docs)."""
    import pyarrow as pa

    from zhtml_ray.functions.dedup import md5_hex_batch
    from zhtml_ray.functions.textstats import GopherStats
    from zhtml_ray.pipelines.extract import pages_dir_for
    from zhtml_ray.stages.skew import extract_with_skew_routing
    from zhtml_ray.stages.sortagg import sorted_first_per_group
    from zhtml_ray.stages.util import drop_empty_blocks

    ds = extract_with_skew_routing(
        pages_dir if pages_dir is not None else pages_dir_for(sf_dir),
        include_spans=False)
    # dup_mult=5 (<= 20% duplicate bigrams): web prose repeats short
    # collocations far more than the documents fixture's word soup —
    # the 4% default would reject ~95% of real pages here (measured)
    gopher = GopherStats(**_WEB_GOPHER_KW)

    def clean_stage(batch: pa.Table) -> pa.Table:
        c4 = _c4_batch(batch)
        c4 = c4.filter(c4["keep"]).drop_columns(["keep", "n_lines"])
        g = gopher(c4)
        g = g.filter(g["keep"])
        # buffer-slice batch md5: no per-row str materialize/encode
        digests = md5_hex_batch(g["clean_text"])
        return pa.table({"url": g["url"],
                         "digest": digests,
                         "n_kept": g["n_kept"],
                         "n_words": g["n_words"]})

    # compact before the digest sort: clean_stage shrinks each block
    # ~1000× (pages → ~90 B digest rows), so the sort would otherwise
    # pay O(blocks × partitions) on confetti blocks at ANY scale
    from zhtml_ray.stages.util import compact_blocks
    cleaned = compact_blocks(drop_empty_blocks(
        ds.map_batches(clean_stage, batch_format="pyarrow")))
    out = sorted_first_per_group(cleaned, ["digest"], tie_cols=["url"])
    return out.select_columns(["url", "digest", "n_kept", "n_words"])


def _sql_web_pipeline() -> str:
    from zhtml_ray.pipelines.golden import _current_dir
    return f"""
WITH L AS (
  SELECT url, extracted_text,
         list_filter(list_transform(string_split(extracted_text, chr(10)),
                                    x -> trim(x, ' ' || chr(9) || chr(13))),
                     x -> x <> '') AS lines
  FROM read_parquet('{_current_dir()}/extract.parquet')
), K AS (
  SELECT url, extracted_text,
         list_filter(lines,
                     x -> list_contains(['.', '!', '?', '"'],
                                        substr(x, length(x), 1))
                          AND len(regexp_extract_all(x, '[^ \\t\\r\\n]+')) >= 5)
             AS kept
  FROM L
), C AS (
  SELECT url, array_to_string(kept, chr(10)) AS clean_text,
         len(kept)::BIGINT AS n_kept
  FROM K
  WHERE len(kept) >= 3 AND NOT contains(extracted_text, '{{')
    AND NOT contains(lower(extracted_text), 'lorem ipsum')
), W AS (
  SELECT url, clean_text, n_kept,
         regexp_extract_all(clean_text, '\\S+') AS ws
  FROM C
), S AS (
  SELECT url, clean_text, n_kept, ws, len(ws)::BIGINT AS n_words,
         COALESCE(CAST(list_sum(list_transform(ws, x -> len(x)))
                       AS BIGINT), 0) AS n_chars,
         CASE WHEN len(ws) > 1
              THEN list_transform(range(1, len(ws)),
                                  i -> ws[i] || ' ' || ws[i+1])
              ELSE [] END AS bs
  FROM W
), T AS (
  SELECT url, max(cnt * length(word)) AS top_word_mass
  FROM (SELECT url, word, count(*) AS cnt
        FROM (SELECT url, unnest(ws) AS word FROM W)
        GROUP BY url, word)
  GROUP BY url
), G AS (
  SELECT s.url, s.clean_text, s.n_kept, s.n_words
  FROM S JOIN T USING (url)
  WHERE s.n_words >= 20
    AND 3 * s.n_words <= s.n_chars AND s.n_chars <= 10 * s.n_words
    AND (len(bs) - len(list_distinct(bs))) * 5 <= len(bs)
    AND T.top_word_mass * 6 <= s.n_chars
)
SELECT url, digest, n_kept, n_words FROM (
  SELECT url, md5(clean_text) AS digest, n_kept, n_words,
         row_number() OVER (PARTITION BY md5(clean_text)
                            ORDER BY url) AS rn
  FROM G) WHERE rn = 1
"""


def _sql_gopher_rules() -> str:
    from zhtml_ray.functions.textstats import _GOPHER_STOPS
    stops = "[" + ",".join(f"'{w}'" for w in _GOPHER_STOPS) + "]"
    return f"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws FROM documents
), s AS (
  SELECT doc_id, ws, len(ws)::BIGINT AS n_words,
         COALESCE(CAST(list_sum(list_transform(ws, x -> len(x)))
                       AS BIGINT), 0) AS n_chars,
         len(list_filter(ws, x -> list_contains({stops}, x)))::BIGINT
             AS stop_hits,
         CASE WHEN len(ws) > 1
              THEN list_transform(range(1, len(ws)),
                                  i -> ws[i] || ' ' || ws[i+1])
              ELSE [] END AS bs
  FROM w
), t AS (
  SELECT doc_id, max(cnt * length(word)) AS top_word_mass
  FROM (SELECT doc_id, word, count(*) AS cnt
        FROM (SELECT doc_id, unnest(ws) AS word FROM w)
        GROUP BY doc_id, word)
  GROUP BY doc_id
)
SELECT s.doc_id, s.n_words, s.n_chars, s.stop_hits,
       len(bs)::BIGINT AS n_bigrams,
       (len(bs) - len(list_distinct(bs)))::BIGINT AS dup_bigrams,
       COALESCE(t.top_word_mass, 0)::BIGINT AS top_word_mass,
       (s.n_words BETWEEN 30 AND 70
        AND 3 * s.n_words <= s.n_chars AND s.n_chars <= 10 * s.n_words
        AND s.stop_hits >= 3
        AND (len(bs) - len(list_distinct(bs))) * 25 <= len(bs)
        AND COALESCE(t.top_word_mass, 0) * 6 <= s.n_chars) AS keep
FROM s LEFT JOIN t USING (doc_id)
"""


def _sql_langid() -> str:
    """DuckDB replication of LangId (verified exact: same argmax +
    alphabetical tie-break, raw IEEE divisions for lang_conf)."""
    from zhtml_ray.functions.textstats import _STOPWORDS

    def lst(lang):
        return "[" + ",".join("'" + w + "'" for w in sorted(_STOPWORDS[lang])) + "]"

    return f"""
WITH base AS (
  SELECT doc_id, lang, text, substr(text, 1, 2000) AS s FROM documents
), f AS (
  SELECT doc_id, lang, text, s,
    length(regexp_replace(s, '[^\\x{{4E00}}-\\x{{9FFF}}\\x{{3040}}-\\x{{30FF}}\\x{{AC00}}-\\x{{D7AF}}\\x{{3400}}-\\x{{4DBF}}]', '', 'g')) AS cjk,
    length(regexp_replace(s, '[^\\p{{L}}]', '', 'g')) AS n_alpha,
    CASE WHEN regexp_replace(s, '^{_WS}+|{_WS}+$', '', 'g') = '' THEN []::VARCHAR[]
         ELSE list_transform(
             regexp_split_to_array(
                 regexp_replace(s, '^{_WS}+|{_WS}+$', '', 'g'), '{_WS}+'),
             x -> lower(trim(x, '.,;:!?"''()'))) END AS lw
  FROM base
), h AS (
  SELECT doc_id, lang, text, cjk, n_alpha, len(lw) AS nw,
    len(list_filter(lw, x -> list_contains({lst('de')}, x))) AS h_de,
    len(list_filter(lw, x -> list_contains({lst('en')}, x))) AS h_en,
    len(list_filter(lw, x -> list_contains({lst('es')}, x))) AS h_es,
    len(list_filter(lw, x -> list_contains({lst('fr')}, x))) AS h_fr
  FROM f
)
SELECT doc_id, lang,
  CASE WHEN text = '' OR text IS NULL THEN 'und'
       WHEN n_alpha > 0 AND cjk::DOUBLE / n_alpha > 0.3 THEN 'zh'
       WHEN greatest(h_de, h_en, h_es, h_fr) = 0 THEN 'und'
       WHEN h_de >= h_en AND h_de >= h_es AND h_de >= h_fr THEN 'de'
       WHEN h_en >= h_es AND h_en >= h_fr THEN 'en'
       WHEN h_es >= h_fr THEN 'es'
       ELSE 'fr' END AS lang_pred,
  CASE WHEN text = '' OR text IS NULL THEN 0.0
       WHEN n_alpha > 0 AND cjk::DOUBLE / n_alpha > 0.3 THEN cjk::DOUBLE / n_alpha
       ELSE greatest(h_de, h_en, h_es, h_fr)::DOUBLE / greatest(nw, 1) END AS lang_conf
FROM h
"""


def q_langid(sf_dir: str):
    from zhtml_ray.functions.textstats import LangId
    ds = _docs(sf_dir, ["doc_id", "text", "lang"])
    out = ds.map_batches(LangId(), batch_format="pyarrow")
    return out.select_columns(["doc_id", "lang", "lang_pred", "lang_conf"])


def q_fingerprint(sf_dir: str):
    from zhtml_ray.functions.textstats import Fingerprint
    from zhtml_ray.pipelines.golden import ensure_golden
    ds = _docs(sf_dir, ["doc_id", "text"])
    ensure_golden("fingerprint", sf_dir)
    out = ds.map_batches(Fingerprint(), batch_format="pyarrow")
    return out.select_columns(["doc_id", "fingerprint", "content_hash"])


def q_bpe_token_count(sf_dir: str):
    from zhtml_ray.functions.textstats import BpeTokenCount
    ds = _docs(sf_dir, ["doc_id", "text"])
    out = ds.map_batches(BpeTokenCount(), batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_bpe_tokens"])


def q_corpus_prep(sf_dir: str):
    """Composite training-data-prep flagship over documents: ONE fused
    vectorized stage computes language ID + quality signals + token
    count + content hash, filters (quality_score ≥ 0.7 AND n_tokens ≥
    30), and drops text BEFORE any shuffle (shuffle bytes O(rows));
    survivors then exact-dedup in one sort: the min-doc_id row per
    content hash (``sorted_first_per_group``; doc_id is unique). This
    is the end-to-end corpus-cleaning shape a 100 TB run composes from
    the individual operators — SQL-oracled as a whole."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from zhtml_ray.functions.dedup import add_content_hash
    from zhtml_ray.functions.textstats import (LangId, QualityScore,
                                               token_count_batch)
    from zhtml_ray.stages.sortagg import sorted_first_per_group
    from zhtml_ray.stages.util import drop_empty_blocks

    ds = _docs(sf_dir, ["doc_id", "text", "lang"])
    li, qs = LangId(), QualityScore()

    def prep(b: pa.Table) -> pa.Table:
        t = add_content_hash(token_count_batch(qs(li(b))))
        keep = pc.and_(pc.greater_equal(t["quality_score"], 0.7),
                       pc.greater_equal(t["n_tokens"], 30))
        return t.filter(keep).select(
            ["doc_id", "lang_pred", "n_tokens", "quality_score",
             "content_hash"])

    survivors = drop_empty_blocks(
        ds.map_batches(prep, batch_format="pyarrow"))
    n = survivors.count()
    if n == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "lang_pred": pa.array([], pa.string()),
                         "n_tokens": pa.array([], pa.int64()),
                         "quality_score": pa.array([], pa.float64())})
    out = sorted_first_per_group(survivors, ["content_hash"], ["doc_id"])
    return out.select_columns(["doc_id", "lang_pred", "n_tokens",
                               "quality_score"])


def _sql_corpus_prep() -> str:
    # composed from the per-operator oracles (all individually verified
    # bit-exact); dedup groups by raw text — equivalent to the engine's
    # sha1(text) grouping
    return f"""
WITH q AS ({_sql_quality()}),
     l AS ({_sql_langid()}),
     t AS ({SQL_TOKEN_COUNT}),
     kept AS (
       SELECT q.doc_id, l.lang_pred, t.n_tokens, q.quality_score, d.text
       FROM q JOIN l ON q.doc_id = l.doc_id
              JOIN t ON q.doc_id = t.doc_id
              JOIN documents d ON q.doc_id = d.doc_id
       WHERE q.quality_score >= 0.7 AND t.n_tokens >= 30
     )
SELECT k.doc_id, k.lang_pred, k.n_tokens, k.quality_score
FROM kept k
JOIN (SELECT min(doc_id) AS doc_id FROM kept GROUP BY text) w
  ON k.doc_id = w.doc_id
"""




def q_paragraph_dedup(sf_dir: str):
    """C4-style paragraph-level cross-corpus dedup (the operator class
    the doc-level pipelines lack: explode -> corpus-wide winner ->
    order-preserving reassembly). Documents split into deterministic
    20-word windows ("paragraphs"); each distinct paragraph survives
    only at its first occurrence corpus-wide (min (doc_id, pid));
    surviving paragraphs reassemble in order per doc.

    Scale shape: the explode is fully vectorized (split_pattern ->
    re-chunked ListArray -> binary_join, no per-row Python); the
    winners are ONE sort of the paragraph rows (sort-based
    grouped-first, the house primitive: the min-rank row per sha1,
    rank being unique — no join back); reassembly is ONE range sort
    + per-doc run joins (sorted_bucket_apply). Nothing materializes on
    the driver. Engine groups by sha1(para) while the SQL oracle
    groups by the paragraph text itself — equivalent modulo SHA-1 collisions (same precedent
    as corpus_prep/exact_dedup)."""
    import hashlib

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from zhtml_ray.stages.sortagg import (sorted_bucket_apply,
                                          sorted_first_per_group)
    from zhtml_ray.stages.util import drop_empty_blocks

    K = 20
    ds = _docs(sf_dir, ["doc_id", "text"])

    def explode(b: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "pid": pa.array([], pa.int64()),
                          "para": pa.array([], pa.string()),
                          "phash": pa.array([], pa.string()),
                          "rank": pa.array([], pa.int64())})
        n = b.num_rows
        if n == 0:
            return empty
        words = pc.split_pattern(b["text"].combine_chunks(), " ")
        offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        # per-doc window starts; consecutive chunks are contiguous in
        # the flat values (doc i ends where doc i+1 begins), so the
        # concatenated starts + total length form valid list offsets
        starts = [np.arange(offs[i], offs[i + 1], K) for i in range(n)]
        counts = np.array([len(s) for s in starts], np.int64)
        if counts.sum() == 0:
            return empty
        cstarts = np.concatenate(starts)
        offsets = pa.array(np.r_[cstarts, offs[-1]], pa.int32())
        chunked = pa.ListArray.from_arrays(offsets, words.values)
        para = pc.binary_join(chunked, " ")
        doc_ids = np.repeat(
            b["doc_id"].to_numpy(zero_copy_only=False), counts)
        total = int(counts.sum())
        pid = np.arange(total, dtype=np.int64) - np.repeat(
            np.r_[0, np.cumsum(counts)[:-1]], counts)
        phash = [hashlib.sha1(s.encode("utf-8")).hexdigest()
                 for s in para.to_pylist()]
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "pid": pa.array(pid, pa.int64()),
            "para": para,
            "phash": pa.array(phash, pa.string()),
            "rank": pa.array(doc_ids * 1_000_000 + pid, pa.int64()),
        })

    paras = drop_empty_blocks(
        ds.map_batches(explode, batch_format="pyarrow")).materialize()
    total = paras.count()
    out_schema = pa.table({"doc_id": pa.array([], pa.int64()),
                           "clean_text": pa.array([], pa.string()),
                           "n_paras_kept": pa.array([], pa.int64())})
    if total == 0:
        return out_schema
    kept = sorted_first_per_group(paras, ["phash"], ["rank"])

    def clean_texts(b: pa.Table, starts, ends) -> pa.Table:
        # paragraphs of one doc are contiguous after the sort, in pid
        # order: join each run into its clean text
        joined = pc.binary_join(pa.ListArray.from_arrays(
            pa.array(np.r_[starts, ends[-1]], pa.int32()),
            b["para"].combine_chunks()), " ")
        return pa.table({"doc_id": b["doc_id"].take(
                             pa.array(starts, pa.int64())),
                         "clean_text": joined,
                         "n_paras_kept": pa.array(ends - starts,
                                                  pa.int64())})

    return sorted_bucket_apply(
        kept.select_columns(["doc_id", "pid", "para"]),
        "doc_id", ["doc_id", "pid"], clean_texts, out_schema)


SQL_PARAGRAPH_DEDUP = """
WITH ws AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
), wi AS (
  SELECT doc_id,
         unnest(w) AS word,
         unnest(generate_series(1, len(w))) AS i
  FROM ws
), paras AS (
  SELECT doc_id,
         CAST(floor((i - 1) / 20) AS BIGINT) AS pid,
         string_agg(word, ' ' ORDER BY i) AS para
  FROM wi GROUP BY doc_id, CAST(floor((i - 1) / 20) AS BIGINT)
), kept AS (
  SELECT doc_id, pid, para FROM (
    SELECT doc_id, pid, para,
           row_number() OVER (PARTITION BY para
                              ORDER BY doc_id, pid) AS rn
    FROM paras) WHERE rn = 1
)
SELECT doc_id,
       string_agg(para, ' ' ORDER BY pid) AS clean_text,
       count(*) AS n_paras_kept
FROM kept GROUP BY doc_id
"""




def q_corpus_mixture(sf_dir: str):
    """Data-mixture accounting per (source, lang): document count,
    token sum, char sum, and corpus share — the table a sampling-
    weights step consumes. Per-batch partial aggregation (text never
    leaves the map stage) into a tiny final groupby; share computed on
    the <=100-row result."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from zhtml_ray.functions.textstats import token_count_batch

    ds = _docs(sf_dir, ["doc_id", "text", "lang", "source"])

    def partial(b: pa.Table) -> pa.Table:
        t = token_count_batch(b).append_column(
            "n_chars", pc.utf8_length(b["text"]).cast(pa.int64()))
        return t.group_by(["source", "lang"]).aggregate(
            [("doc_id", "count"), ("n_tokens", "sum"), ("n_chars", "sum")])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    # partials are bounded by (sources x langs) x blocks — a tiny,
    # block-count-bounded collect, not a data-sized one
    tbl = pa.concat_tables(
        [b for b in parts.iter_batches(batch_size=None,
                                       batch_format="pyarrow")
         if b.num_rows],
        promote_options="default")
    out = tbl.group_by(["source", "lang"]).aggregate(
        [("doc_id_count", "sum"), ("n_tokens_sum", "sum"),
         ("n_chars_sum", "sum")])
    total = pc.sum(out["n_tokens_sum_sum"]).as_py() or 0
    share = pc.round(pc.divide(
        pc.cast(out["n_tokens_sum_sum"], pa.float64()),
        float(total) if total else 1.0), ndigits=6)
    return pa.table({
        "source": out["source"], "lang": out["lang"],
        "n_docs": out["doc_id_count_sum"],
        "n_tokens": out["n_tokens_sum_sum"],
        "n_chars": out["n_chars_sum_sum"],
        "token_share": share,
    })


SQL_CORPUS_MIXTURE = r"""
WITH t AS (
  SELECT doc_id, source, lang,
         len(regexp_split_to_array(trim(text), '\s+')) AS n_tokens,
         length(text) AS n_chars
  FROM documents
)
SELECT source, lang,
       count(*) AS n_docs,
       sum(n_tokens) AS n_tokens,
       sum(n_chars) AS n_chars,
       round(sum(n_tokens) / (SELECT CAST(sum(n_tokens) AS DOUBLE)
                              FROM t), 6) AS token_share
FROM t GROUP BY source, lang
"""


def q_source_cap_sample(sf_dir: str, cap: int = 12):
    """Per-source document cap (crawl-pipeline domain throttling):
    keep at most ``cap`` docs per source, chosen by a deterministic
    Knuth multiplicative hash of doc_id (corpus-stable, no RNG state).
    Uses the sorted head-n-per-group primitive — one range shuffle,
    block-local run slices, <=2n boundary rows per block."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from zhtml_ray.stages.sortagg import sorted_head_n_per_group

    ds = _docs(sf_dir, ["doc_id", "source"])

    def hashed(b: pa.Table) -> pa.Table:
        h = pc.bit_wise_and(
            pc.multiply_checked(
                pc.cast(b["doc_id"], pa.uint64()),
                pa.scalar(2654435761, pa.uint64())),
            pa.scalar(0xFFFFFFFF, pa.uint64()))
        return b.append_column("h", pc.cast(h, pa.int64()))

    capped = sorted_head_n_per_group(
        ds.map_batches(hashed, batch_format="pyarrow"),
        ["source"], ["h", "doc_id"], cap)
    return capped.select_columns(["doc_id", "source"])


SQL_SOURCE_CAP_SAMPLE = """
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (
           PARTITION BY source
           ORDER BY (doc_id * 2654435761) % 4294967296, doc_id) AS rn
  FROM documents) WHERE rn <= 12
"""


def _mod(a, m: int):
    """``a % m`` for non-negative int64 Arrow arrays (pyarrow has no
    modulo kernel; integer ``pc.divide`` truncates, matching SQL ``%``
    for the non-negative ids used here)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    ms = pa.scalar(m, pa.int64())
    return pc.subtract(a, pc.multiply(pc.divide(a, ms), ms))


# Deterministic PII overlay appended to each document before redaction.
# The synthetic corpus contains no natural emails/phones/IPs, so without
# it the differential gate would compare two no-op passes; the overlay
# (pure arithmetic on doc_id, computed identically by the Arrow kernels
# and the SQL below) makes every row exercise every redaction rule.
_SQL_PII_OVERLAY = (
    "text || ' contact user' || CAST(doc_id AS VARCHAR)"
    " || '@mail' || CAST(doc_id % 7 AS VARCHAR) || '.example call 555-'"
    " || CAST(100 + doc_id % 900 AS VARCHAR) || '-'"
    " || CAST(1000 + doc_id % 9000 AS VARCHAR) || ' from 10.'"
    " || CAST(doc_id % 256 AS VARCHAR) || '.'"
    " || CAST((doc_id // 7) % 256 AS VARCHAR) || '.'"
    " || CAST(doc_id % 254 + 1 AS VARCHAR)"
)


def q_pii_redact(sf_dir: str):
    """PII masking (Dolma/CCNet-style): staged RE2 redaction of emails,
    phone numbers and IPv4 addresses with per-category match counts.
    Pure vectorized map — one ``map_batches`` over Arrow strings, zero
    shuffle, no per-row Python — the shape that runs at read throughput
    on 100 TB. Patterns and staging live in ``functions/pii.py`` and
    drive both this pipeline and the SQL oracle, so the differential
    gate compares two independent RE2 engines (pyarrow vs DuckDB) on
    the same rule text."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from zhtml_ray.functions.pii import redact_batch

    ds = _docs(sf_dir, ["doc_id", "text"])

    def season(b: pa.Table) -> pa.Table:
        d = b["doc_id"]

        def s(x):
            return pc.cast(x, pa.string())

        seasoned = pc.binary_join_element_wise(
            b["text"], " contact user", s(d), "@mail", s(_mod(d, 7)),
            ".example call 555-", s(pc.add(pa.scalar(100, pa.int64()),
                                           _mod(d, 900))),
            "-", s(pc.add(pa.scalar(1000, pa.int64()), _mod(d, 9000))),
            " from 10.", s(_mod(d, 256)), ".",
            s(_mod(pc.divide(d, pa.scalar(7, pa.int64())), 256)), ".",
            s(pc.add(_mod(d, 254), pa.scalar(1, pa.int64()))), "")
        return pa.table({"doc_id": d, "text": seasoned})

    out = ds.map_batches(season, batch_format="pyarrow") \
            .map_batches(redact_batch, batch_format="pyarrow")
    return out.select_columns(
        ["doc_id", "n_email", "n_phone", "n_ipv4", "redacted"])


def _sql_pii_redact() -> str:
    from zhtml_ray.functions.pii import sql_redact_exprs
    redacted, counts = sql_redact_exprs("text")
    return f"""
    SELECT doc_id, {", ".join(counts)}, {redacted} AS redacted
    FROM (SELECT doc_id, {_SQL_PII_OVERLAY} AS text FROM documents)
    """


# Deterministic URL overlay: the documents table carries no URL column,
# so one is derived from (source, lang, doc_id) identically on both
# sides — mixed-case host, default port, utm params in every position
# the canonicalizer handles, and a fragment. Every stable part (host,
# path, id param) keys on doc_id // 3 while the utm param and fragment
# key on doc_id itself: raw URLs are all DISTINCT and trios collide
# only after utm/fragment stripping, so URL dedup succeeds exactly when
# canonicalization is correct.
_SQL_URL_OVERLAY = (
    "'HTTPS://WWW.H' || CAST((doc_id // 3) % 7 AS VARCHAR)"
    " || '.Example.COM:443/p/' || CAST(doc_id // 3 AS VARCHAR)"
    " || '?utm_source=s' || CAST(doc_id % 3 AS VARCHAR)"
    " || '&id=' || CAST((doc_id // 3) % 10 AS VARCHAR)"
    " || '&utm_medium=m#sec' || CAST(doc_id AS VARCHAR)"
)


def _overlay_urls(b):
    """Arrow mirror of ``_SQL_URL_OVERLAY``."""
    import pyarrow as pa
    import pyarrow.compute as pc
    d = b["doc_id"]
    d3 = pc.divide(d, pa.scalar(3, pa.int64()))

    def s(x):
        return pc.cast(x, pa.string())

    return pc.binary_join_element_wise(
        "HTTPS://WWW.H", s(_mod(d3, 7)), ".Example.COM:443/p/", s(d3),
        "?utm_source=s", s(_mod(d, 3)), "&id=", s(_mod(d3, 10)),
        "&utm_medium=m#sec", s(d), "")


def q_url_host_stats(sf_dir: str):
    """Per-host crawl accounting: canonicalize URLs (lowercase
    scheme/host, strip default port, fragment and utm_* params —
    ``functions/urltools.py``), then aggregate docs and chars per host.
    Vectorized RE2 map + per-batch Arrow partial aggregation into a
    tiny hosts×blocks-bounded final combine — the per-host budget table
    a crawl scheduler consumes, shuffle-free at any corpus size."""
    import pyarrow as pa
    from zhtml_ray.functions.urltools import canonicalize_batch

    ds = _docs(sf_dir, ["doc_id", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        t = canonicalize_batch(
            pa.table({"url": _overlay_urls(b), "n_chars": b["n_chars"]}))
        return t.group_by(["host"]).aggregate(
            [("url", "count"), ("n_chars", "sum")])

    parts = ds.map_batches(partial, batch_format="pyarrow")
    tbl = pa.concat_tables(
        [b for b in parts.iter_batches(batch_size=None,
                                       batch_format="pyarrow")
         if b.num_rows],
        promote_options="default")
    out = tbl.group_by(["host"]).aggregate(
        [("url_count", "sum"), ("n_chars_sum", "sum")])
    return pa.table({"host": out["host"],
                     "n_docs": out["url_count_sum"],
                     "total_chars": out["n_chars_sum_sum"]})


def _sql_url_host_stats() -> str:
    from zhtml_ray.functions.urltools import sql_canonical_exprs
    host, _ = sql_canonical_exprs("url")
    return f"""
    SELECT {host} AS host, count(*)::BIGINT AS n_docs,
           sum(n_chars)::BIGINT AS total_chars
    FROM (SELECT {_SQL_URL_OVERLAY} AS url, n_chars FROM documents)
    GROUP BY 1
    """


def q_url_dedup(sf_dir: str):
    """URL-level exact dedup (the first pass of every crawl pipeline,
    ahead of content dedup): keep the lowest doc_id per canonical URL.
    Canonicalization is a vectorized map; the keep-first is the
    sorted-first-per-group primitive — one range shuffle on the
    canonical key, block-local run heads, <=2 boundary rows per block."""
    import pyarrow as pa
    from zhtml_ray.functions.urltools import canonicalize_batch
    from zhtml_ray.stages.sortagg import sorted_first_per_group

    ds = _docs(sf_dir, ["doc_id"])

    def canon(b: pa.Table) -> pa.Table:
        t = canonicalize_batch(
            pa.table({"url": _overlay_urls(b), "doc_id": b["doc_id"]}))
        return t.select(["canonical_url", "doc_id"])

    kept = sorted_first_per_group(
        ds.map_batches(canon, batch_format="pyarrow"),
        ["canonical_url"], tie_cols=["doc_id"])
    return kept.select_columns(["canonical_url", "doc_id"])


def _sql_url_dedup() -> str:
    from zhtml_ray.functions.urltools import sql_canonical_exprs
    _, canonical = sql_canonical_exprs("url")
    return f"""
    SELECT {canonical} AS canonical_url, min(doc_id) AS doc_id
    FROM (SELECT {_SQL_URL_OVERLAY} AS url, doc_id FROM documents)
    GROUP BY 1
    """


def q_host_cap(sf_dir: str, cap: int = 5):
    """Per-host document cap (crawl politeness / anti-boilerplate-farm
    sampling: keep the ``cap`` lowest-id docs of every canonical host).
    Canonicalization is the same vectorized RE2 map as ``url_dedup``;
    the keep-min-``cap`` is ``sorted_head_n_per_group`` — ONE range
    shuffle on host, block-local run slices, ≤ 2·cap boundary rows per
    block, so a mega-host (the skew case this op exists for) never
    lands whole on one worker."""
    import pyarrow as pa
    from zhtml_ray.functions.urltools import canonicalize_batch
    from zhtml_ray.stages.sortagg import sorted_head_n_per_group

    ds = _docs(sf_dir, ["doc_id"])

    def canon(b: pa.Table) -> pa.Table:
        t = canonicalize_batch(
            pa.table({"url": _overlay_urls(b), "doc_id": b["doc_id"]}))
        return t.select(["host", "doc_id"])

    kept = sorted_head_n_per_group(
        ds.map_batches(canon, batch_format="pyarrow"),
        ["host"], ["doc_id"], n=cap)
    return kept.select_columns(["host", "doc_id"])


def _sql_host_cap() -> str:
    from zhtml_ray.functions.urltools import sql_canonical_exprs
    host, _ = sql_canonical_exprs("url")
    return f"""
    SELECT host, doc_id FROM (
        SELECT {host} AS host, doc_id
        FROM (SELECT {_SQL_URL_OVERLAY} AS url, doc_id FROM documents))
    QUALIFY row_number() OVER (PARTITION BY host ORDER BY doc_id) <= 5
    """


# Deterministic mess overlay for text normalization: the synthetic
# corpus is clean single-spaced ASCII, so without it NFC + whitespace
# collapse would compare two no-op passes. Prefix/suffix cycle through
# combining-mark sequences (e+U+0301, A+U+030A — composed by NFC),
# NBSP/ZWSP and whitespace runs; rows with doc_id % 12 == 0 stay
# byte-identical so the `changed` flag is exercised both ways.
_NORM_PREFIXES = ["", " \t Café ", "​  ", " Å  "]
_NORM_SUFFIXES = ["", "  ", "\tétude "]


def q_normalize_text(sf_dir: str):
    """Unicode normalization pass (NFC + whitespace canonicalization,
    ``functions/normtext.py``) — the cleanup every hash-based dedup
    depends on: un-composed combining marks or NBSP variants make
    byte-identical prose hash as distinct. Pure vectorized map (utf8proc
    NFC + one RE2 substitution per batch), zero shuffle; the oracle
    runs the SAME rule text through DuckDB's independent utf8proc/RE2."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from zhtml_ray.functions.normtext import normalize_column

    ds = _docs(sf_dir, ["doc_id", "text"])
    pre = pa.array(_NORM_PREFIXES)
    suf = pa.array(_NORM_SUFFIXES)

    def mess_and_norm(b: pa.Table) -> pa.Table:
        d = b["doc_id"]
        messy = pc.binary_join_element_wise(
            pc.take(pre, _mod(d, 4)), b["text"].combine_chunks(),
            pc.take(suf, _mod(d, 3)), "")
        norm, changed, n_chars = normalize_column(messy)
        return pa.table({"doc_id": d, "norm_text": norm,
                         "changed": changed, "n_chars": n_chars})

    return ds.map_batches(mess_and_norm, batch_format="pyarrow")


def _sql_normalize_text() -> str:
    from zhtml_ray.functions.normtext import sql_normalize_exprs
    clean, changed, n_chars = sql_normalize_exprs("text")

    def lit(parts):
        return "([" + ", ".join(f"'{p}'" for p in parts) + "])"

    overlay = (f"{lit(_NORM_PREFIXES)}[doc_id % 4 + 1] || text || "
               f"{lit(_NORM_SUFFIXES)}[doc_id % 3 + 1]")
    return f"""
    SELECT doc_id, {clean} AS norm_text, {changed} AS changed,
           {n_chars} AS n_chars
    FROM (SELECT doc_id, {overlay} AS text FROM documents)
    """


_QUANTS = [0.25, 0.5, 0.9, 0.99]


def q_length_quantiles(sf_dir: str):
    """Exact corpus length quantiles (the sizing numbers a pipeline's
    batch/block tuning is derived from) WITHOUT a global sort: each
    batch emits a (len → count) value-counts table, the per-length
    partial counts combine into one table bounded by DISTINCT lengths
    (≤ max doc codepoints — e.g. ≤ ~10M rows for 10 MB docs, invariant
    in corpus row count), and the quantile falls out of a cumulative
    sum. Rank semantics pinned to DuckDB ``quantile_disc``: the value
    at 1-based rank ceil(n·q) (verified empirically across n/q grids,
    r3)."""
    import math

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ["text"])

    def partial(b: pa.Table) -> pa.Table:
        vc = pc.value_counts(
            pc.cast(pc.utf8_length(b["text"]), pa.int64()))
        return pa.table({"len": vc.field("values"),
                         "cnt": pc.cast(vc.field("counts"), pa.int64())})

    parts = [b for b in ds.map_batches(partial, batch_format="pyarrow")
             .iter_batches(batch_size=None, batch_format="pyarrow")
             if b.num_rows]
    tbl = (pa.concat_tables(parts, promote_options="default")
           .group_by(["len"]).aggregate([("cnt", "sum")])
           .sort_by("len"))
    lens = tbl["len"].to_numpy(zero_copy_only=False)
    cum = np.cumsum(tbl["cnt_sum"].to_numpy(zero_copy_only=False))
    if not len(cum):
        return pa.table({"q": pa.array([], pa.float64()),
                         "n_chars": pa.array([], pa.int64())})
    n = int(cum[-1])
    vals = [int(lens[int(np.searchsorted(cum, max(1, math.ceil(n * q))))])
            for q in _QUANTS]
    return pa.table({"q": pa.array(_QUANTS, pa.float64()),
                     "n_chars": pa.array(vals, pa.int64())})


def _sql_length_quantiles() -> str:
    arms = "\n    UNION ALL ".join(
        f"SELECT {q}::DOUBLE AS q, quantile_disc(len, {q})::BIGINT"
        f" AS n_chars FROM l" for q in _QUANTS)
    return f"""
    WITH l AS (SELECT length(text) AS len FROM documents)
    {arms}
    """


def q_group_quantiles(sf_dir: str):
    """Exact PER-GROUP length quantiles (per-language batch-size /
    truncation tuning): the grouped form of ``length_quantiles`` —
    per-batch (lang, len) value-counts, one combine bounded by
    distinct (group, length) pairs (invariant in corpus row count),
    then a numpy run-boundary cumsum picks every group's ceil(n·q)
    rank in one pass. No global sort, no per-group shuffle."""
    import math

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ["text", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b["lang"],
                      "len": pc.cast(pc.utf8_length(b["text"]),
                                     pa.int64())})
        t = t.group_by(["lang", "len"]).aggregate([("len", "count")])
        return t.rename_columns(["lang", "len", "cnt"])

    parts = [b for b in ds.map_batches(partial, batch_format="pyarrow")
             .iter_batches(batch_size=None, batch_format="pyarrow")
             if b.num_rows]
    empty = pa.table({"lang": pa.array([], pa.string()),
                      "q": pa.array([], pa.float64()),
                      "n_chars": pa.array([], pa.int64())})
    if not parts:
        return empty
    tbl = (pa.concat_tables(parts, promote_options="default")
           .group_by(["lang", "len"]).aggregate([("cnt", "sum")])
           .sort_by([("lang", "ascending"), ("len", "ascending")]))
    langs = np.asarray(tbl["lang"].to_pylist(), object)
    lens = tbl["len"].to_numpy(zero_copy_only=False)
    cnts = tbl["cnt_sum"].to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.r_[True, langs[1:] != langs[:-1]])
    ends = np.r_[starts[1:], len(langs)]
    out_lang, out_q, out_v = [], [], []
    for s, e in zip(starts, ends):
        cum = np.cumsum(cnts[s:e])
        n = int(cum[-1])
        for q in _QUANTS:
            r = int(np.searchsorted(cum, max(1, math.ceil(n * q))))
            out_lang.append(langs[s])
            out_q.append(q)
            out_v.append(int(lens[s + r]))
    return pa.table({"lang": pa.array(out_lang, pa.string()),
                     "q": pa.array(out_q, pa.float64()),
                     "n_chars": pa.array(out_v, pa.int64())})


def _sql_group_quantiles() -> str:
    arms = "\n    UNION ALL ".join(
        f"SELECT lang, {q}::DOUBLE AS q, quantile_disc(len, {q})::BIGINT"
        f" AS n_chars FROM l GROUP BY lang" for q in _QUANTS)
    return f"""
    WITH l AS (SELECT lang, length(text) AS len FROM documents)
    {arms}
    """


# JSONL source gate: the documents table is materialized once per gate
# process as 4 gzipped JSONL shards (deterministic round-robin), the
# engine reads them back through sources/jsonl.py, and the oracle reads
# the SAME files with DuckDB's independent read_json_auto — certifying
# JSON escaping, gzip framing and type mapping end-to-end. Per-pid dir
# (the golden.py pattern) so concurrent gates at different scales can't
# interleave.
def _own_pid_dir(prefix: str) -> str:
    """``<prefix><pid>`` for this process, after removing every
    ``<prefix><pid>`` whose process is gone (per-pid /tmp dirs keep
    concurrent gate runs apart, and would otherwise pile up one copy
    per dead process). A suffix that is not a pid is left alone."""
    import glob
    import os
    import shutil

    for d in glob.glob(glob.escape(prefix) + "*"):
        try:
            os.kill(int(d[len(prefix):]), 0)
        except ProcessLookupError:
            shutil.rmtree(d, ignore_errors=True)
        except (ValueError, PermissionError):
            pass
    return f"{prefix}{os.getpid()}"


def _ensure_pid_fixture(root: str, sf_dir: str, write_fn) -> str:
    """Shared per-process source-fixture lifecycle (jsonl/warc/csv/…):
    a ``current_<pid>`` dir keyed by a ``.sf_dir`` tag, dead-pid
    sweeping of sibling dirs (``_own_pid_dir``), atomic-enough rebuild
    via rmtree+mkdir, then ``write_fn(dir, sf_dir)`` emits the shards.
    Extracted from three verbatim copies (review find) so lifecycle
    fixes can't drift."""
    import os
    import shutil

    d = _own_pid_dir(os.path.join(root, "current_"))
    tag = os.path.join(d, ".sf_dir")
    if os.path.exists(tag) and open(tag).read() == sf_dir:
        return d
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    write_fn(d, sf_dir)
    with open(tag, "w") as f:
        f.write(sf_dir)
    return d


_JSONL_ROOT = "/tmp/zhtml_ray_jsonl"


def _jsonl_current_dir() -> str:
    import os
    return f"{_JSONL_ROOT}/current_{os.getpid()}"


def _write_jsonl_shards(d: str, sf_dir: str) -> None:
    import gzip
    import json
    import os

    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "lang", "source"])
    rows = t.to_pylist()
    for shard in range(4):
        lines = [json.dumps(r, separators=(",", ":"), ensure_ascii=False)
                 for r in rows[shard::4]]
        with gzip.open(os.path.join(d, f"part-{shard}.jsonl.gz"),
                       "wt", encoding="utf-8") as f:
            f.write("\n".join(lines) + ("\n" if lines else ""))


def _ensure_jsonl_fixture(sf_dir: str) -> str:
    return _ensure_pid_fixture(_JSONL_ROOT, sf_dir, _write_jsonl_shards)


def q_jsonl_docs(sf_dir: str):
    """JSONL shard ingestion (Dolma/RedPajama/C4-style corpora ship as
    gzipped JSONL): file-as-parallelism-unit read through the C++ JSON
    parser (``sources/jsonl.py``), pinned schema, then a vectorized
    projection — the smoke pipeline a reference user runs to land a
    JSONL corpus in the engine."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from zhtml_ray.sources.jsonl import read_jsonl

    d = _ensure_jsonl_fixture(sf_dir)
    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                        ("lang", pa.string()), ("source", pa.string())])
    ds = read_jsonl(d, schema=schema)

    def proj(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"], "lang": b["lang"],
            "n_chars_text": pc.cast(pc.utf8_length(b["text"]),
                                    pa.int64())})

    return ds.map_batches(proj, batch_format="pyarrow")


def _sql_jsonl_docs() -> str:
    return f"""
    SELECT doc_id, lang, length(text)::BIGINT AS n_chars_text
    FROM read_json_auto('{_jsonl_current_dir()}/*.jsonl.gz')
    """


_WDS_ROOT = "/tmp/zhtml_ray_wds"
_IPC_ROOT = "/tmp/zhtml_ray_ipc"


def _write_wds_shards(d: str, sf_dir: str) -> None:
    """4 WebDataset tar shards from the documents table: member names
    ``{doc_id:08d}.txt`` / ``.lang`` (the official first-dot key/field
    split), written serially with stdlib tarfile — the oracle then
    recomputes the projection straight from the parquet, certifying
    the full tar write→group-by-key→decode roundtrip."""
    import io
    import os
    import tarfile

    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "lang"])
    rows = t.to_pylist()
    for shard in range(4):
        with tarfile.open(os.path.join(d, f"part-{shard}.tar"),
                          "w") as tf:
            for r in rows[shard::4]:
                for ext, val in (("txt", r["text"] or ""),
                                 ("lang", r["lang"] or "")):
                    data = val.encode("utf-8")
                    info = tarfile.TarInfo(
                        name=f"{int(r['doc_id']):08d}.{ext}")
                    info.size = len(data)
                    tf.addfile(info, io.BytesIO(data))


def q_webdataset_docs(sf_dir: str):
    """WebDataset tar ingestion (X-source, r4 — the multimodal-corpus
    shipping format: tar shards of ``<key>.<field>`` members): shard-
    as-parallelism-unit read (``sources/webdataset.py``, stdlib
    tarfile), per-shard key grouping, utf-8 field decode, then the
    same vectorized projection as the other source smoke queries."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.sources.webdataset import read_webdataset

    d = _ensure_pid_fixture(_WDS_ROOT, sf_dir, _write_wds_shards)
    ds = read_webdataset(d, fields=["txt", "lang"],
                         text_fields=("txt", "lang"))

    def proj(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(b["__key__"], pa.int64()),
            "lang": b["lang"],
            "n_chars_text": pc.cast(pc.utf8_length(b["txt"]),
                                    pa.int64())})

    return ds.map_batches(proj, batch_format="pyarrow")


SQL_WEBDATASET_DOCS = """
SELECT doc_id, lang, length(text)::BIGINT AS n_chars_text
FROM documents
"""


def _write_ipc_shards(d: str, sf_dir: str) -> None:
    """4 Feather-V2 (random-access Arrow IPC) shards + 1 stream-framed
    shard from the documents table — the reader must handle both
    framings transparently."""
    import os

    import pyarrow.parquet as pq
    from pyarrow import ipc
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "lang", "source"])
    n = t.num_rows
    cuts = [0] + [n * i // 5 for i in range(1, 5)] + [n]
    for shard in range(5):
        part = t.slice(cuts[shard], cuts[shard + 1] - cuts[shard])
        path = os.path.join(d, f"part-{shard}.arrow")
        if shard == 4:  # streaming framing for the fallback path
            with open(path, "wb") as f, \
                    ipc.new_stream(f, part.schema) as w:
                w.write_table(part)
        else:
            with open(path, "wb") as f, \
                    ipc.new_file(f, part.schema) as w:
                w.write_table(part)


def q_arrow_ipc_docs(sf_dir: str):
    """Arrow IPC / Feather-V2 ingestion (X-source, r4 — the format
    embedding dumps and engine interchange ship in): file-as-
    parallelism-unit memory-mapped read with read-level column
    projection (``sources/arrowipc.py``), mixed random-access and
    stream framings in one directory."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.sources.arrowipc import read_arrow_ipc

    d = _ensure_pid_fixture(_IPC_ROOT, sf_dir, _write_ipc_shards)
    ds = read_arrow_ipc(d, columns=["doc_id", "text", "lang"])

    def proj(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"], "lang": b["lang"],
            "n_chars_text": pc.cast(pc.utf8_length(b["text"]),
                                    pa.int64())})

    return ds.map_batches(proj, batch_format="pyarrow")


SQL_ARROW_IPC_DOCS = SQL_WEBDATASET_DOCS


_ORC_ROOT = "/tmp/zhtml_ray_orc"


def _write_orc_shards(d: str, sf_dir: str) -> None:
    """4 ORC shards from the documents table via the engine's own
    sink (sources/orcsrc.py:write_orc) — the query then certifies the
    full write→read roundtrip against the documents view."""
    import ray.data as rd

    from zhtml_ray.sources.orcsrc import write_orc

    write_orc(rd.read_parquet(f"{sf_dir}/documents.parquet")
              .repartition(4), d)


def q_orc_docs(sf_dir: str):
    """Apache ORC ingestion (X50d, r5 — the Hive/Trino data-lake
    columnar format): file-as-parallelism-unit read with column
    projection pushed into the ORC stripe reader
    (``sources/orcsrc.py``), over shards the engine's own ORC sink
    wrote — a write→read roundtrip certified against the documents
    view."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.sources.orcsrc import read_orc

    d = _ensure_pid_fixture(_ORC_ROOT, sf_dir, _write_orc_shards)
    ds = read_orc(d, columns=["doc_id", "text", "lang"])

    def proj(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"], "lang": b["lang"],
            "n_chars_text": pc.cast(pc.utf8_length(b["text"]),
                                    pa.int64())})

    return ds.map_batches(proj, batch_format="pyarrow")


SQL_ORC_DOCS = SQL_WEBDATASET_DOCS


# --------------------------------------------------- sentence operators

# both engines split with THIS regex (no lookbehind — RE2-safe) and
# trim THIS exact charset; changing either silently breaks the oracle.
# The driver fixture text carries no punctuation at all, so — like the
# _SQL_URL_OVERLAY precedent — a deterministic overlay ('batch ' →
# 'batch. ', leftmost non-overlapping in BOTH engines) plants real
# sentence boundaries first; real corpora skip the overlay.
_SENT_RE_TEXT = r"[^.!?]+[.!?]*"
_SENT_TRIM = " \t\n\r\x0b\x0c"
_SENT_CHUNK_TOKENS = 64
_SENT_OVERLAY = ("batch ", "batch. ")


def _doc_sentences(text: str):
    """text → [(sentence, n_tokens)] under the pinned rule."""
    import re
    text = (text or "").replace(*_SENT_OVERLAY)
    out = []
    for m in re.findall(_SENT_RE_TEXT, text):
        s = m.strip(_SENT_TRIM)
        if s:
            out.append((s, len(s.split())))
    return out


def q_sentence_split(sf_dir: str):
    """Sentence segmentation (X143, r5 — the unit every curation rule
    below the document level needs: PII windows, dedup spans, chunk
    packing all start from sentences): a pinned RE2-safe terminator
    rule (``[^.!?]+[.!?]*``, explicit trim charset) applied per doc
    with a module-compiled regex, emitting (doc_id, sent_idx,
    sentence, n_tokens). The oracle recomputes the identical rule in
    DuckDB via regexp_extract_all + a lateral index unnest."""
    import pyarrow as pa

    def split(b: pa.Table) -> pa.Table:
        ids, idxs, sents, toks = [], [], [], []
        for did, txt in zip(b["doc_id"].to_pylist(),
                            b["text"].to_pylist()):
            for i, (s, n) in enumerate(_doc_sentences(txt)):
                ids.append(did)
                idxs.append(i)
                sents.append(s)
                toks.append(n)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "sent_idx": pa.array(idxs, pa.int64()),
            "sentence": pa.array(sents, pa.string()),
            "n_tokens": pa.array(toks, pa.int64())})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        split, batch_format="pyarrow")


_SQL_SENT_BASE = f"""
  SELECT doc_id,
         row_number() OVER (PARTITION BY doc_id ORDER BY t.i) - 1
             AS sent_idx,
         trim(arr[t.i], ' {chr(9)}{chr(10)}{chr(13)}'
              || chr(11) || chr(12)) AS sentence
  FROM (SELECT doc_id,
               regexp_extract_all(replace(text, 'batch ', 'batch. '),
                                  '[^.!?]+[.!?]*') AS arr
        FROM documents) w,
       unnest(range(1, len(arr) + 1)) AS t(i)
  WHERE trim(arr[t.i], ' {chr(9)}{chr(10)}{chr(13)}'
             || chr(11) || chr(12)) <> ''
"""


def _sql_sentence_split() -> str:
    return f"""
WITH s AS ({_SQL_SENT_BASE})
SELECT doc_id, sent_idx, sentence,
       len(regexp_extract_all(sentence, '\\S+'))::BIGINT AS n_tokens
FROM s
"""


def q_sentence_chunks(sf_dir: str, budget: int = _SENT_CHUNK_TOKENS):
    """Sentence-aware chunk packing (X144, r5 — the training-window
    prep step: pack whole sentences into ≤budget-token chunks instead
    of cutting mid-sentence): chunk_id = (tokens before this sentence)
    // budget — a closed integer formula over the sentence stream, so
    the boundary rule is identical in the engine's per-doc cumsum and
    the oracle's window sum. Emits one row per (doc, chunk) with the
    packed text and exact token/sentence counts."""
    import numpy as np
    import pyarrow as pa

    def chunks(b: pa.Table) -> pa.Table:
        ids, cids, texts, n_s, n_t = [], [], [], [], []
        for did, txt in zip(b["doc_id"].to_pylist(),
                            b["text"].to_pylist()):
            sents = _doc_sentences(txt)
            if not sents:
                continue
            toks = np.array([n for _, n in sents], np.int64)
            before = np.concatenate(([0], np.cumsum(toks)[:-1]))
            cid = before // budget
            for c in np.unique(cid):
                sel = cid == c
                ids.append(did)
                cids.append(int(c))
                texts.append(" ".join(s for (s, _), m
                                      in zip(sents, sel) if m))
                n_s.append(int(sel.sum()))
                n_t.append(int(toks[sel].sum()))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "chunk_id": pa.array(cids, pa.int64()),
            "chunk_text": pa.array(texts, pa.string()),
            "n_sentences": pa.array(n_s, pa.int64()),
            "n_tokens": pa.array(n_t, pa.int64())})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        chunks, batch_format="pyarrow")


def _sql_sentence_chunks(budget: int = _SENT_CHUNK_TOKENS) -> str:
    return f"""
WITH s AS ({_SQL_SENT_BASE}),
tk AS (SELECT doc_id, sent_idx, sentence,
              len(regexp_extract_all(sentence, '\\S+'))::BIGINT AS nt
       FROM s),
cb AS (SELECT doc_id, sent_idx, sentence, nt,
              coalesce(sum(nt) OVER (PARTITION BY doc_id
                  ORDER BY sent_idx ROWS BETWEEN UNBOUNDED PRECEDING
                  AND 1 PRECEDING), 0) // {budget} AS chunk_id
       FROM tk)
SELECT doc_id, chunk_id,
       string_agg(sentence, ' ' ORDER BY sent_idx) AS chunk_text,
       count(*)::BIGINT AS n_sentences,
       sum(nt)::BIGINT AS n_tokens
FROM cb GROUP BY doc_id, chunk_id
"""


_WARC_ROOT = "/tmp/zhtml_ray_warcfix"


def _write_warc_shards(d: str, sf_dir: str) -> None:
    """4 ``.warc.gz`` shards of one gzip member per record, as real
    crawl shards are, built from the documents table with the engine's
    own serializer (url/date/body derived from doc_id by a closed
    formula the SQL oracle recomputes independently — the gate then
    certifies the full write→gunzip→parse→HTTP-strip roundtrip)."""
    import os
    from datetime import datetime, timedelta

    import pyarrow.parquet as pq
    from zhtml_ray.sources.warc import build_warc

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    rows = t.to_pylist()
    epoch = datetime(2017, 1, 1)
    for shard in range(4):
        recs = []
        for r in rows[shard::4]:
            did = r["doc_id"]
            date = (epoch + timedelta(seconds=did)).strftime(
                "%Y-%m-%dT%H:%M:%SZ")
            recs.append((f"https://warc.example/{did}", date,
                         (r["text"] or "").encode("utf-8")))
        with open(os.path.join(d, f"part-{shard}.warc.gz"), "wb") as f:
            f.write(build_warc(recs, per_record_gzip=True))


def _ensure_warc_fixture(sf_dir: str) -> str:
    return _ensure_pid_fixture(_WARC_ROOT, sf_dir, _write_warc_shards)


def q_warc_docs(sf_dir: str):
    """WARC shard ingestion gate: crawl-native ``.warc.gz`` shards
    (written by the engine's own deterministic serializer) through
    ``sources/warc.py:read_warc`` — record framing, multi-member gzip,
    HTTP-header stripping and WARC-Date parsing are all on the hook,
    because the oracle recomputes url/warc_ts/body-bytes from the base
    documents table by formula, never touching the WARC bytes."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from zhtml_ray.sources.warc import read_warc

    d = _ensure_warc_fixture(sf_dir)
    ds = read_warc(d)

    def proj(b: pa.Table) -> pa.Table:
        return pa.table({
            "url": b["url"], "warc_ts": b["warc_ts"],
            "n_bytes_html": pc.cast(pc.binary_length(b["html"]),
                                    pa.int64())})

    return ds.map_batches(proj, batch_format="pyarrow")


SQL_WARC_DOCS = """
SELECT 'https://warc.example/' || doc_id AS url,
       TIMESTAMP '2017-01-01 00:00:00' + to_seconds(doc_id) AS warc_ts,
       strlen(coalesce(text, ''))::BIGINT AS n_bytes_html
FROM documents
"""


_CSV_ROOT = "/tmp/zhtml_ray_csv"


def _csv_current_dir() -> str:
    import os
    return f"{_CSV_ROOT}/current_{os.getpid()}"


def _write_csv_shards(d: str, sf_dir: str) -> None:
    """4 gzipped RFC-4180 CSV shards of the documents table (quoted
    text fields — embedded commas/quotes/newlines round-trip)."""
    import csv
    import gzip
    import os

    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "lang", "source"])
    rows = t.to_pylist()
    for shard in range(4):
        with gzip.open(os.path.join(d, f"part-{shard}.csv.gz"),
                       "wt", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["doc_id", "text", "lang", "source"])
            for r in rows[shard::4]:
                w.writerow([r["doc_id"], r["text"], r["lang"],
                            r["source"]])


def _ensure_csv_fixture(sf_dir: str) -> str:
    return _ensure_pid_fixture(_CSV_ROOT, sf_dir, _write_csv_shards)


def q_csv_docs(sf_dir: str):
    """CSV shard ingestion (label tables / manifests / legacy exports):
    file-as-parallelism-unit read through the C++ CSV parser
    (``sources/csvsrc.py``), pinned schema, vectorized projection —
    the fourth source on-ramp next to parquet, WARC and JSONL."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from zhtml_ray.sources.csvsrc import read_csv_shards

    d = _ensure_csv_fixture(sf_dir)
    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                        ("lang", pa.string()), ("source", pa.string())])
    ds = read_csv_shards(d, schema=schema)

    def proj(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"], "source": b["source"],
            "n_chars_text": pc.cast(pc.utf8_length(b["text"]),
                                    pa.int64())})

    return ds.map_batches(proj, batch_format="pyarrow")


def _sql_csv_docs() -> str:
    return f"""
    SELECT doc_id, source, length(text)::BIGINT AS n_chars_text
    FROM read_csv('{_csv_current_dir()}/*.csv.gz', header=true,
                  columns={{'doc_id': 'BIGINT', 'text': 'VARCHAR',
                            'lang': 'VARCHAR', 'source': 'VARCHAR'}})
    """


def q_click_attribution(sf_dir: str):
    """As-of join (purchase → latest prior-or-same-instant click of the
    same user — the attribution join of every event pipeline), an
    operator Ray Data lacks natively: ``stages/asof.py`` builds it from
    one range-shuffle sort over the tagged union plus two streaming
    passes with an O(num_blocks) driver carry-chain. Output lag is
    exact microseconds / 1e6 so the double matches DuckDB's
    ``date_diff`` arithmetic bit-for-bit."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from zhtml_ray.stages.asof import asof_join

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id",
                                  "event_type"])

    def probe_rows(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], "purchase"))
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"], "ts": t["ts"]})

    def build_rows(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], "click"))
        return pa.table({"event_id": t["event_id"],
                         "user_id": t["user_id"], "ts": t["ts"],
                         "click_ts": t["ts"]})

    probe = ds.map_batches(probe_rows, batch_format="pyarrow")
    build = ds.map_batches(build_rows, batch_format="pyarrow")
    joined = asof_join(probe, build, by="user_id", on="ts",
                       uid="event_id", payload_cols=["click_ts"])

    def lag(b: pa.Table) -> pa.Table:
        us = pc.subtract(pc.cast(b["ts"], pa.int64()),
                         pc.cast(b["click_ts"], pa.int64()))
        return pa.table({
            "purchase_id": b["event_id"], "user_id": b["user_id"],
            "click_ts": b["click_ts"],
            "lag_s": pc.divide(pc.cast(us, pa.float64()),
                               pa.scalar(1_000_000.0))})

    return joined.map_batches(lag, batch_format="pyarrow")


SQL_CLICK_ATTRIBUTION = """
WITH p AS (SELECT event_id AS purchase_id, user_id, ts
           FROM events WHERE event_type = 'purchase'),
     c AS (SELECT user_id, ts AS click_ts
           FROM events WHERE event_type = 'click')
SELECT p.purchase_id, p.user_id, c.click_ts,
       date_diff('microsecond', c.click_ts, p.ts) / 1000000.0 AS lag_s
FROM p ASOF LEFT JOIN c
ON p.user_id = c.user_id AND p.ts >= c.click_ts
"""


def q_event_lag(sf_dir: str):
    """LAG window (seconds since the same user's previous event —
    inter-arrival times, the input of bot/burst detection): the
    ``sorted_bucket_apply`` pattern — ONE range-shuffle sort on
    (user, ts, event_id), vectorized block-local diffs for users fully
    inside a block, per-group pass only for the ≤ 2 users straddling
    each block edge. First event per user is NULL (masked, never NaN —
    the SQL side is NULL and the gate hashes them differently)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id"])
    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "user_id": pa.array([], pa.int64()),
                      "lag_s": pa.array([], pa.float64())})

    def lag_of(b: pa.Table, starts, ends) -> pa.Table:
        t = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        u = b["user_id"].to_numpy(zero_copy_only=False)
        lag = np.empty(len(t), np.float64)
        lag[:1] = np.nan
        lag[1:] = np.where(u[1:] == u[:-1],
                           (t[1:] - t[:-1]) / 1e6, np.nan)
        return pa.table({
            "event_id": b["event_id"], "user_id": b["user_id"],
            "lag_s": pa.array(lag, pa.float64(), mask=np.isnan(lag))})

    return sorted_bucket_apply(ds, "user_id",
                               ["user_id", "ts", "event_id"],
                               lag_of, empty)


SQL_EVENT_LAG = """
SELECT event_id, user_id,
       date_diff('microsecond',
                 lag(ts) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id),
                 ts) / 1000000.0 AS lag_s
FROM events
"""


def q_events_cumsum(sf_dir: str):
    """Per-user running total (cumulative SUM window ordered by ts) —
    the `event_lag` shape: ONE range-shuffle sort on (user, ts,
    event_id), vectorized block-local np.cumsum with per-run rebasing
    for users fully inside a block, per-group pass only for the ≤ 2
    users straddling each block edge (each user's run arrives whole,
    so no cross-block carry protocol is needed).
    The float total is decimal-pinned identically on both sides (the
    q1 convention) — sequential np.cumsum and DuckDB's windowed
    segment-tree sum legitimately differ in last-ulp association."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id", "value"])
    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "user_id": pa.array([], pa.int64()),
                      "cum_value": pa.array([], pa.float64())})

    def cum_of(b: pa.Table, starts: np.ndarray,
               ends: np.ndarray) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        c = np.cumsum(v)
        base = np.where(starts > 0, c[starts - 1], 0.0)
        cum = c - np.repeat(base, ends - starts)
        cum = np.floor(cum * 1e2 + 0.5) / 1e2
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "cum_value": pa.array(cum, pa.float64())})

    return sorted_bucket_apply(ds, "user_id",
                               ["user_id", "ts", "event_id"],
                               cum_of, empty)


SQL_EVENTS_CUMSUM = """
SELECT event_id, user_id,
       floor(sum(value) OVER (PARTITION BY user_id
                              ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING) * 1e2 + 0.5)
           / 1e2 AS cum_value
FROM events
"""


def q_events_distinct_users(sf_dir: str):
    """Per-event-type COUNT(DISTINCT user_id) at scale: per-batch
    distinct (type, user) pairs (Arrow group_by combiner) → sort-based
    grouped-first for the global distinct → per-batch partial counts →
    tiny final groupby. The distinct never lands on the driver and the
    shuffle moves (type, user) pairs only — the two-stage
    distinct-then-count plan that a naive COUNT(DISTINCT) groupby
    (shipping every raw row to one reducer per type) cannot survive at
    100 TB. Totals come from a separate partial-count pass; only the
    ≤ #types result rows reach the driver."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Sum
    from zhtml_ray.stages.sortagg import sorted_first_per_group
    from zhtml_ray.stages.util import drop_empty_blocks

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])

    def total_partial(b: pa.Table) -> pa.Table:
        g = b.group_by("event_type").aggregate([("user_id", "count")])
        return g.rename_columns(["event_type", "part_n"])

    totals = ds.map_batches(total_partial, batch_format="pyarrow") \
        .groupby("event_type").aggregate(Sum("part_n",
                                             alias_name="n_events"))

    def pair_partial(b: pa.Table) -> pa.Table:
        return b.group_by(["event_type", "user_id"]).aggregate([])

    distinct = sorted_first_per_group(
        ds.map_batches(pair_partial, batch_format="pyarrow"),
        ["event_type", "user_id"])

    def user_partial(b: pa.Table) -> pa.Table:
        g = b.group_by("event_type").aggregate([("user_id", "count")])
        return g.rename_columns(["event_type", "part_u"])

    users = drop_empty_blocks(
        distinct.map_batches(user_partial, batch_format="pyarrow")) \
        .groupby("event_type").aggregate(Sum("part_u",
                                             alias_name="n_users"))

    pdf = totals.to_pandas().merge(users.to_pandas(), on="event_type")
    return pdf.sort_values("event_type").reset_index(drop=True)


SQL_EVENTS_DISTINCT_USERS = """
SELECT event_type, count(*) AS n_events,
       count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type ORDER BY event_type
"""


def events_moving_avg(ds, w: int = 3):
    """Sliding ROWS-frame moving average (AVG over the current + w-1
    preceding events per user) — the `events_cumsum` shape: ONE
    range-shuffle sort on (user, ts, event_id), block-local cumsum
    differences with per-run window clamping, per-group pass only for
    edge-straddling users. Pinned at 6 decimals on both sides; with
    w=3 the true mean×1e6 has fractional part in {0, 1/3, 2/3}, never
    the unstable 0.5, so the pin is exact."""
    import numpy as np
    import pyarrow as pa
    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "user_id": pa.array([], pa.int64()),
                      "mavg_value": pa.array([], pa.float64())})

    def mavg_of(b: pa.Table, starts: np.ndarray,
                ends: np.ndarray) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        c = np.cumsum(v)
        pos = np.arange(len(v))
        lo = np.maximum(pos - (w - 1), np.repeat(starts, ends - starts))
        num = c - np.where(lo > 0, c[lo - 1], 0.0)
        m = num / (pos - lo + 1)
        m = np.floor(m * 1e6 + 0.5) / 1e6
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "mavg_value": pa.array(m, pa.float64())})

    return sorted_bucket_apply(ds, "user_id",
                               ["user_id", "ts", "event_id"],
                               mavg_of, empty)


def q_events_moving_avg(sf_dir: str):
    import ray.data as rd
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id", "value"])
    return events_moving_avg(ds)


SQL_EVENTS_MOVING_AVG = """
SELECT event_id, user_id,
       floor(avg(value) OVER (PARTITION BY user_id
                              ORDER BY ts, event_id
                              ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
             * 1e6 + 0.5) / 1e6 AS mavg_value
FROM events
"""


def events_range_window(ds, window_s: int = 3600):
    """Time-based RANGE-frame trailing window (SUM + COUNT over the
    same user's events in the last hour, peers-at-equal-ts included —
    X111, the rate-limiter / burst-detector frame that the ROWS-frame
    moving average X55 cannot express): the `events_cumsum` shape —
    ONE range-shuffle sort on (user, ts, event_id), then block-local
    frame bounds for every row via a fully-vectorized PER-RUN
    searchsorted (a lexsort merge of haystack timestamps and needle
    thresholds keyed by (run, value, tie-flag) — global np.searchsorted
    would cross user runs, and a composite user*SPAN+ts key overflows
    int64 at block scale), window sums as cumsum differences, edge
    users whole in the bounded per-group pass.

    The frame is [ts−W, ts] INCLUSIVE both ends with peers (rows at
    exactly ts_i sorted after i still belong — SQL RANGE ... CURRENT
    ROW semantics), which is why bounds come from value comparisons,
    never row positions. values are 2-dp currency-like so the exact
    decimal window sum ×1e2 is an integer and the 2-dp house pin is
    exact (the q1/events_cumsum convention); the count needs no pin."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    W = np.int64(window_s) * np.int64(1_000_000)  # µs
    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "user_id": pa.array([], pa.int64()),
                      "w_sum": pa.array([], pa.float64()),
                      "w_cnt": pa.array([], pa.int64())})

    def _run_bounds(ts: np.ndarray, run_id: np.ndarray,
                    needles: np.ndarray, needle_first: bool) -> np.ndarray:
        """Per-run rank of each needle among ts (count of ts strictly
        below when ``needle_first``, else count ≤): one lexsort over
        the merged 2n rows; runs are contiguous so the global
        haystack-cumsum IS the global index of the bound."""
        n = len(ts)
        vals = np.concatenate([ts, needles])
        runs2 = np.concatenate([run_id, run_id])
        flag = np.empty(2 * n, np.int8)  # tie order: lower flag first
        flag[:n] = 1 if needle_first else 0
        flag[n:] = 0 if needle_first else 1
        order = np.lexsort((flag, vals, runs2))
        cum_hay = np.cumsum(flag[order] == (1 if needle_first else 0))
        pos = np.empty(2 * n, np.int64)
        pos[order] = np.arange(2 * n)
        return cum_hay[pos[n:]]

    def win_of(b: pa.Table, starts: np.ndarray,
               ends: np.ndarray) -> pa.Table:
        ts = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        v = b["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        run_id = np.repeat(np.arange(len(starts), dtype=np.int64),
                           ends - starts)
        lo = _run_bounds(ts, run_id, ts - W, needle_first=True)
        hi = _run_bounds(ts, run_id, ts, needle_first=False)
        c = np.cumsum(v)
        w_sum = c[hi - 1] - np.where(lo > 0, c[lo - 1], 0.0)
        w_sum = np.floor(w_sum * 1e2 + 0.5) / 1e2
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "w_sum": pa.array(w_sum, pa.float64()),
                         "w_cnt": pa.array(hi - lo, pa.int64())})

    return sorted_bucket_apply(ds, "user_id",
                               ["user_id", "ts", "event_id"],
                               win_of, empty)


def q_events_range_window(sf_dir: str):
    import ray.data as rd
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id", "value"])
    return events_range_window(ds)


SQL_EVENTS_RANGE_WINDOW = """
SELECT event_id, user_id,
       floor(sum(value) OVER (
                 PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                           AND CURRENT ROW) * 1e2 + 0.5) / 1e2 AS w_sum,
       count(*) OVER (
                 PARTITION BY user_id ORDER BY ts
                 RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                           AND CURRENT ROW) AS w_cnt
FROM events
"""


def _per_run_rank(hay_vals, hay_runs, ndl_vals, ndl_runs,
                  needle_first: bool):
    """Per-run rank of each needle among its run's haystack values
    (count strictly below when ``needle_first``, else count <=) — the
    X111 lexsort-merge trick generalized to haystack and needle sets
    of DIFFERENT lengths. Runs must be contiguous ascending ids on
    both sides; one lexsort over the merged rows, then the global
    haystack cumsum read back at each needle's merged position IS the
    needle's global bound index (haystack runs are contiguous in the
    merged order, so the global count doubles as an index into the
    run-concatenated haystack)."""
    import numpy as np
    nh, nn = len(hay_vals), len(ndl_vals)
    vals = np.concatenate([hay_vals, ndl_vals])
    runs = np.concatenate([hay_runs, ndl_runs])
    flag = np.empty(nh + nn, np.int8)
    flag[:nh] = 1 if needle_first else 0
    flag[nh:] = 0 if needle_first else 1
    order = np.lexsort((flag, vals, runs))
    cum_hay = np.cumsum(flag[order] == (1 if needle_first else 0))
    pos = np.empty(nh + nn, np.int64)
    pos[order] = np.arange(nh + nn)
    return cum_hay[pos[nh:]]


def events_window_join(ds, window_s: int = 86_400,
                       probe_type: str = "purchase",
                       build_type: str = "click"):
    """Bounded-interval stream-stream join (X119): every (purchase,
    click) pair of the same user with the click in the 24 h window
    [tp−W, tp] INCLUSIVE both ends — the 1-to-MANY attribution
    complement of the as-of join X35 (which keeps only the latest
    match). Same single-shuffle plan as every window op here: ONE
    range sort on (user, ts, event_id) over the two filtered event
    kinds, then per block a fully-vectorized pair emission — per-run
    lo/hi click bounds for every purchase via `_per_run_rank`, pair
    expansion with repeat + offset arithmetic (no Python loop). Pair
    fan-out is bounded by the window width per probe, and a hot user
    straddling blocks resolves whole in the bounded per-group edge
    pass. Lag is exact microseconds / 1e6, bit-equal to DuckDB's
    date_diff arithmetic."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    W = np.int64(window_s) * np.int64(1_000_000)  # µs
    empty = pa.table({"purchase_id": pa.array([], pa.int64()),
                      "click_id": pa.array([], pa.int64()),
                      "lag_s": pa.array([], pa.float64())})

    both = ds.map_batches(
        lambda b: b.filter(pc.is_in(
            b["event_type"],
            value_set=pa.array([probe_type, build_type]))),
        batch_format="pyarrow")

    def pairs_of(b: pa.Table, starts: np.ndarray,
                 ends: np.ndarray) -> pa.Table:
        ts = pc.cast(b["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        eid = b["event_id"].combine_chunks().to_numpy(
            zero_copy_only=False)
        kind = b["event_type"].combine_chunks()
        run_id = np.repeat(np.arange(len(starts), dtype=np.int64),
                           ends - starts)
        pm = pc.equal(kind, probe_type).to_numpy(
            zero_copy_only=False)
        cm = pc.equal(kind, build_type).to_numpy(
            zero_copy_only=False)
        if not pm.any() or not cm.any():
            return empty
        pts, prun, pid = ts[pm], run_id[pm], eid[pm]
        cts, crun, cid = ts[cm], run_id[cm], eid[cm]
        lo = _per_run_rank(cts, crun, pts - W, prun,
                           needle_first=True)
        hi = _per_run_rank(cts, crun, pts, prun, needle_first=False)
        cnt = hi - lo
        total = int(cnt.sum())
        if total == 0:
            return empty
        off = np.repeat(np.cumsum(cnt) - cnt, cnt)
        ci = np.repeat(lo, cnt) + (np.arange(total) - off)
        pi = np.repeat(np.arange(len(pts)), cnt)
        lag = (np.repeat(pts, cnt) - cts[ci]).astype(np.float64) / 1e6
        return pa.table({"purchase_id": pa.array(pid[pi], pa.int64()),
                         "click_id": pa.array(cid[ci], pa.int64()),
                         "lag_s": pa.array(lag, pa.float64())})

    return sorted_bucket_apply(both, "user_id",
                               ["user_id", "ts", "event_id"],
                               pairs_of, empty)


def events_dedup_window(ds, window_s: int = 172_800):
    """Windowed stream dedup (X123 — re-fetch/re-emit suppression):
    keep an event only if the same user's PREVIOUS event of the same
    type is more than W older (or absent). Because rows arrive sorted
    by (user, type, ts, id), the closest earlier same-key row IS the
    previous row, so the whole operator is one shift compare per block
    — the same single (user, type, ts, id) range sort as every window
    op, zero extra passes; (user, type) runs straddling a block edge
    resolve whole in the bounded per-group pass. Suppression is
    against the previous RAW row (`LAG` semantics, SQL-expressible),
    not the previous kept row (the chained variant is inherently
    sequential; this is the form crawl schedulers actually use for
    politeness windows)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    W = np.int64(window_s) * np.int64(1_000_000)  # µs
    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "user_id": pa.array([], pa.int64()),
                      "event_type": pa.array([], pa.string())})

    def kept_of(b: pa.Table, starts, ends) -> pa.Table:
        ts = pc.cast(b["ts"], pa.int64()).to_numpy(
            zero_copy_only=False)
        tcode = b["event_type"].combine_chunks().dictionary_encode() \
            .indices.to_numpy(zero_copy_only=False)
        # a (user, type) run starts at a user run or a type change
        keep = np.zeros(b.num_rows, bool)
        keep[starts] = True
        keep[1:] |= (tcode[1:] != tcode[:-1]) | (ts[:-1] < ts[1:] - W)
        return b.select(["event_id", "user_id", "event_type"]) \
            .filter(pa.array(keep))

    return sorted_bucket_apply(ds, "user_id",
                               ["user_id", "event_type", "ts",
                                "event_id"],
                               kept_of, empty)


def q_event_dedup_window(sf_dir: str):
    import ray.data as rd
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id",
                                  "event_type"])
    return events_dedup_window(ds)


SQL_EVENT_DEDUP_WINDOW = """
WITH l AS (SELECT event_id, user_id, event_type, ts,
                  lag(ts) OVER (PARTITION BY user_id, event_type
                                ORDER BY ts, event_id) AS pts
           FROM events)
SELECT event_id, user_id, event_type
FROM l WHERE pts IS NULL OR pts < ts - INTERVAL 48 HOUR
"""


def q_window_join(sf_dir: str):
    import ray.data as rd
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id",
                                  "event_type"])
    return events_window_join(ds)


SQL_WINDOW_JOIN = """
SELECT p.event_id AS purchase_id, c.event_id AS click_id,
       date_diff('microsecond', c.ts, p.ts) / 1e6 AS lag_s
FROM events p JOIN events c
  ON p.user_id = c.user_id
 AND p.event_type = 'purchase' AND c.event_type = 'click'
 AND c.ts BETWEEN p.ts - INTERVAL 24 HOUR AND p.ts
"""


_FUNNEL_STAGES = ("signup", "view", "purchase")


def events_funnel(ds, stages=_FUNNEL_STAGES):
    """Ordered conversion funnel (how many users did signup, then
    later a view, then later a purchase): per-user STAGED sequence
    matching, fully vectorized — per sorted block, each stage's
    earliest qualifying timestamp per user-run is one masked
    ``np.minimum.reduceat``, with the previous stage's time as a
    strictly-greater threshold. Users fully inside a block count
    locally; edge-straddling users resolve whole in the per-group
    pass. Only ≤ #stages partial-count rows leave each block."""
    import numpy as np
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    empty = pa.table({"stage": pa.array([], pa.string()),
                      "part": pa.array([], pa.int64())})
    INF = np.iinfo(np.int64).max

    def stage_reached(b: pa.Table, starts: np.ndarray,
                      ends: np.ndarray) -> list[np.ndarray]:
        """Per run (user), per stage: bool 'reached stage k in order'."""
        import pyarrow.compute as pc
        ts = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        enc = b["event_type"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        code_of = {v: i for i, v in enumerate(enc.dictionary.to_pylist())}
        lens = ends - starts
        thr = np.repeat(np.full(len(starts), -1, np.int64), lens)
        out = []
        for st in stages:
            code = code_of.get(st, -1)
            cand = np.where((codes == code) & (ts > thr), ts, INF)
            tk = np.minimum.reduceat(cand, starts)
            out.append(tk < INF)
            thr = np.repeat(tk, lens)  # unreached stays INF → no match
        return out

    def partial(b: pa.Table, starts, ends) -> pa.Table:
        return pa.table({
            "stage": pa.array(list(stages), pa.string()),
            "part": pa.array([int(r.sum()) for r in
                              stage_reached(b, starts, ends)],
                             pa.int64())})

    parts = sorted_bucket_apply(ds, "user_id", ["user_id", "ts"],
                                partial, empty)
    agg = parts.groupby("stage").aggregate(Sum("part",
                                               alias_name="users"))
    return agg.to_pandas().sort_values("stage").reset_index(drop=True)


def q_events_funnel(sf_dir: str):
    import ray.data as rd
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type"])
    return events_funnel(ds)


SQL_EVENTS_FUNNEL = """
WITH s1 AS (SELECT user_id, min(ts) AS t1 FROM events
            WHERE event_type = 'signup' GROUP BY user_id),
s2 AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e
       JOIN s1 ON e.user_id = s1.user_id
       WHERE e.event_type = 'view' AND e.ts > s1.t1
       GROUP BY e.user_id),
s3 AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e
       JOIN s2 ON e.user_id = s2.user_id
       WHERE e.event_type = 'purchase' AND e.ts > s2.t2
       GROUP BY e.user_id)
SELECT 'signup' AS stage, count(*)::BIGINT AS users FROM s1
UNION ALL SELECT 'view', count(*)::BIGINT FROM s2
UNION ALL SELECT 'purchase', count(*)::BIGINT FROM s3
ORDER BY stage
"""


def q_events_value_rank(sf_dir: str):
    """RANK + DENSE_RANK per user over floored value DESC — the
    tie-aware window shapes (X48's per-group top-k is row_number;
    rank/dense_rank additionally need the value-change boundaries).
    ONE range-shuffle sort on (user, -floor(value), event_id); per
    block, both ranks come from one vectorized boundary scan
    (``np.maximum.accumulate`` for RANK's first-equal position, run-
    local cumsum of the change mask for DENSE_RANK). Floored values
    make ties REAL — the gate exercises tie semantics, not just
    ordering. Edge-straddling users resolve whole in the per-group
    pass (order-restored inside)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "value"])

    def prep(b: pa.Table) -> pa.Table:
        # only the negated sort key rides the shuffle; fv is re-derived
        # after the sort (25% fewer shuffle bytes than carrying both)
        fv = pc.cast(pc.floor(b["value"]), pa.int64())
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "neg": pc.negate_checked(fv)})

    prepped = ds.map_batches(prep, batch_format="pyarrow")

    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "user_id": pa.array([], pa.int64()),
                      "fv": pa.array([], pa.int64()),
                      "rnk": pa.array([], pa.int64()),
                      "drnk": pa.array([], pa.int64())})

    def ranks_of(b: pa.Table, starts: np.ndarray,
                 ends: np.ndarray) -> pa.Table:
        neg = b["neg"].to_numpy(zero_copy_only=False)
        n = len(neg)
        pos = np.arange(n)
        lens = ends - starts
        run_start = np.repeat(starts, lens)
        newv = np.r_[True, neg[1:] != neg[:-1]]
        newv[starts] = True
        first = np.maximum.accumulate(np.where(newv, pos, -1))
        cs = np.cumsum(newv)
        drnk = cs - np.repeat(cs[starts], lens) + 1
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "fv": pa.array(-neg, pa.int64()),
                         "rnk": pa.array(first - run_start + 1,
                                         pa.int64()),
                         "drnk": pa.array(drnk, pa.int64())})

    return sorted_bucket_apply(prepped, "user_id",
                               ["user_id", "neg", "event_id"],
                               ranks_of, empty)


SQL_EVENTS_VALUE_RANK = """
SELECT event_id, user_id, floor(value)::BIGINT AS fv,
       rank() OVER (PARTITION BY user_id
                    ORDER BY floor(value) DESC) AS rnk,
       dense_rank() OVER (PARTITION BY user_id
                          ORDER BY floor(value) DESC) AS drnk
FROM events
"""


# fixed probe vocabulary for the Count-Min frequency query — shared
# verbatim with the serial golden ('zzz-absent' shows the
# overestimate-only property: absent words read collision mass, never
# a negative)
CMS_PROBES = ("scan", "column", "window", "order", "sort", "join",
              "merge", "query", "group", "key", "value", "the",
              "zzz-absent")
CMS_LOG2W, CMS_D = 14, 4


def q_word_freq_cms(sf_dir: str):
    """Count-Min-sketch word frequencies for the fixed probe list
    (`functions/sketch.py:cms_probe_freqs` — probe-cell-pruned, raw
    tokens never leave their batch). Golden-pinned EXACTLY against a
    serial full-table sketch (sum-merge is layout-invariant);
    overestimate-only and error bounds are pytest-gated
    (tests/test_sketch.py)."""
    from zhtml_ray.functions.sketch import cms_probe_freqs
    from zhtml_ray.pipelines.golden import ensure_golden

    ensure_golden("word_freq_cms", sf_dir)
    return cms_probe_freqs(_docs(sf_dir, ["text"]), list(CMS_PROBES),
                           CMS_LOG2W, CMS_D)


_EMB_DIM = 64  # driver fixture embedding width (TESTDATA.md)


def q_label_centroids(sf_dir: str):
    """Per-label embedding centroid (the class-prototype / cluster-
    profile aggregate of an embedding pipeline): per-batch zero-copy
    matrix decode (`_emb_matrix`) + one ``np.add.at`` scatter of
    per-label vector sums → ONE Arrow-native groupby carrying 65 Sum
    aggregates (no per-group UDF, no list column through the shuffle)
    → ≤ #labels rows on the driver where sums become 6-dp-pinned
    means. The oracle is a GENERATED 64-column DuckDB aggregate over
    ``embedding[i]`` — both sides pin identically."""
    import numpy as np
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from zhtml_ray.functions.similarity import _emb_matrix

    ds = _emb(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        mat = _emb_matrix(b["embedding"]).astype(np.float64)
        labels = b["label"].to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), mat.shape[1]), np.float64)
        np.add.at(sums, codes, mat)
        counts = np.bincount(codes, minlength=len(uniq))
        cols = {"label": pa.array(uniq.astype(np.int32)),
                "part_n": pa.array(counts, pa.int64())}
        for i in range(mat.shape[1]):
            cols[f"s{i}"] = pa.array(sums[:, i], pa.float64())
        return pa.table(cols)

    aggs = [Sum("part_n", alias_name="n")] + \
        [Sum(f"s{i}", alias_name=f"s{i}") for i in range(_EMB_DIM)]
    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("label").aggregate(*aggs)
    pdf = agg.to_pandas()
    for i in range(_EMB_DIM):
        pdf[f"c{i}"] = np.floor(pdf[f"s{i}"] / pdf["n"] * 1e6 + 0.5) / 1e6
        del pdf[f"s{i}"]
    return pdf.sort_values("label").reset_index(drop=True)


def _sql_label_centroids(dim: int = _EMB_DIM) -> str:
    cols = ",\n       ".join(
        f"floor(avg(embedding[{i + 1}]) * 1e6 + 0.5) / 1e6 AS c{i}"
        for i in range(dim))
    return (f"SELECT label, count(*) AS n,\n       {cols}\n"
            "FROM embeddings GROUP BY label ORDER BY label")


def q_label_outliers(sf_dir: str, z_cut: float = -2.0):
    """Per-label embedding outlier detection (X105 — the label-noise /
    mislabeled-example sweep run before training a classifier): each
    vector's 6-dp-pinned cosine to its OWN label's pinned centroid
    (X67), then a per-label z-score from decimal-pinned (n, Σcos,
    Σcos²) moments — the X73 rule: pin the moments, then derive with
    the IDENTICAL expression on both engines — and a flag at
    z < ``z_cut``. Two pure-map passes + one ≤ #labels moment groupby;
    centroids and (μ, σ) broadcast once."""
    import numpy as np
    import pyarrow as pa
    import ray
    from ray.data.aggregate import Sum

    from zhtml_ray.functions.similarity import _emb_matrix

    cent = q_label_centroids(sf_dir)  # pandas, label-asc, pinned
    labels = cent["label"].to_numpy(np.int32)
    C = cent[[f"c{i}" for i in range(_EMB_DIM)]].to_numpy(np.float64)
    Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
    # dense label→row index table: labels are small ints, so the
    # lookup is one C-speed fancy-index per batch, not a Python loop
    pos = np.full(int(labels.max()) + 1, -1, np.int64)
    pos[labels] = np.arange(len(labels))
    cref = ray.put((pos, Cn))

    def cos_batch(b: pa.Table) -> pa.Table:
        lp, cn = ray.get(cref)
        M = _emb_matrix(b["embedding"]).astype(np.float64)
        Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
        lab = b["label"].to_numpy(zero_copy_only=False)
        rows = lp[lab]
        assert (rows >= 0).all(), "label absent from centroid table"
        cos = np.floor((Mn * cn[rows]).sum(axis=1) * 1e6 + 0.5) / 1e6
        return pa.table({"vec_id": b["vec_id"], "label": b["label"],
                         "cos_r": pa.array(cos, pa.float64())})

    scored = _emb(sf_dir).map_batches(
        cos_batch, batch_format="pyarrow").materialize()

    def mom_partial(b: pa.Table) -> pa.Table:
        c = b["cos_r"].to_numpy(zero_copy_only=False)
        lab = b["label"].to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(lab, return_inverse=True)
        return pa.table({
            "label": pa.array(uniq.astype(np.int32)),
            "pn": pa.array(np.bincount(codes), pa.int64()),
            "ps": pa.array(np.bincount(codes, weights=c), pa.float64()),
            "pq": pa.array(np.bincount(codes, weights=c * c),
                           pa.float64())})

    mom = scored.map_batches(mom_partial, batch_format="pyarrow") \
        .groupby("label").aggregate(Sum("pn", alias_name="n"),
                                    Sum("ps", alias_name="s1"),
                                    Sum("pq", alias_name="s2")) \
        .to_pandas()
    # pin the folded moments, then derive μ/σ with the IDENTICAL
    # expression the SQL uses (s2/n - mu*mu, clamped at 0)
    mlab = mom["label"].to_numpy(np.int64)
    n = mom["n"].to_numpy(np.float64)
    s1 = np.floor(mom["s1"].to_numpy(np.float64) * 1e6 + 0.5) / 1e6
    s2 = np.floor(mom["s2"].to_numpy(np.float64) * 1e6 + 0.5) / 1e6
    mu_t = s1 / n
    sd_t = np.sqrt(np.maximum(s2 / n - mu_t * mu_t, 0.0))
    mu_by = np.zeros(int(mlab.max()) + 1)
    sd_by = np.zeros(int(mlab.max()) + 1)
    mu_by[mlab] = mu_t
    sd_by[mlab] = sd_t
    sref = ray.put((mu_by, sd_by))

    def z_batch(b: pa.Table) -> pa.Table:
        mu_a, sd_a = ray.get(sref)
        lab = b["label"].to_numpy(zero_copy_only=False)
        cos = b["cos_r"].to_numpy(zero_copy_only=False)
        mu = mu_a[lab]
        sd = sd_a[lab]
        z = np.where(sd > 0,
                     np.floor((cos - mu) / np.where(sd > 0, sd, 1.0)
                              * 1e6 + 0.5) / 1e6, 0.0)
        return pa.table({
            "vec_id": b["vec_id"], "label": b["label"],
            "cos_r": b["cos_r"], "z_r": pa.array(z, pa.float64()),
            "is_outlier": pa.array(z < z_cut)})

    return scored.map_batches(z_batch, batch_format="pyarrow")


def _sql_label_outliers(z_cut: float = -2.0,
                        dim: int = _EMB_DIM) -> str:
    lst = ", ".join(f"c.c{i}" for i in range(dim))
    return f"""
WITH c AS ({_sql_label_centroids()}),
s AS (
  SELECT e.vec_id, e.label,
         floor(list_cosine_similarity(e.embedding::DOUBLE[],
                                      list_value({lst})) * 1e6 + 0.5)
             / 1e6 AS cos_r
  FROM embeddings e JOIN c ON e.label = c.label),
m AS (SELECT label, count(*)::DOUBLE AS n,
             floor(sum(cos_r) * 1e6 + 0.5) / 1e6 AS s1,
             floor(sum(cos_r * cos_r) * 1e6 + 0.5) / 1e6 AS s2
      FROM s GROUP BY label),
d AS (SELECT label, s1 / n AS mu,
             sqrt(greatest(s2 / n - (s1 / n) * (s1 / n), 0.0)) AS sd
      FROM m)
SELECT s.vec_id, s.label, s.cos_r,
       CASE WHEN d.sd > 0
            THEN floor((s.cos_r - d.mu) / d.sd * 1e6 + 0.5) / 1e6
            ELSE 0.0 END AS z_r,
       CASE WHEN d.sd > 0
            THEN floor((s.cos_r - d.mu) / d.sd * 1e6 + 0.5) / 1e6
            ELSE 0.0 END < {z_cut!r} AS is_outlier
FROM s JOIN d USING (label)
"""


def q_nearest_centroid(sf_dir: str):
    """Nearest-centroid label assignment (X86) — the classification /
    cluster-assignment join of an embedding pipeline: each vector gets
    the label of its most-cosine-similar class prototype. Centroids
    are the X67 6-dp-PINNED means (both engines round the SAME pinned
    components before any cosine, per the decimal-pinned-moments rule),
    broadcast once via ``ray.put``; assignment is one chunked matmul
    per batch (zero-copy matrix decode), argmax with ascending-label
    tie-break on the 6-dp-rounded score."""
    import numpy as np
    import pyarrow as pa
    import ray

    from zhtml_ray.functions.similarity import _emb_matrix

    cent = q_label_centroids(sf_dir)  # pandas, label-ascending, pinned
    labels = cent["label"].to_numpy(np.int32)
    C = cent[[f"c{i}" for i in range(_EMB_DIM)]].to_numpy(np.float64)
    Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
    ref = ray.put((labels, Cn))

    class Assign:
        def __init__(self):
            self.labels, self.Cn = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            M = _emb_matrix(b["embedding"]).astype(np.float64)
            Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
            S = np.floor(Mn @ self.Cn.T * 1e6 + 0.5) / 1e6
            idx = np.argmax(S, axis=1)  # first max = smallest label
            assigned = self.labels[idx]
            own = b["label"].to_numpy(zero_copy_only=False)
            return pa.table({
                "vec_id": b["vec_id"],
                "label": b["label"],
                "assigned_label": pa.array(assigned, pa.int32()),
                "cos_r": pa.array(S[np.arange(len(idx)), idx],
                                  pa.float64()),
                "is_own": pa.array(assigned == own)})

    return _emb(sf_dir).map_batches(stateless_stage(Assign),
                                    batch_format="pyarrow")


def _sql_nearest_centroid(dim: int = 64) -> str:
    lst = ", ".join(f"c.c{i}" for i in range(dim))
    return f"""
WITH c AS ({_sql_label_centroids()}),
s AS (
  SELECT e.vec_id, e.label, c.label AS cl,
         floor(list_cosine_similarity(e.embedding::DOUBLE[],
                                      list_value({lst})) * 1e6 + 0.5)
             / 1e6 AS cos_r
  FROM embeddings e CROSS JOIN c)
SELECT vec_id, label, cl AS assigned_label, cos_r,
       (cl = label) AS is_own
FROM s
QUALIFY row_number() OVER (PARTITION BY vec_id
                           ORDER BY cos_r DESC, cl) = 1
"""


def q_tfidf_top_terms(sf_dir: str, k: int = 5,
                      vocab_budget: int = 5_000_000):
    """Integer tf-idf top terms per document (X85): keyword extraction
    with the idf expressed as the EXACT integer ``tf * N // df`` —
    monotone in tf·(N/df), so rankings match a float tf-idf while
    staying bit-identical across engines (no log, no float pin).

    tf is per-document and every document is whole inside one batch,
    so once df is known the score AND the per-doc top-k are pure
    map-side work. Two plans on that observation:

    * vocabulary ≤ ``vocab_budget`` — df (one vocabulary-bounded
      groupby over per-batch distinct-term partials) broadcasts once
      via ``ray.put`` as a sorted term array + df vector; a second
      tokenise pass computes tf, binary-searches df, and takes each
      doc's top-k inside the batch. ZERO wide exchanges of the
      (doc, term, tf) table — the first version merge-joined df onto
      it and then range-sorted it again for head-k, two all-to-all
      sorts of the widest table in the query (193 s at 500k docs; the
      re-tokenise costs ~a tenth of that).
    * else (open-vocabulary web text blows any budget: urls, typos) —
      the shuffle plan: explode → merge-join df on term → sorted
      head-k per doc. Correct at any vocabulary, two wide sorts.

    Both plans emit identical integers; the differential pytest runs
    them over the same corpus."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from zhtml_ray.functions.textstats import PY_WS_RE2_IN
    from zhtml_ray.stages.util import compact_blocks

    ws_pat = "[" + PY_WS_RE2_IN + "]+"
    ds = _docs(sf_dir, ["doc_id", "text"])
    n_docs = ds.count()

    def _explode(b: pa.Table):
        """(parent row index, term) pairs, empties dropped."""
        la = pc.split_pattern_regex(b["text"],
                                    pattern=ws_pat).combine_chunks()
        lens = pc.fill_null(pc.list_value_length(la), 0) \
            .to_numpy(zero_copy_only=False)
        parent = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        flat = la.flatten()
        t = pa.table({"p": pa.array(parent, pa.int64()),
                      "term": flat}).filter(pc.not_equal(flat, ""))
        return t

    def df_partial(b: pa.Table) -> pa.Table:
        t = _explode(b)
        # distinct (doc, term) then count per term — all within batch
        dt = t.group_by(["p", "term"]).aggregate([])
        g = dt.group_by("term").aggregate([("p", "count")])
        return g.rename_columns(["term", "df"])

    # sorted_sum, not groupby().aggregate(): Ray's Aggregate measured
    # ~8× slower on high-cardinality keys (BENCH/BASELINE.md)
    from zhtml_ray.stages.sortagg import sorted_sum_per_group
    df = sorted_sum_per_group(
        compact_blocks(ds.map_batches(df_partial,
                                      batch_format="pyarrow")),
        ["term"], ["df"]).materialize()
    vocab = df.count()

    if vocab <= vocab_budget:
        dt = pa.concat_tables(list(df.iter_batches(
            batch_size=None, batch_format="pyarrow")))
        varr = np.asarray(dt["term"].to_pylist(), object)
        order = np.argsort(varr)
        varr = varr[order]
        dfv = dt["df"].to_numpy(zero_copy_only=False)[order]
        df_ref = ray.put((varr, dfv))

        def score_topk(b: pa.Table) -> pa.Table:
            va, dv = ray.get(df_ref)
            t = _explode(b)
            g = t.group_by(["p", "term"]).aggregate([("term", "count")])
            terms = np.asarray(g["term"].to_pylist(), object)
            tf = g["term_count"].to_numpy(zero_copy_only=False)
            dfn = dv[np.searchsorted(va, terms)]
            score = tf.astype(np.int64) * n_docs // dfn
            st = pa.table({
                "p": g["p"], "term": g["term"],
                "tf": pa.array(tf, pa.int64()),
                "df": pa.array(dfn, pa.int64()),
                "score": pa.array(score, pa.int64())})
            idx = pc.sort_indices(st, sort_keys=[
                ("p", "ascending"), ("score", "descending"),
                ("term", "ascending")])
            st = st.take(idx)
            ps = st["p"].to_numpy(zero_copy_only=False)
            if len(ps) == 0:
                first = np.zeros(0, bool)
            else:
                first = np.empty(len(ps), bool)
                first[0] = True
                first[1:] = ps[1:] != ps[:-1]
            run_start = np.flatnonzero(first)
            rank = np.arange(len(ps)) - \
                run_start[np.cumsum(first) - 1]
            st = st.filter(pa.array(rank < k))
            doc = b["doc_id"].combine_chunks().take(st["p"])
            return pa.table({"doc_id": doc, "term": st["term"],
                             "tf": st["tf"], "df": st["df"],
                             "score": st["score"]})

        return ds.map_batches(score_topk, batch_format="pyarrow")

    # open-vocabulary fallback: shuffle plan (two wide sorts)
    from zhtml_ray.stages.sortagg import (sorted_head_n_per_group,
                                          sorted_lookup_join)

    def tf_partial(b: pa.Table) -> pa.Table:
        t = _explode(b)
        g = t.group_by(["p", "term"]).aggregate([("term", "count")])
        doc = b["doc_id"].combine_chunks().take(g["p"])
        return pa.table({"doc_id": doc, "term": g["term"],
                         "tf": pc.cast(g["term_count"], pa.int64())})

    tfds = compact_blocks(
        ds.map_batches(tf_partial, batch_format="pyarrow"))
    joined = sorted_lookup_join(tfds, df, "term", ["df"])

    def score(b: pa.Table) -> pa.Table:
        s = pc.divide(pc.multiply(b["tf"],
                                  pa.scalar(n_docs, pa.int64())),
                      b["df"])
        t = b.append_column("score", s)
        return t.append_column("neg", pc.negate_checked(s))

    scored = compact_blocks(
        joined.map_batches(score, batch_format="pyarrow"))
    top = sorted_head_n_per_group(scored, ["doc_id"], ["neg", "term"], k)
    return top.map_batches(lambda b: b.drop_columns(["neg"]),
                           batch_format="pyarrow")


def _sql_tfidf_top_terms(k: int = 5) -> str:
    from zhtml_ray.functions.textstats import PY_WS_RE2_IN
    ws = "[" + PY_WS_RE2_IN + "]+"
    return f"""
WITH t AS (
  SELECT doc_id, u.t AS term
  FROM documents, unnest(regexp_split_to_array(text, '{ws}')) AS u(t)
  WHERE u.t <> ''),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM t GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1)
SELECT doc_id, term, tf, df,
       tf * (SELECT count(*) FROM documents)::BIGINT // df AS score
FROM tf JOIN df USING (term)
QUALIFY row_number() OVER (PARTITION BY doc_id
                           ORDER BY score DESC, term) <= {k}
"""


def q_token_budget(sf_dir: str, budget: int = 100_000):
    """Training-mixture budget apportionment (X87): split a fixed
    token budget across sources proportionally to their available
    chars using LARGEST-REMAINDER (Hamilton) rounding — allocations
    sum EXACTLY to the budget, all arithmetic integer (quota =
    budget·w // total; leftovers go to the largest remainders, source
    ASC ties). Per-batch char-sum partials → ≤ #sources groupby →
    apportionment on the tiny driver table."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("source").aggregate([("n_chars", "sum")])
        return g.rename_columns(["source", "w"])

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("source").aggregate(Sum("w", alias_name="w")) \
        .to_pandas().sort_values("source").reset_index(drop=True)
    w = agg["w"].to_numpy(np.int64)
    total = int(w.sum())
    base = budget * w // total
    rem = budget * w - base * total
    extra = budget - int(base.sum())
    # largest remainder, ties to the lexically-smallest source (rows
    # are already source-ascending, so stable argsort on -rem works)
    order = np.argsort(-rem, kind="stable")
    bump = np.zeros(len(w), np.int64)
    bump[order[:extra]] = 1
    return pd.DataFrame({"source": agg["source"], "w": w,
                         "alloc": base + bump})


def _sql_token_budget(budget: int = 100_000) -> str:
    return f"""
WITH s AS (SELECT source, sum(n_chars)::BIGINT AS w
           FROM documents GROUP BY 1),
t AS (SELECT sum(w)::BIGINT AS tw FROM s),
a AS (SELECT source, w,
             ({budget}::BIGINT * w) // (SELECT tw FROM t) AS base,
             ({budget}::BIGINT * w) % (SELECT tw FROM t) AS rem
      FROM s),
l AS (SELECT {budget} - sum(base)::BIGINT AS extra FROM a)
SELECT source, w,
       base + CASE WHEN row_number() OVER (ORDER BY rem DESC, source)
                        <= (SELECT extra FROM l)
                   THEN 1 ELSE 0 END AS alloc
FROM a
"""


def q_json_props(sf_dir: str):
    """X125: semi-structured projection — extract the integer `k`
    field from the JSON `props` column into a typed column, plus a
    per-type aggregate of it. The parse is ONE vectorized RE2
    `extract_regex` per batch (exact for this corpus's flat
    unescaped-integer objects — a full JSON parser is overkill for a
    typed-projection hot path and DuckDB's `->>` agrees on every row,
    which the gate certifies); missing/malformed ⇒ null. Zero
    shuffles for the projection; the aggregate is the usual per-batch
    combine + ≤ types-row groupby."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from zhtml_ray.stages.sortagg import sorted_sum_per_group
    from zhtml_ray.stages.util import drop_empty_blocks

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "props"])

    def partial(b: pa.Table) -> pa.Table:
        m = pc.extract_regex(pc.fill_null(b["props"], ""),
                             r'"k"\s*:\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        t = pa.table({"event_type": b["event_type"], "k": k})
        t = t.filter(pc.is_valid(t["k"]))
        g = t.group_by("event_type").aggregate([("k", "sum"),
                                                ("k", "count")])
        return g.rename_columns(["event_type", "k_sum", "n"])

    return sorted_sum_per_group(
        drop_empty_blocks(ds.map_batches(partial,
                                         batch_format="pyarrow")),
        ["event_type"], ["k_sum", "n"])


SQL_JSON_PROPS = """
WITH x AS (SELECT event_type,
                  CASE WHEN props IS NOT NULL AND json_valid(props)
                       THEN CAST(props->>'$.k' AS BIGINT) END AS k
           FROM events)
SELECT event_type, sum(k)::BIGINT AS k_sum, count(k)::BIGINT AS n
FROM x GROUP BY event_type
"""


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_event_pivot(sf_dir: str):
    """X120: PIVOT — the long→wide reshape of feature engineering
    (one row per user, one count column per event type). Like SQL
    PIVOT, the output schema is STATIC (`_EVENT_TYPES`); an unseen
    type would need a discovery pass, deliberately out of scope.
    Per-batch Arrow (user, type) count partials widen to one row per
    (user, type) with the count scattered into its column, then ONE
    `sorted_sum_per_group` on user sums the wide rows — the shuffle
    moves ≤ types×users short integer rows, never raw events."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from zhtml_ray.stages.sortagg import sorted_sum_per_group
    from zhtml_ray.stages.util import drop_empty_blocks

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    ncols = [f"n_{t}" for t in _EVENT_TYPES]

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["user_id", "event_type"]).aggregate(
            [("event_type", "count")])
        cnt = pc.cast(g["event_type_count"], pa.int64())
        zero = pa.scalar(0, pa.int64())
        cols = {"user_id": g["user_id"]}
        for t, nc in zip(_EVENT_TYPES, ncols):
            cols[nc] = pc.if_else(pc.equal(g["event_type"], t),
                                  cnt, zero)
        return pa.table(cols)

    return sorted_sum_per_group(
        drop_empty_blocks(ds.map_batches(partial,
                                         batch_format="pyarrow")),
        ["user_id"], ncols)


def _sql_event_pivot() -> str:
    arms = ",\n       ".join(
        f"count(*) FILTER (WHERE event_type = '{t}')::BIGINT AS n_{t}"
        for t in _EVENT_TYPES)
    return f"""
SELECT user_id,
       {arms}
FROM events GROUP BY user_id
"""


def q_event_melt(sf_dir: str):
    """X121: MELT/UNPIVOT — the wide→long inverse of X120: the pivot
    table melts back to (user_id, event_type, n) rows, zero-count
    cells dropped. The melt itself is a zero-shuffle pure map (each
    wide row explodes into ≤ types rows); the oracle is the plain
    long-form GROUP BY — an independent plan that never materializes
    the wide table, so the gate certifies pivot∘melt ≡ groupby."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    wide = q_event_pivot(sf_dir)
    ncols = [f"n_{t}" for t in _EVENT_TYPES]

    def melt(b: pa.Table) -> pa.Table:
        k = len(_EVENT_TYPES)
        ids = b["user_id"].combine_chunks().to_numpy(
            zero_copy_only=False)
        mat = np.stack([b[c].combine_chunks().to_numpy(
            zero_copy_only=False) for c in ncols], axis=1)
        flat = mat.reshape(-1)
        keep = flat > 0
        uid = np.repeat(ids, k)[keep]
        et = np.tile(np.asarray(_EVENT_TYPES, object),
                     len(ids))[keep]
        return pa.table({
            "user_id": pa.array(uid, pa.int64()),
            "event_type": pa.array(et.tolist(), pa.string()),
            "n": pa.array(flat[keep], pa.int64())})

    return wide.map_batches(melt, batch_format="pyarrow")


SQL_EVENT_MELT = """
SELECT user_id, event_type, count(*)::BIGINT AS n
FROM events GROUP BY user_id, event_type
"""


_DRIFT_ROOT = "/tmp/zhtml_ray_drift"


def _write_drift_v2(d: str, sf_dir: str) -> None:
    """``q_schema_drift_union``'s v2 snapshot of the documents table,
    written as parquet under ``d``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def to_v2(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks()
        return pa.table({
            "doc_id": pc.add(ids, pa.scalar(10 ** 9, pa.int64())),
            "n_chars": pc.cast(b["n_chars"], pa.int32()),
            "crawl_ts": pc.multiply(ids, pa.scalar(1000, pa.int64()))})

    _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        to_v2, batch_format="pyarrow").write_parquet(d)


def q_schema_drift_union(sf_dir: str):
    """X126: schema-evolution union — combine two AT-REST snapshots
    whose schemas drifted (v2: ids offset by 1e9, `n_chars` narrowed
    to int32, `lang` column DROPPED, new `crawl_ts` column added) into
    one stream under a declared target schema: missing columns
    null-fill, narrow ints widen, column order aligns
    (`stages/util.py:harmonize_union` — pure maps + zero-copy union,
    no shuffle). v2 is derived deterministically and written to a
    per-pid fixture dir keyed by ``sf_dir`` (``_ensure_pid_fixture``)
    first so the drift is exercised at the PARQUET boundary, not in
    memory."""
    import pyarrow as pa
    import ray.data as rd

    from zhtml_ray.stages.util import harmonize_union

    v2dir = _ensure_pid_fixture(_DRIFT_ROOT, sf_dir, _write_drift_v2)
    target = pa.schema([("doc_id", pa.int64()),
                        ("lang", pa.string()),
                        ("n_chars", pa.int64()),
                        ("crawl_ts", pa.int64())])
    v1 = _docs(sf_dir, ["doc_id", "lang", "n_chars"])
    v2 = rd.read_parquet(v2dir)
    return harmonize_union([v1, v2], target)


SQL_SCHEMA_DRIFT_UNION = """
SELECT doc_id, lang, n_chars, NULL::BIGINT AS crawl_ts FROM documents
UNION ALL
SELECT doc_id + 1000000000, NULL::VARCHAR, n_chars::INT::BIGINT,
       doc_id * 1000 FROM documents
"""


def q_user_mode(sf_dir: str):
    """Per-user MODE (most frequent event type, ties → lexically
    smallest): per-batch (user, type) Arrow count partials → one
    sorted run-sum pass over the composite key → grouped-first by
    user with (−count, type) tie keys. Two range shuffles of
    (user, type, count) rows — never raw events — and the second
    input is compacted (sort-chain rule)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from zhtml_ray.stages.sortagg import (sorted_first_per_group,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["user_id", "event_type"]).aggregate(
            [("event_type", "count")])
        return g.rename_columns(["user_id", "event_type", "cnt"])

    # sorted_sum, not groupby().aggregate(): ~8× cheaper on
    # high-cardinality keys (BENCH/BASELINE.md sorted_sum section)
    counts = sorted_sum_per_group(
        drop_empty_blocks(
            ds.map_batches(partial, batch_format="pyarrow")),
        ["user_id", "event_type"], ["cnt"])

    def neg(b: pa.Table) -> pa.Table:
        c = b["cnt"].to_numpy(zero_copy_only=False)
        return b.append_column("neg_cnt", pa.array(-c, pa.int64()))

    winners = sorted_first_per_group(
        compact_blocks(counts.map_batches(neg, batch_format="pyarrow")),
        ["user_id"], tie_cols=("neg_cnt", "event_type"))

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"user_id": b["user_id"],
                         "mode_type": b["event_type"],
                         "mode_n": b["cnt"]})

    return winners.map_batches(project, batch_format="pyarrow")


SQL_USER_MODE = """
SELECT user_id, event_type AS mode_type, count(*)::BIGINT AS mode_n
FROM events
GROUP BY user_id, event_type
QUALIFY row_number() OVER (PARTITION BY user_id
                           ORDER BY count(*) DESC, event_type) = 1
"""


def q_user_first_last(sf_dir: str):
    """FIRST_VALUE / LAST_VALUE per user (first and last event type by
    time) in ONE sorted pass: range sort on (user, ts, event_id),
    interior runs read their endpoints directly, edge-straddling
    users resolve whole in the per-group pass. No second shuffle, no
    driver-side merge of two grouped-first outputs."""
    import pyarrow as pa
    import ray.data as rd

    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id",
                                  "event_type"])

    empty = pa.table({"user_id": pa.array([], pa.int64()),
                      "first_type": pa.array([], pa.string()),
                      "last_type": pa.array([], pa.string())})

    def first_last(b: pa.Table, starts, ends):
        types = b["event_type"].combine_chunks()
        s = pa.array(starts, pa.int64())
        return pa.table({"user_id": b["user_id"].take(s),
                         "first_type": types.take(s),
                         "last_type": types.take(
                             pa.array(ends - 1, pa.int64()))})

    return sorted_bucket_apply(ds, "user_id",
                               ["user_id", "ts", "event_id"],
                               first_last, empty)


SQL_USER_FIRST_LAST = """
SELECT DISTINCT user_id,
       first_value(event_type) OVER w AS first_type,
       last_value(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING
                    AND UNBOUNDED FOLLOWING) AS last_type
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_user_median_value(sf_dir: str):
    """Exact per-user MEDIAN over a DOUBLE column — the value-counts
    quantile plan (X34/X42) doesn't apply to continuous values (the
    distinct-value table would be the data), so this is the sort
    shape: ONE range shuffle on (user, value), block-local vectorized
    bracketing-rank picks for runs fully inside their block, edge-
    straddling users whole in the per-group pass. Interpolation is
    the DuckDB-pinned ``lo*(1-f)+hi*f`` (f ∈ {0, 0.5} here — both
    branches exact)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "value"])

    empty = pa.table({"user_id": pa.array([], pa.int64()),
                      "med_value": pa.array([], pa.float64())})

    def med_of(b: pa.Table, starts, ends) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        h = (ends - starts - 1) * 0.5
        k0 = np.floor(h).astype(np.int64)
        f = h - k0
        lo = v[starts + k0]
        hi = v[starts + np.ceil(h).astype(np.int64)]
        return pa.table({
            "user_id": b["user_id"].take(pa.array(starts, pa.int64())),
            "med_value": pa.array(lo * (1 - f) + hi * f, pa.float64())})

    return sorted_bucket_apply(ds, "user_id", ["user_id", "value"],
                               med_of, empty)


SQL_USER_MEDIAN_VALUE = """
SELECT user_id, quantile_cont(value, 0.5) AS med_value
FROM events GROUP BY user_id
"""


def q_value_ts_corr(sf_dir: str):
    """Per-type Pearson correlation of (value, event time) — the
    distributed-moments aggregate: each batch emits the six sufficient
    statistics (n, Σx, Σy, Σx², Σy², Σxy) per group, a tiny groupby
    sums them, and BOTH engines derive the correlation from the same
    DECIMAL-PINNED moments (the q14 pinned-ratio rule: a float
    function of sums is only gate-stable if the sums are pinned first
    — two engines' raw Σ differ in accumulation order). Pins are
    WHOLE-number (0 dp): y is centered DAYS since 2024-01-01 (fixture
    range; |y|≤31, |x|≤~600), so every moment stays ≲1e11 ≪ 2^53 and
    the pin's 0.5 margin dwarfs both accumulation-order noise and any
    per-term epoch()/division last-ulp skew between the engines."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    import ray.data as rd

    DAY0 = 19723.0  # 2024-01-01 in days-since-epoch, shared w/ oracle

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts", "value"])

    def partial(b: pa.Table) -> pa.Table:
        x = b["value"].to_numpy(zero_copy_only=False)
        us = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        y = us.astype(np.float64) / 1e6 / 86400.0 - DAY0
        t = pa.table({"event_type": b["event_type"],
                      "n": pa.array(np.ones(len(x), np.int64)),
                      "sx": pa.array(x), "sy": pa.array(y),
                      "sxx": pa.array(x * x), "syy": pa.array(y * y),
                      "sxy": pa.array(x * y)})
        g = t.group_by("event_type").aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxx", "sum"), ("syy", "sum"), ("sxy", "sum")])
        return g.rename_columns(["event_type", "n", "sx", "sy",
                                 "sxx", "syy", "sxy"])

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("event_type").aggregate(
            Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"), Sum("sxx", alias_name="sxx"),
            Sum("syy", alias_name="syy"), Sum("sxy", alias_name="sxy"))
    pdf = agg.to_pandas()
    for c in ("sx", "sy", "sxx", "syy", "sxy"):
        pdf[c] = np.floor(pdf[c] + 0.5)
    n = pdf["n"].astype("float64")
    cov = pdf["sxy"] - pdf["sx"] * pdf["sy"] / n
    vx = pdf["sxx"] - pdf["sx"] * pdf["sx"] / n
    vy = pdf["syy"] - pdf["sy"] * pdf["sy"] / n
    pdf["corr_vt"] = np.floor(cov / np.sqrt(vx * vy) * 1e6 + 0.5) / 1e6
    out = pdf[["event_type", "n", "corr_vt"]]
    return out.sort_values("event_type").reset_index(drop=True)


SQL_VALUE_TS_CORR = """
WITH m AS (
  SELECT event_type, count(*) AS n,
    floor(sum(value) + 0.5) AS sx,
    floor(sum(y) + 0.5) AS sy,
    floor(sum(value * value) + 0.5) AS sxx,
    floor(sum(y * y) + 0.5) AS syy,
    floor(sum(value * y) + 0.5) AS sxy
  FROM (SELECT event_type, value,
               epoch(ts) / 86400 - 19723 AS y
        FROM events)
  GROUP BY event_type)
SELECT event_type, n,
       floor((sxy - sx * sy / n)
             / sqrt((sxx - sx * sx / n) * (syy - sy * sy / n))
             * 1e6 + 0.5) / 1e6 AS corr_vt
FROM m ORDER BY event_type
"""


def q_approx_distinct_users(sf_dir: str):
    """HyperLogLog approximate COUNT(DISTINCT user) per event type
    (functions/sketch.py): per-batch register combiner → shuffle of
    2**p bytes per (group × ~1024 batches) → bounded per-group fold.
    The exact-distinct plan (`events_distinct_users`) shuffles every
    (type, user) pair; this one moves KBs per group at ANY cardinality.
    Golden-pinned EXACTLY (not within tolerance): max-merge registers
    are layout/schedule/duplication-invariant, so the distributed run
    must reproduce the serial pin byte-for-byte. Accuracy vs exact is
    pytest-gated (tests/test_sketch.py)."""
    import ray.data as rd

    from zhtml_ray.functions.sketch import approx_distinct
    from zhtml_ray.pipelines.golden import ensure_golden

    ensure_golden("approx_distinct_users", sf_dir)
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    return approx_distinct(ds, "event_type", "user_id", p=12)


def q_value_loghist(sf_dir: str):
    """DDSketch-style per-event-type p50/p90/p99 of `value` from a
    MERGEABLE base-2 log histogram (functions/sketch.py:
    loghist_quantiles): per-batch exact-bit-scan bucketing → one
    sorted run-sum over (group, bucket) → driver selection over the
    ≤ groups×128-row merged sketch. Unlike the exact quantile plans
    (`group_quantiles*`, `user_median_value`) nothing is sorted by
    VALUE and no group ever converges on one worker — sketch size is
    independent of row count, the scale path for quantiles at 100 TB.
    Deterministic (integer pins + bit scans, no float log), so the
    DuckDB oracle replicates it exactly."""
    import ray.data as rd

    from zhtml_ray.functions.sketch import loghist_quantiles

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "value"])
    return loghist_quantiles(ds, "event_type", "value")


def _sql_value_loghist() -> str:
    from zhtml_ray.functions.sketch import sql_loghist_quantiles
    return sql_loghist_quantiles(
        "SELECT event_type, value FROM events", "event_type", "value")


def q_session_label(sf_dir: str):
    """Range join (event → the session window containing it) composed
    from the as-of primitive: session windows are disjoint per user and
    every event lies in exactly one, so "latest session_start ≤ ts" IS
    the containing window — no post-filter, no all-pairs interval
    probe. The general pattern for joining points into disjoint
    intervals at scale."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from zhtml_ray.stages.asof import asof_join

    probe = rd.read_parquet(f"{sf_dir}/events.parquet",
                            columns=["event_id", "ts", "user_id"])
    sessions = q_events_sessionize(sf_dir)

    def as_build(b: pa.Table) -> pa.Table:
        # uid only tie-breaks the sort; (user, session_start) is unique
        return pa.table({
            "event_id": pc.cast(b["session_start"], pa.int64()),
            "user_id": b["user_id"], "ts": b["session_start"],
            "session_start": b["session_start"]})

    build = sessions.map_batches(as_build, batch_format="pyarrow")
    joined = asof_join(probe, build, by="user_id", on="ts",
                       uid="event_id", payload_cols=["session_start"])
    return joined.select_columns(["event_id", "user_id",
                                  "session_start"])


def _sql_session_label() -> str:
    return f"""
    WITH sessions AS ({SQL_EVENTS_SESSIONIZE})
    SELECT e.event_id, e.user_id, s.session_start
    FROM events e JOIN sessions s
      ON e.user_id = s.user_id
     AND e.ts BETWEEN s.session_start AND s.session_end
    """




def _gram_hashes(texts, n=8):
    """Per-row word n-gram rolling hashes, fully vectorized: split ->
    per-batch dictionary-encode -> per-unique-word sha1-derived 64-bit
    word hash -> numpy polynomial rolling hash (uint64 wraparound).
    Returns (doc_index_per_gram, gram_hash) numpy arrays. Content-
    based (word hashes, not dictionary codes), so values agree across
    batches/blocks."""
    import hashlib

    import numpy as np
    import pyarrow.compute as pc

    words = pc.split_pattern(texts, " ")
    offs = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = words.values
    if len(flat) == 0:
        return (np.array([], np.int64), np.array([], np.uint64))
    enc = pc.dictionary_encode(flat)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = enc.dictionary.to_pylist()
    vh = np.array([int.from_bytes(
        hashlib.sha1(w.encode("utf-8")).digest()[:8], "big")
        for w in vocab], np.uint64)
    wh = vh[codes]
    total = len(wh)
    if total < n:
        return (np.array([], np.int64), np.array([], np.uint64))
    B = np.uint64(1099511628211)
    acc = np.zeros(total - n + 1, np.uint64)
    mult = np.uint64(1)
    with np.errstate(over="ignore"):
        for k in range(n):
            acc += wh[k:total - n + 1 + k] * mult
            mult *= B
    # windows must not cross document boundaries
    starts = np.arange(total - n + 1)
    doc_of = np.searchsorted(offs, starts, side="right") - 1
    valid = starts + n <= offs[doc_of + 1]
    return doc_of[valid], acc[valid]


def q_decontaminate(sf_dir: str, n: int = 8, budget: int = 2_000_000):
    """Benchmark decontamination: flag every non-benchmark document
    sharing at least one word-8-gram with the benchmark set (source =
    'src0' stands in for a held-out eval set). Returns (doc_id,
    n_hits) with n_hits = distinct shared grams, docs with hits only.

    Scale shape: benchmark gram hashes are naturally small (eval
    sets), so they broadcast once via ray.put as a SORTED numpy array
    (np.searchsorted membership per batch); if the distinct-gram count
    exceeds ``budget`` the path falls back to the sort-merge lookup
    join + distinct-pair count, never an unbounded driver set.
    Per-doc distinct counting is batch-local and exact because a doc's
    grams never split across batches. Engine matches on 64-bit rolling
    hashes while the SQL oracle compares gram strings — equivalent
    modulo hash collisions (the minhash/simhash precedent)."""
    import numpy as np
    import pyarrow as pa
    import ray

    ds = _docs(sf_dir, ["doc_id", "text", "source"])
    bench = ds.filter(expr="source == 'src0'")
    rest = ds.filter(expr="source != 'src0'")

    def bench_grams(b: pa.Table) -> pa.Table:
        _, h = _gram_hashes(b["text"].combine_chunks(), n)
        return pa.table({"h": pa.array(np.unique(h), pa.uint64())})

    parts = []
    seen = None
    over_budget = False
    for blk in bench.map_batches(bench_grams, batch_format="pyarrow")                     .iter_batches(batch_size=None, batch_format="pyarrow"):
        parts.append(blk["h"].to_numpy(zero_copy_only=False))
        if sum(len(x) for x in parts) > budget:
            over_budget = True
            break
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "n_hits": pa.array([], pa.int64())})
    if over_budget:
        return _decontaminate_join(rest, bench, n, empty)
    seen = (np.unique(np.concatenate(parts)) if parts
            else np.array([], np.uint64))
    if len(seen) == 0:
        return empty
    bref = ray.put(seen)

    def score(b: pa.Table) -> pa.Table:
        bset = ray.get(bref)
        di, h = _gram_hashes(b["text"].combine_chunks(), n)
        if len(h) == 0:
            return empty
        pos = np.searchsorted(bset, h)
        hit = (pos < len(bset)) & (bset[np.minimum(pos, len(bset) - 1)] == h)
        di, h = di[hit], h[hit]
        if len(h) == 0:
            return empty
        order = np.lexsort((h, di))
        di, h = di[order], h[order]
        uniq = np.r_[True, (di[1:] != di[:-1]) | (h[1:] != h[:-1])]
        di = di[uniq]
        docs, counts = np.unique(di, return_counts=True)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)[docs]
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_hits": pa.array(counts, pa.int64())})

    return rest.map_batches(score, batch_format="pyarrow")


def _decontaminate_join(rest, bench, n, empty):
    """Budget-exceeded path: distinct (doc_id, gram) pairs sort-merge
    joined against distinct benchmark grams, then per-doc counts —
    all range shuffles, nothing on the driver."""
    import numpy as np
    import pyarrow as pa
    from zhtml_ray.stages.sortagg import (sorted_first_per_group,
                                          sorted_lookup_join)

    def explode(b: pa.Table) -> pa.Table:
        di, h = _gram_hashes(b["text"].combine_chunks(), n)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": pa.array(ids[di] if len(di) else [], pa.int64()),
            "h": pa.array(h, pa.uint64())})

    bg = sorted_first_per_group(
        bench.map_batches(explode, batch_format="pyarrow")
        .map_batches(lambda b: b.select(["h"]), batch_format="pyarrow"),
        ["h"])
    pairs = sorted_first_per_group(
        rest.map_batches(explode, batch_format="pyarrow"),
        ["doc_id", "h"])
    matched = sorted_lookup_join(pairs, bg, "h", [])
    counts = matched.groupby("doc_id").count()

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"],
                         "n_hits": b["count()"].cast(pa.int64())})

    return counts.map_batches(rename, batch_format="pyarrow")


SQL_DECONTAMINATE = """
WITH ws AS (
  SELECT doc_id, source, string_split(text, ' ') AS w FROM documents
), grams AS (
  SELECT doc_id, source,
         unnest([array_to_string(w[i:i+7], ' ')
                 FOR i IN generate_series(1, len(w) - 7)]) AS g
  FROM ws WHERE len(w) >= 8
), bench AS (SELECT DISTINCT g FROM grams WHERE source = 'src0')
SELECT g2.doc_id, count(DISTINCT g2.g) AS n_hits
FROM grams g2 JOIN bench USING (g)
WHERE g2.source <> 'src0'
GROUP BY g2.doc_id
"""




def q_pack_sequences(sf_dir: str, window: int = 2048):
    """Pretraining sequence packing: documents concatenate in doc_id
    order into fixed ``window``-token training sequences; each doc
    reports its global token offset and the sequence range it spans.

    Scale shape: a DISTRIBUTED PREFIX SUM — one range sort by doc_id,
    per-block token sums collected to the driver (block-count-bounded,
    not data-bounded), exclusive prefix offsets broadcast back keyed by
    each block's first doc_id, then block-local cumsum + offset. No
    row data ever lands on the driver."""
    import numpy as np
    import pyarrow as pa
    import ray
    from zhtml_ray.functions.textstats import token_count_batch
    from zhtml_ray.stages.util import drop_empty_blocks

    ds = _docs(sf_dir, ["doc_id", "text"])

    def counts(b: pa.Table) -> pa.Table:
        return token_count_batch(b).select(["doc_id", "n_tokens"])

    toks = drop_empty_blocks(
        ds.map_batches(counts, batch_format="pyarrow"))         .sort("doc_id").materialize()

    def block_sum(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"first_doc": pa.array([], pa.int64()),
                             "tok_sum": pa.array([], pa.int64())})
        return pa.table({
            "first_doc": pa.array([b["doc_id"][0].as_py()], pa.int64()),
            "tok_sum": pa.array(
                [int(np.sum(b["n_tokens"].to_numpy(
                    zero_copy_only=False)))], pa.int64())})

    sums = sorted(
        ((r["first_doc"], r["tok_sum"]) for r in
         toks.map_batches(block_sum, batch_size=None,
                          batch_format="pyarrow").take_all()),
        key=lambda t: t[0])
    offsets, acc = {}, 0
    for fd, s in sums:
        offsets[fd] = acc
        acc += s
    oref = ray.put(offsets)

    def pack(b: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_tokens": pa.array([], pa.int64()),
                          "tok_start": pa.array([], pa.int64()),
                          "first_seq": pa.array([], pa.int64()),
                          "n_seqs": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        nt = b["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        base = ray.get(oref)[b["doc_id"][0].as_py()]
        start = base + np.r_[0, np.cumsum(nt)[:-1]]
        first = start // window
        last = (start + np.maximum(nt, 1) - 1) // window
        return pa.table({
            "doc_id": b["doc_id"],
            "n_tokens": pa.array(nt, pa.int64()),
            "tok_start": pa.array(start, pa.int64()),
            "first_seq": pa.array(first, pa.int64()),
            "n_seqs": pa.array(last - first + 1, pa.int64()),
        })

    return toks.map_batches(pack, batch_size=None, batch_format="pyarrow")


SQL_PACK_SEQUENCES = r"""
WITH t AS (
  SELECT doc_id,
         len(regexp_split_to_array(trim(text), '\s+')) AS n_tokens
  FROM documents
), o AS (
  SELECT doc_id, n_tokens,
         CAST(coalesce(sum(n_tokens) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
           AND 1 PRECEDING), 0) AS BIGINT) AS tok_start
  FROM t
)
SELECT doc_id, n_tokens, tok_start,
       tok_start // 2048 AS first_seq,
       (tok_start + greatest(n_tokens, 1) - 1) // 2048
         - tok_start // 2048 + 1 AS n_seqs
FROM o
"""


# -------------------------------------------------- corpus statistics

def _sql_words(src: str = "documents") -> str:
    """Shared words-CTE body: Python str.split() (full Unicode
    whitespace) replicated as the explicit _WS RE2 class."""
    return f"""
  SELECT doc_id,
         CASE WHEN wtext = '' THEN []::VARCHAR[]
              ELSE regexp_split_to_array(wtext, '{_WS}+') END AS words
  FROM (SELECT doc_id,
               regexp_replace(coalesce(text, ''),
                              '^{_WS}+|{_WS}+$', '', 'g') AS wtext
        FROM {src})
"""


def q_rep_signals(sf_dir: str):
    """Within-document repetition signals (Gopher repetition rules):
    distinct-word count, top-word fraction, duplicate-bigram fraction.
    Pure per-batch map — numpy run decomposition over
    dictionary-encoded word codes, no per-word Python in the counts."""
    from zhtml_ray.functions.corpusstats import rep_signals_batch
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(rep_signals_batch, batch_format="pyarrow")


def _sql_rep_signals() -> str:
    # bigram identity: words never contain whitespace (they come from a
    # whitespace split), so 'w1 w2' join equals pair identity
    return f"""
WITH w AS ({_sql_words()}),
b AS (
  SELECT doc_id, words, len(words)::BIGINT AS n_words,
         CASE WHEN len(words) >= 2
              THEN list_transform(range(1, len(words)),
                                  i -> words[i] || ' ' || words[i+1])
              ELSE []::VARCHAR[] END AS bigrams
  FROM w
),
u AS (SELECT doc_id, unnest(words) AS word FROM w),
wc AS (SELECT doc_id, word, count(*) AS c FROM u GROUP BY doc_id, word),
top AS (SELECT doc_id, max(c) AS mc, count(*) AS nd FROM wc GROUP BY doc_id)
SELECT b.doc_id, b.n_words,
       coalesce(top.nd, 0)::BIGINT AS n_distinct_words,
       CASE WHEN b.n_words > 0
            THEN coalesce(top.mc, 0)::DOUBLE / b.n_words
            ELSE 0.0 END AS top_word_frac,
       CASE WHEN len(b.bigrams) > 0
            THEN 1.0 - (len(list_distinct(b.bigrams))::DOUBLE
                        / len(b.bigrams))
            ELSE 0.0 END AS dup_bigram_frac
FROM b LEFT JOIN top USING (doc_id)
"""


def q_dup_ngrams(sf_dir: str):
    """Cross-document duplicate word-5-gram fraction per document
    (RefinedWeb/Gopher dedup signal). Two range-shuffle sorts end to
    end on the sortagg primitives; doc-frequency is annotated onto the
    gram rows block-locally in the gram sort — no join stage and
    nothing on the driver."""
    from zhtml_ray.functions.corpusstats import dup_ngrams
    ds = _docs(sf_dir, ["doc_id", "text"])
    return dup_ngrams(ds, n=5)


def _sql_dup_ngrams(n: int = 5) -> str:
    # docs with < n words emit no grams and no output row (both sides);
    # range(1, len-(n-2)) gives i = 1 .. len-n+1, list_slice inclusive
    return f"""
WITH w AS ({_sql_words()}),
g0 AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(words) - {n - 2}),
                i -> array_to_string(list_slice(words, i, i + {n - 1}),
                                     ' '))) AS gram
  FROM w WHERE len(words) >= {n}
),
g AS (SELECT DISTINCT doc_id, gram FROM g0),
df AS (SELECT gram, count(*) AS c FROM g GROUP BY gram)
SELECT g.doc_id,
       count(*)::BIGINT AS n_grams,
       sum(CASE WHEN df.c > 1 THEN 1 ELSE 0 END)::BIGINT AS n_dup_grams,
       sum(CASE WHEN df.c > 1 THEN 1 ELSE 0 END)::DOUBLE / count(*)
           AS dup_frac
FROM g JOIN df USING (gram)
GROUP BY g.doc_id
"""


def q_unigram_logprob(sf_dir: str):
    """Per-doc mean unigram log-probability (KenLM-style corpus
    quality signal): ``ngram_logprob(ds, 1)`` — corpus frequencies via
    combiner + sorted run-sum, scoring via a size-picked broadcast or
    merge-join-as-sort tier (functions/corpusstats.py:ngram_logprob)."""
    from zhtml_ray.functions.corpusstats import ngram_logprob
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ngram_logprob(ds, 1)


def _sql_unigram_logprob() -> str:
    # mean_logprob pinned with the house floor(x*1e6+0.5)/1e6 formula
    # (float sums are associativity-sensitive across the parallel
    # engine vs DuckDB's sequential sum); values here are negative but
    # the formula is applied identically on both sides
    return f"""
WITH w AS ({_sql_words()}),
u AS (SELECT doc_id, unnest(words) AS word FROM w),
freq AS (SELECT word, count(*)::DOUBLE AS c FROM u GROUP BY word),
tot AS (SELECT count(*)::DOUBLE AS t FROM u),
per AS (
  SELECT u.doc_id, count(*)::BIGINT AS n_tokens,
         sum(ln(freq.c / tot.t)) AS s
  FROM u JOIN freq USING (word) CROSS JOIN tot
  GROUP BY u.doc_id)
SELECT doc_id, n_tokens,
       floor(s / n_tokens * 1e6 + 0.5) / 1e6 AS mean_logprob
FROM per
"""


_PPL_QS = (1 / 3, 2 / 3)  # tercile cut points (CCNet head/middle/tail)


def q_ppl_buckets(sf_dir: str):
    """X116: CCNet-style perplexity bucketing (Wenzek et al. 2020) —
    split the corpus into head/middle/tail thirds by the unigram-LM
    quality score. Terciles are EXACT global ``quantile_disc``
    thresholds (value at 1-based rank ceil(n·q) — the rank rule
    verified against DuckDB across n/q grids) computed WITHOUT a
    global sort: the 6-dp-pinned scores live on a 1e-6 grid, so a
    per-batch value-counts partial is bounded by the pinned value
    RANGE (score span × 1e6 rows, invariant in corpus size — the
    `length_quantiles` trick) and the threshold falls out of one
    driver cumsum. Bucket assignment is a pure map comparing integer
    micro-units, which orders identically to the double compare DuckDB
    runs (k ↦ k/1e6 is monotone and injective below 2^53). The scores
    are ``corpusstats.ngram_logprob(ds, 1)``."""
    import math

    import numpy as np
    import pyarrow as pa

    from zhtml_ray.functions.corpusstats import ngram_logprob

    ds = _docs(sf_dir, ["doc_id", "text"])
    # one row per doc with >= 1 token; materialized once — it feeds
    # both the threshold pass and the assignment pass
    scores = ngram_logprob(ds, 1).materialize()
    out_empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "mean_logprob": pa.array([], pa.float64()),
                          "ppl_bucket": pa.array([], pa.string())})
    if scores.count() == 0:
        import ray.data as rd
        return rd.from_arrow(out_empty)

    def _micro(col) -> np.ndarray:
        # pinned floats are k/1e6 exactly; rint recovers the integer k
        v = col.combine_chunks().to_numpy(zero_copy_only=False)
        return np.rint(v * 1e6).astype(np.int64)

    def vc(b: pa.Table) -> pa.Table:
        u, c = np.unique(_micro(b["mean_logprob"]), return_counts=True)
        return pa.table({"micro": pa.array(u, pa.int64()),
                         "cnt": pa.array(c, pa.int64())})

    parts = [pa.table(b) for b in scores
             .map_batches(vc, batch_format="pyarrow")
             .iter_batches(batch_size=None, batch_format="pyarrow")
             if b.num_rows]
    tbl = (pa.concat_tables(parts, promote_options="default")
           .group_by(["micro"]).aggregate([("cnt", "sum")])
           .sort_by("micro"))
    vals = tbl["micro"].to_numpy(zero_copy_only=False)
    cum = np.cumsum(tbl["cnt_sum"].to_numpy(zero_copy_only=False))
    n = int(cum[-1])
    t1, t2 = (int(vals[int(np.searchsorted(
        cum, max(1, math.ceil(n * q))))]) for q in _PPL_QS)

    def assign(b: pa.Table) -> pa.Table:
        m = _micro(b["mean_logprob"])
        bucket = np.where(m <= t1, "tail",
                          np.where(m <= t2, "middle", "head"))
        return pa.table({"doc_id": b["doc_id"],
                         "mean_logprob": b["mean_logprob"],
                         "ppl_bucket": pa.array(bucket.tolist(),
                                                pa.string())})

    return scores.map_batches(assign, batch_format="pyarrow")


def _sql_ppl_buckets() -> str:
    q1, q2 = (repr(q) for q in _PPL_QS)
    return f"""
WITH w AS ({_sql_words()}),
u AS (SELECT doc_id, unnest(words) AS word FROM w),
freq AS (SELECT word, count(*)::DOUBLE AS c FROM u GROUP BY word),
tot AS (SELECT count(*)::DOUBLE AS t FROM u),
per AS (
  SELECT u.doc_id, count(*)::BIGINT AS n_tokens,
         sum(ln(freq.c / tot.t)) AS s
  FROM u JOIN freq USING (word) CROSS JOIN tot
  GROUP BY u.doc_id),
sc AS (SELECT doc_id,
              floor(s / n_tokens * 1e6 + 0.5) / 1e6 AS mean_logprob
       FROM per),
th AS (SELECT quantile_disc(mean_logprob, {q1}) AS t1,
              quantile_disc(mean_logprob, {q2}) AS t2 FROM sc)
SELECT doc_id, mean_logprob,
       CASE WHEN mean_logprob <= t1 THEN 'tail'
            WHEN mean_logprob <= t2 THEN 'middle'
            ELSE 'head' END AS ppl_bucket
FROM sc CROSS JOIN th
"""


def q_bigram_logprob(sf_dir: str):
    """Per-doc mean bigram conditional log-probability (X104 — the
    next LM order after `q_unigram_logprob`): ``ngram_logprob(ds, 2)``,
    whose docstring in `functions/corpusstats.py` has the plan. 6-dp
    house pin on the mean, identical on both engines."""
    from zhtml_ray.functions.corpusstats import ngram_logprob
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ngram_logprob(ds, 2)


def _sql_bigram_logprob() -> str:
    from zhtml_ray.functions.textstats import PY_WS_RE2_IN
    ws = "[" + PY_WS_RE2_IN + "]+"
    return f"""
WITH f AS (SELECT doc_id, regexp_split_to_array(text, '{ws}') AS a
           FROM documents),
t0 AS (SELECT doc_id, unnest(a) AS word,
              unnest(range(1, len(a)+1)) AS pos FROM f),
t AS (SELECT doc_id, word,
             row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
      FROM t0 WHERE word <> ''),
bi AS (SELECT t1.doc_id, t1.word AS w1, t2.word AS w2 FROM t t1
       JOIN t t2 ON t1.doc_id = t2.doc_id AND t2.rn = t1.rn + 1),
bf AS (SELECT w1, w2, count(*)::DOUBLE AS c2 FROM bi GROUP BY 1, 2),
hf AS (SELECT w1, sum(c2) AS c1 FROM bf GROUP BY 1),
per AS (SELECT bi.doc_id, count(*)::BIGINT AS n_bigrams,
               sum(ln(bf.c2 / hf.c1)) AS s
        FROM bi JOIN bf USING (w1, w2) JOIN hf USING (w1)
        GROUP BY 1)
SELECT doc_id, n_bigrams,
       floor(s / n_bigrams * 1e6 + 0.5) / 1e6 AS mean_logprob
FROM per
"""


def q_trigram_logprob(sf_dir: str):
    """X124: per-doc mean trigram conditional log-probability (the
    order-3 KenLM-style signal completing the X83/X104 LM family):
    ``ngram_logprob(ds, 3)`` (`functions/corpusstats.py` has the plan —
    context counts from a run-sum over the trigram FREQUENCY table,
    size-picked broadcast or merge-join scoring). 6-dp house pin,
    identical on both engines."""
    from zhtml_ray.functions.corpusstats import ngram_logprob
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ngram_logprob(ds, 3)


def _sql_trigram_logprob() -> str:
    from zhtml_ray.functions.textstats import PY_WS_RE2_IN
    ws = "[" + PY_WS_RE2_IN + "]+"
    return f"""
WITH f AS (SELECT doc_id, regexp_split_to_array(text, '{ws}') AS a
           FROM documents),
t0 AS (SELECT doc_id, unnest(a) AS word,
              unnest(range(1, len(a)+1)) AS pos FROM f),
t AS (SELECT doc_id, word,
             row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
      FROM t0 WHERE word <> ''),
tri AS (SELECT t1.doc_id, t1.word AS w1, t2.word AS w2, t3.word AS w3
        FROM t t1
        JOIN t t2 ON t1.doc_id = t2.doc_id AND t2.rn = t1.rn + 1
        JOIN t t3 ON t1.doc_id = t3.doc_id AND t3.rn = t1.rn + 2),
tf AS (SELECT w1, w2, w3, count(*)::DOUBLE AS c3 FROM tri
       GROUP BY 1, 2, 3),
hf AS (SELECT w1, w2, sum(c3) AS c12 FROM tf GROUP BY 1, 2),
per AS (SELECT tri.doc_id, count(*)::BIGINT AS n_trigrams,
               sum(ln(tf.c3 / hf.c12)) AS s
        FROM tri JOIN tf USING (w1, w2, w3) JOIN hf USING (w1, w2)
        GROUP BY 1)
SELECT doc_id, n_trigrams,
       floor(s / n_trigrams * 1e6 + 0.5) / 1e6 AS mean_logprob
FROM per
"""


def q_bucketed_join(sf_dir: str, n_buckets: int = 16):
    """Hash-bucketed co-located join (X109 — `stages/bucketed.py`
    docstring has the scale story: both tables at rest under the SAME
    knuth(key) mod B Hive layout, so the join fans out one task per
    bucket with ZERO shuffle). Here: documents (doc_id, lang, n_chars)
    ⋈ the token-count table, both written bucketed to a per-pid /tmp
    dir, then joined bucket-locally."""
    from zhtml_ray.functions.textstats import token_count_batch
    from zhtml_ray.stages.bucketed import bucketed_join, write_bucketed

    root = _own_pid_dir("/tmp/zhtml_ray_bucketed_")
    da, db = f"{root}/docs", f"{root}/tokens"
    write_bucketed(_docs(sf_dir, ["doc_id", "lang", "n_chars"]),
                   da, "doc_id", n_buckets)
    write_bucketed(
        _docs(sf_dir, ["doc_id", "text"]).map_batches(
            token_count_batch, batch_format="pyarrow"),
        db, "doc_id", n_buckets)
    out = bucketed_join(da, db, "doc_id", n_buckets)
    return out.map_batches(
        lambda b: b.select(["doc_id", "lang", "n_chars", "n_tokens"]),
        batch_format="pyarrow")


def _sql_bucketed_join() -> str:
    return f"""
WITH tc AS ({SQL_TOKEN_COUNT})
SELECT d.doc_id, d.lang, d.n_chars, tc.n_tokens
FROM documents d JOIN tc USING (doc_id)
"""


def q_vocab_df(sf_dir: str):
    """Top-100 corpus words by document frequency: per-batch combiner
    (distinct docs per word inside the batch) -> one sorted run-sum
    pass -> top-k sort+limit. The shuffle moves one row per
    (batch, word), not one per token."""
    from zhtml_ray.functions.corpusstats import vocab_doc_freq
    ds = _docs(sf_dir, ["doc_id", "text"])
    return vocab_doc_freq(ds, k=100)


def _sql_vocab_df(k: int = 100) -> str:
    return f"""
WITH w AS ({_sql_words()}),
u0 AS (SELECT doc_id, unnest(words) AS word FROM w),
u AS (SELECT DISTINCT doc_id, word FROM u0)
SELECT word, count(*)::BIGINT AS df
FROM u GROUP BY word
ORDER BY df DESC, word LIMIT {k}
"""


_CHUNK_W = 64          # chunk length (words)
_CHUNK_STRIDE = 48     # 16-word overlap


def chunk_docs_batch(b, w: int = _CHUNK_W,
                     stride: int = _CHUNK_STRIDE):
    """Per-batch overlapping-window chunk kernel (shared by
    ``q_chunk_docs`` and the scale bench so they can never drift)."""
    import pyarrow as pa

    ids = b["doc_id"].to_pylist()
    texts = b["text"].to_pylist()
    out_id, out_cid, out_start, out_nw, out_txt = [], [], [], [], []
    for did, t in zip(ids, texts):
        words = t.split() if t else []
        n = len(words)
        if n == 0:
            continue
        for ci, s in enumerate(range(0, n, stride)):
            ww = words[s:s + w]
            out_id.append(did)
            out_cid.append(ci)
            out_start.append(s)
            out_nw.append(len(ww))
            out_txt.append(" ".join(ww))
    return pa.table({
        "doc_id": pa.array(out_id, pa.int64()),
        "chunk_id": pa.array(out_cid, pa.int64()),
        "word_start": pa.array(out_start, pa.int64()),
        "n_chunk_words": pa.array(out_nw, pa.int64()),
        "chunk_text": pa.array(out_txt, pa.string())})


def q_chunk_docs(sf_dir: str):
    """Overlapping text chunking (embedding / RAG ingestion prep):
    split every document into 64-word windows every 48 words (16-word
    overlap), one output row per chunk with its word offset. Pure
    flat-map — zero shuffle; chunk rows inherit doc_id so downstream
    embedding stages can repartition by doc or by chunk count as they
    choose."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(chunk_docs_batch, batch_format="pyarrow")


def _sql_chunk_docs() -> str:
    return f"""
WITH w AS ({_sql_words()})
SELECT doc_id,
       ((i - 1) // {_CHUNK_STRIDE})::BIGINT AS chunk_id,
       (i - 1)::BIGINT AS word_start,
       least({_CHUNK_W}, len(words) - i + 1)::BIGINT AS n_chunk_words,
       array_to_string(words[i:i+{_CHUNK_W}-1], ' ') AS chunk_text
FROM w, unnest(range(1, len(words) + 1, {_CHUNK_STRIDE})) AS t(i)
WHERE len(words) > 0
"""


_MASK_N = 10


def q_mask_dup_spans(sf_dir: str):
    """Duplicated-span masking (word-level substring dedup, Lee et al.
    2022): remove every word covered by a 10-gram window whose exact
    text occurs >= 2 times in the corpus; rejoin survivors with single
    spaces (functions/corpusstats.py:mask_dup_spans — two sortagg
    shuffles + one merge join, pure-map rebuild)."""
    from zhtml_ray.functions.corpusstats import mask_dup_spans
    ds = _docs(sf_dir, ["doc_id", "text"])
    return mask_dup_spans(ds, n=_MASK_N)


def _sql_mask_dup_spans(n: int = _MASK_N) -> str:
    return f"""
WITH w AS ({_sql_words()}),
g AS (SELECT doc_id, i AS pos, array_to_string(words[i:i+{n}-1], ' ') AS gram
      FROM w, unnest(range(1, len(words) - {n} + 2)) AS t(i)
      WHERE len(words) >= {n}),
freq AS (SELECT gram, count(*) AS c FROM g GROUP BY gram),
dup AS (SELECT doc_id, pos FROM g JOIN freq USING (gram) WHERE freq.c >= 2),
cov AS (SELECT DISTINCT doc_id, dup.pos + j.j AS wpos
        FROM dup, unnest(range({n})) AS j(j)),
wp AS (SELECT doc_id, i AS wpos, words[i] AS word
       FROM w, unnest(range(1, len(words)+1)) AS t(i)),
ncov AS (SELECT doc_id, count(*) AS n_dup FROM cov GROUP BY doc_id),
kept AS (SELECT wp.doc_id,
                string_agg(wp.word, ' ' ORDER BY wp.wpos) AS kept_text
         FROM wp ANTI JOIN cov USING (doc_id, wpos)
         GROUP BY wp.doc_id)
SELECT w.doc_id, len(w.words)::BIGINT AS n_words,
       coalesce(ncov.n_dup, 0)::BIGINT AS n_dup_words,
       coalesce(kept.kept_text, '') AS kept_text
FROM w LEFT JOIN ncov USING (doc_id) LEFT JOIN kept USING (doc_id)
"""


# --------------------------------------------------------------- retrieval

# Fixed query set for the BM25 gate: terms drawn from the synthetic
# corpus vocabulary so tf/df vary; deduplicated per query (the SQL
# terms table carries each (query_id, term) pair exactly once too).
_BM25_QUERIES = [
    (0, "hash join merge"),
    (1, "window sort order"),
    (2, "fast vector scan stream"),
]
_BM25_K = 10


def q_bm25_topk(sf_dir: str):
    """Lexical retrieval: BM25 top-10 per query over the documents
    table (functions/retrieval.py): one combiner pass for corpus
    stats (block-count-bounded), one pure-map scoring pass emitting
    <= k rows per (query, block), tiny exact final top-k. Scores
    6-decimal pinned BEFORE ranking on both sides; ties break on
    doc_id."""
    from zhtml_ray.functions.retrieval import bm25_topk
    ds = _docs(sf_dir, ["doc_id", "text"])
    return bm25_topk(ds, _BM25_QUERIES, k=_BM25_K)


def _sql_bm25_topk() -> str:
    # expressions mirror functions/retrieval.py token for token
    # (left-assoc float grouping identical; (1.2 + 1.0) not 2.2 — the
    # literals must round-trip to the same doubles the engine uses);
    # only the cross-term sum order differs, absorbed by the house pin
    values = ", ".join(
        f"({qid}, '{t}')"
        for qid, qtext in _BM25_QUERIES for t in sorted(set(qtext.split())))
    return f"""
WITH w AS ({_sql_words()}),
d AS (SELECT doc_id, words, len(words)::BIGINT AS dl FROM w),
stats AS (SELECT count(*)::DOUBLE AS n_docs,
                 sum(dl)::DOUBLE / count(*)::DOUBLE AS avgdl FROM d),
terms(query_id, term) AS (VALUES {values}),
u AS (SELECT doc_id, unnest(words) AS word FROM w),
tf AS (SELECT doc_id, word, count(*)::DOUBLE AS tf FROM u
       WHERE word IN (SELECT term FROM terms)
       GROUP BY doc_id, word),
df AS (SELECT word, count(*)::DOUBLE AS df FROM tf GROUP BY word),
scored AS (
  SELECT t.query_id, f.doc_id,
         sum(ln(1.0 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * f.tf * (1.2 + 1.0)
             / (f.tf + 1.2 * (1.0 - 0.75 + 0.75 * d.dl / s.avgdl))) AS raw
  FROM terms t
  JOIN tf f ON f.word = t.term
  JOIN df ON df.word = f.word
  JOIN d ON d.doc_id = f.doc_id
  CROSS JOIN stats s
  GROUP BY t.query_id, f.doc_id),
p AS (SELECT query_id, doc_id,
             floor(raw * 1e6 + 0.5) / 1e6 AS score FROM scored),
r AS (SELECT query_id, doc_id, score,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY score DESC, doc_id) AS rn
      FROM p)
SELECT query_id::BIGINT AS query_id, doc_id, score
FROM r WHERE rn <= {_BM25_K}
"""


# ------------------------------------------------------------------- dedup

_QA_HASH_MULT = 2654435761           # Knuth multiplicative constant
_QA_THRESHOLD = 214748364            # floor(0.05 * 2^32): ~5%


def q_qa_sample(sf_dir: str):
    """Deterministic ~5% QA sample: keep rows where the Knuth
    multiplicative hash of doc_id lands under a fixed 32-bit
    threshold. Unlike ``ds.random_sample`` (whose output depends on
    block layout, so it changes across cluster sizes and resumes),
    this sample is reproducible run-to-run at any parallelism — what a
    100 TB QA audit actually needs — and exactly SQL-replicable.
    ``ds.random_sample`` API coverage lives in the IVF centroid
    sampler (functions/similarity.py:125)."""
    import numpy as np
    import pyarrow as pa
    ds = _docs(sf_dir, ["doc_id", "text", "lang"])

    def pick(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.uint64)
        h = (ids * np.uint64(_QA_HASH_MULT)) & np.uint64(0xFFFFFFFF)
        return b.filter(pa.array(h < np.uint64(_QA_THRESHOLD)))

    return ds.map_batches(pick, batch_format="pyarrow")


SQL_QA_SAMPLE = f"""
-- HUGEINT: doc_id * mult overflows int64 once ids pass ~3.5e9
SELECT doc_id, text, lang FROM documents
WHERE (doc_id::HUGEINT * {_QA_HASH_MULT}) % 4294967296 < {_QA_THRESHOLD}
"""


# Per-stratum keep rates for the mixture-rebalancing sample: the
# knob a 100 TB curriculum actually turns (downsample the dominant
# language, keep the tail whole). Salted so the picked set is
# decorrelated from qa_sample's (same doc_id, different purpose).
_STRAT_RATES = {"en": 0.10, "fr": 0.25, "es": 0.25, "de": 0.5, "zh": 1.0}
_STRAT_DEFAULT = 0.05
_STRAT_SALT = 1_000_003


def _strat_threshold(rate: float) -> int:
    return int(rate * 4294967296)


def q_stratified_sample(sf_dir: str):
    """Stratified deterministic downsample per language: keep rows
    whose salted Knuth hash of doc_id lands under the stratum's
    32-bit threshold. Pure map — zero shuffle, reproducible at any
    parallelism/resume (unlike ``random_sample``), exactly
    SQL-replicable; the per-stratum rate table is the data-mixture
    rebalancing step of a pretraining pipeline."""
    import numpy as np
    import pyarrow as pa
    ds = _docs(sf_dir, ["doc_id", "lang", "source"])

    def pick(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.uint64)
        enc = b["lang"].combine_chunks().dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        thr_by_code = np.array(
            [_strat_threshold(_STRAT_RATES.get(v, _STRAT_DEFAULT))
             for v in enc.dictionary.to_pylist()], np.uint64)
        h = ((ids + np.uint64(_STRAT_SALT)) * np.uint64(_QA_HASH_MULT)) \
            & np.uint64(0xFFFFFFFF)
        keep = h < (thr_by_code[codes] if len(thr_by_code)
                    else np.zeros(0, np.uint64))
        return b.filter(pa.array(keep))

    return ds.map_batches(pick, batch_format="pyarrow")


def _sql_stratified_sample() -> str:
    cases = " ".join(
        f"WHEN '{lang}' THEN {_strat_threshold(rate)}"
        for lang, rate in _STRAT_RATES.items())
    return f"""
SELECT doc_id, lang, source FROM documents
WHERE ((doc_id + {_STRAT_SALT})::HUGEINT * {_QA_HASH_MULT}) % 4294967296
      < CASE lang {cases} ELSE {_strat_threshold(_STRAT_DEFAULT)} END
"""


def q_exact_dedup(sf_dir: str):
    """Exact dedup: keep min doc_id per distinct text (SQL-oracled)."""
    from zhtml_ray.functions.dedup import exact_dedup
    ds = _docs(sf_dir, ["doc_id", "text"])
    kept = exact_dedup(ds, col="text", key="doc_id")
    return kept.select_columns(["doc_id"])


SQL_EXACT_DEDUP = """
SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
"""


def q_minhash_dedup(sf_dir: str):
    """Oracled against a serial INDEPENDENT clustering (union-find with
    min-key roots, pipelines/golden.py) — certifies the distributed
    min-label-propagation connected components, not just the hashing."""
    from zhtml_ray.functions.dedup import minhash_dedup
    from zhtml_ray.pipelines.golden import ensure_golden
    ds = _docs(sf_dir, ["doc_id", "text"])
    ensure_golden("minhash_dedup", sf_dir)
    out = minhash_dedup(ds, key="doc_id", col="text")
    return out.select_columns(["doc_id", "cluster", "is_dup"])


def q_dedup_representatives(sf_dir: str):
    """Canonical-document selection per near-dup cluster (X108 — the
    step AFTER detection: real pipelines keep the best-quality copy,
    not the lowest id). MinHash clusters (X2) joined with the X9
    quality score (6-dp-pinned, bit-exact on both engines), winner =
    grouped-first on (cluster, −quality, doc_id) — one range shuffle —
    plus a cluster-bounded member-count run-sum merged on. Oracle:
    the INDEPENDENT union-find golden clusters joined with the
    replicated quality SQL and a QUALIFY window."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.functions.dedup import minhash_dedup
    from zhtml_ray.functions.textstats import QualityScore
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.sortagg import (sorted_first_per_group,
                                          sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks

    ensure_golden("minhash_dedup", sf_dir)
    ds = _docs(sf_dir, ["doc_id", "text", "lang"])
    clusters = minhash_dedup(ds, key="doc_id", col="text") \
        .select_columns(["doc_id", "cluster"])

    def q6(b: pa.Table) -> pa.Table:
        t = QualityScore()(b)
        qs = pc.floor(pc.add(pc.multiply(t["quality_score"], 1e6), 0.5))
        return pa.table({"doc_id": t["doc_id"],
                         "q6": pc.divide(qs, 1e6)})

    quality = ds.map_batches(q6, batch_format="pyarrow")
    j = compact_blocks(sorted_lookup_join(
        compact_blocks(clusters), quality, "doc_id", ["q6"]))

    def neg(b: pa.Table) -> pa.Table:
        return b.append_column("neg_q", pc.negate(b["q6"]))

    reps = sorted_first_per_group(
        j.map_batches(neg, batch_format="pyarrow"),
        ["cluster"], ["neg_q", "doc_id"])

    def ones(b: pa.Table) -> pa.Table:
        import numpy as np
        return pa.table({"cluster": b["cluster"],
                         "one": pa.array(np.ones(b.num_rows, np.int64))})

    counts = sorted_sum_per_group(
        j.map_batches(ones, batch_format="pyarrow"),
        ["cluster"], ["one"]).map_batches(
        lambda b: b.rename_columns(["cluster", "n_members"]),
        batch_format="pyarrow")

    out = sorted_lookup_join(
        compact_blocks(reps.map_batches(
            lambda b: pa.table({"cluster": b["cluster"],
                                "rep_id": b["doc_id"],
                                "rep_quality": b["q6"]}),
            batch_format="pyarrow")),
        counts, "cluster", ["n_members"])
    return out


def _sql_dedup_representatives() -> str:
    from zhtml_ray.pipelines.golden import _current_dir
    g = f"{_current_dir()}/minhash_dedup.parquet"
    return f"""
WITH q AS ({_sql_quality()}),
g AS (SELECT doc_id, cluster FROM read_parquet('{g}')),
j AS (SELECT g.cluster, g.doc_id,
             floor(q.quality_score * 1e6 + 0.5) / 1e6 AS q6
      FROM g JOIN q USING (doc_id)),
r AS (SELECT cluster, doc_id AS rep_id, q6 AS rep_quality FROM j
      QUALIFY row_number() OVER (PARTITION BY cluster
                                 ORDER BY q6 DESC, doc_id) = 1),
n AS (SELECT cluster, count(*)::BIGINT AS n_members FROM j GROUP BY 1)
SELECT r.cluster, r.rep_id, r.rep_quality, n.n_members
FROM r JOIN n USING (cluster)
"""


def q_incremental_neardup(sf_dir: str, threshold: float = 0.8):
    """Incremental NEAR-dup against an at-rest LSH index (X-dedup,
    r4 — the 100 TB shape X63's exact-hash snapshot dedup cannot
    cover): the base corpus (doc_id%4 != 0) is MinHash-banded ONCE
    into an index of bucket-sorted parquet runs
    (functions/dedup.py:build_lsh_index); the new shard (doc_id%4==0)
    is hashed once under the index's pinned parameters, and
    lsh_index_probe streams the index rows in its own buckets through
    one in-process scanner, colliding each batch against the sorted
    new buckets; the candidates are then exact-Jaccard verified. The
    base corpus is never re-read beyond the index's (bucket, key)
    columns + pair-verify texts. Oracled ALGORITHM-INDEPENDENTLY:
    serial brute-force Jaccard over every (new, base) pair — recall
    AND precision of the at-rest probe."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.functions.dedup import (build_lsh_index,
                                           lsh_index_probe,
                                           verify_jaccard_pairs)
    from zhtml_ray.pipelines.golden import ensure_golden

    ensure_golden("incremental_neardup", sf_dir)
    out_dir = _own_pid_dir("/tmp/zhtml_ray_lshidx_")

    docs = _docs(sf_dir, ["doc_id", "text"])

    def base_only(b: pa.Table) -> pa.Table:
        return b.filter(pc.not_equal(
            pc.bit_wise_and(b["doc_id"], pa.scalar(3, pa.int64())),
            pa.scalar(0, pa.int64())))

    def new_only(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(
            pc.bit_wise_and(b["doc_id"], pa.scalar(3, pa.int64())),
            pa.scalar(0, pa.int64())))

    from zhtml_ray.stages.util import drop_empty_blocks
    base = drop_empty_blocks(
        docs.map_batches(base_only, batch_format="pyarrow"))
    new = drop_empty_blocks(
        docs.map_batches(new_only, batch_format="pyarrow"))
    build_lsh_index(base, out_dir)
    pairs = lsh_index_probe(out_dir, new)
    out = verify_jaccard_pairs(pairs, docs, threshold=threshold)

    def rename(b: pa.Table) -> pa.Table:
        # verify_jaccard_pairs canonicalizes (lo, hi) — restore the
        # new/base roles from the split rule (exactly one member of
        # every probe pair is ≡ 0 mod 4)
        import numpy as np
        a = b["key_a"].to_numpy(zero_copy_only=False)
        c = b["key_b"].to_numpy(zero_copy_only=False)
        a_new = (a & 3) == 0
        return pa.table({
            "key_new": pa.array(np.where(a_new, a, c), pa.int64()),
            "key_base": pa.array(np.where(a_new, c, a), pa.int64()),
            "jaccard": b["jaccard"]})

    from zhtml_ray.stages.util import schema_safe_result
    return schema_safe_result(
        out.map_batches(rename, batch_format="pyarrow"))


def q_ngram_jaccard(sf_dir: str):
    """Standalone n-gram Jaccard near-dup pairs: LSH candidate blocking
    → EXACT word-3-gram Jaccard per pair (the brief's "n-gram Jaccard"
    dedup) → pairs ≥ 0.8 with their similarity. Rows-only for the
    driver (candidate blocking is not SQL-expressible); oracled against
    the serial BRUTE-FORCE all-pairs Jaccard golden — matching it
    certifies perfect recall AND precision of the blocked path on this
    corpus."""
    from zhtml_ray.functions.dedup import (
        minhash_candidate_pairs, verify_jaccard_pairs)
    from zhtml_ray.pipelines.golden import ensure_golden
    ensure_golden("ngram_jaccard", sf_dir)
    ds = _docs(sf_dir, ["doc_id", "text"])
    cand = minhash_candidate_pairs(ds, key="doc_id", col="text",
                                   clique_limit=64)
    out = verify_jaccard_pairs(cand, ds, key="doc_id", col="text",
                               threshold=0.8)
    from zhtml_ray.stages.util import schema_safe_result
    return schema_safe_result(out)


def _fuzzy_union_batch(b: pa.Table) -> pa.Table:
    """Originals ∪ dirty twins (doc_id%2==0 → id+FUZZY_OFF, every
    25th word dropped) — the twin rebuild is fully vectorized: one
    `_split_encode` (pinned token-identical to ``str.split``), a
    positional modulo mask, and one Arrow list `binary_join`."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.functions.corpusstats import _split_encode
    from zhtml_ray.pipelines.golden import FUZZY_OFF

    ids = b["doc_id"].combine_chunks()
    sel = b.filter(pc.equal(_mod(ids, 2), 0))
    left = pa.table({"doc_id": b["doc_id"], "text": b["text"]})
    if sel.num_rows == 0:
        return left
    row, codes, vocab, lens = _split_encode(sel["text"])
    if len(codes):
        starts = np.cumsum(lens) - lens
        pos = np.arange(len(codes)) - np.repeat(starts, lens)
        keep = pos % 25 != 24
        new_lens = np.bincount(row[keep], minlength=sel.num_rows)
        words = vocab.take(pa.array(codes[keep], pa.int64()))
    else:
        new_lens = np.zeros(sel.num_rows, np.int64)
        words = pa.array([], pa.string())
    offsets = np.concatenate([[0], np.cumsum(new_lens)])
    la = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), words)
    dirty = pa.table({
        "doc_id": pc.add(sel["doc_id"].combine_chunks(),
                         pa.scalar(FUZZY_OFF, pa.int64())),
        "text": pc.binary_join(la, " ")})
    return pa.concat_tables([left, dirty])


def q_fuzzy_join(sf_dir: str):
    """X122: record-linkage fuzzy JOIN across two tables (documents ×
    a derived dirty snapshot): MinHash/LSH candidate blocking over the
    tagged union, exact word-3-gram Jaccard verify ≥ 0.8, then the
    best match per left row (max Jaccard, ties → min match id) via one
    grouped-first pass. Jaccard is a ratio of small ints, so both
    engines compute identical doubles and the argmax order matches
    bit-for-bit. Rows-only SQL is impossible (LSH blocking); oracled
    against the INDEPENDENT brute-force all-cross-pairs golden —
    matching certifies recall AND precision of the blocked path."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.util import schema_safe_result

    ensure_golden("fuzzy_join", sf_dir)
    ds = _docs(sf_dir, ["doc_id", "text"])
    return schema_safe_result(fuzzy_best_match(ds))


def fuzzy_best_match(ds):
    """The X122 engine pipeline over a (doc_id, text) Dataset —
    blocking + exact verify + grouped-first argmax (see
    :func:`q_fuzzy_join`); factored out so scale benches can run it
    without the brute-force serial golden."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.functions.dedup import (minhash_candidate_pairs,
                                           verify_jaccard_pairs)
    from zhtml_ray.pipelines.golden import FUZZY_OFF
    from zhtml_ray.stages.sortagg import sorted_first_per_group

    union = ds.map_batches(_fuzzy_union_batch, batch_format="pyarrow")
    cand = minhash_candidate_pairs(union, key="doc_id", col="text",
                                   clique_limit=64)
    ver = verify_jaccard_pairs(cand, union, key="doc_id", col="text",
                               threshold=0.8)

    def cross(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.less(b["key_a"], FUZZY_OFF),
                    pc.greater_equal(b["key_b"], FUZZY_OFF))
        t = b.filter(m)
        return t.append_column("nj", pc.negate(t["jaccard"]))

    crossed = ver.map_batches(cross, batch_format="pyarrow")
    best = sorted_first_per_group(crossed, ["key_a"],
                                  tie_cols=["nj", "key_b"])
    out = best.map_batches(
        lambda b: pa.table({"doc_id": b["key_a"],
                            "match_id": b["key_b"],
                            "jaccard": b["jaccard"]}),
        batch_format="pyarrow")
    return out


def q_simhash(sf_dir: str):
    from zhtml_ray.functions.dedup import SimHashBatch
    from zhtml_ray.pipelines.golden import ensure_golden
    ds = _docs(sf_dir, ["doc_id", "text"])
    ensure_golden("simhash", sf_dir)
    out = ds.map_batches(SimHashBatch(), batch_format="pyarrow")
    return out.select_columns(["doc_id", "simhash", "simhash_b0"])


def planted_embeddings(sf_dir: str):
    """embeddings ∪ perturbed copies (vec_id+10⁶, small seeded noise) so
    near-dup demonstrably finds the planted pairs — random vectors alone
    have no near-dups. Shared by the query and its serial golden."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist())
    emb = np.asarray(t["embedding"].to_pylist(), np.float32)
    rng = np.random.RandomState(42)
    take = ids % 10 == 0  # every 10th vector gets a near-duplicate
    dup_emb = emb[take] + rng.standard_normal(emb[take].shape).astype(
        np.float32) * 0.01
    dup = pa.table({
        "vec_id": pa.array((ids[take] + 1_000_000).tolist(), pa.int64()),
        "embedding": pa.array([r.tolist() for r in dup_emb],
                              t.schema.field("embedding").type),
        "label": pa.array([0] * int(take.sum()), pa.int32()),
    })
    return pa.concat_tables([t, dup])


def q_embedding_neardup(sf_dir: str):
    import ray.data as rd
    from zhtml_ray.functions.dedup import embedding_neardup
    from zhtml_ray.pipelines.golden import ensure_golden

    ensure_golden("embedding_neardup", sf_dir)
    ds = rd.from_arrow(planted_embeddings(sf_dir))
    out = embedding_neardup(ds, key="vec_id", col="embedding", threshold=0.98)
    from zhtml_ray.stages.util import schema_safe_result
    return schema_safe_result(out.select_columns(["key_a", "key_b"]))


def q_semantic_dedup(sf_dir: str):
    """SemDeDup semantic deduplication (k-means clusters -> greedy
    within-cluster cosine leader dedup), oracled against a serial
    same-kernel pinned golden — valid at gate scales because
    ``kmeans_fit`` takes its exactly-layout-invariant driver path
    there (the `_gen_ivf_topk` duality); the distributed fit is
    tolerance-differential-tested in pytest."""
    import ray.data as rd
    from zhtml_ray.functions.similarity import semantic_dedup
    from zhtml_ray.pipelines.golden import ensure_golden
    from zhtml_ray.stages.util import schema_safe_result

    ensure_golden("semantic_dedup", sf_dir)
    ds = rd.from_arrow(planted_embeddings(sf_dir))
    out = semantic_dedup(ds, threshold=0.98, n_centroids=8, iters=10)
    return schema_safe_result(
        out.select_columns(["vec_id", "cell", "kept", "dup_of"]))


# -------------------------------------------------------------- similarity

def _query_vectors(sf_dir, n=5):
    import pyarrow.parquet as pq
    import numpy as np
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    vecs = t.sort_by("vec_id")["embedding"].to_pylist()[:n]
    return np.asarray(vecs, np.float64)


def q_ann_topk(sf_dir: str):
    """Exact brute-force cosine top-10 for the first 5 vectors as
    queries; returns (query_id, vec_id) ranked — floats dropped so the
    oracle hash is stable across engines."""
    from zhtml_ray.functions.similarity import brute_force_topk
    q = _query_vectors(sf_dir, 5)
    out = brute_force_topk(_emb(sf_dir), q, k=10)
    return out[["query_id", "vec_id"]]


def q_ann_topk_filtered(sf_dir: str, n_queries: int = 5, k: int = 10):
    """Metadata-FILTERED vector search (the hard-positive-mining /
    tenant-scoped retrieval form): each query's top-k among vectors of
    the query's OWN label only. The filter fuses INTO the broadcast
    brute-force kernel (similarity._LabelFilteredTopK): ONE pass over
    the corpus scores each query against its own label's rows only
    (r4 — the previous one-pipeline-per-label form paid a ~2 s Ray
    latency floor per distinct label: 9.6 s → ~2 s at sf0.1). At
    scale a label-bucketed at-rest layout (stages/bucketed.py) would
    prune the read instead; the operator shape is identical."""
    import numpy as np
    import pyarrow.parquet as pq

    from zhtml_ray.functions.similarity import brute_force_topk_filtered

    t = pq.read_table(f"{sf_dir}/embeddings.parquet").sort_by("vec_id")
    vecs = np.asarray(t["embedding"].to_pylist()[:n_queries],
                      np.float64)
    qlabels = t["label"].to_pylist()[:n_queries]

    res = brute_force_topk_filtered(_emb(sf_dir), vecs, qlabels, k=k)
    res = res[["query_id", "vec_id"]].copy()
    res["query_id"] = res["query_id"].astype("int32")
    return res.sort_values(["query_id", "vec_id"]) \
        .reset_index(drop=True)


def _sql_ann_topk_filtered(n_queries: int = 5, k: int = 10) -> str:
    return f"""
WITH q AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS query_id,
         embedding AS qv, label AS ql
  FROM embeddings ORDER BY vec_id LIMIT {n_queries}
)
SELECT query_id::INTEGER AS query_id, vec_id
FROM q JOIN embeddings e ON e.label = q.ql
QUALIFY row_number() OVER (
  PARTITION BY query_id
  ORDER BY list_cosine_similarity(qv, e.embedding) DESC, vec_id) <= {k}
ORDER BY query_id, vec_id
"""


SQL_ANN_TOPK = """
WITH q AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS query_id, embedding AS qv
  FROM embeddings ORDER BY vec_id LIMIT 5
)
SELECT query_id::INTEGER AS query_id, vec_id
FROM q CROSS JOIN embeddings e
QUALIFY row_number() OVER (
  PARTITION BY query_id
  ORDER BY list_cosine_similarity(qv, e.embedding) DESC, vec_id) <= 10
"""


def q_ivf_topk(sf_dir: str):
    """IVF approximate top-k, oracled against a serial same-algorithm
    pinned golden (valid at gate scales: full-table centroid training,
    seeded, layout-invariant — pipelines/golden.py:_gen_ivf_topk);
    recall vs exact brute force is pytest-gated separately."""
    from zhtml_ray.functions.similarity import ivf_topk
    from zhtml_ray.pipelines.golden import ensure_golden
    ensure_golden("ivf_topk", sf_dir)
    q = _query_vectors(sf_dir, 5)
    out = ivf_topk(_emb(sf_dir), q, k=10, n_probe=4, n_centroids=8)
    return out[["query_id", "vec_id"]]


def q_pq_topk(sf_dir: str):
    """Product-quantization ANN (Jégou et al. 2011): sample-trained
    sub-codebooks, zero-shuffle corpus encode to 8-byte codes, then
    broadcast-LUT ADC top-k — the memory path for billion-scale ANN
    (8 bytes/vector at rest vs 256 for float32×64). Oracled against a
    serial same-algorithm pinned golden (pipelines/golden.py:
    _gen_pq_topk — valid at gate scales: pq_fit's full-table driver
    mode is content-sorted, encode is per-row, ADC 6-dp pinned); recall
    vs exact brute force is pytest-gated separately."""
    from zhtml_ray.functions.similarity import (pq_encode, pq_fit,
                                                pq_rerank, pq_topk)
    from zhtml_ray.pipelines.golden import ensure_golden
    ensure_golden("pq_topk", sf_dir)
    ds = _emb(sf_dir)
    books = pq_fit(ds, m=8, ks=256, iters=10, seed=42)
    codes = pq_encode(ds, books)
    q = _query_vectors(sf_dir, 5)
    short = pq_topk(codes, q, books, k=50)  # ADC shortlist, R=50
    return pq_rerank(short, _emb(sf_dir), q, k=10)


# ------------------------------------------------------------ event windows

def q_events_window(sf_dir: str):
    """Tumbling 1-hour window per user: pre-aggregated inside map_batches
    (partial combine), then a small groupby — the at-scale aggregation
    pattern (windowed aggregate over a stream-shaped table)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        secs = pc.divide(pc.cast(batch["ts"], pa.int64()), 1_000_000)
        w = pc.cast(pc.floor(pc.divide(pc.cast(secs, pa.float64()), 3600.0)),
                    pa.int64())
        batch = batch.append_column("w", w)
        t = batch.group_by(["user_id", "w"]).aggregate([
            ("value", "sum"), ("value", "count")])
        return t.rename_columns(["user_id", "w", "p_sum", "p_n"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["user_id", "w"]).aggregate(
        Sum("p_sum", alias_name="sum_value"),
        Sum("p_n", alias_name="n_events"))

    def _round(t: pa.Table) -> pa.Table:
        # float sums are associativity-sensitive (partial-combine here vs
        # sequential oracle): pin 6 decimals with the IDENTICAL IEEE
        # formula floor(x*1e6 + 0.5)/1e6 on both sides (engine round()
        # implementations differ in the last ulp)
        pinned = pc.divide(pc.floor(pc.add(
            pc.multiply(t["sum_value"], pa.scalar(1e6)), pa.scalar(0.5))),
            pa.scalar(1e6))
        return t.set_column(t.column_names.index("sum_value"), "sum_value",
                            pinned)

    return agg.map_batches(_round, batch_format="pyarrow")


SQL_EVENTS_WINDOW = """
SELECT user_id,
       CAST(floor(epoch(ts) / 3600) AS BIGINT) AS w,
       floor(sum(value) * 1e6 + 0.5) / 1e6 AS sum_value,
       count(*) AS n_events
FROM events GROUP BY 1, 2
"""

_HOP_S = 900          # hop: 15 min
_HOP_PER_WIN = 4      # window length = 4 hops = 1 h


def q_hopping_window(sf_dir: str):
    """Hopping (sliding) window aggregate: 1-hour windows every 15
    minutes, so each event lands in exactly 4 overlapping windows.
    The expansion is vectorized INSIDE the per-batch partial (numpy
    repeat/ravel — 4 partial rows per distinct (user, window) per
    batch, never 4x the event stream through a shuffle), then the
    same partial-combine -> small groupby shape as the tumbling
    window."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "value"])
    K = _HOP_PER_WIN

    def partial(batch: pa.Table) -> pa.Table:
        secs = pc.divide(pc.cast(batch["ts"], pa.int64()),
                         1_000_000).to_numpy(zero_copy_only=False)
        base = secs // _HOP_S
        w = ((base[:, None] - np.arange(K)).ravel()) * _HOP_S
        users = np.repeat(
            batch["user_id"].combine_chunks().to_numpy(
                zero_copy_only=False), K)
        vals = np.repeat(
            batch["value"].combine_chunks().to_numpy(
                zero_copy_only=False), K)
        t = pa.table({"user_id": pa.array(users, pa.int64()),
                      "w_start": pa.array(w, pa.int64()),
                      "value": pa.array(vals, pa.float64())})
        t = t.group_by(["user_id", "w_start"]).aggregate([
            ("value", "sum"), ("value", "count")])
        return t.rename_columns(["user_id", "w_start", "p_sum", "p_n"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["user_id", "w_start"]).aggregate(
        Sum("p_sum", alias_name="sum_value"),
        Sum("p_n", alias_name="n_events"))

    def _round(t: pa.Table) -> pa.Table:
        pinned = pc.divide(pc.floor(pc.add(
            pc.multiply(t["sum_value"], pa.scalar(1e6)), pa.scalar(0.5))),
            pa.scalar(1e6))
        return t.set_column(t.column_names.index("sum_value"), "sum_value",
                            pinned)

    return agg.map_batches(_round, batch_format="pyarrow")


SQL_HOPPING_WINDOW = f"""
SELECT user_id,
       (CAST(floor(epoch(ts) / {_HOP_S}) AS BIGINT) - i.i) * {_HOP_S}
         AS w_start,
       floor(sum(value) * 1e6 + 0.5) / 1e6 AS sum_value,
       count(*) AS n_events
FROM events CROSS JOIN (SELECT unnest(range({_HOP_PER_WIN})) AS i) i
GROUP BY 1, 2
"""


def q_events_sessionize(sf_dir: str):
    """Session windows (30-min inactivity gap) per user — sort-based
    (the stages/sortagg.py pattern, replacing the r2 (user, day)-salted
    double groupby that ran one pandas UDF per group): ONE range-
    shuffle sort by (user, ts, event_id), then C-speed numpy session
    segmentation per sorted block. Sessions fully interior to a block
    are exact (bounded on both sides by a user change or a > 1800 s
    gap inside the block); only each block's FIRST and LAST segments
    can chain across a block edge, so those stubs (≤ 2 per block —
    bounded by block count, not data) merge in a tiny driver pass.
    Hot keys need no salt at all here: a mega-user just spans several
    sorted blocks and still does block-local vectorized work."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    import numpy as np

    GAP_US = 1_800_000_000  # 1800 s in microseconds, strict >

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id"])
    srt = ds.sort(["user_id", "ts", "event_id"])

    def block_sessions(b: pa.Table) -> pa.Table:
        n = b.num_rows
        users = b["user_id"].combine_chunks()
        ts = b["ts"].combine_chunks()
        if n == 0:
            return pa.table({"user_id": users, "session_start": ts,
                             "session_end": ts,
                             "n_events": pa.array([], pa.int64()),
                             "stub": pa.array([], pa.bool_())})
        u = users.to_numpy(zero_copy_only=False)
        t = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False)
        new = np.r_[True, (u[1:] != u[:-1]) | (t[1:] - t[:-1] > GAP_US)]
        starts = np.flatnonzero(new)
        k = len(starts)
        last = pa.array(np.r_[starts[1:], n] - 1, pa.int64())
        idx = np.arange(k)
        return pa.table({
            "user_id": users.take(pa.array(starts, pa.int64())),
            "session_start": ts.take(pa.array(starts, pa.int64())),
            "session_end": ts.take(last),
            "n_events": pa.array(np.r_[starts[1:], n] - starts, pa.int64()),
            "stub": pa.array((idx == 0) | (idx == k - 1)),
        })

    # materialized: read twice (interior stream + tiny stub collect)
    sess = srt.map_batches(block_sessions, batch_size=None,
                           batch_format="pyarrow").materialize()

    def interior(b: pa.Table) -> pa.Table:
        return b.filter(pc.invert(b["stub"])).drop_columns(["stub"])

    out = sess.map_batches(interior, batch_format="pyarrow")

    # boundary stubs: ≤ 2 per sorted block — a genuinely tiny driver
    # collect (the same bound as sortagg's edge pass), filtered with a
    # vectorized Arrow pass, never a per-row Python lambda. Chain-merge
    # is exact because the global sort makes per-user stub time ranges
    # disjoint and ordered.
    stub_batches = list(
        sess.map_batches(lambda b: b.filter(b["stub"]),
                         batch_format="pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow"))
    stub_rows = (pa.concat_tables(stub_batches).combine_chunks()
                 if stub_batches else
                 sess.schema().base_schema.empty_table())
    if stub_rows.num_rows:
        st = pc.cast(stub_rows["session_start"],
                     pa.int64()).to_numpy(zero_copy_only=False)
        en = pc.cast(stub_rows["session_end"],
                     pa.int64()).to_numpy(zero_copy_only=False)
        u = stub_rows["user_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((st, u))
        st, en, u = st[order], en[order], u[order]
        ne = stub_rows["n_events"].to_numpy(zero_copy_only=False)[order]
        new = np.r_[True, (u[1:] != u[:-1]) | (st[1:] - en[:-1] > GAP_US)]
        gstart = np.flatnonzero(new)
        gend = np.r_[gstart[1:], len(u)] - 1  # ends ordered within a chain
        take = pa.array(order[gstart], pa.int64())
        merged = pa.table({
            "user_id": stub_rows["user_id"].take(take),
            "session_start": stub_rows["session_start"].take(take),
            "session_end": stub_rows["session_end"].take(
                pa.array(order[gend], pa.int64())),
            "n_events": pa.array(np.add.reduceat(ne, gstart), pa.int64()),
        })
        out = out.union(rd.from_arrow(merged))
    return out


SQL_EVENTS_SESSIONIZE = """
WITH t AS (
  SELECT user_id, ts, event_id,
         CASE WHEN epoch(ts) - epoch(lag(ts) OVER w) > 1800
              OR lag(ts) OVER w IS NULL THEN 1 ELSE 0 END AS new_s
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT user_id, ts, event_id,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM t
)
SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
       count(*) AS n_events
FROM s GROUP BY user_id, sid
"""


def q_events_retention(sf_dir: str):
    """Weekly cohort retention matrix (X78) — the activation/retention
    sheet every product-analytics stack computes: users bucketed by
    their FIRST active week (cohort), counted in every later week they
    return, keyed (cohort_week, week_offset). Plan: per-batch distinct
    (user, week) partials → one grouped-first shuffle → Arrow-native
    grouped-first min week per user → merge-join the cohort back on → per-batch
    (cohort, offset) count partials → tiny groupby. Raw events never
    shuffle; the widest exchange carries at most |users|×|weeks| rows,
    pre-combined per block."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from zhtml_ray.stages.sortagg import (sorted_first_per_group,
                                          sorted_lookup_join)
    from zhtml_ray.stages.util import compact_blocks

    WEEK_US = 604_800 * 1_000_000

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])

    def uw_partial(b: pa.Table) -> pa.Table:
        wk = pc.divide(pc.cast(b["ts"], pa.int64()),
                       pa.scalar(WEEK_US, pa.int64()))
        return pa.table({"user_id": b["user_id"], "week": wk}) \
            .group_by(["user_id", "week"]).aggregate([])

    uw = compact_blocks(sorted_first_per_group(
        ds.map_batches(uw_partial, batch_format="pyarrow"),
        ["user_id", "week"]))
    # min-by as grouped-first (sort form — Ray's Aggregate measured
    # ~8× slower on high-cardinality keys, BENCH/BASELINE.md)
    cohort = sorted_first_per_group(uw, ["user_id"],
                                    tie_cols=("week",)) \
        .map_batches(lambda b: b.rename_columns(
            ["user_id", "cohort_week"]), batch_format="pyarrow")
    joined = sorted_lookup_join(uw, cohort, "user_id", ["cohort_week"])

    def off_partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "cohort_week": b["cohort_week"],
            "week_offset": pc.subtract(b["week"], b["cohort_week"])})
        g = t.group_by(["cohort_week", "week_offset"]) \
            .aggregate([("cohort_week", "count")])
        return g.rename_columns(["cohort_week", "week_offset", "c"])

    return joined.map_batches(off_partial, batch_format="pyarrow") \
        .groupby(["cohort_week", "week_offset"]) \
        .aggregate(Sum("c", alias_name="users"))


SQL_EVENTS_RETENTION = """
WITH uw AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 604800000000 AS week
  FROM events),
fw AS (SELECT user_id, min(week) AS cohort_week FROM uw GROUP BY 1)
SELECT cohort_week, week - cohort_week AS week_offset,
       count(*)::BIGINT AS users
FROM uw JOIN fw USING (user_id)
GROUP BY 1, 2
"""


def q_events_ntile(sf_dir: str):
    """NTILE(4) + PERCENT_RANK + CUME_DIST per user over (value,
    event_id) — the quantile-bucket window family (X79), completing
    rank/dense_rank (X64) and row_number (X48). ONE range-shuffle
    sort; per sorted block every interior run computes all three
    vectorized from (row offset, run length) alone — the (value,
    event_id) order key is unique, so percent_rank = (rn-1)/(n-1) and
    cume_dist = rn/n are single exact int→float divisions, identical
    IEEE ops on both engines (no pin needed); NTILE uses DuckDB's
    first-(n mod k)-buckets-get-the-extra-row rule. Edge-straddling
    users resolve whole in the bounded per-group pass."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    K = 4
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "value"])

    empty = pa.table({"event_id": pa.array([], pa.int64()),
                      "user_id": pa.array([], pa.int64()),
                      "rn": pa.array([], pa.int64()),
                      "nt": pa.array([], pa.int64()),
                      "prk": pa.array([], pa.float64()),
                      "cd": pa.array([], pa.float64())})

    def windows_of(b: pa.Table, starts: np.ndarray,
                   ends: np.ndarray) -> pa.Table:
        n_rows = b.num_rows
        lens = ends - starts
        rn = np.arange(n_rows) - np.repeat(starts, lens) + 1
        n = np.repeat(lens, lens)
        size_low = n // K
        rem = n % K
        cut = rem * (size_low + 1)
        in_first = rn <= cut
        nt = np.where(
            in_first,
            1 + (rn - 1) // (size_low + 1),
            rem + 1 + (rn - 1 - cut) // np.maximum(size_low, 1))
        prk = np.where(n > 1, (rn - 1) / np.maximum(n - 1, 1), 0.0)
        return pa.table({"event_id": b["event_id"],
                         "user_id": b["user_id"],
                         "rn": pa.array(rn, pa.int64()),
                         "nt": pa.array(nt, pa.int64()),
                         "prk": pa.array(prk, pa.float64()),
                         "cd": pa.array(rn / n, pa.float64())})

    return sorted_bucket_apply(ds, "user_id",
                               ["user_id", "value", "event_id"],
                               windows_of, empty)


SQL_EVENTS_NTILE = """
SELECT event_id, user_id,
       row_number() OVER w AS rn,
       ntile(4) OVER w AS nt,
       percent_rank() OVER w AS prk,
       cume_dist() OVER w AS cd
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY value, event_id)
"""


def q_user_event_path(sf_dir: str):
    """Per-user ordered event-type path (X82): the first 20 event
    types in (ts, event_id) order joined with '>' plus the user's
    total event count — the sequence-mining / clickstream-export
    shape (ordered string_agg). ONE range-shuffle sort; interior runs
    assemble paths via offset-built ListArray + ``pc.binary_join``
    (no per-row Python); a mega-user spans blocks and resolves whole
    in the bounded edge pass, but only its FIRST 20 rows contribute
    to the string, so the output row stays tiny."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from zhtml_ray.stages.sortagg import head_index, sorted_bucket_apply

    CAP = 20
    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts",
                                  "event_type"])

    empty = pa.table({"user_id": pa.array([], pa.int64()),
                      "path": pa.array([], pa.string()),
                      "n_events": pa.array([], pa.int64())})

    def paths_of(b: pa.Table, starts, ends) -> pa.Table:
        lens = ends - starts
        vals = b["event_type"].combine_chunks().take(
            pa.array(head_index(starts, ends, CAP), pa.int64()))
        offsets = pa.array(np.r_[0, np.cumsum(np.minimum(lens, CAP))],
                           pa.int32())
        return pa.table({
            "user_id": b["user_id"].take(pa.array(starts, pa.int64())),
            "path": pc.binary_join(
                pa.ListArray.from_arrays(offsets, vals), ">"),
            "n_events": pa.array(lens, pa.int64())})

    return sorted_bucket_apply(ds, "user_id",
                               ["user_id", "ts", "event_id"],
                               paths_of, empty)


SQL_USER_EVENT_PATH = """
WITH t AS (
  SELECT user_id, event_type, ts, event_id,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n_events
  FROM events)
SELECT user_id,
       string_agg(event_type, '>' ORDER BY ts, event_id) AS path,
       max(n_events)::BIGINT AS n_events
FROM t WHERE rn <= 20 GROUP BY user_id
"""


# ------------------------------------------------------------- pdf/layout

def q_pdf_extract(sf_dir: str):
    """PDF text + layout extraction (north rule: "PDF/layout parse"):
    deterministic synthetic PDFs (functions/pdf.py fixture; the
    generating text is the oracle, asserted in tests/test_pdf.py) →
    stateless map_batches tasks → (doc_id, text, n_pages). Rows-only for the
    driver — PDF parsing is not SQL-expressible."""
    import ray.data as rd
    from zhtml_ray.functions.pdf import PdfExtractBatch, gen_pdf_table
    from zhtml_ray.pipelines.golden import ensure_golden
    ensure_golden("pdf_extract", sf_dir)
    tbl = gen_pdf_table(_media_rows_for(sf_dir))
    ds = rd.from_arrow(tbl.select(["doc_id", "pdf"]))
    out = ds.map_batches(PdfExtractBatch(), batch_format="pyarrow",
                         batch_size=64)
    return out.select_columns(["doc_id", "text", "n_pages"])


# -------------------------------------------------------------- multimodal

def _media_rows_for(sf_dir: str) -> int:
    return {"sf0.001": 60, "sf0.01": 300, "sf0.1": 1500}.get(
        __import__("os").path.basename(
            __import__("os").path.normpath(sf_dir)), 60)


def q_media_features(sf_dir: str):
    import ray.data as rd
    from zhtml_ray.functions.multimodal import ImageFeatures, gen_media_table
    from zhtml_ray.pipelines.golden import ensure_golden, media_feature_project
    ensure_golden("media_features", sf_dir)
    from zhtml_ray.functions.multimodal import filter_kind
    tbl = gen_media_table(_media_rows_for(sf_dir))
    # explicit contract: one feature row per IMAGE row (filter_kind doc)
    ds = rd.from_arrow(tbl).map_batches(
        lambda b: filter_kind(b, "image"), batch_format="pyarrow")
    out = ds.map_batches(ImageFeatures(), batch_format="pyarrow",
                         batch_size=32)
    return out.map_batches(media_feature_project, batch_format="pyarrow")


def q_audio_features(sf_dir: str):
    """Audio feature extraction (framed RMS/ZCR over stub-decoded PCM)
    — stateless map_batches tasks; 32-row batches keep the decoded PCM
    of one batch small."""
    import ray.data as rd
    from zhtml_ray.functions.multimodal import AudioFeatures, gen_media_table
    from zhtml_ray.pipelines.golden import ensure_golden
    ensure_golden("audio_features", sf_dir)
    from zhtml_ray.functions.multimodal import filter_kind
    tbl = gen_media_table(_media_rows_for(sf_dir))
    # explicit contract: one feature row per AUDIO row (filter_kind doc)
    ds = rd.from_arrow(tbl).map_batches(
        lambda b: filter_kind(b, "audio"), batch_format="pyarrow")
    return ds.map_batches(AudioFeatures(), batch_format="pyarrow",
                          batch_size=32)


def q_frame_sample(sf_dir: str):
    import ray.data as rd
    from zhtml_ray.functions.multimodal import FrameSampler, gen_media_table
    from zhtml_ray.pipelines.golden import ensure_golden
    ensure_golden("frame_sample", sf_dir)
    from zhtml_ray.functions.multimodal import filter_kind
    tbl = gen_media_table(_media_rows_for(sf_dir))
    # explicit contract: frames come from VIDEO rows only (filter_kind doc)
    ds = rd.from_arrow(tbl).map_batches(
        lambda b: filter_kind(b, "video"), batch_format="pyarrow")
    return ds.map_batches(FrameSampler(fps=1.0), batch_format="pyarrow",
                          batch_size=32)


def q_pca_project(sf_dir: str, k: int = 4):
    """Distributed PCA projection (X100 — the dimensionality-reduction
    / whitening pass an embedding pipeline runs before ANN or
    SemDeDup): per-BLOCK (n, Σx, Σxxᵀ) moment partials (d²+d+1
    float64s per block, driver folds #blocks rows), content-sorted
    fold, 3-dp-pinned moments → one driver `eigh` (shared with the
    serial golden via `_pca_from_moments`), components broadcast, one
    matmul per batch. Scores 6-dp pinned; output (vec_id, pc0..pc3)
    is layout/schedule/engine-invariant."""
    from zhtml_ray.functions.similarity import pca_fit, pca_transform
    from zhtml_ray.pipelines.golden import ensure_golden

    ensure_golden("pca_project", sf_dir)
    ds = _emb(sf_dir)
    comp = pca_fit(ds, k=k)
    return pca_transform(ds, comp)


def q_media_phash_dup(sf_dir: str):
    """Perceptual-hash image near-duplicate pairs (X98 — the image
    counterpart of MinHash text dedup): dHash64 per decoded image
    (integer luma + exact block means, bit-deterministic), 4×16-bit
    band LSH blocking (total recall to hamming 3 by pigeonhole), the
    shared sort-based bucket pairing, XOR-popcount verify with hashes
    attached by merge joins. The fixture plants a chain of exact image
    duplicates (`gen_media_table(dup_every=10)`); the oracle computes
    the pair list INDEPENDENTLY — DuckDB brute-force all-pairs over
    the serial hash golden — certifying blocking recall AND verify
    precision."""
    import ray.data as rd

    from zhtml_ray.functions.multimodal import (filter_kind,
                                                gen_media_table,
                                                phash_neardup)
    from zhtml_ray.pipelines.golden import ensure_golden

    ensure_golden("media_phash", sf_dir)
    tbl = gen_media_table(_media_rows_for(sf_dir), dup_every=10)
    ds = rd.from_arrow(tbl).map_batches(
        lambda b: filter_kind(b, "image"), batch_format="pyarrow")
    return phash_neardup(ds, max_hamming=3)


def q_media_real_codec_dup(sf_dir: str):
    """Image near-duplicate pairs through REAL codecs end to end (r4
    — closes the r3 'never ran a real codec' gap): payloads are actual
    PNG, 24-bit BMP and (r5) baseline-JPEG files, decode is
    functions/mediacodec.py (pure stdlib zlib + numpy — all five PNG
    filters; JPEG huffman + IDCT, 4:2:0), and the planted duplicates
    are the same pixels RE-ENCODED in a different container: PNG vs
    BMP (lossless twin, hamming 0) and PNG vs JPEG (LOSSY twin, a few
    bits) — exactly the re-encode duplicate classes a crawl sees.
    Same distributed chain and independent DuckDB brute-force pair
    oracle as media_phash_dup."""
    import ray.data as rd

    from zhtml_ray.functions.multimodal import (filter_kind,
                                                gen_real_media_table,
                                                phash_neardup,
                                                real_decode_image)
    from zhtml_ray.pipelines.golden import ensure_golden

    ensure_golden("media_real_phash", sf_dir)
    tbl = gen_real_media_table(_media_rows_for(sf_dir), dup_every=8,
                               jpeg_dup_every=8)
    ds = rd.from_arrow(tbl).map_batches(
        lambda b: filter_kind(b, "image"), batch_format="pyarrow")
    return phash_neardup(ds, max_hamming=3, decode=real_decode_image)


def _sql_media_real_codec_dup() -> str:
    from zhtml_ray.pipelines.golden import _current_dir
    g = f"{_current_dir()}/media_real_phash.parquet"
    return f"""
WITH p AS (SELECT * FROM read_parquet('{g}'))
SELECT a.media_id AS key_a, b.media_id AS key_b,
       bit_count(xor(a.phash, b.phash))::BIGINT AS hamming
FROM p a JOIN p b ON a.media_id < b.media_id
WHERE bit_count(xor(a.phash, b.phash)) <= 3
"""


def _sql_media_phash_dup() -> str:
    from zhtml_ray.pipelines.golden import _current_dir
    g = f"{_current_dir()}/media_phash.parquet"
    return f"""
WITH p AS (SELECT * FROM read_parquet('{g}'))
SELECT a.media_id AS key_a, b.media_id AS key_b,
       bit_count(xor(a.phash, b.phash))::BIGINT AS hamming
FROM p a JOIN p b ON a.media_id < b.media_id
WHERE bit_count(xor(a.phash, b.phash)) <= 3
"""


def q_group_quantiles_cont(sf_dir: str):
    """Interpolated PER-GROUP length quantiles (PERCENTILE_CONT — the
    continuous counterpart of `q_group_quantiles`): identical
    value-counts combine (bounded by distinct (group, length) pairs),
    then both bracketing ranks k=floor/ceil((n-1)·q) come from the
    same cumsum pass and interpolate as ``lo*(1-f) + hi*f`` — pinned
    to DuckDB's exact formula (verified bit-identical over a 2,500-
    case n×q grid; the algebraically-equal ``lo + f*(hi-lo)`` differs
    in the last ulp and is NOT safe)."""
    import math

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ["text", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b["lang"],
                      "len": pc.cast(pc.utf8_length(b["text"]),
                                     pa.int64())})
        t = t.group_by(["lang", "len"]).aggregate([("len", "count")])
        return t.rename_columns(["lang", "len", "cnt"])

    parts = [b for b in ds.map_batches(partial, batch_format="pyarrow")
             .iter_batches(batch_size=None, batch_format="pyarrow")
             if b.num_rows]
    empty = pa.table({"lang": pa.array([], pa.string()),
                      "q": pa.array([], pa.float64()),
                      "n_chars": pa.array([], pa.float64())})
    if not parts:
        return empty
    tbl = (pa.concat_tables(parts, promote_options="default")
           .group_by(["lang", "len"]).aggregate([("cnt", "sum")])
           .sort_by([("lang", "ascending"), ("len", "ascending")]))
    langs = np.asarray(tbl["lang"].to_pylist(), object)
    lens = tbl["len"].to_numpy(zero_copy_only=False)
    cnts = tbl["cnt_sum"].to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.r_[True, langs[1:] != langs[:-1]])
    ends = np.r_[starts[1:], len(langs)]
    out_lang, out_q, out_v = [], [], []
    for s, e in zip(starts, ends):
        cum = np.cumsum(cnts[s:e])
        n = int(cum[-1])
        for q in _QUANTS:
            h = (n - 1) * q
            k0, k1 = math.floor(h), math.ceil(h)
            lo = float(lens[s + int(np.searchsorted(cum, k0, "right"))])
            hi = float(lens[s + int(np.searchsorted(cum, k1, "right"))])
            f = h - k0
            out_lang.append(langs[s])
            out_q.append(q)
            out_v.append(lo * (1 - f) + hi * f)
    return pa.table({"lang": pa.array(out_lang, pa.string()),
                     "q": pa.array(out_q, pa.float64()),
                     "n_chars": pa.array(out_v, pa.float64())})


def _sql_group_quantiles_cont() -> str:
    arms = "\n    UNION ALL ".join(
        f"SELECT lang, {q}::DOUBLE AS q, quantile_cont(len, {q})"
        f" AS n_chars FROM l GROUP BY lang" for q in _QUANTS)
    return f"""
    WITH l AS (SELECT lang, length(text) AS len FROM documents)
    {arms}
    """


def q_weighted_sample(sf_dir: str, k: int = 20):
    """Deterministic WEIGHTED bottom-k sample (coordinated sampling,
    Cohen & Kaplan style): each doc gets w = len(source)%3+1 hash
    lanes and its priority is the MIN lane hash — inclusion odds rise
    with weight (min of w uniforms), yet everything is integer
    arithmetic shared verbatim with the oracle, so the sample is
    reproducible across runs, clusters AND engines (no float pow/log
    whose last-ulp behavior differs by libm). Pure map (lanes expand
    and fold inside the batch via ``np.minimum.reduceat``) → global
    top-k sort+limit with doc_id tie-break."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ["doc_id", "source"])

    def priority(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        slen = pc.utf8_length(b["source"]) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        w = slen % 3 + 1
        idx = np.repeat(np.arange(b.num_rows), w)
        ends = np.cumsum(w)
        lane = np.arange(len(idx), dtype=np.int64) - \
            np.repeat(ends - w, w)
        h = ((ids[idx] * 131 + lane) * 2654435761) % 4294967296
        pr = np.minimum.reduceat(h, ends - w)
        return pa.table({"doc_id": b["doc_id"],
                         "priority": pa.array(pr, pa.int64())})

    return ds.map_batches(priority, batch_format="pyarrow") \
        .sort(["priority", "doc_id"]).limit(k)


SQL_WEIGHTED_SAMPLE = """
WITH lanes AS (
  SELECT doc_id,
         ((doc_id * 131 + e.lane) * 2654435761) % 4294967296 AS h
  FROM documents,
  LATERAL unnest(generate_series(0, length(source) % 3)) AS e(lane))
SELECT doc_id, min(h) AS priority FROM lanes GROUP BY doc_id
ORDER BY priority, doc_id LIMIT 20
"""


def q_source_except(sf_dir: str):
    """Set-difference diagnostic (EXCEPT): sources that publish 'en'
    docs but no 'zh' docs. One pure-map pass of per-batch (source,
    has_en, has_zh) bool partials → a ≤ #sources Max-aggregate groupby
    → map-side filter; raw rows never shuffle."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    ds = _docs(sf_dir, ["source", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        en = pc.cast(pc.equal(b["lang"], "en"), pa.int8())
        zh = pc.cast(pc.equal(b["lang"], "zh"), pa.int8())
        t = pa.table({"source": b["source"], "en": en, "zh": zh})
        return t.group_by("source").aggregate([("en", "max"),
                                               ("zh", "max")]) \
                .rename_columns(["source", "en", "zh"])

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("source").aggregate(Max("en", alias_name="has_en"),
                                     Max("zh", alias_name="has_zh"))
    pdf = agg.to_pandas()
    pdf = pdf[(pdf["has_en"] > 0) & (pdf["has_zh"] == 0)][["source"]]
    return pdf.sort_values("source").reset_index(drop=True)


SQL_SOURCE_EXCEPT = """
SELECT source FROM (
  SELECT DISTINCT source FROM documents WHERE lang = 'en'
  EXCEPT
  SELECT DISTINCT source FROM documents WHERE lang = 'zh')
ORDER BY source
"""


def q_source_intersect(sf_dir: str):
    """Set-intersection diagnostic (INTERSECT, X80 — the EXCEPT
    mirror): sources publishing BOTH 'en' and 'zh' docs. Same
    scale-safe shape as X71: per-batch bool partials → ≤ #sources
    Max-aggregate groupby → driver filter on the tiny result."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    ds = _docs(sf_dir, ["source", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        en = pc.cast(pc.equal(b["lang"], "en"), pa.int8())
        zh = pc.cast(pc.equal(b["lang"], "zh"), pa.int8())
        t = pa.table({"source": b["source"], "en": en, "zh": zh})
        return t.group_by("source").aggregate([("en", "max"),
                                               ("zh", "max")]) \
                .rename_columns(["source", "en", "zh"])

    agg = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("source").aggregate(Max("en", alias_name="has_en"),
                                     Max("zh", alias_name="has_zh"))
    pdf = agg.to_pandas()
    pdf = pdf[(pdf["has_en"] > 0) & (pdf["has_zh"] > 0)][["source"]]
    return pdf.sort_values("source").reset_index(drop=True)


SQL_SOURCE_INTERSECT = """
SELECT source FROM (
  SELECT DISTINCT source FROM documents WHERE lang = 'en'
  INTERSECT
  SELECT DISTINCT source FROM documents WHERE lang = 'zh')
ORDER BY source
"""


def q_top_words(sf_dir: str, k: int = 100):
    """Exact global heavy hitters (X81): the corpus's top-``k`` words
    by total occurrence count, ties broken lexically — the exact
    counterpart of the Count-Min probe (X68), certifying that a
    vocabulary-bounded full count is affordable when the key space is
    words (≪ rows). Per-batch ListArray explode + word-count
    pre-combine → one Arrow-native groupby Sum over the VOCABULARY
    (never raw tokens) → tiny sort+limit."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.functions.textstats import PY_WS_RE2_IN

    ws_pat = "[" + PY_WS_RE2_IN + "]+"
    ds = _docs(sf_dir, ["text"])

    def partial(b: pa.Table) -> pa.Table:
        la = pc.split_pattern_regex(b["text"],
                                    pattern=ws_pat).combine_chunks()
        flat = la.flatten()  # null lists contribute nothing
        t = pa.table({"word": flat}).filter(pc.not_equal(flat, ""))
        g = t.group_by("word").aggregate([("word", "count")])
        return g.rename_columns(["word", "cnt"])

    # sorted_sum, not groupby().aggregate(): ~8× cheaper on
    # high-cardinality keys (BENCH/BASELINE.md sorted_sum section)
    from zhtml_ray.stages.sortagg import sorted_sum_per_group
    cnt = sorted_sum_per_group(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["word"], ["cnt"])

    def neg(b: pa.Table) -> pa.Table:
        return b.append_column("neg", pc.negate_checked(b["cnt"]))

    top = cnt.map_batches(neg, batch_format="pyarrow") \
        .sort(["neg", "word"]).limit(k)
    return top.map_batches(lambda b: b.drop_columns(["neg"]),
                           batch_format="pyarrow")


def _sql_top_words(k: int = 100) -> str:
    from zhtml_ray.functions.textstats import PY_WS_RE2_IN
    ws = "[" + PY_WS_RE2_IN + "]+"
    return f"""
WITH w AS (
  SELECT u.t AS word
  FROM documents, unnest(regexp_split_to_array(text, '{ws}')) AS u(t)
  WHERE u.t <> '')
SELECT word, count(*)::BIGINT AS cnt FROM w
GROUP BY 1 ORDER BY cnt DESC, word LIMIT {k}
"""


def q_bpe_merges(sf_dir: str):
    """Distributed BPE tokenizer-vocabulary training (Sennrich 2016;
    X112): word-TYPE frequency table via the X81 pre-combine +
    ``sorted_sum_per_group`` plan (shuffle moves (batch, word) rows,
    never tokens) → deterministic top-``max_types`` cap → vectorized
    flat-numpy merge rounds over the BOUNDED type table. Oracle: an
    INDEPENDENT naive trainer (Counter recompute per round) in
    ``pipelines/golden.py`` — certifies the algorithm, not just
    distribution-invariance. All-integer: no pin."""
    from zhtml_ray.functions.bpe import bpe_train
    from zhtml_ray.pipelines.golden import ensure_golden
    ensure_golden("bpe_merges", sf_dir)
    return bpe_train(_docs(sf_dir, ["text"]))


def q_bpe_encode(sf_dir: str):
    """Corpus encoding under the learned BPE merge table (X113): the
    merges broadcast once via ``ray.put``; each batch encodes its
    DISTINCT words once (dictionary encode) and scatters subword
    counts back to rows — pure map, zero shuffles. Oracle: naive
    per-word while-loop encoder over the naive trainer's merges."""
    from zhtml_ray.functions.bpe import bpe_encode, bpe_train
    from zhtml_ray.pipelines.golden import ensure_golden
    ensure_golden("bpe_encode", sf_dir)
    merges = bpe_train(_docs(sf_dir, ["text"]))
    return bpe_encode(_docs(sf_dir, ["doc_id", "text"]), merges)


# ------------------------------------------------- mixture / ordering ops

def q_mixture_rollup(sf_dir: str):
    """Data-mixture accounting with ROLLUP subtotals (docs/chars per
    (source, lang), per source, and grand total — the mixture sheet a
    training run is configured from). One pass of per-batch partial
    aggregation at the FINEST grain → a ≤ #sources×#langs groupby; the
    two coarser grains are re-aggregated on the driver from that tiny
    result, never from row data. Subtotal keys use 'ALL' (not NULL) on
    both sides so the gate's row sort is total."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["source", "lang", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["source", "lang"]).aggregate(
            [("n_chars", "count"), ("n_chars", "sum")])
        return g.rename_columns(["source", "lang", "part_d", "part_c"])

    fine = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(["source", "lang"]) \
        .aggregate(Sum("part_d", alias_name="n_docs"),
                   Sum("part_c", alias_name="n_chars")) \
        .to_pandas()

    by_src = fine.groupby("source", as_index=False)[
        ["n_docs", "n_chars"]].sum()
    by_src["lang"] = "ALL"
    total = pd.DataFrame({"source": ["ALL"], "lang": ["ALL"],
                          "n_docs": [fine["n_docs"].sum()],
                          "n_chars": [fine["n_chars"].sum()]})
    out = pd.concat([fine, by_src, total], ignore_index=True)
    out = out[["source", "lang", "n_docs", "n_chars"]].astype(
        {"n_docs": "int64", "n_chars": "int64"})
    return out.sort_values(["source", "lang"]).reset_index(drop=True)


SQL_MIXTURE_ROLLUP = """
SELECT coalesce(source, 'ALL') AS source, coalesce(lang, 'ALL') AS lang,
       count(*) AS n_docs, sum(n_chars)::BIGINT AS n_chars
FROM documents GROUP BY ROLLUP (source, lang)
ORDER BY source, lang
"""


def q_mixture_cube(sf_dir: str):
    """CUBE completion of the ROLLUP sheet (X106): all four grouping
    sets over (source, lang) — the per-LANG marginal is the one ROLLUP
    lacks and the one a multilingual mixture is actually tuned on.
    Same plan: ONE finest-grain distributed pass; all three coarser
    grains re-aggregate from that ≤ #sources×#langs table on the
    driver, never from row data."""
    import pandas as pd

    # reuse the rollup result: it already contains fine + per-source +
    # total; add the per-lang marginal from its FINE rows
    roll = q_mixture_rollup(sf_dir)
    fine = roll[(roll["source"] != "ALL") & (roll["lang"] != "ALL")]
    by_lang = fine.groupby("lang", as_index=False)[
        ["n_docs", "n_chars"]].sum()
    by_lang["source"] = "ALL"
    out = pd.concat([roll, by_lang[["source", "lang", "n_docs",
                                    "n_chars"]]], ignore_index=True)
    out = out.astype({"n_docs": "int64", "n_chars": "int64"})
    return out.sort_values(["source", "lang"]).reset_index(drop=True)


SQL_MIXTURE_CUBE = """
SELECT coalesce(source, 'ALL') AS source, coalesce(lang, 'ALL') AS lang,
       count(*) AS n_docs, sum(n_chars)::BIGINT AS n_chars
FROM documents GROUP BY CUBE (source, lang)
ORDER BY source, lang
"""


def q_regex_search(sf_dir: str):
    """Corpus regex probe (X107 — the grep-the-corpus diagnostic run
    before writing any cleaning rule: how often does a pattern fire,
    and where): per-pattern corpus match-doc count + total match
    count + the lowest 3 matching doc_ids as a sample. RE2 kernels
    compiled once per pattern, ONE pure-map pass emitting ≤ #patterns
    partial rows per batch, a ≤ #patterns groupby, min-k sample via
    tiny sorted heads. Patterns drive BOTH engines from one table."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["doc_id", "text"])
    pats = _REGEX_PROBES

    def partial(b: pa.Table) -> pa.Table:
        rows = {"pattern": [], "pd": [], "pm": [], "ids": []}
        ids = b["doc_id"].combine_chunks().to_numpy(
            zero_copy_only=False)
        for p in pats:
            cnt = pc.count_substring_regex(
                pc.fill_null(b["text"], ""), pattern=p) \
                .to_numpy(zero_copy_only=False)
            hit = cnt > 0
            rows["pattern"].append(p)
            rows["pd"].append(int(hit.sum()))
            rows["pm"].append(int(cnt.sum()))
            rows["ids"].append(
                np.sort(ids[hit])[:3].tolist())
        return pa.table({
            "pattern": pa.array(rows["pattern"], pa.string()),
            "pd": pa.array(rows["pd"], pa.int64()),
            "pm": pa.array(rows["pm"], pa.int64()),
            "ids": pa.array(rows["ids"], pa.list_(pa.int64()))})

    parts = ds.map_batches(partial, batch_format="pyarrow") \
        .materialize()
    agg = parts.select_columns(["pattern", "pd", "pm"]) \
        .groupby("pattern").aggregate(Sum("pd", alias_name="n_docs"),
                                      Sum("pm", alias_name="n_matches"))
    pdf = agg.to_pandas()
    # min-3 sample: fold the per-batch min-3 lists (tiny) on the driver
    import collections
    mins: dict = collections.defaultdict(list)
    for r in parts.select_columns(["pattern", "ids"]).take_all():
        mins[r["pattern"]].extend(r["ids"])
    pdf["sample_ids"] = [
        ",".join(str(x) for x in sorted(mins[p])[:3])
        for p in pdf["pattern"]]
    pdf = pdf[pdf["n_docs"] > 0]
    return pdf.sort_values("pattern").reset_index(drop=True)


_REGEX_PROBES = ["join (hash|merge)", "fast [a-z]+ scan",
                 "(the|a) (big|small) table", "zz_never_matches"]


def _sql_regex_search() -> str:
    vals = ", ".join(f"('{p}')" for p in _REGEX_PROBES)
    return f"""
WITH p(pattern) AS (VALUES {vals}),
hits AS (
  SELECT p.pattern, d.doc_id,
         len(regexp_extract_all(d.text, p.pattern)) AS m
  FROM documents d CROSS JOIN p
  WHERE regexp_matches(d.text, p.pattern)),
agg AS (SELECT pattern, count(*)::BIGINT AS n_docs,
               sum(m)::BIGINT AS n_matches FROM hits GROUP BY 1),
samp AS (SELECT pattern,
                string_agg(doc_id::VARCHAR, ',' ORDER BY doc_id)
                    AS sample_ids
         FROM (SELECT pattern, doc_id FROM hits
               QUALIFY row_number() OVER (PARTITION BY pattern
                                          ORDER BY doc_id) <= 3) t
         GROUP BY 1)
SELECT agg.pattern, agg.n_docs, agg.n_matches, samp.sample_ids
FROM agg JOIN samp USING (pattern)
"""


def q_source_upsample(sf_dir: str):
    """Epoch-weighted source upsampling (mixture tuning: repeat every
    doc of a source w times, tagging each copy with its epoch index) —
    a row-EXPANDING pure map: per batch, ``np.repeat`` of the take
    indices plus a per-copy epoch counter, zero shuffles, streams at
    any scale. The weight is a deterministic function of the source
    name shared verbatim with the oracle (len(source) % 3 + 1)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ["doc_id", "source"])

    def expand(b: pa.Table) -> pa.Table:
        slen = pc.utf8_length(b["source"]) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        w = slen % 3 + 1
        idx = np.repeat(np.arange(b.num_rows), w)
        ends = np.cumsum(w)
        epoch = np.arange(len(idx), dtype=np.int64) - \
            np.repeat(ends - w, w) + 1
        t = b.take(pa.array(idx, pa.int64()))
        return pa.table({"doc_id": t["doc_id"], "source": t["source"],
                         "epoch": pa.array(epoch, pa.int64())})

    return ds.map_batches(expand, batch_format="pyarrow")


SQL_SOURCE_UPSAMPLE = """
SELECT doc_id, source, e.epoch
FROM documents,
LATERAL unnest(generate_series(1, length(source) % 3 + 1)) AS e(epoch)
"""


def q_shuffle_order(sf_dir: str, seed: int = 7):
    """Deterministic seeded training-order shuffle: every doc gets a
    stable global position ordered by a salted Knuth multiplicative
    hash — reproducible across runs/clusters, unlike
    ``random_shuffle`` (whose row order is schedule-dependent; see
    CLAUDE.md). Scale shape: ONE range-shuffle sort by (hash, doc_id)
    + a distributed prefix count — per-block row counts to the driver
    (block-count-bounded), exclusive offsets broadcast keyed by each
    block's first doc_id, block-local ``arange`` for the positions.
    The q_pack_sequences prefix-sum pattern over row counts."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    ds = _docs(sf_dir, ["doc_id"])

    def hashed(b: pa.Table) -> pa.Table:
        h = pc.bit_wise_and(
            pc.multiply_checked(
                pc.cast(pc.add(b["doc_id"], seed), pa.uint64()),
                pa.scalar(2654435761, pa.uint64())),
            pa.scalar(0xFFFFFFFF, pa.uint64()))
        return pa.table({"doc_id": b["doc_id"],
                         "h": pc.cast(h, pa.int64())})

    srt = ds.map_batches(hashed, batch_format="pyarrow") \
        .sort(["h", "doc_id"]).materialize()

    def block_head(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"first_doc": pa.array([], pa.int64()),
                             "h0": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        return pa.table({
            "first_doc": pa.array([b["doc_id"][0].as_py()], pa.int64()),
            "h0": pa.array([b["h"][0].as_py()], pa.int64()),
            "n": pa.array([b.num_rows], pa.int64())})

    heads = srt.map_batches(block_head, batch_size=None,
                            batch_format="pyarrow").take_all()
    heads.sort(key=lambda r: (r["h0"], r["first_doc"]))
    offsets, acc = {}, 0
    for r in heads:
        offsets[r["first_doc"]] = acc
        acc += r["n"]
    oref = ray.put(offsets)

    def number(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64())})
        base = ray.get(oref)[b["doc_id"][0].as_py()]
        return pa.table({
            "doc_id": b["doc_id"],
            "pos": pa.array(base + np.arange(b.num_rows), pa.int64())})

    return srt.map_batches(number, batch_size=None,
                           batch_format="pyarrow")


SQL_SHUFFLE_ORDER = """
SELECT doc_id,
       row_number() OVER (
           ORDER BY ((doc_id + 7) * 2654435761) % 4294967296,
                    doc_id) - 1 AS pos
FROM documents
"""


def q_incremental_dedup(sf_dir: str):
    """Incremental snapshot dedup (new crawl shard vs the at-rest
    corpus): new docs are dropped when their content hash already
    exists in the old corpus, then exact-deduped within the shard
    (first-wins by doc_id). ONE range shuffle of (hash, priority, key)
    rows: old rows ride as priority-0 blockers (at scale, one row per
    distinct hash from the at-rest fingerprint index — X1's output,
    not the raw corpus), new rows as priority-1; the grouped-first
    winner per hash is a new row iff no old copy exists. Text never
    enters the shuffle. The old/new split is deterministic
    (doc_id % 10 >= 8 = the 'new shard')."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.functions.dedup import add_content_hash
    from zhtml_ray.stages.sortagg import sorted_first_per_group

    ds = _docs(sf_dir, ["doc_id", "text", "source"])

    def tag(b: pa.Table) -> pa.Table:
        import numpy as np
        h = add_content_hash(b, "text")
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        is_new = (ids % 10 >= 8).astype(np.int8)
        return pa.table({"content_hash": h["content_hash"],
                         "prio": pa.array(is_new, pa.int8()),
                         "doc_id": b["doc_id"],
                         "source": b["source"]})

    winners = sorted_first_per_group(
        ds.map_batches(tag, batch_format="pyarrow"),
        ["content_hash"], tie_cols=("prio", "doc_id"))

    def keep_new(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["prio"], 1)) \
                .select(["doc_id", "source"])

    return winners.map_batches(keep_new, batch_format="pyarrow")


SQL_INCREMENTAL_DEDUP = """
WITH newdocs AS (SELECT * FROM documents WHERE doc_id % 10 >= 8),
     old     AS (SELECT * FROM documents WHERE doc_id % 10 < 8)
SELECT n.doc_id, n.source FROM newdocs n
WHERE NOT EXISTS (SELECT 1 FROM old o WHERE o.text = n.text)
  AND n.doc_id = (SELECT min(n2.doc_id) FROM newdocs n2
                  WHERE n2.text = n.text)
"""


def q_pmi_collocations(sf_dir: str, min_count: int = 5):
    """PMI collocation extraction (X94): every adjacent word bigram
    occurring at least ``min_count`` times corpus-wide, scored by
    pointwise mutual information — the classic phrase-mining signal
    (Church & Hanks 1990) a tokenizer-vocabulary or phrase-merge pass
    is built from.

    The score is the EXACT integer floor of the PMI *ratio*
    ``pair_cnt·N / (cnt1·cnt2)`` in 1e-4 units (monotone in true PMI
    since log is monotone — rankings match, and no cross-engine libm
    log skew can exist because no log is ever taken). Plan: per-batch
    bigram/unigram count pre-combine over dictionary codes
    (`corpusstats.ngram_counts_batch`, ␟-joined bigram keys split back
    into (w1, w2) after the min-count filter; bigrams never cross doc
    boundaries; `_split_encode` row ids make the
    boundary mask one vector compare) → two sorted run-sum shuffles
    over the (bigram|word) VOCABULARY, never raw tokens → min-count
    filter → two merge-join-as-sort passes attaching unigram counts →
    vectorized divmod scoring. N (total tokens) is a driver scalar;
    the unigram table is vocabulary-bounded and reused (materialized
    once). int64 headroom is asserted: the divmod decomposition
    ``q·1e4 + (r·1e4)//d`` keeps every intermediate ≤ max(pair·N,
    d·1e4) — safe to ~3·10⁷ tokens per run at the 1e-4 pin; beyond
    that shard the corpus or widen to object ints (documented here,
    loud assert below)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.functions.corpusstats import _SEP, ngram_counts_batch
    from zhtml_ray.stages.sortagg import (sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks

    ds = _docs(sf_dir, ["text"])

    def partial(n: int, key: str):
        # the shared n-gram count kernel (corpusstats), ␟-joined keys
        def fn(b: pa.Table) -> pa.Table:
            return ngram_counts_batch(b, n).select(["key", "cnt"]) \
                .rename_columns([key, "cnt"])
        return fn

    pairs = sorted_sum_per_group(
        ds.map_batches(partial(2, "key"), batch_format="pyarrow"),
        ["key"], ["cnt"])

    def keep_frequent(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b["cnt"], min_count))
        w = pc.split_pattern(b["key"], _SEP)
        return pa.table({"w1": pc.list_element(w, 0),
                         "w2": pc.list_element(w, 1),
                         "pair_cnt": b["cnt"]})

    # compact before the chained join sorts (CLAUDE.md sortagg rule)
    pairs = compact_blocks(
        pairs.map_batches(keep_frequent, batch_format="pyarrow"))

    uni = compact_blocks(sorted_sum_per_group(
        ds.map_batches(partial(1, "word"), batch_format="pyarrow"),
        ["word"], ["cnt"]))  # vocabulary-bounded; compacted for reuse
    n_tokens = int(uni.sum("cnt") or 0)

    def _rename(new_key: str, payload: str):
        def fn(b: pa.Table) -> pa.Table:
            return b.rename_columns([new_key, payload])
        return fn

    pairs = sorted_lookup_join(
        pairs, uni.map_batches(_rename("w1", "cnt1"),
                               batch_format="pyarrow"),
        "w1", ["cnt1"])
    pairs = sorted_lookup_join(
        compact_blocks(pairs),
        uni.map_batches(_rename("w2", "cnt2"),
                        batch_format="pyarrow"),
        "w2", ["cnt2"])

    def score(b: pa.Table) -> pa.Table:
        p = b["pair_cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        c1 = b["cnt1"].combine_chunks().to_numpy(zero_copy_only=False)
        c2 = b["cnt2"].combine_chunks().to_numpy(zero_copy_only=False)
        if p.size:
            # int64 headroom for pair·N and d·1e4 (see docstring)
            assert int(p.max()) * n_tokens < 2**62 and \
                int(c1.max()) * int(c2.max()) < 2**62 // 10_000, \
                "pmi_collocations: corpus too large for the int64 " \
                "divmod pin — shard the run or widen to object ints"
        d = c1 * c2
        q, r = np.divmod(p * n_tokens, d)
        pmi_e4 = q * 10_000 + (r * 10_000) // d
        return pa.table({"w1": b["w1"], "w2": b["w2"],
                         "pair_cnt": b["pair_cnt"],
                         "pmi_e4": pa.array(pmi_e4, pa.int64())})

    return pairs.map_batches(score, batch_format="pyarrow")


def _sql_pmi_collocations(min_count: int = 5) -> str:
    from zhtml_ray.functions.textstats import PY_WS_RE2_IN
    ws = "[" + PY_WS_RE2_IN + "]+"
    return f"""
WITH f AS (SELECT doc_id, regexp_split_to_array(text, '{ws}') AS a
           FROM documents),
t0 AS (SELECT doc_id, unnest(a) AS word,
              unnest(range(1, len(a)+1)) AS pos FROM f),
t AS (SELECT doc_id, word,
             row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
      FROM t0 WHERE word <> ''),
bi AS (SELECT t1.word AS w1, t2.word AS w2 FROM t t1
       JOIN t t2 ON t1.doc_id = t2.doc_id AND t2.rn = t1.rn + 1),
p AS (SELECT w1, w2, count(*)::BIGINT AS pair_cnt FROM bi
      GROUP BY 1, 2 HAVING count(*) >= {min_count}),
uni AS (SELECT word, count(*)::BIGINT AS cnt FROM t GROUP BY 1),
n AS (SELECT count(*)::BIGINT AS n_tokens FROM t)
SELECT p.w1, p.w2, p.pair_cnt,
       ((p.pair_cnt::HUGEINT * n.n_tokens)
          // (u1.cnt::HUGEINT * u2.cnt) * 10000
        + ((p.pair_cnt::HUGEINT * n.n_tokens)
           % (u1.cnt::HUGEINT * u2.cnt)) * 10000
          // (u1.cnt::HUGEINT * u2.cnt))::BIGINT AS pmi_e4
FROM p
JOIN uni u1 ON u1.word = p.w1
JOIN uni u2 ON u2.word = p.w2
CROSS JOIN n
"""


def q_heavy_hitters(sf_dir: str):
    """X115: exact frequent-bigram heavy hitters via the two-pass
    candidate/verify plan (distributed Misra-Gries guarantee — recall
    by pigeonhole, precision by exact re-count; the full bigram
    vocabulary is never shuffled, only <= capacity nominees per batch;
    functions/corpusstats.py:heavy_hitters has the proof). All-integer
    => layout/schedule invariant, no pin."""
    from zhtml_ray.functions.corpusstats import heavy_hitters
    ds = _docs(sf_dir, ["doc_id", "text"])
    return heavy_hitters(ds, capacity=699)


def _sql_heavy_hitters(c1: int = 700) -> str:
    from zhtml_ray.functions.textstats import PY_WS_RE2_IN
    ws = "[" + PY_WS_RE2_IN + "]+"
    return f"""
WITH f AS (SELECT doc_id, regexp_split_to_array(text, '{ws}') AS a
           FROM documents),
t0 AS (SELECT doc_id, unnest(a) AS word,
              unnest(range(1, len(a)+1)) AS pos FROM f),
t AS (SELECT doc_id, word,
             row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
      FROM t0 WHERE word <> ''),
bi AS (SELECT t1.word AS w1, t2.word AS w2 FROM t t1
       JOIN t t2 ON t1.doc_id = t2.doc_id AND t2.rn = t1.rn + 1),
tot AS (SELECT count(*)::BIGINT AS n FROM bi)
SELECT w1, w2, count(*)::BIGINT AS cnt
FROM bi CROSS JOIN tot
GROUP BY w1, w2, n
HAVING count(*) * {c1} > n
"""


def _clf_weights(dim: int = 64) -> tuple[list, float]:
    """Deterministic linear-classifier weights (both engines build the
    SAME double constants from these literals): w_i = ((i·37 mod 21)
    − 10) / 10, bias −0.05."""
    return [((i * 37) % 21 - 10) / 10.0 for i in range(dim)], -0.05


def q_quality_classifier(sf_dir: str, threshold: float = 0.0):
    """Linear quality-classifier scoring over the embedding column
    (X97) — the CCNet/fastText-style model-based filter shape: a tiny
    trained model (here deterministic fixture weights, injected the
    same way real weights would be) broadcast once, scored as one
    chunked matmul per batch, kept rows = logit above threshold.
    Sigmoid is monotone, so thresholding the logit IS thresholding the
    probability — no transcendental in the gate. Logits are 6-dp
    house-pinned BEFORE the threshold compare on both engines (the
    X86 rule: pin, then derive)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from zhtml_ray.functions.similarity import _emb_matrix

    w, bias = _clf_weights(_EMB_DIM)
    ref = ray.put(np.asarray(w, np.float64))

    class Score:
        def __init__(self):
            self.w = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            M = _emb_matrix(b["embedding"]).astype(np.float64)
            logit = np.floor((M @ self.w + bias) * 1e6 + 0.5) / 1e6
            return pa.table({
                "vec_id": b["vec_id"],
                "logit_r": pa.array(logit, pa.float64()),
                "keep": pa.array(logit > threshold)})

    return _emb(sf_dir).map_batches(stateless_stage(Score),
                                    batch_format="pyarrow")


def _sql_quality_classifier(threshold: float = 0.0) -> str:
    w, bias = _clf_weights(_EMB_DIM)
    lst = ", ".join(repr(x) for x in w)
    return f"""
SELECT vec_id,
       floor((list_dot_product(embedding::DOUBLE[],
                               [{lst}]::DOUBLE[]) + ({bias!r})) * 1e6
             + 0.5) / 1e6 AS logit_r,
       floor((list_dot_product(embedding::DOUBLE[],
                               [{lst}]::DOUBLE[]) + ({bias!r})) * 1e6
             + 0.5) / 1e6 > {threshold!r} AS keep
FROM embeddings
"""


def _mlp_weights(dim: int = _EMB_DIM, hidden: int = 4):
    """Deterministic 2-layer MLP fixture weights (both engines build
    the SAME double constants from these literals): the small-MLP
    shape a fastText/CCNet-style quality filter distills to.
    Layer-2 weights are INTEGERS on purpose — the hidden units are
    6-dp-pinned, so fractional output weights would put the logit on
    a 7-dp grid where a 6-dp pin has flip boundaries ON achievable
    sums (the r3 q9 / DATA-GRID rule; measured: 0.1-scale weights
    flipped ~1/500 rows at the gate)."""
    w1 = [[((i * 7 + j * 13) % 19 - 9) / 10.0 for j in range(hidden)]
          for i in range(dim)]
    b1 = [(j - 1.5) / 10.0 for j in range(hidden)]
    w2 = [[2.0], [-1.0], [1.0], [-3.0]]
    b2 = [0.05]
    return w1, b1, w2, b2


def q_mlp_classifier(sf_dir: str, threshold: float = 0.0):
    """2-layer MLP quality scoring over the embedding column through
    the FORMALIZED model-inference stage (functions/inference.py:
    ModelScoreStage — r5, VERDICT #5): weights broadcast ONCE via
    ray.put, loaded once per actor in __init__, chunked float64
    matmuls per batch, every layer 6-dp-pinned (pin-then-derive) so
    the hidden ReLUs and the logit are bit-identical cross-engine.
    The SQL oracle recomputes the same pinned forward pass with
    per-hidden-unit list_dot_product expressions."""
    import ray

    from zhtml_ray.functions.inference import score_embeddings

    w1, b1, w2, b2 = _mlp_weights()
    ref = ray.put([(w1, b1), (w2, b2)])
    return score_embeddings(_emb(sf_dir), ref, out_col="logit_r",
                            threshold=threshold)


def _sql_mlp_classifier(threshold: float = 0.0) -> str:
    w1, b1, w2, b2 = _mlp_weights()
    hidden = len(b1)
    hs = []
    for j in range(hidden):
        col = ", ".join(repr(w1[i][j]) for i in range(len(w1)))
        hs.append(
            f"floor(greatest(list_dot_product(embedding::DOUBLE[], "
            f"[{col}]::DOUBLE[]) + ({b1[j]!r}), 0.0) * 1e6 + 0.5) / 1e6"
            f" AS h{j}")
    logit = " + ".join(f"h{j} * ({w2[j][0]!r})" for j in range(hidden))
    return f"""
WITH hid AS (SELECT vec_id, {', '.join(hs)} FROM embeddings),
lg AS (SELECT vec_id,
              floor(({logit} + ({b2[0]!r})) * 1e6 + 0.5) / 1e6 AS logit_r
       FROM hid)
SELECT vec_id, logit_r, logit_r > {threshold!r} AS keep FROM lg
"""


def q_snapshot_diff(sf_dir: str):
    """Corpus snapshot diff (X102 — the data-ops audit between two
    crawl versions: what was added / removed / changed / kept). Old
    snapshot = doc_id%10<8, new = doc_id%10>=2 with every doc_id%7==0
    text mutated — deterministic overlap on both null sides plus real
    changes. Each side reduces to (doc_id, sha1) per batch — text
    never shuffles — then ONE `sorted_lookup_join(how='full')` range
    shuffle classifies every key: added (old null), removed (new
    null), changed (hash differs), same."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.functions.dedup import add_content_hash
    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    ds = _docs(sf_dir, ["doc_id", "text"])

    def side(which: str):
        def fn(b: pa.Table) -> pa.Table:
            m = _mod(b["doc_id"].combine_chunks(), 10)
            t = b.filter(pc.less(m, 8) if which == "old"
                         else pc.greater_equal(m, 2))
            if which == "new":
                mut = pc.equal(_mod(t["doc_id"].combine_chunks(), 7), 0)
                txt = pc.fill_null(t["text"], "")  # NULL ⇒ '' (SQL
                # coalesce mirrors this; add_content_hash hashes '')
                t = t.set_column(
                    t.schema.get_field_index("text"), "text",
                    pc.if_else(mut, pc.binary_join_element_wise(
                        txt, " v2", ""), txt))
            h = add_content_hash(t, "text",
                                 out="h_" + which)
            return h.select(["doc_id", "h_" + which])
        return fn

    new = drop_empty_blocks(ds.map_batches(side("new"),
                                           batch_format="pyarrow"))
    old = drop_empty_blocks(ds.map_batches(side("old"),
                                           batch_format="pyarrow"))
    j = sorted_lookup_join(compact_blocks(new), old, "doc_id",
                           ["h_old"], how="full")

    def classify(b: pa.Table) -> pa.Table:
        hn, ho = b["h_new"], b["h_old"]
        status = pc.if_else(
            pc.is_null(ho), "added",
            pc.if_else(pc.is_null(hn), "removed",
                       pc.if_else(pc.equal(hn, ho), "same", "changed")))
        return pa.table({"doc_id": b["doc_id"],
                         "status": pc.cast(status, pa.string())})

    return j.map_batches(classify, batch_format="pyarrow")


# the oracle compares TEXTS where the engine compares sha1 digests —
# equivalent semantics (equal digest ⇔ equal text), independent plan.
# coalesce matches the engine's NULL⇒'' hashing (add_content_hash
# hashes (s or '')): a NULL-text row must diff as '' on BOTH sides
SQL_SNAPSHOT_DIFF = """
WITH old AS (SELECT doc_id, coalesce(text, '') AS t FROM documents
             WHERE doc_id % 10 < 8),
new AS (SELECT doc_id,
               CASE WHEN doc_id % 7 = 0 THEN coalesce(text, '') || ' v2'
                    ELSE coalesce(text, '') END AS t
        FROM documents WHERE doc_id % 10 >= 2)
SELECT doc_id,
       CASE WHEN old.t IS NULL THEN 'added'
            WHEN new.t IS NULL THEN 'removed'
            WHEN new.t = old.t THEN 'same'
            ELSE 'changed' END AS status
FROM new FULL OUTER JOIN old USING (doc_id)
"""


_UPSERT_INS_OFFSET = 10 ** 12  # inserted ids: above every real doc_id


def q_snapshot_upsert(sf_dir: str):
    """X117: MERGE INTO / upsert — apply a change feed (insert /
    update / delete rows) to a base snapshot, the at-rest mutation
    step between crawl versions that `snapshot_diff` (X102) audits.
    The feed here is derived deterministically from the base by
    disjoint rules (delete doc_id%11==5; update %7==3 of the rest,
    text ⇒ text||' rev2'; insert a derived row id+1e12 for %13==1),
    but ``apply`` is the generic operator: ONE
    `sorted_lookup_join(how='full')` range shuffle co-locates base and
    feed by key (a MERGE is inherently a join — each side shuffles
    once, nothing broadcasts), then a pure map resolves each row:
    feed-miss ⇒ keep, U/I ⇒ feed text, D ⇒ drop. Keys are unique per
    side by construction, the join primitive's contract."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from zhtml_ray.stages.sortagg import sorted_lookup_join
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    ds = _docs(sf_dir, ["doc_id", "text"])

    def changes(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].combine_chunks()
        m11, m7, m13 = (_mod(ids, m) for m in (11, 7, 13))
        outs = []
        d = b.filter(pc.equal(m11, 5))
        if d.num_rows:
            outs.append(pa.table({
                "doc_id": d["doc_id"],
                "op": pa.array(["D"] * d.num_rows, pa.string()),
                "new_text": pa.nulls(d.num_rows, pa.string())}))
        u = b.filter(pc.and_(pc.not_equal(m11, 5), pc.equal(m7, 3)))
        if u.num_rows:
            outs.append(pa.table({
                "doc_id": u["doc_id"],
                "op": pa.array(["U"] * u.num_rows, pa.string()),
                "new_text": pc.binary_join_element_wise(
                    pc.fill_null(u["text"], ""), " rev2", "")}))
        i = b.filter(pc.equal(m13, 1))
        if i.num_rows:
            outs.append(pa.table({
                "doc_id": pc.add(i["doc_id"].combine_chunks(),
                                 pa.scalar(_UPSERT_INS_OFFSET,
                                           pa.int64())),
                "op": pa.array(["I"] * i.num_rows, pa.string()),
                "new_text": pc.binary_join_element_wise(
                    pa.array(["ins"] * i.num_rows),
                    pc.fill_null(i["text"], ""), " ")}))
        if not outs:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "op": pa.array([], pa.string()),
                             "new_text": pa.array([], pa.string())})
        return pa.concat_tables(outs)

    feed = drop_empty_blocks(ds.map_batches(changes,
                                            batch_format="pyarrow"))
    j = sorted_lookup_join(ds, compact_blocks(feed), "doc_id",
                           ["op", "new_text"], how="full")

    def resolve(b: pa.Table) -> pa.Table:
        op = b["op"]
        t = b.filter(pc.or_kleene(pc.is_null(op),
                                  pc.not_equal(op, "D")))
        text = pc.if_else(pc.is_null(t["op"]), t["text"],
                          t["new_text"])
        return pa.table({"doc_id": t["doc_id"],
                         "text": pc.cast(text, pa.string())})

    return j.map_batches(resolve, batch_format="pyarrow")


def _sql_snapshot_upsert() -> str:
    return f"""
WITH ch AS (
  SELECT doc_id, 'D' AS op, NULL::VARCHAR AS new_text
  FROM documents WHERE doc_id % 11 = 5
  UNION ALL
  SELECT doc_id, 'U', coalesce(text, '') || ' rev2'
  FROM documents WHERE doc_id % 11 <> 5 AND doc_id % 7 = 3
  UNION ALL
  SELECT doc_id + {_UPSERT_INS_OFFSET}, 'I', 'ins ' || coalesce(text, '')
  FROM documents WHERE doc_id % 13 = 1)
SELECT doc_id,
       CASE WHEN ch.op IS NULL THEN d.text ELSE ch.new_text END AS text
FROM documents d FULL OUTER JOIN ch USING (doc_id)
WHERE ch.op IS NULL OR ch.op <> 'D'
"""


def q_event_trigrams(sf_dir: str, k: int = 20):
    """Top-k per-user event-type trigrams (X103 — sequential-pattern
    mining over clickstreams: the 'what 3-step paths happen most'
    product question). ONE range-shuffle sort on (user, ts, event_id)
    — the same single shuffle every window op here rides — then
    block-local vectorized trigram extraction (adjacent triples within
    a user, via run-id shift compares on dictionary codes), per-block
    count pre-combine, a trigram-vocabulary-bounded run-sum, tiny
    sort+limit. Users straddling a block edge resolve whole in the
    bounded per-group pass."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from zhtml_ray.stages.sortagg import (sorted_bucket_apply,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id",
                                  "event_type"])
    empty = pa.table({"trigram": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64())})

    def trigrams_of(b: pa.Table, starts, ends) -> pa.Table:
        run_id = np.repeat(np.arange(len(starts)), ends - starts)
        ok = (run_id[:-2] == run_id[1:-1]) & (run_id[1:-1] == run_id[2:])
        pos = np.flatnonzero(ok)
        if pos.size == 0:
            return empty
        types = b["event_type"].combine_chunks()
        tri = pc.binary_join_element_wise(
            types.take(pa.array(pos, pa.int64())),
            types.take(pa.array(pos + 1, pa.int64())),
            types.take(pa.array(pos + 2, pa.int64())), ">")
        g = pa.table({"trigram": tri}).group_by("trigram") \
            .aggregate([("trigram", "count")])
        return g.rename_columns(["trigram", "cnt"])

    parts = sorted_bucket_apply(ds, "user_id",
                                ["user_id", "ts", "event_id"],
                                trigrams_of, empty)
    cnt = compact_blocks(sorted_sum_per_group(compact_blocks(parts),
                                              ["trigram"], ["cnt"]))

    def neg(b: pa.Table) -> pa.Table:
        return b.append_column("neg", pc.negate_checked(b["cnt"]))

    top = cnt.map_batches(neg, batch_format="pyarrow") \
        .sort(["neg", "trigram"]).limit(k)
    return top.map_batches(lambda b: b.drop_columns(["neg"]),
                           batch_format="pyarrow")


def _sql_event_trigrams(k: int = 20) -> str:
    return f"""
WITH w AS (
  SELECT event_type AS a,
         lead(event_type, 1) OVER
             (PARTITION BY user_id ORDER BY ts, event_id) AS b,
         lead(event_type, 2) OVER
             (PARTITION BY user_id ORDER BY ts, event_id) AS c
  FROM events)
SELECT a || '>' || b || '>' || c AS trigram, count(*)::BIGINT AS cnt
FROM w WHERE c IS NOT NULL
GROUP BY 1 ORDER BY cnt DESC, trigram LIMIT {k}
"""


# URL-prefix blocklist (Dolma/CCNet shape); "https://www.h3." also
# PROVES the prefix-free normalization: it subsumes the longer /p/1
# entry, which must become redundant, not shadow it
_URL_BLOCKLIST = ["https://www.h3.example.com/",
                  "https://www.h3.example.com/p/1",
                  "https://www.h5.example.com/p/1",
                  "https://www.h6.example.com/p/33?id"]


def normalize_prefix_free(prefixes: list[str]) -> list[str]:
    """Sorted prefix-free form: drop any entry extending a kept one.
    With a prefix-free sorted list, a string's ONLY possible matching
    prefix is its lexicographic predecessor (any Q between prefix P
    and a P-prefixed url would itself extend P), so one searchsorted
    per row resolves membership."""
    out: list[str] = []
    for p in sorted(set(prefixes)):
        if not out or not p.startswith(out[-1]):
            out.append(p)
    return out


def q_url_blocklist(sf_dir: str):
    """URL-prefix blocklist filter (X101 — the Dolma/CCNet URL-filter
    shape: a small blocklist of site/path prefixes marks a huge crawl
    stream). The blocklist is normalized prefix-free and broadcast
    sorted; each batch canonicalizes its URLs (shared X30 kernel) and
    resolves every row with ONE `np.searchsorted` + a per-PREFIX
    vectorized `starts_with` over its candidate rows — zero shuffles,
    loop bounded by blocklist size, never rows."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from zhtml_ray.functions.urltools import canonicalize_batch

    pref = normalize_prefix_free(_URL_BLOCKLIST)
    ref = ray.put(np.array(pref))

    class Block:
        def __init__(self):
            self.pref = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            cu = canonicalize_batch(
                pa.table({"url": _overlay_urls(b)}))["canonical_url"]
            urls = cu.combine_chunks().to_numpy(zero_copy_only=False)
            idx = np.searchsorted(self.pref, urls, side="right") - 1
            blocked = np.zeros(len(urls), bool)
            for i in range(len(self.pref)):
                cand = idx == i
                if cand.any():
                    m = pc.starts_with(pa.array(urls[cand]),
                                       self.pref[i])
                    blocked[cand] = m.to_numpy(zero_copy_only=False)
            return pa.table({"doc_id": b["doc_id"],
                             "canonical_url": cu,
                             "blocked": pa.array(blocked)})

    return _docs(sf_dir, ["doc_id"]).map_batches(
        stateless_stage(Block), batch_format="pyarrow")


def _sql_url_blocklist() -> str:
    from zhtml_ray.functions.urltools import sql_canonical_exprs
    _, canon = sql_canonical_exprs("url")
    vals = ", ".join(f"('{p}')" for p in _URL_BLOCKLIST)
    return f"""
WITH bl(prefix) AS (VALUES {vals}),
c AS (SELECT doc_id, {canon} AS canonical_url
      FROM (SELECT doc_id, {_SQL_URL_OVERLAY} AS url FROM documents))
SELECT doc_id, canonical_url,
       EXISTS (SELECT 1 FROM bl
               WHERE starts_with(c.canonical_url, bl.prefix)) AS blocked
FROM c
"""


def _robots_rules() -> list[tuple[str, str, bool]]:
    """Deterministic per-host crawl-policy rules (host, path-prefix,
    allow) over the overlay URL space — the closed formula both the
    engine and the SQL oracle inline. Shapes covered: a broad
    Disallow ("/p/"), a longer Allow override ("/p/<k>"), a 3rd-level
    re-Disallow inside the allowed subtree (host 2: "/p/23" — doc
    d3=23 lands on host 23%7=2, so it fires even at sf0.001), and an
    equal-length Allow/Disallow tie (host 5) where REP's
    least-restrictive rule makes Allow win."""
    rules: list[tuple[str, str, bool]] = []
    for k in range(7):
        host = f"www.h{k}.example.com"
        rules.append((host, "/p/", False))
        rules.append((host, f"/p/{k}", True))
    rules.append(("www.h2.example.com", "/p/23", False))
    rules.append(("www.h5.example.com", "/p/5", False))
    return rules


_URL_SPLIT_RE = r"^https://([^/]+)(/.*)?$"


def q_robots_filter(sf_dir: str):
    """robots.txt-style crawl-policy filter (X-web, r4 — the REP
    evaluation every polite crawler runs per URL): per-host
    Allow/Disallow path-prefix rules with the Robots Exclusion
    Protocol's LONGEST-MATCH-WINS resolution and least-restrictive
    (Allow) tie-break — unlike the flat prefix blocklist (X101),
    rules override each other by specificity. The tiny rule table
    broadcasts once; each batch canonicalizes its URLs, splits
    host/path with one vectorized RE2 extract, and resolves every
    row with one vectorized starts_with per RULE (loop bounded by
    the rule count, never rows; zero shuffles). Wildcard/``$``
    patterns are out of scope (prefix rules are the dominant
    real-world case) and documented as such."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from zhtml_ray.functions.urltools import canonicalize_batch

    rules = _robots_rules()
    ref = ray.put(rules)

    class Robots:
        def __init__(self):
            self.rules = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            cu = canonicalize_batch(
                pa.table({"url": _overlay_urls(b)}))["canonical_url"]
            parts = pc.extract_regex(
                cu, r"^https://(?P<host>[^/]+)(?P<pathq>/.*)?$")
            hosts = np.asarray(
                pc.struct_field(parts, "host").to_pylist(), object)
            pq_ = pa.array(
                [p or "/" for p in
                 pc.struct_field(parts, "pathq").to_pylist()],
                pa.string())
            n = len(hosts)
            best_len = np.full(n, -1, np.int64)
            best_allow = np.ones(n, bool)   # no match → allowed
            best_rule = np.full(n, None, object)
            for rh, rp, ra in self.rules:
                cand = np.flatnonzero(hosts == rh)
                if not len(cand):
                    continue
                m = pc.starts_with(pq_.take(pa.array(cand, pa.int64())),
                                   rp).to_numpy(zero_copy_only=False)
                rows = cand[m]
                if not len(rows):
                    continue
                L = len(rp)
                upd = L > best_len[rows]
                r_upd = rows[upd]
                best_len[r_upd] = L
                best_allow[r_upd] = ra
                best_rule[r_upd] = rp
                # equal length: least-restrictive (Allow) wins =
                # bool_or over max-length matches, and the REPORTED
                # rule is the lexicographic min of the tied paths —
                # both mirror the oracle's bool_or/min aggregates
                # (r5 advisor: first-applied only agreed by accident
                # of the current rule table)
                tie = rows[L == best_len[rows]]
                if ra:
                    best_allow[tie] = True
                for r in tie:
                    if best_rule[r] is None or rp < best_rule[r]:
                        best_rule[r] = rp
            return pa.table({
                "doc_id": b["doc_id"],
                "allowed": pa.array(best_allow),
                "matched_rule": pa.array(best_rule.tolist(),
                                         pa.string())})

    return _docs(sf_dir, ["doc_id"]).map_batches(
        stateless_stage(Robots), batch_format="pyarrow")


def _sql_robots_filter() -> str:
    from zhtml_ray.functions.urltools import sql_canonical_exprs
    _, canon = sql_canonical_exprs("url")
    vals = ", ".join(f"('{h}', '{p}', {str(a).upper()})"
                     for h, p, a in _robots_rules())
    return f"""
WITH rules(host, rpath, allow_) AS (VALUES {vals}),
c AS (SELECT doc_id,
             regexp_extract(cu, '{_URL_SPLIT_RE}', 1) AS host,
             COALESCE(NULLIF(regexp_extract(cu, '{_URL_SPLIT_RE}', 2),
                             ''), '/') AS pathq
      FROM (SELECT doc_id, {canon} AS cu
            FROM (SELECT doc_id, {_SQL_URL_OVERLAY} AS url
                  FROM documents))),
m AS (SELECT c.doc_id, r.rpath, r.allow_,
             length(r.rpath) AS l
      FROM c JOIN rules r
        ON c.host = r.host AND starts_with(c.pathq, r.rpath)),
w AS (SELECT doc_id, max(l) AS maxl FROM m GROUP BY doc_id),
v AS (SELECT m.doc_id,
             bool_or(m.allow_) AS any_allow,
             min(m.rpath) AS matched_rule
      FROM m JOIN w USING (doc_id) WHERE m.l = w.maxl
      GROUP BY m.doc_id)
SELECT c.doc_id,
       COALESCE(v.any_allow, TRUE) AS allowed,
       v.matched_rule
FROM c LEFT JOIN v USING (doc_id)
"""


# disjoint, gap-bearing [lo, hi) intervals — the IP-to-geo lookup shape
_RANGE_TABLE = [(0, 120, "xs"), (120, 220, "s"), (260, 340, "m"),
                (340, 460, "l"), (500, 1000, "xl")]


def q_range_lookup(sf_dir: str):
    """Static range-table broadcast lookup (X99 — the IP-geolocation /
    rate-card shape: a SMALL sorted disjoint interval table labels a
    huge fact stream). Unlike the as-of join (both sides shuffle),
    the interval table broadcasts once and each batch resolves with
    ONE `np.searchsorted` against the lo bounds + an hi containment
    check — zero shuffles, gaps yield null labels. At 100 TB this is
    the only sane plan for a lookup side that fits memory."""
    import numpy as np
    import pyarrow as pa
    import ray

    lo = np.array([r[0] for r in _RANGE_TABLE], np.int64)
    hi = np.array([r[1] for r in _RANGE_TABLE], np.int64)
    lab = np.array([r[2] for r in _RANGE_TABLE])
    ref = ray.put((lo, hi, lab))

    class Lookup:
        def __init__(self):
            self.lo, self.hi, self.lab = ray.get(ref)

        def __call__(self, b: pa.Table) -> pa.Table:
            v = b["n_chars"].combine_chunks().to_numpy(
                zero_copy_only=False)
            idx = np.searchsorted(self.lo, v, side="right") - 1
            ok = (idx >= 0) & (v < self.hi[np.clip(idx, 0, None)])
            return pa.table({
                "doc_id": b["doc_id"],
                "n_chars": b["n_chars"],
                "size_class": pa.array(
                    self.lab[np.clip(idx, 0, None)], pa.string())
                .take(pa.array(np.arange(len(v)), pa.int64(),
                               mask=~ok))})

    return _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        stateless_stage(Lookup), batch_format="pyarrow")


def _sql_range_lookup() -> str:
    vals = ", ".join(f"({lo}, {hi}, '{lab}')"
                     for lo, hi, lab in _RANGE_TABLE)
    return f"""
WITH r(lo, hi, size_class) AS (VALUES {vals})
SELECT d.doc_id, d.n_chars, r.size_class
FROM documents d LEFT JOIN r ON d.n_chars >= r.lo AND d.n_chars < r.hi
"""


_INVIDX_PROBES = ["hash", "join", "vector", "sort", "zzz_absent_term"]


def q_inverted_index(sf_dir: str):
    """Inverted-index-at-rest round trip (X95): build the partitioned
    posting-list index (`functions/retrieval.py:build_inverted_index`
    — term×doc tf pre-combine → ONE range shuffle → ListArray run
    assembly → Hive write under `term_bucket=<h>/`), then probe a
    fixed term list reading ONLY the probed buckets' partitions.
    Output per FOUND probe term: df, total tf, and the first 20
    posting doc_ids ascending (comma string — certifies posting
    ORDER, not just membership); absent probes yield no row. The
    index lands in a per-pid /tmp dir (concurrent gate runs can't
    interleave) and is rebuilt per call."""
    import pyarrow as pa

    from zhtml_ray.functions.retrieval import (build_inverted_index,
                                               inverted_index_lookup)

    out_dir = _own_pid_dir("/tmp/zhtml_ray_invidx_")
    ds = _docs(sf_dir, ["doc_id", "text"])
    build_inverted_index(ds, out_dir)
    stats: dict = {}
    hits = inverted_index_lookup(out_dir, _INVIDX_PROBES,
                                 scan_stats=stats)
    assert stats["n_buckets_read"] < stats["n_buckets_total"], \
        "inverted_index probe read every bucket — pruning regressed"

    def fmt(b: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc
        ids20 = pc.list_slice(b["doc_ids"], 0, 20)
        head = pc.binary_join(
            pc.cast(ids20, pa.list_(pa.string())), ",")
        tfs = b["tfs"].combine_chunks()
        off = tfs.offsets.to_numpy(zero_copy_only=False)
        vals = tfs.values.to_numpy(zero_copy_only=False)
        tot = np.add.reduceat(vals, off[:-1]) if len(vals) \
            else np.zeros(b.num_rows, np.int64)
        tot[off[:-1] == off[1:]] = 0  # reduceat quirk on empty lists
        return pa.table({
            "term": b["term"], "df": b["df"],
            "total_tf": pa.array(tot, pa.int64()),
            "head_docs": head})

    return hits.map_batches(fmt, batch_format="pyarrow")


def _sql_inverted_index() -> str:
    probes = ", ".join(f"'{t}'" for t in _INVIDX_PROBES)
    return f"""
WITH w AS ({_sql_words()}),
u AS (SELECT doc_id, unnest(words) AS word FROM w),
tf AS (SELECT word AS term, doc_id, count(*)::BIGINT AS tf FROM u
       WHERE word IN ({probes}) AND word <> ''
       GROUP BY 1, 2),
agg AS (SELECT term, count(*)::BIGINT AS df,
               sum(tf)::BIGINT AS total_tf FROM tf GROUP BY 1),
h AS (SELECT term, doc_id FROM tf
      QUALIFY row_number() OVER (PARTITION BY term
                                 ORDER BY doc_id) <= 20),
hs AS (SELECT term,
              string_agg(doc_id::VARCHAR, ',' ORDER BY doc_id)
                  AS head_docs
       FROM h GROUP BY 1)
SELECT a.term, a.df, a.total_tf, hs.head_docs
FROM agg a JOIN hs USING (term)
"""


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "token_count": q_token_count,
        "bucketed_join": q_bucketed_join,
        "bpe_token_count": q_bpe_token_count,
        "quality_score": q_quality,
        "gopher_rules": q_gopher_rules,
        "c4_clean": q_c4_clean,
        "dsir_select": q_dsir_select,
        "web_pipeline": q_web_pipeline,
        "train_val_split": q_train_val_split,
        "user_churn": q_user_churn,
        "events_anomaly": q_events_anomaly,
        "events_heatmap": q_events_heatmap,
        "tokens_by_split": q_tokens_by_split,
        "corpus_overview": q_corpus_overview,
        "word_dropout": q_word_dropout,
        "dedup_cluster_sizes": q_dedup_cluster_sizes,
        "dedup_rate_by_source": q_dedup_rate_by_source,
        "lang_id": q_langid,
        "fingerprint": q_fingerprint,
        "qa_sample": q_qa_sample,
        "corpus_prep": q_corpus_prep,
        "paragraph_dedup": q_paragraph_dedup,
        "corpus_mixture": q_corpus_mixture,
        "source_cap_sample": q_source_cap_sample,
        "pii_redact": q_pii_redact,
        "url_host_stats": q_url_host_stats,
        "url_dedup": q_url_dedup,
        "host_cap": q_host_cap,
        "normalize_text": q_normalize_text,
        "length_quantiles": q_length_quantiles,
        "group_quantiles": q_group_quantiles,
        "jsonl_docs": q_jsonl_docs,
        "click_attribution": q_click_attribution,
        "event_lag": q_event_lag,
        "events_cumsum": q_events_cumsum,
        "events_distinct_users": q_events_distinct_users,
        "events_moving_avg": q_events_moving_avg,
        "events_range_window": q_events_range_window,
        "window_join": q_window_join,
        "event_dedup_window": q_event_dedup_window,
        "events_funnel": q_events_funnel,
        "events_value_rank": q_events_value_rank,
        "events_retention": q_events_retention,
        "events_ntile": q_events_ntile,
        "user_event_path": q_user_event_path,
        "source_intersect": q_source_intersect,
        "top_words": q_top_words,
        "bpe_merges": q_bpe_merges,
        "bpe_encode": q_bpe_encode,
        "pmi_collocations": q_pmi_collocations,
        "heavy_hitters": q_heavy_hitters,
        "inverted_index": q_inverted_index,
        "quality_classifier": q_quality_classifier,
        "mlp_classifier": q_mlp_classifier,
        "range_lookup": q_range_lookup,
        "url_blocklist": q_url_blocklist,
        "robots_filter": q_robots_filter,
        "snapshot_diff": q_snapshot_diff,
        "snapshot_upsert": q_snapshot_upsert,
        "event_trigrams": q_event_trigrams,
        "approx_distinct_users": q_approx_distinct_users,
        "value_loghist": q_value_loghist,
        "user_median_value": q_user_median_value,
        "user_mode": q_user_mode,
        "event_pivot": q_event_pivot,
        "json_props": q_json_props,
        "schema_drift_union": q_schema_drift_union,
        "event_melt": q_event_melt,
        "user_first_last": q_user_first_last,
        "value_ts_corr": q_value_ts_corr,
        "label_centroids": q_label_centroids,
        "nearest_centroid": q_nearest_centroid,
        "label_outliers": q_label_outliers,
        "tfidf_top_terms": q_tfidf_top_terms,
        "token_budget": q_token_budget,
        "word_freq_cms": q_word_freq_cms,
        "group_quantiles_cont": q_group_quantiles_cont,
        "weighted_sample": q_weighted_sample,
        "source_except": q_source_except,
        "mixture_rollup": q_mixture_rollup,
        "mixture_cube": q_mixture_cube,
        "regex_search": q_regex_search,
        "source_upsample": q_source_upsample,
        "shuffle_order": q_shuffle_order,
        "incremental_dedup": q_incremental_dedup,
        "csv_docs": q_csv_docs,
        "warc_docs": q_warc_docs,
        "webdataset_docs": q_webdataset_docs,
        "arrow_ipc_docs": q_arrow_ipc_docs,
        "orc_docs": q_orc_docs,
        "sentence_split": q_sentence_split,
        "sentence_chunks": q_sentence_chunks,
        "session_label": q_session_label,
        "decontaminate": q_decontaminate,
        "pack_sequences": q_pack_sequences,
        "rep_signals": q_rep_signals,
        "dup_ngrams": q_dup_ngrams,
        "vocab_df": q_vocab_df,
        "unigram_logprob": q_unigram_logprob,
        "ppl_buckets": q_ppl_buckets,
        "bigram_logprob": q_bigram_logprob,
        "trigram_logprob": q_trigram_logprob,
        "bm25_topk": q_bm25_topk,
        "stratified_sample": q_stratified_sample,
        "mask_dup_spans": q_mask_dup_spans,
        "chunk_docs": q_chunk_docs,
        "exact_dedup": q_exact_dedup,
        "minhash_dedup": q_minhash_dedup,
        "dedup_representatives": q_dedup_representatives,
        "ngram_jaccard": q_ngram_jaccard,
        "incremental_neardup": q_incremental_neardup,
        "fuzzy_join": q_fuzzy_join,
        "simhash": q_simhash,
        "embedding_neardup": q_embedding_neardup,
        "ann_topk": q_ann_topk,
        "ann_topk_filtered": q_ann_topk_filtered,
        "ivf_topk": q_ivf_topk,
        "pq_topk": q_pq_topk,
        "semantic_dedup": q_semantic_dedup,
        "events_window": q_events_window,
        "hopping_window": q_hopping_window,
        "events_sessionize": q_events_sessionize,
        "pdf_extract": q_pdf_extract,
        "media_features": q_media_features,
        "media_phash_dup": q_media_phash_dup,
        "media_real_codec_dup": q_media_real_codec_dup,
        "pca_project": q_pca_project,
        "audio_features": q_audio_features,
        "frame_sample": q_frame_sample,
    }


def oracle_sql() -> dict[str, str]:
    from zhtml_ray.pipelines.golden import golden_sql
    return {
        "fingerprint": golden_sql("fingerprint"),
        "simhash": golden_sql("simhash"),
        "approx_distinct_users": golden_sql("approx_distinct_users"),
        "word_freq_cms": golden_sql("word_freq_cms"),
        "minhash_dedup": golden_sql("minhash_dedup"),
        "dedup_representatives": _sql_dedup_representatives(),
        "ngram_jaccard": golden_sql("ngram_jaccard"),
        "incremental_neardup": golden_sql("incremental_neardup"),
        "fuzzy_join": golden_sql("fuzzy_join"),
        "embedding_neardup": golden_sql("embedding_neardup"),
        "ivf_topk": golden_sql("ivf_topk"),
        "pq_topk": golden_sql("pq_topk"),
        "semantic_dedup": golden_sql("semantic_dedup"),
        "pdf_extract": golden_sql("pdf_extract"),
        "media_features": golden_sql("media_features"),
        "media_phash_dup": _sql_media_phash_dup(),
        "media_real_codec_dup": _sql_media_real_codec_dup(),
        "pca_project": golden_sql("pca_project"),
        "audio_features": golden_sql("audio_features"),
        "frame_sample": golden_sql("frame_sample"),
        "token_count": SQL_TOKEN_COUNT,
        "bucketed_join": _sql_bucketed_join(),
        "bpe_token_count": _sql_bpe_token_count(),
        "quality_score": _sql_quality(),
        "gopher_rules": _sql_gopher_rules(),
        "c4_clean": _sql_c4_clean(),
        "dsir_select": _sql_dsir_select(),
        "web_pipeline": _sql_web_pipeline(),
        "train_val_split": _sql_train_val_split(),
        "user_churn": _sql_user_churn(),
        "events_anomaly": _sql_events_anomaly(),
        "events_heatmap": SQL_EVENTS_HEATMAP,
        "tokens_by_split": _sql_tokens_by_split(),
        "corpus_overview": _sql_corpus_overview(),
        "word_dropout": _sql_word_dropout(),
        "dedup_cluster_sizes": _sql_dedup_cluster_sizes(),
        "dedup_rate_by_source": _sql_dedup_rate_by_source(),
        "lang_id": _sql_langid(),
        "exact_dedup": SQL_EXACT_DEDUP,
        "corpus_prep": _sql_corpus_prep(),
        "paragraph_dedup": SQL_PARAGRAPH_DEDUP,
        "corpus_mixture": SQL_CORPUS_MIXTURE,
        "source_cap_sample": SQL_SOURCE_CAP_SAMPLE,
        "pii_redact": _sql_pii_redact(),
        "url_host_stats": _sql_url_host_stats(),
        "url_dedup": _sql_url_dedup(),
        "host_cap": _sql_host_cap(),
        "normalize_text": _sql_normalize_text(),
        "length_quantiles": _sql_length_quantiles(),
        "group_quantiles": _sql_group_quantiles(),
        "jsonl_docs": _sql_jsonl_docs(),
        "click_attribution": SQL_CLICK_ATTRIBUTION,
        "event_lag": SQL_EVENT_LAG,
        "events_cumsum": SQL_EVENTS_CUMSUM,
        "events_distinct_users": SQL_EVENTS_DISTINCT_USERS,
        "events_moving_avg": SQL_EVENTS_MOVING_AVG,
        "events_range_window": SQL_EVENTS_RANGE_WINDOW,
        "window_join": SQL_WINDOW_JOIN,
        "event_dedup_window": SQL_EVENT_DEDUP_WINDOW,
        "events_funnel": SQL_EVENTS_FUNNEL,
        "events_value_rank": SQL_EVENTS_VALUE_RANK,
        "events_retention": SQL_EVENTS_RETENTION,
        "events_ntile": SQL_EVENTS_NTILE,
        "user_event_path": SQL_USER_EVENT_PATH,
        "source_intersect": SQL_SOURCE_INTERSECT,
        "top_words": _sql_top_words(),
        "bpe_merges": golden_sql("bpe_merges"),
        "bpe_encode": golden_sql("bpe_encode"),
        "pmi_collocations": _sql_pmi_collocations(),
        "heavy_hitters": _sql_heavy_hitters(),
        "inverted_index": _sql_inverted_index(),
        "quality_classifier": _sql_quality_classifier(),
        "mlp_classifier": _sql_mlp_classifier(),
        "range_lookup": _sql_range_lookup(),
        "url_blocklist": _sql_url_blocklist(),
        "robots_filter": _sql_robots_filter(),
        "snapshot_diff": SQL_SNAPSHOT_DIFF,
        "snapshot_upsert": _sql_snapshot_upsert(),
        "event_trigrams": _sql_event_trigrams(),
        "label_centroids": _sql_label_centroids(),
        "nearest_centroid": _sql_nearest_centroid(),
        "label_outliers": _sql_label_outliers(),
        "tfidf_top_terms": _sql_tfidf_top_terms(),
        "token_budget": _sql_token_budget(),
        "user_median_value": SQL_USER_MEDIAN_VALUE,
        "value_loghist": _sql_value_loghist(),
        "user_mode": SQL_USER_MODE,
        "event_pivot": _sql_event_pivot(),
        "json_props": SQL_JSON_PROPS,
        "schema_drift_union": SQL_SCHEMA_DRIFT_UNION,
        "event_melt": SQL_EVENT_MELT,
        "user_first_last": SQL_USER_FIRST_LAST,
        "value_ts_corr": SQL_VALUE_TS_CORR,
        "group_quantiles_cont": _sql_group_quantiles_cont(),
        "weighted_sample": SQL_WEIGHTED_SAMPLE,
        "source_except": SQL_SOURCE_EXCEPT,
        "mixture_rollup": SQL_MIXTURE_ROLLUP,
        "mixture_cube": SQL_MIXTURE_CUBE,
        "regex_search": _sql_regex_search(),
        "source_upsample": SQL_SOURCE_UPSAMPLE,
        "shuffle_order": SQL_SHUFFLE_ORDER,
        "incremental_dedup": SQL_INCREMENTAL_DEDUP,
        "csv_docs": _sql_csv_docs(),
        "warc_docs": SQL_WARC_DOCS,
        "webdataset_docs": SQL_WEBDATASET_DOCS,
        "arrow_ipc_docs": SQL_ARROW_IPC_DOCS,
        "orc_docs": SQL_ORC_DOCS,
        "sentence_split": _sql_sentence_split(),
        "sentence_chunks": _sql_sentence_chunks(),
        "session_label": _sql_session_label(),
        "decontaminate": SQL_DECONTAMINATE,
        "pack_sequences": SQL_PACK_SEQUENCES,
        "qa_sample": SQL_QA_SAMPLE,
        "rep_signals": _sql_rep_signals(),
        "dup_ngrams": _sql_dup_ngrams(),
        "vocab_df": _sql_vocab_df(),
        "unigram_logprob": _sql_unigram_logprob(),
        "ppl_buckets": _sql_ppl_buckets(),
        "bigram_logprob": _sql_bigram_logprob(),
        "trigram_logprob": _sql_trigram_logprob(),
        "bm25_topk": _sql_bm25_topk(),
        "stratified_sample": _sql_stratified_sample(),
        "mask_dup_spans": _sql_mask_dup_spans(),
        "chunk_docs": _sql_chunk_docs(),
        "ann_topk": SQL_ANN_TOPK,
        "ann_topk_filtered": _sql_ann_topk_filtered(),
        "events_window": SQL_EVENTS_WINDOW,
        "hopping_window": SQL_HOPPING_WINDOW,
        "events_sessionize": SQL_EVENTS_SESSIONIZE,
    }

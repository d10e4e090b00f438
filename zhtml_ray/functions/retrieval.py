"""Lexical retrieval: distributed BM25 top-k over a document corpus.

The lexical counterpart of ``functions/similarity.py`` (embedding ANN):
given a small fixed query set, score every document with BM25
(Robertson/Sparck-Jones; the +1 idf variant that stays positive) and
return the top-k documents per query. This is the retrieval shape of
search-index bootstrapping and of hard-negative mining for embedding
training — the corpus is huge, the query set is tiny.

Scale design (what matters at 10^12 docs):

* The query set is BROADCAST (it is tiny — closure-captured floats and
  strings, no ``ray.put`` needed); the corpus is never shuffled.
* Corpus statistics (N, avgdl, per-term document frequency) come from
  ONE per-batch combiner pass that emits ``len(terms)+1`` rows per
  block — the driver folds a block-count-bounded table, never rows.
* Scoring is a second pure-map pass: per batch, words are
  dictionary-encoded ONCE (``corpusstats._encode_flat``), each query
  term resolves to a batch-local integer code, and tf/df work is numpy
  run counting over sorted row ids — no per-token Python.
* Each batch emits at most ``k`` candidates per query, so the final
  exact top-k (``sorted_head_n_per_group`` on the rounded-score total
  order) sorts ``k x num_queries x num_blocks`` rows, not the corpus.

Scores are pinned to 6 decimals with the house ``_pin6`` formula
BEFORE any ranking, and ranking ties break on ``doc_id`` — the
selection is a deterministic total order, identical on the engine and
the DuckDB oracle despite float-sum associativity differences.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from zhtml_ray.functions.corpusstats import _pin6, _split_encode

K1 = 1.2
B = 0.75


def _batch_codes(terms: list[str], vocab: pa.Array) -> np.ndarray:
    """Batch-local dictionary code of each term (-1 = absent)."""
    import pyarrow.compute as pc
    if len(vocab) == 0:
        return np.full(len(terms), -1, np.int64)
    codes = pc.index_in(pa.array(terms, pa.string()), value_set=vocab)
    return codes.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)


def _tf_rows(row: np.ndarray, codes: np.ndarray, code: int):
    """(row ids, counts) of the rows containing ``code``. ``row`` is
    nondecreasing (token order), so the masked view stays sorted and
    run decomposition replaces a hash groupby."""
    rm = row[codes == code]
    if rm.size == 0:
        return rm, rm
    starts = np.flatnonzero(np.r_[True, rm[1:] != rm[:-1]])
    return rm[starts], np.diff(np.r_[starts, rm.size])


def corpus_term_stats(ds, terms: list[str],
                      text_col: str = "text") -> tuple[int, float, dict]:
    """ONE combiner pass -> (n_docs, avgdl, {term: df}). The per-block
    partial is ``len(terms)+1`` rows (the sentinel null-term row
    carries the block's doc/token totals), so the driver folds a
    block-count-bounded table."""
    terms = list(terms)

    def partial(b: pa.Table) -> pa.Table:
        row, codes, vocab, lens = _split_encode(b[text_col])
        tcodes = _batch_codes(terms, vocab)
        dfs = []
        for tc in tcodes:
            if tc < 0:
                dfs.append(0)
            else:
                uniq, _ = _tf_rows(row, codes, tc)
                dfs.append(int(uniq.size))
        return pa.table({
            "term": pa.array(terms + [None], pa.string()),
            "df": pa.array(dfs + [0], pa.int64()),
            "n_docs": pa.array([0] * len(terms) + [b.num_rows], pa.int64()),
            "n_tokens": pa.array([0] * len(terms) + [int(lens.sum())],
                                 pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    n_docs = sum(r["n_docs"] for r in parts)
    n_tokens = sum(r["n_tokens"] for r in parts)
    df: dict = {t: 0 for t in terms}
    for r in parts:
        if r["term"] is not None:
            df[r["term"]] += r["df"]
    avgdl = (n_tokens / n_docs) if n_docs else 0.0
    return n_docs, avgdl, df


def bm25_topk(ds, queries: list[tuple[int, str]], k: int = 10,
              text_col: str = "text", id_col: str = "doc_id"):
    """Top-``k`` documents per query by BM25 (k1=1.2, b=0.75), idf =
    ln(1 + (N - df + 0.5) / (df + 0.5)). Query terms are
    Unicode-whitespace split and deduplicated per query (both sides of
    the oracle must agree on multiplicity). Output:
    (query_id, doc_id, score) — score 6-decimal pinned; only documents
    containing at least one query term appear; rank order is
    (score desc, doc_id asc), deterministic under ties.
    """
    import pyarrow.compute as pc
    from zhtml_ray.stages.sortagg import sorted_head_n_per_group

    qterms: list[tuple[int, list[str]]] = []
    flat_terms: list[str] = []
    q_of: list[int] = []
    for qi, (qid, qtext) in enumerate(queries):
        ts = sorted(set(qtext.split()))
        qterms.append((qid, ts))
        flat_terms.extend(ts)
        q_of.extend([qi] * len(ts))
    nq = len(qterms)
    qids = np.array([qid for qid, _ in qterms], np.int64)
    q_of_arr = np.array(q_of, np.int64)

    n_docs, avgdl, df = corpus_term_stats(ds, flat_terms, text_col)
    idf = np.array(
        [math.log(1.0 + (n_docs - df[t] + 0.5) / (df[t] + 0.5))
         for t in flat_terms], np.float64)

    def score_batch(b: pa.Table) -> pa.Table:
        ids = b[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        row, codes, vocab, lens = _split_encode(b[text_col])
        tcodes = _batch_codes(flat_terms, vocab)
        score = np.zeros((nq, b.num_rows), np.float64)
        lensf = lens.astype(np.float64)
        for j, tc in enumerate(tcodes):
            if tc < 0 or idf[j] == 0.0:
                continue
            uniq, tf = _tf_rows(row, codes, tc)
            if uniq.size == 0:
                continue
            tfd = tf.astype(np.float64)
            dl = lensf[uniq]
            score[q_of_arr[j], uniq] += (
                idf[j] * tfd * (K1 + 1.0)
                / (tfd + K1 * (1.0 - B + B * dl / avgdl)))
        out_q, out_d, out_s = [], [], []
        for qi in range(nq):
            # membership (score > 0 exactly when >= 1 term matched: every
            # contribution is positive) decided UNROUNDED; rank decided on
            # the pinned value so both engines select identically
            nz = np.flatnonzero(score[qi] > 0.0)
            if nz.size == 0:
                continue
            pinned = _pin6(score[qi][nz])
            order = np.lexsort((ids[nz], -pinned))[:k]
            out_q.append(np.full(order.size, qids[qi], np.int64))
            out_d.append(ids[nz][order])
            out_s.append(pinned[order])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            "score": pa.array(np.concatenate(out_s), pa.float64())})

    cand = ds.map_batches(score_batch, batch_format="pyarrow")

    def neg(b: pa.Table) -> pa.Table:
        return b.append_column("neg_score", pc.negate(b["score"]))

    cand = cand.map_batches(neg, batch_format="pyarrow")
    top = sorted_head_n_per_group(cand, ["query_id"],
                                  ["neg_score", "doc_id"], n=k)
    return top.select_columns(["query_id", "doc_id", "score"])


# --------------------------------------------------- inverted index at rest

def postings_table(ds, text_col: str = "text", key: str = "doc_id",
                   n_buckets: int = 32):
    """One posting row per distinct corpus term: ``(term, term_bucket,
    df, doc_ids list<int64>, tfs list<int64>)`` with ``doc_ids``
    ascending — the at-rest lexical index (the BM25 scale path when
    queries outnumber corpus passes: term lookups replace full scans).

    Plan: per-batch term×doc tf pre-combine over dictionary codes
    (docs are whole rows, so batch-local tf is exact and ``(term,
    doc)`` is globally unique) → ONE range-shuffle sort on
    ``(term, doc_id)`` → block-local C-speed run assembly into
    ListArrays via ``sorted_bucket_apply`` (edge terms — at most two
    per block plus hot stopwords — resolve whole in its bounded
    regroup pass). ``term_bucket`` is a blake2b content hash mod
    ``n_buckets``: the Hive partition key ``build_inverted_index``
    writes under, so probes open only matching partitions."""
    from zhtml_ray.functions.corpusstats import _split_encode
    from zhtml_ray.functions.sketch import word_hash64
    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    def tf_partial(b: pa.Table) -> pa.Table:
        row, codes, vocab, _lens = _split_encode(b[text_col])
        if codes.size == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             key: pa.array([], pa.int64()),
                             "tf": pa.array([], pa.int64())})
        order = np.lexsort((row, codes))
        cs, rs = codes[order], row[order]
        new = np.empty(cs.size, bool)
        new[0] = True
        new[1:] = (cs[1:] != cs[:-1]) | (rs[1:] != rs[:-1])
        starts = np.flatnonzero(new)
        tf = np.diff(np.append(starts, cs.size))
        ids = b[key].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({
            "term": vocab.take(pa.array(cs[starts], pa.int64())),
            key: pa.array(ids[rs[starts]], pa.int64()),
            "tf": pa.array(tf, pa.int64())})

    pairs = ds.map_batches(tf_partial, batch_format="pyarrow")
    empty = pa.table({"term": pa.array([], pa.string()),
                      "term_bucket": pa.array([], pa.int64()),
                      "df": pa.array([], pa.int64()),
                      "doc_ids": pa.array([], pa.list_(pa.int64())),
                      "tfs": pa.array([], pa.list_(pa.int64()))})

    def postings(b: pa.Table, starts, ends) -> pa.Table:
        # the runs tile b in (term, key) order: the run bounds are the
        # list offsets over the doc and tf columns as they stand
        terms = b["term"].combine_chunks().take(
            pa.array(starts, pa.int64()))
        off = pa.array(np.r_[starts, ends[-1]], pa.int32())
        return pa.table({
            "term": terms,
            # % must stay in uint64: numpy promotes uint64 % pyint
            # to float64, garbling the low bits the bucket lives in
            "term_bucket": pa.array(
                (word_hash64(terms.to_pylist()) % np.uint64(n_buckets))
                .astype(np.int64)),
            "df": pa.array(ends - starts, pa.int64()),
            "doc_ids": pa.ListArray.from_arrays(
                off, b[key].combine_chunks()),
            "tfs": pa.ListArray.from_arrays(off, b["tf"].combine_chunks())})

    return sorted_bucket_apply(pairs, "term", ["term", key],
                               postings, empty)


def build_inverted_index(ds, out_dir: str, text_col: str = "text",
                         key: str = "doc_id", n_buckets: int = 32):
    """Write ``postings_table`` Hive-partitioned by ``term_bucket``
    (cf. ``similarity.build_ivf_index`` — same at-rest pattern:
    rebuild clears the directory so stale partitions can't union in)."""
    import os
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    # sorted write: avoids the blocks × buckets file fan-out (r5)
    postings_table(ds, text_col=text_col, key=key,
                   n_buckets=n_buckets).sort("term_bucket") \
        .write_parquet(out_dir, partition_cols=["term_bucket"])


def inverted_index_lookup(out_dir: str, terms: list[str],
                          n_buckets: int = 32,
                          scan_stats: dict | None = None):
    """Posting lookup against a ``build_inverted_index`` directory:
    hash the probe terms, open ONLY their buckets' partitions
    (directory-level pruning — ``scan_stats`` reports it for tests),
    filter to the probe set. Returns a Dataset of posting rows."""
    import glob
    import os

    import pyarrow.compute as pc
    import ray.data as rd

    from zhtml_ray.functions.sketch import word_hash64

    want = sorted({int(h) for h in
                   word_hash64(terms) % np.uint64(n_buckets)})
    all_b = sorted(glob.glob(os.path.join(out_dir, "term_bucket=*")))
    dirs = [d for d in all_b if int(d.rsplit("=", 1)[1]) in set(want)]
    if scan_stats is not None:
        scan_stats["n_buckets_total"] = len(all_b)
        scan_stats["n_buckets_read"] = len(dirs)
    files = sorted(f for d in dirs
                   for f in glob.glob(os.path.join(d, "*.parquet")))
    tset = pa.array(sorted(set(terms)), pa.string())
    if not files:
        return rd.from_arrow(pa.table({
            "term": pa.array([], pa.string()),
            "df": pa.array([], pa.int64()),
            "doc_ids": pa.array([], pa.list_(pa.int64())),
            "tfs": pa.array([], pa.list_(pa.int64()))}))

    def keep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b["term"], value_set=tset))
        return t.select(["term", "df", "doc_ids", "tfs"])

    return rd.read_parquet(files).map_batches(
        keep, batch_format="pyarrow")

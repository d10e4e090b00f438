"""Corpus-level statistics for training-data curation: cross-document
duplicate n-gram fractions (RefinedWeb/Gopher-style dedup signal),
within-document repetition signals (Gopher repetition rules), and
corpus vocabulary document frequency.

All word splitting is Python ``str.split()`` — the full Unicode
whitespace set — matching the explicit ``_WS`` RE2 class the SQL
oracles use (see ``functions/textstats.py:PY_WS_RE2_IN``; RE2's ``\\s``
is ASCII-only).

Scale notes (the part that matters at 10^12 docs):

* ``dup_ngrams`` is TWO range-shuffle sorts end to end — one by gram
  (doc-frequency as run length, annotated back onto the rows in the
  same pass, no separate join) and one by doc_id (per-doc counts as
  block-local run sums) — on the ``stages/sortagg.py`` primitives that
  measured ~5-20× cheaper than hash-shuffle groupbys at high key
  cardinality on this Ray version. Nothing lands on the driver.
* ``rep_signals_batch`` is a pure per-batch map: words are
  dictionary-encoded once per batch and every per-doc statistic
  (distinct words, top-word count, distinct bigrams) is a numpy
  lexsort + run decomposition over integer codes — no per-word Python
  in the counting, and no pair-string construction for bigrams.
* ``vocab_doc_freq`` pre-aggregates per batch (distinct docs per word
  inside the batch — the combiner) so the shuffle moves one row per
  (batch, word), not one per token; the cross-batch sum is a single
  sorted run-sum pass, then a tiny top-k sort+limit.
* ``ngram_logprob(ds, n)`` is the one order-n LM scorer (n = 1..3):
  ``ngram_counts_batch`` counts each batch's n-grams (one split+encode,
  a same-doc mask, one lexsort run count), one sorted run-sum gives
  the frequencies and a run-sum over THAT table the context counts.
  The (key, lp) table's block-metadata size against
  ``sortagg.BROADCAST_BYTES`` picks the scoring tier: a fused
  ``ray.put`` + ``pc.index_in`` + per-doc ``reduceat`` map, or
  ``sorted_lookup_join`` + per-doc run sums, nothing unbounded on the
  driver either way.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _split_words(texts: list) -> tuple[list, np.ndarray]:
    """Per-row Unicode-whitespace word lists + row lengths."""
    words_per = [t.split() if t else [] for t in texts]
    lens = np.fromiter((len(w) for w in words_per), np.int64,
                       len(words_per))
    return words_per, lens


def _encode_flat(words_per: list, lens: np.ndarray):
    """Flatten per-row word lists and dictionary-encode to int codes.
    Returns (row_ids, codes, vocab) — int64 arrays one entry per
    token, plus the dictionary (code -> word string array)."""
    import itertools
    flat = list(itertools.chain.from_iterable(words_per))
    row = np.repeat(np.arange(len(words_per), dtype=np.int64), lens)
    if not flat:
        return row, np.zeros(0, np.int64), pa.array([], pa.string())
    enc = pa.array(flat, pa.string()).dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return row, codes, enc.dictionary


def _split_encode(col) -> tuple[np.ndarray, np.ndarray, pa.Array,
                                np.ndarray]:
    """Vectorized split+encode: ``_encode_flat(*_split_words(...))``
    plus per-row lengths, computed entirely in Arrow. Verified (and
    pytest-pinned) BYTE-IDENTICAL to the Python path — this pyarrow
    build's ``utf8_split_whitespace`` splits exactly Python
    ``str.isspace()``'s whitespace set (differentially swept over
    U+0000..U+3000 both directions, incl. the \\x1c-\\x1f separators
    RE2's Unicode \\s lacks), interior runs coalesce, and only
    boundary empties need filtering; first-occurrence dictionary
    order then matches the flat Python list's. ~3× cheaper per batch
    than the per-row ``str.split()`` loop — these split+encode passes
    dominate every corpus-stat operator's wall.

    Takes the Arrow column (Array or ChunkedArray); returns
    (row_ids, codes, vocab, lens)."""
    import pyarrow.compute as pc
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
        else col
    if arr.type != pa.string():
        arr = pc.cast(arr, pa.string())
    arr = pc.fill_null(arr, "")
    lst = pc.utf8_split_whitespace(arr)
    vals = lst.flatten()
    n_per = pc.list_value_length(lst).to_numpy(
        zero_copy_only=False).astype(np.int64)
    row = np.repeat(np.arange(len(arr), dtype=np.int64), n_per)
    ne = pc.not_equal(vals, "")
    mask = ne.to_numpy(zero_copy_only=False)
    if not mask.all():
        row = row[mask]
        vals = vals.filter(ne)
    if len(vals) == 0:
        return (row[:0], np.zeros(0, np.int64), pa.array([], pa.string()),
                np.zeros(len(arr), np.int64))
    enc = vals.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    lens = np.bincount(row, minlength=len(arr)).astype(np.int64)
    return row, codes, enc.dictionary, lens


def _distinct_runs(primary: np.ndarray, secondary: np.ndarray):
    """Lexsort by (primary, secondary); return (sorted primary at run
    heads, run lengths) over distinct (primary, secondary) pairs.
    Overflow-free alternative to key-packing for arbitrary ranges."""
    order = np.lexsort((secondary, primary))
    p, s = primary[order], secondary[order]
    if p.size == 0:
        return p, np.zeros(0, np.int64)
    new = np.r_[True, (p[1:] != p[:-1]) | (s[1:] != s[:-1])]
    starts = np.flatnonzero(new)
    runlens = np.diff(np.r_[starts, p.size])
    return p[starts], runlens


# ------------------------------------------------------ rep_signals

def rep_signals_batch(batch: pa.Table) -> pa.Table:
    """Within-document repetition signals (Gopher repetition rules):
    distinct-word count, top-word fraction, duplicate-bigram fraction.
    Fully vectorized over integer word codes after one dictionary
    encode per batch."""
    n = batch.num_rows
    row, codes, _vocab, lens = _split_encode(batch["text"])

    # distinct words + top word count per row: one lexsort, run heads
    urow, runlens = _distinct_runs(row, codes)
    n_distinct = np.bincount(urow, minlength=n) if urow.size \
        else np.zeros(n, np.int64)
    top = np.zeros(n, np.int64)
    if urow.size:
        np.maximum.at(top, urow, runlens)

    # bigrams: adjacent code pairs within a row; distinct via lexsort
    same = row[1:] == row[:-1] if row.size else np.zeros(0, bool)
    brow = row[:-1][same]
    b1 = codes[:-1][same]
    b2 = codes[1:][same]
    n_big = np.bincount(brow, minlength=n) if brow.size \
        else np.zeros(n, np.int64)
    # distinct (row, bigram): lexsort three keys without packing
    if brow.size:
        order = np.lexsort((b2, b1, brow))
        r_, x_, y_ = brow[order], b1[order], b2[order]
        new = np.r_[True, (r_[1:] != r_[:-1]) | (x_[1:] != x_[:-1])
                    | (y_[1:] != y_[:-1])]
        n_big_distinct = np.bincount(r_[new], minlength=n)
    else:
        n_big_distinct = np.zeros(n, np.int64)

    n_words = lens.astype(np.float64)
    top_word_frac = np.where(lens > 0, top / np.where(lens > 0, n_words, 1.0),
                             0.0)
    nbf = n_big.astype(np.float64)
    dup_bigram_frac = np.where(
        n_big > 0,
        1.0 - (n_big_distinct / np.where(n_big > 0, nbf, 1.0)),
        0.0)
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_words": pa.array(lens, pa.int64()),
        "n_distinct_words": pa.array(n_distinct.astype(np.int64),
                                     pa.int64()),
        "top_word_frac": pa.array(top_word_frac, pa.float64()),
        "dup_bigram_frac": pa.array(dup_bigram_frac, pa.float64()),
    })


# ------------------------------------------------------- dup_ngrams

def emit_distinct_ngrams(batch: pa.Table, n: int = 5) -> pa.Table:
    """One row per DISTINCT word n-gram per document: (doc_id, gram).
    Documents with fewer than ``n`` words emit nothing (mirrored by the
    SQL oracle's ``len(words) >= n`` guard)."""
    ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    out_ids: list = []
    out_grams: list = []
    for did, t in zip(ids, texts):
        words = t.split() if t else []
        if len(words) < n:
            continue
        grams = {" ".join(words[i:i + n])
                 for i in range(len(words) - n + 1)}
        out_ids.extend([did] * len(grams))
        out_grams.extend(grams)
    return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                     "gram": pa.array(out_grams, pa.string())})


def dup_ngrams(ds, n: int = 5):
    """Cross-document duplicate n-gram fraction per document: of a
    document's distinct word n-grams, the fraction that also appear in
    at least one OTHER document. Output: (doc_id, n_grams,
    n_dup_grams, dup_frac), one row per document with >= n words.

    Two range-shuffle sorts total (by gram, then by doc_id); the gram
    doc-frequency is the run length of the gram sort, annotated onto
    the rows block-locally in the same pass — no separate join stage."""
    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    rows = ds.map_batches(lambda b: emit_distinct_ngrams(b, n),
                          batch_format="pyarrow")

    # -------- pass 1: sort by gram; dup = (doc-frequency run len > 1)
    annot_empty = pa.table({"doc_id": pa.array([], pa.int64()),
                            "dup": pa.array([], pa.int64())})

    def df_runs(b: pa.Table, starts, ends) -> pa.Table:
        lens = ends - starts
        dup = np.repeat((lens > 1).astype(np.int64), lens)
        return pa.table({"doc_id": b["doc_id"],
                         "dup": pa.array(dup, pa.int64())})

    from zhtml_ray.stages.util import compact_blocks

    # compact between sortagg stages: ~2 tiny blocks per input block
    # otherwise poison the next sort (O(blocks × partitions) — see
    # compact_blocks / the 500k mask_dup_spans probe)
    annotated = compact_blocks(
        sorted_bucket_apply(rows, "gram", ["gram"],
                            df_runs, annot_empty))

    # -------- pass 2: sort by doc_id; per-doc counts as run sums
    agg_empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_grams": pa.array([], pa.int64()),
                          "n_dup_grams": pa.array([], pa.int64())})

    def agg_runs(b: pa.Table, starts, ends) -> pa.Table:
        dup = b["dup"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": b["doc_id"].take(pa.array(starts, pa.int64())),
            "n_grams": pa.array(ends - starts, pa.int64()),
            "n_dup_grams": pa.array(np.add.reduceat(dup, starts),
                                    pa.int64())})

    agg = sorted_bucket_apply(annotated, "doc_id", ["doc_id"],
                              agg_runs, agg_empty)

    def add_frac(b: pa.Table) -> pa.Table:
        ng = b["n_grams"].combine_chunks().to_numpy(zero_copy_only=False)
        nd = b["n_dup_grams"].combine_chunks().to_numpy(
            zero_copy_only=False)
        frac = nd / np.where(ng > 0, ng, 1).astype(np.float64)
        return b.append_column("dup_frac", pa.array(frac, pa.float64()))

    return agg.map_batches(add_frac, batch_format="pyarrow")


# ----------------------------------------------------- mask_dup_spans

def emit_gram_occurrences(batch: pa.Table, n: int) -> pa.Table:
    """One row per word n-gram OCCURRENCE: (doc_id, pos, gram), pos =
    0-based start word index. Unlike ``emit_distinct_ngrams``, repeats
    within a document are kept — a span repeated inside one document
    is duplication too (corpus count >= 2 includes self-repeats)."""
    ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    out_ids: list = []
    out_pos: list = []
    out_grams: list = []
    for did, t in zip(ids, texts):
        words = t.split() if t else []
        m = len(words) - n + 1
        if m <= 0:
            continue
        out_ids.extend([did] * m)
        out_pos.extend(range(m))
        out_grams.extend(" ".join(words[i:i + n]) for i in range(m))
    return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                     "pos": pa.array(out_pos, pa.int64()),
                     "gram": pa.array(out_grams, pa.string())})


# two independent 64-bit polynomial lanes (distinct odd multipliers,
# distinct blake2b-derived word lanes) -> 128-bit gram key
_GRAM_R1 = np.uint64(0x9E3779B97F4A7C15)
_GRAM_R2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _word_hash_lanes(vocab: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Two content-based uint64 hash lanes per DISTINCT word (batch
    dictionary), via blake2b — deterministic across batches/processes
    (Python's ``hash()`` is per-process-seeded, unusable here)."""
    from hashlib import blake2b
    m = len(vocab)
    h1 = np.empty(m, np.uint64)
    h2 = np.empty(m, np.uint64)
    for i in range(m):
        d = blake2b(vocab[i].as_py().encode("utf-8", "surrogatepass"),
                    digest_size=16).digest()
        h1[i] = int.from_bytes(d[:8], "little")
        h2[i] = int.from_bytes(d[8:], "little")
    return h1, h2


def emit_gram_occurrences_hashed(batch: pa.Table, n: int) -> pa.Table:
    """``emit_gram_occurrences`` with the gram as a 128-bit content
    hash (``gh: fixed_size_binary(16)``) instead of the exact string —
    the 100-TB shuffle form (~4× fewer shuffle bytes for n=10 grams,
    integer compares in the sort). Fully vectorized: blake2b once per
    DISTINCT word in the batch dictionary, then a two-lane polynomial
    over the window computed with n wrapping uint64 vector ops on the
    whole flattened token array (no per-gram Python, no gram strings).

    Collision margin: 2^-128 per pair — at 10^13 grams (~100 TB) the
    corpus-wide collision expectation is ~10^-12, far below hardware
    error rates; a collision could only ever mask one extra span."""
    ids = batch["doc_id"]
    row, codes, vocab, lens = _split_encode(batch["text"])
    empty = pa.table({"doc_id": pa.array([], ids.type),
                      "pos": pa.array([], pa.int64()),
                      "gh": pa.array([], pa.binary(16))})
    m = codes.size - n + 1
    if m <= 0:
        return empty
    h1v, h2v = _word_hash_lanes(vocab)
    hw1 = h1v[codes]
    hw2 = h2v[codes]
    g1 = np.zeros(m, np.uint64)
    g2 = np.zeros(m, np.uint64)
    for j in range(n):
        g1 = g1 * _GRAM_R1 + hw1[j:j + m]
        g2 = g2 * _GRAM_R2 + hw2[j:j + m]
    valid = row[:m] == row[n - 1:]   # window must not cross documents
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return empty
    row_starts = np.r_[np.int64(0), np.cumsum(lens)][:-1]
    rows_sel = row[idx]
    pos = idx - row_starts[rows_sel]
    packed = np.column_stack([g1[idx], g2[idx]]).astype(">u8").tobytes()
    gh = pa.Array.from_buffers(pa.binary(16), idx.size,
                               [None, pa.py_buffer(packed)])
    did = ids.combine_chunks().take(pa.array(rows_sel, pa.int64())) \
        if isinstance(ids, pa.ChunkedArray) \
        else ids.take(pa.array(rows_sel, pa.int64()))
    return pa.table({"doc_id": did,
                     "pos": pa.array(pos, pa.int64()),
                     "gh": gh})


def mask_dup_spans(ds, n: int = 10, gram_key: str = "hash"):
    """Exact duplicated-span masking (the word-level form of suffix-
    array substring dedup, Lee et al. 2022 "Deduplicating Training
    Data Makes Language Models Better"): every word position covered
    by an n-gram window whose exact text occurs >= 2 times in the
    corpus (any document, self-repeats included) is removed; the
    survivors rejoin with single spaces. Output one row per document:
    (doc_id, n_words, n_dup_words, kept_text).

    Shape: gram occurrences -> ONE range-shuffle sort by gram with
    duplicate runs annotated in-pass (run length >= 2) and non-dup
    rows dropped immediately -> ONE sort by (doc_id, pos) folding each
    document's start positions into a list row -> the positions list
    merge-joins onto the docs table (``sorted_lookup_join``) -> a
    pure-map span-union rebuild (numpy +1/-1 boundary cumsum, no
    per-position Python).

    ``gram_key="hash"`` (default) shuffles a 128-bit content hash per
    gram (``emit_gram_occurrences_hashed``) — ~4× fewer shuffle bytes
    and integer sort compares; ``gram_key="text"`` shuffles the exact
    gram strings (the literal form the DuckDB oracle computes; a
    pinned differential test holds the two output-identical)."""
    from zhtml_ray.stages.sortagg import (sorted_bucket_apply,
                                          sorted_lookup_join)

    if gram_key == "hash":
        gcol = "gh"
        rows = ds.map_batches(lambda b: emit_gram_occurrences_hashed(b, n),
                              batch_format="pyarrow")
    else:
        gcol = "gram"
        rows = ds.map_batches(lambda b: emit_gram_occurrences(b, n),
                              batch_format="pyarrow")

    dup_empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "pos": pa.array([], pa.int64())})

    def dup_runs(b: pa.Table, starts, ends) -> pa.Table:
        lens = ends - starts
        keep = pa.array(np.repeat(lens > 1, lens))
        return b.select(["doc_id", "pos"]).filter(keep)

    from zhtml_ray.stages.util import compact_blocks

    # each sortagg stage emits ~2 tiny blocks per input block; compact
    # between stages or the NEXT sort pays O(blocks × partitions) —
    # measured 420 s -> 28 s on the final join at 500k docs
    dups = compact_blocks(
        sorted_bucket_apply(rows, gcol, [gcol],
                            dup_runs, dup_empty))

    pos_type = pa.list_(pa.int64())
    lists_empty = pa.table({"doc_id": pa.array([], pa.int64()),
                            "positions": pa.array([], pos_type)})

    def fold_runs(b: pa.Table, starts, ends) -> pa.Table:
        lst = pa.ListArray.from_arrays(
            pa.array(np.r_[starts, ends[-1]], pa.int32()),
            b["pos"].combine_chunks())
        heads = pa.array(starts, pa.int64())
        return pa.table({"doc_id": b["doc_id"].take(heads),
                         "positions": lst})

    pos_lists = compact_blocks(
        sorted_bucket_apply(dups, "doc_id", ["doc_id", "pos"],
                            fold_runs, lists_empty))

    joined = sorted_lookup_join(ds, pos_lists, "doc_id", ["positions"],
                                how="left")

    def rebuild(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        plists = b["positions"].to_pylist()
        n_words = np.empty(len(texts), np.int64)
        n_dup = np.zeros(len(texts), np.int64)
        kept: list = []
        for i, (t, pl) in enumerate(zip(texts, plists)):
            words = t.split() if t else []
            nw = len(words)
            n_words[i] = nw
            if not pl:
                kept.append(" ".join(words))
                continue
            ps = np.asarray(pl, np.int64)
            delta = np.zeros(nw + 1, np.int64)
            delta[ps] += 1            # start positions are unique
            delta[ps + n] -= 1        # window ends (<= nw by construction)
            covered = np.cumsum(delta[:nw]) > 0
            n_dup[i] = int(covered.sum())
            kept.append(" ".join(
                w for w, c in zip(words, covered) if not c))
        return pa.table({
            "doc_id": b["doc_id"],
            "n_words": pa.array(n_words, pa.int64()),
            "n_dup_words": pa.array(n_dup, pa.int64()),
            "kept_text": pa.array(kept, pa.string())})

    return joined.map_batches(rebuild, batch_format="pyarrow")


# ----------------------------------------------------- vocab_doc_freq

def vocab_partial_df(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: distinct documents per word INSIDE the
    batch, one output row per (word) — the shuffle then moves one row
    per (batch, word) instead of one per token."""
    row, codes, vocab, lens = _split_encode(batch["text"])
    if codes.size == 0:
        return pa.table({"word": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64())})
    # distinct (row, code) pairs, then docs-per-code
    order = np.lexsort((row, codes))
    c_, r_ = codes[order], row[order]
    new = np.r_[True, (c_[1:] != c_[:-1]) | (r_[1:] != r_[:-1])]
    df_per_code = np.bincount(c_[new])
    present = np.flatnonzero(df_per_code)
    return pa.table({
        "word": vocab.take(pa.array(present, pa.int64())),
        "df": pa.array(df_per_code[present], pa.int64())})


def _sum_runs(key: str, col: str):
    """``sorted_bucket_apply`` run function: one (key, summed ``col``)
    row per run."""
    def runs(b: pa.Table, starts, ends) -> pa.Table:
        v = b[col].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({key: b[key].take(pa.array(starts, pa.int64())),
                         col: pa.array(np.add.reduceat(v, starts),
                                       pa.int64())})
    return runs


def vocab_doc_freq(ds, k: int = 100):
    """Top-``k`` corpus words by document frequency (ties broken by
    word ascending, pinned identically in the SQL oracle). Partial
    per-batch combine -> ONE sorted run-sum pass -> top-k sort+limit."""
    from zhtml_ray.stages.sortagg import sorted_bucket_apply

    partial = ds.map_batches(vocab_partial_df, batch_format="pyarrow")

    empty = pa.table({"word": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64())})

    total = sorted_bucket_apply(partial, "word", ["word"],
                                _sum_runs("word", "df"), empty)
    return total.sort(["df", "word"], descending=[True, False]).limit(k)


# ------------------------------------------------------- n-gram LM

_SEP = "\x1f"  # ␟ is Python whitespace, so split words never contain
#                it and ␟-joined n-gram keys are collision-free


def _gram_slots(batch: pa.Table, n: int):
    """Every adjacent n-gram occurrence of ``batch`` that stays inside
    one doc: (row id per occurrence — nondecreasing, one code column
    per slot, vocab), from one ``_split_encode`` and a same-doc mask
    ``row[n-1:] == row[:-(n-1)]``."""
    row, codes, vocab, _lens = _split_encode(batch["text"])
    m = max(codes.size - n + 1, 0)
    same = row[n - 1:] == row[:m]
    return row[:m][same], [codes[i:i + m][same] for i in range(n)], vocab


def _join_keys(vocab: pa.Array, slots: list) -> pa.Array:
    """␟-joined words of the code columns ``slots`` (at least one)."""
    import pyarrow.compute as pc
    words = [vocab.take(pa.array(s, pa.int64())) for s in slots]
    return (words[0] if len(words) == 1
            else pc.binary_join_element_wise(*words, _SEP))


def ngram_counts_batch(batch: pa.Table, n: int) -> pa.Table:
    """Per-batch combiner: (key, ctx, cnt) per distinct adjacent
    n-gram of the batch (n-grams never cross doc boundaries), by one
    lexsort run count over the slot codes (a unigram's dictionary code
    is already its distinct id: a bincount). ``key`` is the ␟-joined n
    words, ``ctx`` its (n-1)-word context key ("" for a unigram) and
    ``cnt`` its count in the batch — the one counting kernel of the LM
    scorer, ``heavy_hitters`` and the PMI operator."""
    _row, slots, vocab = _gram_slots(batch, n)
    if n == 1:  # the dictionary codes already number the distinct words
        heads = [np.arange(len(vocab))]
        cnt = np.bincount(slots[0], minlength=len(vocab))
    else:
        order = np.lexsort(slots[::-1])
        slots = [s[order] for s in slots]
        new = np.zeros(order.size, bool)
        new[:1] = True
        for s in slots:
            new[1:] |= s[1:] != s[:-1]
        starts = np.flatnonzero(new)
        heads = [s[starts] for s in slots]
        cnt = np.diff(np.append(starts, order.size))
    return pa.table({
        "key": _join_keys(vocab, heads),
        "ctx": (_join_keys(vocab, heads[:-1]) if n > 1
                else pa.repeat("", cnt.size)),
        "cnt": pa.array(cnt, pa.int64())})


def _pin6(x: np.ndarray) -> np.ndarray:
    """floor(x*1e6+0.5)/1e6 — the house decimal pin, IEEE-identical to
    the SQL side (engine/DuckDB round() differ on exact halves)."""
    return np.floor(x * 1e6 + 0.5) / 1e6


def _doc_means(doc_id: pa.Array, count_col: str, lp: np.ndarray,
               starts: np.ndarray) -> pa.Table:
    """One row per doc run of ``lp`` (the runs begin at ``starts`` and
    tile it): its doc_id, run length as ``count_col`` and the 6-dp
    pinned mean."""
    lens = np.diff(np.append(starts, lp.size))
    sums = np.add.reduceat(lp, starts)
    return pa.table({
        "doc_id": doc_id,
        count_col: pa.array(lens, pa.int64()),
        "mean_logprob": pa.array(_pin6(sums / lens.astype(np.float64)),
                                 pa.float64())})


def _col(b: pa.Table, name: str) -> np.ndarray:
    return b[name].combine_chunks().to_numpy(zero_copy_only=False)


def ngram_logprob(ds, n: int):
    """Per-document mean order-``n`` LM log-probability (KenLM-style
    corpus quality signal, n in 1..3): score(d) = mean over d's
    adjacent n-grams g of ln(c(g) / c(ctx(g))), ctx(g) being g's first
    n-1 words; for n = 1 the context count is the corpus token total,
    else c(ctx) = Σ c over the n-grams sharing that context, so each
    conditional distribution sums to 1. Output: (doc_id, n_tokens |
    n_bigrams | n_trigrams, mean_logprob 6-dp-pinned), one row per doc
    with >= 1 n-gram.

    n-gram counts come from ``ngram_counts_batch`` + one sorted
    run-sum (rows shuffled: one per (batch, n-gram), not per
    occurrence); context counts from a run-sum over that FREQUENCY
    table, never the corpus, attached by ``key_join``. Scoring picks
    its tier by the (key, lp) table's block-metadata size against
    ``sortagg.BROADCAST_BYTES``: at most that, the table is ``ray.put``
    once and one fused map looks each batch's distinct n-grams up with
    ``pc.index_in`` and sums per doc with ``np.add.reduceat`` (not a
    join: regrouping joined rows by doc would need a second sort);
    over it, per-occurrence (doc_id, key) rows go through
    ``sorted_lookup_join`` and per-doc run sums."""
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from zhtml_ray.stages import sortagg
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    if n not in (1, 2, 3):
        raise ValueError(f"ngram_logprob: n must be 1, 2 or 3, not {n}")
    count_col = ("n_tokens", "n_bigrams", "n_trigrams")[n - 1]
    out_empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          count_col: pa.array([], pa.int64()),
                          "mean_logprob": pa.array([], pa.float64())})
    # materialized ONCE: .count() on an unmaterialized map re-executes
    # the whole corpus pass when the sort consumes it again; the
    # partials are vocabulary×blocks bounded
    partial = drop_empty_blocks(ds.map_batches(
        ngram_counts_batch, fn_kwargs={"n": n},
        batch_format="pyarrow")).materialize()
    if partial.count() == 0:
        return rd.from_arrow(out_empty)
    freq = compact_blocks(sortagg.sorted_sum_per_group(
        partial, ["key", "ctx"], ["cnt"]))
    if n == 1:
        # a unigram's one context, "", counts every token
        ctx = rd.from_arrow(pa.table({"ctx": [""], "c_ctx": pa.array(
            [freq.sum("cnt")], pa.int64())}))
    else:
        ctx = sortagg.sorted_sum_per_group(
            freq.select_columns(["ctx", "cnt"]), ["ctx"], ["cnt"]) \
            .map_batches(lambda b: b.rename_columns(["ctx", "c_ctx"]),
                         batch_format="pyarrow")

    def to_lp(b: pa.Table) -> pa.Table:
        c = _col(b, "cnt").astype(np.float64)
        return pa.table({"key": b["key"], "lp": pa.array(
            np.log(c / _col(b, "c_ctx").astype(np.float64)))})

    lp = compact_blocks(sortagg.key_join(freq, ctx, "ctx", ["c_ctx"])
                        .map_batches(to_lp, batch_format="pyarrow"))

    if lp.size_bytes() <= sortagg.BROADCAST_BYTES:
        ltab = pa.concat_tables(
            [t for t in ray.get(lp.to_arrow_refs()) if t.num_rows])
        # broadcast the ARROW key array (size ∝ bytes) — a numpy
        # unicode array is fixed-width, so one long token would
        # inflate every key slot to 4×max_len bytes
        ref = ray.put((ltab["key"].combine_chunks(), _col(ltab, "lp")))

        def score(batch: pa.Table) -> pa.Table:
            row, slots, vocab = _gram_slots(batch, n)
            if row.size == 0:
                return out_empty
            skeys, slp = ray.get(ref)
            idx = pc.index_in(_join_keys(vocab, slots), value_set=skeys)
            # every n-gram came from this same corpus: a miss means the
            # frequency pass and the scorer disagree — fail loudly
            assert idx.null_count == 0, "n-gram key missing from LM"
            vals = slp[idx.to_numpy(zero_copy_only=False)]
            # rows are nondecreasing: per-doc sums are run reduceats
            starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
            ids = _col(batch, "doc_id")[row[starts]]
            return _doc_means(pa.array(ids, pa.int64()), count_col,
                              vals, starts)

        return ds.map_batches(score, batch_format="pyarrow")

    def emit(batch: pa.Table) -> pa.Table:
        row, slots, vocab = _gram_slots(batch, n)
        return pa.table({
            "doc_id": pa.array(_col(batch, "doc_id")[row], pa.int64()),
            "key": _join_keys(vocab, slots)})

    def doc_mean_runs(b: pa.Table, starts, ends) -> pa.Table:
        return _doc_means(b["doc_id"].take(pa.array(starts, pa.int64())),
                          count_col, _col(b, "lp"), starts)

    joined = compact_blocks(sortagg.sorted_lookup_join(
        ds.map_batches(emit, batch_format="pyarrow"), lp, "key", ["lp"]))
    return sortagg.sorted_bucket_apply(joined, "doc_id", ["doc_id"],
                                       doc_mean_runs, out_empty)


# ---------------------------------------------------- heavy_hitters

_HH_SENTINEL = _SEP  # bigram keys are w1␟w2 with non-empty words —
#                     a bare ␟ can never collide with a real key


def heavy_hitters(ds, capacity: int = 699):
    """Exact frequent-bigram mining with a two-pass candidate/verify
    plan (the distributed Misra-Gries guarantee): return EVERY
    adjacent-word bigram whose global count satisfies
    ``cnt * (capacity+1) > N`` (N = total bigram occurrences in the
    corpus) together with its EXACT count — without ever shuffling or
    materializing the full bigram vocabulary.

    Pass 1 streams the corpus once: each batch computes exact local
    pair counts (`ngram_counts_batch(batch, 2)`) and nominates the bigrams with
    ``count_b*(capacity+1) > n_b``.  Pigeonhole recall proof: a bigram
    at most n_b/(capacity+1) in EVERY batch sums to at most
    N/(capacity+1) globally, so anything above the global threshold is
    above the local threshold in >= 1 batch; and at most ``capacity``
    bigrams can exceed n_b/(capacity+1) within one batch, so the
    nominee union is bounded by capacity x #batches regardless of
    vocabulary size (the reason this beats a full `vocab_df`-style
    frequency shuffle at web scale).

    Pass 2 streams the corpus again counting ONLY nominees: while the
    distinct nominee table's block-metadata size fits
    ``sortagg.BROADCAST_BYTES`` it is broadcast once via ``ray.put``
    (Arrow key array, zero-copy to every worker) and each batch emits
    its nominee hits plus one sentinel row carrying n_b; over it the
    count falls back to the memory-safe
    merge-join path (full per-batch partials semi-joined against the
    nominee table — more shuffle, bounded memory).  One
    nominee-bounded run-sum + the integer predicate on the
    driver-folded (<= nominees+1 row) table finish it.  All-integer,
    and exact counts kill pass-1 false positives, so the output is
    layout/schedule INVARIANT even though the nominee set itself is
    layout-dependent.  Returns a pyarrow Table (w1, w2, cnt) sorted by
    (-cnt, w1, w2).
    """
    import pyarrow.compute as pc
    import ray
    from zhtml_ray.stages import sortagg
    from zhtml_ray.stages.sortagg import (sorted_lookup_join,
                                          sorted_sum_per_group)
    from zhtml_ray.stages.util import compact_blocks, drop_empty_blocks

    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    c1 = capacity + 1
    kempty = pa.table({"key": pa.array([], pa.string())})
    out_empty = pa.table({"w1": pa.array([], pa.string()),
                          "w2": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
    pempty = pa.table({"key": pa.array([], pa.string()),
                       "cnt": pa.array([], pa.int64())})

    def _keyed_counts(batch: pa.Table) -> pa.Table:
        return ngram_counts_batch(batch, 2).select(["key", "cnt"])

    def nominate(batch: pa.Table) -> pa.Table:
        t = _keyed_counts(batch)
        if t.num_rows == 0:
            return kempty
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        keep = cnt * c1 > int(cnt.sum())
        if not keep.any():
            return kempty
        return t.filter(pa.array(keep)).select(["key"])

    noms = drop_empty_blocks(
        ds.map_batches(nominate, batch_format="pyarrow")).materialize()
    if noms.count() == 0:
        return out_empty
    ones = noms.map_batches(
        lambda b: b.append_column(
            "one", pa.array(np.ones(b.num_rows, np.int64))),
        batch_format="pyarrow")
    distinct = compact_blocks(
        sorted_sum_per_group(ones, ["key"], ["one"])).materialize()

    if distinct.size_bytes() <= sortagg.BROADCAST_BYTES:
        ktab = pa.concat_tables(
            [pa.table(b) for b in distinct.iter_batches(
                batch_format="pyarrow", batch_size=None)])
        ref = ray.put(ktab["key"].combine_chunks())

        def recount(batch: pa.Table) -> pa.Table:
            t = _keyed_counts(batch)
            if t.num_rows == 0:
                return pempty
            n_b = int(pc.sum(t["cnt"]).as_py())
            sel = t.filter(pc.is_in(t["key"], value_set=ray.get(ref)))
            sent = pa.table({"key": pa.array([_HH_SENTINEL]),
                             "cnt": pa.array([n_b], pa.int64())})
            return pa.concat_tables([sel, sent])

        parts = drop_empty_blocks(
            ds.map_batches(recount, batch_format="pyarrow"))
        summed = compact_blocks(
            sorted_sum_per_group(parts, ["key"], ["cnt"]))
        tbl = pa.concat_tables(
            [pa.table(b) for b in summed.iter_batches(
                batch_format="pyarrow", batch_size=None)]
            or [pempty])
        sent_mask = pc.equal(tbl["key"], _HH_SENTINEL)
        total = int(pc.sum(pc.filter(tbl["cnt"], sent_mask)).as_py()
                    or 0)
        tbl = tbl.filter(pc.invert(sent_mask))
    else:
        partials = drop_empty_blocks(
            ds.map_batches(_keyed_counts,
                           batch_format="pyarrow")).materialize()
        total = int(partials.sum("cnt") or 0)
        hits = sorted_lookup_join(partials, distinct, "key", (),
                                  how="semi")
        summed = compact_blocks(sorted_sum_per_group(
            hits, ["key"], ["cnt"]))
        tbl = pa.concat_tables(
            [pa.table(b) for b in summed.iter_batches(
                batch_format="pyarrow", batch_size=None)]
            or [pempty])

    if tbl.num_rows == 0 or total == 0:
        return out_empty
    cnt = tbl["cnt"].to_numpy(zero_copy_only=False)
    tbl = tbl.filter(pa.array(cnt * c1 > total))
    if tbl.num_rows == 0:
        return out_empty
    split = pc.split_pattern(tbl["key"], _HH_SENTINEL)
    out = pa.table({"w1": pc.list_element(split, 0),
                    "w2": pc.list_element(split, 1),
                    "cnt": tbl["cnt"]})
    return out.sort_by([("cnt", "descending"), ("w1", "ascending"),
                        ("w2", "ascending")])

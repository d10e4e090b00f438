"""Tests for the corpus-statistics operators (rep_signals,
dup_ngrams, vocab_doc_freq): kernel-level edge cases plus
multi-block Ray differentials against brute-force Python oracles."""

import random
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from zhtml_ray.functions import corpusstats


def _tbl(texts, ids=None):
    ids = ids if ids is not None else list(range(len(texts)))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(texts, pa.string())})


# -------------------------------------------------------- rep_signals

def _rep_oracle(text):
    words = text.split() if text else []
    n = len(words)
    c = Counter(words)
    bigrams = list(zip(words, words[1:]))
    return {
        "n_words": n,
        "n_distinct_words": len(c),
        "top_word_frac": (max(c.values()) / n) if n else 0.0,
        "dup_bigram_frac": (1.0 - len(set(bigrams)) / len(bigrams))
        if bigrams else 0.0,
    }


def test_rep_signals_edges():
    texts = ["", "  ", "one", "a a a a", "a b a b", None,
             "x y x"]  # unicode whitespace splits
    t = corpusstats.rep_signals_batch(_tbl(texts))
    for i, txt in enumerate(texts):
        exp = _rep_oracle(txt or "")
        for k, v in exp.items():
            got = t[k][i].as_py()
            assert got == pytest.approx(v), (i, k, got, v)


def test_rep_signals_random_differential():
    rng = random.Random(7)
    vocab = ["aa", "b", "ccc", "dd", "e"]
    texts = [" ".join(rng.choice(vocab)
                      for _ in range(rng.randrange(0, 30)))
             for _ in range(200)]
    t = corpusstats.rep_signals_batch(_tbl(texts))
    for i, txt in enumerate(texts):
        exp = _rep_oracle(txt)
        assert t["n_words"][i].as_py() == exp["n_words"]
        assert t["n_distinct_words"][i].as_py() == exp["n_distinct_words"]
        assert t["top_word_frac"][i].as_py() == pytest.approx(
            exp["top_word_frac"])
        assert t["dup_bigram_frac"][i].as_py() == pytest.approx(
            exp["dup_bigram_frac"])


# --------------------------------------------------------- dup_ngrams

def _grams(text, n=5):
    words = text.split() if text else []
    return {" ".join(words[i:i + n]) for i in range(len(words) - n + 1)}


def _dup_oracle(texts, n=5):
    per = {i: _grams(t or "", n) for i, t in enumerate(texts)}
    df = Counter(g for gs in per.values() for g in gs)
    out = {}
    for i, gs in per.items():
        if not gs:
            continue
        nd = sum(1 for g in gs if df[g] > 1)
        out[i] = (len(gs), nd, nd / len(gs))
    return out


def test_emit_distinct_ngrams_short_docs():
    t = corpusstats.emit_distinct_ngrams(
        _tbl(["a b c d", "a b c d e", ""]), n=5)
    assert t.num_rows == 1
    assert t["doc_id"].to_pylist() == [1]
    assert t["gram"].to_pylist() == ["a b c d e"]


def test_dup_ngrams_differential(ray_session):
    import ray.data as rd
    rng = random.Random(11)
    vocab = ["k", "v", "tab", "row", "col", "x"]
    texts = []
    for i in range(120):
        L = rng.choice([0, 3, 4, 5, 8, 20, 40])
        texts.append(" ".join(rng.choice(vocab) for _ in range(L)))
    # force exact duplicates so cross-doc grams exist at every length
    texts[10] = texts[11] = "alpha beta gamma delta epsilon zeta"
    ds = rd.from_arrow(_tbl(texts)).repartition(7)
    got = {r["doc_id"]: (r["n_grams"], r["n_dup_grams"], r["dup_frac"])
           for r in corpusstats.dup_ngrams(ds, n=5).take_all()}
    exp = _dup_oracle(texts, n=5)
    assert set(got) == set(exp)
    for k in exp:
        assert got[k][0] == exp[k][0], k
        assert got[k][1] == exp[k][1], k
        assert got[k][2] == pytest.approx(exp[k][2]), k


def test_dup_ngrams_empty(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(_tbl(["a b", ""]))
    out = corpusstats.dup_ngrams(ds, n=5).take_all()
    assert out == []


# ------------------------------------------------------ vocab_doc_freq

def test_vocab_partial_df_counts_docs_not_tokens():
    t = corpusstats.vocab_partial_df(_tbl(["a a a b", "a c", ""]))
    d = dict(zip(t["word"].to_pylist(), t["df"].to_pylist()))
    assert d == {"a": 2, "b": 1, "c": 1}


def test_vocab_doc_freq_differential(ray_session):
    import ray.data as rd
    rng = random.Random(3)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab)
                      for _ in range(rng.randrange(0, 25)))
             for _ in range(300)]
    ds = rd.from_arrow(_tbl(texts)).repartition(9)
    got = [(r["word"], r["df"])
           for r in corpusstats.vocab_doc_freq(ds, k=10).take_all()]
    df = Counter()
    for t in texts:
        for w in set(t.split()):
            df[w] += 1
    exp = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert got == exp


# ------------------------------------------------------ mask_dup_spans

def _mask_oracle(texts, n):
    """Serial brute force: exact n-gram occurrence counts, span union."""
    words_per = [t.split() if t else [] for t in texts]
    cnt = Counter(" ".join(w[i:i + n])
                  for w in words_per for i in range(len(w) - n + 1))
    out = {}
    for did, w in enumerate(words_per):
        covered = [False] * len(w)
        for i in range(len(w) - n + 1):
            if cnt[" ".join(w[i:i + n])] >= 2:
                for j in range(i, i + n):
                    covered[j] = True
        out[did] = (len(w), sum(covered),
                    " ".join(x for x, c in zip(w, covered) if not c))
    return out


@pytest.mark.parametrize("gram_key", ["hash", "text"])
@pytest.mark.parametrize("nblocks", [1, 6])
def test_mask_dup_spans_differential(ray_session, nblocks, gram_key):
    import ray.data as rd
    rng = random.Random(7)
    vocab = ["k", "v", "tab", "row", "col", "x", "y", "z"]
    texts = []
    for _ in range(80):
        L = rng.choice([0, 2, 4, 5, 9, 20, 35])
        texts.append(" ".join(rng.choice(vocab) for _ in range(L)))
    shared = "one two three four five"        # exact 5-word span
    texts[3] = "pre " + shared + " mid tail words here"
    texts[9] = shared + " completely different ending words"
    texts[17] = "self " + shared + " loop " + shared + " done"  # self-repeat
    ds = rd.from_arrow(_tbl(texts)).repartition(nblocks)
    got = {r["doc_id"]: (r["n_words"], r["n_dup_words"], r["kept_text"])
           for r in corpusstats.mask_dup_spans(
               ds, n=5, gram_key=gram_key).take_all()}
    exp = _mask_oracle(texts, n=5)
    assert got == exp
    # the planted cross-doc span was actually masked
    assert "three" not in got[3][2] and "three" not in got[9][2]


def test_gram_hash_deterministic_across_batches():
    """The 128-bit gram hash must be pure content hashing: the same
    gram text in different batches (different dictionaries, different
    positions) maps to the same 16-byte key — that is the property the
    cross-batch duplicate sort relies on."""
    t1 = corpusstats.emit_gram_occurrences_hashed(
        _tbl(["alpha beta gamma delta", "x y z"]), 3)
    t2 = corpusstats.emit_gram_occurrences_hashed(
        _tbl(["junk junk alpha beta gamma delta junk"]), 3)
    g1 = {r["pos"]: r["gh"] for r in t1.to_pylist() if r["doc_id"] == 0}
    g2 = {r["pos"]: r["gh"] for r in t2.to_pylist()}
    # "alpha beta gamma" at pos 0 in doc 0 == pos 2 in the other batch
    assert g1[0] == g2[2] and g1[1] == g2[3]
    # distinct grams get distinct keys; no window crosses the doc edge
    assert len({r["gh"] for r in t1.to_pylist()}) == t1.num_rows == 3


def test_gram_hash_matches_string_emitter_shape():
    """Hashed and string emitters agree on (doc_id, pos) coverage and
    on the duplicate structure (equal grams <-> equal hashes) over a
    corpus with planted self- and cross-doc repeats."""
    texts = ["a b c a b c a b", "z a b c q", ""]
    ts = corpusstats.emit_gram_occurrences(_tbl(texts), 3)
    th = corpusstats.emit_gram_occurrences_hashed(_tbl(texts), 3)
    assert ts.num_rows == th.num_rows
    ks = [(r["doc_id"], r["pos"]) for r in ts.to_pylist()]
    kh = [(r["doc_id"], r["pos"]) for r in th.to_pylist()]
    assert ks == kh
    by_gram: dict = {}
    for r, h in zip(ts.to_pylist(), th.to_pylist()):
        by_gram.setdefault(r["gram"], set()).add(h["gh"])
    # every distinct gram -> exactly one hash; distinct grams -> distinct
    assert all(len(v) == 1 for v in by_gram.values())
    hashes = [next(iter(v)) for v in by_gram.values()]
    assert len(set(hashes)) == len(by_gram)


def test_mask_dup_spans_no_dups(ray_session):
    import ray.data as rd
    texts = ["a b c d e", "f g h i j", ""]
    ds = rd.from_arrow(_tbl(texts)).repartition(2)
    got = {r["doc_id"]: r for r in
           corpusstats.mask_dup_spans(ds, n=3).take_all()}
    assert got[0]["n_dup_words"] == 0
    assert got[0]["kept_text"] == "a b c d e"
    assert got[2]["n_words"] == 0 and got[2]["kept_text"] == ""


def test_split_encode_matches_python_split_exactly():
    """Pinned differential: the Arrow `_split_encode` fast path must be
    BYTE-identical to the Python `str.split()` + `_encode_flat` path —
    including the full Python whitespace set both directions (this
    pyarrow build's utf8_split_whitespace covers \x1c-\x1f; if an
    upgrade changes the split charset or dictionary order, this test
    flips and corpus-stat oracles would silently drift)."""
    import numpy as np
    import pyarrow as pa

    from zhtml_ray.functions.corpusstats import (_encode_flat,
                                                 _split_encode,
                                                 _split_words)

    py_ws = "".join(chr(c) for c in range(0x3001) if chr(c).isspace())
    texts = [
        None, "", "   ", " a  b ", "\ta\nb\x1cc\x1dd\x1ee\x1ff",
        "a" + py_ws + "b", py_ws,
        "word " * 50 + "tail", "solo",
        " nbsp ls ps　ideo", "dup dup dup x",
    ]
    import random
    rng = random.Random(3)
    words = ["w%d" % i for i in range(200)]
    texts += [" ".join(rng.choice(words)
                       for _ in range(rng.randint(0, 80)))
              for _ in range(300)]
    wp, lens0 = _split_words(texts)
    row0, codes0, vocab0 = _encode_flat(wp, lens0)
    row1, codes1, vocab1, lens1 = _split_encode(pa.array(texts,
                                                         pa.string()))
    assert np.array_equal(row0, row1)
    assert np.array_equal(codes0, codes1)
    assert np.array_equal(lens0, lens1)
    assert vocab0.equals(vocab1) or vocab1.to_pylist() == \
        vocab0.to_pylist()


# ------------------------------------------------------ heavy_hitters

def _hh_oracle(texts, c1):
    bf = Counter()
    for s in texts:
        toks = (s or "").split()
        for p in zip(toks, toks[1:]):
            bf[p] += 1
    n = sum(bf.values())
    return {p: c for p, c in bf.items() if c * c1 > n}


def _hh_got(tbl):
    return {(w1, w2): c for w1, w2, c in
            zip(tbl["w1"].to_pylist(), tbl["w2"].to_pylist(),
                tbl["cnt"].to_pylist())}


def test_heavy_hitters_matches_bruteforce_and_paths(ray_session,
                                                    tmp_path, sort_tier):
    """Exact output vs a Counter brute force on a skewed corpus, for
    several capacities, across a multi-block layout; the over-budget
    merge-join fallback emits identical rows."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from zhtml_ray.functions.corpusstats import heavy_hitters

    rng = random.Random(7)
    words = [f"w{i}" for i in range(40)]
    texts = []
    for _ in range(120):
        toks = [rng.choice(words) for _ in range(rng.randint(0, 30))]
        # plant a hot bigram in ~1/3 of docs
        if rng.random() < 0.34:
            toks += ["hot", "pair"] * rng.randint(1, 4)
        texts.append(" ".join(toks))
    texts += ["", None, "solo"]
    t = _tbl(texts)
    pq.write_table(t, tmp_path / "d.parquet")
    ds = rd.read_parquet(str(tmp_path / "d.parquet")).repartition(9)

    for cap in (9, 49, 399):
        got = _hh_got(heavy_hitters(ds, capacity=cap))
        assert got == _hh_oracle(texts, cap + 1)
        with sort_tier():
            slow = _hh_got(heavy_hitters(ds, capacity=cap))
        assert slow == got


def test_heavy_hitters_recall_across_blocks(ray_session):
    """Pigeonhole recall: a bigram NOT locally heavy in most blocks is
    still found — it only has to clear the local bar in one batch."""
    import ray.data as rd

    from zhtml_ray.functions.corpusstats import heavy_hitters

    # 8 blocks of noise with one "x y" each (locally light), one block
    # stuffed with "x y" (locally heavy) — globally heavy overall
    noise = [" ".join(f"n{i}_{j}" for j in range(60)) + " x y"
             for i in range(8)]
    stuffed = [" ".join(["x y"] * 60)]
    texts = noise + stuffed
    ds = rd.from_arrow(_tbl(texts)).repartition(9)
    got = _hh_got(heavy_hitters(ds, capacity=9))
    want = _hh_oracle(texts, 10)
    assert ("x", "y") in want  # the scenario is real
    assert got == want


def test_heavy_hitters_empty_and_degenerate(ray_session):
    import ray.data as rd

    from zhtml_ray.functions.corpusstats import heavy_hitters

    out = heavy_hitters(rd.from_arrow(_tbl(["", None, "one"])),
                        capacity=9)
    assert out.num_rows == 0
    with pytest.raises(ValueError):
        heavy_hitters(rd.from_arrow(_tbl(["a b"])), capacity=0)
    # single repeated bigram: always a heavy hitter, exact count
    got = _hh_got(heavy_hitters(rd.from_arrow(_tbl(["a b a b a b"])),
                                capacity=9))
    # "a b a b a b" bigrams: (a,b)x3, (b,a)x2 -> n=5
    assert got == {("a", "b"): 3, ("b", "a"): 2}


# ---------------------------------------------------- n-gram LM

def _ngrams(text, n):
    toks = (text or "").split()
    return list(zip(*(toks[i:] for i in range(n))))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ngram_counts_batch_matches_zip_count(n):
    """The per-batch kernel's (key, ctx, cnt) rows equal a pure-Python
    ``zip`` count: no n-gram across a doc boundary, ctx the first n-1
    words; a batch whose docs are all shorter than n gives no row."""
    rng = random.Random(n)
    words = ["a", "b", "c", "dd", "é"]
    texts = [" ".join(rng.choice(words) for _ in range(rng.randint(0, 9)))
             for _ in range(60)] + ["", None, "solo", "a b", "a b c"]
    t = corpusstats.ngram_counts_batch(_tbl(texts), n)
    assert t.schema.names == ["key", "ctx", "cnt"]
    got = {}
    for key, ctx, cnt in zip(*(t[c].to_pylist() for c in t.schema.names)):
        gram = tuple(key.split("\x1f"))
        assert ctx == "\x1f".join(gram[:-1])
        got[gram] = cnt
    assert got == Counter(g for s in texts for g in _ngrams(s, n))

    short = [" ".join(f"w{j}" for j in range(n - 1)), "", None] * 3
    empty = corpusstats.ngram_counts_batch(_tbl(short), n)
    assert empty.num_rows == 0
    assert empty.schema == t.schema


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ngram_logprob_tiers_and_reference(ray_session, tmp_path,
                                           monkeypatch, sort_tier, n):
    """Both scoring tiers (broadcast under ``BROADCAST_BYTES``, the
    merge join under ``sort_tier()``) emit identical rows, and they
    match an independent dict-counting reference: ln(c(g)/c(ctx)) with
    the token total as a unigram's context count (each conditional
    distribution sums to 1), docs with fewer than n tokens absent,
    doc-boundary n-grams never counted."""
    import math

    import pyarrow.parquet as pq
    import ray.data as rd

    from zhtml_ray.functions.corpusstats import ngram_logprob
    from zhtml_ray.stages import sortagg

    joined_on = []
    real = sortagg.sorted_lookup_join

    def spy(big, lookup, key_col, *a, **kw):
        joined_on.append(key_col)
        return real(big, lookup, key_col, *a, **kw)

    monkeypatch.setattr(sortagg, "sorted_lookup_join", spy)
    rng = np.random.default_rng({1: 5, 2: 13, 3: 29}[n])
    words = ["a", "b", "c", "dd"]
    texts = [" ".join(rng.choice(words, rng.integers(0, 12)).tolist())
             for _ in range(80)] + ["", "solo", None, "a b", "a b c"]
    pq.write_table(_tbl(texts), tmp_path / "documents.parquet")
    ds = rd.read_parquet(str(tmp_path / "documents.parquet")) \
        .repartition(7)
    count_col = ("n_tokens", "n_bigrams", "n_trigrams")[n - 1]

    def scores():
        return {r["doc_id"]: (r[count_col], r["mean_logprob"])
                for r in ngram_logprob(ds, n).take_all()}

    fast = scores()
    assert "key" not in joined_on  # the broadcast scorer ran
    with sort_tier():
        slow = scores()
    assert "key" in joined_on  # the merge-join scorer ran
    assert fast == slow

    gf, cf = Counter(), Counter()
    for s in texts:
        for g in _ngrams(s, n):
            gf[g] += 1
            cf[g[:-1]] += 1
    want = {}
    for i, s in enumerate(texts):
        grams = _ngrams(s, n)
        if not grams:
            continue
        m = sum(math.log(gf[g] / cf[g[:-1]]) for g in grams) / len(grams)
        want[i] = (len(grams), math.floor(m * 1e6 + 0.5) / 1e6)
    assert set(fast) == set(want)
    for k in want:
        assert fast[k][0] == want[k][0]
        assert abs(fast[k][1] - want[k][1]) < 2e-6  # pin-boundary slack
    if n == 3:
        assert fast == want
    # conditional distributions sum to 1 per context
    for ctx in cf:
        assert sum(gf[g] for g in gf if g[:-1] == ctx) == cf[ctx]
    with pytest.raises(ValueError):
        ngram_logprob(ds, 4)

"""Property tests for the session-9 ops: budget apportionment
invariants, nearest-centroid quality on the clustered fixture, and
tf-idf ranking sanity."""

import numpy as np


SF = "/root/testdata/sf0.001"


def test_token_budget_sums_exactly(ray_session):
    from zhtml_ray.pipelines.ops_queries import q_token_budget
    got = q_token_budget(SF, budget=99_991)  # prime: forces remainders
    assert int(got["alloc"].sum()) == 99_991
    assert (got["alloc"] >= 0).all()
    # proportionality: every allocation within 1 of the exact quota
    q = 99_991 * got["w"].to_numpy(np.float64) / got["w"].sum()
    assert (np.abs(got["alloc"].to_numpy() - q) < 1.0).all()


def test_nearest_centroid_recovers_labels(ray_session):
    from zhtml_ray.pipelines.ops_queries import q_nearest_centroid
    got = q_nearest_centroid(SF).to_pandas()
    # the fixture's label clusters are NOISY (measured own-centroid
    # mean cosine ~0.14 vs ~0.001 cross): the prototype classifier
    # can't recover every label, but must beat 10-label chance by 3×
    assert got["is_own"].mean() > 0.30
    assert (got["cos_r"] <= 1.0000005).all()
    assert got["assigned_label"].nunique() == 10


def test_tfidf_rankings(ray_session):
    from zhtml_ray.pipelines.ops_queries import q_tfidf_top_terms
    got = q_tfidf_top_terms(SF, k=3).to_pandas()
    g = got.groupby("doc_id")
    assert (g.size() <= 3).all()
    # within a doc, scores are non-increasing in (score, term) order
    for _, grp in list(g)[:50]:
        s = grp.sort_values(["score", "term"],
                            ascending=[False, True])["score"].to_numpy()
        assert (np.diff(s) <= 0).all()
    # a term present in EVERY doc scores tf * N // N = tf; rare terms
    # outrank it at equal tf
    assert (got["score"] >= got["tf"]).all()


def test_tfidf_plans_identical(ray_session):
    """The broadcast-df map-side plan and the open-vocabulary shuffle
    plan emit the same integers over the same corpus (vocab_budget=0
    forces the fallback)."""
    from zhtml_ray.pipelines.ops_queries import q_tfidf_top_terms
    cols = ["doc_id", "term", "tf", "df", "score"]
    fast = q_tfidf_top_terms(SF, k=4).to_pandas() \
        .sort_values(cols).reset_index(drop=True)
    slow = q_tfidf_top_terms(SF, k=4, vocab_budget=0).to_pandas() \
        .sort_values(cols).reset_index(drop=True)
    assert fast[cols].equals(slow[cols])
    assert len(fast) > 0


def test_pmi_collocations_differential(ray_session, tmp_path):
    """Differential vs an independent dict-counting reference on a
    synthetic corpus with doc-boundary traps (a frequent bigram split
    across docs must NOT count), empty/whitespace-only docs, and a
    null text row."""
    import collections
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq
    from zhtml_ray.pipelines.ops_queries import q_pmi_collocations

    rng = np.random.default_rng(7)
    words = ["a", "b", "c", "dd", "ee"]
    texts = [" ".join(rng.choice(words, rng.integers(0, 30)).tolist())
             for _ in range(60)]
    texts += ["", "   \t\n ", None, "x y", "x", "y x y x y"]
    # boundary trap: 'zq' ends one doc, 'qz' starts the next
    texts += ["a zq", "qz b"] * 6
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    pq.write_table(t, tmp_path / "documents.parquet")

    got = {(r["w1"], r["w2"]): (r["pair_cnt"], r["pmi_e4"])
           for r in q_pmi_collocations(str(tmp_path), min_count=2)
           .take_all()}

    uni = collections.Counter()
    pairs = collections.Counter()
    for s in texts:
        toks = (s or "").split()
        uni.update(toks)
        pairs.update(zip(toks, toks[1:]))
    n = sum(uni.values())
    want = {}
    for (w1, w2), c in pairs.items():
        if c >= 2:
            d = uni[w1] * uni[w2]
            q, r = divmod(c * n, d)
            want[(w1, w2)] = (c, q * 10_000 + r * 10_000 // d)
    assert got == want and len(want) > 3
    assert ("zq", "qz") not in got  # never crosses a doc boundary
    # sanity: scores really are floor(1e4 * exp(PMI))
    for (w1, w2), (c, s) in want.items():
        assert s == math.floor(
            __import__("fractions").Fraction(c * n * 10_000,
                                             uni[w1] * uni[w2]))


def test_quality_classifier_matches_local_recompute(ray_session):
    """Distributed logits equal a one-process numpy recompute from the
    same parquet (pin formula included), and the threshold actually
    splits the corpus (both classes non-empty)."""
    import pyarrow.parquet as pq
    from zhtml_ray.pipelines.ops_queries import (_clf_weights,
                                                 q_quality_classifier)

    got = {r["vec_id"]: (r["logit_r"], r["keep"])
           for r in q_quality_classifier(SF).take_all()}
    t = pq.read_table(SF + "/embeddings.parquet")
    M = np.array(t["embedding"].to_pylist(), np.float64)
    w, bias = _clf_weights(M.shape[1])
    logit = np.floor((M @ np.asarray(w) + bias) * 1e6 + 0.5) / 1e6
    want = {int(v): (float(l), bool(l > 0.0))
            for v, l in zip(t["vec_id"].to_pylist(), logit)}
    assert got == want
    kept = sum(k for _, k in got.values())
    assert 0 < kept < len(got)


def test_range_lookup_boundaries(ray_session, tmp_path):
    """Interval semantics pinned on hand-picked boundary values: lo is
    inclusive, hi exclusive, gap values and out-of-range values null."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from zhtml_ray.pipelines.ops_queries import q_range_lookup

    vals = [0, 119, 120, 219, 220, 259, 260, 339, 340, 459, 460,
            499, 500, 999, 1000, -5]
    t = pa.table({"doc_id": pa.array(range(len(vals)), pa.int64()),
                  "text": pa.array(["x"] * len(vals)),
                  "lang": pa.array(["en"] * len(vals)),
                  "source": pa.array(["s"] * len(vals)),
                  "n_chars": pa.array(vals, pa.int64())})
    pq.write_table(t, tmp_path / "documents.parquet")
    got = {r["n_chars"]: r["size_class"]
           for r in q_range_lookup(str(tmp_path)).take_all()}
    assert got == {0: "xs", 119: "xs", 120: "s", 219: "s", 220: None,
                   259: None, 260: "m", 339: "m", 340: "l", 459: "l",
                   460: None, 499: None, 500: "xl", 999: "xl",
                   1000: None, -5: None}


def test_url_blocklist_prefix_semantics(ray_session):
    """Prefix-free normalization + predecessor-only matching: the
    host-wide h3 prefix subsumes its longer /p/1 entry; h5 blocks only
    the /p/1* subtree (p/1, p/10..p/19, ...); exact-boundary and
    near-miss urls stay unblocked."""
    from zhtml_ray.pipelines.ops_queries import (normalize_prefix_free,
                                                 q_url_blocklist)

    pf = normalize_prefix_free(
        ["https://a/x", "https://a/", "https://b/q", "https://a/xyz"])
    assert pf == ["https://a/", "https://b/q"]

    rows = q_url_blocklist(SF).take_all()
    assert len(rows) == 500
    got = {r["canonical_url"]: r["blocked"] for r in rows}
    # 3 docs share each canonical url (utm/fragment overlay) — blocked
    # must agree within a url group for the dict collapse to be sound
    for r in rows:
        assert got[r["canonical_url"]] == r["blocked"]
    h3 = {u: b for u, b in got.items() if "//www.h3." in u}
    assert h3 and all(h3.values())  # whole h3 host blocked
    h5_p1 = {u: b for u, b in got.items()
             if u.startswith("https://www.h5.example.com/p/1")}
    assert h5_p1 and all(h5_p1.values())
    h5_rest = {u: b for u, b in got.items()
               if "//www.h5." in u and u not in h5_p1}
    assert h5_rest and not any(h5_rest.values())
    assert not any(b for u, b in got.items() if "//www.h0." in u)


def test_label_outliers_flags_planted_noise(ray_session):
    """Statistical sanity on the fixture: z-scores are standardized
    per label (mean≈0, std≈1), outlier flags match z < -2 exactly, and
    the outlier rate sits in the plausible one-sided-tail band."""
    from zhtml_ray.pipelines.ops_queries import q_label_outliers
    import pandas as pd

    got = q_label_outliers(SF).to_pandas()
    assert len(got) == 500
    g = got.groupby("label")["z_r"]
    assert (g.mean().abs() < 0.05).all()
    assert ((g.std(ddof=0) - 1.0).abs() < 0.05).all()
    assert (got["is_outlier"] == (got["z_r"] < -2.0)).all()
    rate = got["is_outlier"].mean()
    assert 0.0 < rate < 0.10


def test_dedup_representatives_pick_best_quality(ray_session):
    """Every near-dup cluster keeps exactly one representative; within
    a multi-member cluster it is the (max quality, min doc_id) member;
    member counts sum back to the corpus."""
    from zhtml_ray.pipelines.ops_queries import (q_dedup_representatives,
                                                 q_minhash_dedup,
                                                 q_quality)

    reps = {r["cluster"]: r for r in
            q_dedup_representatives(SF).take_all()}
    clu = q_minhash_dedup(SF).to_pandas()
    qual = q_quality(SF).to_pandas().set_index("doc_id")[
        "quality_score"]
    assert set(reps) == set(clu["cluster"].unique())
    assert sum(r["n_members"] for r in reps.values()) == len(clu)
    multi = clu.groupby("cluster").size()
    multi = multi[multi > 1].index
    assert len(multi) > 0  # the fixture really has near-dup clusters
    for c in multi:
        members = clu.loc[clu["cluster"] == c, "doc_id"]
        q6 = {d: np.floor(qual[d] * 1e6 + 0.5) / 1e6 for d in members}
        best = sorted(members, key=lambda d: (-q6[d], d))[0]
        assert reps[c]["rep_id"] == best
        assert reps[c]["n_members"] == len(members)


def test_bucketed_join_matches_pandas_and_never_shuffles(ray_session,
                                                         tmp_path):
    """Co-located bucketed join vs a pandas merge on mismatched key
    sets (inner semantics drops both unmatched sides), and the join
    plan contains NO all-to-all operator — the whole point of the
    at-rest bucketing."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from zhtml_ray.stages.bucketed import bucketed_join, write_bucketed

    rng = np.random.default_rng(3)
    ka = rng.choice(3000, 900, replace=False)
    kb = rng.choice(3000, 900, replace=False)
    a = pa.table({"k": pa.array(ka, pa.int64()),
                  "x": pa.array(rng.integers(0, 99, 900), pa.int64())})
    b = pa.table({"k": pa.array(kb, pa.int64()),
                  "y": pa.array([f"v{v}" for v in kb], pa.string())})
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    write_bucketed(rd.from_arrow(a).repartition(5), da, "k", 8)
    write_bucketed(rd.from_arrow(b).repartition(3), db, "k", 8)
    out = bucketed_join(da, db, "k", 8).materialize()
    st = out.stats()
    for marker in ("Sort", "Shuffle", "Aggregate("):
        assert marker not in st, f"unexpected {marker}:\n{st}"
    got = out.to_pandas().sort_values(["k"]).reset_index(drop=True)
    want = a.to_pandas().merge(b.to_pandas(), on="k", how="inner") \
        .sort_values(["k"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["k", "x", "y"]],
                                  want[["k", "x", "y"]])
    assert len(want) > 0


def test_ppl_tercile_rank_rule_matches_duckdb():
    """The engine's ceil(n*q) rank rule for q = 1/3, 2/3 (with the
    same repr() literals the oracle SQL embeds) equals DuckDB
    quantile_disc across an adversarial n grid — including multiples
    of 3 where float n*q sits on an integer boundary."""
    import math

    import duckdb

    from zhtml_ray.pipelines.ops_queries import _PPL_QS

    con = duckdb.connect()
    for n in list(range(1, 46)) + [99, 100, 300, 301, 500, 501,
                                   999, 1000, 2997, 3000]:
        con.execute("DROP TABLE IF EXISTS v")
        con.execute(f"CREATE TABLE v AS SELECT unnest(range(1, {n + 1}))"
                    " AS x")
        for q in _PPL_QS:
            got = con.execute(
                f"SELECT quantile_disc(x, {q!r}) FROM v").fetchone()[0]
            assert got == max(1, math.ceil(n * q)), (n, q)


def test_ppl_buckets_differential(ray_session, tmp_path):
    """Engine buckets equal a serial recompute (Counter LM + sorted
    tercile thresholds) on a skewed multi-block corpus; thirds are
    balanced up to tie groups; ties on the pinned score land in ONE
    bucket on both sides."""
    import math
    from collections import Counter

    import pyarrow as pa
    import pyarrow.parquet as pq

    from zhtml_ray.pipelines.ops_queries import q_ppl_buckets

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(25)]
    zipf = np.arange(1, 26, dtype=np.float64) ** -1.3
    zipf /= zipf.sum()
    texts = [" ".join(rng.choice(words, rng.integers(1, 40), p=zipf)
                      .tolist()) for _ in range(180)]
    texts += ["", None]  # token-less docs are absent from the output
    # tie block: identical docs => identical pinned score
    texts += ["w0 w1 w0"] * 12
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    pq.write_table(t, tmp_path / "documents.parquet")

    out = q_ppl_buckets(str(tmp_path))
    got = {r["doc_id"]: (r["mean_logprob"], r["ppl_bucket"])
           for r in out.take_all()}

    freq, tot = Counter(), 0
    for s in texts:
        toks = (s or "").split()
        freq.update(toks)
        tot += len(toks)
    score = {}
    for i, s in enumerate(texts):
        toks = (s or "").split()
        if not toks:
            continue
        m = sum(math.log(freq[w] / tot) for w in toks) / len(toks)
        score[i] = math.floor(m * 1e6 + 0.5) / 1e6
    vals = sorted(score.values())
    n = len(vals)
    t1 = vals[max(1, math.ceil(n * (1 / 3))) - 1]
    t2 = vals[max(1, math.ceil(n * (2 / 3))) - 1]
    want = {i: (v, "tail" if v <= t1 else "middle" if v <= t2
                else "head") for i, v in score.items()}
    assert got == want
    sizes = Counter(b for _, b in got.values())
    assert set(sizes) == {"tail", "middle", "head"}
    tie_buckets = {got[i][1] for i in range(len(texts) - 12,
                                            len(texts))}
    assert len(tie_buckets) == 1


def test_snapshot_upsert_differential(ray_session, tmp_path):
    """Upsert output equals a serial recompute of the same MERGE
    rules (delete/update/insert disjoint, null texts coalesced in
    U/I arms, kept rows pass nulls through untouched)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from zhtml_ray.pipelines.ops_queries import (_UPSERT_INS_OFFSET,
                                                 q_snapshot_upsert)

    n = 400
    texts = [None if i % 17 == 0 else f"doc {i} body" for i in range(n)]
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    pq.write_table(t, tmp_path / "documents.parquet")

    got = {r["doc_id"]: r["text"]
           for r in q_snapshot_upsert(str(tmp_path)).take_all()}

    want = {}
    for i, s in enumerate(texts):
        if i % 11 == 5:
            pass  # deleted
        elif i % 7 == 3:
            want[i] = (s or "") + " rev2"
        else:
            want[i] = s  # kept: nulls pass through
        if i % 13 == 1:
            want[i + _UPSERT_INS_OFFSET] = "ins " + (s or "")
    assert got == want
    # all three change kinds actually fired
    assert any(k >= _UPSERT_INS_OFFSET for k in got)
    assert len(got) < n + sum(1 for i in range(n) if i % 13 == 1)


def test_pivot_melt_roundtrip(ray_session, tmp_path):
    """pivot∘melt equals the plain long-form count (zero cells absent
    from the melt; users missing a type get 0 in the wide form)."""
    from collections import Counter

    import pyarrow as pa
    import pyarrow.parquet as pq

    from zhtml_ray.pipelines.ops_queries import (_EVENT_TYPES,
                                                 q_event_melt,
                                                 q_event_pivot)

    rng = np.random.default_rng(5)
    n = 2000
    user = rng.integers(0, 40, n)
    et = rng.choice(_EVENT_TYPES, n, p=[0.5, 0.05, 0.05, 0.1, 0.3])
    et[user == 3] = "click"  # user 3: single-type (zeros elsewhere)
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(np.full(n, 1_700_000_000_000_000),
                       pa.timestamp("us")),
        "user_id": pa.array(user, pa.int64()),
        "event_type": pa.array(et.tolist(), pa.string()),
        "value": pa.array(np.zeros(n), pa.float64()),
        "props": pa.array([""] * n, pa.string())})
    pq.write_table(t, tmp_path / "events.parquet")

    ref = Counter(zip(user.tolist(), et.tolist()))
    wide = {r["user_id"]: [r[f"n_{k}"] for k in _EVENT_TYPES]
            for r in q_event_pivot(str(tmp_path)).take_all()}
    assert wide == {u: [ref.get((u, k), 0) for k in _EVENT_TYPES]
                    for u in set(user.tolist())}
    assert wide[3][1:] == [0, 0, 0, 0]
    long = {(r["user_id"], r["event_type"]): r["n"]
            for r in q_event_melt(str(tmp_path)).take_all()}
    assert long == dict(ref)


def test_fuzzy_dirty_rebuild_matches_python(ray_session):
    """The engine's vectorized dirty-twin rebuild (split_encode + list
    binary_join) is string-identical to the serial fuzzy_dirty_text
    over hostile whitespace/None/short-doc inputs."""
    import pyarrow as pa

    from zhtml_ray.pipelines.golden import FUZZY_OFF, fuzzy_dirty_text
    from zhtml_ray.pipelines.ops_queries import _fuzzy_union_batch

    rng = np.random.default_rng(3)
    words = ["a", "bb", "ccc", "x"]
    texts = []
    for _ in range(60):
        k = int(rng.integers(0, 60))
        texts.append("  ".join(
            rng.choice(words, k).tolist()))  # thin-space separators
    texts += ["", None, " \t ", "w " * 30]
    ids = list(range(0, 2 * len(texts), 2))  # all even => all twinned
    b = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = _fuzzy_union_batch(b)
    twins = {r["doc_id"] - FUZZY_OFF: r["text"]
             for r in out.to_pylist() if r["doc_id"] >= FUZZY_OFF}
    assert twins == {i: fuzzy_dirty_text(s)
                     for i, s in zip(ids, texts)}


def test_fuzzy_join_matches_bruteforce(ray_session, tmp_path):
    """End-to-end fuzzy join equals a brute-force cross-pair argmax on
    a corpus with twins, decoy near-misses and unmatched lefts."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from zhtml_ray.functions.dedup import _shingles
    from zhtml_ray.pipelines.golden import (FUZZY_OFF,
                                            fuzzy_dirty_text)
    from zhtml_ray.pipelines.ops_queries import q_fuzzy_join

    rng = np.random.default_rng(17)
    vocab = [f"t{i}" for i in range(120)]
    texts = [" ".join(rng.choice(vocab, 60).tolist())
             for _ in range(120)]
    texts += [texts[0], texts[0] + " tail tail"]  # decoy dupes
    t = pa.table({"doc_id": pa.array(range(0, 2 * len(texts), 2),
                                     pa.int64()),
                  "text": pa.array(texts, pa.string())})
    pq.write_table(t, tmp_path / "documents.parquet")

    got = {r["doc_id"]: (r["match_id"], r["jaccard"])
           for r in q_fuzzy_join(str(tmp_path)).take_all()}

    ids = t["doc_id"].to_pylist()
    lsets = [set(_shingles(s).tolist()) for s in texts]
    rids = [i + FUZZY_OFF for i in ids]
    rsets = [set(_shingles(fuzzy_dirty_text(s)).tolist())
             for s in texts]
    want = {}
    for i, si in zip(ids, lsets):
        best = None
        for rj, sj in zip(rids, rsets):
            jac = len(si & sj) / len(si | sj) if (si or sj) else 1.0
            if jac >= 0.8 and (best is None or jac > best[1]
                               or (jac == best[1] and rj < best[0])):
                best = (rj, jac)
        if best:
            want[i] = best
    assert got == want and len(want) > 100


def test_json_props_matches_duckdb_on_hostile_rows(ray_session,
                                                   tmp_path):
    """The RE2 k-extraction agrees with DuckDB's JSON ->> on nulls,
    malformed JSON, negatives, whitespace variants and missing keys."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from zhtml_ray.pipelines.ops_queries import (SQL_JSON_PROPS,
                                                 q_json_props)

    props = ['{"k": 3}', '{ "k" :-7}', '{"k":0}', "{}", None,
             "not json", '{"j": 5}', '{"k": 12}'] * 9
    n = len(props)
    t = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "ts": pa.array([1_700_000_000_000_000] * n,
                       pa.timestamp("us")),
        "user_id": pa.array([1] * n, pa.int64()),
        "event_type": pa.array((["a", "b", "c"] * n)[:n], pa.string()),
        "value": pa.array([0.0] * n, pa.float64()),
        "props": pa.array(props, pa.string())})
    pq.write_table(t, tmp_path / "events.parquet")

    got = sorted(
        (r["event_type"], r["k_sum"], r["n"])
        for r in q_json_props(str(tmp_path)).take_all())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    want = sorted(map(tuple, con.execute(SQL_JSON_PROPS).fetchall()))
    assert got == want and len(got) == 3


def test_harmonize_union_drift_semantics(ray_session):
    """harmonize_union null-fills missing columns, widens narrow ints,
    reorders columns, and raises loudly on a non-castable drift."""
    import pyarrow as pa
    import ray.data as rd

    from zhtml_ray.stages.util import harmonize_union

    target = pa.schema([("k", pa.int64()), ("s", pa.string()),
                        ("v", pa.float64())])
    a = rd.from_arrow(pa.table({"s": ["x", "y"],
                                "k": pa.array([1, 2], pa.int32())}))
    b = rd.from_arrow(pa.table({"v": pa.array([0.5], pa.float32()),
                                "k": pa.array([9], pa.int64()),
                                "extra": ["dropped"]}))
    out = harmonize_union([a, b], target).take_all()
    assert sorted((r["k"], r["s"], r["v"]) for r in out) == \
        [(1, "x", None), (2, "y", None), (9, None, 0.5)]
    import pytest
    bad = rd.from_arrow(pa.table({"k": ["not-an-int"]}))
    with pytest.raises(Exception):
        harmonize_union([bad], target).take_all()


def test_schema_drift_union_rebuilds_v2_per_sf_dir(ray_session, tmp_path):
    """One process, two sf dirs of different sizes: each call's v2
    snapshot is derived from ITS documents table, never a cached one."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from zhtml_ray.pipelines.ops_queries import q_schema_drift_union

    for n, base in ((3, 0), (5, 100)):
        sf = tmp_path / f"sf{n}"
        sf.mkdir()
        ids = list(range(base, base + n))
        pq.write_table(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "lang": ["en"] * n,
            "n_chars": pa.array([7] * n, pa.int64())}),
            sf / "documents.parquet")
        rows = q_schema_drift_union(str(sf)).take_all()
        assert sorted(r["doc_id"] for r in rows) == \
            ids + [10 ** 9 + i for i in ids]
        assert sorted(r["crawl_ts"] for r in rows
                      if r["crawl_ts"] is not None) == \
            [1000 * i for i in ids]


def test_golden_sweep_spares_claimed_superseded_dirs(tmp_path, monkeypatch):
    """A superseded-digest golden dir CLAIMED by a live process (its
    .inuse.<pid> marker) must survive the sweep — a source edit during
    a long background gate run must not delete goldens out from under
    it (r4). Unclaimed / dead-claimed superseded dirs still sweep."""
    import os

    import zhtml_ray.pipelines.golden as g

    monkeypatch.setattr(g, "GOLDEN_ROOT", str(tmp_path))
    monkeypatch.setattr(g, "_CLEANED", False)
    cur = f"v9_sfX_dY_s{g._source_digest()}"
    live = tmp_path / "v9_sfX_dY_sOLDLIVE"
    dead = tmp_path / "v9_sfX_dY_sOLDDEAD"
    plain = tmp_path / "v9_sfX_dY_sOLDNONE"
    keep = tmp_path / cur
    for d in (live, dead, plain, keep):
        d.mkdir()
        (d / "x.parquet").write_bytes(b"stub")
    (live / f".inuse.{os.getpid()}").touch()
    (dead / ".inuse.999999999").touch()

    g._clean_stale_current()
    assert live.is_dir(), "claimed superseded dir was swept"
    assert keep.is_dir(), "current-digest dir must never sweep"
    assert not dead.exists() and not plain.exists(), \
        "unclaimed superseded dirs must still sweep"
